// Sharded durable-commit scaling: the shard-router tentpole's target
// numbers. N committer threads durably commit shard-local writes against
// a ShardedChunkStore with S = 1/2/4/8 shards. Each shard owns its log,
// counter, and commit mutex, so shard-local commits on different shards
// proceed with zero coordination; S = 1 is the pass-through baseline
// (bit-identical to a plain ChunkStore image, see shard_store_test).
//
// Two storage substrates:
//
//  - Modeled device (headline): every shard gets its own flush-on-sync
//    device — writes land in memory (the warm page cache) and Sync()
//    blocks the committer for a fixed device-flush latency with the CPU
//    free. That is the deployment sharding targets (one log device per
//    shard) and it is deterministic, so the scaling curve is the
//    router's, not the host's. Same modeling stance as
//    platform::SimulatedDiskStore, which benchmarks the paper's disk.
//
//  - Host disk: real FileUntrustedStores under one directory tree. On
//    this CI host every shard then shares a single ext4 journal whose
//    internal commit serialization — not the router — caps scaling
//    (measured: ~1.8-2.2x at 4 concurrent fsync streams); the family is
//    kept to record what a one-spindle host gives.
//
// Acceptance tracking (ISSUE 7): at 8 threads, shard-local durable
// commits/sec with 4 shards must be >= 2.5x the 1-shard baseline — both
// visible as items_per_second in the emitted JSON (modeled family).
//
// Companion families: the same sweep with per-shard group-commit windows
// (the two amortization levers compose), and a mixed workload where
// 1-in-8 commits spans two shards and pays the full 2PC prepare +
// decision protocol.
//
// Emit JSON with:
//   shard_throughput --benchmark_out=BENCH_shard_throughput.json
//                    --benchmark_out_format=json  (one command line)

#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_metrics.h"
#include "chunk/chunk_store.h"
#include "common/random.h"
#include "platform/file_store.h"
#include "platform/mem_store.h"
#include "platform/one_way_counter.h"
#include "platform/secret_store.h"
#include "shard/sharded_chunk_store.h"

namespace {

using namespace tdb;
using namespace tdb::chunk;

constexpr int kMaxThreads = 16;
constexpr size_t kPayloadBytes = 512;
// Flush latency of one modeled log device: a disk-era write-through
// commit (conservatively under the paper's ~5ms average positioning
// cost; also the right order for an SSD with a real cache flush).
constexpr auto kDeviceFlushLatency = std::chrono::microseconds(1000);

/// One independent flush-on-sync device: data lands in memory and Sync()
/// charges a fixed device-flush latency in *wall time with the CPU
/// free*, so flushes on different devices overlap — unlike the virtual
/// clock of platform::SimulatedDiskStore, which cannot express
/// cross-device parallelism.
class ModeledDeviceStore final : public platform::UntrustedStore {
 public:
  Status Create(const std::string& name, bool overwrite) override {
    return base_.Create(name, overwrite);
  }
  Status Remove(const std::string& name) override {
    return base_.Remove(name);
  }
  bool Exists(const std::string& name) const override {
    return base_.Exists(name);
  }
  Status Read(const std::string& name, uint64_t offset, size_t n,
              Buffer* out) const override {
    return base_.Read(name, offset, n, out);
  }
  Status Write(const std::string& name, uint64_t offset,
               Slice data) override {
    return base_.Write(name, offset, data);
  }
  Result<uint64_t> Size(const std::string& name) const override {
    return base_.Size(name);
  }
  Status Truncate(const std::string& name, uint64_t size) override {
    return base_.Truncate(name, size);
  }
  Status Sync(const std::string& name) override {
    std::this_thread::sleep_for(kDeviceFlushLatency);
    return base_.Sync(name);
  }
  std::vector<std::string> List() const override { return base_.List(); }

 private:
  platform::MemUntrustedStore base_;
};

enum class Substrate { kModeledDevice, kHostDisk };

std::string FreshBenchDir() {
  static std::atomic<int> next_dir{0};
  std::string dir = std::filesystem::temp_directory_path() /
                    ("tdb_shard_bench_" + std::to_string(next_dir++));
  std::filesystem::remove_all(dir);
  return dir;
}

ChunkStoreOptions ShardOptions(bool group_commit, int committers,
                               int nshards) {
  ChunkStoreOptions options;
  options.security = crypto::SecurityConfig::Modern();
  options.segment_size = 256 * 1024;
  // No maintenance during the measured loop: this isolates the per-commit
  // sync + counter costs that sharding parallelizes.
  options.checkpoint_interval_bytes = 1ull << 40;
  options.max_clean_segments_per_commit = 0;
  options.max_utilization = 0.99;
  options.cache_bytes = 4 * 1024 * 1024;
  options.crypto_threads = 0;
  options.group_commit = group_commit;
  if (group_commit) {
    // Each shard's window is sized to the committers it can expect:
    // threads spread round-robin, so a shard sees ~committers/nshards.
    options.group_commit_window_us = 2000;
    options.group_commit_target_commits = static_cast<uint32_t>(
        committers / nshards > 0 ? committers / nshards : 1);
  }
  return options;
}

// One router shared by all committer threads. Every shard gets its own
// device and one-way counter; the secret store is shared (the deployment
// shape: one tamper-resistant secret, several devices).
struct ShardFixture {
  std::string dir;
  std::vector<std::unique_ptr<platform::UntrustedStore>> devices;
  platform::MemSecretStore secrets;
  std::vector<std::unique_ptr<platform::OneWayCounter>> counters;
  std::unique_ptr<shard::ShardedChunkStore> router;
  // cids[t] is shard-local for thread t: cids[t] % nshards == t % nshards,
  // so with T >= S every shard stays busy and no two threads contend on a
  // chunk id.
  ChunkId cids[kMaxThreads] = {};

  // coordinator_threads < 0 keeps the option's default (parallel 2PC
  // phases); 0 forces the serial caller-driven coordinator.
  ShardFixture(Substrate substrate, int nshards, bool group_commit,
               int committers, int coordinator_threads = -1) {
    std::vector<shard::ShardBackend> backends;
    (void)secrets.Provision(Slice("bench-secret")).ok();
    if (substrate == Substrate::kHostDisk) dir = FreshBenchDir();
    for (int k = 0; k < nshards; k++) {
      if (substrate == Substrate::kHostDisk) {
        std::string shard_dir = dir + "/s" + std::to_string(k);
        std::filesystem::create_directories(shard_dir);
        devices.push_back(
            std::make_unique<platform::FileUntrustedStore>(shard_dir));
        // sync=false: the one-way counter stands in for tamper-resistant
        // hardware; charging its bump as a second journal flush on the
        // log's own spindle double-counts the shared device.
        counters.push_back(std::make_unique<platform::FileOneWayCounter>(
            shard_dir + "/counter", /*sync=*/false));
      } else {
        devices.push_back(std::make_unique<ModeledDeviceStore>());
        counters.push_back(std::make_unique<platform::MemOneWayCounter>());
      }
      backends.push_back(shard::ShardBackend{devices.back().get(), &secrets,
                                             counters.back().get()});
    }
    ChunkStoreOptions options = ShardOptions(group_commit, committers,
                                             nshards);
    if (coordinator_threads >= 0) {
      options.txn_coordinator_threads = coordinator_threads;
    }
    router = std::move(shard::ShardedChunkStore::Open(backends, options))
                 .value();
    // AllocateChunkId round-robins the shards; keep allocating until every
    // thread slot has an id on its home shard.
    for (int t = 0; t < kMaxThreads; t++) {
      const ChunkId want = static_cast<ChunkId>(t % nshards);
      ChunkId cid;
      do {
        cid = router->AllocateChunkId();
      } while (cid % nshards != want);
      cids[t] = cid;
    }
  }

  ~ShardFixture() {
    // Keep the registry alive past Close() so the final syncs land in the
    // merged --metrics-json snapshot.
    std::shared_ptr<common::MetricsRegistry> registry =
        router != nullptr ? router->metrics() : nullptr;
    if (router != nullptr) (void)router->Close().ok();
    router.reset();
    if (!dir.empty()) std::filesystem::remove_all(dir);
    if (registry != nullptr) {
      benchutil::AccumulateMetrics(registry->Snapshot());
    }
  }
};

std::unique_ptr<ShardFixture> g_fixture;

void EmitRouterCounters(benchmark::State& state) {
  shard::RouterStats rs = g_fixture->router->router_stats();
  ChunkStoreStats agg = g_fixture->router->Stats();
  state.counters["single_shard_commits"] =
      static_cast<double>(rs.single_shard_commits);
  state.counters["cross_shard_commits"] =
      static_cast<double>(rs.cross_shard_commits);
  state.counters["log_syncs"] = static_cast<double>(agg.log_syncs);
  state.counters["decisions_live"] = static_cast<double>(rs.decisions_live);
  state.counters["max_group"] =
      static_cast<double>(agg.max_commits_per_group);
}

void RunShardLocal(benchmark::State& state, Substrate substrate,
                   bool group_commit) {
  const int nshards = static_cast<int>(state.range(0));
  if (state.thread_index() == 0) {
    g_fixture = std::make_unique<ShardFixture>(substrate, nshards,
                                               group_commit, state.threads());
  }
  Random rng(300 + static_cast<uint64_t>(state.thread_index()));
  Buffer data;
  rng.Fill(&data, kPayloadBytes);
  const int tid = state.thread_index() % kMaxThreads;
  // The fixture is only dereferenced inside the loop: the range-for's
  // begin() is the start barrier where non-leader threads wait for thread
  // 0's setup to finish.
  for (auto _ : state) {
    ShardFixture& fx = *g_fixture;
    Status s = fx.router->Write(fx.cids[tid], data, /*durable=*/true);
    if (!s.ok()) {
      state.SkipWithError(s.ToString().c_str());
      break;
    }
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    state.counters["shards"] = static_cast<double>(nshards);
    EmitRouterCounters(state);
    g_fixture.reset();
  }
}

// The headline family: serialized per-shard commits (group commit off) on
// one modeled device per shard, so every commit pays its own log append +
// device flush + counter bump and the only scaling lever is shard
// independence.
void BM_ShardLocalDurable(benchmark::State& state) {
  RunShardLocal(state, Substrate::kModeledDevice, /*group_commit=*/false);
}
BENCHMARK(BM_ShardLocalDurable)
    ->Args({1})->Args({2})->Args({4})->Args({8})
    ->Threads(1)->Threads(2)->Threads(4)->Threads(8)->Threads(16)
    ->UseRealTime();

// The same serialized commits on the host filesystem: all shards behind
// one ext4 journal, whose commit serialization caps the curve.
void BM_ShardLocalDurableHostDisk(benchmark::State& state) {
  RunShardLocal(state, Substrate::kHostDisk, /*group_commit=*/false);
}
BENCHMARK(BM_ShardLocalDurableHostDisk)
    ->Args({1})->Args({4})
    ->Threads(8)
    ->UseRealTime();

// Per-shard group commit stacked on sharding: each shard batches its own
// committers, so the two amortization levers compose.
void BM_ShardLocalDurableGroup(benchmark::State& state) {
  RunShardLocal(state, Substrate::kModeledDevice, /*group_commit=*/true);
}
BENCHMARK(BM_ShardLocalDurableGroup)
    ->Args({1})->Args({4})
    ->Threads(8)->Threads(16)
    ->UseRealTime();

// Mixed workload: 1 in 8 commits spans two shards and pays the 2PC
// protocol (two durable prepares flushed in parallel, then two in-memory
// commit decisions that ride each shard's next flush); the rest stay
// shard-local. Shows the coordination tax is confined to the commits that
// need it.
void BM_CrossShardMix(benchmark::State& state) {
  const int nshards = static_cast<int>(state.range(0));
  if (state.thread_index() == 0) {
    g_fixture = std::make_unique<ShardFixture>(Substrate::kModeledDevice,
                                               nshards, /*group_commit=*/false,
                                               state.threads());
  }
  Random rng(400 + static_cast<uint64_t>(state.thread_index()));
  Buffer data;
  rng.Fill(&data, kPayloadBytes);
  const int tid = state.thread_index() % kMaxThreads;
  uint64_t cross = 0;
  for (auto _ : state) {
    ShardFixture& fx = *g_fixture;
    Status s;
    if (rng.Uniform(8) == 0) {
      // Pair this thread's chunk with a neighbor's on the next shard.
      WriteBatch batch;
      batch.Write(fx.cids[tid], data);
      batch.Write(fx.cids[(tid + 1) % kMaxThreads], data);
      s = fx.router->Commit(batch, /*durable=*/true);
      cross++;
    } else {
      s = fx.router->Write(fx.cids[tid], data, /*durable=*/true);
    }
    if (!s.ok()) {
      state.SkipWithError(s.ToString().c_str());
      break;
    }
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["cross_issued"] =
      benchmark::Counter(static_cast<double>(cross));
  if (state.thread_index() == 0) {
    state.counters["shards"] = static_cast<double>(nshards);
    EmitRouterCounters(state);
    g_fixture.reset();
  }
}
BENCHMARK(BM_CrossShardMix)
    ->Args({4})
    ->Threads(8)
    ->UseRealTime();

// 2PC commit latency: ONE committer drives transactions that span every
// shard, so iteration time IS the coordinator's end-to-end latency. The
// commit is acknowledged once every prepare is durable; the commit
// decisions are in-memory appends that ride each shard's next flush (the
// next transaction's prepare). The coord_threads=0 row is the serial
// baseline — the prepares visit the shards one after another, paying S
// flushes in sequence (~S*flush). With a worker pool the coordinator fans
// the prepares out across the shards' independent devices, so the same
// commit approaches max-of-participants (~1 flush): the parallel-prepare
// acceptance row for BENCH_shard_throughput.json.
void BM_CrossShard2pcLatency(benchmark::State& state) {
  const int nshards = static_cast<int>(state.range(0));
  const int coord_threads = static_cast<int>(state.range(1));
  g_fixture = std::make_unique<ShardFixture>(
      Substrate::kModeledDevice, nshards, /*group_commit=*/false,
      state.threads(), coord_threads);
  Random rng(500);
  Buffer data;
  rng.Fill(&data, kPayloadBytes);
  for (auto _ : state) {
    ShardFixture& fx = *g_fixture;
    WriteBatch batch;
    // cids[0..nshards-1] land on shards 0..nshards-1 respectively.
    for (int k = 0; k < nshards; k++) batch.Write(fx.cids[k], data);
    Status s = fx.router->Commit(batch, /*durable=*/true);
    if (!s.ok()) {
      state.SkipWithError(s.ToString().c_str());
      break;
    }
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["shards"] = static_cast<double>(nshards);
  state.counters["coord_threads"] = static_cast<double>(coord_threads);
  EmitRouterCounters(state);
  g_fixture.reset();
}
BENCHMARK(BM_CrossShard2pcLatency)
    ->ArgNames({"shards", "coord"})
    ->Args({2, 0})->Args({2, 4})
    ->Args({4, 0})->Args({4, 4})
    ->Args({8, 0})->Args({8, 4})
    ->UseRealTime();

}  // namespace

TDB_BENCH_MAIN_WITH_METRICS();
