// Multi-client durable-commit throughput. N committer threads each
// durably commit small chunk batches against ONE store backed by real
// files (fsync on); concurrent committers share one merged log write, one
// sync and one counter bump per group, and the 1-thread row is the
// per-commit cost of a lone committer. A TPC-B-style multi-client variant
// runs the same sweep through the object layer's two-stage commit path
// (early lock release, ack after the shared group flush). The emitted
// counters show the amortization (`commits_per_sync` is the inverse of
// syncs/commit).
//
// Emit JSON with:
//   commit_throughput --benchmark_out=BENCH_commit_throughput.json
//                     --benchmark_out_format=json  (one command line)
//
// --metrics-json[=FILE] additionally dumps the merged metrics-registry
// snapshot (chunk.sync.latency_us, txn.lock_wait_us, audit trail, ...)
// for tdbstat --snapshot / --check.

#include <benchmark/benchmark.h>

#include <atomic>
#include <barrier>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bench_metrics.h"
#include "chunk/chunk_store.h"
#include "common/random.h"
#include "object/object_store.h"
#include "platform/file_store.h"
#include "platform/one_way_counter.h"
#include "platform/secret_store.h"

namespace {

using namespace tdb;
using namespace tdb::chunk;

constexpr int kMaxThreads = 16;
constexpr size_t kPayloadBytes = 512;

std::string FreshBenchDir() {
  static std::atomic<int> next_dir{0};
  std::string dir = std::filesystem::temp_directory_path() /
                    ("tdb_commit_bench_" + std::to_string(next_dir++));
  std::filesystem::remove_all(dir);
  return dir;
}

ChunkStoreOptions ThroughputOptions(int committers) {
  ChunkStoreOptions options;
  options.security = crypto::SecurityConfig::Modern();
  options.segment_size = 256 * 1024;
  // No maintenance during the measured loop: this isolates the per-commit
  // sync + counter costs the tentpole amortizes.
  options.checkpoint_interval_bytes = 1ull << 40;
  options.max_clean_segments_per_commit = 0;
  options.max_utilization = 0.99;
  options.cache_bytes = 4 * 1024 * 1024;
  // Accumulation window sized to expected concurrency: the leader seals as
  // soon as every client has joined its group, and never waits more than
  // 2ms past that. With window 0, a fast flush finishes before the next
  // committer arrives and every commit pays its own sync.
  options.group_commit_window_us = 2000;
  options.group_commit_target_commits = static_cast<uint32_t>(committers);
  return options;
}

// One store shared by all committer threads, on real files with fsync so
// the sync being amortized is a real one.
struct ChunkFixture {
  std::string dir;
  std::unique_ptr<platform::FileUntrustedStore> files;
  platform::MemSecretStore secrets;
  std::unique_ptr<platform::FileOneWayCounter> counter;
  std::unique_ptr<ChunkStore> chunks;
  ChunkId cids[kMaxThreads] = {};

  explicit ChunkFixture(int committers) {
    dir = FreshBenchDir();
    files = std::make_unique<platform::FileUntrustedStore>(dir);
    (void)secrets.Provision(Slice("bench-secret")).ok();
    counter = std::make_unique<platform::FileOneWayCounter>(dir + "/counter");
    chunks = std::move(ChunkStore::Open(
                           files.get(), secrets_ptr(), counter.get(),
                           ThroughputOptions(committers)))
                 .value();
    for (int t = 0; t < kMaxThreads; t++) cids[t] = chunks->AllocateChunkId();
  }

  platform::SecretStore* secrets_ptr() { return &secrets; }

  ~ChunkFixture() {
    // Keep the registry alive past Close() so the final sync lands in the
    // merged --metrics-json snapshot.
    std::shared_ptr<common::MetricsRegistry> registry =
        chunks != nullptr ? chunks->metrics() : nullptr;
    if (chunks != nullptr) (void)chunks->Close().ok();
    chunks.reset();
    if (registry != nullptr) {
      benchutil::AccumulateMetrics(registry->Snapshot());
    }
    std::filesystem::remove_all(dir);
  }
};

std::unique_ptr<ChunkFixture> g_chunk_fixture;

void BM_DurableCommit(benchmark::State& state) {
  if (state.thread_index() == 0) {
    g_chunk_fixture = std::make_unique<ChunkFixture>(state.threads());
  }
  Random rng(100 + static_cast<uint64_t>(state.thread_index()));
  Buffer data;
  rng.Fill(&data, kPayloadBytes);
  const int tid = state.thread_index() % kMaxThreads;
  // The fixture is only dereferenced inside the loop: the range-for's
  // begin() is the start barrier where non-leader threads wait for thread
  // 0's setup to finish.
  for (auto _ : state) {
    ChunkFixture& fx = *g_chunk_fixture;
    Status s = fx.chunks->Write(fx.cids[tid], data, /*durable=*/true);
    if (!s.ok()) {
      state.SkipWithError(s.ToString().c_str());
      break;
    }
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    ChunkStoreStats stats = g_chunk_fixture->chunks->Stats();
    state.counters["commits_per_sync"] = stats.commits_per_sync();
    state.counters["syncs_saved"] = static_cast<double>(stats.syncs_saved());
    state.counters["bumps_saved"] =
        static_cast<double>(stats.counter_bumps_saved());
    state.counters["max_group"] =
        static_cast<double>(stats.max_commits_per_group);
    g_chunk_fixture.reset();
  }
}
BENCHMARK(BM_DurableCommit)
    ->Threads(1)->Threads(2)->Threads(4)->Threads(8)->Threads(16)
    ->UseRealTime();

// ---------------------------------------------------------------------------
// TPC-B-style multi-client variant through the object layer.
//
// Each client transaction updates one random Account, Teller and Branch
// record and inserts a History record (the paper's §7.1 shape), committing
// durably; 2PL locks are acquired through the object store, so this also
// measures early lock release: the hot Branch lock is freed once the batch
// is buffered, before the fsync.

class BankRecord final : public object::Object {
 public:
  static constexpr object::ClassId kClassId = 0x42414e4b;  // "BANK"

  BankRecord() { payload_.resize(100); }
  explicit BankRecord(uint64_t value) : value_(value) { payload_.resize(100); }

  object::ClassId class_id() const override { return kClassId; }
  void Pickle(object::Pickler* pickler) const override {
    pickler->PutUint64(value_);
    pickler->PutBytes(payload_);
  }
  Status UnpickleFrom(object::Unpickler* unpickler) override {
    TDB_RETURN_IF_ERROR(unpickler->GetUint64(&value_));
    return unpickler->GetBytes(&payload_);
  }
  size_t ApproxSize() const override { return 140; }

  uint64_t value() const { return value_; }
  void set_value(uint64_t value) { value_ = value; }

 private:
  uint64_t value_ = 0;
  Buffer payload_;
};

constexpr int kTpcbAccounts = 2048;
constexpr int kTpcbTellers = 256;
constexpr int kTpcbBranches = 64;

struct TpcbFixture {
  std::string dir;
  std::unique_ptr<platform::FileUntrustedStore> files;
  platform::MemSecretStore secrets;
  std::unique_ptr<platform::FileOneWayCounter> counter;
  std::unique_ptr<ChunkStore> chunks;
  std::unique_ptr<object::ObjectStore> objects;
  std::vector<object::ObjectId> accounts, tellers, branches;

  explicit TpcbFixture(int committers) {
    dir = FreshBenchDir();
    files = std::make_unique<platform::FileUntrustedStore>(dir);
    (void)secrets.Provision(Slice("bench-secret")).ok();
    counter = std::make_unique<platform::FileOneWayCounter>(dir + "/counter");
    chunks = std::move(ChunkStore::Open(
                           files.get(), &secrets, counter.get(),
                           ThroughputOptions(committers)))
                 .value();
    object::ObjectStoreOptions options;
    options.cache_capacity_bytes = 16 * 1024 * 1024;
    options.lock_timeout = std::chrono::milliseconds(100);
    objects = std::move(object::ObjectStore::Open(chunks.get(), options))
                  .value();
    TDB_CHECK(objects->registry().Register<BankRecord>(BankRecord::kClassId)
                  .ok(),
              "register");
    Seed(&accounts, kTpcbAccounts);
    Seed(&tellers, kTpcbTellers);
    Seed(&branches, kTpcbBranches);
  }

  void Seed(std::vector<object::ObjectId>* table, int n) {
    object::Transaction txn(objects.get());
    for (int i = 0; i < n; i++) {
      table->push_back(
          txn.Insert(std::make_unique<BankRecord>(1000)).value());
    }
    TDB_CHECK(txn.Commit(true).ok(), "seed commit");
  }

  ~TpcbFixture() {
    std::shared_ptr<common::MetricsRegistry> registry =
        chunks != nullptr ? chunks->metrics() : nullptr;
    objects.reset();
    if (chunks != nullptr) (void)chunks->Close().ok();
    chunks.reset();
    if (registry != nullptr) {
      benchutil::AccumulateMetrics(registry->Snapshot());
    }
    std::filesystem::remove_all(dir);
  }
};

std::unique_ptr<TpcbFixture> g_tpcb_fixture;

void BM_TpcbDurable(benchmark::State& state) {
  if (state.thread_index() == 0) {
    g_tpcb_fixture = std::make_unique<TpcbFixture>(state.threads());
  }
  Random rng(200 + static_cast<uint64_t>(state.thread_index()));
  uint64_t retries = 0;
  // As above: first fixture access is inside the loop, past the barrier.
  for (auto _ : state) {
    TpcbFixture& fx = *g_tpcb_fixture;
    object::ObjectId account =
        fx.accounts[rng.Uniform(fx.accounts.size())];
    object::ObjectId teller = fx.tellers[rng.Uniform(fx.tellers.size())];
    object::ObjectId branch = fx.branches[rng.Uniform(fx.branches.size())];
    uint64_t delta = rng.Uniform(100) + 1;
    for (;;) {
      object::Transaction txn(fx.objects.get());
      // Hot lock first: the branch table has only 64 rows, so the branch
      // record is the contended one. Acquiring it before the teller and
      // account holds it across the rest of the transaction, which makes
      // lock contention (txn.lock_wait_us, lock-manager wait counts) a
      // measurable signal instead of an artifact of open order — and is
      // exactly the window early lock release shortens.
      auto brn = txn.OpenWritable<BankRecord>(branch);
      auto tel = brn.ok() ? txn.OpenWritable<BankRecord>(teller)
                          : Result<object::WritableRef<BankRecord>>(
                                brn.status());
      auto acc = tel.ok() ? txn.OpenWritable<BankRecord>(account)
                          : Result<object::WritableRef<BankRecord>>(
                                tel.status());
      if (!acc.ok() || !tel.ok() || !brn.ok()) {
        Status s = !acc.ok() ? acc.status()
                             : (!tel.ok() ? tel.status() : brn.status());
        (void)txn.Abort();
        if (s.IsLockTimeout()) {
          retries++;
          continue;
        }
        state.SkipWithError(s.ToString().c_str());
        return;
      }
      acc.value()->set_value(acc.value()->value() + delta);
      tel.value()->set_value(tel.value()->value() + delta);
      brn.value()->set_value(brn.value()->value() + delta);
      auto history = txn.Insert(std::make_unique<BankRecord>(delta));
      if (!history.ok()) {
        (void)txn.Abort();
        state.SkipWithError(history.status().ToString().c_str());
        return;
      }
      Status s = txn.Commit(/*durable=*/true);
      if (s.ok()) break;
      if (s.IsLockTimeout()) {
        retries++;
        continue;
      }
      state.SkipWithError(s.ToString().c_str());
      return;
    }
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["retries"] =
      benchmark::Counter(static_cast<double>(retries));
  if (state.thread_index() == 0) {
    ChunkStoreStats stats = g_tpcb_fixture->chunks->Stats();
    state.counters["commits_per_sync"] = stats.commits_per_sync();
    state.counters["syncs_saved"] = static_cast<double>(stats.syncs_saved());
    g_tpcb_fixture.reset();
  }
}
BENCHMARK(BM_TpcbDurable)
    ->Threads(1)->Threads(4)->Threads(8)
    ->UseRealTime();

// ---------------------------------------------------------------------------
// Deadlock-avoidance cost: two clients acquire the same two records in
// opposite orders, with a barrier between the first and second acquisition
// so the conflict is guaranteed (random workloads on few cores almost
// never overlap inside the lock window — transactions here hold locks only
// across in-memory work). Each round one side's second lock expires its
// (short) timeout and the transaction aborts; the other side's wait is
// granted the moment the loser releases. Per round this exercises exactly
// the satellite counters: two lock waits, one timeout, one deadlock abort,
// and two txn.lock_wait_us samples near the configured timeout.

struct LockConflictFixture {
  std::string dir;
  std::unique_ptr<platform::FileUntrustedStore> files;
  platform::MemSecretStore secrets;
  std::unique_ptr<platform::FileOneWayCounter> counter;
  std::unique_ptr<ChunkStore> chunks;
  std::unique_ptr<object::ObjectStore> objects;
  object::ObjectId a = 0, b = 0;
  std::barrier<> barrier{2};

  LockConflictFixture() {
    dir = FreshBenchDir();
    files = std::make_unique<platform::FileUntrustedStore>(dir);
    (void)secrets.Provision(Slice("bench-secret")).ok();
    counter = std::make_unique<platform::FileOneWayCounter>(dir + "/counter");
    chunks = std::move(ChunkStore::Open(files.get(), &secrets, counter.get(),
                                        ThroughputOptions(2)))
                 .value();
    object::ObjectStoreOptions options;
    options.lock_timeout = std::chrono::milliseconds(5);
    objects = std::move(object::ObjectStore::Open(chunks.get(), options))
                  .value();
    TDB_CHECK(objects->registry().Register<BankRecord>(BankRecord::kClassId)
                  .ok(),
              "register");
    object::Transaction txn(objects.get());
    a = txn.Insert(std::make_unique<BankRecord>(0)).value();
    b = txn.Insert(std::make_unique<BankRecord>(0)).value();
    TDB_CHECK(txn.Commit(true).ok(), "seed commit");
  }

  ~LockConflictFixture() {
    std::shared_ptr<common::MetricsRegistry> registry =
        chunks != nullptr ? chunks->metrics() : nullptr;
    objects.reset();
    if (chunks != nullptr) (void)chunks->Close().ok();
    chunks.reset();
    if (registry != nullptr) {
      benchutil::AccumulateMetrics(registry->Snapshot());
    }
    std::filesystem::remove_all(dir);
  }
};

std::unique_ptr<LockConflictFixture> g_lock_fixture;

void BM_LockConflict(benchmark::State& state) {
  if (state.thread_index() == 0) {
    g_lock_fixture = std::make_unique<LockConflictFixture>();
  }
  uint64_t aborted = 0;
  for (auto _ : state) {
    LockConflictFixture& fx = *g_lock_fixture;
    const bool forward = state.thread_index() == 0;
    object::Transaction txn(fx.objects.get());
    auto first =
        txn.OpenWritable<BankRecord>(forward ? fx.a : fx.b);
    // Both sides hold their first lock before either requests its second;
    // every code path below reaches the closing barrier exactly once.
    fx.barrier.arrive_and_wait();
    if (first.ok()) {
      auto second =
          txn.OpenWritable<BankRecord>(forward ? fx.b : fx.a);
      if (second.ok()) {
        second.value()->set_value(second.value()->value() + 1);
        (void)txn.Commit(/*durable=*/false).ok();
      } else {
        aborted++;
        (void)txn.Abort().ok();
      }
    } else {
      aborted++;
      (void)txn.Abort().ok();
    }
    fx.barrier.arrive_and_wait();
  }
  state.counters["aborts"] =
      benchmark::Counter(static_cast<double>(aborted));
  if (state.thread_index() == 0) {
    object::ObjectStoreStats stats = g_lock_fixture->objects->Stats();
    state.counters["lock_waits"] =
        static_cast<double>(stats.lock_waits);
    state.counters["deadlock_aborts"] =
        static_cast<double>(stats.deadlock_aborts);
    g_lock_fixture.reset();
  }
}
BENCHMARK(BM_LockConflict)->Threads(2)->UseRealTime();

}  // namespace

TDB_BENCH_MAIN_WITH_METRICS();
