// Ablations A1/A3: chunk store operation cost with security on/off and
// across chunk sizes (the §4.2.1 single- vs multi-object-chunk tradeoff is
// approximated by the chunk-size sweep: larger chunks amortize per-chunk
// overhead but move more bytes per update).

#include <benchmark/benchmark.h>

#include "bench_metrics.h"
#include "chunk/chunk_store.h"
#include "common/random.h"
#include "platform/mem_store.h"
#include "platform/one_way_counter.h"
#include "platform/secret_store.h"

namespace {

using namespace tdb;
using namespace tdb::chunk;

struct Fixture {
  platform::MemUntrustedStore store;
  platform::MemSecretStore secrets;
  platform::MemOneWayCounter counter;
  std::unique_ptr<ChunkStore> chunks;

  // cache_bytes defaults to 0 (the pre-cache configuration) so the
  // longstanding baseline numbers stay comparable; the hot-read benches
  // below opt in explicitly.
  explicit Fixture(bool secure, size_t cache_bytes = 0)
      : Fixture(secure ? crypto::SecurityConfig::PaperTdbS()
                       : crypto::SecurityConfig::Disabled(),
                cache_bytes) {}

  Fixture(crypto::SecurityConfig security, size_t cache_bytes) {
    (void)secrets.Provision(Slice("bench-secret")).ok();
    ChunkStoreOptions options;
    options.security = security;
    options.segment_size = 256 * 1024;
    options.checkpoint_interval_bytes = 8 * 1024 * 1024;
    options.cache_bytes = cache_bytes;
    chunks = std::move(ChunkStore::Open(&store, &secrets, &counter, options))
                 .value();
  }

  ~Fixture() {
    if (chunks != nullptr) {
      benchutil::AccumulateMetrics(chunks->metrics()->Snapshot());
    }
  }
};

void RunWrite(benchmark::State& state, bool secure, bool durable) {
  Fixture fx(secure);
  Random rng(1);
  Buffer data;
  rng.Fill(&data, state.range(0));
  ChunkId cid = fx.chunks->AllocateChunkId();
  for (auto _ : state) {
    Status s = fx.chunks->Write(cid, data, durable);
    if (!s.ok()) state.SkipWithError(s.ToString().c_str());
  }
  state.SetBytesProcessed(state.iterations() * data.size());
}

void BM_ChunkWritePlain(benchmark::State& state) {
  RunWrite(state, /*secure=*/false, /*durable=*/true);
}
BENCHMARK(BM_ChunkWritePlain)->Arg(100)->Arg(1024)->Arg(16384);

void BM_ChunkWriteSecure(benchmark::State& state) {
  RunWrite(state, /*secure=*/true, /*durable=*/true);
}
BENCHMARK(BM_ChunkWriteSecure)->Arg(100)->Arg(1024)->Arg(16384);

void BM_ChunkWriteNondurable(benchmark::State& state) {
  RunWrite(state, /*secure=*/true, /*durable=*/false);
}
BENCHMARK(BM_ChunkWriteNondurable)->Arg(100)->Arg(1024);

void RunRead(benchmark::State& state, bool secure) {
  Fixture fx(secure);
  Random rng(2);
  std::vector<ChunkId> cids;
  for (int i = 0; i < 1000; i++) {
    Buffer data;
    rng.Fill(&data, state.range(0));
    ChunkId cid = fx.chunks->AllocateChunkId();
    (void)fx.chunks->Write(cid, data, false).ok();
    cids.push_back(cid);
  }
  (void)fx.chunks->Checkpoint().ok();
  size_t i = 0;
  for (auto _ : state) {
    auto data = fx.chunks->Read(cids[i++ % cids.size()]);
    if (!data.ok()) state.SkipWithError(data.status().ToString().c_str());
    benchmark::DoNotOptimize(data);
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}

// Every read re-validates the Merkle path and decrypts — this is the
// "validated read" cost the paper's design section discusses.
void BM_ChunkReadPlain(benchmark::State& state) {
  RunRead(state, /*secure=*/false);
}
BENCHMARK(BM_ChunkReadPlain)->Arg(100)->Arg(1024);

void BM_ChunkReadSecure(benchmark::State& state) {
  RunRead(state, /*secure=*/true);
}
BENCHMARK(BM_ChunkReadSecure)->Arg(100)->Arg(1024);

// Hot reads served by the validated-plaintext cache vs. the full
// validated-read path (range(0) = chunk size, range(1) = cache on/off).
// The working set fits in the cache, so after one warm pass every read is
// a hit — the target of the cache tentpole.
void BM_ChunkReadHot(benchmark::State& state) {
  const bool cached = state.range(1) != 0;
  Fixture fx(/*secure=*/true, /*cache_bytes=*/cached ? 64u << 20 : 0);
  Random rng(2);
  std::vector<ChunkId> cids;
  for (int i = 0; i < 1000; i++) {
    Buffer data;
    rng.Fill(&data, state.range(0));
    ChunkId cid = fx.chunks->AllocateChunkId();
    (void)fx.chunks->Write(cid, data, false).ok();
    cids.push_back(cid);
  }
  (void)fx.chunks->Checkpoint().ok();
  for (ChunkId cid : cids) {  // Warm pass.
    (void)fx.chunks->Read(cid).ok();
  }
  size_t i = 0;
  for (auto _ : state) {
    auto data = fx.chunks->Read(cids[i++ % cids.size()]);
    if (!data.ok()) state.SkipWithError(data.status().ToString().c_str());
    benchmark::DoNotOptimize(data);
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
  state.counters["hits"] =
      static_cast<double>(fx.chunks->Stats().cache_hits);
}
BENCHMARK(BM_ChunkReadHot)
    ->Args({100, 0})->Args({100, 1})
    ->Args({1024, 0})->Args({1024, 1})
    ->Args({16384, 0})->Args({16384, 1});

// Multi-chunk atomic commits: per-commit overhead amortization. The
// committer seals every write itself, in batch order.
// range(0) = suite (0 = Modern AES-128/SHA-256, 1 = PaperTdbS 3DES/SHA-1),
// range(1) = writes per batch, range(2) = bytes per write.
void BM_ChunkBatchCommit(benchmark::State& state) {
  Fixture fx(state.range(0) == 0 ? crypto::SecurityConfig::Modern()
                                 : crypto::SecurityConfig::PaperTdbS(),
             /*cache_bytes=*/0);
  Random rng(3);
  const int batch_size = static_cast<int>(state.range(1));
  std::vector<ChunkId> cids;
  for (int i = 0; i < batch_size; i++) {
    cids.push_back(fx.chunks->AllocateChunkId());
  }
  Buffer data;
  rng.Fill(&data, static_cast<size_t>(state.range(2)));
  for (auto _ : state) {
    WriteBatch batch;
    for (ChunkId cid : cids) batch.Write(cid, data);
    Status s = fx.chunks->Commit(batch, true);
    if (!s.ok()) state.SkipWithError(s.ToString().c_str());
  }
  state.SetItemsProcessed(state.iterations() * batch_size);
}
BENCHMARK(BM_ChunkBatchCommit)
    ->ArgNames({"suite", "writes", "bytes"})
    ->ArgsProduct({{0, 1}, {4, 16, 64}, {100, 4096}});

// Large-batch commits with crypto-sized payloads, where sealing dominates.
// 4 KB chunks, batches of 64/256.
void BM_ChunkBatchCommitLarge(benchmark::State& state) {
  Fixture fx(true);
  Random rng(4);
  const int batch_size = static_cast<int>(state.range(0));
  std::vector<ChunkId> cids;
  for (int i = 0; i < batch_size; i++) {
    cids.push_back(fx.chunks->AllocateChunkId());
  }
  Buffer data;
  rng.Fill(&data, 4096);
  for (auto _ : state) {
    WriteBatch batch;
    for (ChunkId cid : cids) batch.Write(cid, data);
    Status s = fx.chunks->Commit(batch, true);
    if (!s.ok()) state.SkipWithError(s.ToString().c_str());
  }
  state.SetItemsProcessed(state.iterations() * batch_size);
  state.SetBytesProcessed(state.iterations() * batch_size * data.size());
}
BENCHMARK(BM_ChunkBatchCommitLarge)->Arg(64)->Arg(256);

}  // namespace

TDB_BENCH_MAIN_WITH_METRICS();
