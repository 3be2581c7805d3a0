// Ablation A2 (§3.2.1): log-cleaning cost. Measures commit latency and
// cleaner work for an overwrite-heavy workload across utilization targets,
// and shows that idle-time cleaning (the paper's DRM workload assumption)
// removes cleaning from the commit path. A second table sweeps the
// database size at a fixed amount of cleaning: the cleaner's CPU per
// relocated byte should not depend on how many chunks are live.
//
// TPCB_TXNS (set by tools/check.sh --bench-smoke) shrinks the size sweep to
// a smoke run.

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "chunk/chunk_store.h"
#include "common/metrics.h"
#include "common/random.h"
#include "platform/mem_store.h"
#include "platform/one_way_counter.h"
#include "platform/secret_store.h"

int main() {
  using namespace tdb;
  using namespace tdb::chunk;
  using Clock = std::chrono::steady_clock;

  std::printf("=== Cleaner ablation: overwrite workload, 30k commits ===\n");
  std::printf("%-22s %12s %14s %12s %12s\n", "mode", "avg us/txn",
              "cleaned segs", "reloc MB", "final util");

  auto run = [&](const char* label, double max_util, bool idle_clean) {
    platform::MemUntrustedStore store;
    platform::MemSecretStore secrets;
    platform::MemOneWayCounter counter;
    (void)secrets.Provision(Slice("s")).ok();
    ChunkStoreOptions options;
    options.security = crypto::SecurityConfig::Disabled();
    options.segment_size = 64 * 1024;
    options.max_utilization = max_util;
    auto chunks = std::move(ChunkStore::Open(&store, &secrets, &counter,
                                             options))
                      .value();
    Random rng(9);
    std::vector<ChunkId> cids;
    for (int i = 0; i < 2000; i++) {
      ChunkId cid = chunks->AllocateChunkId();
      Buffer data;
      rng.Fill(&data, 150);
      (void)chunks->Write(cid, data, false).ok();
      cids.push_back(cid);
    }
    (void)chunks->Checkpoint().ok();

    const int kTxns = 30000;
    auto start = Clock::now();
    for (int i = 0; i < kTxns; i++) {
      Buffer data;
      rng.Fill(&data, 150);
      (void)chunks->Write(cids[rng.Uniform(cids.size())], data,
                          i % 16 == 0)
          .ok();
      if (idle_clean && i % 256 == 0) {
        // "Idle period": clean outside the measured commit path (we still
        // count it in wall time here; the point is bounded commit cost).
        (void)chunks->Clean(2).ok();
      }
    }
    double us =
        std::chrono::duration<double, std::micro>(Clock::now() - start)
            .count() /
        kTxns;
    const ChunkStoreStats& stats = chunks->Stats();
    std::printf("%-22s %12.2f %14llu %12.1f %12.2f\n", label, us,
                static_cast<unsigned long long>(stats.cleaned_segments),
                stats.relocated_bytes / (1024.0 * 1024.0),
                stats.utilization());
    (void)chunks->Close().ok();
  };

  run("util 0.5", 0.5, false);
  run("util 0.7", 0.7, false);
  run("util 0.9", 0.9, false);
  run("util 0.9 + idle clean", 0.9, true);

  // Size sweep: load `live` 100-byte chunks, kill every other one of the
  // first kHot (so ~16 segments are half live), then time four Clean(4)
  // calls on this thread's CPU clock. Each relocates about the same bytes
  // whatever the size, so a flat last column means the cleaner's cost
  // follows what it moves, not the database.
  std::printf("\n=== Cleaner cost vs database size: 4 x Clean(4) on "
              "half-live segments ===\n");
  std::printf("%-12s %10s %12s %14s %16s %12s\n", "live chunks", "segs",
              "reloc KB", "clean CPU ms", "CPU us/reloc KB", "summary KB");
  auto cpu_us = [] {
    timespec ts;
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return ts.tv_sec * 1e6 + ts.tv_nsec / 1e3;
  };
  auto sweep = [&](int live) {
    platform::MemUntrustedStore store;
    platform::MemSecretStore secrets;
    platform::MemOneWayCounter counter;
    (void)secrets.Provision(Slice("s")).ok();
    ChunkStoreOptions options;
    options.security = crypto::SecurityConfig::Disabled();
    options.max_clean_segments_per_commit = 0;  // Only the timed calls.
    auto chunks = std::move(ChunkStore::Open(&store, &secrets, &counter,
                                             options))
                      .value();
    Random rng(11);
    std::vector<ChunkId> cids;
    WriteBatch batch;
    for (int i = 0; i < live; i++) {
      cids.push_back(chunks->AllocateChunkId());
      Buffer data;
      rng.Fill(&data, 100);
      batch.Write(cids.back(), data);
      if (i % 1000 == 999 || i + 1 == live) {
        (void)chunks->Commit(batch, true).ok();
        batch = WriteBatch();
      }
    }
    (void)chunks->Checkpoint().ok();
    const int kHot = std::min(live, 9000);
    for (int i = 0; i < kHot; i += 2) {
      Buffer data;
      rng.Fill(&data, 100);
      batch.Write(cids[i], data);
      if (i % 512 == 510) {
        (void)chunks->Commit(batch, false).ok();
        batch = WriteBatch();
      }
    }
    (void)chunks->Commit(batch, true).ok();
    (void)chunks->Checkpoint().ok();
    const ChunkStoreStats before = chunks->Stats();
    const double t0 = cpu_us();
    for (int i = 0; i < 4; i++) (void)chunks->Clean(4).ok();
    const double spent = cpu_us() - t0;
    const ChunkStoreStats after = chunks->Stats();
    const double reloc_kb =
        (after.relocated_bytes - before.relocated_bytes) / 1024.0;
    std::printf("%-12d %10llu %12.1f %14.2f %16.2f %12.1f\n", live,
                static_cast<unsigned long long>(after.cleaned_segments -
                                                before.cleaned_segments),
                reloc_kb, spent / 1000.0,
                reloc_kb > 0 ? spent / reloc_kb : 0.0,
                chunks->metrics()
                        ->Snapshot()
                        .gauges["chunk.cleaner.summary_bytes"] /
                    1024.0);
    (void)chunks->Close().ok();
  };
  const bool smoke = std::getenv("TPCB_TXNS") != nullptr;
  for (int live : smoke ? std::vector<int>{2000, 10000}
                        : std::vector<int>{10000, 100000, 400000}) {
    sweep(live);
  }
  return 0;
}
