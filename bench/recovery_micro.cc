// Checkpointing ablation (§3.2.1): recovery replays the residual log, so
// open time grows with the number of commits since the last checkpoint.
// This bench measures open time as a function of residual-log length —
// the cost that the paper's opportunistic (idle-time) checkpointing bounds.

#include <chrono>
#include <cstdio>

#include "chunk/chunk_store.h"
#include "common/random.h"
#include "platform/mem_store.h"
#include "platform/one_way_counter.h"
#include "platform/secret_store.h"

int main() {
  using namespace tdb;
  using namespace tdb::chunk;
  using Clock = std::chrono::steady_clock;

  std::printf("=== Recovery time vs residual-log length ===\n");
  std::printf("%-24s %14s %14s\n", "residual commits", "residual KB",
              "open ms");

  for (int residual_commits : {0, 200, 1000, 5000}) {
    platform::MemUntrustedStore store;
    platform::MemSecretStore secrets;
    platform::MemOneWayCounter counter;
    (void)secrets.Provision(Slice("s")).ok();
    ChunkStoreOptions options;
    options.security = crypto::SecurityConfig::Modern();
    options.segment_size = 256 * 1024;
    options.checkpoint_interval_bytes = 1ull << 40;  // Manual ckpts only.
    options.max_clean_segments_per_commit = 0;

    uint64_t base_size;
    {
      auto cs = std::move(ChunkStore::Open(&store, &secrets, &counter,
                                           options))
                    .value();
      Random rng(1);
      // Base database, checkpointed.
      std::vector<ChunkId> cids;
      for (int i = 0; i < 2000; i++) {
        ChunkId cid = cs->AllocateChunkId();
        Buffer data;
        rng.Fill(&data, 150);
        (void)cs->Write(cid, data, false).ok();
        cids.push_back(cid);
      }
      (void)cs->Checkpoint().ok();
      base_size = cs->Stats().bytes_appended;
      // Residual: durable commits after the checkpoint.
      for (int i = 0; i < residual_commits; i++) {
        Buffer data;
        rng.Fill(&data, 150);
        (void)cs->Write(cids[rng.Uniform(cids.size())], data, true).ok();
      }
      base_size = cs->Stats().bytes_appended - base_size;
      cs.release();  // Simulated power cut: no close-time checkpoint.
    }

    auto start = Clock::now();
    auto cs = ChunkStore::Open(&store, &secrets, &counter, options);
    double ms =
        std::chrono::duration<double, std::milli>(Clock::now() - start)
            .count();
    if (!cs.ok()) {
      std::printf("open failed: %s\n", cs.status().ToString().c_str());
      return 1;
    }
    std::printf("%-24d %14.1f %14.2f\n", residual_commits,
                base_size / 1024.0, ms);
  }
  std::printf("\n(the paper defers checkpoints to idle periods; the row 0"
              " shows the post-checkpoint floor)\n");
  return 0;
}
