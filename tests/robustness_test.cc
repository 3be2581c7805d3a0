// Robustness tests beyond the per-module suites: repeated crashes
// (including crashes during recovery itself), snapshot diffs across map
// growth, anchor-slot attacks, and miscellaneous edge cases.

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "chunk/anchor.h"
#include "chunk/chunk_store.h"
#include "common/random.h"
#include "harness/engine.h"
#include "harness/trace.h"
#include "platform/fault_injection.h"
#include "platform/mem_store.h"
#include "platform/one_way_counter.h"
#include "platform/secret_store.h"

namespace tdb::chunk {
namespace {

using platform::FaultInjectingStore;
using platform::MemOneWayCounter;
using platform::MemSecretStore;
using platform::MemUntrustedStore;

ChunkStoreOptions SmallOptions() {
  ChunkStoreOptions options;
  options.security = crypto::SecurityConfig::Modern();
  options.segment_size = 4 * 1024;
  options.map_fanout = 8;
  return options;
}

// Exhaustive replacement for the old hand-counted crash loops (a fixed
// seed list with `CrashAfterWrites(rng.Uniform(40) + 1)`): the harness
// sweep crashes at EVERY base-store write index of a multi-commit trace,
// at every sector-aligned torn-write fraction, and checks the durable
// floor against its oracle after each recovery. Sharded two ways so each
// ctest entry stays short.
class RepeatedCrashTest : public ::testing::TestWithParam<int> {};

TEST_P(RepeatedCrashTest, SurvivesEveryCrashPoint) {
  constexpr int kShards = 2;
  harness::TraceSpec spec;
  spec.seed = 101;
  spec.commits = 8;
  spec.slots = 8;
  spec.preset = harness::Preset::kStrict;
  harness::SweepStats stats;
  Status status =
      harness::CrashSweep({"chunk", spec}, GetParam(), kShards, &stats);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_GT(stats.cases, 0u);
  // This shard ran exactly its residue class of the full campaign.
  uint64_t total = stats.write_points * stats.tear_buckets;
  uint64_t shard = static_cast<uint64_t>(GetParam());
  EXPECT_EQ(stats.cases, total / kShards + (total % kShards > shard ? 1 : 0));
  harness::PrintCoverage("robustness-repeated-crash", GetParam(), kShards,
                         stats);
}

INSTANTIATE_TEST_SUITE_P(Shards, RepeatedCrashTest, ::testing::Range(0, 2));

// Crashes during recovery itself: every trace crash point is rerun with a
// second crash armed during recovery; the store must come back on the
// third boot with the durable floor intact. Recovery of these images
// performs two writes, so the second crash lands on recovery write
// GetParam() % 2, under the strict preset (params 0, 1) or the cleaning
// preset (params 2, 3). Every case must really crash during recovery.
class RecoveryCrashTest : public ::testing::TestWithParam<int> {};

TEST_P(RecoveryCrashTest, SurvivesCrashDuringRecovery) {
  harness::TraceSpec spec;
  spec.seed = 103;
  spec.commits = 6;
  spec.slots = 8;
  spec.preset =
      GetParam() < 2 ? harness::Preset::kStrict : harness::Preset::kCleaning;
  harness::SweepStats stats;
  Status status = harness::CrashSweep({"chunk", spec}, 0, 1, &stats,
                                      /*recovery_crash=*/GetParam() % 2);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(stats.cases, stats.write_points * stats.tear_buckets);
  EXPECT_EQ(stats.recovery_crashes, stats.cases);
  harness::PrintCoverage(
      "robustness-recovery-crash-" + std::to_string(GetParam()), 0, 1, stats);
}

INSTANTIATE_TEST_SUITE_P(RecoveryWriteIndex, RecoveryCrashTest,
                         ::testing::Range(0, 4));

TEST(SnapshotGrowthTest, DiffAcrossMapTreeGrowth) {
  // Base snapshot while the map is a single leaf (fanout 8, < 8 chunks);
  // delta after it has grown several levels. Exercises Diff's
  // RaiseToLevel path.
  MemSecretStore secrets;
  ASSERT_TRUE(secrets.Provision(Slice("s")).ok());
  MemOneWayCounter counter;
  MemUntrustedStore store;
  auto cs = std::move(ChunkStore::Open(&store, &secrets, &counter,
                                       SmallOptions()))
                .value();
  std::vector<ChunkId> early;
  for (int i = 0; i < 3; i++) {
    ChunkId cid = cs->AllocateChunkId();
    ASSERT_TRUE(cs->Write(cid, Slice("early"), false).ok());
    early.push_back(cid);
  }
  auto base = cs->CreateSnapshot();
  ASSERT_TRUE(base.ok());

  // Grow well past one leaf and a second level (8*8 = 64).
  std::vector<ChunkId> added;
  for (int i = 0; i < 200; i++) {
    ChunkId cid = cs->AllocateChunkId();
    ASSERT_TRUE(cs->Write(cid, Slice("late"), false).ok());
    added.push_back(cid);
  }
  ASSERT_TRUE(cs->Write(early[0], Slice("early-changed"), false).ok());
  auto delta = cs->CreateSnapshot();
  ASSERT_TRUE(delta.ok());

  std::map<ChunkId, DiffKind> changes;
  ASSERT_TRUE(cs->DiffSnapshots(**base, **delta,
                                [&](ChunkId cid, DiffKind kind,
                                    const MapEntry&) {
                                  changes[cid] = kind;
                                  return Status::OK();
                                })
                  .ok());
  EXPECT_EQ(changes.size(), added.size() + 1);
  EXPECT_EQ(changes[early[0]], DiffKind::kChanged);
  for (ChunkId cid : added) {
    EXPECT_EQ(changes[cid], DiffKind::kAdded) << cid;
  }
  EXPECT_FALSE(changes.count(early[1]));
}

TEST(AnchorAttackTest, NewestSlotWinsAndTamperedSlotIgnored) {
  MemSecretStore secrets;
  ASSERT_TRUE(secrets.Provision(Slice("s")).ok());
  MemOneWayCounter counter;
  MemUntrustedStore store;
  ChunkId cid;
  {
    auto cs = std::move(ChunkStore::Open(&store, &secrets, &counter,
                                         SmallOptions()))
                  .value();
    cid = cs->AllocateChunkId();
    ASSERT_TRUE(cs->Write(cid, Slice("v1"), true).ok());
    ASSERT_TRUE(cs->Checkpoint().ok());
    ASSERT_TRUE(cs->Write(cid, Slice("v2"), true).ok());
    ASSERT_TRUE(cs->Close().ok());
  }
  // Corrupt ONE anchor slot: the other (valid) slot must still open the
  // database — unless the surviving slot is stale enough that the counter
  // check fires, which must then be reported as replay, never as silent
  // acceptance of old state.
  for (const char* slot : {"anchor-0", "anchor-1"}) {
    if (!store.Exists(slot)) continue;
    auto image = store.SnapshotImage();
    ASSERT_TRUE(store.CorruptByte(slot, 10, 0xFF).ok());
    auto cs = ChunkStore::Open(&store, &secrets, &counter, SmallOptions());
    if (cs.ok()) {
      auto data = (*cs)->Read(cid);
      ASSERT_TRUE(data.ok());
      EXPECT_EQ(Slice(*data).ToString(), "v2");
      ASSERT_TRUE((*cs)->Close().ok());
    } else {
      EXPECT_TRUE(cs.status().IsReplayDetected() ||
                  cs.status().IsTamperDetected())
          << cs.status().ToString();
    }
    store.RestoreImage(image);
  }
}

TEST(VerifyIntegrityTest, CleanStorePassesTamperFails) {
  MemSecretStore secrets;
  ASSERT_TRUE(secrets.Provision(Slice("s")).ok());
  MemOneWayCounter counter;
  MemUntrustedStore store;
  auto cs = std::move(ChunkStore::Open(&store, &secrets, &counter,
                                       SmallOptions()))
                .value();
  std::vector<ChunkId> cids;
  Random rng(5);
  for (int i = 0; i < 60; i++) {
    ChunkId cid = cs->AllocateChunkId();
    Buffer data;
    rng.Fill(&data, 120);
    ASSERT_TRUE(cs->Write(cid, data, false).ok());
    cids.push_back(cid);
  }
  ASSERT_TRUE(cs->Checkpoint().ok());
  uint64_t checked = 0;
  ASSERT_TRUE(cs->VerifyIntegrity(&checked).ok());
  EXPECT_EQ(checked, 60u);

  // Corrupt one byte in the middle of a segment and scrub until it bites
  // (some offsets are dead bytes).
  bool caught = false;
  for (const std::string& name : store.List()) {
    if (name.rfind("seg-", 0) != 0) continue;
    uint64_t size = *store.Size(name);
    for (uint64_t off = 16; off < size && !caught; off += 11) {
      ASSERT_TRUE(store.CorruptByte(name, off, 0x20).ok());
      Status scrub = cs->VerifyIntegrity(nullptr);
      if (!scrub.ok()) {
        EXPECT_TRUE(scrub.IsTamperDetected());
        caught = true;
      }
      ASSERT_TRUE(store.CorruptByte(name, off, 0x20).ok());
    }
  }
  EXPECT_TRUE(caught);
}

TEST(SnapshotTest, MultipleConcurrentSnapshotsIndependent) {
  MemSecretStore secrets;
  ASSERT_TRUE(secrets.Provision(Slice("s")).ok());
  MemOneWayCounter counter;
  MemUntrustedStore store;
  auto cs = std::move(ChunkStore::Open(&store, &secrets, &counter,
                                       SmallOptions()))
                .value();
  ChunkId cid = cs->AllocateChunkId();
  ASSERT_TRUE(cs->Write(cid, Slice("gen-0"), true).ok());
  auto snap0 = cs->CreateSnapshot();
  ASSERT_TRUE(snap0.ok());
  ASSERT_TRUE(cs->Write(cid, Slice("gen-1"), true).ok());
  auto snap1 = cs->CreateSnapshot();
  ASSERT_TRUE(snap1.ok());
  ASSERT_TRUE(cs->Write(cid, Slice("gen-2"), true).ok());

  EXPECT_EQ(Slice(*cs->ReadAtView(**snap0, cid)).ToString(), "gen-0");
  EXPECT_EQ(Slice(*cs->ReadAtView(**snap1, cid)).ToString(), "gen-1");
  EXPECT_EQ(Slice(*cs->Read(cid)).ToString(), "gen-2");

  // Releasing the older snapshot leaves the newer one intact.
  snap0->reset();
  EXPECT_EQ(Slice(*cs->ReadAtView(**snap1, cid)).ToString(), "gen-1");
}

TEST(ResidualLogTest, LongResidualLogReplaysManyCommits) {
  // Hundreds of commits with no checkpoint in between: recovery replays
  // them all from the anchor's scan position.
  MemSecretStore secrets;
  ASSERT_TRUE(secrets.Provision(Slice("s")).ok());
  MemOneWayCounter counter;
  MemUntrustedStore store;
  FaultInjectingStore faulty(&store);
  std::map<ChunkId, Buffer> model;
  {
    auto options = SmallOptions();
    options.checkpoint_interval_bytes = 1ull << 40;  // Never auto-ckpt.
    options.max_clean_segments_per_commit = 0;       // Never auto-clean
    options.max_utilization = 0.95;                  // (cleaning implies a
                                                     // durable checkpoint).
    auto cs = std::move(ChunkStore::Open(&faulty, &secrets, &counter,
                                         options))
                  .value();
    Random rng(6);
    for (int i = 0; i < 400; i++) {
      ChunkId cid = cs->AllocateChunkId();
      Buffer data;
      rng.Fill(&data, 80);
      ASSERT_TRUE(cs->Write(cid, data, true).ok());
      model[cid] = data;
    }
    EXPECT_LE(cs->Stats().checkpoints, 2u);  // Only the bootstrap one(s).
    // Simulated power cut: the destructor's close-time checkpoint fails.
    faulty.CrashAfterWrites(0);
  }
  faulty.Reboot();
  auto cs = ChunkStore::Open(&faulty, &secrets, &counter, SmallOptions());
  ASSERT_TRUE(cs.ok()) << cs.status().ToString();
  for (const auto& [cid, expected] : model) {
    auto data = (*cs)->Read(cid);
    ASSERT_TRUE(data.ok()) << cid;
    EXPECT_EQ(*data, expected);
  }
}

TEST(UtilizationKnobTest, HigherTargetYieldsDenserDatabase) {
  // The Fig. 11 relationship at the chunk level: a tighter utilization
  // target produces a smaller database at higher achieved density, for
  // the same overwrite-heavy workload.
  auto run = [&](double util) {
    MemSecretStore secrets;
    TDB_CHECK(secrets.Provision(Slice("s")).ok());
    MemOneWayCounter counter;
    MemUntrustedStore store;
    ChunkStoreOptions options;
    options.security = crypto::SecurityConfig::Disabled();
    options.segment_size = 8 * 1024;
    options.map_fanout = 8;
    options.max_utilization = util;
    options.checkpoint_interval_bytes = 1 << 20;
    auto cs = std::move(ChunkStore::Open(&store, &secrets, &counter,
                                         options))
                  .value();
    Random rng(13);
    std::vector<ChunkId> cids;
    for (int i = 0; i < 300; i++) cids.push_back(cs->AllocateChunkId());
    for (int round = 0; round < 40; round++) {
      WriteBatch batch;
      for (int j = 0; j < 20; j++) {
        Buffer data;
        rng.Fill(&data, 120);
        batch.Write(cids[rng.Uniform(cids.size())], data);
      }
      TDB_CHECK(cs->Commit(batch, round % 4 == 0).ok());
    }
    // Everything still readable.
    uint64_t checked = 0;
    TDB_CHECK(cs->VerifyIntegrity(&checked).ok());
    return cs->Stats();
  };
  ChunkStoreStats loose = run(0.5);
  ChunkStoreStats tight = run(0.9);
  EXPECT_LT(tight.total_bytes, loose.total_bytes);
  EXPECT_GT(tight.utilization(), loose.utilization());
}

// The validated-plaintext cache must not weaken tamper detection: once a
// chunk has been evicted, the next read goes back to the untrusted store
// and revalidates in full.
TEST(ChunkCacheRobustnessTest, TamperDetectedOnColdReadAfterEviction) {
  MemSecretStore secrets;
  ASSERT_TRUE(secrets.Provision(Slice("s")).ok());
  MemOneWayCounter counter;
  MemUntrustedStore store;
  auto options = SmallOptions();
  options.cache_bytes = 1500;  // Room for ~2 of the 500-byte chunks.
  auto cs = std::move(ChunkStore::Open(&store, &secrets, &counter, options))
                .value();
  Random rng(21);
  Buffer victim_data;
  rng.Fill(&victim_data, 500);
  ChunkId victim = cs->AllocateChunkId();
  ASSERT_TRUE(cs->Write(victim, victim_data, true).ok());
  ASSERT_TRUE(cs->Read(victim).ok());  // Cached (write-through + hit).

  // Evict the victim by reading a stream of other chunks.
  for (int i = 0; i < 10; i++) {
    ChunkId cid = cs->AllocateChunkId();
    Buffer data;
    rng.Fill(&data, 500);
    ASSERT_TRUE(cs->Write(cid, data, false).ok());
    ASSERT_TRUE(cs->Read(cid).ok());
  }
  ASSERT_GT(cs->Stats().cache_evictions, 0u);

  // Corrupt the whole image. A cache hit would mask this; the cold read
  // must revalidate against the store and report tampering.
  for (const std::string& name : store.List()) {
    if (name.rfind("seg-", 0) != 0) continue;
    uint64_t size = *store.Size(name);
    for (uint64_t off = 8; off < size; off++) {
      ASSERT_TRUE(store.CorruptByte(name, off, 0xA5).ok());
    }
  }
  auto read = cs->Read(victim);
  ASSERT_FALSE(read.ok());
  EXPECT_TRUE(read.status().IsTamperDetected()) << read.status().ToString();
}

// VerifyIntegrity reports tampering on multi-batch stores too.
TEST(ChunkCacheRobustnessTest, ParallelScrubDetectsTampering) {
  MemSecretStore secrets;
  ASSERT_TRUE(secrets.Provision(Slice("s")).ok());
  MemOneWayCounter counter;
  MemUntrustedStore store;
  auto cs = std::move(ChunkStore::Open(&store, &secrets, &counter,
                                       SmallOptions()))
                .value();
  Random rng(22);
  // More chunks than one verify batch so batching boundaries are crossed.
  const int kChunks = 300;
  for (int i = 0; i < kChunks; i++) {
    ChunkId cid = cs->AllocateChunkId();
    Buffer data;
    rng.Fill(&data, 100);
    ASSERT_TRUE(cs->Write(cid, data, false).ok());
  }
  ASSERT_TRUE(cs->Checkpoint().ok());
  uint64_t checked = 0;
  ASSERT_TRUE(cs->VerifyIntegrity(&checked).ok());
  EXPECT_EQ(checked, static_cast<uint64_t>(kChunks));

  // Flip bytes until the scrub bites (some offsets land on dead records).
  bool caught = false;
  for (const std::string& name : store.List()) {
    if (name.rfind("seg-", 0) != 0 || caught) continue;
    uint64_t size = *store.Size(name);
    for (uint64_t off = 16; off < size && !caught; off += 13) {
      ASSERT_TRUE(store.CorruptByte(name, off, 0x20).ok());
      Status scrub = cs->VerifyIntegrity(nullptr);
      if (!scrub.ok()) {
        EXPECT_TRUE(scrub.IsTamperDetected()) << scrub.ToString();
        caught = true;
      }
      ASSERT_TRUE(store.CorruptByte(name, off, 0x20).ok());  // Undo.
    }
  }
  EXPECT_TRUE(caught);
}

// Crash-recovery property with the cache and pipeline at their defaults:
// a reopened store never serves pre-crash cached state (the cache dies
// with the process) and the durable floor is intact.
TEST(ChunkCacheRobustnessTest, CacheDoesNotLeakAcrossCrashRecovery) {
  MemSecretStore secrets;
  ASSERT_TRUE(secrets.Provision(Slice("s")).ok());
  MemOneWayCounter counter;
  MemUntrustedStore base;
  FaultInjectingStore faulty(&base, 31);

  ChunkId cid;
  Buffer durable_value;
  {
    auto cs = std::move(ChunkStore::Open(&faulty, &secrets, &counter,
                                         SmallOptions()))
                  .value();
    Random rng(31);
    rng.Fill(&durable_value, 300);
    cid = cs->AllocateChunkId();
    ASSERT_TRUE(cs->Write(cid, durable_value, true).ok());
    ASSERT_TRUE(cs->Read(cid).ok());  // Hot in the cache.
    // A nondurable overwrite reaches the cache (it is committed state)...
    ASSERT_TRUE(cs->Write(cid, Slice("nondurable-overwrite"), false).ok());
    auto hot = cs->Read(cid);
    ASSERT_TRUE(hot.ok());
    EXPECT_EQ(Slice(*hot).ToString(), "nondurable-overwrite");
    // ...then the process crashes before any durable commit.
    faulty.CrashAfterWrites(0);
    (void)cs->Write(cs->AllocateChunkId(), Slice("lost"), true).ok();
    // The store object is abandoned (destructor checkpoint fails too).
  }
  faulty.Reboot();
  auto cs = std::move(ChunkStore::Open(&faulty, &secrets, &counter,
                                       SmallOptions()))
                .value();
  auto data = cs->Read(cid);
  ASSERT_TRUE(data.ok()) << data.status().ToString();
  EXPECT_EQ(*data, durable_value);  // Durable floor, not the cached value.
}

}  // namespace
}  // namespace tdb::chunk
