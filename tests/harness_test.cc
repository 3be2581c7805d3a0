// Tests for the differential crash/tamper harness (src/harness): trace
// determinism, repro-line round trips and replays, the oracle model,
// exhaustive sharded crash and structural tamper sweeps at the chunk /
// object / collection / shard / objshard layers, and self-tests that
// prove the sweeps catch a deliberately buggy store and that the printed
// repro line replays the failure.
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "harness/engine.h"
#include "harness/oracle.h"
#include "harness/region_map.h"
#include "harness/trace.h"
#include "platform/mem_store.h"

namespace tdb::harness {
namespace {

// Campaign specs. Sizes are chosen so one shard stays within a couple of
// seconds; the sweeps themselves are exhaustive over each trace.
TraceSpec ChunkStrictSpec() {
  TraceSpec spec;
  spec.seed = 7;
  spec.commits = 10;
  spec.slots = 10;
  spec.preset = Preset::kStrict;
  return spec;
}

TraceSpec ChunkCleaningSpec() {
  TraceSpec spec;
  spec.seed = 11;
  spec.commits = 8;
  spec.slots = 8;
  spec.preset = Preset::kCleaning;
  return spec;
}

TraceSpec ChunkGroupSpec() {
  TraceSpec spec;
  spec.seed = 29;
  spec.commits = 10;
  spec.slots = 10;
  spec.preset = Preset::kGroup;
  return spec;
}

TraceSpec ChunkCodecSpec() {
  TraceSpec spec;
  spec.seed = 31;
  spec.commits = 10;
  spec.slots = 10;
  spec.preset = Preset::kCodec;
  return spec;
}

TraceSpec CodecTamperSpec() {
  TraceSpec spec;
  spec.seed = 37;
  spec.commits = 8;
  spec.slots = 8;
  spec.preset = Preset::kCodec;
  return spec;
}

TraceSpec ObjectSpec() {
  TraceSpec spec;
  spec.seed = 13;
  spec.commits = 7;
  spec.slots = 8;
  spec.preset = Preset::kStrict;
  return spec;
}

TraceSpec CollectionSpec() {
  TraceSpec spec;
  spec.seed = 17;
  spec.commits = 5;
  spec.slots = 6;
  spec.preset = Preset::kStrict;
  return spec;
}

TraceSpec TamperSpec() {
  TraceSpec spec;
  spec.seed = 23;
  spec.commits = 8;
  spec.slots = 8;
  spec.preset = Preset::kStrict;
  return spec;
}

// Number of cases shard `shard` of `num_shards` executes out of `total`.
uint64_t ShardShare(uint64_t total, int shard, int num_shards) {
  return total / num_shards +
         (total % static_cast<uint64_t>(num_shards) >
                  static_cast<uint64_t>(shard)
              ? 1
              : 0);
}

// ---------------------------------------------------------------------------
// Trace generation and repro lines.

TEST(TraceTest, GenerationIsDeterministic) {
  TraceSpec spec = ChunkStrictSpec();
  std::vector<TraceCommit> a = GenerateTrace(spec);
  std::vector<TraceCommit> b = GenerateTrace(spec);
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.size(), spec.commits);
  for (size_t c = 0; c < a.size(); c++) {
    ASSERT_EQ(a[c].ops.size(), b[c].ops.size());
    EXPECT_EQ(a[c].durable, b[c].durable);
    EXPECT_EQ(a[c].checkpoint_after, b[c].checkpoint_after);
    for (size_t i = 0; i < a[c].ops.size(); i++) {
      EXPECT_EQ(a[c].ops[i].kind, b[c].ops[i].kind);
      EXPECT_EQ(a[c].ops[i].slot, b[c].ops[i].slot);
      EXPECT_EQ(a[c].ops[i].size, b[c].ops[i].size);
      EXPECT_EQ(a[c].ops[i].payload_seed, b[c].ops[i].payload_seed);
    }
  }
  // The forced mid-trace checkpoint guarantees map-node coverage.
  EXPECT_TRUE(a[spec.commits / 2].checkpoint_after);

  spec.seed = 8;
  std::vector<TraceCommit> other = GenerateTrace(spec);
  bool differs = other.size() != a.size();
  for (size_t c = 0; !differs && c < a.size(); c++) {
    differs = other[c].ops.size() != a[c].ops.size() ||
              (!other[c].ops.empty() &&
               other[c].ops[0].payload_seed != a[c].ops[0].payload_seed);
  }
  EXPECT_TRUE(differs);
}

TEST(TraceTest, SlotPayloadIsDeterministic) {
  Buffer a = SlotPayload(42, 100);
  Buffer b = SlotPayload(42, 100);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.size(), 100u);
  EXPECT_NE(SlotPayload(43, 100), a);
}

TEST(ReproTest, CrashLineRoundTrips) {
  ReproCase repro;
  repro.layer = "object";
  repro.kind = "crash";
  repro.spec.seed = 99;
  repro.spec.commits = 6;
  repro.spec.slots = 5;
  repro.spec.preset = Preset::kCleaning;
  repro.crash.write_index = 17;
  repro.crash.tear_num = 2;
  repro.crash.tear_den = 4;
  repro.crash.recovery_crash = 3;

  std::string line = FormatRepro(repro);
  Result<ReproCase> parsed = ParseRepro(line);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().layer, "object");
  EXPECT_EQ(parsed.value().kind, "crash");
  EXPECT_EQ(parsed.value().spec.seed, 99u);
  EXPECT_EQ(parsed.value().spec.commits, 6u);
  EXPECT_EQ(parsed.value().spec.slots, 5u);
  EXPECT_EQ(parsed.value().spec.preset, Preset::kCleaning);
  EXPECT_EQ(parsed.value().crash.write_index, 17u);
  EXPECT_EQ(parsed.value().crash.tear_num, 2u);
  EXPECT_EQ(parsed.value().crash.tear_den, 4u);
  EXPECT_EQ(parsed.value().crash.recovery_crash, 3);
  EXPECT_EQ(FormatRepro(parsed.value()), line);
}

TEST(ReproTest, GroupPresetRoundTrips) {
  ReproCase repro;
  repro.layer = "chunk";
  repro.kind = "crash";
  repro.spec = ChunkGroupSpec();
  repro.crash.write_index = 9;
  repro.crash.tear_num = 5;
  repro.crash.tear_den = 8;

  std::string line = FormatRepro(repro);
  EXPECT_NE(line.find("preset=group"), std::string::npos);
  Result<ReproCase> parsed = ParseRepro(line);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().spec.preset, Preset::kGroup);
  EXPECT_EQ(parsed.value().crash.tear_num, 5u);
  EXPECT_EQ(parsed.value().crash.tear_den, 8u);
  EXPECT_EQ(FormatRepro(parsed.value()), line);
}

TEST(ReproTest, CodecPresetRoundTrips) {
  ReproCase repro;
  repro.layer = "chunk";
  repro.kind = "crash";
  repro.spec.seed = 31;
  repro.spec.commits = 10;
  repro.spec.slots = 10;
  repro.spec.preset = Preset::kCodec;
  repro.crash.write_index = 5;
  std::string line = FormatRepro(repro);
  EXPECT_NE(line.find("preset=codec"), std::string::npos);
  auto parsed = ParseRepro(line);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().spec.preset, Preset::kCodec);
  EXPECT_EQ(FormatRepro(parsed.value()), line);
}

TEST(ReproTest, TamperLineRoundTrips) {
  ReproCase repro;
  repro.layer = "chunk";
  repro.kind = "tamper";
  repro.spec.seed = 23;
  repro.tamper_file = "seg-3";
  repro.tamper_offset = 129;
  repro.tamper_mask = 0x40;

  std::string line = FormatRepro(repro);
  Result<ReproCase> parsed = ParseRepro(line);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().kind, "tamper");
  EXPECT_EQ(parsed.value().tamper_file, "seg-3");
  EXPECT_EQ(parsed.value().tamper_offset, 129u);
  EXPECT_EQ(parsed.value().tamper_mask, 0x40u);
  EXPECT_EQ(FormatRepro(parsed.value()), line);
}

TEST(ReproTest, MalformedLinesAreRejected) {
  EXPECT_FALSE(ParseRepro("").ok());
  EXPECT_FALSE(ParseRepro("REPRO v1 layer=chunk").ok());
  EXPECT_FALSE(ParseRepro("TDB-REPRO v2 layer=chunk").ok());
  EXPECT_FALSE(ParseRepro("TDB-REPRO v1 layer=disk kind=crash").ok());
  EXPECT_FALSE(ParseRepro("TDB-REPRO v1 layer=chunk kind=crash seed=xyz").ok());
  EXPECT_FALSE(ParseRepro("TDB-REPRO v1 layer=chunk kind=tamper").ok());
  EXPECT_FALSE(ParseRepro("TDB-REPRO v1 bogus").ok());
}

// ---------------------------------------------------------------------------
// Oracle model.

TEST(OracleTest, FloorAndBoundaries) {
  StateOracle oracle;
  EXPECT_EQ(oracle.boundaries(), 1u);  // Boundary 0: empty store.
  EXPECT_EQ(oracle.floor(), 0u);

  oracle.BeginCommit();
  oracle.PendingWrite(1, Buffer{1, 2, 3});
  oracle.EndCommit(true, true);  // Acked durable: raises the floor.
  EXPECT_EQ(oracle.boundaries(), 2u);
  EXPECT_EQ(oracle.floor(), 1u);

  oracle.BeginCommit();
  oracle.PendingWrite(2, Buffer{4});
  oracle.EndCommit(true, false);  // Non-durable: floor unchanged.
  EXPECT_EQ(oracle.boundaries(), 3u);
  EXPECT_EQ(oracle.floor(), 1u);

  // Recovering either boundary above the floor is acceptable...
  EXPECT_TRUE(oracle.MatchRecovered(oracle.state(1)).ok());
  Result<size_t> last = oracle.MatchRecovered(oracle.state(2));
  ASSERT_TRUE(last.ok());
  EXPECT_EQ(last.value(), 2u);
  // ...but the pre-floor (empty) state is a lost durable commit.
  EXPECT_FALSE(oracle.MatchRecovered(StateOracle::State{}).ok());

  // A state that was never a commit boundary (torn batch) never matches.
  StateOracle::State torn = oracle.state(2);
  torn.erase(1);
  EXPECT_FALSE(oracle.MatchRecovered(torn).ok());

  oracle.MarkAllDurable();  // Explicit checkpoint.
  EXPECT_EQ(oracle.floor(), 2u);
  EXPECT_FALSE(oracle.MatchRecovered(oracle.state(1)).ok());

  oracle.BeginCommit();
  oracle.PendingRemove(1);
  oracle.EndCommit(false, true);  // Crashed commit: boundary, no floor.
  EXPECT_EQ(oracle.boundaries(), 4u);
  EXPECT_EQ(oracle.floor(), 2u);
  EXPECT_TRUE(oracle.MatchRecovered(oracle.state(3)).ok());
}

// ---------------------------------------------------------------------------
// Exhaustive crash sweeps (sharded: each shard is one ctest entry; the
// union of shards covers every (write index x tear fraction) case).

class ChunkStrictCrashSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(ChunkStrictCrashSweepTest, Exhaustive) {
  constexpr int kShards = 4;
  TraceSpec spec = ChunkStrictSpec();
  SweepStats stats;
  Status status = CrashSweep({"chunk", spec}, GetParam(), kShards, &stats);
  ASSERT_TRUE(status.ok()) << status.ToString();

  // No sampling: the campaign enumerates every base-store write of the
  // trace, and this shard ran exactly its residue class of the cases.
  Result<uint64_t> writes = CountWrites({"chunk", spec});
  ASSERT_TRUE(writes.ok()) << writes.status().ToString();
  EXPECT_EQ(stats.write_points, writes.value());
  EXPECT_GE(stats.write_points, spec.commits);  // >= 1 write per commit.
  EXPECT_EQ(stats.tear_buckets, 5u);
  EXPECT_EQ(stats.cases, ShardShare(stats.write_points * stats.tear_buckets,
                                    GetParam(), kShards));
  PrintCoverage("chunk-strict-crash", GetParam(), kShards, stats);
}

INSTANTIATE_TEST_SUITE_P(Shards, ChunkStrictCrashSweepTest,
                         ::testing::Range(0, 4));

// Group commit coalesces runs of nondurable commits into one merged
// multi-commit record, so this sweep's crash points include tears INSIDE
// a record that covers several logical commits. The oracle invariant is
// unchanged — recovered state must be a commit-boundary prefix at least
// as new as the durable floor — because a merged record applies
// all-or-nothing and its boundary IS a commit boundary; what the sweep
// proves is that no group-acked commit is ever lost and no torn group is
// ever partially applied. Tear buckets are n/8 (vs n/4 elsewhere) so
// interior sector boundaries of the longer merged appends are reached.
class ChunkGroupCrashSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(ChunkGroupCrashSweepTest, Exhaustive) {
  constexpr int kShards = 4;
  TraceSpec spec = ChunkGroupSpec();
  SweepStats stats;
  Status status = CrashSweep({"chunk", spec}, GetParam(), kShards, &stats);
  ASSERT_TRUE(status.ok()) << status.ToString();

  Result<uint64_t> writes = CountWrites({"chunk", spec});
  ASSERT_TRUE(writes.ok()) << writes.status().ToString();
  EXPECT_EQ(stats.write_points, writes.value());
  EXPECT_EQ(stats.tear_buckets, 9u);
  EXPECT_EQ(stats.cases, ShardShare(stats.write_points * stats.tear_buckets,
                                    GetParam(), kShards));
  PrintCoverage("chunk-group-crash", GetParam(), kShards, stats);
}

INSTANTIATE_TEST_SUITE_P(Shards, ChunkGroupCrashSweepTest,
                         ::testing::Range(0, 4));

// Compress-before-encrypt preset: every record's sealed bytes are the
// encryption of (possibly) LZ-compressed plaintext. The sweep proves a
// crash torn inside a compressed append recovers to a commit-boundary
// prefix exactly as in kStrict — compression must not add any new
// partial-application or silent-corruption window.
class ChunkCodecCrashSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(ChunkCodecCrashSweepTest, Exhaustive) {
  constexpr int kShards = 4;
  TraceSpec spec = ChunkCodecSpec();
  SweepStats stats;
  Status status = CrashSweep({"chunk", spec}, GetParam(), kShards, &stats);
  ASSERT_TRUE(status.ok()) << status.ToString();

  Result<uint64_t> writes = CountWrites({"chunk", spec});
  ASSERT_TRUE(writes.ok()) << writes.status().ToString();
  EXPECT_EQ(stats.write_points, writes.value());
  EXPECT_GE(stats.write_points, spec.commits);
  EXPECT_EQ(stats.cases, ShardShare(stats.write_points * stats.tear_buckets,
                                    GetParam(), kShards));
  PrintCoverage("chunk-codec-crash", GetParam(), kShards, stats);
}

INSTANTIATE_TEST_SUITE_P(Shards, ChunkCodecCrashSweepTest,
                         ::testing::Range(0, 4));

class ChunkCleaningCrashSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(ChunkCleaningCrashSweepTest, Exhaustive) {
  constexpr int kShards = 4;
  TraceSpec spec = ChunkCleaningSpec();
  SweepStats stats;
  Status status = CrashSweep({"chunk", spec}, GetParam(), kShards, &stats);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(stats.cases, ShardShare(stats.write_points * stats.tear_buckets,
                                    GetParam(), kShards));
  PrintCoverage("chunk-cleaning-crash", GetParam(), kShards, stats);
}

INSTANTIATE_TEST_SUITE_P(Shards, ChunkCleaningCrashSweepTest,
                         ::testing::Range(0, 4));

// Double-crash coverage: every case additionally crashes during recovery,
// at recovery's second write (recovering these images writes twice).
class ChunkRecoveryCrashSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(ChunkRecoveryCrashSweepTest, Exhaustive) {
  constexpr int kShards = 4;
  TraceSpec spec = ChunkStrictSpec();
  spec.seed = 9;
  spec.commits = 6;
  spec.slots = 8;
  SweepStats stats;
  Status status = CrashSweep({"chunk", spec}, GetParam(), kShards, &stats,
                             /*recovery_crash=*/1);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(stats.cases, ShardShare(stats.write_points * stats.tear_buckets,
                                    GetParam(), kShards));
  EXPECT_EQ(stats.recovery_crashes, stats.cases);
  PrintCoverage("chunk-recovery-crash", GetParam(), kShards, stats);
}

INSTANTIATE_TEST_SUITE_P(Shards, ChunkRecoveryCrashSweepTest,
                         ::testing::Range(0, 4));

class ObjectCrashSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(ObjectCrashSweepTest, Exhaustive) {
  constexpr int kShards = 4;
  TraceSpec spec = ObjectSpec();
  SweepStats stats;
  Status status = CrashSweep({"object", spec}, GetParam(), kShards, &stats);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(stats.cases, ShardShare(stats.write_points * stats.tear_buckets,
                                    GetParam(), kShards));
  PrintCoverage("object-crash", GetParam(), kShards, stats);
}

INSTANTIATE_TEST_SUITE_P(Shards, ObjectCrashSweepTest, ::testing::Range(0, 4));

class CollectionCrashSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(CollectionCrashSweepTest, Exhaustive) {
  constexpr int kShards = 4;
  TraceSpec spec = CollectionSpec();
  SweepStats stats;
  Status status = CrashSweep({"collection", spec}, GetParam(), kShards, &stats);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(stats.cases, ShardShare(stats.write_points * stats.tear_buckets,
                                    GetParam(), kShards));
  PrintCoverage("collection-crash", GetParam(), kShards, stats);
}

INSTANTIATE_TEST_SUITE_P(Shards, CollectionCrashSweepTest,
                         ::testing::Range(0, 4));

// ---------------------------------------------------------------------------
// Structural tamper sweep.

// The tamper-campaign contract, checked on every shard. The full campaign
// (counted identically in every shard) covers all four structural region
// classes of the image. Every executed case was detected or masked, never
// silently accepted (a silent acceptance fails the sweep itself). Each
// detection left exactly one deduplicated audit event, with a region
// compatible with the corrupted byte's class, and one flight-recorder
// bundle; each masked case left neither. The per-case contract is enforced
// inside the sweep; these tallies cross-check the aggregate.
void ExpectTamperContract(const SweepStats& stats, int shard, int num_shards) {
  uint64_t site_sum = 0;
  for (int cls = 0; cls < kRegionClasses; cls++) {
    EXPECT_GT(stats.sites_per_class[cls], 0u)
        << "no tamper sites in region class "
        << RegionClassName(static_cast<RegionClass>(cls));
    site_sum += stats.sites_per_class[cls];
  }
  EXPECT_EQ(stats.tamper_sites, site_sum);
  EXPECT_EQ(stats.cases, ShardShare(stats.tamper_sites, shard, num_shards));
  EXPECT_EQ(stats.detected + stats.masked, stats.cases);
  EXPECT_GT(stats.detected, 0u);
  EXPECT_EQ(stats.audit_events, stats.detected);
  EXPECT_EQ(stats.recorder_bundles, stats.detected);
}

class ChunkTamperSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(ChunkTamperSweepTest, EveryRegionClass) {
  constexpr int kShards = 4;
  TraceSpec spec = TamperSpec();
  SweepStats stats;
  Status status = TamperSweep({"chunk", spec}, GetParam(), kShards, &stats);
  ASSERT_TRUE(status.ok()) << status.ToString();
  ExpectTamperContract(stats, GetParam(), kShards);
  PrintCoverage("chunk-tamper", GetParam(), kShards, stats);
}

INSTANTIATE_TEST_SUITE_P(Shards, ChunkTamperSweepTest, ::testing::Range(0, 4));

// Tamper sweep over a compression-enabled image: corruption of a
// compressed sealed payload may surface as a hash mismatch OR (were the
// hash somehow satisfied) a decompression failure — either way it must be
// detected with an audit event, never silently accepted. The sweep covers
// every structural region class of the codec image.
class CodecTamperSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(CodecTamperSweepTest, EveryRegionClass) {
  constexpr int kShards = 4;
  TraceSpec spec = CodecTamperSpec();
  SweepStats stats;
  Status status = TamperSweep({"chunk", spec}, GetParam(), kShards, &stats);
  ASSERT_TRUE(status.ok()) << status.ToString();
  ExpectTamperContract(stats, GetParam(), kShards);
  PrintCoverage("chunk-codec-tamper", GetParam(), kShards, stats);
}

INSTANTIATE_TEST_SUITE_P(Shards, CodecTamperSweepTest,
                         ::testing::Range(0, 4));

// The object and collection layers get the same tamper campaign as the
// chunk layer: the image is read back through object unpickling (resp. a
// collection index scan), so a corruption must be caught or masked under
// exactly the reads an application performs.
class ObjectTamperSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(ObjectTamperSweepTest, EveryRegionClass) {
  constexpr int kShards = 4;
  SweepStats stats;
  Status status =
      TamperSweep({"object", ObjectSpec()}, GetParam(), kShards, &stats);
  ASSERT_TRUE(status.ok()) << status.ToString();
  ExpectTamperContract(stats, GetParam(), kShards);
  PrintCoverage("object-tamper", GetParam(), kShards, stats);
}

INSTANTIATE_TEST_SUITE_P(Shards, ObjectTamperSweepTest,
                         ::testing::Range(0, 4));

class CollectionTamperSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(CollectionTamperSweepTest, EveryRegionClass) {
  constexpr int kShards = 4;
  SweepStats stats;
  Status status = TamperSweep({"collection", CollectionSpec()}, GetParam(),
                              kShards, &stats);
  ASSERT_TRUE(status.ok()) << status.ToString();
  ExpectTamperContract(stats, GetParam(), kShards);
  PrintCoverage("collection-tamper", GetParam(), kShards, stats);
}

INSTANTIATE_TEST_SUITE_P(Shards, CollectionTamperSweepTest,
                         ::testing::Range(0, 4));

// ---------------------------------------------------------------------------
// Sharded-store campaigns (src/shard): the crash sweep enumerates every
// global write index across all shards — including each write of every
// two-phase-commit window (per-participant staging commits, decision
// batches) — and the tamper sweeps corrupt the cross-shard commit's own
// metadata (config, prepare, and decision records) alongside the usual
// chunk-level regions.

constexpr uint32_t kRouterShards = 2;  // Shards inside the router.

TraceSpec ShardTraceSpec() {
  TraceSpec spec;
  spec.seed = 37;
  spec.commits = 6;
  spec.slots = 6;
  spec.preset = Preset::kStrict;
  return spec;
}

class ShardCrashSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(ShardCrashSweepTest, Exhaustive) {
  constexpr int kShards = 4;
  TraceSpec spec = ShardTraceSpec();
  SweepStats stats;
  Status status = CrashSweep({"shard", spec, kRouterShards}, GetParam(),
                             kShards, &stats);
  ASSERT_TRUE(status.ok()) << status.ToString();

  Result<uint64_t> writes = CountWrites({"shard", spec, kRouterShards});
  ASSERT_TRUE(writes.ok()) << writes.status().ToString();
  EXPECT_EQ(stats.write_points, writes.value());
  // The sharded trace writes strictly more than one store's worth: 2PC
  // staging and decision records ride the same global write index.
  EXPECT_GT(stats.write_points, spec.commits);
  EXPECT_EQ(stats.tear_buckets, 5u);
  EXPECT_EQ(stats.cases, ShardShare(stats.write_points * stats.tear_buckets,
                                    GetParam(), kShards));
  PrintCoverage("shard-crash", GetParam(), kShards, stats);
}

INSTANTIATE_TEST_SUITE_P(Shards, ShardCrashSweepTest, ::testing::Range(0, 4));

// The clean sharded image retains every 2PC decision record (they are
// never garbage-collected), so this sweep's sites include tampered
// coordinator decision records.
class ShardTamperSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(ShardTamperSweepTest, EveryRegionClass) {
  constexpr int kShards = 4;
  TraceSpec spec = ShardTraceSpec();
  SweepStats stats;
  Status status = TamperSweep({"shard", spec, kRouterShards}, GetParam(),
                              kShards, &stats);
  ASSERT_TRUE(status.ok()) << status.ToString();
  ExpectTamperContract(stats, GetParam(), kShards);
  PrintCoverage("shard-tamper", GetParam(), kShards, stats);
}

INSTANTIATE_TEST_SUITE_P(Shards, ShardTamperSweepTest,
                         ::testing::Range(0, 4));

class ShardMid2pcTamperSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(ShardMid2pcTamperSweepTest, LivePrepareAndDecisionRecords) {
  constexpr int kShards = 4;
  TraceSpec spec = ShardTraceSpec();
  SweepStats stats;
  Status status = TamperSweep({"shard", spec, kRouterShards}, GetParam(),
                              kShards, &stats, "tamper2pc");
  ASSERT_TRUE(status.ok()) << status.ToString();
  ExpectTamperContract(stats, GetParam(), kShards);
  PrintCoverage("shard-mid2pc-tamper", GetParam(), kShards, stats);
}

INSTANTIATE_TEST_SUITE_P(Shards, ShardMid2pcTamperSweepTest,
                         ::testing::Range(0, 4));

// Object-level cross-shard sweeps (layer=objshard): the same trace commits
// run as ObjectStore transactions over the sharded router, so multi-object
// commits whose objects hash to different shards drive the MAC-chained 2PC
// from the durable-object API down.

class ObjectShardCrashSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(ObjectShardCrashSweepTest, Exhaustive) {
  constexpr int kShards = 4;
  TraceSpec spec = ShardTraceSpec();
  SweepStats stats;
  Status status = CrashSweep({"objshard", spec, kRouterShards}, GetParam(),
                             kShards, &stats);
  ASSERT_TRUE(status.ok()) << status.ToString();

  Result<uint64_t> writes = CountWrites({"objshard", spec, kRouterShards});
  ASSERT_TRUE(writes.ok()) << writes.status().ToString();
  EXPECT_EQ(stats.write_points, writes.value());
  // Cross-shard object transactions must actually exercise the 2PC window:
  // staging and decision records ride the same global write index.
  EXPECT_GT(stats.write_points, spec.commits);
  EXPECT_EQ(stats.tear_buckets, 5u);
  EXPECT_EQ(stats.cases, ShardShare(stats.write_points * stats.tear_buckets,
                                    GetParam(), kShards));
  PrintCoverage("objshard-crash", GetParam(), kShards, stats);
}

INSTANTIATE_TEST_SUITE_P(Shards, ObjectShardCrashSweepTest,
                         ::testing::Range(0, 4));

class ObjectShardTamperSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(ObjectShardTamperSweepTest, EveryRegionClass) {
  constexpr int kShards = 4;
  TraceSpec spec = ShardTraceSpec();
  SweepStats stats;
  Status status = TamperSweep({"objshard", spec, kRouterShards}, GetParam(),
                              kShards, &stats);
  ASSERT_TRUE(status.ok()) << status.ToString();
  ExpectTamperContract(stats, GetParam(), kShards);
  PrintCoverage("objshard-tamper", GetParam(), kShards, stats);
}

INSTANTIATE_TEST_SUITE_P(Shards, ObjectShardTamperSweepTest,
                         ::testing::Range(0, 4));

TEST(ObjectShardHarnessTest, CasesReplayViaReproLine) {
  TraceSpec spec = ShardTraceSpec();
  CrashCase crash;
  crash.write_index = 3;
  crash.tear_num = 2;
  ReproCase repro;
  repro.layer = "objshard";
  repro.kind = "crash";
  repro.shards = kRouterShards;
  repro.spec = spec;
  repro.crash = crash;
  ASSERT_TRUE(RunCase(repro).ok());
  std::string line = FormatRepro(repro);
  EXPECT_NE(line.find("layer=objshard"), std::string::npos);
  EXPECT_NE(line.find("shards=2"), std::string::npos);
  Result<ReproCase> parsed = ParseRepro(line);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(FormatRepro(*parsed), line);
  EXPECT_TRUE(ReplayRepro(line).ok());

  // objshard requires shards=, and tamper2pc stays chunk-shard-layer only.
  EXPECT_FALSE(
      ParseRepro("TDB-REPRO v1 layer=objshard kind=crash point=1").ok());
  EXPECT_FALSE(ParseRepro("TDB-REPRO v1 layer=objshard kind=tamper2pc "
                          "shards=2 file=a off=1")
                   .ok());
}

TEST(ReproTest, ShardLinesRoundTrip) {
  ReproCase repro;
  repro.layer = "shard";
  repro.kind = "crash";
  repro.shards = 4;
  repro.spec = ShardTraceSpec();
  repro.crash.write_index = 17;
  repro.crash.tear_num = 3;
  std::string line = FormatRepro(repro);
  EXPECT_NE(line.find("layer=shard"), std::string::npos);
  EXPECT_NE(line.find("shards=4"), std::string::npos);
  Result<ReproCase> parsed = ParseRepro(line);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->shards, 4u);
  EXPECT_EQ(parsed->crash.write_index, 17u);
  EXPECT_EQ(FormatRepro(*parsed), line);

  // tamper2pc carries BOTH the crash locator and the tampered byte.
  repro.kind = "tamper2pc";
  repro.tamper_file = "s0/seg-000001";
  repro.tamper_offset = 99;
  repro.tamper_mask = kTamperMask;
  line = FormatRepro(repro);
  parsed = ParseRepro(line);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->kind, "tamper2pc");
  EXPECT_EQ(parsed->crash.write_index, 17u);
  EXPECT_EQ(parsed->tamper_file, "s0/seg-000001");
  EXPECT_EQ(FormatRepro(*parsed), line);

  // Malformed variants are rejected.
  EXPECT_FALSE(ParseRepro("TDB-REPRO v1 layer=shard kind=crash point=1").ok());
  EXPECT_FALSE(
      ParseRepro("TDB-REPRO v1 layer=chunk kind=tamper2pc file=a off=1").ok());
}

TEST(ShardHarnessTest, SingleCrashAndTamperCasesReplayViaReproLine) {
  TraceSpec spec = ShardTraceSpec();
  CrashCase crash;
  crash.write_index = 3;
  crash.tear_num = 2;
  ReproCase repro;
  repro.layer = "shard";
  repro.kind = "crash";
  repro.shards = kRouterShards;
  repro.spec = spec;
  repro.crash = crash;
  ASSERT_TRUE(RunCase(repro).ok());
  EXPECT_TRUE(ReplayRepro(FormatRepro(repro)).ok());
}

// ---------------------------------------------------------------------------
// Self-test: the harness must catch a deliberately buggy store, print a
// repro line, and the line must replay the same failure.

// A store that silently drops its `drop_index`-th write: the caller gets
// OK but nothing reaches the base store — a lying disk.
class LossyStore : public platform::UntrustedStore {
 public:
  LossyStore(platform::UntrustedStore* base, uint64_t drop_index)
      : base_(base), drop_index_(drop_index) {}

  Status Create(const std::string& name, bool overwrite) override {
    return base_->Create(name, overwrite);
  }
  Status Remove(const std::string& name) override {
    return base_->Remove(name);
  }
  bool Exists(const std::string& name) const override {
    return base_->Exists(name);
  }
  Status Read(const std::string& name, uint64_t offset, size_t n,
              Buffer* out) const override {
    return base_->Read(name, offset, n, out);
  }
  Status Write(const std::string& name, uint64_t offset,
               Slice data) override {
    if (writes_++ == drop_index_) return Status::OK();  // Dropped.
    return base_->Write(name, offset, data);
  }
  Result<uint64_t> Size(const std::string& name) const override {
    return base_->Size(name);
  }
  Status Truncate(const std::string& name, uint64_t size) override {
    return base_->Truncate(name, size);
  }
  Status Sync(const std::string& name) override { return base_->Sync(name); }
  std::vector<std::string> List() const override { return base_->List(); }

  uint64_t writes() const { return writes_; }

 private:
  platform::UntrustedStore* base_;
  uint64_t drop_index_;
  mutable uint64_t writes_ = 0;
};

TEST(HarnessSelfTest, CatchesLyingStoreAndReproLineReplays) {
  TraceSpec spec = ChunkStrictSpec();

  // Measure the total write count (open + trace) with a pass-through
  // wrapper, then aim the drop at the middle of the trace.
  std::vector<std::unique_ptr<LossyStore>> stores;
  auto probe_wrap = [&](platform::UntrustedStore* base) {
    stores.push_back(std::make_unique<LossyStore>(base, ~0ull));
    return stores.back().get();
  };
  Result<uint64_t> counted = CountWrites({"chunk", spec}, probe_wrap);
  ASSERT_TRUE(counted.ok()) << counted.status().ToString();
  uint64_t total_writes = stores.back()->writes();
  ASSERT_GT(total_writes, counted.value());  // Open itself writes.
  // Drop the trace's third write: an early log record that later durable
  // commits (and the forced mid-trace checkpoint) depend on.
  uint64_t drop = total_writes - counted.value() + 2;

  auto lossy_wrap = [&](platform::UntrustedStore* base) {
    stores.push_back(std::make_unique<LossyStore>(base, drop));
    return stores.back().get();
  };
  Status swept = CrashSweep({"chunk", spec}, 0, 1, nullptr, -1, lossy_wrap);
  ASSERT_FALSE(swept.ok())
      << "harness failed to catch a store that drops writes";

  // The failure message leads with a single-line repro.
  std::string message(swept.message());
  ASSERT_EQ(message.rfind("TDB-REPRO v1 ", 0), 0u) << message;
  std::string line = message.substr(0, message.find(" | "));

  // The line parses back to the failing case...
  Result<ReproCase> parsed = ParseRepro(line);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().layer, "chunk");
  EXPECT_EQ(parsed.value().kind, "crash");
  EXPECT_EQ(parsed.value().spec.seed, spec.seed);

  // ...and replaying it in the same buggy environment reproduces the
  // failure, while replaying it against the real store passes.
  Status replayed = RunCase(parsed.value(), nullptr, lossy_wrap);
  EXPECT_FALSE(replayed.ok());
  EXPECT_EQ(std::string(replayed.message()).rfind("TDB-REPRO v1 ", 0), 0u);

  Status clean = ReplayRepro(line);
  EXPECT_TRUE(clean.ok()) << clean.ToString();
}

// ReplayRepro routes every layer tag to the matching driver.
// The same lying store fails the object- and collection-layer crash
// sweeps: the checks the engine applies there are not vacuous. Each store
// drops the record of the trace's first commit, which later durable
// commits build on (the first 3 resp. 6 writes bootstrap a fresh object
// resp. collection stack).
TEST(HarnessSelfTest, ObjectAndCollectionSweepsCatchLyingStore) {
  const struct {
    Target target;
    uint64_t drop;
  } kCases[] = {{{"object", ObjectSpec()}, 3},
                {{"collection", CollectionSpec()}, 6}};
  for (const auto& c : kCases) {
    std::vector<std::unique_ptr<LossyStore>> stores;
    auto wrap = [&](platform::UntrustedStore* base) {
      stores.push_back(std::make_unique<LossyStore>(base, c.drop));
      return stores.back().get();
    };
    Status swept = CrashSweep(c.target, 0, 1, nullptr, -1, wrap);
    ASSERT_FALSE(swept.ok()) << c.target.layer
                             << " sweep missed a store that drops writes";
    std::string message(swept.message());
    EXPECT_EQ(message.rfind("TDB-REPRO v1 layer=" + c.target.layer + " ", 0),
              0u)
        << message;
    // The same case passes on an honest store.
    EXPECT_TRUE(ReplayRepro(message.substr(0, message.find(" | "))).ok());
  }
}

TEST(HarnessSelfTest, ReplayReproRoutesLayers) {
  ReproCase repro;
  repro.kind = "crash";
  repro.spec = CollectionSpec();
  repro.crash.write_index = 3;
  repro.crash.tear_num = 2;
  repro.crash.tear_den = 4;

  repro.layer = "collection";
  Status collection = ReplayRepro(FormatRepro(repro));
  EXPECT_TRUE(collection.ok()) << collection.ToString();

  repro.layer = "object";
  Status object = ReplayRepro(FormatRepro(repro));
  EXPECT_TRUE(object.ok()) << object.ToString();

  EXPECT_FALSE(ReplayRepro("TDB-REPRO v1 layer=nope kind=crash").ok());
}

// ---------------------------------------------------------------------------
// Repro grammar regressions.

// rcrash= is honoured above the chunk layer too: each line crashes a second
// time during recovery, and the engine's stats show the crash fired.
TEST(ReproGrammarTest, RecoveryCrashFiresAboveTheChunkLayer) {
  for (const char* line :
       {"TDB-REPRO v1 layer=collection kind=crash preset=strict seed=17 "
        "commits=5 slots=6 point=3 tear=2/4 rcrash=0",
        "TDB-REPRO v1 layer=ycsb kind=crash preset=strict seed=4 commits=4 "
        "slots=6 point=1 tear=2/4 rcrash=0"}) {
    Result<ReproCase> repro = ParseRepro(line);
    ASSERT_TRUE(repro.ok()) << repro.status().ToString();
    SweepStats stats;
    Status status = RunCase(repro.value(), &stats);
    EXPECT_TRUE(status.ok()) << status.ToString();
    EXPECT_EQ(stats.cases, 1u) << line;
    EXPECT_EQ(stats.recovery_crashes, 1u) << line;
  }
}

// Object- and collection-layer tamper lines replay (detected or masked).
TEST(ReproGrammarTest, ObjectAndCollectionTamperLinesReplay) {
  for (const char* line :
       {"TDB-REPRO v1 layer=object kind=tamper preset=strict seed=13 "
        "commits=7 slots=8 file=seg-1 off=300 mask=64",
        "TDB-REPRO v1 layer=collection kind=tamper preset=strict seed=17 "
        "commits=5 slots=6 file=anchor-0 off=0 mask=64"}) {
    Status status = ReplayRepro(line);
    EXPECT_TRUE(status.ok()) << status.ToString();
  }
}

// Lines printed by the per-layer sweep drivers this engine replaced, one
// per layer and kind: each still parses, formats back to itself, and
// replays to OK, so old failure reports keep pointing at the same write
// index or the same image byte.
TEST(ReproGrammarTest, CapturedLinesStillReplay) {
  const char* kLines[] = {
      "TDB-REPRO v1 layer=chunk kind=crash preset=strict seed=7 commits=10 "
      "slots=10 point=6 tear=2/4 rcrash=-1",
      "TDB-REPRO v1 layer=chunk kind=crash preset=strict seed=9 commits=6 "
      "slots=8 point=3 tear=1/4 rcrash=2",
      "TDB-REPRO v1 layer=chunk kind=tamper preset=strict seed=23 commits=8 "
      "slots=8 file=seg-1 off=300 mask=64",
      "TDB-REPRO v1 layer=object kind=crash preset=strict seed=13 commits=7 "
      "slots=8 point=4 tear=2/4 rcrash=-1",
      "TDB-REPRO v1 layer=collection kind=crash preset=strict seed=17 "
      "commits=5 slots=6 point=3 tear=2/4 rcrash=-1",
      "TDB-REPRO v1 layer=shard kind=crash preset=strict seed=37 commits=6 "
      "slots=6 shards=2 point=9 tear=3/4 rcrash=-1",
      "TDB-REPRO v1 layer=shard kind=tamper preset=strict seed=37 commits=6 "
      "slots=6 shards=2 file=s1/seg-1 off=300 mask=64",
      "TDB-REPRO v1 layer=shard kind=tamper2pc preset=strict seed=37 "
      "commits=6 slots=6 shards=2 point=0 tear=4/4 rcrash=-1 "
      "file=s0/seg-1 off=300 mask=64",
      "TDB-REPRO v1 layer=objshard kind=crash preset=strict seed=37 "
      "commits=6 slots=6 shards=2 point=7 tear=2/4 rcrash=-1",
      "TDB-REPRO v1 layer=objshard kind=tamper preset=strict seed=37 "
      "commits=6 slots=6 shards=2 file=s1/seg-1 off=300 mask=64",
      "TDB-REPRO v1 layer=ycsb kind=crash preset=strict seed=4 commits=4 "
      "slots=6 point=1 tear=2/4 rcrash=-1",
      "TDB-REPRO v1 layer=ycsb kind=tamper preset=strict seed=0 commits=4 "
      "slots=6 file=seg-1 off=300 mask=64",
      "TDB-REPRO v1 layer=timeseries kind=crash preset=codec seed=2 "
      "commits=4 slots=6 point=3 tear=2/4 rcrash=-1",
      "TDB-REPRO v1 layer=timeseries kind=tamper preset=strict seed=2 "
      "commits=4 slots=6 file=seg-1 off=300 mask=64",
      "TDB-REPRO v1 layer=largeobject kind=crash preset=group seed=2 "
      "commits=4 slots=6 point=2 tear=4/4 rcrash=-1",
      "TDB-REPRO v1 layer=largeobject kind=tamper preset=codec seed=2 "
      "commits=4 slots=6 file=seg-1 off=300 mask=64",
  };
  for (const char* line : kLines) {
    Result<ReproCase> parsed = ParseRepro(line);
    ASSERT_TRUE(parsed.ok()) << line;
    EXPECT_EQ(FormatRepro(parsed.value()), line);
    Status status = ReplayRepro(line);
    EXPECT_TRUE(status.ok()) << status.ToString();
  }
}

// ---------------------------------------------------------------------------
// Region classifier sanity on a real image.

TEST(RegionMapTest, ClassifiesWholeImage) {
  // Build a real store image via the tamper-context path: run a trace
  // cleanly, then classify the resulting files.
  TraceSpec spec = TamperSpec();
  Result<uint64_t> writes = CountWrites({"chunk", spec});
  ASSERT_TRUE(writes.ok());

  // A tamper case on a fixed site exercises classify + evaluate.
  ReproCase repro;
  repro.kind = "tamper";
  repro.spec = spec;
  repro.tamper_file = "anchor-0";
  repro.tamper_mask = kTamperMask;
  Status status = RunCase(repro);
  EXPECT_TRUE(status.ok()) << status.ToString();
}

}  // namespace
}  // namespace tdb::harness
