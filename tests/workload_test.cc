// Workload diversity suite: deterministic small-scale runs of every YCSB
// mix, the time-series retention scenario, and streaming large objects —
// each checked against a commit-hook oracle, re-checked after a clean
// reopen (compression on and off), and driven through the crash/tamper
// harness (sharded exhaustive sweeps with the zero-silent-acceptance and
// audit-trail contracts).

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <tuple>
#include <vector>

#include "chunk/chunk_store.h"
#include "common/check.h"
#include "common/random.h"
#include "crypto/cipher_suite.h"
#include "harness/engine.h"
#include "harness/region_map.h"
#include "platform/mem_store.h"
#include "platform/one_way_counter.h"
#include "platform/secret_store.h"
#include "workload/key_chooser.h"
#include "workload/large_objects.h"
#include "workload/timeseries.h"
#include "workload/ycsb.h"

namespace tdb::workload {
namespace {

using harness::SweepStats;
using harness::TraceSpec;

// --- Key choosers ----------------------------------------------------------

TEST(KeyChooserTest, ZipfianStaysInRangeAndIsDeterministic) {
  ZipfianChooser zipf(100);
  Random rng1(42), rng2(42);
  ZipfianChooser zipf2(100);
  for (int i = 0; i < 2000; i++) {
    uint64_t a = zipf.Next(&rng1);
    uint64_t b = zipf2.Next(&rng2);
    ASSERT_LT(a, 100u);
    ASSERT_EQ(a, b);
  }
}

TEST(KeyChooserTest, ZipfianIsSkewedTowardSmallRanks) {
  ZipfianChooser zipf(1000);
  Random rng(7);
  uint64_t zero_hits = 0;
  const int kDraws = 20000;
  for (int i = 0; i < kDraws; i++) {
    if (zipf.Next(&rng) == 0) zero_hits++;
  }
  // Rank 0 carries ~zeta-share of the mass (theta=0.99 over n=1000:
  // roughly 13%); a uniform chooser would give 0.1%. Assert a wide gap.
  EXPECT_GT(zero_hits, kDraws / 20);
}

TEST(KeyChooserTest, ScrambledZipfianSpreadsHotKeys) {
  ScrambledZipfianChooser scrambled(1000);
  Random rng(7);
  std::map<uint64_t, int> counts;
  for (int i = 0; i < 20000; i++) {
    uint64_t key = scrambled.Next(&rng);
    ASSERT_LT(key, 1000u);
    counts[key]++;
  }
  // Still skewed (some key is hot) but the hottest key is no longer 0 in
  // general — the FNV scramble maps rank 0 elsewhere.
  auto hottest =
      std::max_element(counts.begin(), counts.end(),
                       [](auto& a, auto& b) { return a.second < b.second; });
  EXPECT_GT(hottest->second, 20000 / 100);
  EXPECT_EQ(hottest->first, FnvHash64(0) % 1000);
}

TEST(KeyChooserTest, LatestFavorsNewestAndGrows) {
  LatestChooser latest(100);
  Random rng(9);
  uint64_t newest_half = 0;
  for (int i = 0; i < 5000; i++) {
    uint64_t key = latest.Next(&rng, 100);
    ASSERT_LT(key, 100u);
    if (key >= 50) newest_half++;
  }
  EXPECT_GT(newest_half, 5000u * 3 / 5);  // Heavily biased to recent keys.
  latest.Grow(200);
  for (int i = 0; i < 100; i++) ASSERT_LT(latest.Next(&rng, 200), 200u);
}

TEST(KeyChooserTest, ZipfianGrowIsIncremental) {
  ZipfianChooser grown(10);
  grown.Grow(500);
  ZipfianChooser fresh(500);
  Random rng1(3), rng2(3);
  for (int i = 0; i < 200; i++) {
    ASSERT_EQ(grown.Next(&rng1), fresh.Next(&rng2));
  }
}

// --- Shared fixtures -------------------------------------------------------

/// Applies acked commits to a reference model (the test-side oracle).
class ModelHook final : public CommitHook {
 public:
  void BeginCommit() override { pending_.clear(); }
  void PendingWrite(uint64_t id, Buffer image) override {
    pending_.emplace_back(id, std::move(image), false);
  }
  void PendingRemove(uint64_t id) override {
    pending_.emplace_back(id, Buffer{}, true);
  }
  void EndCommit(bool acked, bool /*durable*/) override {
    if (acked) {
      for (auto& [id, image, removed] : pending_) {
        if (removed) {
          model_.erase(id);
        } else {
          model_[id] = std::move(image);
        }
      }
    }
    pending_.clear();
  }

  const std::map<uint64_t, Buffer>& model() const { return model_; }

 private:
  std::vector<std::tuple<uint64_t, Buffer, bool>> pending_;
  std::map<uint64_t, Buffer> model_;
};

struct Env {
  platform::MemUntrustedStore store;
  platform::MemSecretStore secrets;
  platform::MemOneWayCounter counter;
  std::unique_ptr<chunk::ChunkStore> chunks;
  std::unique_ptr<object::ObjectStore> objects;
  std::unique_ptr<collection::CollectionStore> collections;
  bool compression;

  explicit Env(bool compress = false) : compression(compress) {
    TDB_CHECK(secrets.Provision(Slice("workload-test-secret")).ok());
    OpenAll();
  }

  void OpenAll() {
    collections.reset();
    objects.reset();
    chunks.reset();
    chunk::ChunkStoreOptions copts;
    copts.security = crypto::SecurityConfig::Modern();
    copts.segment_size = 8 * 1024;
    copts.map_fanout = 8;
    copts.compression = compression;
    chunks =
        std::move(chunk::ChunkStore::Open(&store, &secrets, &counter, copts))
            .value();
    auto os = object::ObjectStore::Open(chunks.get());
    TDB_CHECK(os.ok(), os.status().ToString());
    objects = std::move(os).value();
    TDB_CHECK(RegisterYcsbClasses(objects.get()).ok());
    TDB_CHECK(RegisterTimeSeriesClasses(objects.get()).ok());
    TDB_CHECK(RegisterLargeObjectWorkloadClasses(objects.get()).ok());
    auto cs = collection::CollectionStore::Open(objects.get());
    TDB_CHECK(cs.ok(), cs.status().ToString());
    collections = std::move(cs).value();
  }

  void Restart() {
    TDB_CHECK(chunks->Close().ok());
    OpenAll();
  }
};

// --- YCSB mixes ------------------------------------------------------------

/// (mix index, compression) — every mix runs with the codec off and on.
class YcsbMixTest
    : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(YcsbMixTest, DeterministicRunMatchesOracleAndSurvivesReopen) {
  const Mix mix = MixFromIndex(std::get<0>(GetParam()));
  Env env(std::get<1>(GetParam()));

  YcsbSpec spec;
  spec.mix = mix;
  spec.records = 20;
  spec.ops = 60;
  spec.value_bytes = 48;
  spec.seed = 11 + std::get<0>(GetParam());

  ModelHook hook;
  auto opened = YcsbDriver::Open(env.objects.get(), env.collections.get(),
                                 spec, /*create=*/true, &hook);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  std::unique_ptr<YcsbDriver> driver = std::move(opened).value();
  ASSERT_EQ(driver->live_records(), spec.records);

  Status run = driver->Run(/*stream=*/0, &hook);
  ASSERT_TRUE(run.ok()) << run.ToString();

  // Final state must match the hook-applied model exactly.
  std::map<uint64_t, Buffer> state;
  Status scanned = driver->Scan(&state);
  ASSERT_TRUE(scanned.ok()) << scanned.ToString();
  EXPECT_EQ(state, hook.model()) << "mix " << MixName(mix);

  // A clean close + reopen recovers the identical table.
  driver.reset();
  env.Restart();
  auto reopened = YcsbDriver::Open(env.objects.get(), env.collections.get(),
                                   spec, /*create=*/false);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  std::map<uint64_t, Buffer> recovered;
  scanned = reopened.value()->Scan(&recovered);
  ASSERT_TRUE(scanned.ok()) << scanned.ToString();
  EXPECT_EQ(recovered, hook.model()) << "mix " << MixName(mix);
}

INSTANTIATE_TEST_SUITE_P(
    Mixes, YcsbMixTest,
    ::testing::Combine(::testing::Range(0, kMixCount),
                       ::testing::Bool()),
    [](const auto& info) {
      return std::string("Mix") +
             MixName(MixFromIndex(std::get<0>(info.param))) +
             (std::get<1>(info.param) ? "Codec" : "Raw");
    });

TEST(YcsbTest, RunsAreDeterministicAcrossDrivers) {
  YcsbSpec spec;
  spec.mix = Mix::kA;
  spec.records = 12;
  spec.ops = 30;
  spec.seed = 5;
  std::map<uint64_t, Buffer> first, second;
  for (int round = 0; round < 2; round++) {
    Env env;
    auto driver = YcsbDriver::Open(env.objects.get(), env.collections.get(),
                                   spec, true);
    ASSERT_TRUE(driver.ok());
    ASSERT_TRUE(driver.value()->Run(0).ok());
    ASSERT_TRUE(driver.value()->Scan(round == 0 ? &first : &second).ok());
  }
  EXPECT_EQ(first, second);
  EXPECT_FALSE(first.empty());
}

TEST(YcsbTest, InsertHeadroomExhaustionDegradesGracefully) {
  Env env;
  YcsbSpec spec;
  spec.mix = Mix::kD;  // 5% inserts, latest distribution.
  spec.records = 8;
  spec.ops = 120;
  spec.max_inserts = 2;  // Exhausts quickly; inserts degrade to reads.
  spec.seed = 3;
  auto driver = YcsbDriver::Open(env.objects.get(), env.collections.get(),
                                 spec, true);
  ASSERT_TRUE(driver.ok());
  ASSERT_TRUE(driver.value()->Run(0).ok()) << "degraded inserts must not fail";
  EXPECT_LE(driver.value()->live_records(), 10u);
}

// --- Time series -----------------------------------------------------------

class TimeSeriesTest : public ::testing::TestWithParam<bool> {};

TEST_P(TimeSeriesTest, RetentionRunMatchesOracleAndSurvivesReopen) {
  Env env(GetParam());
  TimeSeriesSpec spec;
  spec.seed = 21;
  spec.batches = 24;
  spec.points_per_batch = 6;
  spec.retention_window = 300;  // 30 points; forces several retentions.
  spec.retention_every = 3;

  ModelHook hook;
  auto opened = TimeSeriesDriver::Open(env.collections.get(), spec, true);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  std::unique_ptr<TimeSeriesDriver> driver = std::move(opened).value();
  Status run = driver->Run(&hook);
  ASSERT_TRUE(run.ok()) << run.ToString();

  EXPECT_EQ(driver->points_appended(), 24u * 6u);
  EXPECT_GT(driver->points_deleted(), 0u) << "retention never fired";
  EXPECT_LT(driver->model_size(), driver->points_appended());

  std::map<uint64_t, Buffer> state;
  ASSERT_TRUE(driver->ScanAll(&state).ok());
  EXPECT_EQ(state, hook.model());
  EXPECT_EQ(state.size(), driver->model_size());

  driver.reset();
  env.Restart();
  auto reopened = TimeSeriesDriver::Open(env.collections.get(), spec, false);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  std::map<uint64_t, Buffer> recovered;
  ASSERT_TRUE(reopened.value()->ScanAll(&recovered).ok());
  EXPECT_EQ(recovered, hook.model());
}

INSTANTIATE_TEST_SUITE_P(Codec, TimeSeriesTest, ::testing::Bool(),
                         [](const auto& info) {
                           return info.param ? std::string("On")
                                             : std::string("Off");
                         });

// --- Large objects ---------------------------------------------------------

class LargeObjectScenarioTest : public ::testing::TestWithParam<bool> {};

TEST_P(LargeObjectScenarioTest, StreamedRunMatchesOracleAndSurvivesReopen) {
  Env env(GetParam());
  LargeObjectSpec spec;
  spec.seed = 31;
  spec.ops = 16;
  spec.part_bytes = 128;
  spec.max_parts = 4;

  ModelHook hook;
  auto opened = LargeObjectDriver::Open(env.objects.get(), spec, true);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  std::unique_ptr<LargeObjectDriver> driver = std::move(opened).value();
  Status run = driver->Run(&hook);
  ASSERT_TRUE(run.ok()) << run.ToString();
  EXPECT_GT(driver->bytes_written(), 0u);

  std::map<uint64_t, Buffer> state;
  ASSERT_TRUE(driver->ScanAll(&state).ok());
  EXPECT_EQ(state, hook.model());

  driver.reset();
  env.Restart();
  auto reopened = LargeObjectDriver::Open(env.objects.get(), spec, false);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  std::map<uint64_t, Buffer> recovered;
  ASSERT_TRUE(reopened.value()->ScanAll(&recovered).ok());
  EXPECT_EQ(recovered, hook.model());
}

INSTANTIATE_TEST_SUITE_P(Codec, LargeObjectScenarioTest, ::testing::Bool(),
                         [](const auto& info) {
                           return info.param ? std::string("On")
                                             : std::string("Off");
                         });

// --- Repro grammar ---------------------------------------------------------

TEST(WorkloadReproTest, ScenarioLinesRoundTrip) {
  for (const char* layer : {"ycsb", "timeseries", "largeobject"}) {
    harness::ReproCase repro;
    repro.layer = layer;
    repro.kind = "crash";
    repro.spec.seed = 9;
    repro.spec.commits = 5;
    repro.spec.slots = 7;
    repro.crash.write_index = 13;
    repro.crash.tear_num = 2;
    std::string line = harness::FormatRepro(repro);
    auto parsed = harness::ParseRepro(line);
    ASSERT_TRUE(parsed.ok()) << line;
    EXPECT_EQ(parsed.value().layer, repro.layer);
    EXPECT_EQ(harness::FormatRepro(parsed.value()), line);
  }
}

TEST(WorkloadReproTest, ReplayRunsAPassingScenarioCase) {
  // A crash index far beyond the trace: the scenario completes, the crash
  // tears the destructor's best-effort shutdown, and recovery must match.
  Status replayed = harness::ReplayRepro(
      "TDB-REPRO v1 layer=largeobject kind=crash preset=strict seed=2 "
      "commits=3 slots=4 point=40 tear=2/4 rcrash=-1");
  EXPECT_TRUE(replayed.ok()) << replayed.ToString();
}

// --- Harness campaigns -----------------------------------------------------

constexpr int kShards = 4;

uint64_t ShardShare(uint64_t total, int shard, int num_shards) {
  return total / num_shards +
         (total % static_cast<uint64_t>(num_shards) >
                  static_cast<uint64_t>(shard)
              ? 1
              : 0);
}

TraceSpec SweepSpec(uint64_t seed, harness::Preset preset) {
  TraceSpec spec;
  spec.seed = seed;
  spec.commits = 4;
  spec.slots = 6;
  spec.preset = preset;
  return spec;
}

struct SweepCase {
  const char* layer;
  uint64_t seed;  // For ycsb, seed % 6 picks the mix.
  harness::Preset preset;
};

/// Crash sweeps: seed 0 -> mix A (object store), seed 4 -> mix E (B-tree
/// collection), so both YCSB substrates are swept; the time-series case
/// runs under the compression codec, so its crash windows are covered too.
class WorkloadCrashSweepTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

constexpr SweepCase kCrashCases[] = {
    {"ycsb", 0, harness::Preset::kStrict},
    {"ycsb", 4, harness::Preset::kStrict},
    {"timeseries", 2, harness::Preset::kCodec},
    {"largeobject", 2, harness::Preset::kStrict},
};

TEST_P(WorkloadCrashSweepTest, Exhaustive) {
  const SweepCase& c = kCrashCases[std::get<0>(GetParam())];
  const int shard = std::get<1>(GetParam());
  TraceSpec spec = SweepSpec(c.seed, c.preset);
  SweepStats stats;
  Status status = harness::CrashSweep({c.layer, spec}, shard, kShards, &stats);
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_GT(stats.write_points, 0u);
  EXPECT_EQ(stats.cases,
            ShardShare(stats.write_points * stats.tear_buckets, shard,
                       kShards));
  harness::PrintCoverage(std::string("workload-crash-") + c.layer + "-seed" +
                             std::to_string(c.seed),
                         shard, kShards, stats);
}

INSTANTIATE_TEST_SUITE_P(
    Shards, WorkloadCrashSweepTest,
    ::testing::Combine(::testing::Range(0, 4), ::testing::Range(0, kShards)),
    [](const auto& info) {
      const SweepCase& c = kCrashCases[std::get<0>(info.param)];
      return std::string(c.layer) + "Seed" + std::to_string(c.seed) +
             "Shard" + std::to_string(std::get<1>(info.param));
    });

/// Tamper sweeps: every region class of every scenario image, first /
/// middle / last byte of each region, with the audit contract enforced by
/// the sweep itself (zero silent acceptances, exactly one deduplicated
/// audit event per detection, none for masked or crash-normal cases).
class WorkloadTamperSweepTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

constexpr SweepCase kTamperCases[] = {
    {"ycsb", 0, harness::Preset::kStrict},
    {"timeseries", 2, harness::Preset::kStrict},
    {"largeobject", 2, harness::Preset::kCodec},
};

TEST_P(WorkloadTamperSweepTest, EveryRegionClass) {
  const SweepCase& c = kTamperCases[std::get<0>(GetParam())];
  const int shard = std::get<1>(GetParam());
  TraceSpec spec = SweepSpec(c.seed, c.preset);
  SweepStats stats;
  Status status = harness::TamperSweep({c.layer, spec}, shard, kShards, &stats);
  EXPECT_TRUE(status.ok()) << status.ToString();
  // Full-campaign coverage: the image of every scenario contains all four
  // structural region classes.
  for (int cls = 0; cls < harness::kRegionClasses; cls++) {
    EXPECT_GT(stats.sites_per_class[cls], 0u)
        << "region class " << cls << " absent from the " << c.layer
        << " image";
  }
  EXPECT_EQ(stats.detected + stats.masked, stats.cases);
  EXPECT_GT(stats.detected, 0u);
  // Every detection logged exactly one deduplicated audit event; masked
  // cases logged none (already enforced case-by-case; cross-check totals).
  EXPECT_EQ(stats.audit_events, stats.detected);
  EXPECT_EQ(stats.recorder_bundles, stats.detected);
  harness::PrintCoverage(std::string("workload-tamper-") + c.layer, shard,
                         kShards, stats);
}

INSTANTIATE_TEST_SUITE_P(
    Shards, WorkloadTamperSweepTest,
    ::testing::Combine(::testing::Range(0, 3), ::testing::Range(0, kShards)),
    [](const auto& info) {
      const SweepCase& c = kTamperCases[std::get<0>(info.param)];
      return std::string(c.layer) + "Shard" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace tdb::workload
