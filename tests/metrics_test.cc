// Tests for the metrics/tracing layer: wait-free instruments under
// multi-threaded fire (run under TSan in check.sh --tsan), histogram
// bucket boundaries, snapshot merge + JSON round-trip, the audit log's
// dedup/bounded semantics, trace rings, the instruments' end-to-end
// wiring through the object store's lock manager, and the per-layer
// statistic lists against the registry (field values and name set).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <iterator>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "chunk_test_env.h"
#include "common/metrics.h"
#include "common/random.h"
#include "common/trace.h"
#include "object/object_store.h"
#include "platform/mem_store.h"
#include "platform/one_way_counter.h"
#include "platform/secret_store.h"
#include "shard/sharded_chunk_store.h"

namespace tdb {
namespace {

// ---------------------------------------------------------------------------
// Counter / Gauge

TEST(CounterTest, ConcurrentIncrementsAndReaders) {
  common::Counter counter;
  constexpr int kThreads = 8;
  constexpr int kIncrements = 20000;
  std::atomic<bool> stop{false};

  // Concurrent reader: value() must be safe (and monotone here, since all
  // deltas are positive) while writers hammer the stripes.
  std::thread reader([&] {
    int64_t last = 0;
    while (!stop.load()) {
      int64_t now = counter.value();
      EXPECT_GE(now, last);
      last = now;
    }
  });

  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; t++) {
    writers.emplace_back([&] {
      for (int i = 0; i < kIncrements; i++) counter.Increment();
    });
  }
  for (auto& th : writers) th.join();
  stop.store(true);
  reader.join();

  EXPECT_EQ(counter.value(), int64_t{kThreads} * kIncrements);
}

TEST(CounterTest, NegativeDeltas) {
  common::Counter counter;
  counter.Add(10);
  counter.Add(-4);
  EXPECT_EQ(counter.value(), 6);
}

TEST(GaugeTest, SetAddSetMax) {
  common::Gauge gauge;
  gauge.Set(5);
  gauge.Add(3);
  EXPECT_EQ(gauge.value(), 8);
  gauge.SetMax(6);  // Lower: no effect.
  EXPECT_EQ(gauge.value(), 8);
  gauge.SetMax(20);
  EXPECT_EQ(gauge.value(), 20);
}

// ---------------------------------------------------------------------------
// Histogram

TEST(HistogramTest, BucketBoundaries) {
  // Bucket b holds [2^b, 2^(b+1) - 1]; bucket 0 additionally absorbs <= 0.
  common::Histogram hist;
  hist.Record(-5);
  hist.Record(0);
  hist.Record(1);  // All three land in bucket 0.
  hist.Record(2);
  hist.Record(3);  // Bucket 1.
  hist.Record(4);
  hist.Record(7);  // Bucket 2.
  hist.Record(1024);  // Bucket 10 lower edge.
  hist.Record(2047);  // Bucket 10 upper edge.
  hist.Record(2048);  // Bucket 11.

  common::HistogramData data = hist.Data();
  EXPECT_EQ(data.count, 10u);
  EXPECT_EQ(data.buckets[0], 3u);
  EXPECT_EQ(data.buckets[1], 2u);
  EXPECT_EQ(data.buckets[2], 2u);
  EXPECT_EQ(data.buckets[10], 2u);
  EXPECT_EQ(data.buckets[11], 1u);
  EXPECT_EQ(data.max, 2048);
  EXPECT_EQ(data.sum, -5 + 0 + 1 + 2 + 3 + 4 + 7 + 1024 + 2047 + 2048);
}

TEST(HistogramTest, PercentileUpperEdgeClampedToMax) {
  common::Histogram hist;
  for (int i = 0; i < 99; i++) hist.Record(10);  // Bucket 3: [8, 15].
  hist.Record(300);  // Bucket 8: [256, 511].

  common::HistogramData data = hist.Data();
  // p50 reports bucket 3's upper edge.
  EXPECT_EQ(data.Percentile(0.50), 15);
  // p100 falls in the top occupied bucket, whose upper edge (511) is
  // clamped to the observed max.
  EXPECT_EQ(data.Percentile(1.0), 300);
  EXPECT_EQ(data.max, 300);
}

TEST(HistogramTest, EmptyPercentileIsZero) {
  common::Histogram hist;
  EXPECT_EQ(hist.Data().Percentile(0.5), 0);
  EXPECT_EQ(hist.Data().mean(), 0.0);
}

TEST(HistogramTest, SingleSampleEveryPercentileIsTheSample) {
  common::Histogram hist;
  hist.Record(100);  // Bucket 6: [64, 127]; upper edge clamps to max=100.
  common::HistogramData data = hist.Data();
  EXPECT_EQ(data.Percentile(0.0), 100);
  EXPECT_EQ(data.Percentile(0.5), 100);
  EXPECT_EQ(data.Percentile(0.99), 100);
  EXPECT_EQ(data.Percentile(1.0), 100);
}

TEST(HistogramTest, AllSamplesInTopBucketReportMax) {
  // Values at or beyond 2^62 land in the final bucket, whose upper edge
  // would overflow 2^63-1 — Percentile must report the observed max, not a
  // wrapped or saturated edge.
  common::Histogram hist;
  const int64_t huge = (int64_t{1} << 62) + 5;
  hist.Record(huge);
  hist.Record(huge + 1);
  hist.Record(huge + 2);
  common::HistogramData data = hist.Data();
  EXPECT_EQ(data.count, 3u);
  EXPECT_EQ(data.Percentile(0.01), huge + 2);
  EXPECT_EQ(data.Percentile(0.5), huge + 2);
  EXPECT_EQ(data.Percentile(1.0), huge + 2);
  EXPECT_EQ(data.max, huge + 2);
}

TEST(HistogramTest, ConcurrentRecordersAndReaders) {
  common::Histogram hist;
  constexpr int kThreads = 8;
  constexpr int kRecords = 10000;
  std::atomic<bool> stop{false};

  std::thread reader([&] {
    while (!stop.load()) {
      common::HistogramData data = hist.Data();
      // Data() reads relaxed atomics field-by-field; totals must never
      // exceed the final tally even mid-flight.
      EXPECT_LE(data.count, uint64_t{kThreads} * kRecords);
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; t++) {
    writers.emplace_back([&, t] {
      for (int i = 0; i < kRecords; i++) hist.Record(t * 100 + i % 1000);
    });
  }
  for (auto& th : writers) th.join();
  stop.store(true);
  reader.join();

  EXPECT_EQ(hist.Data().count, uint64_t{kThreads} * kRecords);
}

// ---------------------------------------------------------------------------
// Registry

TEST(MetricsRegistryTest, GetIsIdempotentAndStable) {
  common::MetricsRegistry registry;
  common::Counter* a = registry.GetCounter("x");
  common::Counter* b = registry.GetCounter("x");
  EXPECT_EQ(a, b);
  EXPECT_NE(registry.GetCounter("y"), a);
  // Same name in different instrument families is distinct storage.
  EXPECT_NE(static_cast<void*>(registry.GetGauge("x")),
            static_cast<void*>(a));
}

TEST(MetricsRegistryTest, EightThreadStressWithSnapshotReaders) {
  common::MetricsRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kOps = 5000;
  std::atomic<bool> stop{false};

  // Two concurrent snapshotters while registration and recording race.
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; r++) {
    readers.emplace_back([&] {
      while (!stop.load()) {
        common::MetricsSnapshot snap = registry.Snapshot();
        for (const auto& [name, value] : snap.counters) {
          EXPECT_FALSE(name.empty());
          EXPECT_GE(value, 0);
        }
      }
    });
  }

  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; t++) {
    writers.emplace_back([&, t] {
      // Half shared names (contend on the same instruments), half private.
      common::Counter* shared = registry.GetCounter("stress.shared");
      common::Counter* mine =
          registry.GetCounter("stress.t" + std::to_string(t));
      common::Histogram* hist = registry.GetHistogram("stress.latency");
      for (int i = 0; i < kOps; i++) {
        shared->Increment();
        mine->Increment();
        hist->Record(i % 512);
        registry.GetGauge("stress.gauge")->SetMax(i);
      }
    });
  }
  for (auto& th : writers) th.join();
  stop.store(true);
  for (auto& th : readers) th.join();

  common::MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.counters["stress.shared"], kThreads * kOps);
  for (int t = 0; t < kThreads; t++) {
    EXPECT_EQ(snap.counters["stress.t" + std::to_string(t)], kOps);
  }
  EXPECT_EQ(snap.histograms["stress.latency"].count,
            uint64_t{kThreads} * kOps);
  EXPECT_EQ(snap.gauges["stress.gauge"], kOps - 1);
}

TEST(MetricsRegistryTest, TimingKnobGatesScopedTimer) {
  common::MetricsRegistry registry;
  common::Histogram* hist = registry.GetHistogram("h");
  registry.set_timing_enabled(false);
  { common::ScopedTimer timer(&registry, hist); }
  EXPECT_EQ(hist->count(), 0u);
  registry.set_timing_enabled(true);
  { common::ScopedTimer timer(&registry, hist); }
  EXPECT_EQ(hist->count(), 1u);
  // Null histogram is a no-op regardless.
  { common::ScopedTimer timer(&registry, nullptr); }
}

TEST(MetricsRegistryTest, FakeClockMakesTimersDeterministic) {
  static uint64_t fake_now;
  fake_now = 1000;
  common::SetMonotonicClockForTesting(+[] { return fake_now; });
  common::MetricsRegistry registry;
  common::Histogram* hist = registry.GetHistogram("h");
  {
    common::ScopedTimer timer(&registry, hist);
    fake_now += 100;
  }
  common::SetMonotonicClockForTesting(nullptr);
  common::HistogramData data = hist->Data();
  ASSERT_EQ(data.count, 1u);
  EXPECT_EQ(data.sum, 100);
  EXPECT_EQ(data.max, 100);
}

// ---------------------------------------------------------------------------
// Audit log

TEST(AuditLogTest, DeduplicatesByKindAndLocation) {
  common::AuditLog audit(16);
  audit.Record("hash_mismatch", common::kRegionPayload, "seg 1 off 10",
               "first");
  audit.Record("hash_mismatch", common::kRegionPayload, "seg 1 off 10",
               "second detection of the same damage");
  audit.Record("hash_mismatch", common::kRegionPayload, "seg 2 off 10",
               "different location");
  audit.Record("decrypt_failure", common::kRegionPayload, "seg 1 off 10",
               "different kind, same location");

  EXPECT_EQ(audit.size(), 3u);
  EXPECT_EQ(audit.total(), 4u);
  std::vector<common::AuditEvent> events = audit.Events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].kind, "hash_mismatch");
  EXPECT_EQ(events[0].count, 2u);
  // The first occurrence's message is retained.
  EXPECT_EQ(events[0].message, "first");
  EXPECT_EQ(events[0].first_seq, 0u);
  EXPECT_EQ(events[1].first_seq, 1u);
}

TEST(AuditLogTest, BoundedCapacityCountsDropped) {
  common::AuditLog audit(2);
  audit.Record("a", 0, "loc1", "");
  audit.Record("b", 0, "loc2", "");
  audit.Record("c", 0, "loc3", "");  // Over capacity: dropped.
  audit.Record("a", 0, "loc1", "");  // Dedup into retained entry: kept.
  EXPECT_EQ(audit.size(), 2u);
  EXPECT_EQ(audit.dropped(), 1u);
  EXPECT_EQ(audit.total(), 4u);
  audit.Clear();
  EXPECT_EQ(audit.size(), 0u);
  EXPECT_EQ(audit.total(), 0u);
}

TEST(AuditLogTest, ConcurrentRecorders) {
  common::AuditLog audit(64);
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; t++) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 500; i++) {
        audit.Record("kind", 0, "loc" + std::to_string(t), "m");
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(audit.size(), 8u);
  EXPECT_EQ(audit.total(), 8u * 500u);
}

// ---------------------------------------------------------------------------
// Snapshot merge + JSON round-trip

TEST(MetricsSnapshotTest, MergeSumsAndRededuplicates) {
  common::MetricsRegistry a, b;
  a.GetCounter("c")->Add(3);
  b.GetCounter("c")->Add(4);
  b.GetCounter("only_b")->Add(1);
  a.GetGauge("g")->Set(10);
  b.GetGauge("g")->Set(5);
  a.GetHistogram("h")->Record(100);
  b.GetHistogram("h")->Record(5000);
  a.audit().Record("replay", common::kRegionLog, "log", "msg");
  b.audit().Record("replay", common::kRegionLog, "log", "msg");
  b.audit().Record("torn_anchor", common::kRegionAnchor, "anchor", "msg");

  common::MetricsSnapshot merged = a.Snapshot();
  merged.Merge(b.Snapshot());

  EXPECT_EQ(merged.counters["c"], 7);
  EXPECT_EQ(merged.counters["only_b"], 1);
  EXPECT_EQ(merged.gauges["g"], 15);  // Gauges sum on merge.
  EXPECT_EQ(merged.histograms["h"].count, 2u);
  EXPECT_EQ(merged.histograms["h"].max, 5000);
  ASSERT_EQ(merged.audit.size(), 2u);
  EXPECT_EQ(merged.audit_total, 3u);
  for (const common::AuditEvent& ev : merged.audit) {
    if (ev.kind == "replay") {
      EXPECT_EQ(ev.count, 2u);
    }
  }
}

TEST(MetricsSnapshotTest, JsonRoundTrip) {
  common::MetricsRegistry registry;
  registry.GetCounter("chunk.commits")->Add(42);
  registry.GetGauge("chunk.segments")->Set(7);
  common::Histogram* hist = registry.GetHistogram("chunk.sync.latency_us");
  hist->Record(1);
  hist->Record(900);
  hist->Record(33000);
  registry.audit().Record("hash_mismatch", common::kRegionPayload,
                          "seg 3 off 128", "record hash does not match");
  registry.audit().Record("hash_mismatch", common::kRegionPayload,
                          "seg 3 off 128", "again");

  common::MetricsSnapshot snap = registry.Snapshot();
  auto parsed = common::MetricsSnapshot::FromJson(snap.ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();

  EXPECT_EQ(parsed->counters, snap.counters);
  EXPECT_EQ(parsed->gauges, snap.gauges);
  ASSERT_EQ(parsed->histograms.size(), snap.histograms.size());
  const common::HistogramData& h = parsed->histograms["chunk.sync.latency_us"];
  EXPECT_EQ(h.count, 3u);
  EXPECT_EQ(h.sum, 1 + 900 + 33000);
  EXPECT_EQ(h.max, 33000);
  EXPECT_EQ(h.buckets, snap.histograms["chunk.sync.latency_us"].buckets);
  ASSERT_EQ(parsed->audit.size(), 1u);
  EXPECT_EQ(parsed->audit[0].kind, "hash_mismatch");
  EXPECT_EQ(parsed->audit[0].region, common::kRegionPayload);
  EXPECT_EQ(parsed->audit[0].location, "seg 3 off 128");
  EXPECT_EQ(parsed->audit[0].count, 2u);
  EXPECT_EQ(parsed->audit_total, 2u);
}

TEST(MetricsSnapshotTest, FromJsonRejectsGarbage) {
  EXPECT_FALSE(common::MetricsSnapshot::FromJson("").ok());
  EXPECT_FALSE(common::MetricsSnapshot::FromJson("{\"counters\":{").ok());
  EXPECT_FALSE(common::MetricsSnapshot::FromJson("[1,2,3]").ok());
  // Integer overflow (would wrap to a plausible-looking counter).
  EXPECT_FALSE(common::MetricsSnapshot::FromJson(
                   "{\"counters\":{\"x\":99999999999999999999999}}")
                   .ok());
  EXPECT_FALSE(common::MetricsSnapshot::FromJson(
                   "{\"audit\":[{\"kind\":\"k\",\"region\":4294967298}]}")
                   .ok());
  // Trailing bytes after the document: a second document, or garbage.
  const std::string doc = common::MetricsSnapshot().ToJson();
  EXPECT_TRUE(common::MetricsSnapshot::FromJson(doc).ok());
  EXPECT_FALSE(common::MetricsSnapshot::FromJson(doc + doc).ok());
  EXPECT_FALSE(common::MetricsSnapshot::FromJson("{} x").ok());
  // Bad literals and malformed numbers.
  EXPECT_FALSE(common::MetricsSnapshot::FromJson("{\"x\":tru}").ok());
  EXPECT_FALSE(common::MetricsSnapshot::FromJson("{\"x\":nul}").ok());
  EXPECT_FALSE(common::MetricsSnapshot::FromJson("{\"x\":truest}").ok());
  EXPECT_FALSE(
      common::MetricsSnapshot::FromJson("{\"counters\":{\"x\":1.}}").ok());
  EXPECT_FALSE(
      common::MetricsSnapshot::FromJson("{\"counters\":{\"x\":1e-}}").ok());
  EXPECT_FALSE(
      common::MetricsSnapshot::FromJson("{\"counters\":{\"x\":01}}").ok());
  // Escapes the writer never emits and a reader must not guess at.
  EXPECT_FALSE(
      common::MetricsSnapshot::FromJson("{\"x\":\"\\uZZZZ\"}").ok());
  EXPECT_FALSE(common::MetricsSnapshot::FromJson("{\"x\":\"\\q\"}").ok());
  // Nesting is bounded: a deep unknown member is an error, not a stack
  // overflow.
  EXPECT_FALSE(common::MetricsSnapshot::FromJson(
                   "{\"x\":" + std::string(1 << 20, '[') + "}")
                   .ok());
}

// Fractional counters still truncate, and every escape the writer emits
// reads back to the same bytes.
TEST(MetricsSnapshotTest, FromJsonTruncatesFractionsAndUnescapes) {
  auto snap = common::MetricsSnapshot::FromJson(
      "{\"counters\":{\"a\":2.9,\"b\":-2.9,\"c\":1.5e3,\"d\":-0}}");
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  EXPECT_EQ(snap->counters["a"], 2);
  EXPECT_EQ(snap->counters["b"], -2);
  EXPECT_EQ(snap->counters["c"], 1500);
  EXPECT_EQ(snap->counters["d"], 0);

  common::MetricsSnapshot odd;
  odd.counters[std::string("q\"b\\n\nt\tr\r\x01\x1f") + "\xc3\xa9"] = 1;
  auto parsed = common::MetricsSnapshot::FromJson(odd.ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->counters, odd.counters);
}

// ---------------------------------------------------------------------------
// Trace rings

TEST(TraceTest, DisabledSpansRecordNothing) {
  common::SetTracingEnabled(false);
  (void)common::DrainTraceEvents();
  { common::TraceSpan span("test.span"); }
  EXPECT_TRUE(common::DrainTraceEvents().empty());
}

TEST(TraceTest, SpansDrainOldestFirstAndClear) {
  common::SetTracingEnabled(true);
  (void)common::DrainTraceEvents();
  {
    common::TraceSpan a("span.a");
    common::TraceSpan b("span.b");
  }
  std::vector<common::TraceEvent> events = common::DrainTraceEvents();
  common::SetTracingEnabled(false);
  ASSERT_EQ(events.size(), 2u);
  // Destruction order: b closes before a.
  EXPECT_STREQ(events[0].name, "span.b");
  EXPECT_STREQ(events[1].name, "span.a");
  EXPECT_TRUE(common::DrainTraceEvents().empty());
}

TEST(TraceTest, RingOverwritesOldestWhenFull) {
  common::SetTracingEnabled(true);
  (void)common::DrainTraceEvents();
  const size_t n = common::kTraceRingCapacity + 10;
  for (size_t i = 0; i < n; i++) {
    // Two literal spans: TraceName only binds string literals, so a
    // ternary over two char pointers deliberately does not compile.
    if (i < 10) {
      common::TraceSpan span("old");
    } else {
      common::TraceSpan span("new");
    }
  }
  std::vector<common::TraceEvent> events = common::DrainTraceEvents();
  uint64_t overwrites = common::TraceOverwrites();
  common::SetTracingEnabled(false);
  EXPECT_EQ(events.size(), common::kTraceRingCapacity);
  EXPECT_GE(overwrites, 10u);
  // The 10 "old" spans were overwritten.
  for (const common::TraceEvent& ev : events) {
    EXPECT_STREQ(ev.name, "new");
  }
}

// ---------------------------------------------------------------------------
// End-to-end wiring: lock-manager waits/timeouts through the object store
// (satellite: lock wait time + deadlock-avoidance aborts in stats).

class MetricsObject final : public object::Object {
 public:
  static constexpr object::ClassId kClassId = 777;
  MetricsObject() = default;
  explicit MetricsObject(uint64_t v) : value(v) {}
  object::ClassId class_id() const override { return kClassId; }
  void Pickle(object::Pickler* p) const override { p->PutUint64(value); }
  Status UnpickleFrom(object::Unpickler* u) override {
    return u->GetUint64(&value);
  }
  uint64_t value = 0;
};

struct ObjectStoreRig {
  platform::MemUntrustedStore files;
  platform::MemSecretStore secrets;
  platform::MemOneWayCounter counter;
  std::unique_ptr<chunk::ChunkStore> chunks;
  std::unique_ptr<object::ObjectStore> objects;

  explicit ObjectStoreRig(std::chrono::milliseconds lock_timeout) {
    EXPECT_TRUE(secrets.Provision(Slice("s")).ok());
    chunk::ChunkStoreOptions copts;
    copts.security = crypto::SecurityConfig::Modern();
    chunks = std::move(chunk::ChunkStore::Open(&files, &secrets, &counter,
                                               copts))
                 .value();
    object::ObjectStoreOptions oopts;
    oopts.lock_timeout = lock_timeout;
    objects =
        std::move(object::ObjectStore::Open(chunks.get(), oopts)).value();
    EXPECT_TRUE(objects->registry()
                    .Register<MetricsObject>(MetricsObject::kClassId)
                    .ok());
  }
};

TEST(ObjectStoreMetricsTest, LockWaitRecordedOnBlockedGrant) {
  ObjectStoreRig rig(std::chrono::milliseconds(2000));
  object::ObjectId oid;
  {
    object::Transaction txn(rig.objects.get());
    oid = txn.Insert(std::make_unique<MetricsObject>(1)).value();
    ASSERT_TRUE(txn.Commit(false).ok());
  }

  object::Transaction holder(rig.objects.get());
  ASSERT_TRUE(holder.OpenWritable<MetricsObject>(oid).ok());
  std::thread waiter([&] {
    object::Transaction txn(rig.objects.get());
    auto ref = txn.OpenWritable<MetricsObject>(oid);
    EXPECT_TRUE(ref.ok());  // Granted once the holder commits.
    EXPECT_TRUE(txn.Abort().ok());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  ASSERT_TRUE(holder.Commit(false).ok());
  waiter.join();

  object::ObjectStoreStats stats = rig.objects->Stats();
  EXPECT_EQ(stats.lock_waits, 1u);
  EXPECT_EQ(stats.lock_timeouts, 0u);
  EXPECT_EQ(stats.deadlock_aborts, 0u);
  common::MetricsSnapshot snap = rig.chunks->metrics()->Snapshot();
  EXPECT_EQ(snap.histograms["txn.lock_wait_us"].count, 1u);
  EXPECT_GT(snap.histograms["txn.lock_wait_us"].max, 0);
}

TEST(ObjectStoreMetricsTest, LockTimeoutCountsDeadlockAbort) {
  ObjectStoreRig rig(std::chrono::milliseconds(20));
  object::ObjectId oid;
  {
    object::Transaction txn(rig.objects.get());
    oid = txn.Insert(std::make_unique<MetricsObject>(1)).value();
    ASSERT_TRUE(txn.Commit(false).ok());
  }

  object::Transaction holder(rig.objects.get());
  ASSERT_TRUE(holder.OpenWritable<MetricsObject>(oid).ok());
  {
    object::Transaction loser(rig.objects.get());
    auto ref = loser.OpenWritable<MetricsObject>(oid);
    ASSERT_FALSE(ref.ok());
    EXPECT_TRUE(ref.status().IsLockTimeout());
    EXPECT_TRUE(loser.Abort().ok());
  }
  ASSERT_TRUE(holder.Commit(false).ok());

  object::ObjectStoreStats stats = rig.objects->Stats();
  EXPECT_EQ(stats.lock_waits, 1u);
  EXPECT_EQ(stats.lock_timeouts, 1u);
  // The abort after a timed-out wait is attributed to deadlock avoidance.
  EXPECT_EQ(stats.deadlock_aborts, 1u);
  EXPECT_EQ(stats.aborts, 1u);
}

TEST(ObjectStoreMetricsTest, TxnAndCacheCountersMove) {
  ObjectStoreRig rig(std::chrono::milliseconds(100));
  object::ObjectId oid;
  {
    object::Transaction txn(rig.objects.get());
    oid = txn.Insert(std::make_unique<MetricsObject>(7)).value();
    ASSERT_TRUE(txn.Commit(true).ok());
  }
  {
    object::Transaction txn(rig.objects.get());
    auto ref = txn.OpenReadonly<MetricsObject>(oid);
    ASSERT_TRUE(ref.ok());
    EXPECT_EQ(ref.value()->value, 7u);
    ASSERT_TRUE(txn.Commit(false).ok());
  }
  object::ObjectStoreStats stats = rig.objects->Stats();
  EXPECT_EQ(stats.txns_begun, 2u);
  EXPECT_EQ(stats.commits, 2u);
  EXPECT_EQ(stats.durable_commits, 1u);
  EXPECT_GT(stats.pickle_bytes, 0u);
  EXPECT_GT(stats.cache_hits, 0u);
  common::MetricsSnapshot snap = rig.chunks->metrics()->Snapshot();
  EXPECT_EQ(snap.counters["txn.begin"], 2);
  EXPECT_EQ(snap.histograms["txn.commit.latency_us"].count, 2u);
}

// ---------------------------------------------------------------------------
// The statistic lists (TDB_CHUNK_STORE_METRICS, TDB_OBJECT_STORE_METRICS,
// TDB_ROUTER_METRICS) against the registry. The field-to-name tables here
// are written out apart from those lists, so a list entry that binds a
// field to the wrong instrument fails the match tests.

template <typename Stats>
struct NamedField {
  uint64_t Stats::*field;
  const char* name;
};

using CS = chunk::ChunkStoreStats;
// Every ChunkStoreStats field but cache_evictions, the sum of its causes.
const NamedField<CS> kChunkStoreFields[] = {
    {&CS::live_bytes, "chunk.live_bytes"},
    {&CS::total_bytes, "chunk.total_bytes"},
    {&CS::segments, "chunk.segments"},
    {&CS::live_chunks, "chunk.live_chunks"},
    {&CS::commits, "chunk.commits"},
    {&CS::durable_commits, "chunk.durable_commits"},
    {&CS::checkpoints, "chunk.checkpoints"},
    {&CS::cleaned_segments, "chunk.cleaner.segments_cleaned"},
    {&CS::relocated_records, "chunk.cleaner.relocated_records"},
    {&CS::relocated_bytes, "chunk.cleaner.relocated_bytes"},
    {&CS::rerelocated_bytes, "chunk.cleaner.rerelocated_bytes"},
    {&CS::bytes_appended, "chunk.bytes_appended"},
    {&CS::data_bytes, "chunk.data_bytes"},
    {&CS::map_bytes, "chunk.map_bytes"},
    {&CS::commit_bytes, "chunk.commit_bytes"},
    {&CS::seal_bytes, "chunk.overhead.seal_bytes"},
    {&CS::pad_bytes, "chunk.overhead.pad_bytes"},
    {&CS::frame_bytes, "chunk.overhead.frame_bytes"},
    {&CS::entry_hash_bytes, "chunk.overhead.entry_hash_bytes"},
    {&CS::cache_hits, "chunk.cache.hits"},
    {&CS::cache_misses, "chunk.cache.misses"},
    {&CS::cache_bytes_used, "chunk.cache.bytes_used"},
    {&CS::cache_evictions_capacity, "chunk.cache.evictions.capacity"},
    {&CS::cache_evictions_dealloc, "chunk.cache.evictions.dealloc"},
    {&CS::cache_evictions_failed_commit,
     "chunk.cache.evictions.failed_commit"},
    {&CS::cache_evictions_relocation, "chunk.cache.evictions.relocation"},
    {&CS::sealed_bytes, "chunk.sealed_bytes"},
    {&CS::commit_groups, "chunk.commit_groups"},
    {&CS::grouped_commits, "chunk.grouped_commits"},
    {&CS::max_commits_per_group, "chunk.max_commits_per_group"},
    {&CS::log_syncs, "chunk.log_syncs"},
    {&CS::counter_bumps, "chunk.counter_bumps"},
    {&CS::compress_attempts, "chunk.compress.attempts"},
    {&CS::compressed_chunks, "chunk.compress.chunks"},
    {&CS::compress_bytes_in, "chunk.compress.bytes_in"},
    {&CS::compress_bytes_out, "chunk.compress.bytes_out"},
    {&CS::views_pinned, "chunk.views_pinned"},
};

using OS = object::ObjectStoreStats;
const NamedField<OS> kObjectStoreFields[] = {
    {&OS::txns_begun, "txn.begin"},
    {&OS::read_txns_begun, "txn.read_begin"},
    {&OS::commits, "txn.commits"},
    {&OS::durable_commits, "txn.durable_commits"},
    {&OS::aborts, "txn.aborts"},
    {&OS::deadlock_aborts, "txn.deadlock_aborts"},
    {&OS::lock_acquisitions, "txn.lock_acquisitions"},
    {&OS::lock_waits, "txn.lock_waits"},
    {&OS::lock_timeouts, "txn.lock_timeouts"},
    {&OS::pickle_bytes, "object.pickle_bytes"},
    {&OS::cache_hits, "object.cache.hits"},
    {&OS::cache_misses, "object.cache.misses"},
    {&OS::cache_evictions, "object.cache.evictions"},
};

using RS = shard::RouterStats;
const NamedField<RS> kRouterFields[] = {
    {&RS::single_shard_commits, "shard.router.single_shard_commits"},
    {&RS::cross_shard_commits, "shard.router.cross_shard_commits"},
    {&RS::cross_shard_aborts, "shard.router.cross_shard_aborts"},
    {&RS::cross_shard_commit_failures,
     "shard.router.cross_shard_commit_failures"},
    {&RS::durability_upgrades, "shard.router.durability_upgrades"},
    {&RS::recovered_commits, "shard.router.recovered_commits"},
    {&RS::recovered_aborts, "shard.router.recovered_aborts"},
    {&RS::decisions_live, "shard.router.decisions_live"},
    {&RS::decisions_dropped, "shard.router.decisions_dropped"},
};

// The tables name every field: the structs hold nothing but uint64_t
// fields, so a field added without a table entry changes the size.
static_assert(sizeof(CS) ==
              (std::size(kChunkStoreFields) + 1) * sizeof(uint64_t));
static_assert(sizeof(OS) == std::size(kObjectStoreFields) * sizeof(uint64_t));
static_assert(sizeof(RS) == std::size(kRouterFields) * sizeof(uint64_t));

// The counter or gauge `name` in `snap`; fails the test if it has neither.
int64_t SnapshotValue(const common::MetricsSnapshot& snap,
                      const std::string& name) {
  if (auto it = snap.counters.find(name); it != snap.counters.end()) {
    return it->second;
  }
  if (auto it = snap.gauges.find(name); it != snap.gauges.end()) {
    return it->second;
  }
  ADD_FAILURE() << "no counter or gauge named " << name;
  return -1;
}

template <typename Stats, size_t N>
void ExpectFieldsMatch(const Stats& stats, const NamedField<Stats> (&fields)[N],
                       const common::MetricsSnapshot& snap,
                       const std::string& prefix = "") {
  for (const NamedField<Stats>& f : fields) {
    EXPECT_EQ(static_cast<int64_t>(stats.*f.field),
              SnapshotValue(snap, prefix + f.name))
        << prefix << f.name;
  }
}

// Adds `delta` to the counter or gauge `name` of `registry`, whose
// snapshot `snap` tells which kind it is.
void Poke(common::MetricsRegistry* registry,
          const common::MetricsSnapshot& snap, const std::string& name,
          int64_t delta) {
  if (snap.counters.count(name) > 0) {
    registry->GetCounter(name)->Add(delta);
  } else if (snap.gauges.count(name) > 0) {
    registry->GetGauge(name)->Add(delta);
  } else {
    ADD_FAILURE() << "no counter or gauge named " << name;
  }
}

// Moving the instrument of one field's name moves that field of `read()`
// and no other, whatever values a workload left behind.
template <typename Stats, size_t N, typename Read>
void ExpectEachFieldReadsItsName(const NamedField<Stats> (&fields)[N],
                                 common::MetricsRegistry* registry,
                                 const std::string& prefix, Read read) {
  const common::MetricsSnapshot snap = registry->Snapshot();
  for (const NamedField<Stats>& moved : fields) {
    const Stats before = read();
    Poke(registry, snap, prefix + moved.name, 1);
    const Stats after = read();
    Poke(registry, snap, prefix + moved.name, -1);
    for (const NamedField<Stats>& f : fields) {
      EXPECT_EQ(after.*f.field,
                before.*f.field + (f.field == moved.field ? 1 : 0))
          << "moved " << prefix << moved.name << ", read " << f.name;
    }
  }
}

// Every instrument in `snap` as "<kind> <name>".
std::set<std::string> InstrumentNames(const common::MetricsSnapshot& snap) {
  std::set<std::string> names;
  for (const auto& [name, v] : snap.counters) names.insert("counter " + name);
  for (const auto& [name, v] : snap.gauges) names.insert("gauge " + name);
  for (const auto& [name, v] : snap.histograms) {
    names.insert("histogram " + name);
  }
  return names;
}

// Fails on every name in one set and not the other.
void ExpectNameSet(const std::set<std::string>& actual,
                   const std::string& file) {
  std::ifstream in(std::string(TDB_TEST_DATA_DIR) + "/" + file);
  ASSERT_TRUE(in.good()) << file;
  std::set<std::string> expected;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) expected.insert(line);
  }
  for (const std::string& name : expected) {
    EXPECT_TRUE(actual.count(name) > 0) << "missing: " << name;
  }
  for (const std::string& name : actual) {
    EXPECT_TRUE(expected.count(name) > 0) << "unexpected: " << name;
  }
}

// An object whose pickle is its payload, so a test picks record sizes.
class BlobObject final : public object::Object {
 public:
  static constexpr object::ClassId kClassId = 778;
  BlobObject() = default;
  explicit BlobObject(std::string p) : payload(std::move(p)) {}
  object::ClassId class_id() const override { return kClassId; }
  void Pickle(object::Pickler* p) const override { p->PutString(payload); }
  Status UnpickleFrom(object::Unpickler* u) override {
    return u->GetString(&payload);
  }
  size_t ApproxSize() const override { return payload.size(); }
  std::string payload;
};

// A compressible payload of `n` bytes, or an incompressible one.
std::string Payload(size_t n, int seed, bool compressible = true) {
  std::string out(n, static_cast<char>('a' + seed % 26));
  if (!compressible) {
    Random rng(static_cast<uint64_t>(seed));
    for (char& c : out) c = static_cast<char>(rng.Uniform(256));
  }
  return out;
}

// Stack (a): an ObjectStore over a ChunkStore with 4 KB segments, small
// caches and compression, on a device that fails one write on demand.
struct ObjectStack {
  platform::MemUntrustedStore files;
  chunk::FailOneWriteStore device{&files};
  platform::MemSecretStore secrets;
  platform::MemOneWayCounter counter;
  std::unique_ptr<chunk::ChunkStore> chunks;
  std::unique_ptr<object::ObjectStore> objects;

  ObjectStack() {
    EXPECT_TRUE(secrets.Provision(Slice("s")).ok());
    chunk::ChunkStoreOptions copts = chunk::SmallSegments();
    copts.cache_bytes = 2048;
    copts.compression = true;
    copts.checkpoint_interval_bytes = 16 * 1024;
    chunks = std::move(chunk::ChunkStore::Open(&device, &secrets, &counter,
                                               copts))
                 .value();
    object::ObjectStoreOptions oopts;
    oopts.cache_capacity_bytes = 1024;
    objects =
        std::move(object::ObjectStore::Open(chunks.get(), oopts)).value();
    EXPECT_TRUE(
        objects->registry().Register<BlobObject>(BlobObject::kClassId).ok());
  }

  Status Put(object::ObjectId oid, std::string payload, bool durable) {
    object::Transaction txn(objects.get());
    auto ref = txn.OpenWritable<BlobObject>(oid);
    if (!ref.ok()) return ref.status();
    (*ref)->payload = std::move(payload);
    return txn.Commit(durable);
  }

  // Inserts, reads, updates and removes objects in durable and nondurable
  // transactions, fails one commit on a write error, then checkpoints,
  // cleans, pins a view and scrubs: chunk-cache evictions of every cause
  // that can occur (relocation never evicts), object-cache evictions,
  // compression, cleaning and aborts all move.
  void Run() {
    std::vector<object::ObjectId> ids;
    for (int t = 0; t < 8; t++) {
      object::Transaction txn(objects.get());
      for (int i = 0; i < 5; i++) {
        const int n = t * 5 + i;
        ids.push_back(txn.Insert(std::make_unique<BlobObject>(
                                     Payload(50 + 9 * n, n, n % 3 != 0)))
                          .value());
      }
      ASSERT_TRUE(txn.Commit(t % 2 == 0).ok());
    }
    for (int pass = 0; pass < 2; pass++) {
      object::Transaction txn(objects.get());
      for (object::ObjectId oid : ids) {
        ASSERT_TRUE(txn.OpenReadonly<BlobObject>(oid).ok());
      }
      ASSERT_TRUE(txn.Commit(false).ok());
    }
    for (int i = 0; i < 10; i++) {
      ASSERT_TRUE(Put(ids[i], Payload(300, 100 + i), i % 2 == 0).ok());
    }
    // A removal right after its object's write-through evicts it from
    // the chunk cache (cause dealloc).
    for (int i = 0; i < 3; i++) {
      ASSERT_TRUE(Put(ids[20 + i], Payload(120, 200 + i), true).ok());
      object::Transaction txn(objects.get());
      ASSERT_TRUE(txn.Remove(ids[20 + i]).ok());
      ASSERT_TRUE(txn.Commit(true).ok());
    }
    // A nondurable write leaves its record in the tail buffer; a record
    // larger than a segment then rolls the tail, whose flush fails, so the
    // batch fails and its cached id is evicted (cause failed_commit).
    ASSERT_TRUE(Put(ids[30], Payload(100, 300), false).ok());
    device.FailNextWrite();
    EXPECT_FALSE(Put(ids[30], Payload(5000, 301, false), true).ok());
    ASSERT_TRUE(Put(ids[31], Payload(100, 302), true).ok());
    for (int round = 0; round < 20; round++) {
      ASSERT_TRUE(Put(ids[round % 10], Payload(400, 400 + round), true).ok());
    }
    ASSERT_TRUE(chunks->Checkpoint().ok());
    ASSERT_TRUE(chunks->Clean(8).ok());
    {
      object::ReadTransaction view(objects.get());
      ASSERT_TRUE(view.Open<BlobObject>(ids[5]).ok());
    }
    ASSERT_TRUE(chunks->VerifyIntegrity(nullptr).ok());
  }
};

// Stack (b): a 2-shard router over in-memory devices, 4 KB segments.
struct RouterStack {
  platform::MemUntrustedStore files[2];
  platform::MemOneWayCounter counters[2];
  platform::MemSecretStore secrets;
  std::unique_ptr<shard::ShardedChunkStore> router;

  RouterStack() {
    EXPECT_TRUE(secrets.Provision(Slice("s")).ok());
    chunk::ChunkStoreOptions options = chunk::SmallSegments();
    options.cache_bytes = 2048;
    std::vector<shard::ShardBackend> backends;
    for (int k = 0; k < 2; k++) {
      backends.push_back({&files[k], &secrets, &counters[k]});
    }
    router = std::move(shard::ShardedChunkStore::Open(backends, options))
                 .value();
  }

  // Single- and cross-shard commits (durable, and nondurable ones that the
  // 2PC upgrades), overwrites, deallocations, reads and view reads, then
  // a checkpoint, cleaning and a scrub.
  void Run() {
    std::vector<chunk::ChunkId> ids;
    for (int i = 0; i < 24; i++) ids.push_back(router->AllocateChunkId());
    for (int round = 0; round < 30; round++) {
      chunk::WriteBatch batch;
      const size_t first = static_cast<size_t>(round) % ids.size();
      // Consecutive ids alternate shards: two ops span both.
      const int ops = round % 3 == 0 ? 1 : 2;
      for (int j = 0; j < ops; j++) {
        const chunk::ChunkId cid = ids[(first + j) % ids.size()];
        batch.Write(cid, Slice(Payload(200 + round * 10, round + j)));
      }
      ASSERT_TRUE(router->Commit(batch, round % 4 != 1).ok()) << round;
    }
    for (chunk::ChunkId cid : ids) ASSERT_TRUE(router->Read(cid).ok());
    ASSERT_TRUE(router->Deallocate(ids[0], true).ok());
    auto view = router->PinView();
    ASSERT_TRUE(view.ok());
    ASSERT_TRUE(router->ReadAtView(**view, ids[3]).ok());
    ASSERT_TRUE(router->Checkpoint().ok());
    ASSERT_TRUE(router->Clean(8).ok());
    ASSERT_TRUE(router->VerifyIntegrity(nullptr).ok());
  }
};

TEST(StatListsTest, ObjectStackStatsMatchTheRegistry) {
  ObjectStack a;
  ASSERT_NO_FATAL_FAILURE(a.Run());
  const CS chunk_stats = a.chunks->Stats();
  const OS object_stats = a.objects->Stats();
  const common::MetricsSnapshot snap = a.chunks->metrics()->Snapshot();
  ExpectFieldsMatch(chunk_stats, kChunkStoreFields, snap);
  ExpectFieldsMatch(object_stats, kObjectStoreFields, snap);
  EXPECT_EQ(chunk_stats.cache_evictions,
            chunk_stats.cache_evictions_capacity +
                chunk_stats.cache_evictions_dealloc +
                chunk_stats.cache_evictions_failed_commit +
                chunk_stats.cache_evictions_relocation);
  // The workload reaches what it sets out to.
  EXPECT_GT(chunk_stats.cache_evictions_capacity, 0u);
  EXPECT_GT(chunk_stats.cache_evictions_dealloc, 0u);
  EXPECT_GT(chunk_stats.cache_evictions_failed_commit, 0u);
  EXPECT_GT(chunk_stats.compressed_chunks, 0u);
  EXPECT_GT(chunk_stats.relocated_records, 0u);
  EXPECT_GT(object_stats.cache_evictions, 0u);
  EXPECT_GT(object_stats.aborts, 0u);
  common::MetricsRegistry* registry = a.chunks->metrics().get();
  ExpectEachFieldReadsItsName(kChunkStoreFields, registry, "",
                              [&] { return a.chunks->Stats(); });
  ExpectEachFieldReadsItsName(kObjectStoreFields, registry, "",
                              [&] { return a.objects->Stats(); });
}

// The router's Stats() is the sum of the shards' "shard<k>." instruments,
// but max_commits_per_group, their max, and cache_evictions, the sum of
// its causes.
void ExpectShardSum(shard::ShardedChunkStore* router) {
  const CS sum = router->Stats();
  const common::MetricsSnapshot snap = router->metrics()->Snapshot();
  for (const NamedField<CS>& f : kChunkStoreFields) {
    const int64_t v0 = SnapshotValue(snap, std::string("shard0.") + f.name);
    const int64_t v1 = SnapshotValue(snap, std::string("shard1.") + f.name);
    const bool max = f.field == &CS::max_commits_per_group;
    EXPECT_EQ(static_cast<int64_t>(sum.*f.field),
              max ? std::max(v0, v1) : v0 + v1)
        << f.name;
  }
  EXPECT_EQ(sum.cache_evictions, sum.cache_evictions_capacity +
                                     sum.cache_evictions_dealloc +
                                     sum.cache_evictions_failed_commit +
                                     sum.cache_evictions_relocation);
}

TEST(StatListsTest, RouterStackStatsMatchTheShardSums) {
  RouterStack b;
  ASSERT_NO_FATAL_FAILURE(b.Run());
  const RS router_stats = b.router->router_stats();
  common::MetricsRegistry* registry = b.router->metrics().get();
  const common::MetricsSnapshot snap = registry->Snapshot();
  for (int k = 0; k < 2; k++) {
    const std::string prefix = "shard" + std::to_string(k) + ".";
    ExpectFieldsMatch(b.router->ShardStats(k), kChunkStoreFields, snap,
                      prefix);
    ExpectEachFieldReadsItsName(kChunkStoreFields, registry, prefix,
                                [&] { return b.router->ShardStats(k); });
    for (const NamedField<CS>& f : kChunkStoreFields) {
      Poke(registry, snap, prefix + f.name, 1);
      ExpectShardSum(b.router.get());
      Poke(registry, snap, prefix + f.name, -1);
    }
  }
  ExpectShardSum(b.router.get());
  ExpectFieldsMatch(router_stats, kRouterFields, snap);
  ExpectEachFieldReadsItsName(kRouterFields, registry, "",
                              [&] { return b.router->router_stats(); });
  EXPECT_GT(router_stats.single_shard_commits, 0u);
  EXPECT_GT(router_stats.cross_shard_commits, 0u);
  EXPECT_GT(router_stats.durability_upgrades, 0u);
}

// The registries register exactly the instruments recorded in
// tests/data: no statistic was renamed, dropped or added unnoticed.
TEST(StatListsTest, RegistriesHoldTheRecordedNameSet) {
  ObjectStack a;
  ASSERT_NO_FATAL_FAILURE(a.Run());
  ExpectNameSet(InstrumentNames(a.chunks->metrics()->Snapshot()),
                "object_stack_metric_names.txt");
  RouterStack b;
  ASSERT_NO_FATAL_FAILURE(b.Run());
  ExpectNameSet(InstrumentNames(b.router->metrics()->Snapshot()),
                "router_stack_metric_names.txt");
}

}  // namespace
}  // namespace tdb
