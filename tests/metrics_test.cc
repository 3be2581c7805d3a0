// Tests for the metrics/tracing layer: wait-free instruments under
// multi-threaded fire (run under TSan in check.sh --tsan), histogram
// bucket boundaries, snapshot merge + JSON round-trip, the audit log's
// dedup/bounded semantics, trace rings, and the instruments' end-to-end
// wiring through the object store's lock manager.

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "common/trace.h"
#include "object/object_store.h"
#include "platform/mem_store.h"
#include "platform/one_way_counter.h"
#include "platform/secret_store.h"

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

}  // namespace
}  // namespace tdb
