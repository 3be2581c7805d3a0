#ifndef TDB_COMMON_METRICS_H_
#define TDB_COMMON_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"

namespace tdb::common {

/// Region classes for audit events. Values 0..3 mirror the harness's
/// structural RegionClass enum (see src/harness/region_map.h) so tamper
/// sweeps can correlate the tampered image region with the emitted event;
/// kRegionCounter covers the trusted one-way counter, which is not part of
/// the untrusted image.
inline constexpr int kRegionUnknown = -1;
inline constexpr int kRegionAnchor = 0;
inline constexpr int kRegionLog = 1;
inline constexpr int kRegionPayload = 2;
inline constexpr int kRegionMap = 3;
inline constexpr int kRegionCounter = 4;
/// Cross-shard transaction records (2PC prepare/decision chain): emitted
/// by the sharded router when a record parses as a valid chunk but fails
/// its transaction-level MAC, linkage, or format checks.
inline constexpr int kRegionTxn = 5;

/// Monotonic microsecond clock used by latency timers and trace spans.
/// Tests (and the deterministic harness) may substitute a fake clock;
/// passing nullptr restores the real steady_clock source.
uint64_t MonotonicMicros();
void SetMonotonicClockForTesting(uint64_t (*clock)());

/// Wait-free counter, sharded across cache lines so concurrent hot-path
/// increments from different threads never contend on one word. Negative
/// deltas are allowed (some "counters" track live quantities). value()
/// sums the stripes; it is a coherent snapshot per stripe, which is the
/// same guarantee the old per-field atomics gave.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Add(int64_t delta) {
    stripes_[StripeIndex()].v.fetch_add(delta, std::memory_order_relaxed);
  }
  void Increment() { Add(1); }
  int64_t value() const {
    int64_t total = 0;
    for (const Stripe& s : stripes_) {
      total += s.v.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  static constexpr size_t kStripes = 16;
  struct alignas(64) Stripe {
    std::atomic<int64_t> v{0};
  };
  static size_t StripeIndex();
  Stripe stripes_[kStripes];
};

/// Single-word gauge: a value that moves both ways or is periodically
/// overwritten (bytes live, segments, cache occupancy, high-water marks).
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  /// Raises the gauge to `v` if larger (high-water marks).
  void SetMax(int64_t v) {
    int64_t cur = value_.load(std::memory_order_relaxed);
    while (cur < v && !value_.compare_exchange_weak(
                          cur, v, std::memory_order_relaxed)) {
    }
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Aggregated histogram contents, as captured by a snapshot or parsed back
/// from JSON. Buckets are log2-spaced: bucket b counts samples v in
/// [2^b, 2^(b+1) - 1]; bucket 0 additionally absorbs v <= 0.
struct HistogramData {
  static constexpr size_t kBuckets = 64;
  uint64_t count = 0;
  int64_t sum = 0;
  int64_t max = 0;
  std::array<uint64_t, kBuckets> buckets{};

  double mean() const {
    return count == 0 ? 0.0 : static_cast<double>(sum) / count;
  }
  /// Upper-bound estimate of the p-th percentile (p in [0,1]): the upper
  /// edge of the bucket holding the p-th sample, clamped to the observed
  /// max. Exact for the max bucket; at worst 2x for interior buckets.
  int64_t Percentile(double p) const;
};

/// Log-bucketed latency histogram. Record() touches only relaxed atomics
/// (bucket count, sum, CAS max), so concurrent recorders never block and
/// the structure is TSan-clean by construction.
class Histogram {
 public:
  Histogram() = default;
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Record(int64_t value);
  HistogramData Data() const;
  uint64_t count() const { return count_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> buckets_[HistogramData::kBuckets] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<int64_t> sum_{0};
  std::atomic<int64_t> max_{0};
};

/// One security-relevant detection: a MAC/hash mismatch, counter
/// regression, replay, or torn/missing anchor. Events are deduplicated by
/// (kind, location) — re-detecting the same damage (e.g. a read and a
/// later integrity scrub hitting the same record) increments `count`
/// instead of appending, so one tampered byte yields exactly one entry.
struct AuditEvent {
  std::string kind;      // "hash_mismatch", "mac_mismatch", "replay", ...
  int region = kRegionUnknown;  // kRegion* constant.
  std::string location;  // e.g. "seg 3 off 128", "anchor", "counter"
  std::string message;   // Detail from the first occurrence.
  uint64_t count = 0;    // Occurrences folded into this entry.
  uint64_t first_seq = 0;  // Order of first occurrence within the log.
};

/// Bounded in-memory security audit trail. Mutex-protected: detections are
/// failure paths, never hot. When capacity is reached new distinct events
/// are counted in dropped() rather than retained.
class AuditLog {
 public:
  explicit AuditLog(size_t max_events = 256) : max_events_(max_events) {}

  void Record(const std::string& kind, int region,
              const std::string& location, const std::string& message);

  /// Invoked once per NEW distinct retained event (never for deduplicated
  /// repeats or capacity drops), after the log's lock has been released —
  /// so the observer may itself read the log or snapshot the registry.
  /// This is the flight recorder's trigger: every first-time detection
  /// (TamperDetected, failed recovery, ...) produces exactly one callback.
  using Observer = std::function<void(const AuditEvent&)>;
  void SetObserver(Observer observer);

  std::vector<AuditEvent> Events() const;
  /// Distinct retained events.
  size_t size() const;
  /// Total occurrences recorded, including deduplicated repeats.
  uint64_t total() const;
  uint64_t dropped() const;
  void Clear();

 private:
  const size_t max_events_;
  mutable std::mutex mu_;
  std::vector<AuditEvent> events_;
  std::map<std::pair<std::string, std::string>, size_t> index_;
  uint64_t total_ = 0;
  uint64_t dropped_ = 0;
  Observer observer_;  // Guarded by mu_; invoked after release.
};

/// Point-in-time copy of a registry's contents. Mergeable (benches combine
/// per-fixture registries) and round-trippable through JSON (tdbstat
/// attaches to a bench run's --metrics-json output).
struct MetricsSnapshot {
  std::map<std::string, int64_t> counters;
  std::map<std::string, int64_t> gauges;
  std::map<std::string, HistogramData> histograms;
  std::vector<AuditEvent> audit;
  uint64_t audit_total = 0;
  uint64_t audit_dropped = 0;

  /// Sums counters/gauges, adds histograms bucket-wise, concatenates audit
  /// entries (re-deduplicating by kind+location).
  void Merge(const MetricsSnapshot& other);
  /// Counter and histogram movement since `base` (a histogram's max
  /// cannot be differenced and keeps its lifetime value); gauges are
  /// levels, not totals, and keep their current value, as does the audit
  /// log.
  MetricsSnapshot DeltaSince(const MetricsSnapshot& base) const;
  std::string ToJson() const;
  static Result<MetricsSnapshot> FromJson(const std::string& json);
};

/// A named-instrument registry: one per database instance (the chunk store
/// creates its own unless ChunkStoreOptions::metrics supplies a shared
/// one; the object/collection/backup layers register on the chunk store's
/// registry so one snapshot covers the whole stack).
///
/// Get* registers on first use and returns a pointer that stays valid for
/// the registry's lifetime, so hot paths resolve their instruments once
/// and then touch only the lock-free instrument itself.
class MetricsRegistry {
 public:
  MetricsRegistry();

  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name);
  AuditLog& audit() { return audit_; }
  const AuditLog& audit() const { return audit_; }

  /// Latency timing on/off (counters and audit are always on — tests rely
  /// on them functionally). Initialized from the TDB_METRICS environment
  /// variable: "off" disables timers. This is the knob behind the
  /// instrumentation-overhead experiment in EXPERIMENTS.md.
  void set_timing_enabled(bool enabled) {
    timing_.store(enabled, std::memory_order_relaxed);
  }
  bool timing_enabled() const {
    return timing_.load(std::memory_order_relaxed);
  }

  MetricsSnapshot Snapshot() const;

  /// Out-of-band notification channel for noteworthy events that are NOT
  /// security detections (and so must not pollute the audit log the tamper
  /// sweeps assert on) — e.g. an in-doubt 2PC transaction resolved during
  /// recovery. The flight recorder subscribes here in addition to the
  /// audit log. Callbacks run on the notifying thread.
  using IncidentObserver =
      std::function<void(const std::string& kind, const std::string& detail)>;
  void SetIncidentObserver(IncidentObserver observer);
  void NotifyIncident(const std::string& kind, const std::string& detail);

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::atomic<bool> timing_{true};
  AuditLog audit_;
  mutable std::mutex incident_mu_;
  IncidentObserver incident_observer_;
};

/// RAII latency timer: records elapsed microseconds into `hist` at scope
/// exit. No-op (and takes no clock reading) when the registry's timing is
/// disabled or `hist` is null.
class ScopedTimer {
 public:
  ScopedTimer(const MetricsRegistry* registry, Histogram* hist) {
    if (hist != nullptr && registry != nullptr &&
        registry->timing_enabled()) {
      hist_ = hist;
      start_ = MonotonicMicros();
    }
  }
  ~ScopedTimer() {
    if (hist_ != nullptr) {
      hist_->Record(static_cast<int64_t>(MonotonicMicros() - start_));
    }
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Histogram* hist_ = nullptr;
  uint64_t start_ = 0;
};

}  // namespace tdb::common

/// Statistic lists. A layer names each of its instruments once, in one
/// list macro taking two entry macros: STAT(kind, member, "registry.name")
/// for an instrument that is also the layer's `*Stats` field `member`, and
/// INSTRUMENT(kind, member, "registry.name") for one with no such field
/// (histograms, gauges only the registry reports). `kind` is Counter, Gauge
/// or Histogram. The layer expands its list into its instrument pointers
/// (TDB_METRIC_POINTER for both), their binding at construction and its
/// Stats() read-back (TDB_METRIC_NONE skips the other kind), so the
/// registry is the only tally of every statistic.
#define TDB_METRIC_POINTER(kind, member, name) \
  ::tdb::common::kind* member = nullptr;
#define TDB_METRIC_NONE(kind, member, name)

#endif  // TDB_COMMON_METRICS_H_
