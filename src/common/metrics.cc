#include "common/metrics.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>

#include "common/json.h"

namespace tdb::common {

namespace {

std::atomic<uint64_t (*)()> g_clock{nullptr};

uint64_t SteadyMicros() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// bit_width(v) for v > 0: position of the highest set bit, 1-based.
size_t BitWidth(uint64_t v) {
  size_t w = 0;
  while (v != 0) {
    v >>= 1;
    w++;
  }
  return w;
}

}  // namespace

uint64_t MonotonicMicros() {
  uint64_t (*clock)() = g_clock.load(std::memory_order_acquire);
  return clock != nullptr ? clock() : SteadyMicros();
}

void SetMonotonicClockForTesting(uint64_t (*clock)()) {
  g_clock.store(clock, std::memory_order_release);
}

// ---------------------------------------------------------------------------
// Counter

size_t Counter::StripeIndex() {
  // One stripe per thread, assigned round-robin on first use; threads
  // beyond kStripes share, which only costs contention, never correctness.
  static std::atomic<size_t> next{0};
  thread_local size_t index =
      next.fetch_add(1, std::memory_order_relaxed) % kStripes;
  return index;
}

// ---------------------------------------------------------------------------
// Histogram

void Histogram::Record(int64_t value) {
  const uint64_t magnitude = value <= 0 ? 0 : static_cast<uint64_t>(value);
  size_t bucket = magnitude <= 1 ? 0 : BitWidth(magnitude) - 1;
  if (bucket >= HistogramData::kBuckets) {
    bucket = HistogramData::kBuckets - 1;
  }
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  int64_t cur = max_.load(std::memory_order_relaxed);
  while (cur < value && !max_.compare_exchange_weak(
                            cur, value, std::memory_order_relaxed)) {
  }
}

HistogramData Histogram::Data() const {
  HistogramData d;
  for (size_t i = 0; i < HistogramData::kBuckets; i++) {
    d.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
    d.count += d.buckets[i];
  }
  // Derive count from the buckets so the snapshot is internally consistent
  // even if a concurrent Record() is mid-flight between its two adds.
  d.sum = sum_.load(std::memory_order_relaxed);
  d.max = max_.load(std::memory_order_relaxed);
  return d;
}

int64_t HistogramData::Percentile(double p) const {
  if (count == 0) return 0;
  if (p < 0.0) p = 0.0;
  if (p > 1.0) p = 1.0;
  uint64_t rank = static_cast<uint64_t>(p * static_cast<double>(count));
  if (rank >= count) rank = count - 1;
  uint64_t seen = 0;
  for (size_t b = 0; b < kBuckets; b++) {
    seen += buckets[b];
    if (seen > rank) {
      // Upper edge of bucket b: 2^(b+1) - 1 (bucket 0 holds v <= 1).
      int64_t upper = b >= 62 ? max : (int64_t(1) << (b + 1)) - 1;
      return upper < max ? upper : max;
    }
  }
  return max;
}

// ---------------------------------------------------------------------------
// AuditLog

void AuditLog::Record(const std::string& kind, int region,
                      const std::string& location,
                      const std::string& message) {
  // The observer fires outside mu_ (it may snapshot the registry, which
  // reads this log), with a copy of the newly retained event.
  AuditEvent notify_copy;
  Observer observer;
  {
    std::lock_guard<std::mutex> lock(mu_);
    total_++;
    auto key = std::make_pair(kind, location);
    auto it = index_.find(key);
    if (it != index_.end()) {
      events_[it->second].count++;
      return;
    }
    if (events_.size() >= max_events_) {
      dropped_++;
      return;
    }
    AuditEvent ev;
    ev.kind = kind;
    ev.region = region;
    ev.location = location;
    ev.message = message;
    ev.count = 1;
    ev.first_seq = static_cast<uint64_t>(events_.size());
    index_[key] = events_.size();
    events_.push_back(ev);
    if (!observer_) return;
    notify_copy = std::move(ev);
    observer = observer_;
  }
  observer(notify_copy);
}

void AuditLog::SetObserver(Observer observer) {
  std::lock_guard<std::mutex> lock(mu_);
  observer_ = std::move(observer);
}

std::vector<AuditEvent> AuditLog::Events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_;
}

size_t AuditLog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

uint64_t AuditLog::total() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_;
}

uint64_t AuditLog::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

void AuditLog::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  events_.clear();
  index_.clear();
  total_ = 0;
  dropped_ = 0;
}

// ---------------------------------------------------------------------------
// MetricsRegistry

MetricsRegistry::MetricsRegistry() {
  const char* env = std::getenv("TDB_METRICS");
  if (env != nullptr && std::strcmp(env, "off") == 0) {
    timing_.store(false, std::memory_order_relaxed);
  }
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>();
  return slot.get();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snap;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [name, counter] : counters_) {
      snap.counters[name] = counter->value();
    }
    for (const auto& [name, gauge] : gauges_) {
      snap.gauges[name] = gauge->value();
    }
    for (const auto& [name, hist] : histograms_) {
      snap.histograms[name] = hist->Data();
    }
  }
  snap.audit = audit_.Events();
  snap.audit_total = audit_.total();
  snap.audit_dropped = audit_.dropped();
  return snap;
}

void MetricsRegistry::SetIncidentObserver(IncidentObserver observer) {
  std::lock_guard<std::mutex> lock(incident_mu_);
  incident_observer_ = std::move(observer);
}

void MetricsRegistry::NotifyIncident(const std::string& kind,
                                     const std::string& detail) {
  IncidentObserver observer;
  {
    std::lock_guard<std::mutex> lock(incident_mu_);
    observer = incident_observer_;
  }
  if (observer) observer(kind, detail);
}

// ---------------------------------------------------------------------------
// MetricsSnapshot: merge + JSON

void MetricsSnapshot::Merge(const MetricsSnapshot& other) {
  for (const auto& [name, v] : other.counters) counters[name] += v;
  for (const auto& [name, v] : other.gauges) gauges[name] += v;
  for (const auto& [name, h] : other.histograms) {
    HistogramData& mine = histograms[name];
    mine.count += h.count;
    mine.sum += h.sum;
    if (h.max > mine.max) mine.max = h.max;
    for (size_t i = 0; i < HistogramData::kBuckets; i++) {
      mine.buckets[i] += h.buckets[i];
    }
  }
  for (const AuditEvent& ev : other.audit) {
    bool merged = false;
    for (AuditEvent& mine : audit) {
      if (mine.kind == ev.kind && mine.location == ev.location) {
        mine.count += ev.count;
        merged = true;
        break;
      }
    }
    if (!merged) audit.push_back(ev);
  }
  audit_total += other.audit_total;
  audit_dropped += other.audit_dropped;
}

MetricsSnapshot MetricsSnapshot::DeltaSince(
    const MetricsSnapshot& base) const {
  MetricsSnapshot delta = *this;
  for (auto& [name, v] : delta.counters) {
    auto it = base.counters.find(name);
    if (it != base.counters.end()) v -= it->second;
  }
  for (auto& [name, h] : delta.histograms) {
    auto it = base.histograms.find(name);
    if (it == base.histograms.end()) continue;
    const HistogramData& b = it->second;
    h.count -= std::min(h.count, b.count);
    h.sum -= std::min(h.sum, b.sum);
    for (size_t i = 0; i < HistogramData::kBuckets; i++) {
      h.buckets[i] -= std::min(h.buckets[i], b.buckets[i]);
    }
    // max cannot be differenced; keep the lifetime max.
  }
  return delta;
}

std::string MetricsSnapshot::ToJson() const {
  std::string out = "{\n  \"counters\": {";
  // Appends `prefix` (separator and key) and then `v`.
  auto num = [&out](const char* prefix, int64_t v) {
    out += prefix;
    out += std::to_string(v);
  };
  // Starts the next member of a section, one member per line.
  auto next = [&out](bool* first) {
    out += *first ? "\n    " : ",\n    ";
    *first = false;
  };
  auto int_map = [&](const std::map<std::string, int64_t>& values) {
    bool first = true;
    for (const auto& [name, v] : values) {
      next(&first);
      AppendJsonString(name, &out);
      num(": ", v);
    }
  };
  int_map(counters);
  out += "\n  },\n  \"gauges\": {";
  int_map(gauges);
  out += "\n  },\n  \"histograms\": {";
  bool first = true;
  for (const auto& [name, h] : histograms) {
    next(&first);
    AppendJsonString(name, &out);
    num(": {\"count\": ", static_cast<int64_t>(h.count));
    num(", \"sum\": ", h.sum);
    num(", \"max\": ", h.max);
    num(", \"p50\": ", h.Percentile(0.50));
    num(", \"p95\": ", h.Percentile(0.95));
    num(", \"p99\": ", h.Percentile(0.99));
    out += ", \"buckets\": [";
    const char* sep = "[";
    for (size_t i = 0; i < HistogramData::kBuckets; i++) {
      if (h.buckets[i] == 0) continue;
      num(sep, static_cast<int64_t>(i));
      num(", ", static_cast<int64_t>(h.buckets[i]));
      out += ']';
      sep = ", [";
    }
    out += "]}";
  }
  out += "\n  },\n  \"audit\": [";
  first = true;
  for (const AuditEvent& ev : audit) {
    next(&first);
    out += "{\"kind\": ";
    AppendJsonString(ev.kind, &out);
    num(", \"region\": ", ev.region);
    out += ", \"location\": ";
    AppendJsonString(ev.location, &out);
    out += ", \"message\": ";
    AppendJsonString(ev.message, &out);
    num(", \"count\": ", static_cast<int64_t>(ev.count));
    num(", \"first_seq\": ", static_cast<int64_t>(ev.first_seq));
    out += '}';
  }
  num("\n  ],\n  \"audit_total\": ", static_cast<int64_t>(audit_total));
  num(",\n  \"audit_dropped\": ", static_cast<int64_t>(audit_dropped));
  out += "\n}\n";
  return out;
}

Result<MetricsSnapshot> MetricsSnapshot::FromJson(const std::string& json) {
  MetricsSnapshot snap;
  JsonReader r(json);
  // Unsigned fields are written through int64_t; read them back the same way.
  auto read_u64 = [&r](uint64_t* out) {
    int64_t v = 0;
    if (!r.Int(&v)) return false;
    *out = static_cast<uint64_t>(v);
    return true;
  };
  auto int_map = [&r](std::map<std::string, int64_t>* out) {
    return r.Object(
        [&](const std::string& name) { return r.Int(&(*out)[name]); });
  };
  auto histogram = [&](HistogramData* h) {
    return r.Object([&](const std::string& field) {
      if (field == "count") return read_u64(&h->count);
      if (field == "sum") return r.Int(&h->sum);
      if (field == "max") return r.Int(&h->max);
      // p50/p95/p99 are derived; ignore on input.
      if (field != "buckets") return r.Skip();
      return r.Array([&] {
        std::vector<int64_t> pair;  // [index, count]
        if (!r.Array([&] { return r.Int(&pair.emplace_back()); })) {
          return false;
        }
        if (pair.size() != 2 || pair[0] < 0 ||
            pair[0] >= static_cast<int64_t>(HistogramData::kBuckets)) {
          return r.Fail("bad histogram bucket");
        }
        h->buckets[static_cast<size_t>(pair[0])] =
            static_cast<uint64_t>(pair[1]);
        return true;
      });
    });
  };
  auto audit_event = [&](AuditEvent* ev) {
    return r.Object([&](const std::string& field) {
      if (field == "kind") return r.String(&ev->kind);
      if (field == "location") return r.String(&ev->location);
      if (field == "message") return r.String(&ev->message);
      if (field == "count") return read_u64(&ev->count);
      if (field == "first_seq") return read_u64(&ev->first_seq);
      if (field != "region") return r.Skip();
      int64_t region = 0;
      if (!r.Int(&region)) return false;
      if (region != static_cast<int>(region)) {
        return r.Fail("audit region out of range");
      }
      ev->region = static_cast<int>(region);
      return true;
    });
  };
  r.Object([&](const std::string& section) {
    if (section == "counters") return int_map(&snap.counters);
    if (section == "gauges") return int_map(&snap.gauges);
    if (section == "histograms") {
      return r.Object([&](const std::string& name) {
        return histogram(&snap.histograms[name]);
      });
    }
    if (section == "audit") {
      return r.Array([&] { return audit_event(&snap.audit.emplace_back()); });
    }
    if (section == "audit_total") return read_u64(&snap.audit_total);
    if (section == "audit_dropped") return read_u64(&snap.audit_dropped);
    return r.Skip();
  });
  TDB_RETURN_IF_ERROR(r.Finish("metrics json"));
  return snap;
}

}  // namespace tdb::common
