#include "common/health.h"

#include <algorithm>
#include <cctype>
#include <cstdio>

#include "common/trace.h"

namespace tdb::common {

namespace {

// "sync_ratio": once commits share flushes (grouped_commits >
// commit_groups), log syncs per durable commit must stay below this — a
// regression here means the accumulation window stopped amortizing.
constexpr double kMaxSyncsPerCommit = 0.9;
constexpr int64_t kMinCommitsForSyncCheck = 64;

// "group_stall": p99 of the group-flush leader path.
constexpr int64_t kMaxGroupFlushP99Us = 1000000;
constexpr uint64_t kMinGroupFlushes = 8;

// "cache_hit_rate": collapse detector for the validated-plaintext cache.
constexpr double kMinCacheHitRate = 0.10;
constexpr int64_t kMinCacheLookups = 1024;

// "shard_skew": hottest shard vs. mean durable commits across
// `shard<k>.chunk.durable_commits`.
constexpr double kMaxShardSkew = 4.0;
constexpr int64_t kMinShardCommits = 64;

// Live monitor only: minimum spacing between audit events emitted for the
// same check.
constexpr uint64_t kEmitCooldownUs = 10 * 1000 * 1000;

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

// Sums every counter named exactly `suffix` or ending in ".<suffix>" —
// so "chunk.log_syncs" aggregates the unprefixed store and every
// "shard<k>.chunk.log_syncs" of a sharded one.
int64_t SumCounterSuffix(const MetricsSnapshot& snap,
                         const std::string& suffix) {
  int64_t total = 0;
  for (const auto& [name, v] : snap.counters) {
    if (name == suffix || EndsWith(name, "." + suffix)) total += v;
  }
  return total;
}

// "shard<k>.chunk.durable_commits" -> per-shard values, for the skew check.
std::vector<int64_t> PerShardDurableCommits(const MetricsSnapshot& snap) {
  std::vector<int64_t> per_shard;
  for (const auto& [name, v] : snap.counters) {
    if (name.rfind("shard", 0) != 0) continue;
    size_t i = 5;
    while (i < name.size() &&
           std::isdigit(static_cast<unsigned char>(name[i]))) {
      i++;
    }
    if (i == 5 || name.compare(i, std::string::npos,
                               ".chunk.durable_commits") != 0) {
      continue;
    }
    per_shard.push_back(v);
  }
  return per_shard;
}

std::string Fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

}  // namespace

std::vector<HealthIssue> EvaluateHealth(const MetricsSnapshot& snapshot,
                                        uint64_t now_us) {
  std::vector<HealthIssue> issues;

  // sync_ratio: group commit stopped amortizing syncs. Every durable
  // commit flushes in a group, and a lone committer leads groups of one,
  // so the rule applies only once commits have actually shared a flush.
  {
    const int64_t durable = SumCounterSuffix(snapshot, "chunk.durable_commits");
    const int64_t syncs = SumCounterSuffix(snapshot, "chunk.log_syncs");
    const int64_t groups = SumCounterSuffix(snapshot, "chunk.commit_groups");
    const int64_t grouped =
        SumCounterSuffix(snapshot, "chunk.grouped_commits");
    if (grouped > groups && durable >= kMinCommitsForSyncCheck) {
      const double ratio = static_cast<double>(syncs) / durable;
      if (ratio > kMaxSyncsPerCommit) {
        issues.push_back(
            {"sync_ratio",
             "log syncs per durable commit " + Fmt(ratio) + " exceeds " +
                 Fmt(kMaxSyncsPerCommit) + " (" +
                 std::to_string(syncs) + " syncs / " +
                 std::to_string(durable) + " commits, grouping active)",
             {}});
      }
    }
  }

  // group_stall: leader flush p99 blew past the window budget.
  for (const auto& [name, hist] : snapshot.histograms) {
    if (!EndsWith(name, "chunk.group_flush.latency_us")) continue;
    if (hist.count < kMinGroupFlushes) continue;
    const int64_t p99 = hist.Percentile(0.99);
    if (p99 > kMaxGroupFlushP99Us) {
      issues.push_back({"group_stall",
                        name + " p99 " + std::to_string(p99) +
                            "us exceeds " +
                            std::to_string(kMaxGroupFlushP99Us) +
                            "us over " + std::to_string(hist.count) +
                            " flushes",
                        {}});
    }
  }

  // cache_hit_rate: validated-plaintext cache collapse.
  {
    const int64_t hits = SumCounterSuffix(snapshot, "chunk.cache.hits");
    const int64_t misses = SumCounterSuffix(snapshot, "chunk.cache.misses");
    const int64_t lookups = hits + misses;
    if (lookups >= kMinCacheLookups) {
      const double rate = static_cast<double>(hits) / lookups;
      if (rate < kMinCacheHitRate) {
        issues.push_back({"cache_hit_rate",
                          "cache hit rate " + Fmt(rate) + " below " +
                              Fmt(kMinCacheHitRate) + " over " +
                              std::to_string(lookups) + " lookups",
                          {}});
      }
    }
  }

  // txn_inflight: wedged (or, offline, leaked) cross-shard 2PC.
  {
    auto inflight = snapshot.gauges.find("shard.router.txn_inflight");
    if (inflight != snapshot.gauges.end() && inflight->second > 0) {
      auto since = snapshot.gauges.find("shard.router.txn_inflight_since_us");
      const int64_t since_us =
          since == snapshot.gauges.end() ? 0 : since->second;
      if (now_us == 0) {
        issues.push_back(
            {"txn_inflight",
             "persisted snapshot reports a cross-shard transaction still "
             "in flight (prepare/decision window never closed)",
             {}});
      } else if (since_us > 0 &&
                 static_cast<int64_t>(now_us) - since_us >
                     kMaxTxnInflightAgeUs) {
        // The since_us > 0 gate: a live sample can catch the coordinator's
        // exit window (since already cleared, inflight not yet
        // decremented); ageing a zero timestamp there would fire a phantom
        // wedged-2PC alarm on a healthy store.
        issues.push_back(
            {"txn_inflight",
             "cross-shard transaction in flight for " +
                 std::to_string(static_cast<int64_t>(now_us) - since_us) +
                 "us (limit " +
                 std::to_string(kMaxTxnInflightAgeUs) + "us)",
             {}});
      }
    }
  }

  // shard_skew: routing imbalance across shard commit counters.
  {
    std::vector<int64_t> per_shard = PerShardDurableCommits(snapshot);
    if (per_shard.size() >= 2) {
      int64_t total = 0, hottest = 0;
      for (int64_t v : per_shard) {
        total += v;
        hottest = std::max(hottest, v);
      }
      if (total >= kMinShardCommits) {
        const double mean =
            static_cast<double>(total) / static_cast<double>(per_shard.size());
        const double skew =
            mean <= 0 ? 0.0 : static_cast<double>(hottest) / mean;
        if (skew > kMaxShardSkew) {
          issues.push_back({"shard_skew",
                            "hottest shard carries " + Fmt(skew) +
                                "x the mean durable commits (" +
                                std::to_string(hottest) + " of " +
                                std::to_string(total) + " across " +
                                std::to_string(per_shard.size()) + " shards)",
                            {}});
        }
      }
    }
  }

  return issues;
}

namespace {

// Which span names implicate which check, for attaching trace ids.
bool SpanMatchesCheck(const std::string& check, const char* span_name) {
  const std::string name(span_name == nullptr ? "" : span_name);
  if (check == "sync_ratio") return EndsWith(name, "chunk.sync");
  if (check == "group_stall") return EndsWith(name, "chunk.group_flush");
  if (check == "cache_hit_rate") return EndsWith(name, "chunk.read");
  // txn_inflight / shard_skew: anything on the 2PC coordinator path.
  return name == "shard.2pc" || name.rfind("shard", 0) == 0;
}

}  // namespace

HealthMonitor::HealthMonitor(std::shared_ptr<MetricsRegistry> registry)
    : registry_(std::move(registry)) {}

std::vector<HealthIssue> HealthMonitor::Check() {
  std::vector<HealthIssue> issues =
      EvaluateHealth(registry_->Snapshot(), MonotonicMicros());

  if (!issues.empty() && TracingEnabled()) {
    // Attach the trace ids of the worst recent spans on each implicated
    // path (non-destructive: exporters still see everything).
    std::vector<TraceEvent> spans = SnapshotTraceEvents();
    std::sort(spans.begin(), spans.end(),
              [](const TraceEvent& a, const TraceEvent& b) {
                return a.duration_us > b.duration_us;
              });
    for (HealthIssue& issue : issues) {
      for (const TraceEvent& ev : spans) {
        if (issue.trace_ids.size() >= 3) break;
        if (ev.trace_id == 0 || !SpanMatchesCheck(issue.check, ev.name)) {
          continue;
        }
        if (std::find(issue.trace_ids.begin(), issue.trace_ids.end(),
                      ev.trace_id) == issue.trace_ids.end()) {
          issue.trace_ids.push_back(ev.trace_id);
        }
      }
    }
  }

  // Rate-limited emission: one audit event per violated check per cooldown
  // window. Kind/location form the audit dedup key, so repeats within the
  // log's lifetime fold into one entry with a count.
  const uint64_t now = MonotonicMicros();
  {
    std::lock_guard<std::mutex> lock(mu_);
    checks_run_++;
    violations_ += issues.size();
  }
  for (const HealthIssue& issue : issues) {
    bool emit = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      uint64_t& last = last_emit_us_[issue.check];
      if (last == 0 || now - last >= kEmitCooldownUs) {
        last = now == 0 ? 1 : now;
        emit = true;
      }
    }
    if (!emit) continue;
    std::string message = issue.detail;
    if (!issue.trace_ids.empty()) {
      message += " traces=[";
      for (size_t i = 0; i < issue.trace_ids.size(); i++) {
        if (i > 0) message += ',';
        message += std::to_string(issue.trace_ids[i]);
      }
      message += ']';
    }
    registry_->audit().Record("health_" + issue.check, kRegionUnknown,
                              issue.check, message);
  }

  return issues;
}

uint64_t HealthMonitor::checks_run() const {
  std::lock_guard<std::mutex> lock(mu_);
  return checks_run_;
}

uint64_t HealthMonitor::violations() const {
  std::lock_guard<std::mutex> lock(mu_);
  return violations_;
}

}  // namespace tdb::common
