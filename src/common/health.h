#ifndef TDB_COMMON_HEALTH_H_
#define TDB_COMMON_HEALTH_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/metrics.h"

namespace tdb::common {

/// The health monitor's "txn_inflight" limit: a cross-shard 2PC
/// transaction in flight longer than this is presumed wedged (coordinator
/// death leaves participants in doubt). The other thresholds live in
/// health.cc; every check self-gates on a volume floor so an idle or
/// freshly opened store is never flagged.
inline constexpr int64_t kMaxTxnInflightAgeUs = 10 * 1000 * 1000;

struct HealthIssue {
  std::string check;   // "sync_ratio", "group_stall", "txn_inflight",
                       // "cache_hit_rate", "shard_skew".
  std::string detail;  // Human-readable, includes the offending numbers.
  /// Live monitor: trace ids of recent spans on the implicated path
  /// (worst-duration first), so an operator can jump from the audit event
  /// straight to the causal trees in a trace export.
  std::vector<uint64_t> trace_ids;
};

/// Pure invariant evaluation — shared verbatim by the live HealthMonitor
/// and `tdbstat --health` (one rule set for CI and operators). `now_us` is
/// the current monotonic clock for age-based checks; pass 0 for offline
/// evaluation of a persisted snapshot, where age cannot be computed and
/// ANY in-flight 2PC transaction is a violation (a quiesced store that
/// persisted its metrics should have none).
std::vector<HealthIssue> EvaluateHealth(const MetricsSnapshot& snapshot,
                                        uint64_t now_us);

/// Live wrapper: evaluates the registry on demand, attaches offending
/// trace ids from the in-process trace rings, and emits one rate-limited
/// audit event per violated check (kind "health_<check>", location =
/// check name — the audit log's dedup key — with the trace ids in the
/// message). Emitting through the audit log means an attached
/// FlightRecorder captures a bundle for the first violation of each check.
class HealthMonitor {
 public:
  explicit HealthMonitor(std::shared_ptr<MetricsRegistry> registry);

  std::vector<HealthIssue> Check();

  uint64_t checks_run() const;
  uint64_t violations() const;

 private:
  const std::shared_ptr<MetricsRegistry> registry_;

  mutable std::mutex mu_;
  std::map<std::string, uint64_t> last_emit_us_;
  uint64_t checks_run_ = 0;
  uint64_t violations_ = 0;
};

}  // namespace tdb::common

#endif  // TDB_COMMON_HEALTH_H_
