#ifndef TDB_HARNESS_ORACLE_H_
#define TDB_HARNESS_ORACLE_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/slice.h"
#include "workload/workload.h"

namespace tdb::harness {

/// Plain in-memory model of the store's committed states, against which a
/// recovered database is checked. The oracle records one state per commit
/// *attempt* (boundary b = state after the first b attempts applied;
/// boundary 0 is the empty store) plus a durable floor.
///
/// The invariant checked after crash + recovery:
///   - the recovered id->payload mapping must EXACTLY equal some boundary
///     state b (commits are atomic: no torn or merged batches, no
///     resurrected deallocations, no values that were never committed);
///   - b >= floor, where floor is the newest boundary whose durability was
///     ACKNOWLEDGED to the caller (a durable Commit/Checkpoint returned
///     OK). Anything older would be a lost durable commit.
/// Boundaries above the floor are acceptable: an in-flight commit whose
/// final write fully reached the store legitimately survives, and internal
/// durable maintenance commits (cleaning, auto-checkpoints) may promote
/// not-yet-acknowledged state. The workload drivers report to it directly
/// as their CommitHook.
class StateOracle final : public workload::CommitHook {
 public:
  using State = std::map<uint64_t, Buffer>;

  /// Begins a commit attempt; pending ops apply to a scratch copy.
  void BeginCommit() override;
  void PendingWrite(uint64_t id, Buffer payload) override;
  void PendingRemove(uint64_t id) override;
  /// Seals the attempt as a boundary. `acked` = the store returned OK;
  /// `durable` = the commit was requested durable. Only an acked durable
  /// commit raises the floor.
  void EndCommit(bool acked, bool durable) override;

  /// A successful explicit Checkpoint() makes every prior commit durable.
  void MarkAllDurable();

  size_t boundaries() const { return states_.size(); }
  size_t floor() const { return floor_; }
  const std::set<uint64_t>& ids() const { return ids_; }
  const State& state(size_t boundary) const { return states_[boundary]; }
  const State& last_state() const { return states_.back(); }

  /// Matches a recovered mapping (absent id = NotFound) against the
  /// acceptable boundaries; returns the matched boundary index or an error
  /// describing the closest mismatch.
  Result<size_t> MatchRecovered(const State& recovered) const;

 private:
  std::vector<State> states_{State{}};  // states_[0]: empty store.
  State pending_;
  size_t floor_ = 0;
  std::set<uint64_t> ids_;
};

}  // namespace tdb::harness

#endif  // TDB_HARNESS_ORACLE_H_
