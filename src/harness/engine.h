#ifndef TDB_HARNESS_ENGINE_H_
#define TDB_HARNESS_ENGINE_H_

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "chunk/chunk_store.h"
#include "collection/collection.h"
#include "common/result.h"
#include "harness/oracle.h"
#include "harness/trace.h"
#include "object/object_store.h"
#include "shard/sharded_chunk_store.h"

namespace tdb::harness {

/// The differential crash/tamper engine. Every layer plugs in as a small
/// Scenario (open, run, read back, probe); the engine owns the store
/// environment, case enumeration and ctest sharding, the crash case, the
/// tamper images and their evaluation, every check, the coverage stats and
/// the TDB-REPRO v1 lines. So every layer is held to the same checks:
///
/// crash case: run the trace against a fault-injecting store armed at one
///   write index x tear fraction, drop the stack, reboot (optionally
///   crashing again at `rcrash` during recovery), reopen, then require
///   that every shard's read-back state is an acceptable boundary of its
///   oracle, that the in-flight commit is all-or-nothing across shards,
///   that VerifyIntegrity passes, that a durable probe commits and reads
///   back, that recovery logged no audit event, and that Close is clean.
/// tamper case: XOR one byte of a crash-consistent image (the clean image
///   of a finished trace, or a crash image for kind=tamper2pc), reopen it
///   under a flight recorder, read it back and scrub it, then require the
///   change was detected or fully masked (state equal to the untampered
///   baseline), with exactly one audit event and one recorder bundle per
///   detection and none when masked.

/// One open store stack. The engine opens `chunks` (a ChunkStore, or a
/// ShardedChunkStore when the target has shards); the scenario layers its
/// own stores on top. Members are destroyed top-down.
struct Stack {
  std::unique_ptr<chunk::ChunkStoreInterface> chunks;
  shard::ShardedChunkStore* router = nullptr;  // `chunks` when sharded.
  std::unique_ptr<object::ObjectStore> objects;
  std::unique_ptr<collection::CollectionStore> collections;

  /// Top-down teardown without a clean close (a crash drops the stack).
  void Drop();
};

/// The commit a crash interrupted, for the cross-shard atomicity check.
struct InFlight {
  int commit = -1;                // Trace commit index; -1 = none.
  std::vector<int> participants;  // Oracles (shards) its batch touched.
};

/// Torn-write fractions nums[i]/den enumerated per crash point.
struct TearBuckets {
  std::vector<uint32_t> nums;
  uint32_t den = 4;
};

/// True for the statuses that report tampering: TamperDetected,
/// ReplayDetected, Corruption.
bool IsDetection(const Status& status);

/// A read-back error: a detection sets *detected and is absorbed, any
/// other error is returned.
Status SortReadError(const Status& status, bool* detected);

/// One layer's workload, in four steps.
class Scenario {
 public:
  explicit Scenario(Target target) : target_(std::move(target)) {}
  virtual ~Scenario() = default;

  const Target& target() const { return target_; }
  /// One oracle per shard (oracle k owns the ids with id % n == k).
  size_t oracles() const { return target_.shards > 0 ? target_.shards : 1; }
  /// Default: n/8 under the group preset (merged records are longer), n/4
  /// otherwise.
  virtual TearBuckets tears() const;

  /// Step 1: opens the scenario's stores over `stack->chunks`. `create` is
  /// set on the first open of a fresh store, before any crash is armed.
  virtual Status Open(Stack* stack, bool create);
  /// Step 2: runs the trace, mirroring every commit attempt into the
  /// oracles with boundaries aligned across them. A failed commit records
  /// the oracles it touched in `inflight` (may be null).
  virtual Status Run(Stack* stack, std::vector<StateOracle>* oracles,
                     InFlight* inflight) = 0;
  /// Step 3: reads back the state of every id in `ids`, keyed like the
  /// oracles (absent ids stay absent); see SortReadError.
  virtual Status ReadBack(Stack* stack, const std::set<uint64_t>& ids,
                          StateOracle::State* out, bool* detected) = 0;
  /// Step 4: commits a durable probe on a recovered stack and reads it
  /// back. Default: a multi-id batch (object stack: a multi-object
  /// transaction) that spans every shard.
  virtual Status Probe(Stack* stack);

 private:
  Target target_;
};

/// The scenario for a target's layer, or InvalidArgument.
Result<std::unique_ptr<Scenario>> MakeScenario(const Target& target);

/// The XOR mask every tamper sweep applies to a corrupted byte.
inline constexpr uint8_t kTamperMask = 0x40;

/// Dry-runs the trace (no crash) and returns the number of base-store
/// writes it performs after the stack is open: the N that a crash sweep
/// enumerates as write indices 0..N-1. `wrap` (tests only) interposes a
/// possibly buggy store between the memory image and the fault injector.
Result<uint64_t> CountWrites(const Target& target,
                             const StoreWrap& wrap = nullptr);

/// Runs one case (kind crash, tamper or tamper2pc). A failure Status
/// message begins with the case's repro line.
Status RunCase(const ReproCase& repro, SweepStats* stats = nullptr,
               const StoreWrap& wrap = nullptr);

/// Replays a single-line repro: OK means the case passes.
Status ReplayRepro(const std::string& line);

/// Exhaustive crash campaign: every write index x tear bucket, each with
/// `recovery_crash` as its rcrash. Ctest shard `shard` of `num_shards` runs
/// the cases with index % num_shards == shard.
Status CrashSweep(const Target& target, int shard, int num_shards,
                  SweepStats* stats = nullptr, int64_t recovery_crash = -1,
                  const StoreWrap& wrap = nullptr);

/// Exhaustive tamper campaign: the first, middle and last byte of every
/// classified region of the image, sharded like CrashSweep. `kind` is
/// "tamper" (the clean image) or "tamper2pc" (the image of the first crash
/// point, final write persisted whole, whose recovery resolves an in-doubt
/// cross-shard transaction).
Status TamperSweep(const Target& target, int shard, int num_shards,
                   SweepStats* stats = nullptr,
                   const std::string& kind = "tamper");

/// Prints one "HARNESS-COVERAGE campaign=... key=value ..." line to
/// stdout; `tools/check.sh --harness` tabulates them.
void PrintCoverage(const std::string& campaign, int shard, int num_shards,
                   const SweepStats& stats);

}  // namespace tdb::harness

#endif  // TDB_HARNESS_ENGINE_H_
