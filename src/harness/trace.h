#ifndef TDB_HARNESS_TRACE_H_
#define TDB_HARNESS_TRACE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/slice.h"
#include "platform/untrusted_store.h"

namespace tdb::harness {

/// Store-configuration preset used by a trace run. Presets (rather than
/// free-form options) keep a repro line a single short token.
enum class Preset {
  /// Cleaning and automatic checkpoints off: the only durable boundaries
  /// are the trace's own durable commits and explicit checkpoints, so the
  /// oracle check is as tight as possible. Nondurable commits buffer into
  /// the open commit group and each durable commit seals ONE merged
  /// multi-commit record, so crash sweeps over this preset use n/8 tear
  /// buckets to reach tear points inside the longer merged appends.
  kStrict,
  /// Small segments, aggressive cleaner and auto-checkpoints: covers the
  /// crash windows inside maintenance commits.
  kCleaning,
  /// Like kStrict but with the compress-before-encrypt codec on
  /// (ChunkStoreOptions::compression). SlotPayload is semi-compressible,
  /// so sweeps cover both compressed and stored-raw records: crash points
  /// land inside compressed appends and tamper sites hit compressed
  /// sealed payloads (whose corruption may surface as a decompression
  /// failure rather than a hash mismatch — still never silent).
  kCodec,
};

/// One logical operation inside a commit group. Slots are a small logical
/// namespace that each scenario maps to chunk/object ids at run time.
struct TraceOp {
  enum class Kind : uint8_t { kWrite, kDealloc };
  Kind kind = Kind::kWrite;
  uint32_t slot = 0;
  uint32_t size = 0;           // Payload bytes (kWrite only).
  uint64_t payload_seed = 0;   // Payload = SlotPayload(payload_seed, size).
};

/// One atomic commit group of a trace.
struct TraceCommit {
  std::vector<TraceOp> ops;
  bool durable = false;
  bool checkpoint_after = false;  // Explicit Checkpoint() after the commit.
};

/// Seeded workload shape. Every field that is not serialized into a repro
/// line must keep its default for repros to replay exactly.
struct TraceSpec {
  uint64_t seed = 1;
  uint32_t commits = 12;
  uint32_t slots = 12;
  Preset preset = Preset::kStrict;

  // Knobs below are not serialized into repro lines; leave at defaults.
  uint32_t max_ops_per_commit = 5;
  uint32_t min_value_bytes = 16;
  uint32_t max_value_bytes = 192;
  double p_durable = 0.5;
  double p_dealloc = 0.15;
  double p_checkpoint = 0.08;
  bool force_mid_checkpoint = true;  // Guarantees map-node records exist.
};

/// Deterministic trace expansion: the same spec always yields the same
/// commit groups, operations, and payload bytes.
std::vector<TraceCommit> GenerateTrace(const TraceSpec& spec);

/// Deterministic payload bytes for one write.
Buffer SlotPayload(uint64_t payload_seed, uint32_t size);

/// A crash point inside a trace run: the base-store write index at which
/// power fails, and which sector-aligned fraction of that write survives.
struct CrashCase {
  uint64_t write_index = 0;
  uint32_t tear_num = 4;
  uint32_t tear_den = 4;
  /// If >= 0, a second crash is armed at this write index *during
  /// recovery* after the first reboot (double-crash coverage).
  int64_t recovery_crash = -1;
};

/// Campaign coverage accounting. `write_points`, `tear_buckets` and the
/// tamper site counters describe the FULL sweep (identical across ctest
/// shards); every other field counts only the cases this shard ran.
struct SweepStats {
  uint64_t write_points = 0;  // Distinct crash write indices enumerated.
  uint64_t tear_buckets = 0;  // Torn-write fractions per crash point.
  uint64_t cases = 0;         // Cases this shard ran.
  uint64_t recovery_crashes = 0;  // Crash cases whose rcrash fired.
  uint64_t tamper_sites = 0;  // Corruption sites in the full campaign.
  uint64_t sites_per_class[4] = {0, 0, 0, 0};
  uint64_t detected = 0;      // Tamper cases flagged by the store.
  uint64_t masked = 0;        // Tamper cases fully masked (values intact).
  // Every detected tamper case must leave exactly one deduplicated audit
  // event and one flight-recorder bundle; masked cases and crash-normal
  // recoveries leave none. The engine fails a case that breaks this; the
  // tallies let tests assert audit_events == recorder_bundles == detected.
  uint64_t audit_events = 0;
  uint64_t recorder_bundles = 0;
};

/// Lets a test interpose its own (possibly buggy) store between the
/// in-memory base store and the fault injector; used to prove the harness
/// catches real bugs. The returned pointer must stay valid for the run.
using StoreWrap =
    std::function<platform::UntrustedStore*(platform::UntrustedStore*)>;

/// What a campaign runs: one layer's scenario over one trace.
struct Target {
  /// "chunk" | "object" | "collection" | "shard" | "objshard", or a
  /// workload scenario: "ycsb" | "timeseries" | "largeobject" | "tpcb".
  std::string layer = "chunk";
  TraceSpec spec;
  /// Shard count for the sharded layers ("shard", "objshard"); 0 elsewhere.
  uint32_t shards = 0;
};

/// A parsed single-line repro: the target plus one case of it. Failures
/// print `FormatRepro(...)` so any failing case replays via ReplayRepro().
struct ReproCase : Target {
  /// "crash" | "tamper", or "tamper2pc" (shard layer only): tamper a byte
  /// of a mid-two-phase-commit crash image. The crash fields locate the
  /// crash that left 2PC staging records live, the tamper fields the
  /// corrupted byte.
  std::string kind = "crash";
  CrashCase crash;              // kind == "crash" | "tamper2pc".
  std::string tamper_file;      // kind == "tamper" | "tamper2pc".
  uint64_t tamper_offset = 0;
  uint32_t tamper_mask = 0;
};

/// e.g. "TDB-REPRO v1 layer=chunk kind=crash preset=strict seed=7
///       commits=12 slots=12 point=17 tear=2/4 rcrash=-1"
std::string FormatRepro(const ReproCase& repro);
Result<ReproCase> ParseRepro(const std::string& line);

const char* PresetName(Preset preset);

}  // namespace tdb::harness

#endif  // TDB_HARNESS_TRACE_H_
