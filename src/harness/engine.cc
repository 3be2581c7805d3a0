#include "harness/engine.h"

#include <algorithm>
#include <iostream>
#include <sstream>

#include "common/flight_recorder.h"
#include "crypto/cipher_suite.h"
#include "harness/region_map.h"
#include "platform/fault_injection.h"
#include "platform/mem_store.h"
#include "platform/one_way_counter.h"
#include "platform/prefix_store.h"
#include "platform/secret_store.h"

namespace tdb::harness {

void Stack::Drop() {
  collections.reset();
  objects.reset();
  router = nullptr;
  chunks.reset();
}

bool IsDetection(const Status& status) {
  return status.IsTamperDetected() || status.IsReplayDetected() ||
         status.IsCorruption();
}

Status SortReadError(const Status& status, bool* detected) {
  if (!IsDetection(status)) return status;
  *detected = true;
  return Status::OK();
}

namespace {

/// Store options for a preset (see Preset). Every knob a repro line does
/// not carry comes from here, so repros replay bit-exactly.
chunk::ChunkStoreOptions PresetOptions(Preset preset) {
  chunk::ChunkStoreOptions options;
  options.security = crypto::SecurityConfig::Modern();
  options.map_fanout = 8;
  options.cache_bytes = 256 * 1024;
  options.crypto_threads = 0;  // Serial: thousands of short-lived stores.
  // Serial 2PC phases too: crash sweeps enumerate points by the GLOBAL
  // write index across the shared fault injector, so the coordinator's
  // write order must be deterministic (and the injector single-threaded).
  options.txn_coordinator_threads = 0;
  if (preset == Preset::kStrict || preset == Preset::kGroup ||
      preset == Preset::kCodec) {
    // No maintenance commits besides the trace's own checkpoints: the set
    // of durable boundaries is exactly what the oracle models. kGroup
    // additionally coalesces nondurable commits into merged multi-commit
    // records, so the durable boundaries (and crash-tear geometry) differ
    // while the oracle invariant stays identical. kCodec compresses each
    // record before sealing; boundaries are unchanged, the record bytes
    // (and hence crash/tamper sites) are.
    options.segment_size = 4096;
    options.checkpoint_interval_bytes = 1ull << 40;
    options.max_clean_segments_per_commit = 0;
    options.max_utilization = 0.95;
    options.group_commit = (preset == Preset::kGroup);
    options.compression = (preset == Preset::kCodec);
  } else {
    // Aggressive maintenance: crash points inside auto-checkpoint and
    // cleaning commits.
    options.segment_size = 2048;
    options.checkpoint_interval_bytes = 16 * 1024;
    options.max_clean_segments_per_commit = 2;
    options.max_utilization = 0.6;
  }
  return options;
}

constexpr const char* kMasterSecret = "tdb-harness-master-secret-32byte";

/// One store environment: a memory image, an optional buggy wrapper, the
/// fault injector (one global write index across every shard), the
/// trusted secret, and one counter per shard. Sharded targets see each
/// shard through its own "s<k>/" window; unsharded ones use the injector
/// directly, so their file names carry no prefix.
struct Env {
  platform::MemUntrustedStore mem;
  std::unique_ptr<platform::FaultInjectingStore> faulty;
  std::vector<std::unique_ptr<platform::PrefixedStore>> windows;
  platform::MemSecretStore secrets;
  std::vector<platform::MemOneWayCounter> counters;

  Env(const Target& target, const StoreWrap& wrap)
      : counters(std::max<uint32_t>(1, target.shards)) {
    faulty = std::make_unique<platform::FaultInjectingStore>(
        wrap ? wrap(&mem) : &mem);
    for (uint32_t k = 0; k < target.shards; k++) {
      windows.push_back(std::make_unique<platform::PrefixedStore>(
          "s" + std::to_string(k) + "/", faulty.get()));
    }
    (void)secrets.Provision(kMasterSecret);
  }

  std::vector<uint64_t> CounterValues() const {
    std::vector<uint64_t> values;
    for (const auto& counter : counters) values.push_back(*counter.Read());
    return values;
  }
};

/// Opens the whole stack; on failure the stack is left empty. `metrics`,
/// when set, is injected so the audit trail of a failed open survives.
Status OpenStack(Scenario& scenario, Env* env, bool create,
                 std::shared_ptr<common::MetricsRegistry> metrics,
                 Stack* stack) {
  chunk::ChunkStoreOptions options =
      PresetOptions(scenario.target().spec.preset);
  options.metrics = std::move(metrics);
  Status status;
  if (env->windows.empty()) {
    auto opened = chunk::ChunkStore::Open(env->faulty.get(), &env->secrets,
                                          &env->counters[0], options);
    status = opened.status();
    if (opened.ok()) stack->chunks = std::move(opened).value();
  } else {
    std::vector<shard::ShardBackend> backends;
    for (size_t k = 0; k < env->windows.size(); k++) {
      backends.push_back(
          {env->windows[k].get(), &env->secrets, &env->counters[k]});
    }
    auto opened = shard::ShardedChunkStore::Open(backends, options);
    status = opened.status();
    if (opened.ok()) {
      stack->router = opened.value().get();
      stack->chunks = std::move(opened).value();
    }
  }
  if (status.ok()) status = scenario.Open(stack, create);
  if (!status.ok()) stack->Drop();
  return status;
}

Status Fail(const ReproCase& repro, const std::string& detail) {
  return Status::Corruption(FormatRepro(repro) + " | " + detail);
}

ReproCase CaseOf(const Target& target, const std::string& kind) {
  ReproCase repro;
  static_cast<Target&>(repro) = target;
  repro.kind = kind;
  return repro;
}

std::set<uint64_t> AllIds(const std::vector<StateOracle>& oracles) {
  std::set<uint64_t> ids;
  for (const StateOracle& oracle : oracles) {
    ids.insert(oracle.ids().begin(), oracle.ids().end());
  }
  return ids;
}

/// Splits a read-back state by owning oracle (id % n).
std::vector<StateOracle::State> SplitByOracle(const StateOracle::State& all,
                                              size_t n) {
  std::vector<StateOracle::State> parts(n);
  for (const auto& [id, value] : all) parts[id % n][id] = value;
  return parts;
}

/// The durable-commit invariant, per shard.
Status MatchOracles(const std::vector<StateOracle>& oracles,
                    const std::vector<StateOracle::State>& parts) {
  for (size_t k = 0; k < oracles.size(); k++) {
    Result<size_t> matched = oracles[k].MatchRecovered(parts[k]);
    if (!matched.ok()) {
      return Status::Corruption(
          (oracles.size() > 1 ? "shard " + std::to_string(k) + ": " : "") +
          std::string(matched.status().message()));
    }
  }
  return Status::OK();
}

/// Cross-shard atomicity of the commit a crash interrupted: every
/// participant reflects it, or none does. (Any EARLIER cross-shard commit
/// was acked durable, so the per-shard floors already pin it everywhere.)
Status CheckInFlight(const std::vector<StateOracle>& oracles,
                     const std::vector<StateOracle::State>& parts,
                     const InFlight& inflight) {
  if (inflight.commit < 0 || inflight.participants.size() < 2) {
    return Status::OK();
  }
  const size_t post = static_cast<size_t>(inflight.commit) + 1;
  int included = 0, excluded = 0;
  for (int k : inflight.participants) {
    const StateOracle::State& with = oracles[k].state(post);
    if (with == oracles[k].state(post - 1)) continue;  // Uninformative.
    (parts[k] == with ? included : excluded)++;
  }
  if (included > 0 && excluded > 0) {
    return Status::Corruption(
        "cross-shard atomicity violation: in-flight commit " +
        std::to_string(inflight.commit) + " recovered on " +
        std::to_string(included) + " participant(s) but lost on " +
        std::to_string(excluded));
  }
  return Status::OK();
}

std::string AuditEventsToString(
    const std::vector<common::AuditEvent>& events) {
  std::string out;
  for (const common::AuditEvent& e : events) {
    if (!out.empty()) out += ", ";
    out += e.kind + "@" + e.location + " region=" + std::to_string(e.region) +
           " x" + std::to_string(e.count);
  }
  return out.empty() ? "<none>" : out;
}

Status RunCrash(Scenario& scenario, const CrashCase& crash,
                SweepStats* stats, const StoreWrap& wrap) {
  ReproCase repro = CaseOf(scenario.target(), "crash");
  repro.crash = crash;
  Env env(scenario.target(), wrap);
  Stack stack;
  Status opened = OpenStack(scenario, &env, true, nullptr, &stack);
  if (!opened.ok()) {
    return Fail(repro, "initial open failed: " + opened.ToString());
  }
  std::vector<StateOracle> oracles(scenario.oracles());
  InFlight inflight;
  env.faulty->CrashAtWrite(crash.write_index, crash.tear_num, crash.tear_den);
  Status run = scenario.Run(&stack, &oracles, &inflight);
  if (!run.ok() && !env.faulty->crashed()) {
    return Fail(repro, "trace op failed without a crash: " + run.ToString());
  }
  // No clean close. If the crash has not fired yet (write index beyond the
  // trace), it tears the destructors' best-effort checkpoint instead.
  stack.Drop();

  env.faulty->Reboot();
  if (crash.recovery_crash >= 0) {
    env.faulty->CrashAtWrite(static_cast<uint64_t>(crash.recovery_crash), 1,
                             2);
  }
  // Recovery of a crash-normal image must never log security audit events
  // (torn tails are expected, not attacks); the injected registry outlives
  // failed opens so nothing is missed.
  auto metrics = std::make_shared<common::MetricsRegistry>();
  opened = OpenStack(scenario, &env, false, metrics, &stack);
  if (env.faulty->crashed() && stats != nullptr) stats->recovery_crashes++;
  if (!opened.ok()) {
    if (!env.faulty->crashed()) {
      return Fail(repro, "recovery failed on a legitimate crash image: " +
                             opened.ToString());
    }
    env.faulty->Reboot();
    opened = OpenStack(scenario, &env, false, metrics, &stack);
    if (!opened.ok()) {
      return Fail(repro, "recovery failed after recovery-time crash: " +
                             opened.ToString());
    }
  } else {
    env.faulty->Reboot();  // Disarm a recovery crash that never fired.
  }

  StateOracle::State recovered;
  bool detected = false;
  Status read = scenario.ReadBack(&stack, AllIds(oracles), &recovered,
                                  &detected);
  if (!read.ok() || detected) {
    return Fail(repro, "post-recovery read back: " +
                           (read.ok() ? "tampering reported on a "
                                        "crash-normal image"
                                      : read.ToString()));
  }
  std::vector<StateOracle::State> parts =
      SplitByOracle(recovered, oracles.size());
  Status checked = MatchOracles(oracles, parts);
  if (checked.ok()) checked = CheckInFlight(oracles, parts, inflight);
  if (!checked.ok()) return Fail(repro, std::string(checked.message()));

  uint64_t scrubbed = 0;
  Status verify = stack.chunks->VerifyIntegrity(&scrubbed);
  if (!verify.ok()) {
    return Fail(repro, "post-recovery VerifyIntegrity: " + verify.ToString());
  }
  Status probe = scenario.Probe(&stack);
  if (!probe.ok()) {
    return Fail(repro, "post-recovery durable probe: " + probe.ToString());
  }
  if (metrics->audit().size() != 0) {
    return Fail(repro, "crash-normal recovery logged audit events: " +
                           AuditEventsToString(metrics->audit().Events()));
  }
  stack.collections.reset();
  stack.objects.reset();
  Status close = stack.chunks->Close();
  if (!close.ok()) {
    return Fail(repro, "post-recovery close: " + close.ToString());
  }
  if (stats != nullptr) stats->cases++;
  return Status::OK();
}

/// What one reopen of an image showed.
struct Evaluation {
  bool detected = false;
  StateOracle::State values;
  std::vector<common::AuditEvent> audit;
  uint64_t audit_bundles = 0;     // Flight-recorder bundles per detection.
  uint64_t incident_bundles = 0;  // Bundles for in-doubt 2PC resolutions.
  uint64_t resolved_indoubt = 0;  // Router: in-doubt txns recovery settled.
};

Status ReadImage(Scenario& scenario, Env* env,
                 std::shared_ptr<common::MetricsRegistry> metrics,
                 const std::set<uint64_t>& ids, Evaluation* eval) {
  Stack stack;
  Status opened = OpenStack(scenario, env, false, std::move(metrics), &stack);
  if (!opened.ok()) {
    if (IsDetection(opened)) {
      eval->detected = true;
      return Status::OK();
    }
    return Status::Corruption("open failed with unexpected status: " +
                              opened.ToString());
  }
  if (stack.router != nullptr) {
    const shard::RouterStats rs = stack.router->router_stats();
    eval->resolved_indoubt = rs.recovered_commits + rs.recovered_aborts;
  }
  Status read =
      scenario.ReadBack(&stack, ids, &eval->values, &eval->detected);
  if (!read.ok()) {
    return Status::Corruption("read back failed with unexpected status: " +
                              read.ToString());
  }
  uint64_t checked = 0;
  Status verify = stack.chunks->VerifyIntegrity(&checked);
  if (!verify.ok()) {
    if (!IsDetection(verify)) {
      return Status::Corruption("VerifyIntegrity unexpected status: " +
                                verify.ToString());
    }
    eval->detected = true;
  }
  return Status::OK();
}

/// Reopens an image the way production would (with a flight recorder
/// attached), reads every id back and scrubs it. The audit trail and the
/// recorder are read after the stack is gone, so detections during a
/// failed open or a teardown are counted too.
Status EvaluateImage(Scenario& scenario,
                     const platform::MemUntrustedStore::Image& image,
                     const std::vector<uint64_t>& counter_values,
                     const std::set<uint64_t>& ids, Evaluation* eval) {
  Env env(scenario.target(), nullptr);
  env.mem.RestoreImage(image);
  for (size_t k = 0; k < env.counters.size(); k++) {
    while (*env.counters[k].Read() < counter_values[k]) {
      (void)env.counters[k].Increment();
    }
  }
  auto registry = std::make_shared<common::MetricsRegistry>();
  common::FlightRecorderOptions recorder_options;
  recorder_options.max_spans = 64;
  common::FlightRecorder recorder(registry, recorder_options);
  Status status = ReadImage(scenario, &env, registry, ids, eval);
  eval->audit = registry->audit().Events();
  for (const common::FlightBundle& bundle : recorder.bundles()) {
    (bundle.reason.rfind("audit:", 0) == 0 ? eval->audit_bundles
                                           : eval->incident_bundles)++;
  }
  return status;
}

/// A crash-consistent image, what its untampered reopen reads back, and
/// its classified tamper regions.
struct TamperImage {
  platform::MemUntrustedStore::Image image;
  std::vector<uint64_t> counter_values;
  std::set<uint64_t> ids;
  StateOracle::State baseline;
  uint64_t resolved_indoubt = 0;
  std::vector<TamperRegion> regions;
};

/// Runs the trace and captures its image: the clean image, snapshotted
/// before close so it keeps a residual log (the attacker grabs the media
/// mid-lifetime), or, given `crash`, the image that crash leaves behind
/// (NotFound if the crash point lies beyond the trace). Then checks the
/// untampered reopen: no detection, no audit event, one incident bundle
/// per in-doubt resolution and nothing else, and a state its oracles
/// accept.
Status BuildImage(Scenario& scenario, const CrashCase* crash,
                  TamperImage* out) {
  Env env(scenario.target(), nullptr);
  Stack stack;
  TDB_RETURN_IF_ERROR(OpenStack(scenario, &env, true, nullptr, &stack));
  std::vector<StateOracle> oracles(scenario.oracles());
  if (crash != nullptr) {
    env.faulty->CrashAtWrite(crash->write_index, crash->tear_num,
                             crash->tear_den);
  }
  Status run = scenario.Run(&stack, &oracles, nullptr);
  if (crash != nullptr) {
    if (run.ok() || !env.faulty->crashed()) {
      return Status::NotFound("crash point beyond the trace");
    }
    stack.Drop();
    env.faulty->Reboot();
  } else {
    TDB_RETURN_IF_ERROR(run);
  }
  out->image = env.mem.SnapshotImage();
  out->counter_values = env.CounterValues();
  out->ids = AllIds(oracles);
  out->regions = ClassifyImage(out->image);

  Evaluation eval;
  Status status =
      EvaluateImage(scenario, out->image, out->counter_values, out->ids, &eval);
  if (!status.ok()) {
    return Status::Corruption("untampered image reopen failed: " +
                              status.ToString());
  }
  if (eval.detected || !eval.audit.empty() || eval.audit_bundles != 0) {
    return Status::Corruption(
        "untampered image reopen flagged tampering (audit: " +
        AuditEventsToString(eval.audit) + ", " +
        std::to_string(eval.audit_bundles) + " bundle(s))");
  }
  if (eval.incident_bundles != eval.resolved_indoubt) {
    return Status::Corruption(
        "recovery resolved " + std::to_string(eval.resolved_indoubt) +
        " in-doubt txn(s) but the flight recorder wrote " +
        std::to_string(eval.incident_bundles) + " incident bundle(s)");
  }
  Status matched =
      MatchOracles(oracles, SplitByOracle(eval.values, oracles.size()));
  if (!matched.ok()) {
    return Status::Corruption("untampered image violates the oracle: " +
                              std::string(matched.message()));
  }
  out->baseline = std::move(eval.values);
  out->resolved_indoubt = eval.resolved_indoubt;
  return Status::OK();
}

/// Audit regions a tampered byte of `cls` may legitimately surface as.
/// The byte's structural class and the detector that fires need not match
/// exactly: e.g. a corrupted payload byte inside the residual log breaks
/// the recovery scan, which the store reports as a log/counter-level
/// replay detection rather than a payload hash mismatch.
bool AuditRegionCompatible(RegionClass cls, int region) {
  switch (cls) {
    case RegionClass::kAnchorSlot:
      return region == common::kRegionAnchor ||
             region == common::kRegionCounter ||
             region == common::kRegionLog;
    case RegionClass::kLogStructure:
      return region == common::kRegionLog ||
             region == common::kRegionCounter ||
             region == common::kRegionTxn;
    case RegionClass::kChunkPayload:
      // kRegionTxn: a corrupted byte of a sealed 2PC prepare/decision
      // record usually fails the shard's payload hash first, but a record
      // that still decrypts and then fails its transaction-level MAC or
      // chain linkage surfaces as a router-level detection.
      return region == common::kRegionPayload ||
             region == common::kRegionLog ||
             region == common::kRegionCounter ||
             region == common::kRegionTxn;
    case RegionClass::kLocationMap:
      return region == common::kRegionMap ||
             region == common::kRegionLog ||
             region == common::kRegionCounter;
  }
  return false;
}

/// The audit-trail contract for one tamper case: a detected corruption
/// leaves exactly one deduplicated audit event (never zero, never several
/// for one corrupted byte) with a region compatible with the byte's class,
/// and exactly one flight-recorder bundle; a masked corruption leaves
/// neither.
Status CheckTamperAudit(const ReproCase& repro, const Evaluation& eval,
                        const TamperRegion* region) {
  const std::vector<common::AuditEvent>& audit = eval.audit;
  if (eval.audit_bundles != audit.size()) {
    return Fail(repro, "flight recorder wrote " +
                           std::to_string(eval.audit_bundles) +
                           " bundle(s) for " + std::to_string(audit.size()) +
                           " audit event(s), want one bundle per event: " +
                           AuditEventsToString(audit));
  }
  if (!eval.detected) {
    if (audit.empty()) return Status::OK();
    return Fail(repro, "masked tamper left audit events: " +
                           AuditEventsToString(audit));
  }
  if (audit.size() != 1) {
    return Fail(repro, "tamper detected with " + std::to_string(audit.size()) +
                           " audit events, want exactly 1 deduplicated: " +
                           AuditEventsToString(audit));
  }
  if (region != nullptr && !AuditRegionCompatible(region->cls,
                                                  audit[0].region)) {
    return Fail(repro, std::string("audit region incompatible with class ") +
                           RegionClassName(region->cls) + ": " +
                           AuditEventsToString(audit));
  }
  return Status::OK();
}

Status RunTamperSite(Scenario& scenario, const TamperImage& img,
                     const ReproCase& repro, SweepStats* stats) {
  auto file = img.image.find(repro.tamper_file);
  if (file == img.image.end() || repro.tamper_offset >= file->second.size()) {
    return Fail(repro, "tamper site outside the image");
  }
  platform::MemUntrustedStore::Image tampered = img.image;
  tampered[repro.tamper_file][repro.tamper_offset] ^=
      static_cast<uint8_t>(repro.tamper_mask);
  Evaluation eval;
  Status status =
      EvaluateImage(scenario, tampered, img.counter_values, img.ids, &eval);
  if (!status.ok()) return Fail(repro, std::string(status.message()));
  if (!eval.detected && eval.values != img.baseline) {
    return Fail(repro,
                "SILENT ACCEPTANCE: the stack validated but its read-back "
                "state differs from the untampered baseline");
  }
  const TamperRegion* region = nullptr;
  for (const TamperRegion& r : img.regions) {
    if (r.file == repro.tamper_file && repro.tamper_offset >= r.offset &&
        repro.tamper_offset < r.offset + r.length) {
      region = &r;
    }
  }
  TDB_RETURN_IF_ERROR(CheckTamperAudit(repro, eval, region));
  if (stats != nullptr) {
    stats->cases++;
    (eval.detected ? stats->detected : stats->masked)++;
    stats->audit_events += eval.audit.size();
    stats->recorder_bundles += eval.audit_bundles;
  }
  return Status::OK();
}

Result<uint64_t> CountScenarioWrites(Scenario& scenario,
                                     const StoreWrap& wrap) {
  Env env(scenario.target(), wrap);
  Stack stack;
  TDB_RETURN_IF_ERROR(OpenStack(scenario, &env, true, nullptr, &stack));
  std::vector<StateOracle> oracles(scenario.oracles());
  const uint64_t opened = env.faulty->writes_seen();
  TDB_RETURN_IF_ERROR(scenario.Run(&stack, &oracles, nullptr));
  return env.faulty->writes_seen() - opened;
}

Result<CrashCase> FindMid2pc(Scenario& scenario) {
  TDB_ASSIGN_OR_RETURN(uint64_t writes, CountScenarioWrites(scenario, nullptr));
  for (uint64_t point = 0; point < writes; point++) {
    CrashCase crash;
    crash.write_index = point;
    crash.tear_num = 4;  // Whole final write persists: staging survives.
    crash.tear_den = 4;
    TamperImage img;
    Status built = BuildImage(scenario, &crash, &img);
    if (built.IsNotFound()) continue;
    TDB_RETURN_IF_ERROR(built);
    if (img.resolved_indoubt > 0) return crash;
  }
  return Status::NotFound(
      "no crash point leaves an in-doubt cross-shard transaction (does the "
      "trace produce multi-shard commits?)");
}

bool InShard(uint64_t index, int shard, int num_shards) {
  return num_shards <= 1 ||
         index % static_cast<uint64_t>(num_shards) ==
             static_cast<uint64_t>(shard);
}

}  // namespace

Result<uint64_t> CountWrites(const Target& target, const StoreWrap& wrap) {
  TDB_ASSIGN_OR_RETURN(std::unique_ptr<Scenario> scenario,
                       MakeScenario(target));
  return CountScenarioWrites(*scenario, wrap);
}

Status RunCase(const ReproCase& repro, SweepStats* stats,
               const StoreWrap& wrap) {
  TDB_ASSIGN_OR_RETURN(std::unique_ptr<Scenario> scenario,
                       MakeScenario(repro));
  if (repro.kind == "crash") {
    return RunCrash(*scenario, repro.crash, stats, wrap);
  }
  TamperImage img;
  Status built = BuildImage(
      *scenario, repro.kind == "tamper2pc" ? &repro.crash : nullptr, &img);
  if (!built.ok()) return Fail(repro, built.ToString());
  return RunTamperSite(*scenario, img, repro, stats);
}

Status ReplayRepro(const std::string& line) {
  TDB_ASSIGN_OR_RETURN(ReproCase repro, ParseRepro(line));
  return RunCase(repro);
}

Status CrashSweep(const Target& target, int shard, int num_shards,
                  SweepStats* stats, int64_t recovery_crash,
                  const StoreWrap& wrap) {
  TDB_ASSIGN_OR_RETURN(std::unique_ptr<Scenario> scenario,
                       MakeScenario(target));
  TDB_ASSIGN_OR_RETURN(uint64_t writes, CountScenarioWrites(*scenario, wrap));
  const TearBuckets tears = scenario->tears();
  if (stats != nullptr) {
    stats->write_points = writes;
    stats->tear_buckets = tears.nums.size();
  }
  uint64_t index = 0;
  for (uint64_t point = 0; point < writes; point++) {
    for (uint32_t tear : tears.nums) {
      if (!InShard(index++, shard, num_shards)) continue;
      CrashCase crash;
      crash.write_index = point;
      crash.tear_num = tear;
      crash.tear_den = tears.den;
      crash.recovery_crash = recovery_crash;
      TDB_RETURN_IF_ERROR(RunCrash(*scenario, crash, stats, wrap));
    }
  }
  return Status::OK();
}

Status TamperSweep(const Target& target, int shard, int num_shards,
                   SweepStats* stats, const std::string& kind) {
  TDB_ASSIGN_OR_RETURN(std::unique_ptr<Scenario> scenario,
                       MakeScenario(target));
  ReproCase repro = CaseOf(target, kind);
  if (kind == "tamper2pc") {
    TDB_ASSIGN_OR_RETURN(repro.crash, FindMid2pc(*scenario));
  }
  TamperImage img;
  TDB_RETURN_IF_ERROR(BuildImage(
      *scenario, kind == "tamper2pc" ? &repro.crash : nullptr, &img));
  uint64_t index = 0;
  for (const TamperRegion& region : img.regions) {
    std::vector<uint64_t> sites{0};  // First, middle, last byte.
    if (region.length > 2) sites.push_back(region.length / 2);
    if (region.length > 1) sites.push_back(region.length - 1);
    for (uint64_t rel : sites) {
      if (stats != nullptr) {
        stats->tamper_sites++;
        stats->sites_per_class[static_cast<int>(region.cls)]++;
      }
      if (!InShard(index++, shard, num_shards)) continue;
      repro.tamper_file = region.file;
      repro.tamper_offset = region.offset + rel;
      repro.tamper_mask = kTamperMask;
      TDB_RETURN_IF_ERROR(RunTamperSite(*scenario, img, repro, stats));
    }
  }
  return Status::OK();
}

void PrintCoverage(const std::string& campaign, int shard, int num_shards,
                   const SweepStats& stats) {
  std::ostringstream line;
  line << "HARNESS-COVERAGE campaign=" << campaign << " shard=" << shard
       << "/" << num_shards << " write_points=" << stats.write_points
       << " tear_buckets=" << stats.tear_buckets << " cases=" << stats.cases
       << " rcrashes=" << stats.recovery_crashes
       << " tamper_sites=" << stats.tamper_sites
       << " anchor=" << stats.sites_per_class[0]
       << " log=" << stats.sites_per_class[1]
       << " payload=" << stats.sites_per_class[2]
       << " map=" << stats.sites_per_class[3]
       << " detected=" << stats.detected << " masked=" << stats.masked
       << " audit=" << stats.audit_events
       << " bundles=" << stats.recorder_bundles;
  std::cout << line.str() << std::endl;
}

}  // namespace tdb::harness
