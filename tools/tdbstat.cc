// tdbstat — observability inspector for TDB.
//
// Three modes:
//
//   tdbstat <db-dir> <secret-file> <counter-file> [--verify] [--list]
//           [--insecure] [--json]
//     Opens a database image STRICTLY READ-ONLY and prints its metrics
//     registry (counters, gauges, latency histograms, security audit
//     trail) plus store statistics; --verify runs the full integrity
//     scrub, --list enumerates the root object, the collections and their
//     indexes. Recovery writes (checkpoints, log truncation, counter bumps)
//     are diverted into an in-memory copy-on-write overlay and a shadow
//     counter, so inspecting an image — even a crashed or tampered one —
//     never mutates a byte on disk or advances the one-way counter.
//
//   tdbstat --snapshot <metrics.json> [--json]
//     Attaches to a metrics snapshot emitted by a bench run
//     (`bench/... --metrics-json=FILE`) and renders the same report.
//
//   tdbstat --check <metrics.json> [--require NAME]...
//     Validates that the file is a well-formed metrics snapshot
//     (parseable, internally consistent histograms, sane audit entries).
//     Each --require NAME additionally demands that instrument NAME
//     exists and is nonzero (counter/gauge value, or histogram count).
//     Exit 0 on success, 1 on any violation. Used by check.sh --metrics.
//
//   tdbstat --health <metrics.json>
//     Runs the offline health invariants (sync amortization ratio, group
//     flush stall, cache collapse, leaked in-flight 2PC, shard skew) over
//     a persisted snapshot. Exit 0 when clean, 1 when any check fires.
//
//   tdbstat --trace <trace.json>
//     Validates a Chrome/Perfetto trace file exported by TDB: parses it
//     and checks that every trace forms exactly one rooted, acyclic span
//     tree. Exit 0 when every tree validates, 1 otherwise.
//
//   tdbstat --trace <out.json> <db-dir> <secret-file> <counter-file> ...
//     Live capture: opens the image with tracing enabled, records the
//     open/recovery (and --verify scrub) under a "tdbstat.inspect" root
//     span, exports the resulting tree to <out.json>, and validates it.
//
// --json prints the snapshot as canonical JSON instead of a table.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "chunk/chunk_store.h"
#include "collection/collection.h"
#include "common/health.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "common/trace_export.h"
#include "object/object_store.h"
#include "platform/file_store.h"
#include "platform/one_way_counter.h"
#include "platform/secret_store.h"
#include "platform/untrusted_store.h"

using namespace tdb;

namespace {

int Fail(const Status& s, const char* what) {
  std::fprintf(stderr, "tdbstat: %s: %s\n", what, s.ToString().c_str());
  return 1;
}

/// Copy-on-write view of an untrusted store: reads fall through to the
/// base image until a file is written, after which the overlay copy is
/// authoritative. All mutations (writes, truncates, creates, removes,
/// syncs) touch only the overlay, so the on-disk image is never changed.
class ReadOnlyOverlayStore final : public platform::UntrustedStore {
 public:
  explicit ReadOnlyOverlayStore(const platform::UntrustedStore* base)
      : base_(base) {}

  Status Create(const std::string& name, bool overwrite) override {
    if (!overwrite && Exists(name)) {
      return Status::AlreadyExists("file exists: " + name);
    }
    removed_.erase(name);
    overlay_[name] = Buffer();
    return Status::OK();
  }

  Status Remove(const std::string& name) override {
    overlay_.erase(name);
    removed_.insert(name);
    return Status::OK();
  }

  bool Exists(const std::string& name) const override {
    if (overlay_.count(name)) return true;
    if (removed_.count(name)) return false;
    return base_->Exists(name);
  }

  Status Read(const std::string& name, uint64_t offset, size_t n,
              Buffer* out) const override {
    auto it = overlay_.find(name);
    if (it == overlay_.end()) {
      if (removed_.count(name)) {
        return Status::NotFound("no such file: " + name);
      }
      return base_->Read(name, offset, n, out);
    }
    const Buffer& data = it->second;
    if (offset + n > data.size()) {
      return Status::Corruption("read past end of file: " + name);
    }
    out->assign(data.begin() + static_cast<ptrdiff_t>(offset),
                data.begin() + static_cast<ptrdiff_t>(offset + n));
    return Status::OK();
  }

  Status Write(const std::string& name, uint64_t offset,
               Slice data) override {
    TDB_RETURN_IF_ERROR(Materialize(name));
    Buffer& file = overlay_[name];
    if (offset + data.size() > file.size()) {
      file.resize(offset + data.size(), 0);
    }
    std::memcpy(file.data() + offset, data.data(), data.size());
    return Status::OK();
  }

  Result<uint64_t> Size(const std::string& name) const override {
    auto it = overlay_.find(name);
    if (it != overlay_.end()) {
      return static_cast<uint64_t>(it->second.size());
    }
    if (removed_.count(name)) {
      return Status::NotFound("no such file: " + name);
    }
    return base_->Size(name);
  }

  Status Truncate(const std::string& name, uint64_t size) override {
    TDB_RETURN_IF_ERROR(Materialize(name));
    overlay_[name].resize(size, 0);
    return Status::OK();
  }

  Status Sync(const std::string&) override { return Status::OK(); }

  std::vector<std::string> List() const override {
    std::set<std::string> names;
    for (const std::string& n : base_->List()) {
      if (!removed_.count(n)) names.insert(n);
    }
    for (const auto& [n, _] : overlay_) names.insert(n);
    return {names.begin(), names.end()};
  }

 private:
  // Pulls the base copy of `name` into the overlay before first mutation.
  Status Materialize(const std::string& name) {
    if (overlay_.count(name)) return Status::OK();
    if (!removed_.count(name) && base_->Exists(name)) {
      auto size = base_->Size(name);
      if (!size.ok()) return size.status();
      Buffer data;
      if (*size > 0) {
        TDB_RETURN_IF_ERROR(base_->Read(name, 0, *size, &data));
      }
      overlay_[name] = std::move(data);
    } else {
      overlay_[name] = Buffer();
    }
    removed_.erase(name);
    return Status::OK();
  }

  const platform::UntrustedStore* base_;
  std::map<std::string, Buffer> overlay_;
  std::set<std::string> removed_;
};

/// Shadow of a one-way counter: the initial value is read from the real
/// device, but increments (recovery replays a residual log, checkpoint
/// bumps) advance only the in-memory shadow. The hardware counter is
/// never consumed by inspection.
class ShadowOneWayCounter final : public platform::OneWayCounter {
 public:
  explicit ShadowOneWayCounter(const platform::OneWayCounter* base)
      : base_(base) {}

  Result<uint64_t> Read() const override {
    if (!loaded_) {
      auto v = base_->Read();
      if (!v.ok()) return v.status();
      shadow_ = *v;
      loaded_ = true;
    }
    return shadow_;
  }

  Result<uint64_t> Increment() override {
    auto v = Read();
    if (!v.ok()) return v.status();
    shadow_ = *v + 1;
    return shadow_;
  }

 private:
  const platform::OneWayCounter* base_;
  mutable bool loaded_ = false;
  mutable uint64_t shadow_ = 0;
};

const char* RegionName(int region) {
  switch (region) {
    case common::kRegionAnchor:
      return "anchor";
    case common::kRegionLog:
      return "log";
    case common::kRegionPayload:
      return "payload";
    case common::kRegionMap:
      return "map";
    case common::kRegionCounter:
      return "counter";
    default:
      return "unknown";
  }
}

void PrintSnapshot(const common::MetricsSnapshot& snap) {
  if (!snap.counters.empty()) {
    std::printf("counters:\n");
    for (const auto& [name, value] : snap.counters) {
      std::printf("  %-32s %lld\n", name.c_str(), (long long)value);
    }
  }
  if (!snap.gauges.empty()) {
    std::printf("gauges:\n");
    for (const auto& [name, value] : snap.gauges) {
      std::printf("  %-32s %lld\n", name.c_str(), (long long)value);
    }
  }
  if (!snap.histograms.empty()) {
    std::printf("histograms:\n");
    std::printf("  %-32s %10s %10s %8s %8s %8s %8s\n", "name", "count",
                "mean", "p50", "p95", "p99", "max");
    for (const auto& [name, h] : snap.histograms) {
      std::printf("  %-32s %10llu %10.1f %8lld %8lld %8lld %8lld\n",
                  name.c_str(), (unsigned long long)h.count, h.mean(),
                  (long long)h.Percentile(0.50),
                  (long long)h.Percentile(0.95),
                  (long long)h.Percentile(0.99), (long long)h.max);
    }
  }
  std::printf("audit:        %zu distinct event(s), %llu total, %llu "
              "dropped\n",
              snap.audit.size(), (unsigned long long)snap.audit_total,
              (unsigned long long)snap.audit_dropped);
  for (const common::AuditEvent& ev : snap.audit) {
    std::printf("  [%s] %s @ %s x%llu: %s\n", RegionName(ev.region),
                ev.kind.c_str(), ev.location.c_str(),
                (unsigned long long)ev.count, ev.message.c_str());
  }
}

Result<std::string> ReadFileToString(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open " + path);
  std::ostringstream out;
  out << in.rdbuf();
  if (!in.good() && !in.eof()) {
    return Status::IOError("read failed: " + path);
  }
  return out.str();
}

/// Schema + consistency validation of a metrics JSON dump. Returns OK or
/// a descriptive error; `required` names must exist and be nonzero.
Status ValidateSnapshot(const common::MetricsSnapshot& snap,
                        const std::vector<std::string>& required) {
  for (const auto& [name, h] : snap.histograms) {
    if (name.empty()) return Status::Corruption("histogram with empty name");
    uint64_t bucket_total = 0;
    for (uint64_t b : h.buckets) bucket_total += b;
    if (bucket_total != h.count) {
      return Status::Corruption(
          "histogram '" + name + "': bucket total " +
          std::to_string(bucket_total) + " != count " +
          std::to_string(h.count));
    }
    if (h.count == 0 && (h.sum != 0 || h.max != 0)) {
      return Status::Corruption("histogram '" + name +
                                "': empty but sum/max nonzero");
    }
    if (h.count > 0 && h.max > 0 && h.sum < h.max) {
      return Status::Corruption("histogram '" + name + "': sum < max");
    }
  }
  for (const auto& [name, _] : snap.counters) {
    if (name.empty()) return Status::Corruption("counter with empty name");
  }
  for (const auto& [name, _] : snap.gauges) {
    if (name.empty()) return Status::Corruption("gauge with empty name");
  }
  uint64_t audit_sum = 0;
  for (const common::AuditEvent& ev : snap.audit) {
    if (ev.kind.empty()) {
      return Status::Corruption("audit event with empty kind");
    }
    if (ev.count == 0) {
      return Status::Corruption("audit event '" + ev.kind +
                                "' with zero count");
    }
    audit_sum += ev.count;
  }
  if (audit_sum > snap.audit_total) {
    return Status::Corruption("audit entry counts exceed audit_total");
  }
  for (const std::string& name : required) {
    auto c = snap.counters.find(name);
    if (c != snap.counters.end()) {
      if (c->second == 0) {
        return Status::Corruption("required counter '" + name + "' is zero");
      }
      continue;
    }
    auto g = snap.gauges.find(name);
    if (g != snap.gauges.end()) {
      if (g->second == 0) {
        return Status::Corruption("required gauge '" + name + "' is zero");
      }
      continue;
    }
    auto h = snap.histograms.find(name);
    if (h != snap.histograms.end()) {
      if (h->second.count == 0) {
        return Status::Corruption("required histogram '" + name +
                                  "' is empty");
      }
      if (h->second.Percentile(0.50) == 0) {
        return Status::Corruption("required histogram '" + name +
                                  "' has zero p50");
      }
      continue;
    }
    return Status::Corruption("required instrument '" + name +
                              "' not present");
  }
  return Status::OK();
}

/// Parses + validates a trace file; prints one summary line per tree.
int ValidateTraceFile(const std::string& path) {
  auto text = ReadFileToString(path);
  if (!text.ok()) return Fail(text.status(), "read");
  std::vector<common::TraceEvent> events;
  Status parsed = common::TraceEventsFromChromeJson(*text, &events);
  if (!parsed.ok()) return Fail(parsed, "parse trace");
  std::vector<common::SpanTreeInfo> trees;
  Status valid = common::ValidateTraceForest(events, &trees);
  if (!valid.ok()) return Fail(valid, path.c_str());
  std::printf("tdbstat: %s OK (%zu span(s) in %zu tree(s))\n", path.c_str(),
              events.size(), trees.size());
  for (const common::SpanTreeInfo& t : trees) {
    std::printf("  trace %016llx: root %016llx, %llu span(s), depth %llu\n",
                (unsigned long long)t.trace_id,
                (unsigned long long)t.root_span_id,
                (unsigned long long)t.span_count,
                (unsigned long long)t.max_depth);
  }
  return 0;
}

const char* IndexKindName(collection::IndexKind kind) {
  switch (kind) {
    case collection::IndexKind::kBTree:
      return "btree";
    case collection::IndexKind::kHashTable:
      return "hash";
    default:
      return "list";
  }
}

/// --list: the root object, every collection and its indexes.
Status ListCollections(chunk::ChunkStore* chunks) {
  TDB_ASSIGN_OR_RETURN(std::unique_ptr<object::ObjectStore> objects,
                       object::ObjectStore::Open(chunks));
  TDB_ASSIGN_OR_RETURN(std::unique_ptr<collection::CollectionStore> colls,
                       collection::CollectionStore::Open(objects.get()));
  auto root = objects->GetRoot();
  if (root.ok() && *root != object::kInvalidObjectId) {
    std::printf("root object:  %llu\n", (unsigned long long)*root);
  }
  collection::CTransaction ct(colls.get());
  TDB_ASSIGN_OR_RETURN(std::vector<std::string> names, ct.ListCollections());
  if (names.empty()) {
    std::printf("collections:  none\n");
  } else {
    std::printf("collections:  %zu\n", names.size());
  }
  for (const std::string& name : names) {
    TDB_ASSIGN_OR_RETURN(auto coll, ct.ReadCollection(name));
    std::printf("  %-20s (object %llu)\n", name.c_str(),
                (unsigned long long)coll->id());
    for (const collection::IndexDesc& desc : coll->indexes()) {
      std::printf("    index %-16s %-6s %s%s\n", desc.name.c_str(),
                  IndexKindName(desc.kind), desc.unique ? "unique" : "multi",
                  desc.immutable_keys ? " immutable-keys" : "");
    }
  }
  return ct.Abort();
}

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s <db-dir> <secret-file> <counter-file> [--verify]\n"
      "          [--list] [--insecure] [--json] [--trace <out.json>]\n"
      "       %s --snapshot <metrics.json> [--json]\n"
      "       %s --check <metrics.json> [--require NAME]...\n"
      "       %s --health <metrics.json>\n"
      "       %s --trace <trace.json>\n",
      argv0, argv0, argv0, argv0, argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string snapshot_path, check_path, health_path, trace_path;
  std::vector<std::string> required;
  std::vector<std::string> positional;
  bool verify = false, list = false, insecure = false, json = false;

  for (int i = 1; i < argc; i++) {
    std::string arg = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "tdbstat: %s requires an argument\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--snapshot") {
      snapshot_path = next("--snapshot");
    } else if (arg == "--check") {
      check_path = next("--check");
    } else if (arg == "--health") {
      health_path = next("--health");
    } else if (arg == "--trace") {
      trace_path = next("--trace");
    } else if (arg == "--require") {
      required.push_back(next("--require"));
    } else if (arg == "--verify") {
      verify = true;
    } else if (arg == "--list") {
      list = true;
    } else if (arg == "--insecure") {
      insecure = true;
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--help" || arg == "-h") {
      return Usage(argv[0]);
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "tdbstat: unknown flag %s\n", arg.c_str());
      return 2;
    } else {
      positional.push_back(arg);
    }
  }

  // --check: schema validation for check.sh.
  if (!check_path.empty()) {
    auto text = ReadFileToString(check_path);
    if (!text.ok()) return Fail(text.status(), "read");
    auto snap = common::MetricsSnapshot::FromJson(*text);
    if (!snap.ok()) return Fail(snap.status(), "parse");
    Status valid = ValidateSnapshot(*snap, required);
    if (!valid.ok()) return Fail(valid, check_path.c_str());
    std::printf("tdbstat: %s OK (%zu counters, %zu gauges, %zu "
                "histograms, %zu audit events)\n",
                check_path.c_str(), snap->counters.size(),
                snap->gauges.size(), snap->histograms.size(),
                snap->audit.size());
    return 0;
  }

  // --health: offline invariant evaluation over a persisted snapshot.
  if (!health_path.empty()) {
    auto text = ReadFileToString(health_path);
    if (!text.ok()) return Fail(text.status(), "read");
    auto snap = common::MetricsSnapshot::FromJson(*text);
    if (!snap.ok()) return Fail(snap.status(), "parse");
    // now_us = 0 signals offline mode: any still-in-flight cross-shard
    // transaction in a persisted snapshot is itself a violation.
    std::vector<common::HealthIssue> issues =
        common::EvaluateHealth(*snap, {}, /*now_us=*/0);
    if (issues.empty()) {
      std::printf("tdbstat: %s healthy (%zu counters, %zu gauges, %zu "
                  "histograms checked)\n",
                  health_path.c_str(), snap->counters.size(),
                  snap->gauges.size(), snap->histograms.size());
      return 0;
    }
    for (const common::HealthIssue& issue : issues) {
      std::fprintf(stderr, "tdbstat: HEALTH %s: %s\n", issue.check.c_str(),
                   issue.detail.c_str());
    }
    return 1;
  }

  // --trace without a store: validate an exported trace file.
  if (!trace_path.empty() && positional.empty()) {
    return ValidateTraceFile(trace_path);
  }

  // --snapshot: attach to a bench's --metrics-json output.
  if (!snapshot_path.empty()) {
    auto text = ReadFileToString(snapshot_path);
    if (!text.ok()) return Fail(text.status(), "read");
    auto snap = common::MetricsSnapshot::FromJson(*text);
    if (!snap.ok()) return Fail(snap.status(), "parse");
    if (json) {
      std::printf("%s\n", snap->ToJson().c_str());
    } else {
      std::printf("snapshot:     %s\n", snapshot_path.c_str());
      PrintSnapshot(*snap);
    }
    return 0;
  }

  if (positional.size() != 3 || (list && json)) return Usage(argv[0]);

  // Live capture: everything from open (recovery replay) through the
  // optional scrub and close lands under one root span.
  uint64_t inspect_trace_id = 0;
  std::unique_ptr<common::TraceSpan> inspect_span;
  if (!trace_path.empty()) {
    common::SetTracingEnabled(true);
    (void)common::DrainTraceEvents();
    inspect_span = std::make_unique<common::TraceSpan>("tdbstat.inspect");
    inspect_trace_id = inspect_span->context().trace_id;
  }

  platform::FileUntrustedStore base(positional[0], /*sync_writes=*/false);
  ReadOnlyOverlayStore store(&base);
  platform::FileSecretStore secrets(positional[1]);
  platform::FileOneWayCounter real_counter(positional[2], /*sync=*/false);
  ShadowOneWayCounter counter(&real_counter);

  auto registry = std::make_shared<common::MetricsRegistry>();
  chunk::ChunkStoreOptions options;
  options.security = insecure ? crypto::SecurityConfig::Disabled()
                              : crypto::SecurityConfig::Modern();
  options.create_if_missing = false;
  options.metrics = registry;

  auto chunks_or =
      chunk::ChunkStore::Open(&store, &secrets, &counter, options);
  if (!chunks_or.ok()) {
    // A failed open is itself a finding: report the audit trail that the
    // open attempt produced (tamper/replay evidence), then fail.
    common::MetricsSnapshot snap = registry->Snapshot();
    if (json) {
      std::printf("%s\n", snap.ToJson().c_str());
    } else {
      std::fprintf(stderr, "tdbstat: open failed: %s\n",
                   chunks_or.status().ToString().c_str());
      PrintSnapshot(snap);
    }
    return 1;
  }
  auto chunks = std::move(chunks_or).value();

  int rc = 0;
  if (verify) {
    uint64_t checked = 0;
    Status scrub = chunks->VerifyIntegrity(&checked);
    if (!scrub.ok()) {
      std::fprintf(stderr, "tdbstat: integrity scrub: %s\n",
                   scrub.ToString().c_str());
      rc = 1;
    }
  }

  if (json) {
    std::printf("%s\n", registry->Snapshot().ToJson().c_str());
  } else {
    const chunk::ChunkStoreStats& stats = chunks->stats();
    std::printf("database:     %s (read-only overlay)\n",
                positional[0].c_str());
    std::printf("security:     %s\n",
                insecure ? "disabled" : "SHA-256 + AES-128");
    std::printf("chunks:       %llu live\n",
                (unsigned long long)stats.live_chunks);
    std::printf("segments:     %llu\n", (unsigned long long)stats.segments);
    std::printf(
        "size:         %.1f KB total, %.1f KB live (utilization %.2f)\n",
        stats.total_bytes / 1024.0, stats.live_bytes / 1024.0,
        stats.utilization());
    auto counter_value = counter.Read();
    if (counter_value.ok()) {
      std::printf("counter:      %llu\n",
                  (unsigned long long)*counter_value);
    }
    if (list) {
      Status listed = ListCollections(chunks.get());
      if (!listed.ok()) {
        std::fprintf(stderr, "tdbstat: list: %s\n",
                     listed.ToString().c_str());
        rc = 1;
      }
    }
    // Snapshot last, so detections made while listing are reported.
    PrintSnapshot(registry->Snapshot());
  }

  // Close flushes into the overlay only; the image on disk is untouched.
  (void)chunks->Close();

  if (inspect_span != nullptr) {
    inspect_span.reset();
    std::vector<common::TraceEvent> events;
    for (const common::TraceEvent& ev : common::DrainTraceEvents()) {
      if (ev.trace_id == inspect_trace_id) events.push_back(ev);
    }
    common::SetTracingEnabled(false);
    std::ofstream out(trace_path);
    out << common::TraceEventsToChromeJson(events);
    out.close();
    if (!out.good()) {
      std::fprintf(stderr, "tdbstat: failed to write %s\n",
                   trace_path.c_str());
      return 1;
    }
    int trc = ValidateTraceFile(trace_path);
    if (trc != 0) return trc;
  }
  return rc;
}
