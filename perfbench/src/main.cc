// drm_bench: runs one benchmark workload against the TDB libraries and
// prints its metrics. The last line of standard output is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
//
//   drm_bench --workload <tpcb|lookup|scan|sharded_commit> --seed <n>
//             --seconds <s> --trace <0|1> [--tiny] [--trace-out <file>]
//   drm_bench --selftest [--trace-out <file>]
//
// --trace 0 measures the end-to-end metrics on an undecorated stack.
// --trace 1 builds the stack with the layer decorators, alternates traced
// and untraced 200 ms slices, and reports the per-layer metrics from the
// traced slices plus the tracing overhead. --tiny shrinks data sets and op
// counts for smoke runs. --selftest runs the determinism, decorator and
// trace-export checks described in perfbench/README.md.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/trace_export.h"
#include "report.h"
#include "tracer.h"
#include "workload.h"

namespace perfbench {
namespace {

using tdb::Status;

constexpr int64_t kSliceNs = 200 * 1000 * 1000;
constexpr uint64_t kExportedOps = 200;

std::unique_ptr<Workload> MakeWorkload(const Options& options) {
  if (options.workload == "tpcb") return MakeTpcb(options);
  if (options.workload == "lookup") return MakeLookup(options);
  if (options.workload == "scan") return MakeScan(options);
  if (options.workload == "sharded_commit") return MakeShardedCommit(options);
  return nullptr;
}

double Seconds(int64_t ns) { return static_cast<double>(ns) / 1e9; }

constexpr size_t kReservoir = 1 << 17;

// A uniform sample of at most kReservoir latencies (reservoir sampling),
// of every op of the measured phase or every audit read. Its memory is
// allocated and touched up front, so resident memory does not grow with the
// op count.
class Reservoir {
 public:
  Reservoir() : samples_(kReservoir) {}

  void Add(float v) {
    if (seen_ < kReservoir) {
      samples_[seen_] = v;
    } else {
      rng_ ^= rng_ << 13;
      rng_ ^= rng_ >> 7;
      rng_ ^= rng_ << 17;
      const uint64_t j = rng_ % (seen_ + 1);
      if (j < kReservoir) samples_[j] = v;
    }
    seen_++;
  }
  void AppendTo(std::vector<float>* out) const {
    out->insert(out->end(), samples_.begin(),
                samples_.begin() + std::min<uint64_t>(seen_, kReservoir));
  }

 private:
  std::vector<float> samples_;
  uint64_t seen_ = 0;
  uint64_t rng_ = 0x9E3779B97F4A7C15ull;
};

// What one client saw during the measured phase.
struct ClientLog {
  Reservoir read_us;
  Reservoir write_us;
  Reservoir cross_write_us;
  Reservoir local_write_us;
  uint64_t ops = 0;    // Ops that completed without error.
  double op_us = 0;    // Their summed wall time.
  uint64_t failed = 0;
  uint64_t read_records = 0;
  uint64_t read_locks = 0;  // Lock acquisitions inside read ops (traced).
  std::string first_error;
};

// Device and model state at one point of the run.
struct Mark {
  DeviceCounters device;
  double live_bytes = 0;
  tdb::chunk::ChunkStoreStats chunks;
  double peak_rss_mb = 0;
};

// Peak resident memory of the process so far.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6) / 1024;
  }
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

Mark MarkNow(const Workload& wl) {
  return Mark{wl.Device(), wl.LiveUserBytes(), wl.ChunkStats(), PeakRssMb()};
}

struct Phase {
  Workload* wl = nullptr;
  bool count_locks = false;
  bool trace_window_only = false;  // Stop tracing at the count window's end.
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> completed{0};
  std::vector<std::unique_ptr<ClientLog>> logs;
  Mark window_end;
};

void RecordOp(ClientLog* log, const OpResult& r, const Status& s, double us) {
  if (!s.ok()) {
    log->failed++;
    if (log->first_error.empty()) log->first_error = s.ToString();
    return;
  }
  log->ops++;
  log->op_us += us;
  const float v = static_cast<float>(us);
  if (r.write) {
    log->write_us.Add(v);
    (r.cross ? log->cross_write_us : log->local_write_us).Add(v);
  } else {
    log->read_us.Add(v);
    log->read_records += r.records;
  }
}

void ClientLoop(Phase* ph, int client) {
  Workload* wl = ph->wl;
  ClientLog& log = *ph->logs[client];
  const bool single = wl->clients() == 1;
  const uint64_t window = single ? wl->count_window_ops() : 0;
  for (uint64_t i = 0;; i++) {
    if (single && i == window) {
      ph->window_end = MarkNow(*wl);
      if (ph->trace_window_only) Tracer::Get().SetEnabled(false);
      wl->SaveImage();
    }
    if (ph->stop.load(std::memory_order_relaxed) && i >= window) break;
    OpResult r;
    uint64_t locks = ph->count_locks ? wl->ObjectStats().lock_acquisitions : 0;
    const int64_t t0 = NowNs();
    Status s;
    {
      OpScope op;
      s = wl->RunOp(client, &r);
    }
    const int64_t t1 = NowNs();
    if (ph->count_locks && !r.write) {
      log.read_locks += wl->ObjectStats().lock_acquisitions - locks;
    }
    RecordOp(&log, r, s, static_cast<double>(t1 - t0) / 1000.0);
    ph->completed.fetch_add(1, std::memory_order_relaxed);
  }
}

struct RunOutcome {
  Report report;
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string error;
};

void Fail(RunOutcome* out, const std::string& what, const Status& s) {
  out->correct = false;
  if (out->error.empty()) out->error = what + ": " + s.ToString();
}

// Runs one workload. `trace_all` (self-test only) traces exactly the ops
// of the count window instead of alternating slices.
RunOutcome Run(const Options& options, bool trace_all = false,
               const std::string& trace_out = "") {
  RunOutcome out;
  std::unique_ptr<Workload> wl;
  Tracer& tracer = Tracer::Get();
  tracer.SetEnabled(false);
  tracer.Clear();

  // --- Set-up: open + populate, repeated; setup_s is the median.
  std::vector<double> setup_s;
  const int reps =
      options.trace || options.tiny ? 1 : MakeWorkload(options)->setup_reps();
  double load_self_s = 0;
  for (int i = 0; i < reps; i++) {
    // A fresh workload each time; tearing the last one down is not timed.
    wl.reset();
    wl = MakeWorkload(options);
    const int64_t t0 = NowNs();
    Status s;
    if (options.trace) {
      tracer.SetEnabled(true);
      OpScope load;
      s = wl->Setup();
    } else {
      s = wl->Setup();
    }
    setup_s.push_back(Seconds(NowNs() - t0));
    if (!s.ok()) {
      Fail(&out, "setup", s);
      return out;
    }
  }
  if (options.trace) {
    tracer.SetEnabled(false);
    TraceSummary load = tracer.Summarize();
    for (const auto& [name, t] : load.by_name) {
      if (name.rfind("collection.", 0) == 0) load_self_s += t.self_us / 1e6;
    }
    tracer.Clear();
  }

  // --- Warm-up: a fixed number of untimed ops on client 0. --------------
  for (uint64_t i = 0; i < wl->warmup_ops(); i++) {
    OpResult r;
    Status s = wl->RunOp(0, &r);
    if (!s.ok()) {
      Fail(&out, "warm-up op", s);
      return out;
    }
  }

  // A concurrent workload's database is a function of the seed only up to
  // here: the audit and the reopen time use this image.
  if (wl->clients() > 1) wl->SaveImage();

  // --- Measured phase. ---------------------------------------------------
  Phase ph;
  ph.wl = wl.get();
  ph.count_locks = options.trace && wl->clients() == 1;
  ph.trace_window_only = trace_all;
  for (int c = 0; c < wl->clients(); c++) {
    ph.logs.push_back(std::make_unique<ClientLog>());
  }
  const Mark start = MarkNow(*wl);
  const tdb::chunk::ChunkStoreStats& c0 = start.chunks;
  const tdb::object::ObjectStoreStats o0 = wl->ObjectStats();
  const tdb::shard::RouterStats r0 = wl->RouterStats();
  const uint64_t retries0 = wl->lock_retries();

  bool traced_slice = trace_all;
  tracer.SetEnabled(options.trace && traced_slice);
  double on_s = 0, off_s = 0;
  uint64_t on_ops = 0, off_ops = 0;
  const int64_t t_start = NowNs();
  const int64_t deadline =
      t_start + static_cast<int64_t>(options.seconds * 1e9);
  std::vector<std::thread> clients;
  for (int c = 0; c < wl->clients(); c++) {
    clients.emplace_back(ClientLoop, &ph, c);
  }
  int64_t slice_start = t_start;
  uint64_t slice_ops = 0;
  while (true) {
    const int64_t now = NowNs();
    const int64_t next = std::min(deadline, slice_start + kSliceNs);
    if (now < next) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(
          std::min<int64_t>(next - now, 5 * 1000 * 1000)));
      continue;
    }
    const uint64_t done = ph.completed.load();
    (traced_slice ? on_s : off_s) += Seconds(now - slice_start);
    (traced_slice ? on_ops : off_ops) += done - slice_ops;
    slice_start = now;
    slice_ops = done;
    if (now >= deadline) break;
    if (options.trace && !trace_all) {
      traced_slice = !traced_slice;
      tracer.SetEnabled(traced_slice);
    }
  }
  ph.stop.store(true);
  for (std::thread& t : clients) t.join();
  const int64_t t_end = NowNs();
  tracer.SetEnabled(false);
  const Mark end = MarkNow(*wl);
  const tdb::chunk::ChunkStoreStats& c1 = end.chunks;
  const tdb::object::ObjectStoreStats o1 = wl->ObjectStats();
  const tdb::shard::RouterStats r1 = wl->RouterStats();
  const uint64_t retries = wl->lock_retries() - retries0;

  struct {
    uint64_t ops = 0, failed = 0, read_records = 0, read_locks = 0;
    double op_us = 0;
    std::string first_error;
  } all;
  std::vector<float> read_us, write_us, cross_write_us, local_write_us;
  for (const auto& log : ph.logs) {
    all.ops += log->ops;
    all.op_us += log->op_us;
    all.failed += log->failed;
    all.read_records += log->read_records;
    all.read_locks += log->read_locks;
    if (all.first_error.empty()) all.first_error = log->first_error;
    log->read_us.AppendTo(&read_us);
    log->write_us.AppendTo(&write_us);
    log->cross_write_us.AppendTo(&cross_write_us);
    log->local_write_us.AppendTo(&local_write_us);
  }
  out.attempted = all.ops + all.failed + retries;
  out.failed = all.failed + retries;
  if (all.failed != 0) {
    out.correct = false;
    out.error = std::to_string(all.failed) +
                " measured ops failed; the first: " + all.first_error;
  }

  // Count metrics: over the fixed count window for one client, else over
  // the whole measured phase.
  const bool single_client = wl->clients() == 1;
  const Mark& wend = single_client ? ph.window_end : end;
  const double window_ops = static_cast<double>(
      single_client ? wl->count_window_ops() : all.ops);

  // --- The correctness gate, after a reopen. ------------------------------
  Status verified = wl->Reopen(/*check_model=*/true);
  if (verified.ok()) verified = wl->Verify();
  if (!verified.ok()) Fail(&out, "correctness gate", verified);

  // The rest runs on the saved image, which (unlike the database at the end
  // of a timed phase) is the same for every run of a seed: recover it once.
  Status restored = wl->RestoreImage();
  if (restored.ok()) restored = wl->Reopen(/*check_model=*/true);
  if (!restored.ok()) Fail(&out, "recovering the saved image", restored);

  // --- Audit: a write-only mix times point reads of every record instead,
  // on the store just reopened. One untimed pass fills the caches; timed
  // passes then repeat the same reads for a quarter of the measured
  // phase's length, so the read latencies are taken over seconds of the
  // machine's time, not a moment of it. ----------------------------------
  if (out.correct && wl->audit_reads() != 0) {
    Status s;
    for (uint64_t i = 0; s.ok() && i < wl->audit_reads(); i++) {
      s = wl->AuditRead(i);
    }
    Reservoir audit_us;
    const int64_t audit_end =
        NowNs() + static_cast<int64_t>(options.seconds / 4 * 1e9);
    do {
      for (uint64_t i = 0; s.ok() && i < wl->audit_reads(); i++) {
        const int64_t t0 = NowNs();
        s = wl->AuditRead(i);
        audit_us.Add(static_cast<float>(NowNs() - t0) / 1000.0f);
        out.attempted++;
      }
    } while (s.ok() && !options.tiny && NowNs() < audit_end);
    if (!s.ok()) Fail(&out, "audit read", s);
    audit_us.AppendTo(&read_us);
  }

  // --- Reopen time: close + reopen + first read. -------------------------
  std::vector<double> reopen_s;
  for (int i = 0; out.correct && i < (options.tiny ? 1 : 21); i++) {
    const int64_t t0 = NowNs();
    Status s = wl->Reopen(/*check_model=*/false);
    reopen_s.push_back(Seconds(NowNs() - t0));
    if (!s.ok()) Fail(&out, "reopen", s);
  }

  const double wall_s = Seconds(t_end - t_start);
  const double ops = static_cast<double>(all.ops);
  const LatencySummary reads = Summarize(read_us);
  const LatencySummary writes = Summarize(write_us);
  std::printf("%s seed=%llu: %llu ops in %.3f s; reads n=%zu p50=%.2f "
              "%s=%.2f us; writes n=%zu p50=%.2f %s=%.2f us\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed),
              static_cast<unsigned long long>(all.ops), wall_s, reads.count,
              reads.p50, reads.tail_label.c_str(), reads.tail, writes.count,
              writes.p50, writes.tail_label.c_str(), writes.tail);

  Report& rep = out.report;
  {
    const double device_ms_per_op =
        (wend.device.device_ms - start.device.device_ms) / window_ops;
    rep.Add("setup_s", Median(setup_s), "s");
    rep.Add("ops_per_s", ops / wall_s, "1/s");
    rep.Add("read_p50_us", reads.p50, "us");
    rep.Add("read_p99_us", reads.p99, "us");
    rep.Add("write_p50_us", writes.p50, "us");
    rep.Add("write_p99_us", writes.p99, "us");
    const double op_ms = ops == 0 ? 0 : all.op_us / ops / 1000.0;
    rep.Add("response_ms",
            op_ms + (wl->device_in_wall() ? 0.0 : device_ms_per_op), "ms");
    rep.Add("device_ms_per_op", device_ms_per_op, "ms");
    rep.Add("bytes_written_per_op",
            static_cast<double>(wend.device.bytes_written -
                                start.device.bytes_written) /
                window_ops,
            "B");
    rep.Add("space_amp",
            static_cast<double>(wend.device.store_bytes) / wend.live_bytes,
            "x");
    rep.Add("peak_rss_mb", wend.peak_rss_mb, "MB");
    rep.Add("reopen_s", Median(reopen_s), "s");
    // Chunk-store calls in the count window (self-test comparisons).
    rep.Add("window.chunk_commits_per_op",
            static_cast<double>(wend.chunks.commits - start.chunks.commits) /
                window_ops,
            "count");
    rep.Add("window.chunk_cache_lookups_per_op",
            static_cast<double>(
                (wend.chunks.cache_hits - start.chunks.cache_hits) +
                (wend.chunks.cache_misses - start.chunks.cache_misses)) /
                window_ops,
            "count");
  }
  if (!options.trace) return out;

  // --- Per-layer metrics from the traced slices. -------------------------
  const TraceSummary t = tracer.Summarize();
  if (!trace_out.empty() && !tracer.WriteChromeJson(trace_out, kExportedOps)) {
    Fail(&out, "trace export", Status::IOError(trace_out));
  }
  const double n = t.ops == 0 ? 1.0 : static_cast<double>(t.ops);
  auto span = [&](const char* name) -> SpanTotals {
    auto it = t.by_name.find(name);
    return it == t.by_name.end() ? SpanTotals{} : it->second;
  };
  auto per_op = [&](double v) { return v / n; };
  auto ratio = [](double num, double den) { return den == 0 ? 0.0 : num / den; };
  const double all_ops = ops == 0 ? 1.0 : ops;
  std::map<std::string, double> layer_self;
  for (const auto& [name, totals] : t.by_name) {
    layer_self[name.substr(0, name.find('.'))] += totals.self_us;
  }

  rep.Add("platform.write.calls_per_op", per_op(span("platform.write").calls), "count");
  rep.Add("platform.write.bytes_per_op", per_op(span("platform.write").bytes), "B");
  rep.Add("platform.write.us_per_op", per_op(span("platform.write").total_us), "us");
  rep.Add("platform.read.calls_per_op", per_op(span("platform.read").calls), "count");
  rep.Add("platform.read.bytes_per_op", per_op(span("platform.read").bytes), "B");
  rep.Add("platform.sync.calls_per_op", per_op(span("platform.sync").calls), "count");
  rep.Add("platform.sync.us_per_op", per_op(span("platform.sync").total_us), "us");
  rep.Add("platform.counter.increments_per_op", per_op(span("platform.counter").calls), "count");
  rep.Add("platform.counter.us_per_op", per_op(span("platform.counter").total_us), "us");

  rep.Add("chunk.read.calls_per_op", per_op(span("chunk.read").calls), "count");
  rep.Add("chunk.read.self_us_per_op", per_op(span("chunk.read").self_us), "us");
  rep.Add("chunk.commit.calls_per_op", per_op(span("chunk.commit").calls), "count");
  rep.Add("chunk.commit.self_us_per_op", per_op(span("chunk.commit").self_us), "us");
  rep.Add("chunk.commit.wait_us_per_op", per_op(span("chunk.wait").total_us), "us");
  rep.Add("chunk.view.pins_per_op", per_op(span("chunk.view").calls), "count");
  const double lookups = static_cast<double>(
      (c1.cache_hits - c0.cache_hits) + (c1.cache_misses - c0.cache_misses));
  rep.Add("chunk.cache.hit_ratio",
          ratio(static_cast<double>(c1.cache_hits - c0.cache_hits), lookups),
          "ratio");
  rep.Add("chunk.cache.lookups_per_op", lookups / all_ops, "count");
  rep.Add("chunk.cache.evictions_per_op",
          static_cast<double>(c1.cache_evictions - c0.cache_evictions) / all_ops,
          "count");
  rep.Add("chunk.log.data_bytes_per_op",
          static_cast<double>(c1.data_bytes - c0.data_bytes) / all_ops, "B");
  rep.Add("chunk.log.map_bytes_per_op",
          static_cast<double>(c1.map_bytes - c0.map_bytes) / all_ops, "B");
  rep.Add("chunk.log.commit_bytes_per_op",
          static_cast<double>(c1.commit_bytes - c0.commit_bytes) / all_ops, "B");
  const double durable =
      static_cast<double>(c1.durable_commits - c0.durable_commits);
  const double syncs = static_cast<double>(c1.log_syncs - c0.log_syncs);
  rep.Add("chunk.syncs_per_commit", ratio(syncs, durable), "ratio");
  rep.Add("chunk.counter_bumps_per_commit",
          ratio(static_cast<double>(c1.counter_bumps - c0.counter_bumps),
                durable),
          "ratio");
  rep.Add("chunk.commits_per_group", ratio(durable, syncs), "ratio");
  rep.Add("chunk.cleaner.segments_per_kop",
          1000.0 * static_cast<double>(c1.cleaned_segments - c0.cleaned_segments) /
              all_ops,
          "count");
  rep.Add("chunk.cleaner.relocated_bytes_per_op",
          static_cast<double>(c1.relocated_bytes - c0.relocated_bytes) / all_ops,
          "B");
  rep.Add("chunk.checkpoints_per_kop",
          1000.0 * static_cast<double>(c1.checkpoints - c0.checkpoints) / all_ops,
          "count");
  rep.Add("chunk.utilization", c1.utilization(), "ratio");

  const SpanTotals shard_commit = span("shard.commit");
  rep.Add("shard.commit.us_per_call",
          ratio(shard_commit.total_us, static_cast<double>(shard_commit.calls)),
          "us");
  const double single = static_cast<double>(r1.single_shard_commits -
                                            r0.single_shard_commits);
  const double cross = static_cast<double>(r1.cross_shard_commits -
                                           r0.cross_shard_commits);
  rep.Add("shard.cross_ratio", ratio(cross, single + cross), "ratio");
  // The latency split exists only where there is a shard layer (0 else).
  const bool sharded = wl->has_shards();
  rep.Add("shard.cross.write_p50_us",
          sharded ? Summarize(cross_write_us).p50 : 0.0, "us");
  rep.Add("shard.local.write_p50_us",
          sharded ? Summarize(local_write_us).p50 : 0.0, "us");
  rep.Add("shard.aborts_per_kop",
          1000.0 * static_cast<double>(r1.cross_shard_aborts -
                                       r0.cross_shard_aborts) /
              all_ops,
          "count");

  rep.Add("object.open.calls_per_op", per_op(span("object.open").calls), "count");
  rep.Add("object.open.self_us_per_op", per_op(span("object.open").self_us), "us");
  rep.Add("object.commit.self_us_per_op", per_op(span("object.commit").self_us), "us");
  rep.Add("object.cache.hit_ratio",
          ratio(static_cast<double>(o1.cache_hits - o0.cache_hits),
                static_cast<double>((o1.cache_hits - o0.cache_hits) +
                                    (o1.cache_misses - o0.cache_misses))),
          "ratio");
  rep.Add("object.pickle_bytes_per_op",
          static_cast<double>(o1.pickle_bytes - o0.pickle_bytes) / all_ops, "B");
  rep.Add("object.lock.acquisitions_per_op",
          static_cast<double>(o1.lock_acquisitions - o0.lock_acquisitions) /
              all_ops,
          "count");
  rep.Add("object.lock.waits_per_op",
          static_cast<double>(o1.lock_waits - o0.lock_waits) / all_ops, "count");
  rep.Add("object.lock.timeouts_per_kop",
          1000.0 * static_cast<double>(o1.lock_timeouts - o0.lock_timeouts) /
              all_ops,
          "count");

  const SpanTotals query = span("collection.query");
  rep.Add("collection.query.calls_per_op", per_op(query.calls), "count");
  rep.Add("collection.query.self_us_per_op", per_op(query.self_us), "us");
  uint64_t query_chunk_reads = 0;
  if (auto it = t.children.find("collection.query"); it != t.children.end()) {
    if (auto c = it->second.find("chunk.read"); c != it->second.end()) {
      query_chunk_reads = c->second;
    }
  }
  rep.Add("collection.query.chunk_reads_per_call",
          ratio(static_cast<double>(query_chunk_reads),
                static_cast<double>(query.calls)),
          "count");
  rep.Add("collection.insert.self_us_per_op",
          per_op(span("collection.insert").self_us), "us");
  rep.Add("collection.commit.self_us_per_op",
          per_op(span("collection.commit").self_us), "us");
  rep.Add("collection.scan.records_per_op",
          static_cast<double>(all.read_records) / all_ops, "count");
  rep.Add("collection.scan.locks_per_record",
          ratio(static_cast<double>(all.read_locks),
                static_cast<double>(all.read_records)),
          "ratio");
  rep.Add("collection.load.self_s", load_self_s, "s");

  for (const char* layer : {"platform", "chunk", "shard", "object",
                            "collection"}) {
    rep.Add(std::string(layer) + ".self_us_per_op", per_op(layer_self[layer]),
            "us");
  }
  rep.Add("trace.residual_us_per_op", per_op(t.residual_us), "us");
  rep.Add("trace.op_us_per_op", per_op(t.op_us), "us");
  const double on_rate = ratio(static_cast<double>(on_ops), on_s);
  const double off_rate = ratio(static_cast<double>(off_ops), off_s);
  rep.Add("trace.overhead", trace_all ? 0.0 : ratio(on_rate, off_rate),
          "ratio");

  // The per-layer self times and the residual partition the op time.
  double sum = per_op(t.residual_us);
  for (const auto& [layer, us] : layer_self) sum += per_op(us);
  if (std::fabs(sum - per_op(t.op_us)) > 1e-6 * (1.0 + per_op(t.op_us))) {
    Fail(&out, "trace accounting",
         Status::Corruption("layer self times do not add up to op time"));
  }
  return out;
}

void PrintResult(const RunOutcome& out) {
  if (!out.error.empty()) std::printf("FAILED: %s\n", out.error.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              out.correct ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed),
              out.report.MetricsJson().c_str());
  std::fflush(stdout);
}

// --- Self-test ----------------------------------------------------------

// Count metrics: exact functions of the inputs for one client.
const char* kCountMetrics[] = {
    "device_ms_per_op", "bytes_written_per_op", "space_amp",
    "window.chunk_commits_per_op", "window.chunk_cache_lookups_per_op"};

bool Check(bool ok, const std::string& what) {
  std::printf("  [%s] %s\n", ok ? "ok" : "FAIL", what.c_str());
  return ok;
}

bool SameCounts(const Report& a, const Report& b) {
  for (const char* name : kCountMetrics) {
    if (!(a.Get(name) == b.Get(name))) return false;
  }
  return true;
}

bool ValidTraceFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  std::vector<tdb::common::TraceEvent> events;
  std::vector<tdb::common::SpanTreeInfo> trees;
  Status s = tdb::common::TraceEventsFromChromeJson(text.str(), &events);
  if (s.ok()) s = tdb::common::ValidateTraceForest(events, &trees);
  return Check(s.ok() && !trees.empty(),
               "exported trace is a valid span forest (" +
                   std::to_string(trees.size()) + " trees) " + s.ToString());
}

// tpcb at full size: bytes written per transaction, cumulative from the
// end of set-up, printed every 20,000 ops. The count window [W, W+K) must
// agree with the twice as long window [W, W+2K) within 10%, the bound of
// bytes_written_per_op. (The history table grows with every transaction,
// so the rate drifts slowly upwards; it never settles for good.)
bool TpcbLevelsOff() {
  Options o;
  o.workload = "tpcb";
  o.seed = 7;
  std::unique_ptr<Workload> wl = MakeWorkload(o);
  Status s = wl->Setup();
  if (!Check(s.ok(), "tpcb set-up " + s.ToString())) return false;
  const uint64_t w = wl->warmup_ops();
  const uint64_t k = wl->count_window_ops();
  const DeviceCounters origin = wl->Device();
  DeviceCounters at_w, at_wk;
  for (uint64_t i = 1; i <= w + 2 * k; i++) {
    OpResult r;
    s = wl->RunOp(0, &r);
    if (!s.ok()) return Check(false, "tpcb op " + s.ToString());
    const DeviceCounters now = wl->Device();
    if (i % 20000 == 0) {
      std::printf("  after %6llu ops: %.0f B written per transaction\n",
                  static_cast<unsigned long long>(i),
                  static_cast<double>(now.bytes_written - origin.bytes_written) /
                      static_cast<double>(i));
    }
    if (i == w) at_w = now;
    if (i == w + k) at_wk = now;
  }
  const DeviceCounters end = wl->Device();
  const double window =
      static_cast<double>(at_wk.bytes_written - at_w.bytes_written) /
      static_cast<double>(k);
  const double longer =
      static_cast<double>(end.bytes_written - at_w.bytes_written) /
      static_cast<double>(2 * k);
  std::printf("  count window: %.0f B per transaction; twice as long: %.0f\n",
              window, longer);
  return Check(std::fabs(window - longer) <= 0.10 * longer,
               "bytes per transaction have levelled off over the count window");
}

int SelfTest(const std::string& trace_out) {
  bool ok = true;
  for (const char* name : {"tpcb", "lookup", "scan", "sharded_commit"}) {
    std::printf("self-test %s\n", name);
    Options o;
    o.workload = name;
    o.seed = 7;
    o.seconds = 0.3;
    o.tiny = true;
    RunOutcome plain = Run(o);
    ok &= Check(plain.correct, "tiny run passes the correctness gate");
    Options traced = o;
    traced.trace = true;
    RunOutcome decorated = Run(traced, /*trace_all=*/true, trace_out);
    ok &= Check(decorated.correct,
                "traced run passes the correctness gate and its layer self "
                "times add up to op time");
    if (!trace_out.empty()) ok &= ValidTraceFile(trace_out);
    if (std::string(name) == "sharded_commit") continue;  // Not repeatable.
    RunOutcome again = Run(o);
    ok &= Check(SameCounts(plain.report, again.report),
                "same seed repeats the count metrics exactly");
    ok &= Check(SameCounts(plain.report, decorated.report),
                "decorated run repeats the undecorated count metrics");
    RunOutcome decorated_again = Run(traced, /*trace_all=*/true);
    ok &= Check(decorated.report.Get("chunk.read.calls_per_op") ==
                        decorated_again.report.Get("chunk.read.calls_per_op") &&
                    decorated.report.Get("chunk.commit.calls_per_op") ==
                        decorated_again.report.Get("chunk.commit.calls_per_op"),
                "traced chunk read/commit call counts repeat exactly");
    Options other = o;
    other.seed = 8;
    RunOutcome changed = Run(other);
    ok &= Check(changed.correct && !SameCounts(plain.report, changed.report),
                "another seed changes the inputs");
  }
  std::printf("self-test tpcb level-off\n");
  ok &= TpcbLevelsOff();
  std::printf("self-test %s\n", ok ? "PASSED" : "FAILED");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  std::string trace_out;
  bool selftest = false;
  for (int i = 1; i < argc; i++) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      options.workload = value();
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::atof(value().c_str());
    } else if (arg == "--trace") {
      options.trace = value() == "1";
    } else if (arg == "--tiny") {
      options.tiny = true;
    } else if (arg == "--trace-out") {
      trace_out = value();
    } else if (arg == "--selftest") {
      selftest = true;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", arg.c_str());
      return 2;
    }
  }
  if (selftest) return SelfTest(trace_out);
  if (MakeWorkload(options) == nullptr || options.seconds <= 0) {
    std::fprintf(stderr, "usage: drm_bench --workload <name> --seed <n> "
                         "--seconds <s> --trace <0|1>\n");
    return 2;
  }
  RunOutcome out = Run(options, false, trace_out);
  PrintResult(out);
  return out.correct ? 0 : 1;
}
