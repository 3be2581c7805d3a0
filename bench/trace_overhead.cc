// Tracing overhead ablation (observability PR acceptance): 8 committer
// threads durably group-commit ~1KB chunks against one in-memory store in
// three observability modes:
//
//   off     runtime tracing disabled (the production default when nobody
//           is looking): each span site costs one relaxed load
//   flight  tracing on + an attached FlightRecorder, nothing draining —
//           the always-on post-mortem configuration (rings overwrite)
//   full    flight + a live drainer exporting spans concurrently, the
//           tdbstat --trace configuration
//
// The acceptance bar is <3% throughput overhead for any enabled mode
// versus off. An in-memory store is the conservative choice: with no
// fsync to hide behind, per-commit tracing cost is as visible as it gets.
//
//   trace_overhead                         # table on stdout
//   trace_overhead --json FILE             # + machine-readable results
//   trace_overhead --trace-json FILE       # + a 2-shard cross-shard commit
//                                          #   exported as Chrome JSON and
//                                          #   validated as one span tree
//   TDB_TRACE_BENCH_COMMITS=200 ...        # smoke scale

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "chunk/chunk_store.h"
#include "common/flight_recorder.h"
#include "common/random.h"
#include "common/trace.h"
#include "common/trace_export.h"
#include "platform/mem_store.h"
#include "platform/one_way_counter.h"
#include "platform/secret_store.h"
#include "shard/sharded_chunk_store.h"

namespace {

using namespace tdb;
using Clock = std::chrono::steady_clock;

constexpr int kThreads = 8;
constexpr size_t kPayloadBytes = 1024;

chunk::ChunkStoreOptions BenchOptions() {
  chunk::ChunkStoreOptions options;
  options.security = crypto::SecurityConfig::Modern();
  options.segment_size = 256 * 1024;
  options.checkpoint_interval_bytes = 1ull << 40;
  options.max_clean_segments_per_commit = 0;
  options.max_utilization = 0.99;
  options.group_commit_window_us = 200;
  options.group_commit_target_commits = kThreads;
  return options;
}

struct ModeResult {
  std::string mode;
  double seconds = 0;
  double commits_per_sec = 0;
  double overhead_pct = 0;
  uint64_t spans_drained = 0;
};

// One timed run: kThreads threads each durably commit `per_thread` chunks
// through the group-commit window. Every commit carries the same TraceSpan
// call in every mode — what varies is whether tracing is enabled and who
// is observing.
double TimedRun(int per_thread, bool tracing, bool drain,
                uint64_t* spans_drained) {
  platform::MemUntrustedStore store;
  platform::MemSecretStore secrets;
  platform::MemOneWayCounter counter;
  (void)secrets.Provision(Slice("bench-secret")).ok();
  auto opened =
      chunk::ChunkStore::Open(&store, &secrets, &counter, BenchOptions());
  if (!opened.ok()) {
    std::fprintf(stderr, "open failed: %s\n",
                 opened.status().ToString().c_str());
    std::exit(1);
  }
  std::unique_ptr<chunk::ChunkStore> cs = std::move(opened).value();

  common::SetTracingEnabled(tracing);
  (void)common::DrainTraceEvents();
  // The always-on configuration: a recorder armed on the store's registry.
  // It does nothing unless an audit event fires (none will here), which is
  // exactly the steady-state cost being measured.
  std::unique_ptr<common::FlightRecorder> recorder;
  if (tracing) {
    recorder = std::make_unique<common::FlightRecorder>(cs->metrics());
  }

  std::vector<chunk::ChunkId> cids(kThreads);
  for (int t = 0; t < kThreads; t++) cids[t] = cs->AllocateChunkId();

  std::atomic<bool> stop_drainer{false};
  std::atomic<uint64_t> drained{0};
  std::thread drainer;
  if (drain) {
    drainer = std::thread([&] {
      while (!stop_drainer.load(std::memory_order_relaxed)) {
        drained.fetch_add(common::DrainTraceEvents().size());
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
      drained.fetch_add(common::DrainTraceEvents().size());
    });
  }

  std::atomic<bool> failed{false};
  auto start = Clock::now();
  std::vector<std::thread> committers;
  for (int t = 0; t < kThreads; t++) {
    committers.emplace_back([&, t] {
      Random rng(7 + static_cast<uint64_t>(t));
      Buffer data;
      rng.Fill(&data, kPayloadBytes);
      for (int i = 0; i < per_thread; i++) {
        common::TraceSpan span("bench.commit");
        if (!cs->Write(cids[t], data, /*durable=*/true).ok()) {
          failed.store(true);
          return;
        }
      }
    });
  }
  for (auto& t : committers) t.join();
  double seconds = std::chrono::duration<double>(Clock::now() - start).count();

  if (drain) {
    stop_drainer.store(true);
    drainer.join();
  }
  if (spans_drained != nullptr) *spans_drained = drained.load();
  recorder.reset();
  (void)cs->Close().ok();
  common::SetTracingEnabled(false);
  (void)common::DrainTraceEvents();
  if (failed.load()) {
    std::fprintf(stderr, "commit failed during timed run\n");
    std::exit(1);
  }
  return seconds;
}

ModeResult RunMode(const std::string& mode, int per_thread) {
  const bool tracing = mode != "off";
  const bool drain = mode == "full";
  // Best of two runs: group-commit window alignment adds run-to-run noise
  // well above the effect being measured.
  uint64_t drained = 0;
  double seconds = TimedRun(per_thread, tracing, drain, &drained);
  uint64_t drained2 = 0;
  seconds = std::min(seconds, TimedRun(per_thread, tracing, drain, &drained2));
  ModeResult r;
  r.mode = mode;
  r.seconds = seconds;
  r.commits_per_sec = static_cast<double>(kThreads) * per_thread / seconds;
  r.spans_drained = std::max(drained, drained2);
  return r;
}

// --trace-json: export one durable cross-shard commit, riding two
// background group-commit leaders, as a Chrome/Perfetto trace file — and
// fail if it does not validate as a single rooted span tree.
int ExportCrossShardTrace(const std::string& path) {
  const int kShards = 2;
  std::vector<std::unique_ptr<platform::MemUntrustedStore>> stores;
  std::vector<std::unique_ptr<platform::MemOneWayCounter>> counters;
  platform::MemSecretStore secrets;
  (void)secrets.Provision(Slice("bench-secret")).ok();
  std::vector<shard::ShardBackend> backends;
  for (int k = 0; k < kShards; k++) {
    stores.push_back(std::make_unique<platform::MemUntrustedStore>());
    counters.push_back(std::make_unique<platform::MemOneWayCounter>());
    backends.push_back({stores[k].get(), &secrets, counters[k].get()});
  }
  chunk::ChunkStoreOptions options = BenchOptions();
  options.group_commit_window_us = 300 * 1000;
  options.group_commit_target_commits = 2;
  auto opened = shard::ShardedChunkStore::Open(backends, options);
  if (!opened.ok()) {
    std::fprintf(stderr, "shard open failed: %s\n",
                 opened.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<shard::ShardedChunkStore> router = std::move(opened).value();

  common::SetTracingEnabled(true);
  (void)common::DrainTraceEvents();

  chunk::ChunkId on0 = 0, on1 = 0;
  while (on0 == 0 || on1 == 0) {
    chunk::ChunkId cid = router->AllocateChunkId();
    if (router->ShardOf(cid) == 0 && on0 == 0) on0 = cid;
    if (router->ShardOf(cid) == 1 && on1 == 0) on1 = cid;
  }

  std::vector<std::thread> leaders;
  for (int k = 0; k < kShards; k++) {
    leaders.emplace_back([&, k] {
      chunk::WriteBatch batch;
      Buffer data(96, static_cast<uint8_t>(0x40 + k));
      batch.Write(k == 0 ? on0 : on1, data);
      (void)router->Commit(batch, /*durable=*/true).ok();
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  uint64_t trace_id = 0;
  {
    common::TraceSpan root("bench.cross_shard_commit");
    trace_id = root.context().trace_id;
    chunk::WriteBatch batch;
    Buffer d0(64, 0x50), d1(64, 0x51);
    batch.Write(on0, d0);
    batch.Write(on1, d1);
    Status s = router->Commit(batch, /*durable=*/true);
    if (!s.ok()) {
      std::fprintf(stderr, "cross-shard commit failed: %s\n",
                   s.ToString().c_str());
      return 1;
    }
  }
  for (auto& t : leaders) t.join();
  (void)router->Close().ok();

  std::vector<common::TraceEvent> events;
  for (const common::TraceEvent& ev : common::DrainTraceEvents()) {
    if (ev.trace_id == trace_id) events.push_back(ev);
  }
  common::SetTracingEnabled(false);

  common::SpanTreeInfo info;
  Status tree = common::ValidateSpanTree(events, &info);
  if (!tree.ok()) {
    std::fprintf(stderr, "exported trace is not one rooted tree: %s\n",
                 tree.ToString().c_str());
    return 1;
  }
  std::ofstream out(path);
  out << common::TraceEventsToChromeJson(events);
  out.close();
  std::printf("trace-json: %zu spans, depth %zu -> %s\n", events.size(),
              static_cast<size_t>(info.max_depth), path.c_str());
  return out.good() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path, trace_json_path;
  for (int i = 1; i < argc; i++) {
    std::string arg = argv[i];
    if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg == "--trace-json" && i + 1 < argc) {
      trace_json_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: trace_overhead [--json FILE] [--trace-json FILE]\n");
      return 2;
    }
  }

  int per_thread = 1500;
  if (const char* env = std::getenv("TDB_TRACE_BENCH_COMMITS")) {
    per_thread = std::max(1, std::atoi(env));
  }

  std::printf("=== Tracing overhead: %d threads x %d durable commits ===\n",
              kThreads, per_thread);
  // Warm-up primes allocators and the group-commit window so mode "off"
  // is not unfairly charged with first-run costs.
  (void)TimedRun(std::min(per_thread, 200), false, false, nullptr);

  std::vector<ModeResult> results;
  for (const char* mode : {"off", "flight", "full"}) {
    results.push_back(RunMode(mode, per_thread));
    ModeResult& r = results.back();
    r.overhead_pct =
        100.0 * (r.seconds - results[0].seconds) / results[0].seconds;
    std::printf("%-8s %8.3fs %12.0f commits/s %+7.2f%%", r.mode.c_str(),
                r.seconds, r.commits_per_sec, r.overhead_pct);
    if (r.mode == "full") {
      std::printf("   (%llu spans exported live)",
                  static_cast<unsigned long long>(r.spans_drained));
    }
    std::printf("\n");
  }
  std::printf("(acceptance: enabled overhead < 3%% vs off; negative means "
              "within noise)\n");

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << "{\n  \"bench\": \"trace_overhead\",\n  \"threads\": " << kThreads
        << ",\n  \"commits_per_thread\": " << per_thread
        << ",\n  \"modes\": [\n";
    for (size_t i = 0; i < results.size(); i++) {
      const ModeResult& r = results[i];
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "    {\"mode\": \"%s\", \"seconds\": %.6f, "
                    "\"commits_per_sec\": %.1f, \"overhead_pct\": %.3f, "
                    "\"spans_drained\": %llu}%s\n",
                    r.mode.c_str(), r.seconds, r.commits_per_sec,
                    r.overhead_pct,
                    static_cast<unsigned long long>(r.spans_drained),
                    i + 1 < results.size() ? "," : "");
      out << buf;
    }
    out << "  ]\n}\n";
    if (!out.good()) {
      std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("json: %s\n", json_path.c_str());
  }

  if (!trace_json_path.empty()) {
    int rc = ExportCrossShardTrace(trace_json_path);
    if (rc != 0) return rc;
  }
  return 0;
}
