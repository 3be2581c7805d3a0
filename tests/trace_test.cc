// Causal tracing end to end: span trees through the thread-local context,
// cross-thread propagation (ThreadPool submission, group-commit
// leader/follower mirroring, 2PC coordinator->participant), the Chrome
// trace-event exporter + span-tree validator, the flight recorder, the
// health monitor, and overwrite accounting under contention.
#include "common/trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "chunk/chunk_store.h"
#include "common/flight_recorder.h"
#include "common/health.h"
#include "common/json.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "common/trace_export.h"
#include "platform/mem_store.h"
#include "platform/one_way_counter.h"
#include "platform/secret_store.h"
#include "shard/sharded_chunk_store.h"

namespace tdb::common {
namespace {

// Tracing is process-global; every test in this binary runs through this
// fixture so state never leaks between tests.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SetTracingEnabled(true);
    (void)DrainTraceEvents();
  }
  void TearDown() override {
    SetTracingEnabled(false);
    (void)DrainTraceEvents();
  }
};

// Events of one trace, oldest-first by span id (ids are allocated in Begin
// order, so this is a stable causal order for assertions).
std::vector<TraceEvent> FilterTrace(const std::vector<TraceEvent>& events,
                                    uint64_t trace_id) {
  std::vector<TraceEvent> out;
  for (const TraceEvent& ev : events) {
    if (ev.trace_id == trace_id) out.push_back(ev);
  }
  std::sort(out.begin(), out.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              return a.span_id < b.span_id;
            });
  return out;
}

size_t CountName(const std::vector<TraceEvent>& events, const char* name) {
  size_t n = 0;
  for (const TraceEvent& ev : events) {
    if (ev.name != nullptr && std::string(ev.name) == name) n++;
  }
  return n;
}

const TraceEvent* FindName(const std::vector<TraceEvent>& events,
                           const char* name) {
  for (const TraceEvent& ev : events) {
    if (ev.name != nullptr && std::string(ev.name) == name) return &ev;
  }
  return nullptr;
}

// ------------------------------------------------------------ span basics

TEST_F(TraceTest, NestedSpansFormOneTree) {
  uint64_t trace_id = 0;
  {
    TraceSpan root("t.root");
    trace_id = root.context().trace_id;
    ASSERT_NE(trace_id, 0u);
    {
      TraceSpan child("t.child");
      EXPECT_EQ(child.context().trace_id, trace_id);
      TraceSpan grandchild("t.grandchild");
      EXPECT_EQ(grandchild.context().trace_id, trace_id);
    }
    TraceSpan sibling("t.sibling");
    EXPECT_EQ(sibling.context().trace_id, trace_id);
  }
  std::vector<TraceEvent> events = FilterTrace(DrainTraceEvents(), trace_id);
  ASSERT_EQ(events.size(), 4u);

  SpanTreeInfo info;
  Status tree = ValidateSpanTree(events, &info);
  ASSERT_TRUE(tree.ok()) << tree.ToString();
  EXPECT_EQ(info.trace_id, trace_id);
  EXPECT_EQ(info.span_count, 4u);
  EXPECT_EQ(info.max_depth, 3u);  // root -> child -> grandchild.

  const TraceEvent* root = FindName(events, "t.root");
  const TraceEvent* child = FindName(events, "t.child");
  const TraceEvent* grandchild = FindName(events, "t.grandchild");
  const TraceEvent* sibling = FindName(events, "t.sibling");
  ASSERT_TRUE(root && child && grandchild && sibling);
  EXPECT_EQ(root->parent_span_id, 0u);
  EXPECT_EQ(info.root_span_id, root->span_id);
  EXPECT_EQ(child->parent_span_id, root->span_id);
  EXPECT_EQ(grandchild->parent_span_id, child->span_id);
  EXPECT_EQ(sibling->parent_span_id, root->span_id);
}

TEST_F(TraceTest, SequentialRootsGetDistinctTraceIds) {
  uint64_t a, b;
  {
    TraceSpan span("t.a");
    a = span.context().trace_id;
  }
  {
    TraceSpan span("t.b");
    b = span.context().trace_id;
  }
  EXPECT_NE(a, 0u);
  EXPECT_NE(b, 0u);
  EXPECT_NE(a, b);
  EXPECT_FALSE(CurrentTraceContext().valid());
}

TEST_F(TraceTest, ContextScopeInstallsAndRestores) {
  TraceSpan root("t.root");
  const TraceContext outer = CurrentTraceContext();
  ASSERT_TRUE(outer.valid());

  TraceContext other{outer.trace_id + 1000, 12345};
  {
    TraceContextScope scope(other);
    EXPECT_EQ(CurrentTraceContext().trace_id, other.trace_id);
    EXPECT_EQ(CurrentTraceContext().span_id, other.span_id);
  }
  EXPECT_EQ(CurrentTraceContext().trace_id, outer.trace_id);
  EXPECT_EQ(CurrentTraceContext().span_id, outer.span_id);

  {
    TraceContextScope noop(TraceContext{});  // Invalid context: no-op.
    EXPECT_EQ(CurrentTraceContext().trace_id, outer.trace_id);
  }
}

TEST_F(TraceTest, RecordExplicitSpanWritesIntoForeignTrace) {
  uint64_t trace_id = 0;
  uint64_t parent_span = 0;
  {
    TraceSpan root("t.root");
    trace_id = root.context().trace_id;
    parent_span = root.context().span_id;
  }
  const uint64_t id = RecordExplicitSpan(TraceContext{trace_id, parent_span},
                                         "t.mirrored", 100, 250);
  EXPECT_NE(id, 0u);
  // Invalid parent: dropped, id 0.
  EXPECT_EQ(RecordExplicitSpan(TraceContext{}, "t.dropped", 1, 2), 0u);

  std::vector<TraceEvent> events = FilterTrace(DrainTraceEvents(), trace_id);
  const TraceEvent* mirrored = FindName(events, "t.mirrored");
  ASSERT_NE(mirrored, nullptr);
  EXPECT_EQ(mirrored->span_id, id);
  EXPECT_EQ(mirrored->parent_span_id, parent_span);
  EXPECT_EQ(mirrored->start_us, 100u);
  EXPECT_EQ(mirrored->duration_us, 150u);
  Status tree = ValidateSpanTree(events, nullptr);
  EXPECT_TRUE(tree.ok()) << tree.ToString();
}

TEST_F(TraceTest, DisabledTracingCostsNothingAndRecordsNothing) {
  SetTracingEnabled(false);
  (void)DrainTraceEvents();
  {
    TraceSpan root("t.root");
    EXPECT_FALSE(root.context().valid());
    EXPECT_FALSE(CurrentTraceContext().valid());
  }
  EXPECT_EQ(RecordExplicitSpan(TraceContext{1, 2}, "t.x", 0, 1), 0u);
  EXPECT_TRUE(DrainTraceEvents().empty());
}

TEST_F(TraceTest, InterningDeduplicatesAndOutlivesTheSource) {
  std::string name = "shard";
  name += std::to_string(7);
  name += ".2pc.prepare";
  const char* a = InternTraceName(name);
  name[0] = 'x';  // Mutating the source must not affect the interned copy.
  const char* b = InternTraceName("shard7.2pc.prepare");
  EXPECT_EQ(a, b);
  EXPECT_STREQ(a, "shard7.2pc.prepare");
  EXPECT_EQ(TraceName::Interned(a).c_str(), a);
  EXPECT_EQ(TraceName::Dynamic("shard7.2pc.prepare").c_str(), a);

  {
    TraceSpan span(TraceName::Dynamic(std::string("dyn.") + "name"));
  }
  std::vector<TraceEvent> events = DrainTraceEvents();
  const TraceEvent* ev = FindName(events, "dyn.name");
  ASSERT_NE(ev, nullptr);
  EXPECT_EQ(ev->name, InternTraceName("dyn.name"));  // Same stable pointer.
}

// ------------------------------------------- seam 2: ThreadPool submission

TEST_F(TraceTest, ThreadPoolSubmitPropagatesContext) {
  ThreadPool pool(2);
  uint64_t trace_id = 0, root_span = 0;
  {
    TraceSpan root("t.submit_root");
    trace_id = root.context().trace_id;
    root_span = root.context().span_id;
    std::vector<std::future<void>> futures;
    for (int i = 0; i < 4; i++) {
      futures.push_back(pool.Submit([] { TraceSpan task("t.pool_task"); }));
    }
    for (auto& f : futures) f.get();
  }
  std::vector<TraceEvent> events = FilterTrace(DrainTraceEvents(), trace_id);
  EXPECT_EQ(CountName(events, "t.pool_task"), 4u);
  for (const TraceEvent& ev : events) {
    if (std::string(ev.name) != "t.pool_task") continue;
    EXPECT_EQ(ev.trace_id, trace_id);
    EXPECT_EQ(ev.parent_span_id, root_span);
  }
  Status tree = ValidateSpanTree(events, nullptr);
  EXPECT_TRUE(tree.ok()) << tree.ToString();
}

TEST_F(TraceTest, ThreadPoolWithoutContextStartsFreshTraces) {
  ThreadPool pool(2);
  pool.Submit([] { TraceSpan task("t.orphan_task"); }).get();
  std::vector<TraceEvent> events = DrainTraceEvents();
  const TraceEvent* ev = FindName(events, "t.orphan_task");
  ASSERT_NE(ev, nullptr);
  EXPECT_NE(ev->trace_id, 0u);
  EXPECT_EQ(ev->parent_span_id, 0u);  // Its own root.
}

// ------------------------------------------------------- exporter/importer

TEST_F(TraceTest, ChromeJsonRoundTripPreservesSpans) {
  uint64_t trace_id = 0;
  {
    TraceSpan root("t.export_root");
    trace_id = root.context().trace_id;
    TraceSpan child("t.export_child");
  }
  std::vector<TraceEvent> events = FilterTrace(DrainTraceEvents(), trace_id);
  ASSERT_EQ(events.size(), 2u);

  const std::string json = TraceEventsToChromeJson(events);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);

  std::vector<TraceEvent> parsed;
  Status s = TraceEventsFromChromeJson(json, &parsed);
  ASSERT_TRUE(s.ok()) << s.ToString();
  ASSERT_EQ(parsed.size(), events.size());
  std::sort(parsed.begin(), parsed.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              return a.span_id < b.span_id;
            });
  for (size_t i = 0; i < events.size(); i++) {
    EXPECT_STREQ(parsed[i].name, events[i].name);
    EXPECT_EQ(parsed[i].trace_id, events[i].trace_id);
    EXPECT_EQ(parsed[i].span_id, events[i].span_id);
    EXPECT_EQ(parsed[i].parent_span_id, events[i].parent_span_id);
    EXPECT_EQ(parsed[i].start_us, events[i].start_us);
    EXPECT_EQ(parsed[i].thread_id, events[i].thread_id);
  }
  Status tree = ValidateSpanTree(parsed, nullptr);
  EXPECT_TRUE(tree.ok()) << tree.ToString();
}

TEST_F(TraceTest, ImporterRejectsGarbage) {
  std::vector<TraceEvent> out;
  EXPECT_FALSE(TraceEventsFromChromeJson("", &out).ok());
  EXPECT_FALSE(TraceEventsFromChromeJson("[1,2,3]", &out).ok());
  EXPECT_FALSE(TraceEventsFromChromeJson("{\"traceEvents\":{}}", &out).ok());
  EXPECT_FALSE(TraceEventsFromChromeJson("{\"traceEvents\":[", &out).ok());
  // Integer overflow.
  EXPECT_FALSE(TraceEventsFromChromeJson(
                   "{\"traceEvents\":[{\"name\":\"a\","
                   "\"ts\":99999999999999999999999}]}",
                   &out)
                   .ok());
  EXPECT_FALSE(TraceEventsFromChromeJson(
                   "{\"traceEvents\":[{\"name\":\"a\",\"tid\":4294967296}]}",
                   &out)
                   .ok());
  // Trailing bytes after the document.
  const std::string doc = TraceEventsToChromeJson({});
  EXPECT_TRUE(TraceEventsFromChromeJson(doc, &out).ok());
  EXPECT_FALSE(TraceEventsFromChromeJson(doc + doc, &out).ok());
  EXPECT_FALSE(TraceEventsFromChromeJson("{\"traceEvents\":[]} x", &out).ok());
  // Mismatched nesting inside a skipped member.
  EXPECT_FALSE(TraceEventsFromChromeJson(
                   "{\"traceEvents\":[],\"x\":{\"a\":[}}", &out)
                   .ok());
  EXPECT_FALSE(TraceEventsFromChromeJson(
                   "{\"traceEvents\":[{\"cat\":[1}]}]}", &out)
                   .ok());
  // Bad literals.
  EXPECT_FALSE(
      TraceEventsFromChromeJson("{\"traceEvents\":[],\"x\":tru}", &out).ok());
  EXPECT_FALSE(
      TraceEventsFromChromeJson("{\"traceEvents\":[{\"cat\":nul}]}", &out)
          .ok());
  // Malformed numbers.
  EXPECT_FALSE(TraceEventsFromChromeJson(
                   "{\"traceEvents\":[{\"name\":\"a\",\"ts\":1-2}]}", &out)
                   .ok());
  EXPECT_FALSE(TraceEventsFromChromeJson(
                   "{\"traceEvents\":[{\"name\":\"a\",\"ts\":+1}]}", &out)
                   .ok());
}

TraceEvent MakeEvent(const char* name, uint64_t trace, uint64_t span,
                     uint64_t parent) {
  TraceEvent ev;
  ev.name = InternTraceName(name);
  ev.trace_id = trace;
  ev.span_id = span;
  ev.parent_span_id = parent;
  ev.start_us = span * 10;
  ev.duration_us = 5;
  return ev;
}

TEST_F(TraceTest, ValidatorRejectsMalformedTrees) {
  // Two roots.
  EXPECT_FALSE(ValidateSpanTree({MakeEvent("a", 1, 1, 0),
                                 MakeEvent("b", 1, 2, 0)},
                                nullptr)
                   .ok());
  // Orphaned parent.
  EXPECT_FALSE(ValidateSpanTree({MakeEvent("a", 1, 1, 0),
                                 MakeEvent("b", 1, 2, 99)},
                                nullptr)
                   .ok());
  // Duplicate span ids.
  EXPECT_FALSE(ValidateSpanTree({MakeEvent("a", 1, 1, 0),
                                 MakeEvent("b", 1, 1, 0)},
                                nullptr)
                   .ok());
  // Mixed trace ids.
  EXPECT_FALSE(ValidateSpanTree({MakeEvent("a", 1, 1, 0),
                                 MakeEvent("b", 2, 2, 1)},
                                nullptr)
                   .ok());
  // Cycle unreachable from the root.
  EXPECT_FALSE(ValidateSpanTree({MakeEvent("a", 1, 1, 0),
                                 MakeEvent("b", 1, 2, 3),
                                 MakeEvent("c", 1, 3, 2)},
                                nullptr)
                   .ok());
  // No root at all.
  EXPECT_FALSE(
      ValidateSpanTree({MakeEvent("a", 1, 1, 1)}, nullptr).ok());
  // Empty set.
  EXPECT_FALSE(ValidateSpanTree({}, nullptr).ok());
}

TEST_F(TraceTest, ForestGroupsAndValidatesPerTrace) {
  std::vector<TraceEvent> events{
      MakeEvent("a", 1, 1, 0), MakeEvent("b", 1, 2, 1),
      MakeEvent("c", 2, 3, 0)};
  std::vector<SpanTreeInfo> trees;
  Status s = ValidateTraceForest(events, &trees);
  ASSERT_TRUE(s.ok()) << s.ToString();
  ASSERT_EQ(trees.size(), 2u);
  EXPECT_EQ(trees[0].trace_id, 1u);
  EXPECT_EQ(trees[0].span_count, 2u);
  EXPECT_EQ(trees[1].trace_id, 2u);
  EXPECT_EQ(trees[1].span_count, 1u);

  events.push_back(MakeEvent("d", 2, 4, 0));  // Second root in trace 2.
  Status bad = ValidateTraceForest(events, nullptr);
  EXPECT_FALSE(bad.ok());
  EXPECT_NE(bad.message().find("trace 2"), std::string::npos)
      << bad.ToString();
}

// ------------------------- seam 1: group-commit leader/follower mirroring

chunk::ChunkStoreOptions GroupOptions() {
  chunk::ChunkStoreOptions options;
  options.security = crypto::SecurityConfig::Modern();
  options.segment_size = 16 * 1024;
  options.map_fanout = 8;
  options.group_commit_window_us = 2 * 1000 * 1000;  // Sealed by target.
  options.group_commit_target_commits = 2;
  return options;
}

TEST_F(TraceTest, GroupCommitFollowerTreeShowsTheLeadersFlush) {
  platform::MemUntrustedStore mem;
  platform::MemSecretStore secrets;
  ASSERT_TRUE(secrets.Provision(Slice("test-master-secret")).ok());
  platform::MemOneWayCounter counter;
  auto opened = chunk::ChunkStore::Open(&mem, &secrets, &counter,
                                        GroupOptions());
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  std::unique_ptr<chunk::ChunkStore> cs = std::move(opened).value();

  // Two durable committers sharing one group: the first elects itself
  // leader and sits in the accumulation window; the second (started after
  // a head start) buffers into that group and follows. target_commits = 2
  // seals the group exactly when the second arrives.
  uint64_t traces[2] = {0, 0};
  auto commit_one = [&](int i) {
    TraceSpan root("test.group");
    traces[i] = root.context().trace_id;
    chunk::WriteBatch batch;
    chunk::ChunkId cid = cs->AllocateChunkId();
    Buffer data(128, static_cast<uint8_t>(0x30 + i));
    batch.Write(cid, data);
    EXPECT_TRUE(cs->Commit(batch, /*durable=*/true).ok());
  };
  std::thread leader_thread([&] { commit_one(0); });
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  commit_one(1);  // Arrives mid-window: guaranteed follower.
  leader_thread.join();
  ASSERT_TRUE(cs->Close().ok());

  std::vector<TraceEvent> all = DrainTraceEvents();
  for (int i = 0; i < 2; i++) {
    ASSERT_NE(traces[i], 0u);
    std::vector<TraceEvent> events = FilterTrace(all, traces[i]);
    SpanTreeInfo info;
    Status tree = ValidateSpanTree(events, &info);
    ASSERT_TRUE(tree.ok()) << "committer " << i << ": " << tree.ToString();
    // Leader or follower, each committer's tree must contain the flush
    // that made it durable (real spans for the leader, mirrored for the
    // follower) with the sync nested under it.
    const TraceEvent* flush = FindName(events, "chunk.group_flush");
    const TraceEvent* sync = FindName(events, "chunk.sync");
    ASSERT_NE(flush, nullptr) << "committer " << i;
    ASSERT_NE(sync, nullptr) << "committer " << i;
    EXPECT_EQ(sync->parent_span_id, flush->span_id);
  }
  // The head start makes the roles deterministic: committer 0 led (no
  // follower wait), committer 1 followed.
  EXPECT_EQ(CountName(FilterTrace(all, traces[0]), "chunk.follower_wait"),
            0u);
  EXPECT_EQ(CountName(FilterTrace(all, traces[1]), "chunk.follower_wait"),
            1u);
}

// ---------------- seam 3 (+1): the acceptance test — a durable two-shard
// commit under concurrent group-commit traffic exports as ONE rooted tree.

TEST_F(TraceTest, CrossShardCommitExportsSingleRootedTree) {
  const int kShards = 2;
  std::vector<std::unique_ptr<platform::MemUntrustedStore>> stores;
  std::vector<std::unique_ptr<platform::MemOneWayCounter>> counters;
  platform::MemSecretStore secrets;
  ASSERT_TRUE(secrets.Provision(Slice("test-master-secret")).ok());
  std::vector<shard::ShardBackend> backends;
  for (int k = 0; k < kShards; k++) {
    stores.push_back(std::make_unique<platform::MemUntrustedStore>());
    counters.push_back(std::make_unique<platform::MemOneWayCounter>());
    backends.push_back({stores[k].get(), &secrets, counters[k].get()});
  }
  chunk::ChunkStoreOptions options = GroupOptions();
  options.group_commit_window_us = 1 * 1000 * 1000;
  auto opened = shard::ShardedChunkStore::Open(backends, options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  std::unique_ptr<shard::ShardedChunkStore> router =
      std::move(opened).value();

  chunk::ChunkId on0 = 0, on1 = 0;
  while (on0 == 0 || on1 == 0) {
    chunk::ChunkId cid = router->AllocateChunkId();
    if (router->ShardOf(cid) == 0 && on0 == 0) on0 = cid;
    if (router->ShardOf(cid) == 1 && on1 == 0) on1 = cid;
  }

  // One background committer per shard opens that shard's group window and
  // becomes its leader, so the 2PC prepares arriving behind them ride the
  // leaders' flushes as followers (the cross-thread handoff under test).
  std::vector<std::thread> leaders;
  for (int k = 0; k < kShards; k++) {
    leaders.emplace_back([&, k] {
      chunk::ChunkId cid = k == 0 ? on0 : on1;
      chunk::WriteBatch batch;
      Buffer data(96, static_cast<uint8_t>(0x40 + k));
      batch.Write(cid, data);
      EXPECT_TRUE(router->Commit(batch, /*durable=*/true).ok());
    });
  }
  // Let both background leaders claim their windows first.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));

  // The traced operation: one durable cross-shard transaction (main thread
  // + two leader threads + the window followers = a 4-thread commit).
  uint64_t trace_id = 0;
  {
    TraceSpan root("test.commit");
    trace_id = root.context().trace_id;
    chunk::WriteBatch batch;
    Buffer d0(64, 0x50), d1(64, 0x51);
    batch.Write(on0, d0);
    batch.Write(on1, d1);
    ASSERT_TRUE(router->Commit(batch, /*durable=*/true).ok());
  }
  for (auto& t : leaders) t.join();
  ASSERT_TRUE(router->Close().ok());
  ASSERT_NE(trace_id, 0u);

  std::vector<TraceEvent> events = FilterTrace(DrainTraceEvents(), trace_id);
  SpanTreeInfo info;
  Status tree = ValidateSpanTree(events, &info);
  ASSERT_TRUE(tree.ok()) << tree.ToString();
  EXPECT_EQ(info.trace_id, trace_id);
  // root -> shard.2pc -> shard<k>.2pc.prepare -> chunk.group_flush ->
  // chunk.sync: five causal levels in one tree.
  EXPECT_GE(info.max_depth, 5u);

  const TraceEvent* root = FindName(events, "test.commit");
  const TraceEvent* twopc = FindName(events, "shard.2pc");
  ASSERT_NE(root, nullptr);
  ASSERT_NE(twopc, nullptr);
  EXPECT_EQ(info.root_span_id, root->span_id);
  EXPECT_EQ(twopc->parent_span_id, root->span_id);
  for (int k = 0; k < kShards; k++) {
    const std::string prepare = "shard" + std::to_string(k) + ".2pc.prepare";
    const std::string decision =
        "shard" + std::to_string(k) + ".2pc.decision";
    const TraceEvent* p = FindName(events, prepare.c_str());
    const TraceEvent* d = FindName(events, decision.c_str());
    ASSERT_NE(p, nullptr) << prepare;
    ASSERT_NE(d, nullptr) << decision;
    // Both phases hang off the coordinator span.
    EXPECT_EQ(p->parent_span_id, twopc->span_id);
    EXPECT_EQ(d->parent_span_id, twopc->span_id);
  }
  // Each prepare followed a background leader's window: the commit's tree
  // contains the follower waits AND the leaders' mirrored flush/sync.
  EXPECT_EQ(CountName(events, "chunk.follower_wait"), 2u);
  EXPECT_GE(CountName(events, "chunk.group_flush"), 2u);
  EXPECT_GE(CountName(events, "chunk.sync"), 2u);

  // And the whole thing survives a Perfetto-format round trip as one tree.
  const std::string json = TraceEventsToChromeJson(events);
  std::vector<TraceEvent> parsed;
  ASSERT_TRUE(TraceEventsFromChromeJson(json, &parsed).ok());
  std::vector<SpanTreeInfo> trees;
  Status forest = ValidateTraceForest(parsed, &trees);
  ASSERT_TRUE(forest.ok()) << forest.ToString();
  ASSERT_EQ(trees.size(), 1u);
  EXPECT_EQ(trees[0].span_count, events.size());
}

// ----------------------------------------------------------- flight recorder

TEST_F(TraceTest, FlightRecorderCapturesBundleOnAuditEvent) {
  auto registry = std::make_shared<MetricsRegistry>();
  Counter* commits = registry->GetCounter("chunk.durable_commits");
  commits->Add(5);  // Pre-recorder history: excluded from the delta.

  FlightRecorder recorder(registry, {});
  commits->Add(3);
  {
    TraceSpan span("t.before_failure");
  }
  registry->audit().Record("hash_mismatch", kRegionPayload, "seg 1 off 0",
                           "boom");
  ASSERT_EQ(recorder.bundles_written(), 1u);

  std::vector<FlightBundle> bundles = recorder.bundles();
  ASSERT_EQ(bundles.size(), 1u);
  EXPECT_EQ(bundles[0].reason, "audit:hash_mismatch");
  EXPECT_NE(bundles[0].detail.find("seg 1 off 0"), std::string::npos);
  // Spans captured at the moment of failure.
  EXPECT_NE(FindName(bundles[0].spans, "t.before_failure"), nullptr);
  // Metrics delta vs the recorder's baseline, not absolute values.
  EXPECT_EQ(bundles[0].metrics_delta.counters.at("chunk.durable_commits"), 3);

  // A DUPLICATE detection (same kind+location) deduplicates in the audit
  // log and must not burn another bundle; a new distinct one must.
  registry->audit().Record("hash_mismatch", kRegionPayload, "seg 1 off 0",
                           "again");
  EXPECT_EQ(recorder.bundles_written(), 1u);
  registry->audit().Record("replay", kRegionCounter, "counter", "replayed");
  EXPECT_EQ(recorder.bundles_written(), 2u);
}

TEST_F(TraceTest, FlightRecorderCapturesIncidents) {
  auto registry = std::make_shared<MetricsRegistry>();
  FlightRecorder recorder(registry, {});
  registry->NotifyIncident("2pc_in_doubt_resolved", "txn 9 resolved commit");
  ASSERT_EQ(recorder.bundles_written(), 1u);
  std::vector<FlightBundle> bundles = recorder.bundles();
  EXPECT_EQ(bundles[0].reason, "2pc_in_doubt_resolved");
  EXPECT_EQ(recorder.bundles_suppressed(), 0u);
}

TEST_F(TraceTest, FlightRecorderRateLimitsButNeverSuppressesTheFirst) {
  auto registry = std::make_shared<MetricsRegistry>();
  FlightRecorderOptions options;
  options.min_interval_us = 60ull * 1000 * 1000 * 1000;  // Effectively off.
  FlightRecorder recorder(registry, options);
  recorder.Trigger("manual", "first");
  recorder.Trigger("manual", "second");
  recorder.Trigger("manual", "third");
  EXPECT_EQ(recorder.bundles_written(), 1u);
  EXPECT_EQ(recorder.bundles_suppressed(), 2u);
}

TEST_F(TraceTest, FlightRecorderBundleJsonLoadsAsChromeTrace) {
  auto registry = std::make_shared<MetricsRegistry>();
  registry->GetCounter("chunk.reads")->Add(7);
  FlightRecorderOptions options;
  options.directory = ::testing::TempDir();
  FlightRecorder recorder(registry, options);
  {
    TraceSpan span("t.bundle_span");
  }
  recorder.Trigger("manual", "snapshot");
  std::vector<FlightBundle> bundles = recorder.bundles();
  ASSERT_EQ(bundles.size(), 1u);

  const std::string json = bundles[0].ToJson();
  std::vector<TraceEvent> parsed;
  Status s = TraceEventsFromChromeJson(json, &parsed);
  ASSERT_TRUE(s.ok()) << s.ToString() << "\n" << json;
  EXPECT_NE(FindName(parsed, "t.bundle_span"), nullptr);
  EXPECT_NE(json.find("\"tdb_flight\""), std::string::npos);
  EXPECT_NE(json.find("\"tdb_metrics_delta\""), std::string::npos);

  // The whole bundle is one well-formed document for the shared reader.
  JsonReader r(json);
  std::string reason, detail;
  int64_t seq = -1;
  bool saw_delta = false;
  r.Object([&](const std::string& key) {
    if (key == "tdb_metrics_delta") saw_delta = true;
    if (key != "tdb_flight") return r.Skip();
    return r.Object([&](const std::string& field) {
      if (field == "reason") return r.String(&reason);
      if (field == "detail") return r.String(&detail);
      if (field == "seq") return r.Int(&seq);
      return r.Skip();
    });
  });
  Status whole = r.Finish("flight bundle");
  ASSERT_TRUE(whole.ok()) << whole.ToString() << "\n" << json;
  EXPECT_EQ(reason, "manual");
  EXPECT_EQ(detail, "snapshot");
  EXPECT_EQ(seq, static_cast<int64_t>(bundles[0].seq));
  EXPECT_TRUE(saw_delta);

  // Its traceEvents round-trip: every captured span comes back whole.
  ASSERT_EQ(parsed.size(), bundles[0].spans.size());
  for (size_t i = 0; i < parsed.size(); i++) {
    const TraceEvent& want = bundles[0].spans[i];
    EXPECT_STREQ(parsed[i].name, want.name);
    EXPECT_EQ(parsed[i].trace_id, want.trace_id);
    EXPECT_EQ(parsed[i].span_id, want.span_id);
    EXPECT_EQ(parsed[i].parent_span_id, want.parent_span_id);
    EXPECT_EQ(parsed[i].start_us, want.start_us);
    // The exporter clamps zero durations to 1us for Perfetto.
    EXPECT_EQ(parsed[i].duration_us, std::max<uint64_t>(1, want.duration_us));
    EXPECT_EQ(parsed[i].thread_id, want.thread_id);
  }

  // The on-disk copy is byte-identical to ToJson().
  std::ifstream in(options.directory + "/flight-" +
                   std::to_string(bundles[0].seq) + ".json");
  ASSERT_TRUE(in.good());
  std::string disk((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  EXPECT_EQ(disk, json);
}

TEST_F(TraceTest, FlightRecorderSnapshotIsNonDestructive) {
  auto registry = std::make_shared<MetricsRegistry>();
  FlightRecorder recorder(registry, {});
  {
    TraceSpan span("t.keep_me");
  }
  recorder.Trigger("manual", "peek");
  // The bundle took a snapshot; a later exporter still sees the span.
  std::vector<TraceEvent> events = DrainTraceEvents();
  EXPECT_NE(FindName(events, "t.keep_me"), nullptr);
}

// ------------------------------------------------------------ health checks

TEST_F(TraceTest, HealthCleanAndUnderVolumeSnapshotsPass) {
  MetricsSnapshot snap;
  EXPECT_TRUE(EvaluateHealth(snap, 0).empty());
  // Terrible ratios below the volume floors: self-gated, no issues.
  snap.counters["chunk.durable_commits"] = 10;
  snap.counters["chunk.log_syncs"] = 10;
  snap.counters["chunk.commit_groups"] = 2;
  snap.counters["chunk.cache.hits"] = 0;
  snap.counters["chunk.cache.misses"] = 10;
  EXPECT_TRUE(EvaluateHealth(snap, 0).empty());
}

TEST_F(TraceTest, HealthFlagsSyncRatioRegression) {
  MetricsSnapshot snap;
  snap.counters["chunk.durable_commits"] = 100;
  snap.counters["chunk.log_syncs"] = 95;
  snap.counters["chunk.commit_groups"] = 10;
  snap.counters["chunk.grouped_commits"] = 20;
  std::vector<HealthIssue> issues = EvaluateHealth(snap, 0);
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_EQ(issues[0].check, "sync_ratio");

  // Sharded stores aggregate across "shard<k>." prefixes.
  MetricsSnapshot sharded;
  sharded.counters["shard0.chunk.durable_commits"] = 50;
  sharded.counters["shard1.chunk.durable_commits"] = 50;
  sharded.counters["shard0.chunk.log_syncs"] = 50;
  sharded.counters["shard1.chunk.log_syncs"] = 45;
  sharded.counters["shard0.chunk.commit_groups"] = 5;
  sharded.counters["shard0.chunk.grouped_commits"] = 10;
  issues = EvaluateHealth(sharded, 0);
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_EQ(issues[0].check, "sync_ratio");

  // Healthy grouping: far fewer syncs than commits.
  snap.counters["chunk.log_syncs"] = 20;
  EXPECT_TRUE(EvaluateHealth(snap, 0).empty());
  // No grouping active: the ratio is expected to be ~1, not a violation.
  snap.counters["chunk.log_syncs"] = 95;
  snap.counters["chunk.commit_groups"] = 0;
  snap.counters["chunk.grouped_commits"] = 0;
  EXPECT_TRUE(EvaluateHealth(snap, 0).empty());
  // A single committer leads a group of one per durable commit: groups
  // exist but no commit ever shared a flush, so ~1 sync per commit is
  // expected, not a violation.
  MetricsSnapshot single;
  single.counters["chunk.durable_commits"] = 100;
  single.counters["chunk.log_syncs"] = 100;
  single.counters["chunk.commit_groups"] = 98;
  single.counters["chunk.grouped_commits"] = 98;
  EXPECT_TRUE(EvaluateHealth(single, 0).empty());
}

TEST_F(TraceTest, HealthFlagsGroupFlushStall) {
  MetricsSnapshot snap;
  HistogramData stalled;
  stalled.count = 16;
  stalled.sum = 16ll * 3000000;
  stalled.max = 3000000;
  stalled.buckets[21] = 16;  // ~2-4s flushes: p99 well over 1s.
  snap.histograms["shard1.chunk.group_flush.latency_us"] = stalled;
  std::vector<HealthIssue> issues = EvaluateHealth(snap, 0);
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_EQ(issues[0].check, "group_stall");
  EXPECT_NE(issues[0].detail.find("shard1."), std::string::npos);

  HistogramData fast;
  fast.count = 16;
  fast.sum = 16 * 500;
  fast.max = 500;
  fast.buckets[9] = 16;
  snap.histograms["shard1.chunk.group_flush.latency_us"] = fast;
  EXPECT_TRUE(EvaluateHealth(snap, 0).empty());
}

TEST_F(TraceTest, HealthFlagsCacheCollapseAndShardSkew) {
  MetricsSnapshot snap;
  snap.counters["chunk.cache.hits"] = 50;
  snap.counters["chunk.cache.misses"] = 2000;
  std::vector<HealthIssue> issues = EvaluateHealth(snap, 0);
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_EQ(issues[0].check, "cache_hit_rate");

  // Skew is hottest/mean, so with N shards it tops out at N: a violation
  // of the 4x default needs more than four shards. One hot shard out of
  // eight carrying ~93% of commits reads as skew ~7.5x.
  MetricsSnapshot skewed;
  skewed.counters["shard0.chunk.durable_commits"] = 1000;
  for (int k = 1; k < 8; k++) {
    skewed.counters["shard" + std::to_string(k) + ".chunk.durable_commits"] =
        10;
  }
  issues = EvaluateHealth(skewed, 0);
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_EQ(issues[0].check, "shard_skew");

  for (int k = 1; k < 8; k++) {
    skewed.counters["shard" + std::to_string(k) + ".chunk.durable_commits"] =
        900 + k * 10;
  }
  EXPECT_TRUE(EvaluateHealth(skewed, 0).empty());
}

TEST_F(TraceTest, HealthFlagsInflightTxnOfflineAndAged) {
  MetricsSnapshot snap;
  snap.gauges["shard.router.txn_inflight"] = 1;
  snap.gauges["shard.router.txn_inflight_since_us"] = 1000;

  // Offline (now_us == 0): ANY in-flight txn in a persisted snapshot is a
  // leak — the prepare/decision window never closed before quiesce.
  std::vector<HealthIssue> issues = EvaluateHealth(snap, 0);
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_EQ(issues[0].check, "txn_inflight");

  // Live and young: fine. Live and aged past the limit: wedged.
  EXPECT_TRUE(EvaluateHealth(snap, 2000).empty());
  issues = EvaluateHealth(
      snap, 1000 + static_cast<uint64_t>(kMaxTxnInflightAgeUs) + 1);
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_EQ(issues[0].check, "txn_inflight");

  snap.gauges["shard.router.txn_inflight"] = 0;
  EXPECT_TRUE(EvaluateHealth(snap, 0).empty());
}

TEST_F(TraceTest, HealthIgnoresInflightTxnWithClearedSinceTimestamp) {
  // Coordinator-exit race regression: the exit path clears the since
  // timestamp BEFORE decrementing the in-flight gauge, so a live monitor
  // can observe {inflight=1, since=0}. That window is a transaction
  // FINISHING, not one wedged since the epoch — the age rule must not
  // fire on it, no matter how large now_us is.
  MetricsSnapshot snap;
  snap.gauges["shard.router.txn_inflight"] = 1;
  snap.gauges["shard.router.txn_inflight_since_us"] = 0;
  EXPECT_TRUE(
      EvaluateHealth(snap, static_cast<uint64_t>(kMaxTxnInflightAgeUs) * 100)
          .empty());
  // Offline the same pair still flags: a persisted snapshot mid-exit
  // means the process died inside the commit window.
  std::vector<HealthIssue> issues = EvaluateHealth(snap, 0);
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_EQ(issues[0].check, "txn_inflight");
}

TEST_F(TraceTest, HealthMonitorEmitsRateLimitedAuditWithTraceIds) {
  auto registry = std::make_shared<MetricsRegistry>();
  // A wedged 2PC window, as the router would leave it.
  registry->GetGauge("shard.router.txn_inflight")->Set(1);
  registry->GetGauge("shard.router.txn_inflight_since_us")->Set(1);

  // A recent span on the implicated path, so the monitor can point at it.
  uint64_t trace_id = 0;
  {
    TraceSpan span("shard.2pc");
    trace_id = span.context().trace_id;
  }

  HealthMonitor monitor(registry);
  std::vector<HealthIssue> first = monitor.Check();
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first[0].check, "txn_inflight");
  ASSERT_FALSE(first[0].trace_ids.empty());
  EXPECT_EQ(first[0].trace_ids[0], trace_id);

  // Still violated on re-check, but the audit emission is rate-limited.
  std::vector<HealthIssue> second = monitor.Check();
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(monitor.checks_run(), 2u);
  EXPECT_EQ(monitor.violations(), 2u);
  std::vector<AuditEvent> audit = registry->audit().Events();
  ASSERT_EQ(audit.size(), 1u);
  EXPECT_EQ(audit[0].kind, "health_txn_inflight");
  EXPECT_EQ(audit[0].count, 1u);  // Second emission suppressed, not deduped.
  EXPECT_NE(audit[0].message.find(std::to_string(trace_id)),
            std::string::npos);
}

TEST_F(TraceTest, HealthViolationTriggersAttachedFlightRecorder) {
  auto registry = std::make_shared<MetricsRegistry>();
  FlightRecorder recorder(registry, {});
  registry->GetGauge("shard.router.txn_inflight")->Set(1);
  registry->GetGauge("shard.router.txn_inflight_since_us")->Set(1);
  HealthMonitor monitor(registry);
  ASSERT_EQ(monitor.Check().size(), 1u);
  // The monitor's audit event rode the observer into a post-mortem bundle.
  ASSERT_EQ(recorder.bundles_written(), 1u);
  EXPECT_EQ(recorder.bundles()[0].reason, "audit:health_txn_inflight");
}

// ------------------------------------------- ring accounting under contention

TEST_F(TraceTest, OverwriteAccountingBalancesUnderContention) {
  // Rings are per-thread, so contention here is recorders vs concurrent
  // drains. Every recorded span must be accounted exactly once: either
  // drained by someone or counted in the monotonic overwrite counter.
  constexpr int kThreads = 4;
  const size_t kPerThread = kTraceRingCapacity + 100;
  const uint64_t overwrites_before = TraceOverwrites();

  std::atomic<size_t> drained_contention{0};
  std::atomic<bool> stop{false};
  std::thread drainer([&] {
    while (!stop.load()) {
      for (const TraceEvent& ev : DrainTraceEvents()) {
        if (ev.name != nullptr && std::string(ev.name) == "t.contention") {
          drained_contention.fetch_add(1);
        }
      }
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> recorders;
  for (int t = 0; t < kThreads; t++) {
    recorders.emplace_back([&] {
      for (size_t i = 0; i < kPerThread; i++) {
        TraceSpan span("t.contention");
      }
    });
  }
  for (auto& t : recorders) t.join();
  stop.store(true);
  drainer.join();

  // Burst phase: with nobody draining, one more ring's worth plus 100
  // guarantees overwrites happen (the contention phase alone can't — a
  // fast drainer may keep every ring empty).
  std::thread burster([&] {
    for (size_t i = 0; i < kPerThread; i++) {
      TraceSpan span("t.contention");
    }
  });
  burster.join();

  for (const TraceEvent& ev : DrainTraceEvents()) {
    if (ev.name != nullptr && std::string(ev.name) == "t.contention") {
      drained_contention.fetch_add(1);
    }
  }

  const uint64_t overwritten = TraceOverwrites() - overwrites_before;
  EXPECT_EQ(drained_contention.load() + overwritten,
            (kThreads + 1) * kPerThread);
  // The burst overflowed its ring by at least 100 spans.
  EXPECT_GE(overwritten, 100u);
}

}  // namespace
}  // namespace tdb::common
