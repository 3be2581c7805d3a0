#include "common/trace.h"

#include <algorithm>
#include <memory>
#include <mutex>
#include <unordered_set>

namespace tdb::common {

namespace {

// Process-lifetime string table for span names. Node-based storage gives
// the stored strings stable addresses; the pool is intentionally leaked
// (same policy as the ring directory below) so detached threads can still
// resolve names during shutdown.
struct NamePool {
  std::mutex mu;
  std::unordered_set<std::string> names;
};

NamePool& Pool() {
  static NamePool* pool = new NamePool();
  return *pool;
}

}  // namespace

const char* InternTraceName(const std::string& name) {
  NamePool& pool = Pool();
  std::lock_guard<std::mutex> lock(pool.mu);
  return pool.names.insert(name).first->c_str();
}

namespace {

std::atomic<bool> g_tracing{false};

// Trace and span id generators. Span ids are process-unique so a span can
// be referenced as a parent from any thread's ring; id 0 is reserved for
// "no parent" / "no trace".
std::atomic<uint64_t> g_next_trace_id{1};
std::atomic<uint64_t> g_next_span_id{1};

thread_local TraceContext t_context;

// Per-thread ring of completed spans. Writers are wait-free in practice:
// the ring's mutex is only ever contended by a drain/snapshot, and each
// thread owns exactly one ring. Rings are kept alive by shared_ptr so a
// drain after a worker thread exits still sees its spans.
struct Ring {
  std::mutex mu;
  TraceEvent events[kTraceRingCapacity];
  size_t next = 0;       // Insertion cursor.
  size_t count = 0;      // Valid entries (<= capacity).
  uint64_t overwrites = 0;
  uint32_t thread_id = 0;
};

struct RingDirectory {
  std::mutex mu;
  std::vector<std::shared_ptr<Ring>> rings;
  uint32_t next_thread_id = 0;
};

RingDirectory& Directory() {
  static RingDirectory* dir = new RingDirectory();  // Intentionally leaked.
  return *dir;
}

Ring& ThreadRing() {
  thread_local std::shared_ptr<Ring> ring = [] {
    auto r = std::make_shared<Ring>();
    RingDirectory& dir = Directory();
    std::lock_guard<std::mutex> lock(dir.mu);
    r->thread_id = dir.next_thread_id++;
    dir.rings.push_back(r);
    return r;
  }();
  return *ring;
}

void RecordEvent(const TraceEvent& ev) {
  Ring& ring = ThreadRing();
  std::lock_guard<std::mutex> lock(ring.mu);
  TraceEvent& slot = ring.events[ring.next];
  if (ring.count == kTraceRingCapacity) ring.overwrites++;
  slot = ev;
  slot.thread_id = ring.thread_id;
  ring.next = (ring.next + 1) % kTraceRingCapacity;
  if (ring.count < kTraceRingCapacity) ring.count++;
}

std::vector<TraceEvent> CollectEvents(bool clear) {
  std::vector<std::shared_ptr<Ring>> rings;
  {
    RingDirectory& dir = Directory();
    std::lock_guard<std::mutex> lock(dir.mu);
    rings = dir.rings;
  }
  std::vector<TraceEvent> out;
  for (const auto& ring : rings) {
    std::lock_guard<std::mutex> lock(ring->mu);
    const size_t start =
        (ring->next + kTraceRingCapacity - ring->count) % kTraceRingCapacity;
    for (size_t i = 0; i < ring->count; i++) {
      out.push_back(ring->events[(start + i) % kTraceRingCapacity]);
    }
    if (clear) {
      ring->next = 0;
      ring->count = 0;
    }
  }
  return out;
}

}  // namespace

void SetTracingEnabled(bool enabled) {
  g_tracing.store(enabled, std::memory_order_relaxed);
}

bool TracingEnabled() {
  return g_tracing.load(std::memory_order_relaxed);
}

std::vector<TraceEvent> DrainTraceEvents() { return CollectEvents(true); }

std::vector<TraceEvent> SnapshotTraceEvents() { return CollectEvents(false); }

uint64_t TraceOverwrites() {
  std::vector<std::shared_ptr<Ring>> rings;
  {
    RingDirectory& dir = Directory();
    std::lock_guard<std::mutex> lock(dir.mu);
    rings = dir.rings;
  }
  uint64_t total = 0;
  for (const auto& ring : rings) {
    std::lock_guard<std::mutex> lock(ring->mu);
    total += ring->overwrites;
  }
  return total;
}

TraceContext CurrentTraceContext() {
  if (!TracingEnabled()) return TraceContext();
  return t_context;
}

uint64_t RecordExplicitSpan(const TraceContext& parent, TraceName name,
                            uint64_t start_us, uint64_t end_us) {
  if (!TracingEnabled() || !parent.valid()) return 0;
  TraceEvent ev;
  ev.name = name.c_str();
  ev.trace_id = parent.trace_id;
  ev.span_id = internal::NextSpanId();
  ev.parent_span_id = parent.span_id;
  ev.start_us = start_us;
  ev.duration_us = end_us >= start_us ? end_us - start_us : 0;
  RecordEvent(ev);
  return ev.span_id;
}

namespace internal {

void RecordSpan(const char* name, const TraceContext& ctx,
                uint64_t parent_span_id, uint64_t start_us, uint64_t end_us) {
  TraceEvent ev;
  ev.name = name;
  ev.trace_id = ctx.trace_id;
  ev.span_id = ctx.span_id;
  ev.parent_span_id = parent_span_id;
  ev.start_us = start_us;
  ev.duration_us = end_us >= start_us ? end_us - start_us : 0;
  RecordEvent(ev);
}

TraceContext CurrentContext() { return t_context; }

void SetCurrentContext(const TraceContext& ctx) { t_context = ctx; }

uint64_t NextTraceId() {
  return g_next_trace_id.fetch_add(1, std::memory_order_relaxed);
}

uint64_t NextSpanId() {
  return g_next_span_id.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace internal

void TraceSpan::Begin(const char* name, const TraceContext* parent) {
  name_ = name;
  saved_ = t_context;
  const TraceContext effective = parent != nullptr ? *parent : saved_;
  if (effective.valid()) {
    ctx_.trace_id = effective.trace_id;
    parent_span_ = effective.span_id;
  } else {
    // No enclosing span anywhere: this span roots a fresh trace.
    ctx_.trace_id = internal::NextTraceId();
    parent_span_ = 0;
  }
  ctx_.span_id = internal::NextSpanId();
  t_context = ctx_;
  start_ = MonotonicMicros();
}

void TraceSpan::End() {
  internal::RecordSpan(name_, ctx_, parent_span_, start_, MonotonicMicros());
  t_context = saved_;
}

}  // namespace tdb::common
