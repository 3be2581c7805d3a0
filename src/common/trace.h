#ifndef TDB_COMMON_TRACE_H_
#define TDB_COMMON_TRACE_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/metrics.h"  // MonotonicMicros / SetMonotonicClockForTesting.

namespace tdb::common {

/// Causal position of the currently-executing operation: which trace
/// (one end-to-end operation, e.g. a durable multi-shard commit) and which
/// span within it. Propagated implicitly through a thread-local, and
/// explicitly across threads (ThreadPool task submission, group-commit
/// leader/follower tickets, 2PC coordinator->participant calls).
/// trace_id 0 means "no active trace".
struct TraceContext {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  bool valid() const { return trace_id != 0; }
};

/// One completed span. `name` is always a string literal or a pointer
/// interned via InternTraceName (see TraceName below), so events never
/// dangle — even when drained long after the code that built a dynamic
/// name (e.g. a per-shard label) is gone.
struct TraceEvent {
  const char* name = nullptr;
  uint64_t trace_id = 0;
  uint64_t span_id = 0;         // Process-unique, never 0 for real spans.
  uint64_t parent_span_id = 0;  // 0 = root span of its trace.
  uint64_t start_us = 0;
  uint64_t duration_us = 0;
  uint32_t thread_id = 0;  // Small per-thread ordinal, stable per ring.
};

/// Copies `name` into a process-lifetime string table and returns a
/// stable pointer; repeated calls with equal strings return the same
/// pointer. Cold-path only (names are interned once, at setup — e.g.
/// "shard3.2pc.prepare" at ShardedChunkStore::Open).
const char* InternTraceName(const std::string& name);

/// A span name that cannot dangle: constructible implicitly from a string
/// literal (compile-time enforced — a plain `const char*` does not bind),
/// or explicitly from an interned/dynamic string. This closes the old
/// TraceEvent::name lifetime footgun where any `const char*` was accepted
/// and stored by pointer.
class TraceName {
 public:
  template <size_t N>
  constexpr TraceName(const char (&literal)[N])  // NOLINT(runtime/explicit)
      : name_(literal) {}
  /// Wraps a pointer previously returned by InternTraceName.
  static TraceName Interned(const char* interned) { return TraceName(interned); }
  /// Interns `name` and wraps the stable copy.
  static TraceName Dynamic(const std::string& name) {
    return TraceName(InternTraceName(name));
  }
  const char* c_str() const { return name_; }

 private:
  explicit constexpr TraceName(const char* interned) : name_(interned) {}
  const char* name_;
};

/// Fixed per-thread ring capacity, exposed for tests.
constexpr size_t kTraceRingCapacity = 4096;

/// Tracing is process-global and off by default; a disabled TraceSpan is a
/// single relaxed load. Spans share the metrics clock, so
/// SetMonotonicClockForTesting makes trace timestamps deterministic too.
void SetTracingEnabled(bool enabled);
bool TracingEnabled();

/// Copies out (and clears) every thread's ring, oldest-first per thread.
/// Rings from exited threads are retained until drained.
std::vector<TraceEvent> DrainTraceEvents();

/// Non-destructive variant of DrainTraceEvents: copies every ring without
/// clearing it. Used by the flight recorder (a post-mortem bundle must not
/// steal the spans a later exporter would want) and the health monitor.
std::vector<TraceEvent> SnapshotTraceEvents();

/// Spans recorded while a ring was full overwrite the oldest entry; this
/// counts how many have been overwritten since process start (monotonic;
/// draining does not reset it, so concurrent accounting tests can diff it
/// across an interval).
uint64_t TraceOverwrites();

/// The calling thread's current context ({} when tracing is disabled or
/// no span is open). Capture this at a cross-thread handoff point and
/// re-install it on the other side with TraceContextScope.
TraceContext CurrentTraceContext();

/// Records a completed span with an explicit parent, bypassing the
/// thread-local context, and returns the new span's id (0 if tracing is
/// disabled or `parent` is invalid). This is how one thread writes spans
/// into ANOTHER operation's trace: the group-commit leader mirrors its
/// flush/sync spans into every follower's trace so each follower's tree
/// shows the sync that actually made it durable.
uint64_t RecordExplicitSpan(const TraceContext& parent, TraceName name,
                            uint64_t start_us, uint64_t end_us);

namespace internal {
void RecordSpan(const char* name, const TraceContext& ctx,
                uint64_t parent_span_id, uint64_t start_us, uint64_t end_us);
TraceContext CurrentContext();
void SetCurrentContext(const TraceContext& ctx);
uint64_t NextTraceId();
uint64_t NextSpanId();
}  // namespace internal

/// RAII span: records [construction, destruction) into the calling
/// thread's ring buffer. On construction it captures the thread's current
/// context as its parent (allocating a fresh trace id if there is none),
/// installs itself as the current context, and restores the previous
/// context on destruction — so nested TraceSpans form a tree without any
/// explicit plumbing. Lock-lite: the only lock taken is the ring's own
/// mutex, contended only while a drain is copying that ring out.
class TraceSpan {
 public:
  explicit TraceSpan(TraceName name) {
    if (TracingEnabled()) Begin(name.c_str(), nullptr);
  }
  /// Child of an explicit parent (cross-thread continuations); still
  /// installs itself as the thread's current context for the scope.
  TraceSpan(TraceName name, const TraceContext& parent) {
    if (TracingEnabled()) Begin(name.c_str(), &parent);
  }
  ~TraceSpan() {
    if (name_ != nullptr) End();
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// This span's context ({} when tracing was disabled at construction).
  TraceContext context() const { return ctx_; }

 private:
  void Begin(const char* name, const TraceContext* parent);
  void End();

  const char* name_ = nullptr;
  uint64_t start_ = 0;
  uint64_t parent_span_ = 0;
  TraceContext ctx_;    // This span's {trace, span}.
  TraceContext saved_;  // Previous thread context, restored at End().
};

/// Installs `ctx` as the calling thread's current context for the scope.
/// The cross-thread half of context propagation: capture
/// CurrentTraceContext() where work is submitted, install it where the
/// work runs. A ThreadPool task submitted under an open span therefore
/// parents its spans under the submitter, not under nothing. No-op for an
/// invalid context (which is what capture returns when tracing is off).
class TraceContextScope {
 public:
  explicit TraceContextScope(const TraceContext& ctx) {
    if (ctx.valid()) {
      active_ = true;
      saved_ = internal::CurrentContext();
      internal::SetCurrentContext(ctx);
    }
  }
  ~TraceContextScope() {
    if (active_) internal::SetCurrentContext(saved_);
  }
  TraceContextScope(const TraceContextScope&) = delete;
  TraceContextScope& operator=(const TraceContextScope&) = delete;

 private:
  bool active_ = false;
  TraceContext saved_;
};

}  // namespace tdb::common

#endif  // TDB_COMMON_TRACE_H_
