#ifndef PERFBENCH_TRACER_H_
#define PERFBENCH_TRACER_H_

// In-memory span recorder for the traced run. Spans are recorded from the
// benchmark's own files only: the workload loops time their calls into the
// object and collection layers, and the pass-through decorators in
// layers.h time every call into the chunk/shard store, the untrusted store
// and the one-way counter.
//
// Each span has a name, start, end, parent and op id. A span opened while
// another is open on the same thread is its child; an op span is the root
// of one operation's tree. A layer's self time is its span's duration
// minus the time its direct children cover.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = nullptr;  // String literal: static lifetime.
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;  // Index into the same thread's span list; -1 = root.
  uint64_t op = 0;      // Op id; 0 = outside any op (a library thread).
  uint64_t bytes = 0;   // Payload bytes moved by the call, if any.
};

// Per-name aggregates over a set of recorded spans.
struct SpanTotals {
  uint64_t calls = 0;
  uint64_t bytes = 0;
  double total_us = 0;  // Sum of durations (busy time), every thread.
  double self_us = 0;   // Sum of self times, op trees only.
};

struct TraceSummary {
  uint64_t ops = 0;          // Op spans recorded.
  double op_us = 0;          // Sum of op span durations.
  double residual_us = 0;    // Op time not covered by any layer span.
  std::map<std::string, SpanTotals> by_name;  // Excludes the op spans.
  // Child spans of `name` spans, by child name (e.g. chunk reads issued
  // inside collection queries).
  std::map<std::string, std::map<std::string, uint64_t>> children;
};

class Tracer {
 public:
  static Tracer& Get();

  // Ops that begin while enabled are traced; library threads record spans
  // only while enabled.
  void SetEnabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // Aggregates every span recorded so far.
  TraceSummary Summarize() const;

  // Writes the spans of the first `max_ops` traced ops (plus library-thread
  // spans inside their time range) as Chrome trace-event JSON, the format
  // tdbstat --trace validates and Perfetto opens.
  bool WriteChromeJson(const std::string& path, uint64_t max_ops) const;

  // Drops every recorded span (between self-test passes).
  void Clear();

  struct ThreadLog {
    uint32_t thread = 0;
    std::vector<Span> spans;
    int64_t top = -1;      // Innermost open span.
    uint64_t op = 0;       // Current op id, 0 outside ops.
    bool op_traced = false;
  };
  ThreadLog* Local();
  uint64_t NextOpId() { return next_op_.fetch_add(1) + 1; }

 private:
  Tracer() = default;

  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_op_{0};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadLog>> logs_;  // Guarded by mu_.
};

// Times one call into a layer. Records nothing unless the current thread
// is inside a traced op, or (on a library thread) tracing is enabled.
class SpanScope {
 public:
  explicit SpanScope(const char* name, uint64_t bytes = 0);
  ~SpanScope();
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  void set_bytes(uint64_t bytes);

 private:
  Tracer::ThreadLog* log_ = nullptr;
  int64_t index_ = -1;
};

// Brackets one benchmark operation: the root span of its tree.
class OpScope {
 public:
  OpScope();
  ~OpScope();
  OpScope(const OpScope&) = delete;
  OpScope& operator=(const OpScope&) = delete;

  bool traced() const { return log_ != nullptr && log_->op_traced; }

 private:
  static constexpr uint64_t kUntracedOp = ~uint64_t{0};
  Tracer::ThreadLog* log_ = nullptr;
  int64_t index_ = -1;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACER_H_
