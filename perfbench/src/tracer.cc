#include "tracer.h"

#include <algorithm>
#include <fstream>
#include <set>

#include "common/trace_export.h"

namespace perfbench {

namespace {

thread_local Tracer::ThreadLog* t_log = nullptr;

double Us(int64_t ns) { return static_cast<double>(ns) / 1000.0; }

}  // namespace

Tracer& Tracer::Get() {
  static Tracer* tracer = new Tracer();  // Outlives every library thread.
  return *tracer;
}

Tracer::ThreadLog* Tracer::Local() {
  if (t_log == nullptr) {
    auto log = std::make_unique<ThreadLog>();
    std::lock_guard<std::mutex> lock(mu_);
    log->thread = static_cast<uint32_t>(logs_.size() + 1);
    t_log = log.get();
    logs_.push_back(std::move(log));
  }
  return t_log;
}

void Tracer::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& log : logs_) {
    log->spans.clear();
    log->top = -1;
  }
}

TraceSummary Tracer::Summarize() const {
  TraceSummary out;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& log : logs_) {
    const std::vector<Span>& spans = log->spans;
    std::vector<int64_t> child_ns(spans.size(), 0);
    for (size_t i = 0; i < spans.size(); i++) {
      const Span& s = spans[i];
      if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
    }
    for (size_t i = 0; i < spans.size(); i++) {
      const Span& s = spans[i];
      const int64_t dur = s.end_ns - s.start_ns;
      const int64_t self = dur - child_ns[i];
      if (s.parent < 0 && s.op != 0) {  // An op root.
        out.ops++;
        out.op_us += Us(dur);
        out.residual_us += Us(self);
        continue;
      }
      SpanTotals& t = out.by_name[s.name];
      t.calls++;
      t.bytes += s.bytes;
      t.total_us += Us(dur);
      if (s.op != 0) t.self_us += Us(self);
      if (s.parent >= 0 && spans[s.parent].parent >= 0) {
        out.children[spans[s.parent].name][s.name]++;
      }
    }
  }
  return out;
}

bool Tracer::WriteChromeJson(const std::string& path, uint64_t max_ops) const {
  std::lock_guard<std::mutex> lock(mu_);
  // The first `max_ops` traced ops, by id.
  std::set<uint64_t> ops;
  for (const auto& log : logs_) {
    for (const Span& s : log->spans) {
      if (s.parent < 0 && s.op != 0) ops.insert(s.op);
    }
  }
  while (ops.size() > max_ops) ops.erase(std::prev(ops.end()));
  int64_t lo = INT64_MAX;
  int64_t hi = INT64_MIN;
  for (const auto& log : logs_) {
    for (const Span& s : log->spans) {
      if (s.op != 0 && ops.count(s.op) != 0) {
        lo = std::min(lo, s.start_ns);
        hi = std::max(hi, s.end_ns);
      }
    }
  }
  std::vector<tdb::common::TraceEvent> events;
  for (const auto& log : logs_) {
    const std::vector<Span>& spans = log->spans;
    auto span_id = [&](int64_t i) {
      return (uint64_t{log->thread} << 40) | static_cast<uint64_t>(i + 1);
    };
    // Trace id of each span: its op id, or for a library-thread tree the
    // (high-bit tagged) span id of its root.
    std::vector<uint64_t> trace(spans.size(), 0);
    for (size_t i = 0; i < spans.size(); i++) {
      const Span& s = spans[i];
      if (s.op != 0) {
        trace[i] = s.op;
      } else {
        trace[i] = s.parent < 0 ? (uint64_t{1} << 62) | span_id(i)
                                : trace[s.parent];
      }
      const bool keep = s.op != 0 ? ops.count(s.op) != 0
                                  : s.start_ns >= lo && s.end_ns <= hi;
      if (!keep) continue;
      tdb::common::TraceEvent e;
      e.name = s.name;
      e.trace_id = trace[i];
      e.span_id = span_id(i);
      e.parent_span_id = s.parent < 0 ? 0 : span_id(s.parent);
      e.start_us = static_cast<uint64_t>(s.start_ns / 1000);
      e.duration_us = std::max<uint64_t>(
          1, static_cast<uint64_t>(s.end_ns - s.start_ns) / 1000);
      e.thread_id = log->thread;
      events.push_back(e);
    }
  }
  std::ofstream out(path, std::ios::trunc);
  out << tdb::common::TraceEventsToChromeJson(events);
  out.close();
  return !out.fail();
}

SpanScope::SpanScope(const char* name, uint64_t bytes) {
  Tracer& tracer = Tracer::Get();
  Tracer::ThreadLog* log = t_log;
  if (log != nullptr && log->op != 0) {
    if (!log->op_traced) return;
  } else if (!tracer.enabled()) {
    return;
  }
  if (log == nullptr) log = tracer.Local();
  log_ = log;
  index_ = static_cast<int64_t>(log->spans.size());
  log->spans.push_back(Span{name, NowNs(), 0, log->top, log->op, bytes});
  log->top = index_;
}

SpanScope::~SpanScope() {
  if (log_ == nullptr) return;
  Span& s = log_->spans[index_];
  s.end_ns = NowNs();
  log_->top = s.parent;
}

void SpanScope::set_bytes(uint64_t bytes) {
  if (log_ != nullptr) log_->spans[index_].bytes = bytes;
}

OpScope::OpScope() {
  Tracer& tracer = Tracer::Get();
  const bool enabled = tracer.enabled();
  log_ = enabled ? tracer.Local() : t_log;
  if (log_ == nullptr) return;
  // An untraced op still claims the thread, so spans inside it are never
  // mistaken for library-thread spans when tracing turns on mid-op.
  log_->op = enabled ? tracer.NextOpId() : kUntracedOp;
  log_->op_traced = log_->op != kUntracedOp;
  if (!log_->op_traced) return;
  index_ = static_cast<int64_t>(log_->spans.size());
  log_->spans.push_back(Span{"op", NowNs(), 0, -1, log_->op, 0});
  log_->top = index_;
}

OpScope::~OpScope() {
  if (log_ == nullptr) return;
  if (log_->op_traced) log_->spans[index_].end_ns = NowNs();
  log_->top = -1;
  log_->op = 0;
  log_->op_traced = false;
}

}  // namespace perfbench
