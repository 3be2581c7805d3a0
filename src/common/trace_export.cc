#include "common/trace_export.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <map>
#include <unordered_map>
#include <unordered_set>

#include "common/json.h"

namespace tdb::common {

namespace {

void AppendHex64(uint64_t v, std::string* out) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  *out += buf;
}

bool ParseHex64(const std::string& s, uint64_t* out) {
  if (s.empty() || s.size() > 16) return false;
  auto [next, ec] = std::from_chars(s.data(), s.data() + s.size(), *out, 16);
  return ec == std::errc() && next == s.data() + s.size();
}

// Reads the value of `field` in one traceEvents element into `ev`. Events
// that are well-formed but not "X" spans (viewer metadata etc.) clear
// *is_span and are skipped by the caller.
bool ReadEventField(JsonReader* r, const std::string& field, TraceEvent* ev,
                    bool* is_span) {
  std::string s;
  if (field == "name") {
    if (!r->String(&s)) return false;
    ev->name = InternTraceName(s);
    return true;
  }
  if (field == "ph") {
    if (!r->String(&s)) return false;
    if (s != "X") *is_span = false;
    return true;
  }
  if (field == "ts" || field == "dur" || field == "tid") {
    int64_t v = 0;
    if (!r->Int(&v)) return false;
    const uint64_t u = v < 0 ? 0 : static_cast<uint64_t>(v);
    if (field == "tid" && u > UINT32_MAX) return r->Fail("tid out of range");
    if (field == "ts") ev->start_us = u;
    if (field == "dur") ev->duration_us = u;
    if (field == "tid") ev->thread_id = static_cast<uint32_t>(u);
    return true;
  }
  if (field != "args") return r->Skip();
  return r->Object([&](const std::string& arg) {
    if (arg != "trace" && arg != "span" && arg != "parent") return r->Skip();
    uint64_t id = 0;
    if (!r->String(&s)) return false;
    if (!ParseHex64(s, &id)) return r->Fail("bad span id");
    (arg == "trace" ? ev->trace_id
                    : arg == "span" ? ev->span_id : ev->parent_span_id) = id;
    return true;
  });
}

}  // namespace

void AppendChromeTraceEvents(const std::vector<TraceEvent>& events,
                             std::string* out) {
  out->reserve(out->size() + events.size() * 160 + 64);
  *out += '[';
  bool first = true;
  for (const TraceEvent& ev : events) {
    if (ev.name == nullptr) continue;
    if (!first) *out += ',';
    first = false;
    *out += "\n{\"name\":";
    AppendJsonString(ev.name, out);
    *out += ",\"cat\":\"tdb\",\"ph\":\"X\",\"ts\":";
    *out += std::to_string(ev.start_us);
    *out += ",\"dur\":";
    // Perfetto renders zero-duration complete events poorly; clamp to 1us.
    *out += std::to_string(ev.duration_us == 0 ? 1 : ev.duration_us);
    *out += ",\"pid\":1,\"tid\":";
    *out += std::to_string(ev.thread_id);
    *out += ",\"args\":{\"trace\":\"";
    AppendHex64(ev.trace_id, out);
    *out += "\",\"span\":\"";
    AppendHex64(ev.span_id, out);
    *out += "\",\"parent\":\"";
    AppendHex64(ev.parent_span_id, out);
    *out += "\"}}";
  }
  *out += "\n]";
}

std::string TraceEventsToChromeJson(const std::vector<TraceEvent>& events) {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":";
  AppendChromeTraceEvents(events, &out);
  out += "}\n";
  return out;
}

Status TraceEventsFromChromeJson(const std::string& json,
                                 std::vector<TraceEvent>* out) {
  out->clear();
  JsonReader r(json);
  bool saw_events = false;
  r.Object([&](const std::string& key) {
    if (key != "traceEvents") return r.Skip();
    saw_events = true;
    return r.Array([&] {
      TraceEvent ev;
      bool is_span = true;
      if (!r.Object([&](const std::string& field) {
            return ReadEventField(&r, field, &ev, &is_span);
          })) {
        return false;
      }
      if (is_span && ev.name != nullptr) out->push_back(ev);
      return true;
    });
  });
  TDB_RETURN_IF_ERROR(r.Finish("trace json"));
  if (!saw_events) {
    return Status::InvalidArgument("trace json: no traceEvents array");
  }
  return Status::OK();
}

Status ValidateSpanTree(const std::vector<TraceEvent>& events,
                        SpanTreeInfo* info) {
  if (events.empty()) {
    return Status::InvalidArgument("span tree: no events");
  }
  SpanTreeInfo out;
  out.trace_id = events[0].trace_id;
  out.span_count = events.size();
  std::unordered_map<uint64_t, std::vector<uint64_t>> children;
  std::unordered_set<uint64_t> ids;
  for (const TraceEvent& ev : events) {
    if (ev.trace_id != out.trace_id) {
      return Status::InvalidArgument("span tree: mixed trace ids");
    }
    if (ev.span_id == 0) {
      return Status::InvalidArgument("span tree: span id 0");
    }
    if (!ids.insert(ev.span_id).second) {
      return Status::InvalidArgument("span tree: duplicate span id");
    }
  }
  for (const TraceEvent& ev : events) {
    if (ev.parent_span_id == 0) {
      if (out.root_span_id != 0) {
        return Status::InvalidArgument("span tree: multiple roots");
      }
      out.root_span_id = ev.span_id;
    } else {
      if (ids.count(ev.parent_span_id) == 0) {
        return Status::InvalidArgument("span tree: orphaned parent id");
      }
      children[ev.parent_span_id].push_back(ev.span_id);
    }
  }
  if (out.root_span_id == 0) {
    return Status::InvalidArgument("span tree: no root span");
  }
  // Reachability from the root proves there is no parent cycle hiding
  // among spans whose parents all "resolve".
  std::vector<std::pair<uint64_t, size_t>> stack{{out.root_span_id, 1}};
  size_t reached = 0;
  while (!stack.empty()) {
    auto [id, depth] = stack.back();
    stack.pop_back();
    reached++;
    out.max_depth = std::max(out.max_depth, depth);
    auto it = children.find(id);
    if (it == children.end()) continue;
    for (uint64_t child : it->second) stack.push_back({child, depth + 1});
  }
  if (reached != events.size()) {
    return Status::InvalidArgument("span tree: cycle (unreachable spans)");
  }
  if (info != nullptr) *info = out;
  return Status::OK();
}

Status ValidateTraceForest(const std::vector<TraceEvent>& events,
                           std::vector<SpanTreeInfo>* trees) {
  if (trees != nullptr) trees->clear();
  std::map<uint64_t, std::vector<TraceEvent>> by_trace;
  for (const TraceEvent& ev : events) {
    by_trace[ev.trace_id].push_back(ev);
  }
  for (const auto& [trace_id, group] : by_trace) {
    SpanTreeInfo info;
    Status st = ValidateSpanTree(group, &info);
    if (!st.ok()) {
      return Status::InvalidArgument("trace " + std::to_string(trace_id) +
                                     ": " + std::string(st.message()));
    }
    if (trees != nullptr) trees->push_back(info);
  }
  return Status::OK();
}

}  // namespace tdb::common
