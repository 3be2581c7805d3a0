#ifndef TDB_COMMON_TRACE_EXPORT_H_
#define TDB_COMMON_TRACE_EXPORT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/trace.h"

namespace tdb::common {

/// Serializes spans to Chrome trace-event JSON ("X" complete events with
/// microsecond ts/dur), loadable directly by Perfetto / chrome://tracing.
/// Causal ids travel in args: {"trace","span","parent"} as 16-digit hex
/// strings (strings, not numbers, so ids above 2^53 survive JS viewers).
std::string TraceEventsToChromeJson(const std::vector<TraceEvent>& events);

/// Appends the "traceEvents" array of TraceEventsToChromeJson to `out`
/// (flight-recorder bundles write it beside their own members).
void AppendChromeTraceEvents(const std::vector<TraceEvent>& events,
                             std::string* out);

/// Parses the output of TraceEventsToChromeJson (or a flight-recorder
/// bundle, which embeds the same "traceEvents" array) with the strict
/// JsonReader (common/json.h): the whole input must be one well-formed
/// document. Unknown fields are skipped; names are interned, so the
/// returned events never dangle.
Status TraceEventsFromChromeJson(const std::string& json,
                                 std::vector<TraceEvent>* out);

/// Shape of one validated trace.
struct SpanTreeInfo {
  uint64_t trace_id = 0;
  uint64_t root_span_id = 0;
  size_t span_count = 0;
  size_t max_depth = 1;  // Root-only tree has depth 1.
};

/// Checks that `events` (all of which must share one trace id) form a
/// single rooted tree: exactly one root span (parent 0), unique span ids,
/// every parent resolving to a span in the set, and every span reachable
/// from the root (no cycles).
Status ValidateSpanTree(const std::vector<TraceEvent>& events,
                        SpanTreeInfo* info);

/// Groups `events` by trace id and validates each group as a tree.
/// `trees` (optional) receives one entry per trace, ordered by trace id.
Status ValidateTraceForest(const std::vector<TraceEvent>& events,
                           std::vector<SpanTreeInfo>* trees);

}  // namespace tdb::common

#endif  // TDB_COMMON_TRACE_EXPORT_H_
