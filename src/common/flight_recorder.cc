#include "common/flight_recorder.h"

#include <algorithm>
#include <fstream>

#include "common/json.h"
#include "common/trace_export.h"

namespace tdb::common {

std::string FlightBundle::ToJson() const {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":";
  AppendChromeTraceEvents(spans, &out);
  out += ",\n\"tdb_flight\":{\"reason\":";
  AppendJsonString(reason, &out);
  out += ",\"detail\":";
  AppendJsonString(detail, &out);
  out += ",\"at_us\":";
  out += std::to_string(at_us);
  out += ",\"seq\":";
  out += std::to_string(seq);
  out += "},\n\"tdb_metrics_delta\":";
  out += metrics_delta.ToJson();
  out += "}\n";
  return out;
}

FlightRecorder::FlightRecorder(std::shared_ptr<MetricsRegistry> registry,
                               FlightRecorderOptions options)
    : registry_(std::move(registry)), options_(options) {
  baseline_ = registry_->Snapshot();
  registry_->audit().SetObserver([this](const AuditEvent& ev) {
    Trigger("audit:" + ev.kind, ev.location + ": " + ev.message);
  });
  registry_->SetIncidentObserver(
      [this](const std::string& kind, const std::string& detail) {
        Trigger(kind, detail);
      });
}

FlightRecorder::~FlightRecorder() {
  registry_->audit().SetObserver(nullptr);
  registry_->SetIncidentObserver(nullptr);
}

void FlightRecorder::Trigger(const std::string& reason,
                             const std::string& detail) {
  FlightBundle bundle;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const uint64_t now = MonotonicMicros();
    if (armed_ && options_.min_interval_us > 0 &&
        now - last_trigger_us_ < options_.min_interval_us) {
      suppressed_++;
      return;
    }
    armed_ = true;
    last_trigger_us_ = now;

    bundle.reason = reason;
    bundle.detail = detail;
    bundle.at_us = now;
    bundle.seq = seq_++;
    // Non-destructive snapshot: a later exporter / tdbstat --trace still
    // sees everything the bundle saw.
    bundle.spans = SnapshotTraceEvents();
    std::sort(bundle.spans.begin(), bundle.spans.end(),
              [](const TraceEvent& a, const TraceEvent& b) {
                return a.start_us < b.start_us;
              });
    if (bundle.spans.size() > options_.max_spans) {
      bundle.spans.erase(
          bundle.spans.begin(),
          bundle.spans.end() - static_cast<ptrdiff_t>(options_.max_spans));
    }
    MetricsSnapshot current = registry_->Snapshot();
    bundle.metrics_delta = current.DeltaSince(baseline_);
    baseline_ = std::move(current);

    bundles_.push_back(bundle);
    while (bundles_.size() > options_.max_bundles) bundles_.pop_front();
    written_++;
  }
  if (!options_.directory.empty()) {
    const std::string path =
        options_.directory + "/flight-" + std::to_string(bundle.seq) + ".json";
    std::ofstream f(path, std::ios::trunc);
    if (f) f << bundle.ToJson();  // Best-effort: post-mortem sink only.
  }
}

uint64_t FlightRecorder::bundles_written() const {
  std::lock_guard<std::mutex> lock(mu_);
  return written_;
}

uint64_t FlightRecorder::bundles_suppressed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return suppressed_;
}

std::vector<FlightBundle> FlightRecorder::bundles() const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::vector<FlightBundle>(bundles_.begin(), bundles_.end());
}

}  // namespace tdb::common
