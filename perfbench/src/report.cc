#include "report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

namespace perfbench {

void Report::Add(const std::string& name, double value,
                 const std::string& unit) {
  metrics_.push_back(Metric{name, value, unit});
}

double Report::Get(const std::string& name) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) return m.value;
  }
  return std::numeric_limits<double>::quiet_NaN();
}

std::string Report::MetricsJson() const {
  std::string out = "{";
  for (size_t i = 0; i < metrics_.size(); i++) {
    const Metric& m = metrics_[i];
    char value[64];
    if (std::isfinite(m.value)) {
      std::snprintf(value, sizeof(value), "%.17g", m.value);
    } else {
      std::snprintf(value, sizeof(value), "null");
    }
    out += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + value +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  return out + "}";
}

namespace {

// Nearest-rank percentile of sorted samples.
double Rank(const std::vector<float>& sorted, double q) {
  if (sorted.empty()) return 0;
  size_t idx = static_cast<size_t>(std::ceil(q * sorted.size()));
  idx = idx == 0 ? 0 : idx - 1;
  return sorted[std::min(idx, sorted.size() - 1)];
}

}  // namespace

LatencySummary Summarize(std::vector<float> samples) {
  LatencySummary s;
  std::sort(samples.begin(), samples.end());
  s.count = samples.size();
  s.p50 = Rank(samples, 0.50);
  s.p99 = Rank(samples, 0.99);
  s.tail = s.p50;
  s.tail_label = "p50";
  struct Level {
    double q;
    const char* label;
  };
  for (Level level : {Level{0.9999, "p99.99"}, Level{0.999, "p99.9"},
                      Level{0.99, "p99"}, Level{0.90, "p90"}}) {
    if ((1.0 - level.q) * s.count >= 10) {
      s.tail = Rank(samples, level.q);
      s.tail_label = level.label;
      break;
    }
  }
  return s;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

}  // namespace perfbench
