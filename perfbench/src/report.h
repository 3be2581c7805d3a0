#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// Metrics in the order they were added; names are unique.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  const std::vector<Metric>& metrics() const { return metrics_; }
  // NaN if absent.
  double Get(const std::string& name) const;

  // {"name": {"value": v, "unit": "u"}, ...} with every digit of v.
  std::string MetricsJson() const;

 private:
  std::vector<Metric> metrics_;
};

// Latency samples in microseconds.
struct LatencySummary {
  size_t count = 0;
  double p50 = 0;
  double p99 = 0;
  // The highest of p99.99/p99.9/p99/p90/p50 with at least ten samples
  // beyond it, and its label ("p99.9", ...).
  double tail = 0;
  std::string tail_label;
};
LatencySummary Summarize(std::vector<float> samples);

double Median(std::vector<double> values);

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
