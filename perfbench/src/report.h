// Percentile selection and the result record every workload fills.

#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

namespace perfbench {

/// Latency sample of a request that was shed or failed: it counts as
/// above every latency limit.
inline constexpr double kMissed = std::numeric_limits<double>::infinity();

/// Nearest-rank percentile (p in (0, 100]): the smallest sample that has
/// at least p% of all samples at or below it. 0 when empty.
double Percentile(std::vector<double> samples, double p);

/// Samples ranked strictly above the p-th percentile of n samples.
size_t SamplesBeyond(size_t n, double p);

/// A run may report its p-th percentile only with at least ten samples
/// beyond it.
bool SupportsPercentile(size_t n, double p);

struct MetricValue {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run produced.
struct Result {
  /// Every output check passed.
  bool correct = true;
  /// Operations attempted, and those that were shed, failed or answered
  /// wrongly.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// The metrics of the run's kind: end-to-end (untraced run) or
  /// per-layer (traced run), in BENCHMARK.json order.
  std::vector<MetricValue> metrics;
  /// Reported for reading but not gated: workload-specific figures.
  std::vector<MetricValue> extras;

  void Set(const std::string& name, double value);
  void Extra(const std::string& name, double value, const std::string& unit);
};

/// The end-to-end metrics of an untraced run, all zero.
Result EndToEndTemplate();
/// The per-layer metrics of a traced run, all zero.
Result PerLayerTemplate();

/// Human-readable lines, one metric per line.
void PrintReport(std::FILE* out, const Result& result);
/// The one-line JSON result: {"correct", "attempted", "failed",
/// "metrics": {name: {"value", "unit"}}}. A non-finite value (a
/// percentile that landed on a missed request) is written as 1e12.
std::string ResultJson(const Result& result);

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
