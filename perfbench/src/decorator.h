// TimedMetric: the benchmark's Metric decorator for the `dist` layer.
//
// Forwards Distance, BatchDistance, MinDistToBox and Name() to a wrapped
// EuclideanMetric, timing each Distance/BatchDistance call. A call's time
// is charged to the innermost open benchmark span of the calling thread
// (ScopedSpan::ChargeDistance) and always to process-wide totals. Name()
// forwards, so Open(path) accepts the decorator in place of the stored
// metric.

#ifndef PERFBENCH_DECORATOR_H_
#define PERFBENCH_DECORATOR_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "dist/box_metric.h"
#include "dist/builtin_metrics.h"
#include "dist/metric.h"

namespace perfbench {

/// Process-wide distance-call totals of one decorator.
struct DistTotals {
  uint64_t calls = 0;
  uint64_t rows = 0;
  int64_t nanos = 0;
};

class TimedMetric : public msq::Metric, public msq::BoxDistanceMetric {
 public:
  double Distance(const msq::Vec& a, const msq::Vec& b) const override;
  void BatchDistance(const msq::Vec& q, const msq::VecBlock& block,
                     std::span<double> out) const override;
  double MinDistToBox(const msq::Vec& q, const msq::Vec& lo,
                      const msq::Vec& hi) const override {
    return base_.MinDistToBox(q, lo, hi);
  }
  std::string Name() const override { return base_.Name(); }

  DistTotals totals() const;

 private:
  void Charge(uint64_t rows, int64_t nanos) const;

  msq::EuclideanMetric base_;
  mutable std::atomic<uint64_t> calls_{0};
  mutable std::atomic<uint64_t> rows_{0};
  mutable std::atomic<int64_t> nanos_{0};
};

}  // namespace perfbench

#endif  // PERFBENCH_DECORATOR_H_
