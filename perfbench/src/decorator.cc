#include "decorator.h"

#include "spans.h"

namespace perfbench {

double TimedMetric::Distance(const msq::Vec& a, const msq::Vec& b) const {
  const int64_t start = NowNanos();
  const double d = base_.Distance(a, b);
  Charge(1, NowNanos() - start);
  return d;
}

void TimedMetric::BatchDistance(const msq::Vec& q, const msq::VecBlock& block,
                                std::span<double> out) const {
  const int64_t start = NowNanos();
  base_.BatchDistance(q, block, out);
  Charge(block.count, NowNanos() - start);
}

void TimedMetric::Charge(uint64_t rows, int64_t nanos) const {
  ScopedSpan::ChargeDistance(nanos);
  calls_.fetch_add(1, std::memory_order_relaxed);
  rows_.fetch_add(rows, std::memory_order_relaxed);
  nanos_.fetch_add(nanos, std::memory_order_relaxed);
}

DistTotals TimedMetric::totals() const {
  return DistTotals{calls_.load(), rows_.load(), nanos_.load()};
}

}  // namespace perfbench
