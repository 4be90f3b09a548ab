#include "dist/builtin_metrics.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <sstream>

#include "common/isa_clones.h"

namespace msq {

double EuclideanMetric::Distance(const Vec& a, const Vec& b) const {
  assert(a.size() == b.size());
  double sum = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    const double d = static_cast<double>(a[i]) - b[i];
    sum += d * d;
  }
  return std::sqrt(sum);
}

namespace {
// Per-dimension distance from q[d] to the interval [lo[d], hi[d]]: zero
// inside, gap to the nearer edge outside.
inline double BoxGap(Scalar q, Scalar lo, Scalar hi) {
  if (q < lo) return static_cast<double>(lo) - q;
  if (q > hi) return static_cast<double>(q) - hi;
  return 0.0;
}

// Shared skeleton of the batched Lp kernels: kRows rows at a time, one
// independent accumulator chain per row. Each row's per-dimension update
// order is exactly the scalar loop's, so results are bit-identical to
// Distance() — the speed comes from breaking the FP-add latency chain
// across rows (and letting the compiler vectorize the independent chains),
// not from reassociating any row's sum.
//
// `Init` yields the accumulator start value, `Step(acc, q_d, row_d, d)`
// folds one dimension, `Finish(acc)` maps the accumulator to a distance.
// Returns the first unprocessed row index.
template <size_t kRows, typename Init, typename Step, typename Finish>
inline size_t BatchRowsPass(const Scalar* qd, const VecBlock& block, size_t i,
                            std::span<double> out, Init init, Step step,
                            Finish finish) {
  const size_t dim = block.dim;
  for (; i + kRows <= block.count; i += kRows) {
    const Scalar* rows[kRows];
    for (size_t r = 0; r < kRows; ++r) rows[r] = block.row(i + r);
    double acc[kRows];
    for (size_t r = 0; r < kRows; ++r) acc[r] = init();
    for (size_t d = 0; d < dim; ++d) {
      const double qv = static_cast<double>(qd[d]);
      for (size_t r = 0; r < kRows; ++r) acc[r] = step(acc[r], qv, rows[r][d], d);
    }
    for (size_t r = 0; r < kRows; ++r) out[i + r] = finish(acc[r]);
  }
  return i;
}

// Main pass over a block's tile-major mirror (see VecBlock::tiles): the
// kVecBlockTileRows same-dimension components of a group are contiguous,
// so each accumulator update is a unit-stride vector load instead of a
// gather across row pointers. Per-row accumulation order is still the
// scalar loop's (lane r only ever folds row i+r's components, in
// dimension order), so results remain bit-identical.
template <typename Init, typename Step, typename Finish>
inline size_t BatchTilesPass(const Scalar* qd, const VecBlock& block,
                             std::span<double> out, Init init, Step step,
                             Finish finish) {
  constexpr size_t kRows = kVecBlockTileRows;
  const size_t dim = block.dim;
  const size_t tiled = block.tiled_count();
  for (size_t i = 0; i + kRows <= tiled; i += kRows) {
    const Scalar* tile = block.tiles + i * dim;
    double acc[kRows];
    for (size_t r = 0; r < kRows; ++r) acc[r] = init();
    for (size_t d = 0; d < dim; ++d) {
      const double qv = static_cast<double>(qd[d]);
      const Scalar* lane = tile + d * kRows;
      for (size_t r = 0; r < kRows; ++r) acc[r] = step(acc[r], qv, lane[r], d);
    }
    for (size_t r = 0; r < kRows; ++r) out[i + r] = finish(acc[r]);
  }
  return tiled;
}

// Full block: the tile-major main pass when the block carries a mirror
// (16-row unit-stride lanes), otherwise a 16-row row-major pass; then a
// 4-row pass over what remains and a scalar tail.
template <typename Init, typename Step, typename Finish>
inline void BatchRows(const Vec& q, const VecBlock& block,
                      std::span<double> out, Init init, Step step,
                      Finish finish) {
  assert(block.dim == q.size() && out.size() >= block.count);
  const Scalar* qd = q.data();
  const size_t dim = block.dim;
  size_t i = block.tiles != nullptr
                 ? BatchTilesPass(qd, block, out, init, step, finish)
                 : BatchRowsPass<16>(qd, block, 0, out, init, step, finish);
  i = BatchRowsPass<4>(qd, block, i, out, init, step, finish);
  for (; i < block.count; ++i) {
    const Scalar* r = block.row(i);
    double a = init();
    for (size_t d = 0; d < dim; ++d) {
      a = step(a, static_cast<double>(qd[d]), r[d], d);
    }
    out[i] = finish(a);
  }
}

// The hot Lp kernels are additionally compiled per ISA (common/isa_clones.h).
// Bit-exactness is preserved because this translation unit is built with
// -ffp-contract=off (see src/CMakeLists.txt): without it the AVX-512 clone
// would contract `acc + d * d` into an FMA, whose single rounding differs
// from the scalar path's separate multiply and add.

MSQ_KERNEL_ISA_CLONES
void EuclideanBatchKernel(const Vec& q, const VecBlock& block,
                          std::span<double> out) {
  BatchRows(
      q, block, out, [] { return 0.0; },
      [](double acc, double qv, Scalar rv, size_t) {
        const double d = qv - rv;
        return acc + d * d;
      },
      [](double acc) { return std::sqrt(acc); });
}

MSQ_KERNEL_ISA_CLONES
void ManhattanBatchKernel(const Vec& q, const VecBlock& block,
                          std::span<double> out) {
  BatchRows(
      q, block, out, [] { return 0.0; },
      [](double acc, double qv, Scalar rv, size_t) {
        return acc + std::fabs(qv - rv);
      },
      [](double acc) { return acc; });
}

MSQ_KERNEL_ISA_CLONES
void ChebyshevBatchKernel(const Vec& q, const VecBlock& block,
                          std::span<double> out) {
  BatchRows(
      q, block, out, [] { return 0.0; },
      [](double acc, double qv, Scalar rv, size_t) {
        return std::max(acc, std::fabs(qv - rv));
      },
      [](double acc) { return acc; });
}

MSQ_KERNEL_ISA_CLONES
void WeightedEuclideanBatchKernel(const double* w, const Vec& q,
                                  const VecBlock& block,
                                  std::span<double> out) {
  BatchRows(
      q, block, out, [] { return 0.0; },
      [w](double acc, double qv, Scalar rv, size_t d) {
        const double diff = qv - rv;
        return acc + w[d] * diff * diff;
      },
      [](double acc) { return std::sqrt(acc); });
}
}  // namespace

void EuclideanMetric::BatchDistance(const Vec& q, const VecBlock& block,
                                    std::span<double> out) const {
  EuclideanBatchKernel(q, block, out);
}

double EuclideanMetric::MinDistToBox(const Vec& q, const Vec& lo,
                                     const Vec& hi) const {
  assert(q.size() == lo.size() && q.size() == hi.size());
  double sum = 0.0;
  for (size_t d = 0; d < q.size(); ++d) {
    const double g = BoxGap(q[d], lo[d], hi[d]);
    sum += g * g;
  }
  return std::sqrt(sum);
}

double ManhattanMetric::Distance(const Vec& a, const Vec& b) const {
  assert(a.size() == b.size());
  double sum = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    sum += std::fabs(static_cast<double>(a[i]) - b[i]);
  }
  return sum;
}

double ChebyshevMetric::Distance(const Vec& a, const Vec& b) const {
  assert(a.size() == b.size());
  double max = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    max = std::max(max, std::fabs(static_cast<double>(a[i]) - b[i]));
  }
  return max;
}

void ManhattanMetric::BatchDistance(const Vec& q, const VecBlock& block,
                                    std::span<double> out) const {
  ManhattanBatchKernel(q, block, out);
}

void ChebyshevMetric::BatchDistance(const Vec& q, const VecBlock& block,
                                    std::span<double> out) const {
  ChebyshevBatchKernel(q, block, out);
}

double ManhattanMetric::MinDistToBox(const Vec& q, const Vec& lo,
                                     const Vec& hi) const {
  double sum = 0.0;
  for (size_t d = 0; d < q.size(); ++d) sum += BoxGap(q[d], lo[d], hi[d]);
  return sum;
}

double ChebyshevMetric::MinDistToBox(const Vec& q, const Vec& lo,
                                     const Vec& hi) const {
  double max = 0.0;
  for (size_t d = 0; d < q.size(); ++d) {
    max = std::max(max, BoxGap(q[d], lo[d], hi[d]));
  }
  return max;
}

StatusOr<MinkowskiMetric> MinkowskiMetric::Make(double p) {
  if (!(p >= 1.0)) {
    return Status::InvalidArgument("Minkowski requires p >= 1 to be a metric");
  }
  return MinkowskiMetric(p);
}

double MinkowskiMetric::Distance(const Vec& a, const Vec& b) const {
  assert(a.size() == b.size());
  double sum = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    sum += std::pow(std::fabs(static_cast<double>(a[i]) - b[i]), p_);
  }
  return std::pow(sum, 1.0 / p_);
}

void MinkowskiMetric::BatchDistance(const Vec& q, const VecBlock& block,
                                    std::span<double> out) const {
  // pow() dominates; the win over the fallback is dropping the per-row
  // virtual call and Vec copy, so no ISA-cloned kernel is needed.
  const double p = p_;
  BatchRows(
      q, block, out, [] { return 0.0; },
      [p](double acc, double qv, Scalar rv, size_t) {
        return acc + std::pow(std::fabs(qv - rv), p);
      },
      [p](double acc) { return std::pow(acc, 1.0 / p); });
}

double MinkowskiMetric::MinDistToBox(const Vec& q, const Vec& lo,
                                     const Vec& hi) const {
  double sum = 0.0;
  for (size_t d = 0; d < q.size(); ++d) {
    sum += std::pow(BoxGap(q[d], lo[d], hi[d]), p_);
  }
  return std::pow(sum, 1.0 / p_);
}

std::string MinkowskiMetric::Name() const {
  std::ostringstream os;
  os << "minkowski_p" << p_;
  return os.str();
}

StatusOr<WeightedEuclideanMetric> WeightedEuclideanMetric::Make(
    std::vector<double> weights) {
  for (double w : weights) {
    if (!(w > 0.0)) {
      return Status::InvalidArgument(
          "weighted Euclidean requires strictly positive weights");
    }
  }
  if (weights.empty()) {
    return Status::InvalidArgument("weight vector must be non-empty");
  }
  return WeightedEuclideanMetric(std::move(weights));
}

double WeightedEuclideanMetric::Distance(const Vec& a, const Vec& b) const {
  assert(a.size() == b.size() && a.size() == weights_.size());
  double sum = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    const double d = static_cast<double>(a[i]) - b[i];
    sum += weights_[i] * d * d;
  }
  return std::sqrt(sum);
}

void WeightedEuclideanMetric::BatchDistance(const Vec& q,
                                            const VecBlock& block,
                                            std::span<double> out) const {
  assert(block.dim == weights_.size());
  WeightedEuclideanBatchKernel(weights_.data(), q, block, out);
}

double WeightedEuclideanMetric::MinDistToBox(const Vec& q, const Vec& lo,
                                             const Vec& hi) const {
  double sum = 0.0;
  for (size_t d = 0; d < q.size(); ++d) {
    const double g = BoxGap(q[d], lo[d], hi[d]);
    sum += weights_[d] * g * g;
  }
  return std::sqrt(sum);
}

namespace {
// In-place Cholesky test for positive definiteness of a row-major symmetric
// matrix. Returns false when a non-positive pivot appears.
bool IsPositiveDefinite(size_t n, std::vector<double> m) {
  for (size_t j = 0; j < n; ++j) {
    double d = m[j * n + j];
    for (size_t k = 0; k < j; ++k) d -= m[j * n + k] * m[j * n + k];
    if (d <= 0.0) return false;
    const double l = std::sqrt(d);
    m[j * n + j] = l;
    for (size_t i = j + 1; i < n; ++i) {
      double s = m[i * n + j];
      for (size_t k = 0; k < j; ++k) s -= m[i * n + k] * m[j * n + k];
      m[i * n + j] = s / l;
    }
  }
  return true;
}
}  // namespace

StatusOr<QuadraticFormMetric> QuadraticFormMetric::Make(
    size_t dim, std::vector<double> matrix) {
  if (matrix.size() != dim * dim) {
    return Status::InvalidArgument("quadratic form matrix must be dim x dim");
  }
  for (size_t i = 0; i < dim; ++i) {
    for (size_t j = i + 1; j < dim; ++j) {
      if (std::fabs(matrix[i * dim + j] - matrix[j * dim + i]) > 1e-9) {
        return Status::InvalidArgument("quadratic form matrix not symmetric");
      }
      // Enforce exact symmetry to keep Distance() symmetric bit-for-bit.
      const double avg = 0.5 * (matrix[i * dim + j] + matrix[j * dim + i]);
      matrix[i * dim + j] = matrix[j * dim + i] = avg;
    }
  }
  if (!IsPositiveDefinite(dim, matrix)) {
    return Status::InvalidArgument(
        "quadratic form matrix must be positive definite to define a metric");
  }
  return QuadraticFormMetric(dim, std::move(matrix));
}

QuadraticFormMetric QuadraticFormMetric::HistogramSimilarity(size_t dim,
                                                             double sigma) {
  std::vector<double> m(dim * dim);
  for (size_t i = 0; i < dim; ++i) {
    for (size_t j = 0; j < dim; ++j) {
      const double delta =
          std::fabs(static_cast<double>(i) - static_cast<double>(j)) /
          static_cast<double>(dim);
      m[i * dim + j] = std::exp(-sigma * delta);
    }
  }
  auto made = Make(dim, std::move(m));
  assert(made.ok());  // exp(-sigma |i-j|/d) is PD for sigma > 0.
  return std::move(made).value();
}

double QuadraticFormMetric::Distance(const Vec& a, const Vec& b) const {
  assert(a.size() == dim_ && b.size() == dim_);
  // (a-b)^T A (a-b); O(d^2) — deliberately expensive, like the real
  // histogram distance, which is why avoiding it matters.
  double total = 0.0;
  for (size_t i = 0; i < dim_; ++i) {
    const double di = static_cast<double>(a[i]) - b[i];
    if (di == 0.0) continue;
    double row = 0.0;
    for (size_t j = 0; j < dim_; ++j) {
      row += matrix_[i * dim_ + j] * (static_cast<double>(a[j]) - b[j]);
    }
    total += di * row;
  }
  return std::sqrt(std::max(0.0, total));
}

double AngularMetric::Distance(const Vec& a, const Vec& b) const {
  assert(a.size() == b.size());
  double dot = 0.0, na = 0.0, nb = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    dot += static_cast<double>(a[i]) * b[i];
    na += static_cast<double>(a[i]) * a[i];
    nb += static_cast<double>(b[i]) * b[i];
  }
  if (na == 0.0 && nb == 0.0) return 0.0;
  if (na == 0.0 || nb == 0.0) return M_PI / 2.0;
  double c = dot / (std::sqrt(na) * std::sqrt(nb));
  c = std::clamp(c, -1.0, 1.0);
  return std::acos(c);
}

StatusOr<std::shared_ptr<const Metric>> MetricFromName(
    const std::string& name) {
  if (name == "euclidean") return {std::make_shared<EuclideanMetric>()};
  if (name == "manhattan") return {std::make_shared<ManhattanMetric>()};
  if (name == "chebyshev") return {std::make_shared<ChebyshevMetric>()};
  if (name == "angular") return {std::make_shared<AngularMetric>()};
  return Status::NotSupported("metric \"" + name +
                              "\" cannot be reconstructed from its name; "
                              "supply it explicitly");
}

}  // namespace msq
