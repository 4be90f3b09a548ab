#include "core/pivot_table.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <ostream>

#include "common/isa_clones.h"
#include "common/rng.h"
#include "common/serialize.h"

namespace msq {

namespace {

constexpr uint32_t kPivotMagic = 0x4d535150;  // "MSQP"
constexpr uint32_t kPivotVersion = 1;

/// Objects per PivotPageBlock tile: one AVX-512 vector of doubles.
constexpr size_t kPivotTileObjects = 8;

// For every lane o < stride: first[o] = the smallest k < p with
// |cols[k * stride + o] - q[k]| > r, or p when there is none. Per 8-object
// tile and 64-pivot chunk, each lane ORs one bit per proving pivot into a
// mask with no data-dependent branch (the fixed-width lane loop, unrolled,
// is what the vectorizer widens: one compare and one variable shift per
// pivot and tile in the AVX2/AVX-512 clones); the chunk's first proving
// pivot is the mask's count of trailing zeros. Only subtractions, absolute
// values and compares: every clone computes the same bits.
MSQ_KERNEL_ISA_CLONES
void PivotFirstHits(const double* cols, size_t stride, size_t p,
                    const double* q, double r, uint32_t* first) {
  constexpr size_t kLanes = kPivotTileObjects;
  for (size_t o = 0; o < stride; o += kLanes) {
    uint64_t hit[kLanes];
    for (size_t t = 0; t < kLanes; ++t) hit[t] = p;
    for (size_t k0 = 0; k0 < p; k0 += 64) {
      const size_t k1 = std::min(p, k0 + 64);
      uint64_t mask[kLanes] = {};
      for (size_t k = k0; k < k1; ++k) {
        const double qk = q[k];
        const double* col = cols + k * stride + o;
#pragma GCC unroll 8
        for (size_t t = 0; t < kLanes; ++t) {
          mask[t] |= static_cast<uint64_t>(std::fabs(col[t] - qk) > r)
                     << (k - k0);
        }
      }
      for (size_t t = 0; t < kLanes; ++t) {
        const uint64_t chunk_hit =
            mask[t] != 0 ? k0 + std::countr_zero(mask[t]) : p;
        hit[t] = std::min(hit[t], chunk_hit);
      }
    }
    for (size_t t = 0; t < kLanes; ++t) {
      first[o + t] = static_cast<uint32_t>(hit[t]);
    }
  }
}

}  // namespace

StatusOr<std::unique_ptr<PivotTable>> PivotTable::Build(
    const Dataset& dataset, const Metric& metric,
    const PivotTableOptions& options) {
  if (dataset.empty()) {
    return Status::InvalidArgument("dataset is empty");
  }
  if (options.num_pivots == 0) {
    return Status::InvalidArgument("num_pivots must be positive");
  }
  const size_t n = dataset.size();
  const size_t want = std::min(options.num_pivots, n);

  // Maxmin (farthest-first) selection over a sample: the first pivot is the
  // sample object farthest from an arbitrary anchor, each further pivot the
  // sample object maximizing its distance to the nearest chosen pivot.
  // Spread-out pivots make |dist(O,P) - dist(Q,P)| large for objects far
  // from the query, which is exactly when the filter should fire.
  Rng rng(options.seed);
  const size_t sample_size = std::min(std::max<size_t>(options.sample_size,
                                                       want),
                                      n);
  std::vector<ObjectId> sample;
  sample.reserve(sample_size);
  for (uint64_t id : rng.SampleWithoutReplacement(n, sample_size)) {
    sample.push_back(static_cast<ObjectId>(id));
  }

  std::vector<ObjectId> pivot_ids;
  // min over chosen pivots of dist(sample[i], pivot); seeded with the
  // anchor distances so the first "farthest" pick falls out of the same
  // update loop.
  std::vector<double> min_dist(sample.size(),
                               std::numeric_limits<double>::infinity());
  const Vec& anchor = dataset.object(sample[0]);
  for (size_t i = 0; i < sample.size(); ++i) {
    min_dist[i] = metric.Distance(anchor, dataset.object(sample[i]));
  }
  while (pivot_ids.size() < want) {
    size_t best = 0;
    for (size_t i = 1; i < sample.size(); ++i) {
      if (min_dist[i] > min_dist[best]) best = i;
    }
    if (!(min_dist[best] > 0.0)) {
      // Every remaining candidate coincides with a chosen pivot (or the
      // anchor, for the first pick on an all-duplicates sample): further
      // pivots add no pruning power.
      if (pivot_ids.empty()) pivot_ids.push_back(sample[0]);
      break;
    }
    const ObjectId chosen = sample[best];
    pivot_ids.push_back(chosen);
    const Vec& pv = dataset.object(chosen);
    for (size_t i = 0; i < sample.size(); ++i) {
      min_dist[i] =
          std::min(min_dist[i], metric.Distance(pv, dataset.object(sample[i])));
    }
  }

  auto table = std::unique_ptr<PivotTable>(new PivotTable());
  table->num_pivots_ = pivot_ids.size();
  table->num_objects_ = n;
  table->pivot_ids_ = std::move(pivot_ids);
  table->pivot_points_.reserve(table->num_pivots_);
  for (ObjectId id : table->pivot_ids_) {
    table->pivot_points_.push_back(dataset.object(id));
  }
  const size_t p = table->num_pivots_;
  auto rows = std::make_shared<std::vector<double>>(n * p);
  for (ObjectId o = 0; o < n; ++o) {
    double* row = rows->data() + static_cast<size_t>(o) * p;
    const Vec& obj = dataset.object(o);
    for (size_t k = 0; k < p; ++k) {
      row[k] = metric.Distance(table->pivot_points_[k], obj);
    }
  }
  table->base_objects_ = n;
  table->base_rows_ = std::move(rows);
  return table;
}

std::shared_ptr<const PivotTable> PivotTable::WithAppendedRow(
    const Vec& point, const Metric& metric) const {
  auto next = std::shared_ptr<PivotTable>(new PivotTable(*this));
  std::vector<double> row(num_pivots_);
  for (size_t k = 0; k < num_pivots_; ++k) {
    row[k] = metric.Distance(pivot_points_[k], point);
  }
  next->extra_rows_.PushBack(std::move(row));
  ++next->num_objects_;
  return next;
}

void PivotTable::QueryDists(const Vec& q, const Metric& metric,
                            QueryStats* stats,
                            std::vector<double>* out) const {
  out->resize(num_pivots_);
  for (size_t k = 0; k < num_pivots_; ++k) {
    (*out)[k] = metric.Distance(q, pivot_points_[k]);
  }
  if (stats != nullptr) stats->pivot_dist_computations += num_pivots_;
}

Status PivotTable::SaveTo(std::ostream& out) const {
  MSQ_RETURN_IF_ERROR(WriteU32(out, kPivotMagic));
  MSQ_RETURN_IF_ERROR(WriteU32(out, kPivotVersion));
  MSQ_RETURN_IF_ERROR(WriteU32(out, static_cast<uint32_t>(num_pivots_)));
  MSQ_RETURN_IF_ERROR(WriteU64(out, num_objects_));
  MSQ_RETURN_IF_ERROR(WriteVector(out, pivot_ids_));
  // Flattened base + appended rows: the loaded table is single-tier again
  // (in practice Save compacts first, so the extension is usually empty).
  std::vector<double> rows = *base_rows_;
  rows.reserve(num_objects_ * num_pivots_);
  for (size_t i = base_objects_; i < num_objects_; ++i) {
    const double* row = Row(static_cast<ObjectId>(i));
    rows.insert(rows.end(), row, row + num_pivots_);
  }
  MSQ_RETURN_IF_ERROR(WriteVector(out, rows));
  if (!out) return Status::IOError("write failed (pivot table)");
  return Status::OK();
}

StatusOr<std::unique_ptr<PivotTable>> PivotTable::LoadFrom(
    std::istream& in, const Dataset& dataset, const Metric& metric) {
  MSQ_RETURN_IF_ERROR(ExpectTag(in, kPivotMagic, "pivot table"));
  uint32_t version = 0;
  MSQ_RETURN_IF_ERROR(ReadU32(in, &version));
  if (version != kPivotVersion) {
    return Status::NotSupported("unsupported pivot-table version " +
                                std::to_string(version));
  }
  uint32_t p = 0;
  uint64_t n = 0;
  MSQ_RETURN_IF_ERROR(ReadU32(in, &p));
  MSQ_RETURN_IF_ERROR(ReadU64(in, &n));
  if (p == 0 || n == 0 || n != dataset.size()) {
    return Status::Corruption("pivot table disagrees with the dataset");
  }
  auto table = std::unique_ptr<PivotTable>(new PivotTable());
  table->num_pivots_ = p;
  table->num_objects_ = static_cast<size_t>(n);
  table->base_objects_ = table->num_objects_;
  MSQ_RETURN_IF_ERROR(ReadVector(in, &table->pivot_ids_));
  auto rows = std::make_shared<std::vector<double>>();
  MSQ_RETURN_IF_ERROR(ReadVector(in, rows.get()));
  table->base_rows_ = std::move(rows);
  if (in.peek() != std::istream::traits_type::eof()) {
    return Status::Corruption("trailing bytes after pivot table");
  }
  if (table->pivot_ids_.size() != p ||
      table->base_rows_->size() != table->num_objects_ * p) {
    return Status::Corruption("pivot table arrays disagree with its header");
  }
  for (ObjectId id : table->pivot_ids_) {
    if (id >= dataset.size()) {
      return Status::Corruption("pivot id out of range");
    }
  }
  table->pivot_points_.reserve(p);
  for (ObjectId id : table->pivot_ids_) {
    table->pivot_points_.push_back(dataset.object(id));
  }
  // Spot-check stored rows against the supplied metric: a handful of
  // objects re-derived exactly (Build uses the same scalar Distance path,
  // so equality is bit-exact). Catches a metric or dataset mismatch without
  // paying a full n x p rebuild.
  const ObjectId probes[] = {0, static_cast<ObjectId>(dataset.size() / 2),
                             static_cast<ObjectId>(dataset.size() - 1)};
  for (ObjectId o : probes) {
    const double* row = table->Row(o);
    for (size_t k = 0; k < p; ++k) {
      if (row[k] != metric.Distance(table->pivot_points_[k],
                                    dataset.object(o))) {
        return Status::Corruption(
            "stored pivot distances disagree with the metric");
      }
    }
  }
  return table;
}

void PivotPageBlock::Gather(const PivotTable& table,
                            std::span<const ObjectId> ids) {
  n_ = ids.size();
  p_ = table.num_pivots();
  stride_ = (n_ + kPivotTileObjects - 1) / kPivotTileObjects *
            kPivotTileObjects;
  cols_.resize(p_ * stride_);
  first_.resize(stride_);
  for (size_t o = 0; o < n_; ++o) {
    const double* row = table.Row(ids[o]);
    for (size_t k = 0; k < p_; ++k) cols_[k * stride_ + o] = row[k];
  }
  for (size_t k = 0; k < p_; ++k) {
    std::fill(cols_.begin() + k * stride_ + n_,
              cols_.begin() + (k + 1) * stride_,
              std::numeric_limits<double>::quiet_NaN());
  }
}

void PivotPageBlock::Filter(const double* query_row, double query_dist,
                            std::vector<uint32_t>* survivors,
                            QueryStats* stats) {
  const size_t base = survivors->size();
  survivors->resize(base + n_);
  uint32_t* out = survivors->data() + base;
  if (std::isinf(query_dist)) {
    // PivotCanAvoid's unsaturated case: no pruning, no charge.
    for (uint32_t o = 0; o < n_; ++o) out[o] = o;
    return;
  }
  PivotFirstHits(cols_.data(), stride_, p_, query_row, query_dist,
                 first_.data());
  uint64_t tries = 0;
  uint64_t avoided = 0;
  size_t kept = 0;
  for (uint32_t o = 0; o < n_; ++o) {
    const uint32_t f = first_[o];
    const bool avoid = f < p_;
    tries += avoid ? f + 1 : p_;
    avoided += avoid;
    out[kept] = o;
    kept += !avoid;
  }
  survivors->resize(base + kept);
  if (stats != nullptr) {
    stats->pivot_tries += tries;
    stats->pivot_avoided += avoided;
  }
}

}  // namespace msq
