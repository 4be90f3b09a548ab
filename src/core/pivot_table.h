// PivotTable: LAESA-style global pivot filtering (Chen et al. 2020 survey;
// Micó, Oncina, Vidal's LAESA) layered on top of the paper's per-batch
// triangle-inequality avoidance.
//
// A small set of p global pivots is selected once at build time by
// maxmin/farthest-first traversal over a sample, and dist(O, P_k) is
// precomputed for every database object O. At query time the triangle
// inequality gives, for free,
//
//   dist(O, Q) >= |dist(O, P_k) - dist(Q, P_k)|
//
// so |dist(O, P_k) - dist(Q, P_k)| > QueryDist(Q) proves O irrelevant
// without computing dist(O, Q) — the same inequality as Lemma 1/2 of
// Sec. 5.2, but with precomputed witnesses that exist even for the first
// query of a batch (which has no per-batch witnesses at all). The check is
// strict, like the Lemma premises: an object exactly at the query distance
// can still qualify (range boundary; kNN tie resolved by id), so pivot
// filtering never changes an answer set — it only avoids computations.
//
// Cost accounting mirrors the per-batch machinery: each evaluated pivot
// inequality charges one `pivot_tries` (same per-comparison cost-model rate
// as `triangle_tries`), each successful proof one `pivot_avoided`, and the
// p distance computations from a query object to the pivot set charge
// `pivot_dist_computations`.
//
// The page kernel's batched mode gathers the active page's pivot rows
// once per page into a pivot-major PivotPageBlock and filters the whole
// page for one query with a branch-free, ISA-cloned kernel (see
// PivotPageBlock::Filter); the scalar reference mode and the replay retest
// read Row(id) directly through PivotCanAvoid. The M-tree
// additionally keeps per-subtree min/max pivot distances ("hyper-rings",
// after the PM-tree) that prune whole subtrees during descent. The table
// itself is versioned through the single-file page store as the "pivots"
// object (DESIGN.md §10, §12).

#ifndef MSQ_CORE_PIVOT_TABLE_H_
#define MSQ_CORE_PIVOT_TABLE_H_

#include <cmath>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <vector>

#include "common/stats.h"
#include "common/status.h"
#include "core/cow_vec.h"
#include "dataset/dataset.h"
#include "dist/metric.h"

namespace msq {

struct PivotTableOptions {
  /// Number of global pivots p. Small: each (object, query) filter attempt
  /// costs up to p comparisons, so p trades setup + comparison cost against
  /// pruning power exactly like the avoidance witness cap.
  size_t num_pivots = 16;
  /// Sample size for maxmin pivot selection (capped at the dataset size).
  size_t sample_size = 2048;
  uint64_t seed = 29;
};

/// Immutable global pivot set plus the n x p matrix of precomputed
/// object-to-pivot distances, row-major per object. Thread-safe for
/// concurrent reads once built (it is never mutated after
/// Build/LoadFrom/WithAppendedRow).
///
/// Under online mutability the matrix is two-tier: the build-time base
/// rows live in one shared block, and rows for objects inserted since sit
/// in a chunked copy-on-write extension — WithAppendedRow derives the
/// next table version sharing the base (and all untouched extension
/// chunks) with its predecessor, so the filter stays bit-correct across
/// inserts without an n x p rebuild. Deleted objects need no masking
/// here: tombstoned ids never reach the kernel, and a stale row is just
/// unread memory until compaction rebuilds the table.
class PivotTable {
 public:
  /// Selects pivots by maxmin over a sample and precomputes every
  /// object-to-pivot distance. Construction distances are not charged to
  /// query statistics (offline index build, like the trees). Duplicate-
  /// heavy datasets may yield fewer than `num_pivots` pivots (a pivot at
  /// distance zero to an existing one adds no pruning power).
  static StatusOr<std::unique_ptr<PivotTable>> Build(
      const Dataset& dataset, const Metric& metric,
      const PivotTableOptions& options = PivotTableOptions());

  size_t num_pivots() const { return num_pivots_; }
  size_t num_objects() const { return num_objects_; }
  const std::vector<ObjectId>& pivot_ids() const { return pivot_ids_; }
  const Vec& pivot_point(size_t k) const { return pivot_points_[k]; }

  /// Precomputed dist(O, P_k) for k < num_pivots(), contiguous.
  const double* Row(ObjectId id) const {
    const size_t i = static_cast<size_t>(id);
    if (i < base_objects_) return base_rows_->data() + i * num_pivots_;
    return extra_rows_[i - base_objects_].data();
  }

  /// Derives the table covering one more object (id = num_objects()) whose
  /// feature vector is `point`: the p object-to-pivot distances are
  /// computed here (uncharged — index maintenance, like Build) and
  /// appended; everything else is shared with this table. O(p) plus one
  /// chunk copy.
  std::shared_ptr<const PivotTable> WithAppendedRow(const Vec& point,
                                                    const Metric& metric) const;

  /// Computes dist(q, P_k) for every pivot into `*out` (resized), charging
  /// num_pivots() `pivot_dist_computations` to `stats` (may be null). Takes
  /// the raw Metric — the charge goes to the pivot budget, not
  /// `dist_computations`, so the CountingMetric wrapper must not be used.
  void QueryDists(const Vec& q, const Metric& metric, QueryStats* stats,
                  std::vector<double>* out) const;

  /// Serializes the table (tagged + versioned; the page store's "pivots"
  /// object).
  Status SaveTo(std::ostream& out) const;

  /// Restores a table saved with SaveTo and validates it against the
  /// dataset and metric it will filter for: pivot ids must be in range and
  /// sampled rows must reproduce exactly under `metric` (loading a table
  /// built with a different metric or dataset fails here instead of
  /// silently corrupting query results).
  static StatusOr<std::unique_ptr<PivotTable>> LoadFrom(
      std::istream& in, const Dataset& dataset, const Metric& metric);

 private:
  PivotTable() = default;
  PivotTable(const PivotTable&) = default;  // WithAppendedRow's base copy

  size_t num_pivots_ = 0;
  size_t num_objects_ = 0;   // base_objects_ + extra_rows_.size()
  size_t base_objects_ = 0;  // rows in base_rows_
  std::vector<ObjectId> pivot_ids_;
  std::vector<Vec> pivot_points_;  // cached dataset rows of pivot_ids_
  /// Build-time rows, base_objects_ x num_pivots_ row-major, shared across
  /// table versions.
  std::shared_ptr<const std::vector<double>> base_rows_;
  /// One row (num_pivots_ doubles) per object inserted since the base was
  /// built, chunk-shared across versions.
  CowChunkedVec<std::vector<double>> extra_rows_;
};

/// Tries to prove dist(O, Q) > query_dist from one object's pivot row and
/// the query's precomputed pivot distances. Every evaluated inequality
/// charges one `pivot_tries`; a successful proof one `pivot_avoided`.
/// Strict comparison: objects exactly at the query distance survive.
/// `query_dist` may be infinite (unsaturated kNN) — no pruning, no charge.
inline bool PivotCanAvoid(const double* object_row, const double* query_row,
                          size_t num_pivots, double query_dist,
                          QueryStats* stats) {
  if (std::isinf(query_dist)) return false;
  for (size_t k = 0; k < num_pivots; ++k) {
    if (stats != nullptr) ++stats->pivot_tries;
    if (std::fabs(object_row[k] - query_row[k]) > query_dist) {
      if (stats != nullptr) ++stats->pivot_avoided;
      return true;
    }
  }
  return false;
}

/// One page's pivot rows, gathered pivot-major for the page kernel's
/// phase-1 filter: pivot k's distances to the page objects are contiguous
/// at [k * stride, k * stride + size()), where stride rounds size() up to
/// a whole 8-object tile (padding lanes hold NaN, which proves nothing).
/// Filter then tests a tile of objects against one pivot per vector
/// compare instead of walking each object's row with an early exit.
/// Gathered once per page, filtered once per (page, active query).
class PivotPageBlock {
 public:
  /// Gathers the pivot rows of `ids` (page-local order) from `table`.
  void Gather(const PivotTable& table, std::span<const ObjectId> ids);

  size_t size() const { return n_; }

  /// Appends to `*survivors`, in ascending order, the page-local index of
  /// every object that PivotCanAvoid(table.Row(id), query_row, p,
  /// query_dist) would not avoid, and charges `stats` (may be null)
  /// exactly what that early-exit loop charges: `pivot_tries` += k+1 and
  /// `pivot_avoided` += 1 for an object whose first proving pivot is k,
  /// `pivot_tries` += p for a survivor, nothing at all when `query_dist`
  /// is infinite. Each object's mask of proving pivots is computed branch-
  /// free in 64-pivot chunks; its count of trailing zeros is the first
  /// proving pivot.
  void Filter(const double* query_row, double query_dist,
              std::vector<uint32_t>* survivors, QueryStats* stats);

 private:
  size_t n_ = 0;
  size_t p_ = 0;
  size_t stride_ = 0;
  std::vector<double> cols_;     // p_ x stride_, pivot-major
  std::vector<uint32_t> first_;  // per lane: first proving pivot, p_ if none
};

}  // namespace msq

#endif  // MSQ_CORE_PIVOT_TABLE_H_
