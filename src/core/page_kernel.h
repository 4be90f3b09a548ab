// PageKernel: the one implementation of "process one data page for the
// active queries" shared by the single- and the multiple-query engine.
//
// Both engines used to carry their own copy of the per-page object loop;
// the kernel replaces them with a single execution path that (a) preserves
// the paper's cost accounting exactly and (b) evaluates distances through
// the metrics' batched kernels (Metric::BatchDistance) over the page's
// contiguous row block instead of one virtual call + pointer chase per
// object.
//
// Two modes:
//
//  - Batched (the default): per active query, a three-phase pass.
//      1. Filter: test Lemma-1/2 avoidance for every object against the
//         query's radius *at page start* (r0). Avoidance is monotone in
//         the radius — provable at r0 implies provable at any smaller
//         radius — so an object avoided here is avoided by the scalar
//         algorithm too, and its `triangle_avoided` charge is final.
//      2. Evaluate: one dense (uncounted) BatchDistance over the
//         survivors' rows.
//      3. Replay: walk the survivors in block order with the *running*
//         radius, exactly as the scalar loop would. Where the radius has
//         shrunk below r0, retest avoidance: a retest success discards the
//         speculative distance (charged to `kernel_speculative_dists`,
//         not `dist_computations`), produces no answer and no witness.
//         Everything else is offered and charged normally.
//    The replay makes the batched path equivalent to the scalar one in
//    `dist_computations`, `triangle_avoided`, witness sets and answer
//    sets. Only `triangle_tries` can differ (a retested object pays for
//    both avoidance tests); see DESIGN.md §9.
//
//  - Scalar reference: the pre-kernel object-major loop, byte for byte the
//    algorithm of Figure 1 / Sec. 5.2. It is the oracle the batched mode
//    is tested against (tests/kernel_test.cc) and the baseline of
//    bench/micro_kernel.cc.
//
// When a PivotTable is armed, its lower bounds run as a second filter layer
// *before* the per-batch Lemma 1/2 witnesses in both modes (cheapest filter
// first: pivot rows are precomputed, witnesses cost a cache lookup). The
// pivot inequality is monotone in the radius exactly like Lemma 1/2, so the
// batched mode's phase-1/replay structure carries over unchanged: phase-1
// pivot avoidance at r0 is final, and replay retests pivot-then-triangle
// where the radius shrank. The batched mode gathers the page's pivot rows
// once per page, pivot-major (PivotPageBlock), and runs phase 1's pivot
// layer as one branch-free vector pass per (page, query) that charges
// exactly the tries of the per-object early-exit loop; the replay retest
// and the scalar mode read PivotTable::Row(id) through PivotCanAvoid.
// Answers, `dist_computations` and the *total* avoided count
// (`pivot_avoided + triangle_avoided`) stay identical between the modes. The per-layer split can shift: a smaller radius makes the
// pivot bound *stronger*, so an avoidance that phase 1 (at r0) credited to
// a Lemma-1/2 witness may, in the scalar mode's per-object radius, be
// claimed by the pivot layer first. The *_tries counters can also differ
// (retested objects pay twice). Pinned by tests/pivot_test.cc.

#ifndef MSQ_CORE_PAGE_KERNEL_H_
#define MSQ_CORE_PAGE_KERNEL_H_

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "common/stats.h"
#include "core/answer_list.h"
#include "core/avoidance.h"
#include "core/distance_matrix.h"
#include "core/pivot_table.h"
#include "dist/counting_metric.h"
#include "storage/data_layout.h"

namespace msq {

namespace obs {
class Histogram;
}  // namespace obs

/// Stateful (scratch-owning) page processor. Not thread-safe; each engine
/// owns one. Reusing the kernel across pages keeps the per-object witness
/// lists, survivor indices and distance buffers allocated.
class PageKernel {
 public:
  /// One query the page is relevant for, in batch processing order
  /// (closest to the page first — see multi_query.cc).
  struct ActiveQuery {
    const Vec* point = nullptr;
    AnswerList* answers = nullptr;
    /// Derived upper bound on the final answer radius (+inf when none);
    /// the effective pruning radius is min(answers->QueryDist(), this).
    double derived_bound = std::numeric_limits<double>::infinity();
    /// QueryDistanceCache index; meaningful only when a cache is passed.
    uint32_t cache_index = 0;
    /// Precomputed dist(Q, P_k) for the armed PivotTable's pivots (see
    /// PivotTable::QueryDists); null disables pivot filtering for this
    /// query even when a table is passed.
    const double* pivot_dists = nullptr;
  };

  /// Batch-size histogram (rows per batched evaluation); may be null.
  void set_batch_size_histogram(obs::Histogram* h) { batch_size_ = h; }

  /// Processes `block` for every query in `active`, offering qualifying
  /// objects to the queries' answer lists and charging all work to the
  /// stats sink installed on `metric` (plus the avoidance/kernel counters
  /// to `stats`, which may be null). Avoidance is armed iff `cache` is
  /// non-null; `max_witnesses` caps one avoidance attempt's witness scan.
  /// Pivot filtering is armed iff `pivots` is non-null — queries whose
  /// `pivot_dists` is null are still processed, just unfiltered.
  void ProcessPage(const PageBlock& block, std::span<ActiveQuery> active,
                   const CountingMetric& metric,
                   const QueryDistanceCache* cache, size_t max_witnesses,
                   const PivotTable* pivots, bool batched, QueryStats* stats);

 private:
  void ProcessScalar(const PageBlock& block, std::span<ActiveQuery> active,
                     const CountingMetric& metric,
                     const QueryDistanceCache* cache, size_t max_witnesses,
                     const PivotTable* pivots, QueryStats* stats);
  void ProcessBatched(const PageBlock& block, std::span<ActiveQuery> active,
                      const CountingMetric& metric,
                      const QueryDistanceCache* cache, size_t max_witnesses,
                      const PivotTable* pivots, QueryStats* stats);

  obs::Histogram* batch_size_ = nullptr;

  // Scratch, reused across pages.
  std::vector<std::vector<KnownQueryDistance>> known_;  // per object
  std::vector<KnownQueryDistance> known_one_;  // scalar mode, per object
  std::vector<uint32_t> survivors_;
  std::vector<Scalar> gather_;
  std::vector<double> dists_;
  /// The current page's pivot rows, pivot-major (batched mode only).
  PivotPageBlock page_pivots_;
  Vec row_scratch_;
};

}  // namespace msq

#endif  // MSQ_CORE_PAGE_KERNEL_H_
