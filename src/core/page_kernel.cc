#include "core/page_kernel.h"

#include <algorithm>

#include "core/pivot_table.h"
#include "obs/metrics.h"

namespace msq {

void PageKernel::ProcessPage(const PageBlock& block,
                             std::span<ActiveQuery> active,
                             const CountingMetric& metric,
                             const QueryDistanceCache* cache,
                             size_t max_witnesses, const PivotTable* pivots,
                             bool batched, QueryStats* stats) {
  if (block.size() == 0 || active.empty()) return;
  if (batched) {
    ProcessBatched(block, active, metric, cache, max_witnesses, pivots, stats);
  } else {
    ProcessScalar(block, active, metric, cache, max_witnesses, pivots, stats);
  }
}

void PageKernel::ProcessScalar(const PageBlock& block,
                               std::span<ActiveQuery> active,
                               const CountingMetric& metric,
                               const QueryDistanceCache* cache,
                               size_t max_witnesses, const PivotTable* pivots,
                               QueryStats* stats) {
  const size_t dim = block.vecs.dim;
  const size_t p = pivots != nullptr ? pivots->num_pivots() : 0;
  row_scratch_.resize(dim);
  for (size_t o = 0; o < block.size(); ++o) {
    const Scalar* row = block.vecs.row(o);
    row_scratch_.assign(row, row + dim);
    known_one_.clear();
    for (ActiveQuery& aq : active) {
      const double query_dist =
          std::min(aq.answers->QueryDist(), aq.derived_bound);
      // Pivot filter first (precomputed rows are the cheaper witness), then
      // the per-batch Lemma 1/2 witnesses. An avoided object contributes no
      // witness for later queries, exactly like a triangle-avoided one.
      if (pivots != nullptr && aq.pivot_dists != nullptr &&
          PivotCanAvoid(pivots->Row(block.ids[o]), aq.pivot_dists, p,
                        query_dist, stats)) {
        continue;  // dist(obj, Q) proven > the final answer radius.
      }
      if (cache != nullptr &&
          CanAvoidDistance(*cache, known_one_, aq.cache_index, query_dist,
                           stats, max_witnesses)) {
        continue;  // dist(obj, Q) proven > the final answer radius.
      }
      const double d = metric.Distance(*aq.point, row_scratch_);
      if (cache != nullptr) known_one_.push_back({aq.cache_index, d});
      aq.answers->Offer(block.ids[o], d);
    }
  }
}

void PageKernel::ProcessBatched(const PageBlock& block,
                                std::span<ActiveQuery> active,
                                const CountingMetric& metric,
                                const QueryDistanceCache* cache,
                                size_t max_witnesses, const PivotTable* pivots,
                                QueryStats* stats) {
  const size_t n = block.size();
  const size_t dim = block.vecs.dim;
  const size_t p = pivots != nullptr ? pivots->num_pivots() : 0;

  if (cache == nullptr && pivots == nullptr) {
    // No filter layer armed: the scalar algorithm computes every distance,
    // so one dense counted batch per query is exactly equivalent.
    dists_.resize(n);
    for (ActiveQuery& aq : active) {
      metric.BatchDistance(*aq.point, block.vecs, dists_);
      if (stats != nullptr) {
        ++stats->kernel_batches;
        stats->kernel_batched_dists += n;
      }
      if (batch_size_ != nullptr) {
        batch_size_->Observe(static_cast<double>(n));
      }
      for (size_t o = 0; o < n; ++o) {
        aq.answers->Offer(block.ids[o], dists_[o]);
      }
    }
    return;
  }

  // A filter armed: filter / evaluate / replay per query (header comment),
  // pivot lower bounds checked before the per-batch witnesses in both the
  // phase-1 filter and the replay retest — the order the scalar loop uses.
  // Witness lists are per object, appended in query processing order —
  // identical content and order to the scalar loop's, because a query's
  // witnesses are exactly the distances earlier queries computed for the
  // object, and those are fully decided before this query runs.
  if (cache != nullptr) {
    if (known_.size() < n) known_.resize(n);
    for (size_t o = 0; o < n; ++o) known_[o].clear();
  }
  if (pivots != nullptr) {
    // One pivot-major gather per page, filtered by every active query.
    page_pivots_.Gather(*pivots, std::span<const ObjectId>(block.ids, n));
  }

  for (ActiveQuery& aq : active) {
    const double* qp = pivots != nullptr ? aq.pivot_dists : nullptr;
    // Radius at page start. Both filters are monotone in the radius —
    // provable at r0 stays provable at every smaller radius — so the
    // phase-1 filter under-avoids, never over-avoids.
    const double r0 = std::min(aq.answers->QueryDist(), aq.derived_bound);

    // Phase 1. Pivot-avoided objects are final: the scalar loop avoids
    // them too. The pivot survivors then face the Lemma-1/2 witnesses.
    survivors_.clear();
    if (qp != nullptr) {
      page_pivots_.Filter(qp, r0, &survivors_, stats);
    } else {
      survivors_.resize(n);
      for (uint32_t o = 0; o < n; ++o) survivors_[o] = o;
    }
    if (cache != nullptr) {
      size_t kept = 0;
      for (const uint32_t o : survivors_) {
        if (CanAvoidDistance(*cache, known_[o], aq.cache_index, r0, stats,
                             max_witnesses)) {
          continue;  // Final: the scalar loop avoids this object too.
        }
        survivors_[kept++] = o;
      }
      survivors_.resize(kept);
    }
    if (survivors_.empty()) continue;

    // Dense speculative evaluation of the survivors' rows. Uncounted: the
    // replay below charges exactly the computations the scalar algorithm
    // performs.
    const size_t s = survivors_.size();
    dists_.resize(s);
    if (s == n) {
      metric.BatchDistanceUncounted(*aq.point, block.vecs, dists_);
    } else {
      gather_.resize(s * dim);
      for (size_t i = 0; i < s; ++i) {
        const Scalar* row = block.vecs.row(survivors_[i]);
        std::copy(row, row + dim, gather_.data() + i * dim);
      }
      metric.BatchDistanceUncounted(*aq.point,
                                    VecBlock{gather_.data(), dim, s}, dists_);
    }
    if (stats != nullptr) {
      ++stats->kernel_batches;
      stats->kernel_batched_dists += s;
    }
    if (batch_size_ != nullptr) {
      batch_size_->Observe(static_cast<double>(s));
    }

    // Replay in block order with the running radius. Offers shrink the
    // radius exactly as in the scalar loop (avoided objects contribute no
    // offer there either), so each survivor is judged under the same
    // radius the scalar algorithm would use.
    uint64_t computed = 0;
    for (size_t i = 0; i < s; ++i) {
      const uint32_t o = survivors_[i];
      const double query_dist =
          std::min(aq.answers->QueryDist(), aq.derived_bound);
      if (query_dist < r0) {
        // Computed speculatively; retest both filters at the shrunk
        // radius. A retest success discards the value: no
        // dist_computations charge, no witness, no offer — the scalar
        // outcome. (Retested objects pay *_tries twice; documented.)
        if (qp != nullptr &&
            PivotCanAvoid(pivots->Row(block.ids[o]), qp, p, query_dist,
                          stats)) {
          if (stats != nullptr) ++stats->kernel_speculative_dists;
          continue;
        }
        if (cache != nullptr &&
            CanAvoidDistance(*cache, known_[o], aq.cache_index, query_dist,
                             stats, max_witnesses)) {
          if (stats != nullptr) ++stats->kernel_speculative_dists;
          continue;
        }
      }
      ++computed;
      const double d = dists_[i];
      if (cache != nullptr) known_[o].push_back({aq.cache_index, d});
      aq.answers->Offer(block.ids[o], d);
    }
    metric.ChargeDistances(computed);
  }
}

}  // namespace msq
