#include "core/multi_query.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <span>

#include "common/timer.h"
#include "core/pivot_table.h"

namespace msq {

MultiQueryEngine::MultiQueryEngine(QueryBackend* backend,
                                   std::shared_ptr<const Metric> metric,
                                   const MultiQueryOptions& options)
    : backend_(backend),
      metric_(std::move(metric)),
      options_(options),
      buffer_(options.buffer_capacity),
      qq_cache_(/*compact_threshold=*/options.max_batch_size * 2 + 64) {
  if (options_.metrics != nullptr) {
    tracer_ = options_.metrics->tracer();
    if (obs::MetricsRegistry* reg = options_.metrics->registry()) {
      window_micros_ = reg->GetHistogram(
          "msq_engine_window_micros", obs::LatencyBoundariesMicros(),
          "Wall time of one shifting-window call (ExecuteInternal)");
      matrix_build_micros_ = reg->GetHistogram(
          "msq_engine_matrix_build_micros", obs::LatencyBoundariesMicros(),
          "Wall time preparing the query-distance matrix (Sec. 5.2)");
      window_size_ = reg->GetHistogram(
          "msq_engine_window_size", obs::SizeBoundaries(),
          "Queries per shifting-window call (the paper's m)");
      kernel_.set_batch_size_histogram(reg->GetHistogram(
          "msq_kernel_batch_size", obs::SizeBoundaries(),
          "Rows per batched distance evaluation in the page kernel"));
      deadline_hits_ = reg->GetCounter(
          "msq_engine_deadline_hits_total",
          "Windows that returned DeadlineExceeded with partial answers");
    }
  }
}

StatusOr<MultiQueryResult> MultiQueryEngine::Execute(
    const std::vector<Query>& queries, QueryStats* stats) {
  MultiQueryResult result;
  Status st = ExecuteInternal(queries, stats, nullptr, &result);
  // A deadline hit is not a failed call: the result carries the buffered
  // partial answers and result.status tells the caller they are partial.
  if (!st.ok() && !st.IsDeadlineExceeded()) return st;
  result.status = std::move(st);
  return result;
}

StatusOr<std::vector<AnswerSet>> MultiQueryEngine::ExecuteAll(
    const std::vector<Query>& queries, QueryStats* stats) {
  std::vector<AnswerSet> all(queries.size());
  // The shifting-window sequence of Sec. 5.1: [Q0..], [Q1..], ... — each
  // call completes its first query; the buffer carries partial answers and
  // accounted pages forward, and the distance cache carries the matrix.
  // The window is a shrinking view into `queries`, not a copy popped from
  // the front (which cost O(m^2) vector moves per batch).
  const std::span<const Query> window(queries);
  for (size_t i = 0; i < queries.size(); ++i) {
    MSQ_RETURN_IF_ERROR(ExecuteInternal(window.subspan(i), stats, &all[i],
                                        /*result=*/nullptr));
  }
  return all;
}

StatusOr<BatchResult> MultiQueryEngine::ExecuteAllPartial(
    const std::vector<Query>& queries, QueryStats* stats) {
  BatchResult result;
  result.answers.resize(queries.size());
  result.statuses.assign(queries.size(), Status::OK());
  const std::span<const Query> window(queries);
  for (size_t i = 0; i < queries.size(); ++i) {
    Status st = ExecuteInternal(window.subspan(i), stats,
                                &result.answers[i], /*result=*/nullptr);
    if (st.ok()) continue;
    // Validation errors are properties of the whole batch (the first
    // window sees every query), so they fail the call as before. Runtime
    // failures — a deadline hit (answers[i] already holds the partial
    // state) or a page-read error — are this query's alone: record and
    // keep completing the remaining windows.
    if (st.IsInvalidArgument() || st.IsResourceExhausted()) return st;
    result.statuses[i] = std::move(st);
  }
  return result;
}

Status MultiQueryEngine::ExecuteInternal(std::span<const Query> queries,
                                         QueryStats* caller_stats,
                                         AnswerSet* primary_answers,
                                         MultiQueryResult* result) {
  if (backend_ == nullptr) return Status::InvalidArgument("backend is null");
  if (queries.empty()) {
    return Status::InvalidArgument("empty query batch");
  }
  if (queries.size() > options_.max_batch_size) {
    return Status::ResourceExhausted(
        "batch of " + std::to_string(queries.size()) +
        " queries exceeds max_batch_size " +
        std::to_string(options_.max_batch_size));
  }
  for (const Query& q : queries) {
    if (q.point.empty()) {
      return Status::InvalidArgument("query point is empty");
    }
  }
  // All work is charged to a call-local QueryStats and merged into the
  // caller's stats (and published to the metrics registry) once at the
  // end — one pipeline from engine counters to exported metrics, and no
  // partially-charged caller stats on error returns.
  QueryStats local_stats;
  QueryStats* const stats = &local_stats;
  // RAII: every return path below (GetOrCreate failure, duplicate ids,
  // success) must detach `stats` from the long-lived metric, or the next
  // call would charge work to a dangling pointer.
  const ScopedStatsSink stats_scope(metric_, stats);

  const size_t m = queries.size();
  // Latency attribution charges wall time at stage boundaries; gated on a
  // live sink so the null-sink path stays timer-free per page.
  const bool attribute = options_.metrics != nullptr;
  WallTimer window_timer;
  obs::ScopedSpan window_span(tracer_, "engine.window", "engine");
  window_span.AddArg("m", static_cast<double>(m));

  // Duplicate ids are rejected *before* any buffer mutation. (The old
  // order — create states first, count ids after — left a rejected
  // batch's fresh states resident in the buffer forever, because
  // EnforceCapacity is never reached on the error path.)
  std::unordered_set<QueryId> pinned;
  pinned.reserve(m);
  for (const Query& q : queries) pinned.insert(q.id);
  if (pinned.size() != m) {
    return Status::InvalidArgument("duplicate query ids in batch");
  }

  // restore_from_buffer: attach (or create) the buffered state of every
  // query in the batch. A definition conflict detected mid-loop rolls
  // back the states this call created, so a rejected batch leaves the
  // buffer exactly as it found it.
  std::vector<BufferedQueryState*> states(m);
  {
    obs::ScopedSpan restore_span(tracer_, "engine.restore_buffer", "engine");
    std::vector<QueryId> created;
    for (size_t i = 0; i < m; ++i) {
      bool fresh = false;
      auto got = buffer_.GetOrCreate(queries[i], &fresh);
      if (!got.ok()) {
        for (QueryId id : created) buffer_.Erase(id);
        return got.status();
      }
      if (fresh) created.push_back(queries[i].id);
      states[i] = got.value();
      buffer_.Touch(states[i]);
    }
  }

  // Pivot setup: each buffered state computes its p query-to-pivot
  // distances once per lifetime (charged as pivot_dist_computations), then
  // every window reuses them. Stored as plain distances in the state —
  // never as cache indices, which do not survive the next Prepare.
  const bool use_pivots = pivots_ != nullptr;
  if (use_pivots) {
    for (size_t i = 0; i < m; ++i) {
      if (states[i]->pivot_dists.size() != pivots_->num_pivots()) {
        pivots_->QueryDists(states[i]->query.point, metric_.base(), stats,
                            &states[i]->pivot_dists);
      }
    }
  }

  // Query-distance matrix: only pairs involving new query objects are
  // computed (charged as matrix_dist_computations). Avoidance needs the
  // shared per-object distances that I/O sharing produces, so it is only
  // armed when pages are processed for the whole batch.
  const bool use_avoidance = options_.enable_triangle_avoidance &&
                             options_.enable_io_sharing && m > 1;
  std::vector<uint32_t> qq_index;
  if (use_avoidance) {
    obs::ScopedSpan matrix_span(tracer_, "engine.matrix_build", "engine");
    WallTimer matrix_timer;
    qq_cache_.Prepare(queries, metric_, &qq_index);
    if (attribute) {
      stats->attr_matrix_micros += matrix_timer.ElapsedMicros();
    }
    if (matrix_build_micros_ != nullptr) {
      matrix_build_micros_->Observe(matrix_timer.ElapsedMicros());
    }
  }

  BufferedQueryState* primary = states[0];
  // Deadline of this window: the primary query's own absolute deadline.
  // Checked once per candidate page — pages are the unit of both I/O and
  // engine work, so page granularity bounds the overrun by one page's
  // processing time. On expiry the window returns DeadlineExceeded with
  // the buffered partial answers, and the primary query stays incomplete
  // (and resumable) in the AnswerBuffer.
  const auto deadline = queries[0].deadline;
  const bool has_deadline = deadline != kNoDeadline;
  bool deadline_hit = false;
  if (!primary->complete) {
    // Derived query-distance bounds: once any query Q_j holds at least
    // k_i answers within radius r_j, the triangle inequality guarantees
    // at least k_i objects within dist(Q_i, Q_j) + r_j of Q_i — an upper
    // bound on Q_i's final k-th-nearest distance that is valid *forever*
    // (r_j only shrinks). It caps both page relevance and avoidance for
    // still-unsaturated kNN queries, which would otherwise treat every
    // page as relevant. Range queries derive nothing (their radius is a
    // hard semantic bound, not an optimization target).
    //
    // The bound is persisted in the buffered state and derived at most
    // once per query (cost O(m) each, so O(m^2) once per batch — NOT per
    // shifting-window call, which would be cubic over a batch).
    auto refresh_derived = [&]() {
      bool all_derived = true;
      for (uint32_t i = 0; i < m; ++i) {
        BufferedQueryState* s = states[i];
        if (!s->query.type.Adaptive() || s->complete) continue;
        if (!std::isinf(s->derived_bound)) continue;
        const size_t k_i = s->query.type.cardinality;
        double best = s->derived_bound;
        for (uint32_t j = 0; j < m; ++j) {
          if (j == i) continue;
          const double kth = states[j]->answers.KthDistance(k_i);
          if (std::isinf(kth)) continue;
          if (stats != nullptr) ++stats->triangle_tries;
          best = std::min(best, qq_cache_.Dist(qq_index[i], qq_index[j]) +
                                    kth);
        }
        s->derived_bound = best;
        all_derived = all_derived && !std::isinf(best);
      }
      return all_derived;
    };
    auto effective_dist = [&](uint32_t i) {
      return std::min(states[i]->answers.QueryDist(),
                      states[i]->derived_bound);
    };
    // At most a few passes: if bounds are still underivable after the
    // first pages (e.g. k exceeds the database size), stop trying.
    int derived_attempts_left = 4;
    bool derived_done = false;
    if (use_avoidance) {
      derived_done = refresh_derived();
      --derived_attempts_left;
    }

    std::unique_ptr<CandidateStream> stream =
        backend_->OpenStream(primary->query, stats);
    PageCandidate candidate;
    // Per-page scratch, hoisted out of the loop.
    std::vector<uint32_t> active;          // batch indices to test on the page
    std::vector<std::pair<double, uint32_t>> active_lb;
    std::vector<uint32_t> newly_accounted; // accounted this page (rollback)
    std::vector<PageKernel::ActiveQuery> kernel_active;
    while (stream->Next(use_avoidance ? effective_dist(0)
                                      : primary->answers.QueryDist(),
                        &candidate)) {
      if (has_deadline && std::chrono::steady_clock::now() >= deadline) {
        // Nothing of this candidate has been processed or accounted yet;
        // the buffered state is a consistent partial answer as of the
        // previous page.
        deadline_hit = true;
        break;
      }
      const PageId page = candidate.page;
      if (primary->accounted_pages.count(page)) {
        // Already processed (or excluded) for the primary in an earlier
        // call; nothing new can come from it.
        if (stats != nullptr) ++stats->pages_skipped_buffered;
        continue;
      }
      // Scopes the rest of this iteration: relevance determination, the
      // page read, and the per-object distance loop.
      obs::ScopedSpan page_span(tracer_, "engine.page_scan", "engine");
      page_span.AddArg("page", static_cast<double>(page));

      // Determine which batch queries this page is relevant for. The
      // primary is always relevant here (the stream filtered by its query
      // distance). A page excluded for query i now has
      // PageMinDist > QueryDist(i), and query distances only shrink, so it
      // is accounted for i permanently.
      active.clear();
      newly_accounted.clear();
      if (!options_.enable_io_sharing) {
        active.push_back(0);
      } else {
        // The primary participates like everyone else, ordered by its page
        // lower bound — so even its distance computations can be avoided
        // through closer batch neighbors processed first.
        active_lb.clear();
        active_lb.push_back({candidate.min_dist, 0});
        for (uint32_t i = 1; i < m; ++i) {
          BufferedQueryState* s = states[i];
          if (s->complete || s->accounted_pages.count(page)) continue;
          const double bound =
              use_avoidance ? effective_dist(i) : s->answers.QueryDist();
          const double lb = backend_->PageMinDist(page, s->query, stats);
          if (lb <= bound) {
            active_lb.push_back({lb, i});
          }
          // Relevant or not, the page is now accounted for query i:
          // either we process it below, or it is provably irrelevant
          // (the bound never falls below the query's final answer radius).
          s->accounted_pages.insert(page);
          newly_accounted.push_back(i);
        }
        // Process queries closest to the page first: their distances are
        // computed early and make the strongest Lemma-1 witnesses for the
        // farther queries behind them.
        std::sort(active_lb.begin(), active_lb.end());
        for (const auto& [lb, i] : active_lb) active.push_back(i);
      }
      primary->accounted_pages.insert(page);
      newly_accounted.push_back(0);
      page_span.AddArg("active", static_cast<double>(active.size()));

      PageBlock block;
      std::optional<WallTimer> io_timer;
      if (attribute) io_timer.emplace();
      const Status read = backend_->ReadPageBlock(page, stats, &block);
      if (io_timer) stats->attr_page_io_micros += io_timer->ElapsedMicros();
      if (!read.ok()) {
        // A failed read must not leave the page accounted: it was neither
        // processed nor proven irrelevant by a completed read, and a retry
        // (the cluster's transient-fault policy) must revisit it. Answers
        // and accounted pages of *earlier* pages stay buffered, so the
        // retry resumes instead of restarting.
        for (uint32_t i : newly_accounted) {
          states[i]->accounted_pages.erase(page);
        }
        buffer_.EnforceCapacity(pinned);
        return read;
      }
      kernel_active.clear();
      for (uint32_t i : active) {
        BufferedQueryState* s = states[i];
        PageKernel::ActiveQuery aq;
        aq.point = &s->query.point;
        aq.answers = &s->answers;
        if (use_avoidance) {
          aq.derived_bound = s->derived_bound;
          aq.cache_index = qq_index[i];
        }
        if (use_pivots) aq.pivot_dists = s->pivot_dists.data();
        kernel_active.push_back(aq);
      }
      std::optional<WallTimer> kernel_timer;
      if (attribute) kernel_timer.emplace();
      kernel_.ProcessPage(block, kernel_active, metric_,
                          use_avoidance ? &qq_cache_ : nullptr,
                          options_.avoidance_max_witnesses,
                          use_pivots ? pivots_.get() : nullptr,
                          options_.use_batched_kernel, stats);
      if (kernel_timer) {
        stats->attr_kernel_micros += kernel_timer->ElapsedMicros();
      }
      // Cold batches derive nothing before the first page saturates the
      // kNN lists; retry until every adaptive query has its bound.
      if (use_avoidance && !derived_done && derived_attempts_left > 0) {
        derived_done = refresh_derived();
        --derived_attempts_left;
      }
    }
    if (!deadline_hit) {
      primary->complete = true;
      if (stats != nullptr) {
        ++stats->queries_completed;
        stats->answers_produced += primary->answers.size();
      }
    }
  }

  if (primary_answers != nullptr) {
    *primary_answers = primary->answers.answers();
  }
  if (result != nullptr) {
    result->answers.resize(m);
    for (size_t i = 0; i < m; ++i) {
      result->answers[i] = states[i]->answers.answers();
    }
  }
  buffer_.EnforceCapacity(pinned);

  if (attribute) {
    stats->attr_window_micros += window_timer.ElapsedMicros();
  }
  if (window_micros_ != nullptr) {
    window_micros_->Observe(window_timer.ElapsedMicros());
    window_size_->Observe(static_cast<double>(m));
  }
  if (caller_stats != nullptr) *caller_stats += local_stats;
  if (options_.metrics != nullptr) {
    options_.metrics->PublishQueryStats(local_stats);
  }
  if (deadline_hit) {
    // Reached only through the shared epilogue above: the partial answers
    // are in the caller's out-params, the primary stays incomplete (and
    // resumable) in the buffer, and the work done was charged normally.
    if (deadline_hits_ != nullptr) deadline_hits_->Increment();
    return Status::DeadlineExceeded(
        "query " + std::to_string(queries[0].id) +
        ": deadline expired; buffered partial answers returned");
  }
  return Status::OK();
}

void MultiQueryEngine::AttachPivots(std::shared_ptr<const PivotTable> pivots) {
  pivots_ = std::move(pivots);
  // Buffered states may hold pivot distances of a previous table (or stale
  // sizes); drop everything so the next call recomputes against the new
  // table instead of filtering with the wrong witnesses.
  buffer_.Clear();
}

void MultiQueryEngine::Reset() {
  buffer_.Clear();
  qq_cache_.Clear();
}

}  // namespace msq
