#include "core/single_query.h"

#include <span>

#include "core/answer_list.h"
#include "core/page_kernel.h"
#include "core/pivot_table.h"

namespace msq {

StatusOr<AnswerSet> ExecuteSingleQuery(QueryBackend* backend,
                                       CountingMetric& metric,
                                       const Query& query, QueryStats* stats,
                                       const PivotTable* pivots) {
  if (backend == nullptr) {
    return Status::InvalidArgument("backend is null");
  }
  if (query.point.empty()) {
    return Status::InvalidArgument("query point is empty");
  }
  // Attach the caller's stats for the duration of this call (restored on
  // every return path) instead of copying the whole metric.
  const ScopedStatsSink stats_scope(metric, stats);

  AnswerList answers(query.type);
  PageKernel kernel;
  PageKernel::ActiveQuery active;
  active.point = &query.point;
  active.answers = &answers;
  std::vector<double> pivot_dists;
  if (pivots != nullptr) {
    pivots->QueryDists(query.point, metric.base(), stats, &pivot_dists);
    active.pivot_dists = pivot_dists.data();
  }

  std::unique_ptr<CandidateStream> stream = backend->OpenStream(query, stats);
  PageCandidate candidate;
  PageBlock block;
  // `Next(QueryDist(), ...)` realizes prune_pages: pages whose lower bound
  // exceeds the adapted query distance are never read.
  while (stream->Next(answers.QueryDist(), &candidate)) {
    Status read = backend->ReadPageBlock(candidate.page, stats, &block);
    if (!read.ok()) return read;
    // One query, no avoidance cache: the kernel runs one dense batched
    // evaluation per page — same distances and counts as the per-object
    // loop, evaluated over contiguous rows. With pivots armed it runs the
    // filter/evaluate/replay path instead (same answers, fewer distances).
    kernel.ProcessPage(block, std::span<PageKernel::ActiveQuery>(&active, 1),
                       metric, /*cache=*/nullptr, /*max_witnesses=*/0, pivots,
                       /*batched=*/true, stats);
  }
  if (stats != nullptr) {
    ++stats->queries_completed;
    stats->answers_produced += answers.size();
  }
  return answers.answers();
}

}  // namespace msq
