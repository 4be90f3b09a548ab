// Manual data exploration by c concurrent users — the paper's
// *highly dependent* query workload for the image database (Sec. 6):
// every round prefetches the k nearest neighbors of all c*k current
// answers (m = c*k queries), each user picks one answer to navigate to,
// and the loop continues from the picked objects' neighborhoods.

#ifndef MSQ_MINING_EXPLORATION_SIM_H_
#define MSQ_MINING_EXPLORATION_SIM_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "common/status.h"
#include "core/database.h"

namespace msq {

struct ExplorationSimParams {
  /// Number of hypothetical concurrent users (c).
  size_t num_users = 5;
  /// Neighbors per query (k); the per-round batch width is c*k.
  size_t k = 20;
  /// Navigation rounds after the initial queries.
  size_t num_rounds = 3;
  /// Batch width of each round's queries (MetricDatabase::AnswerInBatches):
  /// 1 issues single similarity queries; the default runs each round in
  /// blocks as wide as the engine allows (multi.max_batch_size).
  size_t batch_size = std::numeric_limits<size_t>::max();
  uint64_t seed = 2024;
};

struct ExplorationSimResult {
  /// Total similarity queries issued across all rounds.
  size_t queries_issued = 0;
  /// Objects each user ended the simulation on.
  std::vector<ObjectId> final_positions;
};

/// Runs the exploration workload. Every round's query set is completed
/// (in batches when batch_size > 1), so every batch size visits the same
/// objects given the same seed — only the cost differs.
StatusOr<ExplorationSimResult> RunExplorationSim(
    MetricDatabase* db, const ExplorationSimParams& params);

/// Builds just the query-object sequence the workload would issue (used by
/// the benches to generate the paper's dependent query stream once and
/// replay it under different engines). It runs the workload on `db` to
/// find that sequence, which does not depend on params.batch_size.
StatusOr<std::vector<ObjectId>> GenerateExplorationQueryStream(
    MetricDatabase* db, const ExplorationSimParams& params);

}  // namespace msq

#endif  // MSQ_MINING_EXPLORATION_SIM_H_
