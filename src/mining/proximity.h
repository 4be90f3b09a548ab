// Proximity analysis (Knorr & Ng, TKDE'96 — Sec. 3.2): find the top-k
// database objects closest to a given cluster and summarize the features
// they have in common ("most of the clusters are close to private schools
// and parks"). StartObjects is the whole cluster; filter returns nothing.

#ifndef MSQ_MINING_PROXIMITY_H_
#define MSQ_MINING_PROXIMITY_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "core/database.h"

namespace msq {

struct ProximityParams {
  /// Size of the "top-k closest to the cluster" result.
  size_t top_k = 10;
  /// Neighbors fetched per cluster member (enough to see past the other
  /// cluster members).
  size_t per_member_k = 10;
  /// Batch width m of the multiple similarity queries, through
  /// MetricDatabase::AnswerInBatches; 1 issues single similarity queries.
  size_t batch_size = 32;
};

struct ProximityResult {
  /// Non-cluster objects by ascending distance-to-cluster (min over
  /// members), at most top_k of them.
  AnswerSet top_objects;
  /// Label frequencies among the top objects, descending (most common
  /// first). Empty for unlabeled datasets.
  std::vector<std::pair<int32_t, size_t>> common_labels;
  /// Component-wise mean feature vector of the top objects.
  Vec mean_features;
};

/// Analyzes the surroundings of `cluster` (a set of database object ids).
StatusOr<ProximityResult> AnalyzeProximity(MetricDatabase* db,
                                           const std::vector<ObjectId>& cluster,
                                           const ProximityParams& params);

}  // namespace msq

#endif  // MSQ_MINING_PROXIMITY_H_
