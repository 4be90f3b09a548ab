// DBSCAN (Ester, Kriegel, Sander, Xu, KDD'96) on top of the
// ExploreNeighborhoods scheme — the paper's flagship example of a
// data-mining algorithm with *highly dependent* similarity queries: every
// core object's Eps-neighborhood spawns the next round of range queries,
// exactly the access pattern the incremental multiple query accelerates.

#ifndef MSQ_MINING_DBSCAN_H_
#define MSQ_MINING_DBSCAN_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "core/database.h"

namespace msq {

struct DbscanParams {
  /// Eps-neighborhood radius.
  double eps = 0.1;
  /// Density threshold: a core object has at least min_pts objects
  /// (including itself) within eps.
  size_t min_pts = 5;
  /// Window width m of the multiple similarity queries (Figure 3); 1
  /// issues single similarity queries (the Figure-2 baseline).
  size_t batch_size = 32;
};

/// Cluster id of unassigned/noise objects.
inline constexpr int32_t kDbscanNoise = -1;

struct DbscanResult {
  /// Cluster id per object (0-based), kDbscanNoise for noise.
  std::vector<int32_t> cluster_of;
  size_t num_clusters = 0;
};

/// Runs DBSCAN over the whole database.
StatusOr<DbscanResult> RunDbscan(MetricDatabase* db, const DbscanParams& params);

}  // namespace msq

#endif  // MSQ_MINING_DBSCAN_H_
