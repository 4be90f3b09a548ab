// OPTICS (Ankerst, Breunig, Kriegel, Sander, SIGMOD'99) — the successor of
// DBSCAN from the same group: instead of one flat clustering for a fixed
// Eps, it computes a *cluster ordering* with per-object reachability
// distances from which clusterings for any eps' <= eps can be extracted.
//
// Access pattern: exactly ExploreNeighborhoods — every processed object
// issues one Eps-range query, and the seeds (objects ordered by
// reachability) issue the next ones — so batches of multiple similarity
// queries apply just as for DBSCAN.

#ifndef MSQ_MINING_OPTICS_H_
#define MSQ_MINING_OPTICS_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "common/status.h"
#include "core/database.h"

namespace msq {

struct OpticsParams {
  /// Generating radius (the upper bound eps).
  double eps = 0.2;
  /// Density threshold, including the object itself.
  size_t min_pts = 5;
  /// Window width m of the multiple similarity queries used for the
  /// neighborhood lookups; 1 issues single similarity queries.
  size_t batch_size = 32;
};

/// Sentinel reachability for objects never reached within eps.
inline constexpr double kOpticsUndefined =
    std::numeric_limits<double>::infinity();

struct OpticsResult {
  /// Objects in cluster order.
  std::vector<ObjectId> ordering;
  /// reachability[i] belongs to ordering[i]; kOpticsUndefined for the
  /// first object of every density-connected group.
  std::vector<double> reachability;
  /// Core distance per object in `ordering` order (kOpticsUndefined for
  /// non-core objects).
  std::vector<double> core_distance;

  /// Extracts the DBSCAN-equivalent clustering for any eps' <= the
  /// generating eps from the ordering (the classic
  /// ExtractDBSCAN-Clustering procedure, using the stored core
  /// distances). Returns cluster ids in *object id* order, -1 for noise.
  std::vector<int32_t> ExtractClustering(double eps_prime) const;
};

/// Computes the OPTICS cluster ordering of the whole database.
StatusOr<OpticsResult> RunOptics(MetricDatabase* db,
                                 const OpticsParams& params);

}  // namespace msq

#endif  // MSQ_MINING_OPTICS_H_
