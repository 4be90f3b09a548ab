// Spatial trend detection (Ester, Frommelt, Kriegel, Sander, KDD'98 —
// Sec. 3.2): follow neighborhood paths away from a start object and
// regress a non-spatial attribute against the distance from the start; a
// significant slope is a *spatial trend* ("house prices fall when moving
// away from the city center").

#ifndef MSQ_MINING_TREND_H_
#define MSQ_MINING_TREND_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "core/database.h"

namespace msq {

struct TrendParams {
  /// Number of neighborhood paths grown from the start object.
  size_t num_paths = 8;
  /// Maximum path length (number of steps; the condition_check bound of
  /// the ExploreNeighborhoods scheme).
  size_t path_length = 8;
  /// Neighbors considered when extending a path.
  size_t k = 8;
  /// Index of the attribute (vector component) to regress.
  size_t attribute_dim = 0;
  /// Batch width m of the multiple similarity queries, through
  /// MetricDatabase::AnswerInBatches; 1 issues single similarity queries.
  size_t batch_size = 32;
  uint64_t seed = 5;
};

struct TrendResult {
  /// Least-squares fit attribute ~ intercept + slope * distance_from_start.
  double slope = 0.0;
  double intercept = 0.0;
  /// Coefficient of determination of the fit.
  double r_squared = 0.0;
  size_t num_observations = 0;
};

/// Detects a trend in the neighborhood of `start`.
StatusOr<TrendResult> DetectTrend(MetricDatabase* db, ObjectId start,
                                  const TrendParams& params);

}  // namespace msq

#endif  // MSQ_MINING_TREND_H_
