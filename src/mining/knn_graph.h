// Batched k-nearest-neighbor utilities:
//  * the kNN graph (every object's k nearest neighbors) — the substrate of
//    many mining pipelines, computed here as one full-width multiple
//    similarity query workload (M = n);
//  * the sorted k-distance list — the DBSCAN paper's heuristic for
//    choosing Eps: plot the k-dist values in descending order and pick the
//    "valley" value.

#ifndef MSQ_MINING_KNN_GRAPH_H_
#define MSQ_MINING_KNN_GRAPH_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "core/database.h"

namespace msq {

struct KnnGraphParams {
  /// Neighbors per object (the object itself is excluded).
  size_t k = 10;
  /// Batch width m of the multiple similarity queries, through
  /// MetricDatabase::AnswerInBatches; 1 issues single similarity queries.
  size_t batch_size = 64;
};

struct KnnGraph {
  /// neighbors[id] = the k nearest other objects of `id`, ascending by
  /// (distance, id).
  std::vector<AnswerSet> neighbors;

  /// Fraction of directed edges whose reverse edge also exists — a
  /// standard structure indicator (higher on clustered data).
  double MutualEdgeFraction() const;
};

/// Builds the kNN graph of the whole database.
StatusOr<KnnGraph> BuildKnnGraph(MetricDatabase* db,
                                 const KnnGraphParams& params);

/// The distance to the k-th nearest *other* object, for every object,
/// sorted descending — the k-distance plot of the DBSCAN paper. A good
/// DBSCAN Eps is the value at the first "valley" of this list.
StatusOr<std::vector<double>> KDistanceList(MetricDatabase* db,
                                            const KnnGraphParams& params);

}  // namespace msq

#endif  // MSQ_MINING_KNN_GRAPH_H_
