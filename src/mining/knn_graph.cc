#include "mining/knn_graph.h"

#include <algorithm>

namespace msq {

namespace {

// kNN answers (self excluded) for every database object.
StatusOr<std::vector<AnswerSet>> AllKnn(MetricDatabase* db,
                                        const KnnGraphParams& params) {
  if (db == nullptr) return Status::InvalidArgument("db is null");
  if (params.k == 0) return Status::InvalidArgument("k must be positive");
  const size_t n = db->dataset().size();
  std::vector<Query> queries;
  queries.reserve(n);
  for (ObjectId id = 0; id < n; ++id) {
    // k+1 so that dropping the object itself leaves k neighbors.
    queries.push_back(db->MakeObjectKnnQuery(id, params.k + 1));
  }
  auto answers = db->AnswerInBatches(queries, params.batch_size);
  if (!answers.ok()) return answers.status();
  for (ObjectId self = 0; self < n; ++self) {
    AnswerSet& a = (*answers)[self];
    a.erase(std::remove_if(a.begin(), a.end(),
                           [self](const Neighbor& nb) { return nb.id == self; }),
            a.end());
    if (a.size() > params.k) a.resize(params.k);
  }
  return answers;
}

}  // namespace

double KnnGraph::MutualEdgeFraction() const {
  size_t edges = 0, mutual = 0;
  for (ObjectId a = 0; a < neighbors.size(); ++a) {
    for (const Neighbor& nb : neighbors[a]) {
      ++edges;
      const AnswerSet& back = neighbors[nb.id];
      for (const Neighbor& rev : back) {
        if (rev.id == a) {
          ++mutual;
          break;
        }
      }
    }
  }
  return edges == 0 ? 0.0
                    : static_cast<double>(mutual) /
                          static_cast<double>(edges);
}

StatusOr<KnnGraph> BuildKnnGraph(MetricDatabase* db,
                                 const KnnGraphParams& params) {
  auto neighbors = AllKnn(db, params);
  if (!neighbors.ok()) return neighbors.status();
  KnnGraph graph;
  graph.neighbors = std::move(neighbors).value();
  return graph;
}

StatusOr<std::vector<double>> KDistanceList(MetricDatabase* db,
                                            const KnnGraphParams& params) {
  auto neighbors = AllKnn(db, params);
  if (!neighbors.ok()) return neighbors.status();
  std::vector<double> k_dist;
  k_dist.reserve(neighbors->size());
  for (const AnswerSet& a : *neighbors) {
    k_dist.push_back(a.empty() ? 0.0 : a.back().distance);
  }
  std::sort(k_dist.begin(), k_dist.end(), std::greater<double>());
  return k_dist;
}

}  // namespace msq
