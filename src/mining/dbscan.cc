#include "mining/dbscan.h"

#include "mining/explore.h"

namespace msq {

namespace {
// Internal marker for objects no query has touched yet.
constexpr int32_t kUnclassified = -2;
}  // namespace

StatusOr<DbscanResult> RunDbscan(MetricDatabase* db,
                                 const DbscanParams& params) {
  if (db == nullptr) return Status::InvalidArgument("db is null");
  if (params.eps <= 0.0) {
    return Status::InvalidArgument("eps must be positive");
  }
  if (params.min_pts == 0) {
    return Status::InvalidArgument("min_pts must be positive");
  }
  const size_t n = db->dataset().size();
  DbscanResult result;
  result.cluster_of.assign(n, kUnclassified);
  int32_t current_cluster = -1;
  bool cluster_grew = false;

  ExploreOptions options;
  options.query_type = QueryType::Range(params.eps);
  options.batch_size = params.batch_size;

  ExploreCallbacks callbacks;
  // All cluster logic lives in the filter: it sees the object's complete
  // Eps-neighborhood, decides core-ness, assigns labels, and returns the
  // seed objects whose neighborhoods must be explored next.
  callbacks.filter = [&](ObjectId object,
                         const AnswerSet& answers) -> std::vector<ObjectId> {
    if (answers.size() < params.min_pts) {
      // Not a core object. It keeps an earlier cluster assignment (border
      // object) or becomes noise.
      if (result.cluster_of[object] == kUnclassified) {
        result.cluster_of[object] = kDbscanNoise;
      }
      return {};
    }
    // Core object: it and its whole neighborhood join the cluster;
    // previously untouched neighbors seed further expansion.
    cluster_grew = true;
    result.cluster_of[object] = current_cluster;
    std::vector<ObjectId> seeds;
    for (const Neighbor& nb : answers) {
      int32_t& label = result.cluster_of[nb.id];
      if (label == kUnclassified) {
        label = current_cluster;
        seeds.push_back(nb.id);
      } else if (label == kDbscanNoise) {
        label = current_cluster;  // noise becomes a border object
      }
    }
    return seeds;
  };

  for (ObjectId o = 0; o < n; ++o) {
    if (result.cluster_of[o] != kUnclassified) continue;
    ++current_cluster;
    cluster_grew = false;
    auto explored = ExploreNeighborhoods(db, {o}, options, callbacks);
    if (!explored.ok()) return explored.status();
    if (!cluster_grew) --current_cluster;  // `o` was noise, id not consumed
  }
  result.num_clusters = static_cast<size_t>(current_cluster + 1);
  return result;
}

}  // namespace msq
