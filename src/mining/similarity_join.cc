#include "mining/similarity_join.h"

#include <algorithm>

namespace msq {

StatusOr<std::vector<JoinPair>> SimilaritySelfJoin(
    MetricDatabase* db, const SimilarityJoinParams& params) {
  if (db == nullptr) return Status::InvalidArgument("db is null");
  if (params.eps <= 0.0) {
    return Status::InvalidArgument("eps must be positive");
  }
  const size_t n = db->dataset().size();
  std::vector<Query> queries;
  queries.reserve(n);
  for (ObjectId id = 0; id < n; ++id) {
    queries.push_back(db->MakeObjectRangeQuery(id, params.eps));
  }
  auto answers = db->AnswerInBatches(queries, params.batch_size);
  if (!answers.ok()) return answers.status();
  std::vector<JoinPair> pairs;
  for (ObjectId self = 0; self < n; ++self) {
    for (const Neighbor& nb : (*answers)[self]) {
      // Emit each unordered pair once, from its smaller endpoint.
      if (nb.id > self) pairs.push_back({self, nb.id, nb.distance});
    }
  }
  std::sort(pairs.begin(), pairs.end());
  return pairs;
}

}  // namespace msq
