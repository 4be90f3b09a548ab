#include "mining/knn_classifier.h"

#include <algorithm>
#include <map>

namespace msq {

namespace {

int32_t MajorityLabel(const Dataset& ds, ObjectId self,
                      const AnswerSet& answers) {
  std::map<int32_t, size_t> votes;
  for (const Neighbor& nb : answers) {
    if (nb.id == self) continue;  // the object does not vote for itself
    const int32_t label = ds.label(nb.id);
    if (label != kNoLabel) ++votes[label];
  }
  int32_t best = kNoLabel;
  size_t best_count = 0;
  for (const auto& [label, count] : votes) {
    if (count > best_count) {  // std::map iterates ascending: ties -> smaller
      best_count = count;
      best = label;
    }
  }
  return best;
}

}  // namespace

StatusOr<ClassificationResult> ClassifyObjects(
    MetricDatabase* db, const std::vector<ObjectId>& objects,
    const KnnClassifierParams& params) {
  if (db == nullptr) return Status::InvalidArgument("db is null");
  if (!db->dataset().has_labels()) {
    return Status::InvalidArgument("kNN classification requires labels");
  }
  if (params.k == 0) return Status::InvalidArgument("k must be positive");

  // Query k+1 neighbors so that the query object itself (always its own
  // nearest neighbor) leaves k voters.
  std::vector<Query> queries;
  queries.reserve(objects.size());
  for (ObjectId id : objects) {
    queries.push_back(db->MakeObjectKnnQuery(id, params.k + 1));
  }
  auto answers = db->AnswerInBatches(queries, params.batch_size);
  if (!answers.ok()) return answers.status();

  ClassificationResult result;
  result.predicted.assign(objects.size(), kNoLabel);
  size_t correct = 0;
  for (size_t i = 0; i < objects.size(); ++i) {
    const int32_t predicted =
        MajorityLabel(db->dataset(), objects[i], (*answers)[i]);
    result.predicted[i] = predicted;
    if (predicted != kNoLabel && predicted == db->dataset().label(objects[i])) {
      ++correct;
    }
  }
  result.accuracy = objects.empty()
                        ? 0.0
                        : static_cast<double>(correct) /
                              static_cast<double>(objects.size());
  return result;
}

}  // namespace msq
