// Simultaneous k-nearest-neighbor classification (Sec. 3.2 / Sec. 6): the
// paper's *independent-queries* mining instance — e.g. classifying all
// stars newly observed during one night with one kNN query each. The
// ExploreNeighborhoods filter is empty (no new query objects arise), so
// the batches are exactly the blocks of m queries of Sec. 5.

#ifndef MSQ_MINING_KNN_CLASSIFIER_H_
#define MSQ_MINING_KNN_CLASSIFIER_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "core/database.h"

namespace msq {

struct KnnClassifierParams {
  /// Number of voting neighbors (the query object itself is excluded).
  size_t k = 10;
  /// Batch width m of the multiple similarity queries, through
  /// MetricDatabase::AnswerInBatches; 1 issues single similarity queries.
  size_t batch_size = 32;
};

struct ClassificationResult {
  /// Predicted label per input object (kNoLabel when no neighbor voted).
  std::vector<int32_t> predicted;
  /// Fraction of objects whose prediction matches the dataset label.
  double accuracy = 0.0;
};

/// Classifies the given database objects by majority vote among their k
/// nearest neighbors (ties resolved toward the smaller label). Requires a
/// labeled dataset.
StatusOr<ClassificationResult> ClassifyObjects(
    MetricDatabase* db, const std::vector<ObjectId>& objects,
    const KnnClassifierParams& params);

}  // namespace msq

#endif  // MSQ_MINING_KNN_CLASSIFIER_H_
