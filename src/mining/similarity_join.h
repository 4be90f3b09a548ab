// Similarity self-join: all object pairs within distance eps — the extreme
// multiple-query workload where EVERY database object is a query object
// (M = n), so the batch machinery of Sec. 5 applies at full width: one
// block of m range queries shares every page, and the triangle inequality
// gets n query-side witnesses to prune with.

#ifndef MSQ_MINING_SIMILARITY_JOIN_H_
#define MSQ_MINING_SIMILARITY_JOIN_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "core/database.h"

namespace msq {

struct SimilarityJoinParams {
  /// Join radius.
  double eps = 0.1;
  /// Batch width m of the multiple similarity queries, through
  /// MetricDatabase::AnswerInBatches; 1 issues single similarity queries.
  size_t batch_size = 64;
};

/// One join result pair, normalized to first < second.
struct JoinPair {
  ObjectId first = 0;
  ObjectId second = 0;
  double distance = 0.0;

  friend bool operator<(const JoinPair& a, const JoinPair& b) {
    if (a.first != b.first) return a.first < b.first;
    if (a.second != b.second) return a.second < b.second;
    return a.distance < b.distance;
  }
  friend bool operator==(const JoinPair& a, const JoinPair& b) {
    return a.first == b.first && a.second == b.second;
  }
};

/// Computes { (o1, o2) | o1 < o2, dist(o1, o2) <= eps }, sorted.
StatusOr<std::vector<JoinPair>> SimilaritySelfJoin(
    MetricDatabase* db, const SimilarityJoinParams& params);

}  // namespace msq

#endif  // MSQ_MINING_SIMILARITY_JOIN_H_
