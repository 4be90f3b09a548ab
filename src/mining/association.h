// Neighborhood association rules (after Koperski & Han, SSD'95 —
// Sec. 3.2): rules of the form "objects of type A are close to objects of
// type B" with support and confidence, discovered by issuing one range
// query per antecedent object ("80% of the selected towns are close to
// water"). Object types are the dataset labels.

#ifndef MSQ_MINING_ASSOCIATION_H_
#define MSQ_MINING_ASSOCIATION_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "core/database.h"

namespace msq {

struct AssociationParams {
  /// "Close to" radius of the neighborhood predicate.
  double eps = 0.1;
  /// Minimum fraction of antecedent-type objects that must satisfy the
  /// rule (confidence threshold of "A close to B").
  double min_confidence = 0.5;
  /// Minimum fraction of all database objects that must support the rule.
  double min_support = 0.01;
  /// Batch width m of the multiple similarity queries, through
  /// MetricDatabase::AnswerInBatches; 1 issues single similarity queries.
  size_t batch_size = 32;
};

struct AssociationRule {
  int32_t antecedent_label = kNoLabel;
  int32_t consequent_label = kNoLabel;
  /// count(A objects with a B neighbor) / n.
  double support = 0.0;
  /// count(A objects with a B neighbor) / count(A objects).
  double confidence = 0.0;
};

/// Mines all rules meeting the thresholds, ordered by descending
/// confidence (ties: ascending labels). Requires a labeled dataset.
StatusOr<std::vector<AssociationRule>> MineNeighborhoodRules(
    MetricDatabase* db, const AssociationParams& params);

}  // namespace msq

#endif  // MSQ_MINING_ASSOCIATION_H_
