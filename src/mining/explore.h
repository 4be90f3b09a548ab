// The generic data-mining schemes of Sec. 3:
//   ExploreNeighborhoods          (Figure 2) — single similarity queries
//   ExploreNeighborhoodsMultiple  (Figure 3) — multiple similarity queries
//
// Both forms run the same task-specific callbacks (proc_1, proc_2,
// filter, condition_check); the multiple form differs *only* in selecting a
// window of m control-list objects and issuing one multiple similarity
// query for it — the purely syntactic transformation the paper describes,
// with m = 1 as the single form. The two forms therefore produce identical
// results, which the tests assert for every mining instance.

#ifndef MSQ_MINING_EXPLORE_H_
#define MSQ_MINING_EXPLORE_H_

#include <deque>
#include <functional>
#include <vector>

#include "common/status.h"
#include "core/database.h"

namespace msq {

/// Task-specific hooks of the ExploreNeighborhoods scheme. Defaults: run
/// until the control list is empty, no per-object processing, enqueue
/// nothing new.
struct ExploreCallbacks {
  /// condition_check(ControlList, ...): keep iterating while true.
  std::function<bool(const std::deque<ObjectId>&)> condition_check;
  /// proc_1(Object, ...): invoked before the object's similarity query.
  std::function<void(ObjectId)> proc1;
  /// proc_2(Answers, ...): invoked with the object's complete answers.
  std::function<void(ObjectId, const AnswerSet&)> proc2;
  /// filter(Answers, ...): objects to append to the control list. The
  /// engine additionally drops anything that was ever enqueued, which the
  /// paper requires ("at least those objects which have already been in
  /// the ControlList") to guarantee termination.
  std::function<std::vector<ObjectId>(ObjectId, const AnswerSet&)> filter;
};

struct ExploreOptions {
  /// SimType: the similarity-query type used for every neighborhood.
  QueryType query_type = QueryType::Knn(10);
  /// Window width m of choose_multiple() in the multiple form of Figure 3
  /// (capped at multi.max_batch_size). 1 runs the original single-query
  /// scheme of Figure 2: one SimilarityQuery per object, no buffering.
  size_t batch_size = 32;
};

/// Runs the scheme starting from `start_objects`. Returns the number of
/// objects whose neighborhood was processed.
StatusOr<size_t> ExploreNeighborhoods(MetricDatabase* db,
                                      const std::vector<ObjectId>& start_objects,
                                      const ExploreOptions& options,
                                      const ExploreCallbacks& callbacks);

}  // namespace msq

#endif  // MSQ_MINING_EXPLORE_H_
