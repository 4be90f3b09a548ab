// AnswerBuffer: the DBMS-internal buffer of (partial) answers that makes
// multiple similarity queries incremental (Sec. 3.3 / Sec. 4).
//
// For every query it has seen, the buffer keeps the query definition, the
// partial answer list, the set of data pages already *accounted for*, and a
// completion flag. A page is accounted for a query when it was either
// fully processed for it or provably irrelevant at read time — since kNN
// query distances only shrink, a page irrelevant once is irrelevant
// forever, so accounted pages are never read again for that query.

#ifndef MSQ_CORE_ANSWER_BUFFER_H_
#define MSQ_CORE_ANSWER_BUFFER_H_

#include <cstdint>
#include <limits>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/status.h"
#include "core/answer_list.h"
#include "core/query.h"
#include "storage/page.h"

namespace msq {

/// Buffered evaluation state of one similarity query.
struct BufferedQueryState {
  Query query;
  AnswerList answers;
  PageSet accounted_pages;
  bool complete = false;
  /// Upper bound on the query's *final* answer radius, derived from other
  /// batch queries via the triangle inequality (see multi_query.cc).
  /// Valid forever once set; +infinity until derived.
  double derived_bound = std::numeric_limits<double>::infinity();
  /// Precomputed dist(Q, P_k) for the engine's attached PivotTable; empty
  /// until the pivot layer is armed and fills it (once per state lifetime,
  /// charged as pivot_dist_computations). Plain distances keyed by pivot
  /// order — deliberately NOT QueryDistanceCache indices, which are only
  /// valid within one window (Prepare may compact between windows).
  std::vector<double> pivot_dists;
  /// LRU clock value of the last call that touched this state.
  uint64_t last_touched = 0;

  explicit BufferedQueryState(const Query& q)
      : query(q), answers(q.type) {}
};

/// Bounded store of BufferedQueryState keyed by QueryId.
///
/// Capacity models the main-memory limit the paper identifies as the bound
/// on the batch size m (Sec. 5). When over capacity, completed states are
/// evicted first (least recently touched), then incomplete ones; evicting
/// an incomplete state merely discards partial work — the query restarts
/// from scratch if re-submitted, which is slower but never incorrect.
class AnswerBuffer {
 public:
  explicit AnswerBuffer(size_t capacity) : capacity_(capacity) {}

  /// State for `id`, or nullptr if absent. Does not touch LRU state.
  BufferedQueryState* Find(QueryId id);

  /// Returns the state for q.id, creating it if absent. Fails with
  /// InvalidArgument if the id exists with a different point or type —
  /// QueryIds name query definitions, and silently replacing one would
  /// return answers for the wrong query. When `created` is non-null it is
  /// set to whether a fresh state was inserted, so a caller whose batch
  /// fails *after* some GetOrCreate calls can roll back exactly the states
  /// it created (a rejected batch must leave the buffer unchanged).
  StatusOr<BufferedQueryState*> GetOrCreate(const Query& q,
                                            bool* created = nullptr);

  /// Marks the state as used by the current call (LRU bookkeeping).
  void Touch(BufferedQueryState* state);

  /// Evicts states (never those whose id is in `pinned`) until size() is
  /// at most capacity. Completed states go first.
  void EnforceCapacity(const std::unordered_set<QueryId>& pinned);

  bool Erase(QueryId id);
  void Clear();

  size_t size() const { return states_.size(); }
  size_t capacity() const { return capacity_; }

 private:
  size_t capacity_;
  uint64_t clock_ = 0;
  std::unordered_map<QueryId, BufferedQueryState> states_;
};

}  // namespace msq

#endif  // MSQ_CORE_ANSWER_BUFFER_H_
