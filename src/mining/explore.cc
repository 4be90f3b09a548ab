#include "mining/explore.h"

#include <unordered_set>

namespace msq {

namespace {

Query MakeObjectQuery(const MetricDatabase& db, ObjectId id,
                      const QueryType& type) {
  return Query{static_cast<QueryId>(id), db.dataset().object(id), type};
}

}  // namespace

StatusOr<size_t> ExploreNeighborhoods(
    MetricDatabase* db, const std::vector<ObjectId>& start_objects,
    const ExploreOptions& options, const ExploreCallbacks& callbacks) {
  if (db == nullptr) return Status::InvalidArgument("db is null");
  if (options.batch_size == 0) {
    return Status::InvalidArgument("batch_size must be positive");
  }

  std::deque<ObjectId> control_list;
  std::unordered_set<ObjectId> ever_enqueued;
  for (ObjectId id : start_objects) {
    if (id >= db->dataset().size()) {
      return Status::InvalidArgument("start object out of range");
    }
    if (ever_enqueued.insert(id).second) control_list.push_back(id);
  }

  size_t processed = 0;
  const size_t effective_batch =
      std::min(options.batch_size, db->engine().options().max_batch_size);
  while (!control_list.empty() &&
         (!callbacks.condition_check || callbacks.condition_check(control_list))) {
    const ObjectId object = control_list.front();
    if (callbacks.proc1) callbacks.proc1(object);

    AnswerSet answers;
    if (options.batch_size == 1) {
      auto result =
          db->SimilarityQuery(MakeObjectQuery(*db, object, options.query_type));
      if (!result.ok()) return result.status();
      answers = std::move(result).value();
    } else {
      // choose_multiple(): the window of the next m control-list objects;
      // one multiple similarity query answers the first completely and
      // prefetches the rest.
      std::vector<Query> window;
      window.reserve(std::min<size_t>(effective_batch, control_list.size()));
      for (ObjectId id : control_list) {
        if (window.size() >= effective_batch) break;
        window.push_back(MakeObjectQuery(*db, id, options.query_type));
      }
      auto result = db->MultipleSimilarityQuery(window);
      if (!result.ok()) return result.status();
      answers = std::move(result.value().answers.front());
    }

    if (callbacks.proc2) callbacks.proc2(object, answers);
    if (callbacks.filter) {
      for (ObjectId id : callbacks.filter(object, answers)) {
        if (id < db->dataset().size() && ever_enqueued.insert(id).second) {
          control_list.push_back(id);
        }
      }
    }
    control_list.pop_front();
    ++processed;
  }
  return processed;
}

}  // namespace msq
