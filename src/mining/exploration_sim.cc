#include "mining/exploration_sim.h"

#include <unordered_map>

#include "common/rng.h"

namespace msq {

namespace {

// Answers per entry of `query_objects` (one kNN query each).
Status RunRound(MetricDatabase* db, const std::vector<ObjectId>& query_objects,
                size_t k, size_t batch_size, std::vector<AnswerSet>* out) {
  // Different users may hold the same answer object; a multiple-query
  // batch must not contain duplicate query ids, so query each distinct
  // object once and fan the answers back out.
  std::vector<Query> queries;
  std::unordered_map<ObjectId, size_t> index_of;
  for (ObjectId id : query_objects) {
    if (index_of.emplace(id, queries.size()).second) {
      queries.push_back(db->MakeObjectKnnQuery(id, k));
    }
  }
  auto unique_answers = db->AnswerInBatches(queries, batch_size);
  if (!unique_answers.ok()) return unique_answers.status();
  out->clear();
  out->reserve(query_objects.size());
  for (ObjectId id : query_objects) {
    out->push_back((*unique_answers)[index_of[id]]);
  }
  return Status::OK();
}

// The workload itself; appends every issued query object to `stream` when
// it is non-null.
StatusOr<ExplorationSimResult> Simulate(MetricDatabase* db,
                                        const ExplorationSimParams& params,
                                        std::vector<ObjectId>* stream) {
  if (db == nullptr) return Status::InvalidArgument("db is null");
  if (params.num_users == 0 || params.k == 0) {
    return Status::InvalidArgument("num_users and k must be positive");
  }
  const size_t n = db->dataset().size();
  Rng rng(params.seed);

  ExplorationSimResult result;
  // Round 0: one random start object per user.
  std::vector<ObjectId> positions(params.num_users);
  for (auto& p : positions) p = static_cast<ObjectId>(rng.NextIndex(n));
  std::vector<ObjectId> round_queries = positions;

  // Current answer set per user: the k answers their position query got.
  std::vector<std::vector<ObjectId>> user_answers(params.num_users);

  for (size_t round = 0; round <= params.num_rounds; ++round) {
    std::vector<AnswerSet> answers;
    MSQ_RETURN_IF_ERROR(
        RunRound(db, round_queries, params.k, params.batch_size, &answers));
    result.queries_issued += round_queries.size();
    if (stream != nullptr) {
      stream->insert(stream->end(), round_queries.begin(),
                     round_queries.end());
    }

    if (round == 0) {
      for (size_t u = 0; u < params.num_users; ++u) {
        user_answers[u].clear();
        for (const Neighbor& nb : answers[u]) {
          user_answers[u].push_back(nb.id);
        }
      }
    } else {
      // round_queries was the concatenation of all users' current answers;
      // map each user's picked object to its prefetched answers.
      size_t offset = 0;
      for (size_t u = 0; u < params.num_users; ++u) {
        const size_t count = user_answers[u].size();
        if (count == 0) continue;
        const size_t pick = rng.NextIndex(count);
        positions[u] = user_answers[u][pick];
        user_answers[u].clear();
        for (const Neighbor& nb : answers[offset + pick]) {
          user_answers[u].push_back(nb.id);
        }
        offset += count;
      }
    }
    if (round == params.num_rounds) break;
    // Next round prefetches the neighborhoods of *all* current answers.
    round_queries.clear();
    for (const auto& ua : user_answers) {
      round_queries.insert(round_queries.end(), ua.begin(), ua.end());
    }
    if (round_queries.empty()) break;
  }
  result.final_positions = positions;
  return result;
}

}  // namespace

StatusOr<ExplorationSimResult> RunExplorationSim(
    MetricDatabase* db, const ExplorationSimParams& params) {
  return Simulate(db, params, /*stream=*/nullptr);
}

StatusOr<std::vector<ObjectId>> GenerateExplorationQueryStream(
    MetricDatabase* db, const ExplorationSimParams& params) {
  // Run the simulation on the database once (unmetered relative to the
  // caller: callers snapshot stats around the calls they care about) and
  // record every query object in issue order.
  std::vector<ObjectId> stream;
  auto simulated = Simulate(db, params, &stream);
  if (!simulated.ok()) return simulated.status();
  return stream;
}

}  // namespace msq
