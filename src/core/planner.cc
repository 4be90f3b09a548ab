#include "core/planner.h"

#include <algorithm>
#include <limits>

#include "common/rng.h"

namespace msq {

StatusOr<std::unique_ptr<QueryPlanner>> QueryPlanner::Create(
    const Dataset& dataset, std::shared_ptr<const Metric> metric,
    const PlannerOptions& options) {
  if (options.candidates.empty()) {
    return Status::InvalidArgument("no candidate backends");
  }
  auto planner = std::unique_ptr<QueryPlanner>(new QueryPlanner());
  for (BackendKind kind : options.candidates) {
    DatabaseOptions db_options = options.database;
    db_options.backend = kind;
    auto db = MetricDatabase::Open(dataset, metric, db_options);
    if (!db.ok()) {
      if (db.status().IsNotSupported()) continue;  // e.g. metric w/o MINDIST
      return db.status();
    }
    planner->databases_.push_back(std::move(db).value());
    BackendProfile profile;
    profile.kind = kind;
    planner->profiles_.push_back(profile);
  }
  if (planner->databases_.empty()) {
    return Status::NotSupported(
        "no candidate backend supports the given metric");
  }
  MSQ_RETURN_IF_ERROR(planner->Calibrate(options));
  return planner;
}

Status QueryPlanner::Calibrate(const PlannerOptions& options) {
  // Probe objects shared across candidates for comparability.
  Rng rng(options.seed);
  const size_t n = databases_.front()->dataset().size();
  const size_t probes = std::min<size_t>(std::max<size_t>(
                                             options.probe_queries, 2),
                                         n);
  std::vector<ObjectId> probe_ids;
  for (uint64_t id : rng.SampleWithoutReplacement(n, probes)) {
    probe_ids.push_back(static_cast<ObjectId>(id));
  }

  for (size_t b = 0; b < databases_.size(); ++b) {
    MetricDatabase* db = databases_[b].get();
    const size_t dim = db->dataset().dim();

    std::vector<Query> probe_queries;
    for (ObjectId id : probe_ids) {
      probe_queries.push_back(db->MakeObjectKnnQuery(id, options.probe_k));
    }
    // Modeled cost per probe at batch width `width`, from a cold start.
    auto profile = [&](size_t width, double* ms_per_query) -> Status {
      db->ResetAll();
      auto got = db->AnswerInBatches(probe_queries, width);
      if (!got.ok()) return got.status();
      *ms_per_query = db->stats().TotalMillis(db->cost_model(), dim) /
                      static_cast<double>(probe_queries.size());
      return Status::OK();
    };
    // Single-query profile, then one multiple query over all probes (width
    // at least 2, so even a lone probe takes the engine path here).
    MSQ_RETURN_IF_ERROR(profile(1, &profiles_[b].single_query_ms));
    MSQ_RETURN_IF_ERROR(profile(std::max<size_t>(probe_queries.size(), 2),
                                &profiles_[b].batched_query_ms));
    db->ResetAll();
  }
  return Status::OK();
}

PlanDecision QueryPlanner::Plan(size_t m) const {
  PlanDecision decision;
  decision.batch_size = m;
  double best = std::numeric_limits<double>::infinity();
  for (const BackendProfile& profile : profiles_) {
    const double predicted = profile.PredictMs(m);
    decision.predicted_ms.push_back(predicted);
    if (predicted < best) {
      best = predicted;
      decision.chosen = profile.kind;
    }
  }
  return decision;
}

StatusOr<std::vector<AnswerSet>> QueryPlanner::ExecuteBatch(
    const std::vector<Query>& queries) {
  if (queries.empty()) {
    return Status::InvalidArgument("empty query batch");
  }
  PlanDecision decision = Plan(queries.size());
  decisions_.push_back(decision);
  MetricDatabase* db = database(decision.chosen);
  if (db == nullptr) {
    return Status::Internal("chosen backend disappeared");
  }
  // The whole batch at once (in engine-sized blocks); a lone query takes
  // the single-query path the profile predicted for it.
  return db->AnswerInBatches(queries, queries.size());
}

MetricDatabase* QueryPlanner::database(BackendKind kind) {
  for (size_t b = 0; b < profiles_.size(); ++b) {
    if (profiles_[b].kind == kind) return databases_[b].get();
  }
  return nullptr;
}

}  // namespace msq
