#include "workload.h"

#include <algorithm>
#include <cstring>

#include "dist/builtin_metrics.h"

namespace perfbench {

Candidates AllObjects(const msq::Dataset& data) {
  Candidates c;
  c.ids.reserve(data.size());
  c.vectors.reserve(data.size());
  for (size_t i = 0; i < data.size(); ++i) {
    c.ids.push_back(static_cast<msq::ObjectId>(i));
    c.vectors.push_back(&data.object(static_cast<msq::ObjectId>(i)));
  }
  return c;
}

msq::AnswerSet BruteForceKnn(const msq::Vec& q, size_t k,
                             const Candidates& candidates) {
  const msq::EuclideanMetric metric;
  msq::AnswerSet all(candidates.ids.size());
  for (size_t i = 0; i < all.size(); ++i) {
    all[i] = msq::Neighbor{candidates.ids[i],
                           metric.Distance(q, *candidates.vectors[i])};
  }
  const size_t keep = std::min(k, all.size());
  std::partial_sort(all.begin(), all.begin() + keep, all.end());
  all.resize(keep);
  return all;
}

bool SameAnswers(const msq::AnswerSet& a, const msq::AnswerSet& b) {
  if (a.size() != b.size()) return false;
  msq::AnswerSet x = a, y = b;
  std::sort(x.begin(), x.end());
  std::sort(y.begin(), y.end());
  return x == y;
}

void SetQueryStatsLayers(const msq::QueryStats& d, double queries,
                         double batches, Result* layers) {
  const auto f = [](uint64_t v) { return static_cast<double>(v); };
  layers->Set("core.dists_per_query", Ratio(f(d.dist_computations), queries));
  layers->Set("core.matrix_dists_per_batch",
              Ratio(f(d.matrix_dist_computations), batches));
  layers->Set("core.triangle_tries_per_query",
              Ratio(f(d.triangle_tries), queries));
  layers->Set("core.triangle_avoid_ratio",
              Ratio(f(d.triangle_avoided), f(d.triangle_tries)));
  layers->Set("core.pivot_tries_per_query", Ratio(f(d.pivot_tries), queries));
  layers->Set("core.pivot_avoid_ratio",
              Ratio(f(d.pivot_avoided), f(d.pivot_tries)));
  layers->Set("core.speculative_ratio", Ratio(f(d.kernel_speculative_dists),
                                              f(d.kernel_batched_dists)));
  const double reads = f(d.TotalPageReads());
  layers->Set("storage.pages_per_query", Ratio(reads, queries));
  layers->Set("storage.buffer_hit_ratio",
              Ratio(f(d.buffer_hits), f(d.buffer_hits) + reads));
}

void SetCoreSpanLayers(const std::vector<Span>& spans, const char* name,
                       double queries, double modeled_ms, Result* layers) {
  const auto self = SelfNanos(spans);
  std::vector<double> batch_ms;
  int64_t total_ns = 0, self_ns = 0, dist_ns = 0;
  for (const Span& s : spans) {
    if (std::strcmp(s.name, name) != 0) continue;
    batch_ms.push_back(Ms(s.end_ns - s.start_ns));
    total_ns += s.end_ns - s.start_ns;
    self_ns += self.at(s.id);
    dist_ns += s.dist_nanos;
  }
  layers->Set("core.batch_ms_p50", Percentile(batch_ms, 50));
  layers->Set("core.self_ms_per_query", Ratio(Ms(self_ns), queries));
  layers->Set("core.modeled_over_measured", Ratio(modeled_ms, Ms(total_ns)));
  layers->Set("dist.share", Ratio(static_cast<double>(dist_ns),
                                  static_cast<double>(total_ns)));
}

const msq::PageFileIoStats* StoreIoStats(msq::MetricDatabase& db) {
  msq::DataLayout* layout = db.backend().MutableLayout();
  return layout != nullptr && layout->store() != nullptr
             ? &layout->store()->io_stats()
             : nullptr;
}

void SetDistLayers(const DistTotals& before, const DistTotals& after,
                   Result* layers) {
  const double calls = static_cast<double>(after.calls - before.calls);
  const double rows = static_cast<double>(after.rows - before.rows);
  const double nanos = static_cast<double>(after.nanos - before.nanos);
  layers->Set("dist.ns_per_distance", Ratio(nanos, rows));
  layers->Set("dist.rows_per_call", Ratio(rows, calls));
}

}  // namespace perfbench
