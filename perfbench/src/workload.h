// The three workloads and what they share.
//
// Each workload is one function running one *pass*: set up (several
// times when measuring set-up time), run the timed phase, check the
// outputs, and measure the persisted state. A run is one pass, untraced
// or traced; the tracing overhead is the difference between the two
// passes on the same inputs, each in its own process.

#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.h"
#include "core/database.h"
#include "core/query.h"
#include "dataset/dataset.h"
#include "decorator.h"
#include "report.h"
#include "spans.h"

namespace perfbench {

struct RunOptions {
  uint64_t seed = 1;
  /// Length of the timed phase.
  double seconds = 10.0;
  /// Scratch directory for database files (created and removed by the
  /// caller).
  std::string dir;
};

struct Pass {
  /// Filled by every pass.
  Result e2e = EndToEndTemplate();
  /// Filled by a traced pass.
  Result layers = PerLayerTemplate();
};

/// Runs one pass. `setups` is how many times the set-up is repeated
/// (setup_s is their median); `spans` is null for an untraced pass.
Pass MinePass(const RunOptions& options, int setups, SpanRecorder* spans);
Pass ServePass(const RunOptions& options, int setups, SpanRecorder* spans);
Pass IngestPass(const RunOptions& options, int setups, SpanRecorder* spans);

// --- shared helpers ------------------------------------------------------

/// Objects a brute-force scan runs over: ids and their vectors.
struct Candidates {
  std::vector<msq::ObjectId> ids;
  std::vector<const msq::Vec*> vectors;
};
/// Every object of `data`, with its dataset id.
Candidates AllObjects(const msq::Dataset& data);

/// The k nearest candidates to `q` by a full scan: (distance, id) order,
/// distances from EuclideanMetric::Distance.
msq::AnswerSet BruteForceKnn(const msq::Vec& q, size_t k,
                             const Candidates& candidates);

/// Exact equality of two answer sets, by id and distance.
bool SameAnswers(const msq::AnswerSet& a, const msq::AnswerSet& b);

/// Sets the core.* and storage.* counters derivable from the QueryStats
/// delta of a timed phase that answered `queries` in `batches`.
void SetQueryStatsLayers(const msq::QueryStats& delta, double queries,
                         double batches, Result* layers);

/// Sets the core.* timings and dist.share from the recorded spans named
/// `name` (the database's batch calls): their p50, self time per query,
/// and modeled ÷ measured time.
void SetCoreSpanLayers(const std::vector<Span>& spans, const char* name,
                       double queries, double modeled_ms, Result* layers);

/// The page file a database reads through; null for an in-memory one.
const msq::PageFileIoStats* StoreIoStats(msq::MetricDatabase& db);

/// Sets dist.ns_per_distance and dist.rows_per_call from the decorator's
/// totals before and after a timed phase.
void SetDistLayers(const DistTotals& before, const DistTotals& after,
                   Result* layers);

/// x / y, or 0 when y is 0 (a layer that did no work reports 0).
inline double Ratio(double x, double y) { return y == 0.0 ? 0.0 : x / y; }

/// Milliseconds between two NowNanos() readings.
inline double Ms(int64_t nanos) { return static_cast<double>(nanos) / 1e6; }

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
