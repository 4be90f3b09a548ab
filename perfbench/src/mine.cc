// `mine`: the paper's Sec. 6 astronomy workload — simultaneous kNN
// classification by one mining client in a closed loop, batches of m=100
// through MultipleSimilarityQueryAll on a reopened, file-backed X-tree
// with pivots and a 10% buffer pool. The engine's batch machinery does
// nearly all the work; the scheduler, the cluster and the WAL never run.

#include <algorithm>
#include <memory>

#include "common/rng.h"
#include "core/database.h"
#include "dataset/generators.h"
#include "decorator.h"
#include "dist/builtin_metrics.h"
#include "sys.h"
#include "workload.h"

namespace perfbench {
namespace {

constexpr size_t kObjects = 100000;
constexpr size_t kK = 10;
constexpr size_t kBatch = 100;
/// Warm-up batches before the timed phase (fill the buffer pool).
constexpr size_t kWarmupBatches = 2;
/// Queries per timed batch re-answered by a brute-force scan.
constexpr size_t kChecksPerBatch = 1;
constexpr int kReopens = 15;
/// The catalogue is fixed; --seed picks the queries.
constexpr uint64_t kCatalogueSeed = 42;
constexpr const char* kBatchSpan = "MetricDatabase::MultipleSimilarityQueryAll";

const msq::Dataset& Catalogue() {
  static const msq::Dataset data = [] {
    msq::TychoLikeOptions gen;
    gen.n = kObjects;
    gen.seed = kCatalogueSeed;
    return msq::MakeTychoLikeDataset(gen);
  }();
  return data;
}

msq::DatabaseOptions Options() {
  msq::DatabaseOptions o;
  o.backend = msq::BackendKind::kXTree;
  o.buffer_fraction = 0.10;
  o.pivots.enabled = true;
  return o;
}

std::unique_ptr<msq::MetricDatabase> Check(
    msq::StatusOr<std::unique_ptr<msq::MetricDatabase>> db, const char* what) {
  if (!db.ok()) {
    std::fprintf(stderr, "mine: %s failed: %s\n", what,
                 db.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(db).value();
}

/// Build `data` (a copy of the catalogue), save and reopen it, then warm
/// it up.
std::unique_ptr<msq::MetricDatabase> SetUp(
    msq::Dataset data, const std::string& path,
    std::shared_ptr<const msq::Metric> metric,
    const std::vector<msq::ObjectId>& order) {
  {
    auto built = Check(msq::MetricDatabase::Open(
                           std::move(data),
                           std::make_shared<msq::EuclideanMetric>(), Options()),
                       "build");
    const msq::Status saved = built->Save(path);
    if (!saved.ok()) {
      std::fprintf(stderr, "mine: save failed: %s\n",
                   saved.ToString().c_str());
      std::exit(1);
    }
  }
  auto db = Check(msq::MetricDatabase::Open(path, Options(), metric), "open");
  for (size_t b = 0; b < kWarmupBatches; ++b) {
    std::vector<msq::Query> queries;
    for (size_t i = 0; i < kBatch; ++i) {
      queries.push_back(db->MakeObjectKnnQuery(order[b * kBatch + i], kK));
    }
    if (!db->MultipleSimilarityQueryAll(queries).ok()) {
      std::fprintf(stderr, "mine: warm-up batch failed\n");
      std::exit(1);
    }
  }
  return db;
}

}  // namespace

Pass MinePass(const RunOptions& options, int setups, SpanRecorder* spans) {
  Pass pass;
  const msq::Dataset& data = Catalogue();
  const std::string path = options.dir + "/mine.msq";
  auto timed_metric = std::make_shared<TimedMetric>();
  std::shared_ptr<const msq::Metric> metric;
  if (spans != nullptr) metric = timed_metric;  // else: from the file

  // A seeded permutation of the catalogue: warm-up queries first, then
  // the timed stream. Every object is queried at most once.
  std::vector<msq::ObjectId> order(data.size());
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = static_cast<msq::ObjectId>(i);
  }
  msq::Rng rng(options.seed * 7919 + 1);
  for (size_t i = order.size() - 1; i > 0; --i) {
    std::swap(order[i], order[rng.NextIndex(i + 1)]);
  }

  std::unique_ptr<msq::MetricDatabase> db;
  std::vector<double> setup_s;
  uint64_t written_before = 0;
  for (int s = 0; s < setups; ++s) {
    db.reset();
    msq::Dataset copy = data;
    written_before = WrittenBytes();
    const double t0 = NowSeconds();
    db = SetUp(std::move(copy), path, metric, order);
    setup_s.push_back(NowSeconds() - t0);
  }

  // --- timed phase: closed loop of m=100 batches ----------------------
  const msq::QueryStats stats_before = db->stats();
  const msq::PageFileIoStats* io = StoreIoStats(*db);
  const msq::PageFileIoStats io_before =
      io != nullptr ? *io : msq::PageFileIoStats{};
  const DistTotals dist_before = timed_metric->totals();
  std::vector<double> batch_ms;
  double modeled_ms = 0.0;
  struct Sample {
    msq::ObjectId object;
    msq::AnswerSet answer;
  };
  std::vector<Sample> samples;
  uint64_t attempted = 0, failed = 0;
  size_t next = kWarmupBatches * kBatch;
  const double start = NowSeconds();
  while (NowSeconds() - start < options.seconds &&
         next + kBatch <= order.size()) {
    std::vector<msq::Query> queries;
    queries.reserve(kBatch);
    for (size_t i = 0; i < kBatch; ++i) {
      queries.push_back(db->MakeObjectKnnQuery(order[next + i], kK));
    }
    const double modeled_before = db->ModeledTotalMillis();
    msq::StatusOr<std::vector<msq::AnswerSet>> answers =
        std::vector<msq::AnswerSet>{};
    const int64_t t0 = NowNanos();
    {
      ScopedSpan span(spans, kBatchSpan);
      span.set_arg(static_cast<double>(kBatch));
      answers = db->MultipleSimilarityQueryAll(queries);
    }
    const int64_t t1 = NowNanos();
    attempted += kBatch;
    if (!answers.ok() || answers->size() != kBatch) {
      failed += kBatch;
      batch_ms.push_back(kMissed);
    } else {
      batch_ms.push_back(Ms(t1 - t0));
      modeled_ms += db->ModeledTotalMillis() - modeled_before;
      for (size_t c = 0; c < kChecksPerBatch; ++c) {
        const size_t i = static_cast<size_t>(rng.NextIndex(kBatch));
        samples.push_back({order[next + i], (*answers)[i]});
      }
    }
    next += kBatch;
  }
  const double wall = NowSeconds() - start;
  const uint64_t written = WrittenBytes() - written_before;
  const msq::QueryStats delta = db->stats() - stats_before;
  const msq::PageFileIoStats io_after =
      io != nullptr ? *io : msq::PageFileIoStats{};
  const DistTotals dist_after = timed_metric->totals();

  // --- output check: brute-force re-answers of the sampled queries -----
  const Candidates everything = AllObjects(data);
  uint64_t wrong = 0;
  for (const Sample& s : samples) {
    if (!SameAnswers(s.answer,
                     BruteForceKnn(data.object(s.object), kK, everything))) {
      ++wrong;
    }
  }

  // --- persisted state ------------------------------------------------
  db.reset();
  std::vector<double> reopen_s;
  for (int r = 0; r < kReopens; ++r) {
    const double t0 = NowSeconds();
    auto reopened =
        Check(msq::MetricDatabase::Open(path, Options(), metric), "reopen");
    reopen_s.push_back(NowSeconds() - t0);
  }
  const double user_bytes =
      static_cast<double>(data.size() * data.dim() * sizeof(msq::Scalar));

  const double queries_done = static_cast<double>(attempted - failed);
  Result& e = pass.e2e;
  e.correct = wrong == 0;
  e.attempted = attempted;
  e.failed = failed + wrong;
  e.Set("setup_s", Median(setup_s));
  e.Set("peak_rss_mb", PeakRssMiB());
  e.Set("throughput_qps", queries_done / wall);
  e.Extra("p50_ms", Percentile(batch_ms, 50), "ms");
  e.Extra("p90_ms", Percentile(batch_ms, 90), "ms");
  e.Set("reopen_s", Median(reopen_s));
  e.Set("space_amp", static_cast<double>(FileBytes(path)) / user_bytes);
  e.Set("write_amp", static_cast<double>(written) / user_bytes);
  e.Extra("batches", static_cast<double>(batch_ms.size()), "count");
  e.Extra("checked_answers", static_cast<double>(samples.size()), "count");

  if (spans != nullptr) {
    Result& l = pass.layers;
    const double batches = static_cast<double>(batch_ms.size());
    SetQueryStatsLayers(delta, queries_done, batches, &l);
    SetCoreSpanLayers(spans->Spans(), kBatchSpan, queries_done, modeled_ms,
                      &l);
    SetDistLayers(dist_before, dist_after, &l);
    l.Set("storage.preads_per_query",
          Ratio(static_cast<double>(io_after.reads - io_before.reads),
                queries_done));
    l.Set("storage.pread_kib_per_query",
          Ratio(static_cast<double>(io_after.read_bytes - io_before.read_bytes) /
                    1024.0,
                queries_done));
    l.Set("trace.spans", static_cast<double>(spans->size()));
  }
  return pass;
}

}  // namespace perfbench
