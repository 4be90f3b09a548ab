// `ingest`: a write-heavy job. One client runs a fixed, seeded operation
// sequence on a WAL-armed database: Inserts, a Delete of a random live id
// after every 4th insert, and a 32-query kNN batch after every 64th. The
// WAL fsyncs every 32 records, an auto-checkpoint folds the overlay at
// 256 KiB of WAL or 20% tombstones, and the buffer pool holds the whole
// database. At the end the database is closed and recovered with
// Open(path). WAL appends, overlay growth and writer-path checkpoints do
// the work; page reads, the scheduler and the cluster do none.

#include <algorithm>
#include <cmath>
#include <memory>

#include "common/rng.h"
#include "core/database.h"
#include "dataset/generators.h"
#include "decorator.h"
#include "dist/builtin_metrics.h"
#include "sys.h"
#include "victims.h"
#include "workload.h"

namespace perfbench {
namespace {

constexpr size_t kBase = 50000;
/// Inserts per second of --seconds: the sequence length is fixed by
/// --seconds, so every run with the same arguments does the same work.
constexpr double kInsertsPerSecond = 2000.0;
constexpr size_t kDeleteEvery = 4;
constexpr size_t kQueryEvery = 64;
constexpr size_t kQueryBatch = 32;
constexpr size_t kK = 10;
constexpr int kReopens = 45;
constexpr uint64_t kCatalogueSeed = 44;
constexpr const char* kBatchSpan = "MetricDatabase::MultipleSimilarityQueryAll";

msq::DatabaseOptions Options() {
  msq::DatabaseOptions o;
  o.backend = msq::BackendKind::kXTree;
  o.buffer_fraction = 1.0;
  o.durability.wal_enabled = true;
  o.durability.wal_fsync_policy = msq::WalFsyncPolicy::kEveryN;
  o.durability.wal_fsync_every_n = 32;
  o.durability.auto_checkpoint_wal_bytes = 256 * 1024;
  o.durability.auto_checkpoint_tombstone_ratio = 0.20;
  return o;
}

void Die(const char* what, const msq::Status& status) {
  std::fprintf(stderr, "ingest: %s failed: %s\n", what,
               status.ToString().c_str());
  std::exit(1);
}

/// A kNN batch over the vectors of random live objects.
std::vector<msq::Query> QueryBatch(msq::MetricDatabase& db,
                                   const LiveSet& live,
                                   const std::vector<msq::Vec>& objects,
                                   msq::Rng& rng) {
  std::vector<msq::Query> queries;
  queries.reserve(kQueryBatch);
  for (size_t i = 0; i < kQueryBatch; ++i) {
    queries.push_back(db.MakeKnnQuery(objects[live.key(live.Pick(rng))], kK));
  }
  return queries;
}

}  // namespace

Pass IngestPass(const RunOptions& options, int setups, SpanRecorder* spans) {
  Pass pass;
  const size_t inserts = static_cast<size_t>(
      std::llround(kInsertsPerSecond * options.seconds));
  // Base objects, then the objects to insert, in insertion order. An
  // object's key is its index here.
  std::vector<msq::Vec> objects;
  {
    msq::TychoLikeOptions gen;
    gen.n = kBase + inserts;
    gen.seed = kCatalogueSeed;
    const msq::Dataset all = msq::MakeTychoLikeDataset(gen);
    objects.reserve(all.size());
    for (size_t i = 0; i < all.size(); ++i) {
      objects.push_back(all.object(static_cast<msq::ObjectId>(i)));
    }
  }
  const std::string path = options.dir + "/ingest.msq";
  auto timed_metric = std::make_shared<TimedMetric>();
  std::shared_ptr<const msq::Metric> metric =
      spans != nullptr ? std::shared_ptr<const msq::Metric>(timed_metric)
                       : std::make_shared<msq::EuclideanMetric>();
  msq::Rng rng(options.seed * 7919 + 3);

  // --- set-up: build the base, save (binds the WAL), warm up ------------
  std::unique_ptr<msq::MetricDatabase> db;
  std::vector<double> setup_s;
  uint64_t written_before = 0;
  for (int s = 0; s < setups; ++s) {
    db.reset();
    msq::Dataset base(objects[0].size(), std::vector<msq::Vec>(
                                             objects.begin(),
                                             objects.begin() + kBase));
    written_before = WrittenBytes();
    const double t0 = NowSeconds();
    auto built = msq::MetricDatabase::Open(std::move(base), metric, Options());
    if (!built.ok()) Die("build", built.status());
    db = std::move(built).value();
    if (msq::Status saved = db->Save(path); !saved.ok()) Die("save", saved);
    const LiveSet warm(kBase);
    msq::Rng warm_rng(17);
    if (!db->MultipleSimilarityQueryAll(QueryBatch(*db, warm, objects, warm_rng))
             .ok()) {
      Die("warm-up", msq::Status::Internal("query batch"));
    }
    setup_s.push_back(NowSeconds() - t0);
  }

  // --- timed phase: the fixed operation sequence ------------------------
  LiveSet live(kBase);
  const msq::QueryStats stats_before = db->stats();
  const DistTotals dist_before = timed_metric->totals();
  std::vector<double> write_us, batch_ms, checkpoint_ms;
  std::vector<double> delta_before_batch, tombs_before_batch;
  double modeled_ms = 0.0;
  uint64_t wal_bytes = 0, wal_writes = 0;
  uint64_t preads = 0, pread_bytes = 0;
  uint64_t attempted = 0, failed = 0, wrong = 0;
  size_t writes_since_fold = 0;
  // Runs one Insert/Delete: times it, and notices an auto-checkpoint.
  enum class Outcome { kFailed, kApplied, kFolded };
  const auto mutation = [&](auto&& call, const char* name) {
    const uint64_t wal_before = spans != nullptr ? db->WalSizeBytes() : 0;
    const int64_t t0 = NowNanos();
    msq::Status st;
    {
      ScopedSpan span(spans, name);
      st = call();
    }
    const int64_t t1 = NowNanos();
    ++attempted;
    if (!st.ok()) {
      ++failed;
      write_us.push_back(kMissed);
      return Outcome::kFailed;
    }
    write_us.push_back(static_cast<double>(t1 - t0) / 1e3);
    ++writes_since_fold;
    if (Folded(*db)) {
      checkpoint_ms.push_back(Ms(t1 - t0));
      writes_since_fold = 0;
      return Outcome::kFolded;
    }
    if (spans != nullptr) {
      wal_bytes += db->WalSizeBytes() - wal_before;
      ++wal_writes;
    }
    return Outcome::kApplied;
  };

  const double start = NowSeconds();
  for (size_t i = 0; i < inserts; ++i) {
    const uint64_t key = kBase + i;
    msq::ObjectId got = 0;
    const Outcome inserted = mutation(
        [&] {
          auto id = db->Insert(objects[key]);
          if (id.ok()) got = *id;
          return id.status();
        },
        "MetricDatabase::Insert");
    if (inserted != Outcome::kFailed) {
      // The id Insert returns is the post-fold one when it folded.
      msq::ObjectId expect = live.Append(key);
      if (inserted == Outcome::kFolded) {
        live.Fold();
        expect = static_cast<msq::ObjectId>(live.size() - 1);
      }
      if (got != expect) ++wrong;
    }
    if ((i + 1) % kDeleteEvery == 0) {
      const msq::ObjectId victim = live.Pick(rng);
      const Outcome deleted = mutation([&] { return db->Delete(victim); },
                                       "MetricDatabase::Delete");
      if (deleted != Outcome::kFailed) live.Remove(victim);
      if (deleted == Outcome::kFolded) live.Fold();
    }
    if ((i + 1) % kQueryEvery == 0) {
      std::vector<msq::Query> queries = QueryBatch(*db, live, objects, rng);
      const msq::PageFileIoStats* io = nullptr;
      msq::PageFileIoStats io_before;
      if (spans != nullptr) {
        delta_before_batch.push_back(static_cast<double>(db->NumDeltaObjects()));
        tombs_before_batch.push_back(static_cast<double>(db->NumTombstones()));
        io = StoreIoStats(*db);
        if (io != nullptr) io_before = *io;
      }
      const double modeled_before = db->ModeledTotalMillis();
      const int64_t t0 = NowNanos();
      msq::StatusOr<std::vector<msq::AnswerSet>> answers =
          std::vector<msq::AnswerSet>{};
      {
        ScopedSpan span(spans, kBatchSpan);
        answers = db->MultipleSimilarityQueryAll(queries);
      }
      const int64_t t1 = NowNanos();
      attempted += kQueryBatch;
      if (!answers.ok() || answers->size() != kQueryBatch) {
        failed += kQueryBatch;
        batch_ms.push_back(kMissed);
      } else {
        batch_ms.push_back(Ms(t1 - t0));
        modeled_ms += db->ModeledTotalMillis() - modeled_before;
      }
      if (io != nullptr) {
        preads += io->reads - io_before.reads;
        pread_bytes += io->read_bytes - io_before.read_bytes;
      }
    }
  }
  const double wall = NowSeconds() - start;
  const uint64_t written = WrittenBytes() - written_before;
  const msq::QueryStats delta = db->stats() - stats_before;
  const DistTotals dist_after = timed_metric->totals();

  // --- output checks ---------------------------------------------------
  // A final batch is answered by the live database, checked against a
  // full scan of the benchmark's own tally, and re-asked after recovery.
  std::vector<msq::Query> probe = QueryBatch(*db, live, objects, rng);
  auto before_close = db->MultipleSimilarityQueryAll(probe);
  if (!before_close.ok()) Die("probe batch", before_close.status());
  Candidates tally;
  tally.ids = live.live_ids();
  for (msq::ObjectId id : tally.ids) {
    tally.vectors.push_back(&objects[live.key(id)]);
  }
  for (size_t q = 0; q < probe.size(); ++q) {
    if (!SameAnswers((*before_close)[q],
                     BruteForceKnn(probe[q].point, kK, tally))) {
      ++wrong;
    }
  }
  const size_t live_before_close = db->NumLiveObjects();
  if (live_before_close != live.size()) ++wrong;
  db.reset();

  std::vector<double> reopen_s;
  uint64_t replayed = 0;
  for (int r = 0; r < kReopens; ++r) {
    const double t0 = NowSeconds();
    msq::StatusOr<std::unique_ptr<msq::MetricDatabase>> reopened =
        msq::Status::Internal("not opened");
    {
      ScopedSpan span(spans, "MetricDatabase::Open");
      reopened = msq::MetricDatabase::Open(path, Options(), metric);
    }
    reopen_s.push_back(NowSeconds() - t0);
    if (!reopened.ok()) Die("recovery", reopened.status());
    msq::MetricDatabase& back = **reopened;
    replayed = back.recovery().replayed_records;
    if (replayed != writes_since_fold || back.NumLiveObjects() != live.size()) {
      ++wrong;
    }
    if (r == 0) {
      std::vector<msq::Query> again;
      for (const msq::Query& q : probe) {
        again.push_back(back.MakeKnnQuery(q.point, kK));
      }
      auto after = back.MultipleSimilarityQueryAll(again);
      if (!after.ok()) Die("probe after recovery", after.status());
      for (size_t q = 0; q < probe.size(); ++q) {
        if (!SameAnswers((*before_close)[q], (*after)[q])) ++wrong;
      }
    }
  }
  const double dim_bytes =
      static_cast<double>(objects[0].size() * sizeof(msq::Scalar));
  const double stored =
      static_cast<double>(FileBytes(path) + FileBytes(path + ".wal"));

  Result& e = pass.e2e;
  const double queries_done =
      static_cast<double>(std::count_if(batch_ms.begin(), batch_ms.end(),
                                        [](double v) { return v != kMissed; }) *
                          kQueryBatch);
  const double writes_done = static_cast<double>(
      std::count_if(write_us.begin(), write_us.end(),
                    [](double v) { return v != kMissed; }));
  e.correct = wrong == 0;
  e.attempted = attempted;
  e.failed = failed + wrong;
  e.Set("setup_s", Median(setup_s));
  e.Set("peak_rss_mb", PeakRssMiB());
  e.Set("throughput_qps", queries_done / wall);
  e.Extra("p50_ms", Percentile(batch_ms, 50), "ms");
  e.Extra("p90_ms", Percentile(batch_ms, 90), "ms");
  e.Set("reopen_s", Median(reopen_s));
  e.Set("space_amp", stored / (static_cast<double>(live.size()) * dim_bytes));
  e.Set("write_amp", static_cast<double>(written) /
                         (static_cast<double>(kBase + inserts) * dim_bytes));
  e.Extra("write_p50_us", Percentile(write_us, 50), "us");
  e.Extra("write_p99_us", Percentile(write_us, 99), "us");
  e.Extra("writes_per_s", writes_done / wall, "1/s");
  e.Extra("checkpoints", static_cast<double>(checkpoint_ms.size()), "count");
  e.Extra("checkpoint_ms_max",
          checkpoint_ms.empty()
              ? 0.0
              : *std::max_element(checkpoint_ms.begin(), checkpoint_ms.end()),
          "ms");
  e.Extra("query_batches", static_cast<double>(batch_ms.size()), "count");
  e.Extra("live_objects", static_cast<double>(live.size()), "count");

  if (spans != nullptr) {
    Result& l = pass.layers;
    SetQueryStatsLayers(delta, queries_done,
                        static_cast<double>(batch_ms.size()), &l);
    SetCoreSpanLayers(spans->Spans(), kBatchSpan, queries_done, modeled_ms,
                      &l);
    l.Set("core.delta_objects_mean", Mean(delta_before_batch));
    l.Set("core.tombstones_mean", Mean(tombs_before_batch));
    SetDistLayers(dist_before, dist_after, &l);
    l.Set("storage.preads_per_query",
          Ratio(static_cast<double>(preads), queries_done));
    l.Set("storage.pread_kib_per_query",
          Ratio(static_cast<double>(pread_bytes) / 1024.0, queries_done));
    l.Set("storage.checkpoints", static_cast<double>(checkpoint_ms.size()));
    l.Set("storage.checkpoint_ms_p50", Percentile(checkpoint_ms, 50));
    l.Set("storage.wal_bytes_per_write",
          Ratio(static_cast<double>(wal_bytes), static_cast<double>(wal_writes)));
    l.Set("storage.replayed_records", static_cast<double>(replayed));
    l.Set("trace.spans", static_cast<double>(spans->size()));
  }
  return pass;
}

}  // namespace perfbench
