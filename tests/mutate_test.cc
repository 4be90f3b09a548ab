// Tests for the online-mutability layer (DESIGN §13): epoch-based
// reclamation, the chunked copy-on-write container, two-tier pivot rows,
// insert/delete visibility against every backend, the overlay's page-read
// contract (range check, read faults surfacing through the tombstone
// filter), storage wiring of a compacted base (metrics sink, cold reset),
// quiesced equality (a
// mutated-then-compacted database answers bit-identically to a fresh build
// of the same final object set, pivots on and off), persistence of the
// mutated state through the page store, a mixed reader/writer stress run
// (the TSan CI target), and the multi-tenant scheduler lanes: tenant-scoped
// coalescing, per-tenant quotas, lane-ordered flushing, and SLO shedding.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/cow_vec.h"
#include "core/database.h"
#include "core/epoch.h"
#include "core/pivot_table.h"
#include "dataset/generators.h"
#include "dist/builtin_metrics.h"
#include "obs/metrics.h"
#include "obs/sink.h"
#include "parallel/thread_pool.h"
#include "robust/fault_injector.h"
#include "service/batch_scheduler.h"
#include "tests/test_util.h"

namespace msq {
namespace {

using testing::BruteForceQuery;
using testing::SameAnswers;

constexpr BackendKind kAllBackends[] = {
    BackendKind::kLinearScan, BackendKind::kXTree, BackendKind::kMTree,
    BackendKind::kVaFile};

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

std::unique_ptr<MetricDatabase> OpenDb(const Dataset& data, BackendKind kind,
                                       bool pivots = false) {
  DatabaseOptions options;
  options.backend = kind;
  options.pivots.enabled = pivots;
  options.pivots.table.num_pivots = 4;
  options.pivots.table.sample_size = 64;
  auto db = MetricDatabase::Open(data, std::make_shared<EuclideanMetric>(),
                                 options);
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  return db.ok() ? std::move(db).value() : nullptr;
}

/// Exhaustive oracle over the *current overlay state* of a mutable
/// database: base minus tombstones plus live delta, ids as queries see
/// them before compaction.
AnswerSet OverlayOracle(const LiveVersion& v, const Metric& metric,
                        const Query& q) {
  AnswerSet all;
  for (size_t id = 0; id < v.total_objects(); ++id) {
    if (v.tombstoned(id)) continue;
    const Vec& row = id < v.base_n
                         ? v.base_dataset->object(static_cast<ObjectId>(id))
                         : v.delta[id - v.base_n];
    const double d = metric.Distance(q.point, row);
    if (d <= q.type.range) all.push_back({static_cast<ObjectId>(id), d});
  }
  std::sort(all.begin(), all.end());
  if (q.type.Adaptive() && all.size() > q.type.cardinality) {
    all.resize(q.type.cardinality);
  }
  return all;
}

// --- EpochManager --------------------------------------------------------

TEST(MutateEpochTest, ReclaimWaitsForActiveReader) {
  EpochManager epochs;
  auto version = std::make_shared<int>(7);
  std::weak_ptr<int> alive = version;

  EpochManager::Guard reader = epochs.Pin();
  epochs.Retire(std::move(version));
  // The reader pinned before the retirement, so the retired object must
  // survive every reclamation attempt while the pin is held.
  epochs.Reclaim();
  EXPECT_FALSE(alive.expired());
  EXPECT_EQ(epochs.limbo_size(), 1u);
  EXPECT_GE(epochs.ReclaimLagEpochs(), 1u);

  reader.Release();
  epochs.Reclaim();
  EXPECT_TRUE(alive.expired());
  EXPECT_EQ(epochs.limbo_size(), 0u);
  EXPECT_EQ(epochs.ReclaimLagEpochs(), 0u);
}

TEST(MutateEpochTest, RetireWithoutReadersReclaimsImmediately) {
  EpochManager epochs;
  auto version = std::make_shared<int>(1);
  std::weak_ptr<int> alive = version;
  // Retire advances the epoch and reclaims inline; with no pins the limbo
  // entry must not outlive the call.
  epochs.Retire(std::move(version));
  EXPECT_TRUE(alive.expired());
  EXPECT_EQ(epochs.limbo_size(), 0u);
}

TEST(MutateEpochTest, LaterPinDoesNotBlockOlderRetirement) {
  EpochManager epochs;
  auto old_version = std::make_shared<int>(1);
  std::weak_ptr<int> alive = old_version;
  epochs.Retire(std::move(old_version));  // reclaimed inline (no readers)
  ASSERT_TRUE(alive.expired());

  // A reader pinning *now* can only observe post-retirement state; a fresh
  // retirement parks until the pin drops, but the pin cannot resurrect
  // eligibility rules for entries retired at even older epochs.
  EpochManager::Guard reader = epochs.Pin();
  auto next = std::make_shared<int>(2);
  std::weak_ptr<int> next_alive = next;
  epochs.Retire(std::move(next));
  EXPECT_FALSE(next_alive.expired());
  reader.Release();
  epochs.Reclaim();
  EXPECT_TRUE(next_alive.expired());
}

// --- CowChunkedVec -------------------------------------------------------

TEST(MutateCowVecTest, SnapshotsAreIsolatedFromLaterWrites) {
  CowChunkedVec<int> writer;
  for (int i = 0; i < 150; ++i) writer.PushBack(i);  // spans 3 chunks

  const CowChunkedVec<int> snapshot = writer;  // O(chunks) copy
  writer.PushBack(999);
  writer.Set(3, -3);
  writer.Set(130, -130);

  ASSERT_EQ(snapshot.size(), 150u);
  EXPECT_EQ(snapshot[3], 3);
  EXPECT_EQ(snapshot[130], 130);
  ASSERT_EQ(writer.size(), 151u);
  EXPECT_EQ(writer[3], -3);
  EXPECT_EQ(writer[130], -130);
  EXPECT_EQ(writer[150], 999);
  // Untouched chunks stay shared: element 64..127 live in a chunk neither
  // write touched, so both views agree.
  EXPECT_EQ(snapshot[70], writer[70]);
}

// --- PivotTable::WithAppendedRow -----------------------------------------

TEST(MutatePivotTest, AppendedRowIsExactAndSharesBase) {
  const Dataset data = MakeUniformDataset(120, 5, 3);
  EuclideanMetric metric;
  PivotTableOptions options;
  options.num_pivots = 4;
  options.sample_size = 64;
  auto built = PivotTable::Build(data, metric, options);
  ASSERT_TRUE(built.ok());
  std::shared_ptr<const PivotTable> table = std::move(built).value();

  const Vec extra = MakeUniformDataset(1, 5, 9).object(0);
  std::shared_ptr<const PivotTable> appended =
      table->WithAppendedRow(extra, metric);
  ASSERT_EQ(appended->num_objects(), table->num_objects() + 1);
  const double* row = appended->Row(static_cast<ObjectId>(data.size()));
  for (size_t k = 0; k < appended->num_pivots(); ++k) {
    EXPECT_EQ(row[k], metric.Distance(extra, appended->pivot_point(k)));
  }
  // The base rows are shared, not copied: identical storage addresses.
  EXPECT_EQ(appended->Row(0), table->Row(0));
}

// --- insert/delete visibility before compaction --------------------------

TEST(MutateTest, InsertVisibleAndDeleteHiddenOnEveryBackend) {
  const Dataset base = MakeUniformDataset(300, 6, 21);
  const Dataset adds = MakeUniformDataset(10, 6, 22);
  const Dataset probes = MakeUniformDataset(6, 6, 23);
  EuclideanMetric metric;
  for (BackendKind kind : kAllBackends) {
    SCOPED_TRACE(BackendKindName(kind));
    auto db = OpenDb(base, kind);
    ASSERT_NE(db, nullptr);
    std::vector<ObjectId> delta_ids;
    for (size_t i = 0; i < adds.size(); ++i) {
      auto id = db->Insert(adds.object(static_cast<ObjectId>(i)));
      ASSERT_TRUE(id.ok()) << id.status().ToString();
      EXPECT_EQ(*id, base.size() + i);
      delta_ids.push_back(*id);
    }
    ASSERT_TRUE(db->Delete(7).ok());                  // base tier
    ASSERT_TRUE(db->Delete(133).ok());                // base tier
    ASSERT_TRUE(db->Delete(delta_ids[2]).ok());       // delta tier
    ASSERT_TRUE(db->Delete(delta_ids[9]).ok());       // delta tier
    EXPECT_FALSE(db->Delete(7).ok());                 // double delete refused
    EXPECT_EQ(db->NumDeltaObjects(), adds.size());
    EXPECT_EQ(db->NumTombstones(), 4u);
    EXPECT_EQ(db->NumLiveObjects(), base.size() + adds.size() - 4);

    auto version = db->CurrentVersion();
    for (size_t i = 0; i < probes.size(); ++i) {
      const Query knn{static_cast<QueryId>(9000 + i),
                      probes.object(static_cast<ObjectId>(i)),
                      QueryType::Knn(8)};
      auto got = db->SimilarityQuery(knn);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_TRUE(SameAnswers(*got, OverlayOracle(*version, metric, knn), 0.0));

      const Query range{static_cast<QueryId>(9100 + i),
                        probes.object(static_cast<ObjectId>(i)),
                        QueryType::Range(0.7)};
      auto got_range = db->SimilarityQuery(range);
      ASSERT_TRUE(got_range.ok()) << got_range.status().ToString();
      EXPECT_TRUE(SameAnswers(*got_range,
                              OverlayOracle(*version, metric, range), 0.0));
    }
  }
}

// --- quiesced equality (the acceptance criterion) ------------------------

// Mutate, compact, and compare against a database built directly from the
// final object set: answers must be bit-identical (ids and distances) for
// every backend, pivots off and on. Compaction renumbers survivors in
// base-then-insertion order, which is exactly the row order of `final_set`
// below, so ids must agree too.
TEST(MutateTest, QuiescedCompactionMatchesFreshBuild) {
  const Dataset base = MakeUniformDataset(240, 6, 5);
  const Dataset adds = MakeUniformDataset(40, 6, 77);
  const Dataset probes = MakeUniformDataset(12, 6, 99);
  const std::vector<ObjectId> dead_base = {3, 57, 120, 239};
  const std::vector<size_t> dead_delta = {1, 5, 19};

  // The final object set, in the id order compaction produces.
  std::vector<Vec> rows;
  for (ObjectId id = 0; id < base.size(); ++id) {
    if (std::find(dead_base.begin(), dead_base.end(), id) == dead_base.end()) {
      rows.push_back(base.object(id));
    }
  }
  for (size_t i = 0; i < adds.size(); ++i) {
    if (std::find(dead_delta.begin(), dead_delta.end(), i) ==
        dead_delta.end()) {
      rows.push_back(adds.object(static_cast<ObjectId>(i)));
    }
  }
  const Dataset final_set(6, std::move(rows));

  for (BackendKind kind : kAllBackends) {
    for (bool pivots : {false, true}) {
      SCOPED_TRACE(BackendKindName(kind) + (pivots ? "+pivots" : ""));
      auto db = OpenDb(base, kind, pivots);
      ASSERT_NE(db, nullptr);
      std::vector<ObjectId> delta_ids;
      for (size_t i = 0; i < adds.size(); ++i) {
        auto id = db->Insert(adds.object(static_cast<ObjectId>(i)));
        ASSERT_TRUE(id.ok()) << id.status().ToString();
        delta_ids.push_back(*id);
      }
      for (ObjectId id : dead_base) ASSERT_TRUE(db->Delete(id).ok());
      for (size_t i : dead_delta) ASSERT_TRUE(db->Delete(delta_ids[i]).ok());
      ASSERT_TRUE(db->Compact().ok());
      EXPECT_EQ(db->NumLiveObjects(), final_set.size());
      EXPECT_EQ(db->NumDeltaObjects(), 0u);
      EXPECT_EQ(db->NumTombstones(), 0u);

      auto fresh = OpenDb(final_set, kind, pivots);
      ASSERT_NE(fresh, nullptr);
      for (size_t i = 0; i < probes.size(); ++i) {
        const Query knn{static_cast<QueryId>(7000 + i),
                        probes.object(static_cast<ObjectId>(i)),
                        QueryType::Knn(7)};
        auto mutated = db->SimilarityQuery(knn);
        auto rebuilt = fresh->SimilarityQuery(knn);
        ASSERT_TRUE(mutated.ok() && rebuilt.ok());
        EXPECT_TRUE(SameAnswers(*mutated, *rebuilt, 0.0));

        const Query range{static_cast<QueryId>(7100 + i),
                          probes.object(static_cast<ObjectId>(i)),
                          QueryType::Range(0.8)};
        auto mutated_range = db->SimilarityQuery(range);
        auto rebuilt_range = fresh->SimilarityQuery(range);
        ASSERT_TRUE(mutated_range.ok() && rebuilt_range.ok());
        EXPECT_TRUE(SameAnswers(*mutated_range, *rebuilt_range, 0.0));
      }
    }
  }
}

// --- persistence of mutated state ----------------------------------------

// Save compacts first, so the written file is a clean base; reopening it
// must answer like a fresh build of the final set, and the reopened
// database must itself accept further mutations and a second Save.
TEST(MutateTest, MutateSaveReopenMutateSaveAgain) {
  const Dataset base = MakeUniformDataset(200, 5, 41);
  const Dataset adds = MakeUniformDataset(12, 5, 42);
  const Dataset probes = MakeUniformDataset(6, 5, 43);
  EuclideanMetric metric;
  for (BackendKind kind : {BackendKind::kXTree, BackendKind::kVaFile}) {
    SCOPED_TRACE(BackendKindName(kind));
    const std::string p1 = TempPath("mutate_reopen_1_" +
                                    BackendKindName(kind) + ".msq");
    const std::string p2 = TempPath("mutate_reopen_2_" +
                                    BackendKindName(kind) + ".msq");
    {
      auto db = OpenDb(base, kind);
      ASSERT_NE(db, nullptr);
      for (size_t i = 0; i < adds.size(); ++i) {
        ASSERT_TRUE(db->Insert(adds.object(static_cast<ObjectId>(i))).ok());
      }
      ASSERT_TRUE(db->Delete(11).ok());
      ASSERT_TRUE(db->Delete(static_cast<ObjectId>(base.size() + 4)).ok());
      ASSERT_TRUE(db->Save(p1).ok());
    }
    auto reopened = MetricDatabase::Open(p1);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    EXPECT_EQ((*reopened)->NumLiveObjects(), base.size() + adds.size() - 2);
    EXPECT_EQ((*reopened)->NumDeltaObjects(), 0u);
    {
      const Dataset& loaded = *(*reopened)->CurrentVersion()->base_dataset;
      const Query q{8000, probes.object(0), QueryType::Knn(6)};
      auto got = (*reopened)->SimilarityQuery(q);
      ASSERT_TRUE(got.ok());
      EXPECT_TRUE(SameAnswers(*got, BruteForceQuery(loaded, metric, q), 0.0));
    }
    // Mutate the *reopened* database (its base was loaded from the store,
    // not built in-process) and save to a second path.
    ASSERT_TRUE((*reopened)->Insert(probes.object(5)).ok());
    ASSERT_TRUE((*reopened)->Delete(0).ok());
    ASSERT_TRUE((*reopened)->Save(p2).ok());
    auto again = MetricDatabase::Open(p2);
    ASSERT_TRUE(again.ok()) << again.status().ToString();
    EXPECT_EQ((*again)->NumLiveObjects(), base.size() + adds.size() - 2);
    {
      const Dataset& loaded = *(*again)->CurrentVersion()->base_dataset;
      const Query q{8001, probes.object(1), QueryType::Knn(6)};
      auto got = (*again)->SimilarityQuery(q);
      ASSERT_TRUE(got.ok());
      EXPECT_TRUE(SameAnswers(*got, BruteForceQuery(loaded, metric, q), 0.0));
    }
    std::filesystem::remove(p1);
    std::filesystem::remove(p2);
  }
}

// --- the overlay's page reads --------------------------------------------

// A page id past the delta tier is an error, exactly as DataLayout::ReadBlock
// treats one past the base tier — never an OK, empty page.
TEST(MutateTest, ReadPageBlockRejectsOutOfRangePage) {
  const Dataset base = MakeUniformDataset(120, 4, 61);
  auto db = OpenDb(base, BackendKind::kLinearScan);
  ASSERT_NE(db, nullptr);
  QueryBackend& backend = db->backend();
  QueryStats stats;
  PageBlock block;
  EXPECT_TRUE(backend.ReadPageBlock(static_cast<PageId>(backend.NumDataPages()),
                                    &stats, &block)
                  .IsInvalidArgument());

  ASSERT_TRUE(db->Insert(Vec(4, 0.5f)).ok());
  const size_t pages = backend.NumDataPages();
  ASSERT_TRUE(
      backend.ReadPageBlock(static_cast<PageId>(pages - 1), &stats, &block)
          .ok());
  EXPECT_EQ(block.size(), 1u);
  EXPECT_TRUE(backend.ReadPageBlock(static_cast<PageId>(pages), &stats, &block)
                  .IsInvalidArgument());
  EXPECT_TRUE(
      backend.ReadPageBlock(static_cast<PageId>(pages + 7), &stats, &block)
          .IsInvalidArgument());
}

// Compaction swaps in a new base backend, so the database must re-wire
// that base's storage: the buffer pool reports to the database's metrics
// sink, and ResetAll cold-starts the new base's buffer and disk head. The
// buffer holds every page, so a warm pool would turn every later read
// into a hit.
TEST(MutateTest, CompactedBaseKeepsMetricsSinkAndColdReset) {
  const Dataset base = MakeUniformDataset(400, 6, 71);
  const Dataset adds = MakeUniformDataset(60, 6, 72);
  const Dataset probes = MakeUniformDataset(8, 6, 73);
  std::vector<Query> queries;
  for (size_t i = 0; i < probes.size(); ++i) {
    queries.push_back({static_cast<QueryId>(9000 + i),
                       probes.object(static_cast<ObjectId>(i)),
                       QueryType::Knn(6)});
  }
  for (BackendKind kind : kAllBackends) {
    SCOPED_TRACE(BackendKindName(kind));
    obs::MetricsRegistry registry;
    obs::MetricsSink sink(&registry, nullptr);
    DatabaseOptions options;
    options.backend = kind;
    options.page_size_bytes = 1024;
    options.buffer_fraction = 1.0;
    options.multi.metrics = &sink;
    auto db = MetricDatabase::Open(base, std::make_shared<EuclideanMetric>(),
                                   options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    for (size_t i = 0; i < adds.size(); ++i) {
      ASSERT_TRUE((*db)->Insert(adds.object(static_cast<ObjectId>(i))).ok());
    }
    ASSERT_TRUE((*db)->Compact().ok());

    const obs::Counter* misses =
        registry.GetCounter("msq_buffer_pool_misses_total");
    const uint64_t misses_before = misses->Value();
    ASSERT_TRUE((*db)->MultipleSimilarityQueryAll(queries).ok());
    EXPECT_GT(misses->Value(), misses_before);

    (*db)->ResetAll();
    ASSERT_TRUE((*db)->MultipleSimilarityQueryAll(queries).ok());
    auto fresh = MetricDatabase::Open(*(*db)->CurrentVersion()->base_dataset,
                                      std::make_shared<EuclideanMetric>(),
                                      options);
    ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
    ASSERT_TRUE((*fresh)->MultipleSimilarityQueryAll(queries).ok());
    const QueryStats& reset = (*db)->stats();
    const QueryStats& cold = (*fresh)->stats();
    EXPECT_GT(cold.TotalPageReads(), 0u);
    EXPECT_EQ(reset.random_page_reads, cold.random_page_reads);
    EXPECT_EQ(reset.seq_page_reads, cold.seq_page_reads);
    EXPECT_EQ(reset.buffer_hits, cold.buffer_hits);
  }
}

// A base page read that fails behind the tombstone filter must fail the
// query (IOError), never return the answers of the pages that did read.
// Every base page carries a tombstone, so whichever page the scripted
// fault hits is read through the filter. After the fault clears, the
// retry answers bit-identically to a fault-free database in the same
// mutated state.
TEST(MutateTest, FailedReadThroughTombstoneFilterIsAnError) {
  const Dataset base = MakeUniformDataset(240, 5, 63);
  const Dataset probes = MakeUniformDataset(5, 5, 64);
  for (BackendKind kind : kAllBackends) {
    SCOPED_TRACE(BackendKindName(kind));
    const std::string path =
        TempPath("mutate_read_fault_" + BackendKindName(kind) + ".msq");
    {
      auto built = OpenDb(base, kind);
      ASSERT_NE(built, nullptr);
      ASSERT_TRUE(built->Save(path).ok());
    }
    robust::FaultPlan plan;
    plan.metrics = nullptr;
    auto injector = std::make_shared<robust::FaultInjector>(plan);
    DatabaseOptions faulty_options;
    faulty_options.fault_injector = injector;
    auto faulty = MetricDatabase::Open(path, faulty_options);
    ASSERT_TRUE(faulty.ok()) << faulty.status().ToString();
    auto clean = MetricDatabase::Open(path);
    ASSERT_TRUE(clean.ok()) << clean.status().ToString();

    const DataLayout* layout = (*clean)->backend().MutableLayout();
    ASSERT_NE(layout, nullptr);
    for (PageId p = 0; p < layout->num_pages(); ++p) {
      const ObjectId victim = layout->Peek(p).front();
      ASSERT_TRUE((*faulty)->Delete(victim).ok());
      ASSERT_TRUE((*clean)->Delete(victim).ok());
    }
    for (ObjectId i = 0; i < 2; ++i) {
      ASSERT_TRUE((*faulty)->Insert(probes.object(i)).ok());
      ASSERT_TRUE((*clean)->Insert(probes.object(i)).ok());
    }

    std::vector<Query> batch;
    for (size_t i = 0; i < probes.size(); ++i) {
      batch.push_back({static_cast<QueryId>(5000 + i),
                       probes.object(static_cast<ObjectId>(i)),
                       QueryType::Knn(8)});
    }
    const Query single{5100, probes.object(3), QueryType::Knn(6)};
    auto want_batch = (*clean)->MultipleSimilarityQueryAll(batch);
    auto want_single = (*clean)->SimilarityQuery(single);
    ASSERT_TRUE(want_batch.ok()) << want_batch.status().ToString();
    ASSERT_TRUE(want_single.ok()) << want_single.status().ToString();

    injector->FailNextPageReads(1);
    auto failed_batch = (*faulty)->MultipleSimilarityQueryAll(batch);
    ASSERT_FALSE(failed_batch.ok());
    EXPECT_TRUE(failed_batch.status().IsIOError())
        << failed_batch.status().ToString();
    auto got_batch = (*faulty)->MultipleSimilarityQueryAll(batch);
    ASSERT_TRUE(got_batch.ok()) << got_batch.status().ToString();
    ASSERT_EQ(got_batch->size(), want_batch->size());
    for (size_t i = 0; i < batch.size(); ++i) {
      EXPECT_TRUE(SameAnswers((*got_batch)[i], (*want_batch)[i], 0.0)) << i;
    }

    injector->FailNextPageReads(1);
    auto failed_single = (*faulty)->SimilarityQuery(single);
    ASSERT_FALSE(failed_single.ok());
    EXPECT_TRUE(failed_single.status().IsIOError())
        << failed_single.status().ToString();
    auto got_single = (*faulty)->SimilarityQuery(single);
    ASSERT_TRUE(got_single.ok()) << got_single.status().ToString();
    EXPECT_TRUE(SameAnswers(*got_single, *want_single, 0.0));
    EXPECT_EQ(injector->faults_injected(), 2u);
    std::filesystem::remove(path);
  }
}

// --- mixed reader/writer stress (the TSan CI target) ---------------------

// Four writer threads mutate while four query threads read. The query
// stream is serialized on one mutex (the engine's documented contract);
// the writers run free — epochs and version publication are what TSan
// exercises here. Afterwards the database is compacted and checked
// exhaustively against its own final object set.
TEST(MutateStressTest, ConcurrentWritersAndQueriesAllBackends) {
  constexpr int kWriters = 4;
  constexpr int kQueryThreads = 4;
  constexpr int kInsertsPerWriter = 40;
  constexpr int kQueriesPerThread = 50;
  const Dataset base = MakeUniformDataset(400, 4, 11);
  const Dataset probes = MakeUniformDataset(16, 4, 12);
  EuclideanMetric metric;
  for (BackendKind kind : kAllBackends) {
    SCOPED_TRACE(BackendKindName(kind));
    auto db = OpenDb(base, kind);
    ASSERT_NE(db, nullptr);
    std::atomic<bool> failed{false};
    std::mutex query_mu;
    std::vector<std::thread> threads;
    for (int w = 0; w < kWriters; ++w) {
      threads.emplace_back([&, w] {
        Rng rng(static_cast<uint64_t>(100 + w));
        std::vector<ObjectId> mine;
        for (int i = 0; i < kInsertsPerWriter; ++i) {
          Vec v(4);
          for (Scalar& x : v) x = static_cast<Scalar>(rng.NextDouble());
          auto id = db->Insert(std::move(v));
          if (!id.ok()) {
            failed = true;
            return;
          }
          mine.push_back(*id);
          if (i % 3 == 2) {
            // Each writer deletes only ids it inserted itself, each at
            // most once, so every Delete must succeed.
            if (!db->Delete(mine.front()).ok()) {
              failed = true;
              return;
            }
            mine.erase(mine.begin());
          }
        }
      });
    }
    for (int t = 0; t < kQueryThreads; ++t) {
      threads.emplace_back([&, t] {
        Rng rng(static_cast<uint64_t>(200 + t));
        for (int i = 0; i < kQueriesPerThread; ++i) {
          const Vec& p =
              probes.object(static_cast<ObjectId>(rng.NextIndex(16)));
          std::lock_guard<std::mutex> lock(query_mu);
          auto got = db->SimilarityQuery(db->MakeKnnQuery(p, 5));
          if (!got.ok() || got->size() > 5) {
            failed = true;
            return;
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
    ASSERT_FALSE(failed.load());
    const size_t deletes_per_writer = kInsertsPerWriter / 3;
    EXPECT_EQ(db->NumLiveObjects(),
              base.size() + kWriters * (kInsertsPerWriter -
                                        deletes_per_writer));

    ASSERT_TRUE(db->Compact().ok());
    const Dataset& final_set = *db->CurrentVersion()->base_dataset;
    for (size_t i = 0; i < 6; ++i) {
      const Query q{static_cast<QueryId>(6000 + i),
                    probes.object(static_cast<ObjectId>(i)),
                    QueryType::Knn(6)};
      auto got = db->SimilarityQuery(q);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_TRUE(SameAnswers(*got, BruteForceQuery(final_set, metric, q),
                              0.0));
    }
  }
}

// --- multi-tenant scheduler lanes ----------------------------------------

std::unique_ptr<MetricDatabase> OpenScanDb(const Dataset& data) {
  DatabaseOptions options;
  options.backend = BackendKind::kLinearScan;
  options.multi.max_batch_size = 128;
  auto db = MetricDatabase::Open(data, std::make_shared<EuclideanMetric>(),
                                 options);
  EXPECT_TRUE(db.ok());
  return db.ok() ? std::move(db).value() : nullptr;
}

// The cross-tenant coalescing fix: the same query id from two tenants is
// two queries (independent futures, no coalescing), and the flush keeps
// duplicate ids out of any single engine batch. QueryIds still name query
// *definitions* engine-wide (the AnswerBuffer invariant), so a tenant that
// reuses another tenant's id with a conflicting definition gets that
// tenant's batch rejected — without disturbing anyone else's answers.
TEST(BatchSchedulerTenantTest, SameIdAcrossTenantsIsNeitherCoalescedNorClash) {
  Dataset dataset = MakeUniformDataset(200, 4, 51);
  auto db = OpenScanDb(dataset);
  ASSERT_NE(db, nullptr);
  EuclideanMetric metric;
  ThreadPool pool(2);
  BatchSchedulerOptions options;
  options.max_batch_size = 16;
  options.flush_deadline = std::chrono::seconds(1);
  BatchScheduler scheduler(&db->engine(), &pool, options);

  const Query q1{5, dataset.object(1), QueryType::Knn(3)};
  const Query q2{5, dataset.object(2), QueryType::Knn(3)};  // same id!
  auto fa = scheduler.Submit(q1, "a");
  auto fb = scheduler.Submit(q1, "b");  // identical definition, other tenant
  auto fc = scheduler.Submit(q2, "c");  // same id, different definition
  EXPECT_EQ(scheduler.queries_coalesced(), 0u);
  EXPECT_EQ(scheduler.queries_rejected(), 0u);
  EXPECT_EQ(scheduler.pending_size(), 3u);

  // Same-tenant coalescing still works.
  auto fa2 = scheduler.Submit(q1, "a");
  EXPECT_EQ(scheduler.queries_coalesced(), 1u);

  scheduler.Flush();
  scheduler.Drain();
  // Three entries share one id and one lane, so the flush must have split
  // them into three engine batches.
  EXPECT_EQ(scheduler.batches_executed(), 3u);
  auto ra = fa.get();
  auto rb = fb.get();
  auto rc = fc.get();
  auto ra2 = fa2.get();
  ASSERT_TRUE(ra.ok() && rb.ok() && ra2.ok());
  EXPECT_TRUE(SameAnswers(*ra, BruteForceQuery(dataset, metric, q1)));
  EXPECT_TRUE(SameAnswers(*rb, BruteForceQuery(dataset, metric, q1)));
  EXPECT_TRUE(SameAnswers(*ra2, *ra));
  // Tenant c reused id 5 with a different query point: the engine rejects
  // that definition conflict, and only tenant c sees the error.
  ASSERT_FALSE(rc.ok());
  EXPECT_TRUE(rc.status().IsInvalidArgument());
}

// A flooding tenant is shed at its own quota while another tenant keeps
// being admitted — the structural core of the "a flooder cannot push a
// victim past its SLO" acceptance criterion, with no wall-clock coupling.
TEST(BatchSchedulerTenantTest, TenantQuotaShedsOnlyTheFloodingTenant) {
  Dataset dataset = MakeUniformDataset(200, 4, 52);
  auto db = OpenScanDb(dataset);
  ASSERT_NE(db, nullptr);
  ThreadPool pool(2);

  std::promise<void> gate;
  std::shared_future<void> opened(gate.get_future());
  std::mutex db_mu;
  BatchSchedulerOptions options;
  options.max_batch_size = 16;
  options.flush_deadline = std::chrono::microseconds(0);  // flush per submit
  TenantOptions flood;
  flood.lane = 1;
  flood.max_pending = 3;
  options.tenants["flood"] = flood;
  options.executor = [&](const std::vector<Query>& queries,
                         QueryStats*) -> StatusOr<BatchResult> {
    opened.wait();  // hold every admitted query in flight
    std::lock_guard<std::mutex> lock(db_mu);
    return db->MultipleSimilarityQueryAllPartial(queries);
  };
  BatchScheduler scheduler(nullptr, &pool, options);

  std::vector<AnswerFuture> flood_futures;
  for (QueryId id = 0; id < 8; ++id) {
    flood_futures.push_back(scheduler.Submit(
        Query{id, dataset.object(static_cast<ObjectId>(id)),
              QueryType::Knn(3)},
        "flood"));
  }
  // 3 admitted (all in flight behind the gate), 5 shed at the quota.
  EXPECT_EQ(scheduler.queries_shed_tenant("flood"), 5u);
  EXPECT_EQ(scheduler.queries_shed(), 5u);

  std::vector<AnswerFuture> victim_futures;
  for (QueryId id = 100; id < 103; ++id) {
    victim_futures.push_back(scheduler.Submit(
        Query{id, dataset.object(static_cast<ObjectId>(id)),
              QueryType::Knn(3)},
        "victim"));
  }
  // The victim tenant is untouched by the flooder's quota.
  EXPECT_EQ(scheduler.queries_shed_tenant("victim"), 0u);
  EXPECT_EQ(scheduler.queries_shed(), 5u);

  gate.set_value();
  scheduler.Drain();
  size_t flood_ok = 0, flood_shed = 0;
  for (auto& f : flood_futures) {
    auto got = f.get();
    if (got.ok()) {
      ++flood_ok;
    } else {
      EXPECT_TRUE(got.status().IsResourceExhausted());
      ++flood_shed;
    }
  }
  EXPECT_EQ(flood_ok, 3u);
  EXPECT_EQ(flood_shed, 5u);
  for (auto& f : victim_futures) EXPECT_TRUE(f.get().ok());
}

// Lanes flush as separate batches, highest priority first, and a victim
// lane's batches never carry another lane's queries.
TEST(BatchSchedulerTenantTest, LanesFlushAsSeparateBatchesInPriorityOrder) {
  Dataset dataset = MakeUniformDataset(200, 4, 53);
  auto db = OpenScanDb(dataset);
  ASSERT_NE(db, nullptr);
  ThreadPool pool(1);  // single pool thread: execution order == hand-off order

  std::mutex record_mu;
  std::vector<std::vector<QueryId>> executed;
  std::mutex db_mu;
  BatchSchedulerOptions options;
  options.max_batch_size = 16;
  options.flush_deadline = std::chrono::seconds(1);
  TenantOptions background;
  background.lane = 5;
  options.tenants["bg"] = background;
  options.executor = [&](const std::vector<Query>& queries,
                         QueryStats*) -> StatusOr<BatchResult> {
    {
      std::lock_guard<std::mutex> lock(record_mu);
      executed.emplace_back();
      for (const Query& q : queries) executed.back().push_back(q.id);
    }
    std::lock_guard<std::mutex> lock(db_mu);
    return db->MultipleSimilarityQueryAllPartial(queries);
  };
  BatchScheduler scheduler(nullptr, &pool, options);

  auto f1 = scheduler.Submit(
      Query{1, dataset.object(1), QueryType::Knn(3)}, "bg");
  auto f2 = scheduler.Submit(
      Query{2, dataset.object(2), QueryType::Knn(3)}, "fg");
  auto f3 = scheduler.Submit(
      Query{3, dataset.object(3), QueryType::Knn(3)}, "bg");
  auto f4 = scheduler.Submit(
      Query{4, dataset.object(4), QueryType::Knn(3)}, "fg");
  scheduler.Flush();
  scheduler.Drain();

  ASSERT_TRUE(f1.get().ok() && f2.get().ok() && f3.get().ok() &&
              f4.get().ok());
  ASSERT_EQ(executed.size(), 2u);
  // The foreground lane (default lane 0) outranks lane 5 and flushes
  // first; within each lane, submission order is preserved.
  EXPECT_EQ(executed[0], (std::vector<QueryId>{2, 4}));
  EXPECT_EQ(executed[1], (std::vector<QueryId>{1, 3}));
}

// While a lane with an SLO observes p99 over target, new lower-priority
// submissions are shed; the SLO-holding lane itself keeps being admitted.
TEST(BatchSchedulerTenantTest, SloPressureShedsLowerPriorityLanesOnly) {
  Dataset dataset = MakeUniformDataset(200, 4, 54);
  auto db = OpenScanDb(dataset);
  ASSERT_NE(db, nullptr);
  ThreadPool pool(2);
  std::mutex db_mu;
  BatchSchedulerOptions options;
  options.max_batch_size = 16;
  options.flush_deadline = std::chrono::microseconds(0);
  options.slo_min_samples = 4;
  TenantOptions gold;
  gold.lane = 0;
  gold.slo_p99 = std::chrono::microseconds(1);  // unmeetably tight
  options.tenants["gold"] = gold;
  TenantOptions bulk;
  bulk.lane = 1;
  options.tenants["bulk"] = bulk;
  options.executor = [&](const std::vector<Query>& queries,
                         QueryStats*) -> StatusOr<BatchResult> {
    std::lock_guard<std::mutex> lock(db_mu);
    return db->MultipleSimilarityQueryAllPartial(queries);
  };
  BatchScheduler scheduler(nullptr, &pool, options);

  // Fill the gold lane's completion ring: 4 completed queries, each with
  // real end-to-end latency far above 1us.
  std::vector<AnswerFuture> warm;
  for (QueryId id = 0; id < 4; ++id) {
    warm.push_back(scheduler.Submit(
        Query{id, dataset.object(static_cast<ObjectId>(id)),
              QueryType::Knn(3)},
        "gold"));
  }
  scheduler.Drain();
  for (auto& f : warm) ASSERT_TRUE(f.get().ok());

  // Lower-priority work is now shed...
  auto bulk_future = scheduler.Submit(
      Query{50, dataset.object(50), QueryType::Knn(3)}, "bulk");
  auto bulk_result = bulk_future.get();
  ASSERT_FALSE(bulk_result.ok());
  EXPECT_TRUE(bulk_result.status().IsResourceExhausted());
  EXPECT_EQ(scheduler.queries_shed_slo(), 1u);

  // ...but the SLO-holding lane itself is not (shedding gold to protect
  // gold would be self-defeating).
  auto gold_future = scheduler.Submit(
      Query{51, dataset.object(51), QueryType::Knn(3)}, "gold");
  scheduler.Drain();
  EXPECT_TRUE(gold_future.get().ok());
  EXPECT_EQ(scheduler.queries_shed_slo(), 1u);
}

}  // namespace
}  // namespace msq
