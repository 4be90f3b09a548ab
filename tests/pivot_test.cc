// Tests for the LAESA pivot-filtering layer (DESIGN §12): the PivotTable
// build/serialization, the PivotCanAvoid inequality, bit-identity of
// pivot-on vs pivot-off execution across every backend and both kernel
// modes (the filter must never change an answer set), boundary semantics
// (objects exactly at the query distance survive both filter layers), the
// M-tree hyper-ring cuts, and persistence of the table through the
// single-file page store.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/database.h"
#include "core/pivot_table.h"
#include "dataset/generators.h"
#include "dist/builtin_metrics.h"
#include "tests/test_util.h"

namespace msq {
namespace {

using testing::BruteForceQuery;
using testing::SameAnswers;

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

// --- PivotCanAvoid -------------------------------------------------------

// One try per evaluated inequality; a success charges one avoided and stops
// the scan (later pivots are not charged).
TEST(PivotFilterTest, TryAccountingIsOnePerInequality) {
  const double object_row[] = {5.0, 5.0, 100.0, 5.0};
  const double query_row[] = {5.0, 5.0, 0.0, 0.0};
  QueryStats stats;
  // Pivots 0 and 1 give |5-5| = 0 <= 2 (no proof), pivot 2 gives 100 > 2.
  EXPECT_TRUE(PivotCanAvoid(object_row, query_row, 4, 2.0, &stats));
  EXPECT_EQ(stats.pivot_tries, 3u);
  EXPECT_EQ(stats.pivot_avoided, 1u);

  // All pivots fail: every inequality charged, nothing avoided.
  QueryStats fail_stats;
  EXPECT_FALSE(PivotCanAvoid(object_row, query_row, 2, 2.0, &fail_stats));
  EXPECT_EQ(fail_stats.pivot_tries, 2u);
  EXPECT_EQ(fail_stats.pivot_avoided, 0u);
}

// Strict comparison: a lower bound exactly at the query distance proves
// nothing (the object may be a boundary answer).
TEST(PivotFilterTest, ExactBoundaryLowerBoundDoesNotAvoid) {
  const double object_row[] = {7.0};
  const double query_row[] = {4.0};
  QueryStats stats;
  EXPECT_FALSE(PivotCanAvoid(object_row, query_row, 1, 3.0, &stats));
  EXPECT_EQ(stats.pivot_tries, 1u);
  EXPECT_EQ(stats.pivot_avoided, 0u);
}

// Unsaturated kNN (infinite radius): no pruning, no charge.
TEST(PivotFilterTest, InfiniteQueryDistanceChargesNothing) {
  const double object_row[] = {7.0};
  const double query_row[] = {4.0};
  QueryStats stats;
  EXPECT_FALSE(PivotCanAvoid(object_row, query_row, 1,
                             std::numeric_limits<double>::infinity(), &stats));
  EXPECT_EQ(stats.pivot_tries, 0u);
}

// The per-page mask filter is the PivotCanAvoid loop over the page's
// objects: the same survivors in the same order and the same pivot_tries
// and pivot_avoided, for one and several 64-pivot chunks, pages that do and
// do not fill whole 8-object tiles, and radii that prove everything (0), a
// mid gap, a deep gap (first proof late or never) and nothing (+inf).
TEST(PivotFilterTest, PageBlockMatchesPivotCanAvoidLoop) {
  EuclideanMetric metric;
  for (size_t p : {1, 7, 16, 64, 65, 130}) {
    SCOPED_TRACE("p=" + std::to_string(p));
    Dataset dataset = MakeUniformDataset(700, 6, 100 + p);
    PivotTableOptions options;
    options.num_pivots = p;
    options.sample_size = 700;
    auto table = PivotTable::Build(dataset, metric, options);
    ASSERT_TRUE(table.ok()) << table.status().ToString();
    ASSERT_EQ((*table)->num_pivots(), p);

    Rng rng(7 * p + 1);
    for (size_t n : {1, 13, 280}) {
      std::vector<ObjectId> ids(n);
      for (ObjectId& id : ids) {
        id = static_cast<ObjectId>(rng.NextIndex(dataset.size()));
      }
      PivotPageBlock block;
      block.Gather(**table, ids);
      ASSERT_EQ(block.size(), n);

      std::vector<double> query_row;
      (*table)->QueryDists(dataset.object(static_cast<ObjectId>(
                               rng.NextIndex(dataset.size()))),
                           metric, nullptr, &query_row);
      std::vector<double> gaps;
      for (ObjectId id : ids) {
        for (size_t k = 0; k < p; ++k) {
          gaps.push_back(std::fabs((*table)->Row(id)[k] - query_row[k]));
        }
      }
      std::sort(gaps.begin(), gaps.end());
      for (double r : {0.0, gaps[gaps.size() / 2],
                       gaps[gaps.size() * 99 / 100],
                       std::numeric_limits<double>::infinity()}) {
        SCOPED_TRACE("n=" + std::to_string(n) + " r=" + std::to_string(r));
        QueryStats want_stats;
        std::vector<uint32_t> want;
        for (uint32_t o = 0; o < n; ++o) {
          if (!PivotCanAvoid((*table)->Row(ids[o]), query_row.data(), p, r,
                             &want_stats)) {
            want.push_back(o);
          }
        }
        QueryStats got_stats;
        std::vector<uint32_t> got = {99};  // Filter appends.
        block.Filter(query_row.data(), r, &got, &got_stats);
        ASSERT_FALSE(got.empty());
        EXPECT_EQ(got.front(), 99u);
        got.erase(got.begin());
        EXPECT_EQ(got, want);
        EXPECT_EQ(got_stats.pivot_tries, want_stats.pivot_tries);
        EXPECT_EQ(got_stats.pivot_avoided, want_stats.pivot_avoided);
      }
    }
  }
}

// --- PivotTable build ----------------------------------------------------

// Every precomputed row entry must equal the metric distance exactly, and
// QueryDists must charge exactly p pivot_dist_computations.
TEST(PivotTableTest, RowsMatchMetricExactly) {
  Dataset dataset = MakeGaussianClustersDataset(300, 5, 4, 0.1, 7);
  EuclideanMetric metric;
  PivotTableOptions options;
  options.num_pivots = 6;
  options.sample_size = 128;
  auto table = PivotTable::Build(dataset, metric, options);
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  ASSERT_GT((*table)->num_pivots(), 0u);
  ASSERT_LE((*table)->num_pivots(), 6u);
  EXPECT_EQ((*table)->num_objects(), dataset.size());

  for (ObjectId id : {ObjectId{0}, ObjectId{151}, ObjectId{299}}) {
    const double* row = (*table)->Row(id);
    for (size_t k = 0; k < (*table)->num_pivots(); ++k) {
      EXPECT_EQ(row[k],
                metric.Distance(dataset.object(id), (*table)->pivot_point(k)));
    }
  }

  QueryStats stats;
  std::vector<double> qdists;
  (*table)->QueryDists(dataset.object(42), metric, &stats, &qdists);
  ASSERT_EQ(qdists.size(), (*table)->num_pivots());
  EXPECT_EQ(stats.pivot_dist_computations, (*table)->num_pivots());
  EXPECT_EQ(stats.dist_computations, 0u);
  for (size_t k = 0; k < qdists.size(); ++k) {
    EXPECT_EQ(qdists[k],
              metric.Distance(dataset.object(42), (*table)->pivot_point(k)));
  }
}

// Maxmin selection on a duplicate-heavy dataset stops early instead of
// picking zero-distance pivots; the build never fails for lack of variety.
TEST(PivotTableTest, DuplicateHeavyDatasetYieldsFewerPivots) {
  std::vector<Vec> objects(50, Vec{1.0f, 2.0f});
  objects.push_back(Vec{5.0f, 5.0f});
  Dataset dataset(2, std::move(objects));
  auto table = PivotTable::Build(dataset, EuclideanMetric(), {});
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  EXPECT_GE((*table)->num_pivots(), 1u);
  EXPECT_LE((*table)->num_pivots(), 2u);
}

TEST(PivotTableTest, EmptyDatasetAndZeroPivotsAreRejected) {
  EuclideanMetric metric;
  EXPECT_FALSE(PivotTable::Build(Dataset(), metric, {}).ok());
  Dataset one(1, {Vec{0.0f}});
  PivotTableOptions zero;
  zero.num_pivots = 0;
  EXPECT_FALSE(PivotTable::Build(one, metric, zero).ok());
}

// --- serialization -------------------------------------------------------

TEST(PivotTableTest, SaveLoadRoundTripIsExact) {
  Dataset dataset = MakeUniformDataset(200, 4, 19);
  EuclideanMetric metric;
  PivotTableOptions options;
  options.num_pivots = 5;
  auto table = PivotTable::Build(dataset, metric, options);
  ASSERT_TRUE(table.ok());

  std::ostringstream out;
  ASSERT_TRUE((*table)->SaveTo(out).ok());
  std::istringstream in(out.str());
  auto loaded = PivotTable::LoadFrom(in, dataset, metric);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->num_pivots(), (*table)->num_pivots());
  EXPECT_EQ((*loaded)->pivot_ids(), (*table)->pivot_ids());
  for (ObjectId id = 0; id < dataset.size(); ++id) {
    for (size_t k = 0; k < (*table)->num_pivots(); ++k) {
      EXPECT_EQ((*loaded)->Row(id)[k], (*table)->Row(id)[k]);
    }
  }
}

// Loading against the wrong metric or wrong dataset must fail validation
// (the spot-checked rows cannot reproduce), never silently corrupt results.
TEST(PivotTableTest, LoadRejectsMismatchedMetricOrDataset) {
  Dataset dataset = MakeUniformDataset(100, 3, 23);
  auto table = PivotTable::Build(dataset, EuclideanMetric(), {});
  ASSERT_TRUE(table.ok());
  std::ostringstream out;
  ASSERT_TRUE((*table)->SaveTo(out).ok());

  {
    std::istringstream in(out.str());
    auto loaded = PivotTable::LoadFrom(in, dataset, ManhattanMetric());
    EXPECT_FALSE(loaded.ok());
  }
  {
    Dataset smaller = MakeUniformDataset(50, 3, 23);
    std::istringstream in(out.str());
    auto loaded = PivotTable::LoadFrom(in, smaller, EuclideanMetric());
    EXPECT_FALSE(loaded.ok());
  }
  {
    std::istringstream garbage("not a pivot table");
    auto loaded = PivotTable::LoadFrom(garbage, dataset, EuclideanMetric());
    EXPECT_FALSE(loaded.ok());
  }
}

// --- engine bit-identity -------------------------------------------------

struct BackendCase {
  BackendKind kind;
};

class PivotEquivalenceTest : public ::testing::TestWithParam<BackendCase> {};

// The acceptance property of the layer: with pivots armed, every backend
// and both kernel modes produce bit-identical answers to the pivot-off
// oracle, while never computing more distances. Batched and scalar pivot
// runs must also agree exactly on dist_computations and pivot_avoided
// (phase-1 filtering at the page-start radius is final; see PageKernel).
TEST_P(PivotEquivalenceTest, AnswersBitIdenticalToPivotOffOracle) {
  Dataset dataset = MakeGaussianClustersDataset(1000, 8, 6, 0.08, 47);
  auto open = [&](bool pivots, bool batched) {
    DatabaseOptions options;
    options.backend = GetParam().kind;
    options.page_size_bytes = 2048;
    options.multi.use_batched_kernel = batched;
    options.pivots.enabled = pivots;
    options.pivots.table.num_pivots = 8;
    auto db = MetricDatabase::Open(dataset, std::make_shared<EuclideanMetric>(),
                                   options);
    EXPECT_TRUE(db.ok()) << db.status().ToString();
    return std::move(db).value();
  };
  auto off_db = open(false, true);
  auto on_batched = open(true, true);
  auto on_scalar = open(true, false);
  ASSERT_NE(on_batched->pivot_table(), nullptr);
  EXPECT_EQ(off_db->pivot_table(), nullptr);

  Rng rng(13);
  const auto ids = rng.SampleWithoutReplacement(dataset.size(), 20);
  std::vector<Query> queries;
  for (uint64_t id : ids) {
    queries.push_back(off_db->MakeObjectKnnQuery(static_cast<ObjectId>(id), 8));
  }
  auto oracle = off_db->MultipleSimilarityQueryAll(queries);
  auto batched = on_batched->MultipleSimilarityQueryAll(queries);
  auto scalar = on_scalar->MultipleSimilarityQueryAll(queries);
  ASSERT_TRUE(oracle.ok() && batched.ok() && scalar.ok());

  ASSERT_EQ(oracle->size(), batched->size());
  for (size_t i = 0; i < oracle->size(); ++i) {
    ASSERT_EQ((*oracle)[i].size(), (*batched)[i].size()) << "query " << i;
    for (size_t j = 0; j < (*oracle)[i].size(); ++j) {
      EXPECT_EQ((*oracle)[i][j].id, (*batched)[i][j].id);
      EXPECT_EQ((*oracle)[i][j].distance, (*batched)[i][j].distance);
      EXPECT_EQ((*oracle)[i][j].id, (*scalar)[i][j].id);
      EXPECT_EQ((*oracle)[i][j].distance, (*scalar)[i][j].distance);
    }
  }

  const QueryStats& off = off_db->stats();
  const QueryStats& on_b = on_batched->stats();
  const QueryStats& on_s = on_scalar->stats();
  // Filter-only: pivots can only remove distance computations.
  EXPECT_LE(on_b.dist_computations, off.dist_computations);
  EXPECT_GT(on_b.pivot_tries, 0u);
  EXPECT_EQ(on_b.pivot_dist_computations, on_s.pivot_dist_computations);
  // Scalar mode is the batched mode's exact cost oracle with pivots armed:
  // dist_computations and the *total* avoided count match exactly. The
  // per-layer split may shift between pivot and triangle credit (a smaller
  // per-object radius strengthens the pivot bound; see page_kernel.h).
  EXPECT_EQ(on_b.dist_computations, on_s.dist_computations);
  EXPECT_EQ(on_b.pivot_avoided + on_b.triangle_avoided,
            on_s.pivot_avoided + on_s.triangle_avoided);
  EXPECT_GT(on_b.pivot_avoided, 0u);
  // The off-oracle charges no pivot work at all.
  EXPECT_EQ(off.pivot_tries, 0u);
  EXPECT_EQ(off.pivot_avoided, 0u);
  EXPECT_EQ(off.pivot_dist_computations, 0u);
}

// Single-query path (Figure 1): SimilarityQuery with pivots armed matches
// the brute-force oracle on every backend.
TEST_P(PivotEquivalenceTest, SingleQueryMatchesBruteForce) {
  Dataset dataset = MakeGaussianClustersDataset(600, 6, 4, 0.1, 53);
  DatabaseOptions options;
  options.backend = GetParam().kind;
  options.page_size_bytes = 1024;
  options.pivots.enabled = true;
  options.pivots.table.num_pivots = 6;
  auto db = MetricDatabase::Open(dataset, std::make_shared<EuclideanMetric>(),
                                 options);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EuclideanMetric metric;
  for (ObjectId id : {0u, 99u, 473u}) {
    const Query knn = (*db)->MakeObjectKnnQuery(id, 10);
    auto got = (*db)->SimilarityQuery(knn);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_TRUE(SameAnswers(*got, BruteForceQuery(dataset, metric, knn)));

    const Query range = (*db)->MakeObjectRangeQuery(id, 0.5);
    auto got_range = (*db)->SimilarityQuery(range);
    ASSERT_TRUE(got_range.ok());
    EXPECT_TRUE(
        SameAnswers(*got_range, BruteForceQuery(dataset, metric, range)));
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, PivotEquivalenceTest,
    ::testing::Values(BackendCase{BackendKind::kLinearScan},
                      BackendCase{BackendKind::kVaFile},
                      BackendCase{BackendKind::kXTree},
                      BackendCase{BackendKind::kMTree}),
    [](const ::testing::TestParamInfo<BackendCase>& info) {
      return BackendKindName(info.param.kind);
    });

// --- boundary semantics --------------------------------------------------

// A deterministic grid where answers sit *exactly* at the query distance:
// both filter layers use strict comparisons, so the boundary object (range)
// and the id-resolved tie (kNN) must survive pivots + hyper-rings on every
// backend.
class PivotBoundaryTest : public ::testing::TestWithParam<BackendCase> {};

TEST_P(PivotBoundaryTest, BoundaryObjectsSurviveBothFilterLayers) {
  // 1-d integer grid: object i at x = i. dist(3, 5) = 2 exactly; kNN from
  // x = 4 has the tie dist(4,3) = dist(4,5) = 1 resolved by id.
  std::vector<Vec> objects;
  for (int i = 0; i < 64; ++i) {
    objects.push_back(Vec{static_cast<float>(i)});
  }
  Dataset dataset(1, std::move(objects));

  DatabaseOptions options;
  options.backend = GetParam().kind;
  options.page_size_bytes = 256;
  options.pivots.enabled = true;
  options.pivots.table.num_pivots = 4;
  auto db = MetricDatabase::Open(dataset, std::make_shared<EuclideanMetric>(),
                                 options);
  ASSERT_TRUE(db.ok()) << db.status().ToString();

  // Range boundary: eps = 2.0 from x = 3 must include x = 1 and x = 5.
  auto range = (*db)->SimilarityQuery((*db)->MakeObjectRangeQuery(3, 2.0));
  ASSERT_TRUE(range.ok());
  ASSERT_EQ(range->size(), 5u);  // x = 1..5
  EXPECT_EQ(range->front().id, 3u);  // distance 0 first
  EXPECT_EQ((*range)[3].distance, 2.0);
  EXPECT_EQ((*range)[4].distance, 2.0);

  // kNN tie: k = 2 from x = 4 -> self plus the *lower-id* of the two
  // distance-1 neighbors (ties resolve by id: object 3 beats object 5).
  auto knn = (*db)->SimilarityQuery((*db)->MakeObjectKnnQuery(4, 2));
  ASSERT_TRUE(knn.ok());
  ASSERT_EQ(knn->size(), 2u);
  EXPECT_EQ((*knn)[0].id, 4u);
  EXPECT_EQ((*knn)[1].id, 3u);
  EXPECT_EQ((*knn)[1].distance, 1.0);

  // Same queries through the multiple-query engine (both kernel modes are
  // covered by PivotEquivalenceTest; here the batch runs with avoidance
  // armed on top of the pivot layer).
  std::vector<Query> batch = {(*db)->MakeObjectRangeQuery(3, 2.0),
                              (*db)->MakeObjectKnnQuery(4, 2)};
  auto multi = (*db)->MultipleSimilarityQueryAll(batch);
  ASSERT_TRUE(multi.ok());
  EXPECT_TRUE(SameAnswers((*multi)[0], *range));
  EXPECT_TRUE(SameAnswers((*multi)[1], *knn));
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, PivotBoundaryTest,
    ::testing::Values(BackendCase{BackendKind::kLinearScan},
                      BackendCase{BackendKind::kVaFile},
                      BackendCase{BackendKind::kXTree},
                      BackendCase{BackendKind::kMTree}),
    [](const ::testing::TestParamInfo<BackendCase>& info) {
      return BackendKindName(info.param.kind);
    });

// --- M-tree hyper-rings --------------------------------------------------

// The ring cuts must actually engage on the M-tree (pivot_tries > 0 even
// for single queries, where the page-level filter only sees the saturated
// radius) and stay answer-identical to the pivot-off tree.
TEST(PivotMTreeRingTest, RingCutsEngageAndPreserveAnswers) {
  Dataset dataset = MakeGaussianClustersDataset(1500, 8, 8, 0.05, 67);
  auto open = [&](bool pivots) {
    DatabaseOptions options;
    options.backend = BackendKind::kMTree;
    options.page_size_bytes = 2048;
    options.pivots.enabled = pivots;
    auto db = MetricDatabase::Open(dataset, std::make_shared<EuclideanMetric>(),
                                   options);
    EXPECT_TRUE(db.ok()) << db.status().ToString();
    return std::move(db).value();
  };
  auto plain = open(false);
  auto ringed = open(true);

  for (ObjectId id : {5u, 700u, 1400u}) {
    const Query q = plain->MakeObjectRangeQuery(id, 0.4);
    auto a = plain->SimilarityQuery(q);
    auto b = ringed->SimilarityQuery(q);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_TRUE(SameAnswers(*a, *b));
  }
  EXPECT_GT(ringed->stats().pivot_tries, 0u);
  EXPECT_LE(ringed->stats().dist_computations, plain->stats().dist_computations);
}

// --- persistence through the page store ----------------------------------

// Save writes the table as the store's "pivots" object; Open(path) restores
// it (stored table wins over the runtime flag) and queries stay identical.
TEST(PivotPersistenceTest, SaveReopenKeepsPivotLayer) {
  const std::string path = TempPath("msq_pivot_roundtrip.msq");
  Dataset dataset = MakeGaussianClustersDataset(400, 5, 4, 0.1, 31);
  AnswerSet before;
  {
    DatabaseOptions options;
    options.backend = BackendKind::kXTree;
    options.pivots.enabled = true;
    options.pivots.table.num_pivots = 5;
    auto db = MetricDatabase::Open(dataset, std::make_shared<EuclideanMetric>(),
                                   options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    auto got = (*db)->SimilarityQuery((*db)->MakeObjectKnnQuery(17, 9));
    ASSERT_TRUE(got.ok());
    before = *got;
    ASSERT_TRUE((*db)->Save(path).ok());
  }
  {
    // Runtime flag off: the stored table must still arm the layer.
    auto db = MetricDatabase::Open(path);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    ASSERT_NE((*db)->pivot_table(), nullptr);
    EXPECT_EQ((*db)->pivot_table()->num_pivots(), 5u);
    auto got = (*db)->SimilarityQuery((*db)->MakeObjectKnnQuery(17, 9));
    ASSERT_TRUE(got.ok());
    EXPECT_TRUE(SameAnswers(before, *got));
    EXPECT_GT((*db)->stats().pivot_dist_computations, 0u);
  }
  std::remove(path.c_str());
}

// A database saved without pivots reopens without them, and the runtime
// flag can build a fresh table at reopen time.
TEST(PivotPersistenceTest, ReopenWithoutStoredTableHonorsRuntimeFlag) {
  const std::string path = TempPath("msq_pivot_fresh.msq");
  Dataset dataset = MakeUniformDataset(300, 4, 71);
  {
    auto db = MetricDatabase::Open(dataset, std::make_shared<EuclideanMetric>(),
                                   DatabaseOptions());
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->Save(path).ok());
  }
  {
    auto db = MetricDatabase::Open(path);
    ASSERT_TRUE(db.ok());
    EXPECT_EQ((*db)->pivot_table(), nullptr);
  }
  {
    DatabaseOptions runtime;
    runtime.pivots.enabled = true;
    runtime.pivots.table.num_pivots = 3;
    auto db = MetricDatabase::Open(path, runtime);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    ASSERT_NE((*db)->pivot_table(), nullptr);
    EuclideanMetric metric;
    const Query q = (*db)->MakeObjectKnnQuery(11, 7);
    auto got = (*db)->SimilarityQuery(q);
    ASSERT_TRUE(got.ok());
    EXPECT_TRUE(SameAnswers(*got, BruteForceQuery(dataset, metric, q)));
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace msq
