// Tests for the multiple similarity query engine (Definition 4, Figure 4):
// result equivalence with single queries on every backend, the
// completeness guarantee for the primary query, incremental buffering,
// soundness of the triangle-inequality avoidance, and the cost-saving
// properties the paper claims.

#include <cmath>
#include <memory>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/database.h"
#include "core/distance_matrix.h"
#include "core/avoidance.h"
#include "dataset/generators.h"
#include "dist/builtin_metrics.h"
#include "tests/test_util.h"

namespace msq {
namespace {

using testing::BruteForceQuery;
using testing::SameAnswers;

std::vector<Query> RandomObjectKnnBatch(MetricDatabase* db, size_t m, size_t k,
                                        uint64_t seed) {
  Rng rng(seed);
  const auto ids = rng.SampleWithoutReplacement(db->dataset().size(), m);
  std::vector<Query> queries;
  queries.reserve(m);
  for (uint64_t id : ids) {
    queries.push_back(db->MakeObjectKnnQuery(static_cast<ObjectId>(id), k));
  }
  return queries;
}

struct BackendCase {
  BackendKind kind;
  const char* name;
};

class MultiQueryBackendTest : public ::testing::TestWithParam<BackendCase> {
 protected:
  std::unique_ptr<MetricDatabase> OpenDb(Dataset dataset,
                                         size_t page_size = 2048) {
    DatabaseOptions options;
    options.backend = GetParam().kind;
    options.page_size_bytes = page_size;
    auto db = MetricDatabase::Open(std::move(dataset),
                                   std::make_shared<EuclideanMetric>(),
                                   options);
    EXPECT_TRUE(db.ok()) << db.status().ToString();
    return std::move(db).value();
  }
};

TEST_P(MultiQueryBackendTest, ExecuteAllMatchesSingleQueries) {
  Dataset dataset = MakeGaussianClustersDataset(1500, 6, 8, 0.05, 301);
  auto db = OpenDb(dataset);
  EuclideanMetric metric;
  const auto queries = RandomObjectKnnBatch(db.get(), 25, 10, 71);
  auto all = db->MultipleSimilarityQueryAll(queries);
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  ASSERT_EQ(all->size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    const AnswerSet expected =
        BruteForceQuery(db->dataset(), metric, queries[i]);
    EXPECT_TRUE(SameAnswers((*all)[i], expected)) << "query " << i;
  }
}

TEST_P(MultiQueryBackendTest, ExecuteAllMatchesForRangeQueries) {
  Dataset dataset = MakeGaussianClustersDataset(1200, 5, 6, 0.05, 303);
  auto db = OpenDb(dataset);
  EuclideanMetric metric;
  Rng rng(73);
  std::vector<Query> queries;
  const auto ids = rng.SampleWithoutReplacement(db->dataset().size(), 20);
  for (uint64_t id : ids) {
    queries.push_back(db->MakeObjectRangeQuery(static_cast<ObjectId>(id),
                                               rng.NextDouble(0.05, 0.25)));
  }
  auto all = db->MultipleSimilarityQueryAll(queries);
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  for (size_t i = 0; i < queries.size(); ++i) {
    const AnswerSet expected =
        BruteForceQuery(db->dataset(), metric, queries[i]);
    EXPECT_TRUE(SameAnswers((*all)[i], expected)) << "query " << i;
  }
}

TEST_P(MultiQueryBackendTest, MixedQueryTypesInOneBatch) {
  Dataset dataset = MakeGaussianClustersDataset(900, 5, 6, 0.05, 305);
  auto db = OpenDb(dataset);
  EuclideanMetric metric;
  std::vector<Query> queries;
  queries.push_back(db->MakeObjectKnnQuery(10, 7));
  queries.push_back(db->MakeObjectRangeQuery(20, 0.2));
  queries.push_back(db->MakeObjectKnnQuery(30, 3));
  queries.push_back(db->MakeObjectRangeQuery(40, 0.1));
  auto all = db->MultipleSimilarityQueryAll(queries);
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  for (size_t i = 0; i < queries.size(); ++i) {
    const AnswerSet expected =
        BruteForceQuery(db->dataset(), metric, queries[i]);
    EXPECT_TRUE(SameAnswers((*all)[i], expected)) << "query " << i;
  }
}

TEST_P(MultiQueryBackendTest, FirstQueryIsCompleteAfterOneCall) {
  // Definition 4 requirement 1: A_1 == similarity_query(Q_1, T_1).
  Dataset dataset = MakeGaussianClustersDataset(1000, 5, 6, 0.05, 307);
  auto db = OpenDb(dataset);
  EuclideanMetric metric;
  const auto queries = RandomObjectKnnBatch(db.get(), 15, 8, 77);
  auto result = db->MultipleSimilarityQuery(queries);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const AnswerSet expected =
      BruteForceQuery(db->dataset(), metric, queries[0]);
  EXPECT_TRUE(SameAnswers(result->answers[0], expected));
}

TEST_P(MultiQueryBackendTest, PartialAnswersAreSubsetsOfTrueAnswers) {
  // Definition 4 requirement 2: A_i subseteq similarity_query(Q_i, T_i).
  Dataset dataset = MakeGaussianClustersDataset(1000, 5, 6, 0.05, 309);
  auto db = OpenDb(dataset);
  EuclideanMetric metric;
  Rng rng(79);
  std::vector<Query> queries;
  const auto ids = rng.SampleWithoutReplacement(db->dataset().size(), 12);
  for (uint64_t id : ids) {
    queries.push_back(db->MakeObjectRangeQuery(static_cast<ObjectId>(id),
                                               0.2));
  }
  auto result = db->MultipleSimilarityQuery(queries);
  ASSERT_TRUE(result.ok());
  for (size_t i = 1; i < queries.size(); ++i) {
    const AnswerSet expected =
        BruteForceQuery(db->dataset(), metric, queries[i]);
    // Every partial answer must appear in the complete answer set with the
    // same distance.
    for (const Neighbor& nb : result->answers[i]) {
      const bool found =
          std::binary_search(expected.begin(), expected.end(), nb);
      EXPECT_TRUE(found) << "query " << i << " object " << nb.id;
    }
  }
}

TEST_P(MultiQueryBackendTest, ShiftingWindowCompletesEveryQuery) {
  Dataset dataset = MakeGaussianClustersDataset(800, 5, 5, 0.05, 311);
  auto db = OpenDb(dataset);
  EuclideanMetric metric;
  std::vector<Query> queries = RandomObjectKnnBatch(db.get(), 10, 6, 83);
  // Manual shifting-window loop (what ExecuteAll does internally).
  std::vector<Query> window = queries;
  for (size_t i = 0; i < queries.size(); ++i) {
    auto result = db->MultipleSimilarityQuery(window);
    ASSERT_TRUE(result.ok());
    const AnswerSet expected =
        BruteForceQuery(db->dataset(), metric, queries[i]);
    EXPECT_TRUE(SameAnswers(result->answers[0], expected)) << "window " << i;
    window.erase(window.begin());
  }
}

TEST_P(MultiQueryBackendTest, RepeatedCallIsServedFromBuffer) {
  Dataset dataset = MakeUniformDataset(900, 5, 313);
  auto db = OpenDb(dataset);
  const auto queries = RandomObjectKnnBatch(db.get(), 8, 5, 87);
  ASSERT_TRUE(db->MultipleSimilarityQueryAll(queries).ok());
  const QueryStats before = db->stats();
  // Asking again must not read pages or compute object distances.
  auto again = db->MultipleSimilarityQueryAll(queries);
  ASSERT_TRUE(again.ok());
  const QueryStats delta = db->stats() - before;
  EXPECT_EQ(delta.TotalPageReads(), 0u);
  EXPECT_EQ(delta.dist_computations, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, MultiQueryBackendTest,
    ::testing::Values(BackendCase{BackendKind::kLinearScan, "scan"},
                      BackendCase{BackendKind::kXTree, "xtree"},
                      BackendCase{BackendKind::kMTree, "mtree"},
                      BackendCase{BackendKind::kVaFile, "vafile"}),
    [](const ::testing::TestParamInfo<BackendCase>& info) {
      return info.param.name;
    });

// ---------------------------------------------------------------------
// Engine-level semantics (scan backend unless noted)
// ---------------------------------------------------------------------

std::unique_ptr<MetricDatabase> OpenScanDb(Dataset dataset,
                                           MultiQueryOptions multi = {}) {
  DatabaseOptions options;
  options.backend = BackendKind::kLinearScan;
  options.page_size_bytes = 2048;
  options.multi = multi;
  auto db = MetricDatabase::Open(std::move(dataset),
                                 std::make_shared<EuclideanMetric>(), options);
  EXPECT_TRUE(db.ok());
  return std::move(db).value();
}

TEST(MultiQueryEngineTest, EmptyBatchRejected) {
  auto db = OpenScanDb(MakeUniformDataset(100, 4, 315));
  EXPECT_TRUE(db->MultipleSimilarityQuery({}).status().IsInvalidArgument());
}

TEST(MultiQueryEngineTest, OversizedBatchRejected) {
  MultiQueryOptions multi;
  multi.max_batch_size = 4;
  auto db = OpenScanDb(MakeUniformDataset(200, 4, 317), multi);
  const auto queries = RandomObjectKnnBatch(db.get(), 5, 3, 91);
  EXPECT_TRUE(
      db->MultipleSimilarityQuery(queries).status().IsResourceExhausted());
}

TEST(MultiQueryEngineTest, DuplicateQueryIdsRejected) {
  auto db = OpenScanDb(MakeUniformDataset(200, 4, 319));
  std::vector<Query> queries{db->MakeObjectKnnQuery(1, 3),
                             db->MakeObjectKnnQuery(1, 3)};
  EXPECT_TRUE(
      db->MultipleSimilarityQuery(queries).status().IsInvalidArgument());
}

TEST(MultiQueryEngineTest, ReusedIdWithDifferentTypeRejected) {
  auto db = OpenScanDb(MakeUniformDataset(200, 4, 321));
  ASSERT_TRUE(
      db->MultipleSimilarityQuery({db->MakeObjectKnnQuery(1, 3)}).ok());
  EXPECT_TRUE(db->MultipleSimilarityQuery({db->MakeObjectKnnQuery(1, 5)})
                  .status()
                  .IsInvalidArgument());
}

// Regression: the duplicate-id check used to run *after* GetOrCreate had
// already inserted fresh states, so a rejected batch left its states
// resident in the buffer forever (capacity enforcement is never reached
// on the error path).
TEST(MultiQueryEngineTest, RejectedDuplicateIdBatchLeavesBufferUnchanged) {
  auto db = OpenScanDb(MakeUniformDataset(200, 4, 329));
  ASSERT_TRUE(db->MultipleSimilarityQuery({db->MakeObjectKnnQuery(9, 3)}).ok());
  ASSERT_EQ(db->engine().buffer().size(), 1u);

  std::vector<Query> queries{db->MakeObjectKnnQuery(1, 3),
                             db->MakeObjectKnnQuery(2, 3),
                             db->MakeObjectKnnQuery(1, 3)};
  ASSERT_TRUE(
      db->MultipleSimilarityQuery(queries).status().IsInvalidArgument());
  // Neither the duplicated id nor its innocent batchmate leaked a state.
  EXPECT_EQ(db->engine().buffer().size(), 1u);
  EXPECT_EQ(db->engine().buffer().Find(1), nullptr);
  EXPECT_EQ(db->engine().buffer().Find(2), nullptr);
}

// Regression companion: a batch rejected mid-admission by a definition
// conflict must roll back exactly the states it created — earlier batch
// members' fresh states included — while leaving pre-existing states
// (including the conflicting one) untouched.
TEST(MultiQueryEngineTest, RejectedConflictingBatchRollsBackCreatedStates) {
  auto db = OpenScanDb(MakeUniformDataset(200, 4, 331));
  const Query original = db->MakeObjectKnnQuery(5, 3);
  ASSERT_TRUE(db->MultipleSimilarityQuery({original}).ok());
  ASSERT_EQ(db->engine().buffer().size(), 1u);

  // Fresh ids 6 and 7 are admitted first, then id 5 conflicts (different
  // k) and the whole batch is rejected.
  std::vector<Query> queries{db->MakeObjectKnnQuery(6, 3),
                             db->MakeObjectKnnQuery(7, 3),
                             db->MakeObjectKnnQuery(5, 8)};
  ASSERT_TRUE(
      db->MultipleSimilarityQuery(queries).status().IsInvalidArgument());
  EXPECT_EQ(db->engine().buffer().size(), 1u);
  EXPECT_EQ(db->engine().buffer().Find(6), nullptr);
  EXPECT_EQ(db->engine().buffer().Find(7), nullptr);
  // The original state survived, complete, and still answers correctly.
  BufferedQueryState* kept = db->engine().buffer().Find(5);
  ASSERT_NE(kept, nullptr);
  EXPECT_TRUE(kept->complete);
  auto again = db->MultipleSimilarityQuery({original});
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(SameAnswers(
      again->answers[0],
      BruteForceQuery(db->dataset(), db->metric(), original)));
}

TEST(MultiQueryEngineTest, BatchOfOneMatchesSingleQuery) {
  Dataset dataset = MakeUniformDataset(600, 5, 323);
  auto db = OpenScanDb(dataset);
  EuclideanMetric metric;
  Query q = db->MakeObjectKnnQuery(42, 9);
  auto result = db->MultipleSimilarityQuery({q});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(SameAnswers(result->answers[0],
                          BruteForceQuery(db->dataset(), metric, q)));
}

TEST(MultiQueryEngineTest, ScanBatchReadsEachPageOnce) {
  // Sec. 5.1: on the scan, relevant pages coincide for all queries, so a
  // batch of m reads exactly the page count of ONE query.
  Dataset dataset = MakeUniformDataset(2000, 8, 325);
  MultiQueryOptions multi;
  auto db = OpenScanDb(dataset, multi);
  const size_t pages = db->backend().NumDataPages();
  const auto queries = RandomObjectKnnBatch(db.get(), 20, 10, 93);
  db->ResetStats();
  ASSERT_TRUE(db->MultipleSimilarityQueryAll(queries).ok());
  EXPECT_EQ(db->stats().TotalPageReads(), pages);
}

TEST(MultiQueryEngineTest, IoSharingNeverIncreasesPageReads) {
  Dataset dataset = MakeGaussianClustersDataset(2000, 8, 10, 0.04, 327);
  const auto make_queries = [](MetricDatabase* db) {
    return RandomObjectKnnBatch(db, 16, 10, 95);
  };
  // Batched.
  auto db_multi = OpenScanDb(dataset);
  ASSERT_TRUE(
      db_multi->MultipleSimilarityQueryAll(make_queries(db_multi.get())).ok());
  // One by one.
  auto db_single = OpenScanDb(dataset);
  for (const Query& q : make_queries(db_single.get())) {
    ASSERT_TRUE(db_single->SimilarityQuery(q).ok());
  }
  EXPECT_LE(db_multi->stats().TotalPageReads(),
            db_single->stats().TotalPageReads());
}

TEST(MultiQueryEngineTest, TriangleAvoidanceReducesDistanceComputations) {
  Dataset dataset = MakeGaussianClustersDataset(3000, 8, 12, 0.03, 329);
  MultiQueryOptions with;
  with.enable_triangle_avoidance = true;
  MultiQueryOptions without;
  without.enable_triangle_avoidance = false;

  auto db_with = OpenScanDb(dataset, with);
  auto db_without = OpenScanDb(dataset, without);
  const auto queries_a = RandomObjectKnnBatch(db_with.get(), 30, 10, 97);
  const auto queries_b = RandomObjectKnnBatch(db_without.get(), 30, 10, 97);
  ASSERT_TRUE(db_with->MultipleSimilarityQueryAll(queries_a).ok());
  ASSERT_TRUE(db_without->MultipleSimilarityQueryAll(queries_b).ok());

  EXPECT_GT(db_with->stats().triangle_avoided, 0u);
  EXPECT_LT(db_with->stats().dist_computations,
            db_without->stats().dist_computations);
  // And the avoided computations are exactly the difference.
  EXPECT_EQ(db_with->stats().dist_computations +
                db_with->stats().triangle_avoided,
            db_without->stats().dist_computations);
}

TEST(MultiQueryEngineTest, AvoidanceDoesNotChangeResults) {
  Dataset dataset = MakeGaussianClustersDataset(1500, 8, 10, 0.04, 331);
  MultiQueryOptions with;
  with.enable_triangle_avoidance = true;
  MultiQueryOptions without;
  without.enable_triangle_avoidance = false;
  auto db_with = OpenScanDb(dataset, with);
  auto db_without = OpenScanDb(dataset, without);
  const auto queries_a = RandomObjectKnnBatch(db_with.get(), 20, 8, 99);
  const auto queries_b = RandomObjectKnnBatch(db_without.get(), 20, 8, 99);
  auto all_with = db_with->MultipleSimilarityQueryAll(queries_a);
  auto all_without = db_without->MultipleSimilarityQueryAll(queries_b);
  ASSERT_TRUE(all_with.ok());
  ASSERT_TRUE(all_without.ok());
  for (size_t i = 0; i < queries_a.size(); ++i) {
    EXPECT_TRUE(SameAnswers((*all_with)[i], (*all_without)[i])) << i;
  }
}

TEST(MultiQueryEngineTest, MatrixCostIsQuadraticOncePerBlock) {
  // A block of m queries completed by the shifting window pays exactly
  // m(m-1)/2 matrix distance computations (the paper's first CPU term).
  Dataset dataset = MakeUniformDataset(800, 6, 333);
  auto db = OpenScanDb(dataset);
  const size_t m = 12;
  const auto queries = RandomObjectKnnBatch(db.get(), m, 5, 103);
  db->ResetStats();
  ASSERT_TRUE(db->MultipleSimilarityQueryAll(queries).ok());
  EXPECT_EQ(db->stats().matrix_dist_computations, m * (m - 1) / 2);
}

TEST(MultiQueryEngineTest, StatsCountCompletedQueries) {
  Dataset dataset = MakeUniformDataset(500, 5, 335);
  auto db = OpenScanDb(dataset);
  const auto queries = RandomObjectKnnBatch(db.get(), 7, 4, 105);
  db->ResetStats();
  ASSERT_TRUE(db->MultipleSimilarityQueryAll(queries).ok());
  EXPECT_EQ(db->stats().queries_completed, 7u);
  EXPECT_EQ(db->stats().answers_produced, 7u * 4u);
}

TEST(MultiQueryEngineTest, ResetAllForgetsBufferedAnswers) {
  Dataset dataset = MakeUniformDataset(600, 5, 337);
  auto db = OpenScanDb(dataset);
  const auto queries = RandomObjectKnnBatch(db.get(), 6, 4, 107);
  ASSERT_TRUE(db->MultipleSimilarityQueryAll(queries).ok());
  db->ResetAll();
  ASSERT_TRUE(db->MultipleSimilarityQueryAll(queries).ok());
  // After the reset the work is done again from scratch.
  EXPECT_GT(db->stats().TotalPageReads(), 0u);
  EXPECT_GT(db->stats().dist_computations, 0u);
}

TEST(MultiQueryEngineTest, FailedExecuteDetachesStatsSink) {
  // Regression: the error paths of ExecuteInternal (duplicate ids,
  // GetOrCreate failure) used to return without resetting the metric's
  // stats sink, leaving a pointer to the caller's (possibly dead)
  // QueryStats installed on the long-lived engine.
  auto db = OpenScanDb(MakeUniformDataset(300, 4, 401));
  MultiQueryEngine& engine = db->engine();
  {
    QueryStats doomed;  // dies at the end of this scope
    std::vector<Query> dup{db->MakeObjectKnnQuery(1, 3),
                           db->MakeObjectKnnQuery(1, 3)};
    ASSERT_FALSE(engine.Execute(dup, &doomed).ok());
    EXPECT_EQ(engine.counting_metric().stats(), nullptr)
        << "failed Execute left a stats sink installed";
  }
  // GetOrCreate failure path: id 5 buffered as kNN(4), re-submitted with a
  // different cardinality.
  ASSERT_TRUE(engine.Execute({db->MakeObjectKnnQuery(5, 4)}, nullptr).ok());
  {
    QueryStats doomed;
    ASSERT_FALSE(engine.Execute({db->MakeObjectKnnQuery(5, 9)}, &doomed).ok());
    EXPECT_EQ(engine.counting_metric().stats(), nullptr);
  }
}

TEST(MultiQueryEngineTest, FailedExecuteDoesNotPoisonLaterStats) {
  // The companion observable: a failed call's stats object must not
  // receive any charges from a subsequent successful call.
  auto db = OpenScanDb(MakeUniformDataset(300, 4, 403));
  MultiQueryEngine& engine = db->engine();
  QueryStats failed_stats;
  std::vector<Query> dup{db->MakeObjectKnnQuery(2, 3),
                         db->MakeObjectKnnQuery(2, 3)};
  ASSERT_FALSE(engine.Execute(dup, &failed_stats).ok());
  const uint64_t dists_after_failure = failed_stats.dist_computations;

  QueryStats ok_stats;
  ASSERT_TRUE(engine.Execute({db->MakeObjectKnnQuery(3, 3)}, &ok_stats).ok());
  EXPECT_GT(ok_stats.dist_computations, 0u);
  EXPECT_EQ(failed_stats.dist_computations, dists_after_failure)
      << "successful call charged work to the failed call's stats";
}

TEST(MultiQueryEngineTest, ExecuteAllMatchesManualShiftingWindow) {
  // Regression for the O(m^2) window fix: ExecuteAll's span-based sliding
  // window must do exactly what the copy-and-pop-front loop did — same
  // answers AND same charged work.
  Dataset dataset = MakeGaussianClustersDataset(1000, 5, 6, 0.05, 405);
  auto db_all = OpenScanDb(dataset);
  auto db_manual = OpenScanDb(dataset);
  const auto queries = RandomObjectKnnBatch(db_all.get(), 18, 7, 407);

  auto all = db_all->MultipleSimilarityQueryAll(queries);
  ASSERT_TRUE(all.ok());

  std::vector<Query> window = queries;  // the old path, spelled out
  std::vector<AnswerSet> manual;
  for (size_t i = 0; i < queries.size(); ++i) {
    auto result = db_manual->MultipleSimilarityQuery(window);
    ASSERT_TRUE(result.ok());
    manual.push_back(result->answers[0]);
    window.erase(window.begin());
  }

  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_TRUE(SameAnswers((*all)[i], manual[i])) << "query " << i;
  }
  const QueryStats& a = db_all->stats();
  const QueryStats& b = db_manual->stats();
  EXPECT_EQ(a.TotalPageReads(), b.TotalPageReads());
  EXPECT_EQ(a.dist_computations, b.dist_computations);
  EXPECT_EQ(a.matrix_dist_computations, b.matrix_dist_computations);
}

TEST(MultiQueryEngineTest, BufferEvictionKeepsResultsCorrect) {
  Dataset dataset = MakeUniformDataset(700, 5, 339);
  MultiQueryOptions multi;
  multi.buffer_capacity = 4;  // tiny: constant eviction
  auto db = OpenScanDb(dataset, multi);
  EuclideanMetric metric;
  for (uint64_t round = 0; round < 5; ++round) {
    const auto queries = RandomObjectKnnBatch(db.get(), 4, 5, 111 + round);
    auto all = db->MultipleSimilarityQueryAll(queries);
    ASSERT_TRUE(all.ok());
    for (size_t i = 0; i < queries.size(); ++i) {
      EXPECT_TRUE(SameAnswers(
          (*all)[i], BruteForceQuery(db->dataset(), metric, queries[i])));
    }
  }
}

TEST(MultiQueryEngineTest, DependentQueriesReuseBufferedWorkOnXTree) {
  // The exploration pattern of Sec. 5.1: the second call's query objects
  // were prefetched by the first call, so it reads fewer new pages than a
  // cold batch would.
  Dataset dataset = MakeGaussianClustersDataset(3000, 8, 8, 0.03, 341);
  DatabaseOptions options;
  options.backend = BackendKind::kXTree;
  options.page_size_bytes = 2048;
  auto db = MetricDatabase::Open(std::move(dataset),
                                 std::make_shared<EuclideanMetric>(), options);
  ASSERT_TRUE(db.ok());
  // First call: a kNN query whose answers become the next query objects.
  Query first = (*db)->MakeObjectKnnQuery(5, 10);
  std::vector<Query> batch{first};
  auto result = (*db)->MultipleSimilarityQuery(batch);
  ASSERT_TRUE(result.ok());
  std::vector<Query> follow_ups;
  for (const Neighbor& nb : result->answers[0]) {
    if (nb.id != 5) follow_ups.push_back((*db)->MakeObjectKnnQuery(nb.id, 10));
  }
  // Warm path: the follow-ups' neighborhoods overlap the pages just read.
  (*db)->ResetStats();
  ASSERT_TRUE((*db)->MultipleSimilarityQueryAll(follow_ups).ok());
  const uint64_t warm_pages = (*db)->stats().TotalPageReads() +
                              (*db)->stats().buffer_hits +
                              (*db)->stats().pages_skipped_buffered;
  EXPECT_GT((*db)->stats().pages_skipped_buffered, 0u)
      << "dependent queries should skip pages already accounted";
  EXPECT_GT(warm_pages, 0u);
}

// ---------------------------------------------------------------------
// Avoidance primitives
// ---------------------------------------------------------------------

TEST(AvoidanceTest, Lemma1ProvesExclusion) {
  // dist(O,Q1) > dist(Q2,Q1) + QueryDist(Q2)  ==> avoid.
  QueryDistanceCache cache;
  CountingMetric metric(std::make_shared<EuclideanMetric>());
  std::vector<Query> queries{
      {1, Vec{0, 0}, QueryType::Knn(1)},
      {2, Vec{1, 0}, QueryType::Knn(1)},
  };
  std::vector<uint32_t> idx;
  cache.Prepare(queries, metric, &idx);
  QueryStats stats;
  // O at distance 10 from Q1; query dist of Q2 is 2; d(Q1,Q2)=1.
  std::vector<KnownQueryDistance> known{{idx[0], 10.0}};
  EXPECT_TRUE(CanAvoidDistance(cache, known, idx[1], 2.0, &stats));
  EXPECT_EQ(stats.triangle_avoided, 1u);
  EXPECT_GE(stats.triangle_tries, 1u);
}

TEST(AvoidanceTest, Lemma2ProvesExclusion) {
  // dist(Q2,Q1) > dist(O,Q1) + QueryDist(Q2)  ==> avoid.
  QueryDistanceCache cache;
  CountingMetric metric(std::make_shared<EuclideanMetric>());
  std::vector<Query> queries{
      {1, Vec{0, 0}, QueryType::Knn(1)},
      {2, Vec{20, 0}, QueryType::Knn(1)},
  };
  std::vector<uint32_t> idx;
  cache.Prepare(queries, metric, &idx);
  QueryStats stats;
  std::vector<KnownQueryDistance> known{{idx[0], 0.5}};
  EXPECT_TRUE(CanAvoidDistance(cache, known, idx[1], 2.0, &stats));
}

TEST(AvoidanceTest, NoFalseExclusionNearBoundary) {
  QueryDistanceCache cache;
  CountingMetric metric(std::make_shared<EuclideanMetric>());
  std::vector<Query> queries{
      {1, Vec{0, 0}, QueryType::Knn(1)},
      {2, Vec{1, 0}, QueryType::Knn(1)},
  };
  std::vector<uint32_t> idx;
  cache.Prepare(queries, metric, &idx);
  QueryStats stats;
  // Exactly at the bound: dist(O,Q1) == d(Q1,Q2) + qd -> premise not
  // strict, must NOT avoid (O could be exactly at the query distance).
  std::vector<KnownQueryDistance> known{{idx[0], 3.0}};
  EXPECT_FALSE(CanAvoidDistance(cache, known, idx[1], 2.0, &stats));
}

TEST(AvoidanceTest, InfiniteQueryDistNeverAvoidsAndCostsNothing) {
  QueryDistanceCache cache;
  CountingMetric metric(std::make_shared<EuclideanMetric>());
  std::vector<Query> queries{
      {1, Vec{0, 0}, QueryType::Knn(1)},
      {2, Vec{1, 0}, QueryType::Knn(1)},
  };
  std::vector<uint32_t> idx;
  cache.Prepare(queries, metric, &idx);
  QueryStats stats;
  std::vector<KnownQueryDistance> known{{idx[0], 100.0}};
  EXPECT_FALSE(CanAvoidDistance(cache, known, idx[1],
                                std::numeric_limits<double>::infinity(),
                                &stats));
  EXPECT_EQ(stats.triangle_tries, 0u);
}

TEST(AvoidanceTest, SoundnessOnRandomInstances) {
  // Whenever CanAvoidDistance says "avoid", the true distance must indeed
  // exceed the query distance.
  Rng rng(131);
  CountingMetric metric(std::make_shared<EuclideanMetric>());
  for (int trial = 0; trial < 500; ++trial) {
    QueryDistanceCache cache;
    std::vector<Query> queries;
    const size_t m = 2 + rng.NextIndex(4);
    for (size_t i = 0; i < m; ++i) {
      Vec p(4);
      for (auto& x : p) x = static_cast<Scalar>(rng.NextDouble());
      queries.push_back({i + 1, p, QueryType::Knn(1)});
    }
    std::vector<uint32_t> idx;
    cache.Prepare(queries, metric, &idx);
    Vec object(4);
    for (auto& x : object) x = static_cast<Scalar>(rng.NextDouble(-1, 2));
    std::vector<KnownQueryDistance> known;
    for (size_t i = 0; i + 1 < m; ++i) {
      known.push_back(
          {idx[i], metric.DistanceUncounted(queries[i].point, object)});
    }
    const double qd = rng.NextDouble(0.0, 1.0);
    if (CanAvoidDistance(cache, known, idx[m - 1], qd, nullptr)) {
      const double true_dist =
          metric.DistanceUncounted(queries[m - 1].point, object);
      EXPECT_GT(true_dist, qd);
    }
  }
}

// ---------------------------------------------------------------------
// QueryDistanceCache
// ---------------------------------------------------------------------

TEST(QueryDistanceCacheTest, ComputesEachPairOnce) {
  QueryDistanceCache cache;
  CountingMetric metric(std::make_shared<EuclideanMetric>());
  QueryStats stats;
  metric.set_stats(&stats);
  std::vector<Query> queries;
  for (size_t i = 0; i < 10; ++i) {
    queries.push_back({i + 1, Vec{static_cast<Scalar>(i), 0}, QueryType::Knn(1)});
  }
  std::vector<uint32_t> idx;
  cache.Prepare(queries, metric, &idx);
  EXPECT_EQ(stats.matrix_dist_computations, 45u);
  cache.Prepare(queries, metric, &idx);  // all cached
  EXPECT_EQ(stats.matrix_dist_computations, 45u);
}

TEST(QueryDistanceCacheTest, ShiftedWindowAddsOnlyNewPairs) {
  QueryDistanceCache cache;
  CountingMetric metric(std::make_shared<EuclideanMetric>());
  QueryStats stats;
  metric.set_stats(&stats);
  std::vector<Query> queries;
  for (size_t i = 0; i < 5; ++i) {
    queries.push_back({i + 1, Vec{static_cast<Scalar>(i), 0}, QueryType::Knn(1)});
  }
  std::vector<uint32_t> idx;
  cache.Prepare(queries, metric, &idx);  // 10 pairs
  // Drop the first, add one new: the new query pairs with the 5 residents.
  queries.erase(queries.begin());
  queries.push_back({99, Vec{42, 0}, QueryType::Knn(1)});
  cache.Prepare(queries, metric, &idx);
  EXPECT_EQ(stats.matrix_dist_computations, 10u + 5u);
}

TEST(QueryDistanceCacheTest, DistValuesMatchMetric) {
  QueryDistanceCache cache;
  CountingMetric metric(std::make_shared<EuclideanMetric>());
  std::vector<Query> queries{
      {1, Vec{0, 0}, QueryType::Knn(1)},
      {2, Vec{3, 4}, QueryType::Knn(1)},
      {3, Vec{6, 8}, QueryType::Knn(1)},
  };
  std::vector<uint32_t> idx;
  cache.Prepare(queries, metric, &idx);
  EXPECT_DOUBLE_EQ(cache.Dist(idx[0], idx[1]), 5.0);
  EXPECT_DOUBLE_EQ(cache.Dist(idx[1], idx[0]), 5.0);
  EXPECT_DOUBLE_EQ(cache.Dist(idx[0], idx[2]), 10.0);
  EXPECT_DOUBLE_EQ(cache.Dist(idx[1], idx[1]), 0.0);
}

TEST(QueryDistanceCacheTest, CompactionPreservesDistances) {
  QueryDistanceCache cache(/*compact_threshold=*/8);
  CountingMetric metric(std::make_shared<EuclideanMetric>());
  QueryStats stats;
  metric.set_stats(&stats);
  // Fill beyond the threshold with rolling windows.
  std::vector<Query> window;
  for (size_t i = 0; i < 20; ++i) {
    window.push_back({i + 1, Vec{static_cast<Scalar>(i), 1}, QueryType::Knn(1)});
    if (window.size() > 4) window.erase(window.begin());
    std::vector<uint32_t> idx;
    cache.Prepare(window, metric, &idx);
    // Check a pair value after every Prepare.
    if (window.size() >= 2) {
      const double expected = metric.DistanceUncounted(window[0].point,
                                                       window[1].point);
      EXPECT_DOUBLE_EQ(cache.Dist(idx[0], idx[1]), expected);
    }
  }
  EXPECT_LE(cache.size(), 9u);
}

// ---------------------------------------------------------------------
// MetricDatabase::AnswerInBatches: the one batch driver
// ---------------------------------------------------------------------

// Scan database with no metrics sink, so QueryStats holds counters only
// (the attr_* wall times stay zero) and two runs compare exactly.
std::unique_ptr<MetricDatabase> OpenUnmeteredDb(uint64_t seed,
                                                size_t max_batch_size) {
  MultiQueryOptions multi;
  multi.metrics = nullptr;
  multi.max_batch_size = max_batch_size;
  return OpenScanDb(MakeGaussianClustersDataset(400, 4, 5, 0.05, seed), multi);
}

void ExpectSameStats(const QueryStats& a, const QueryStats& b) {
  EXPECT_EQ(a.ToString(), b.ToString());
  EXPECT_EQ(a.attr_window_micros, b.attr_window_micros);
  EXPECT_EQ(a.attr_page_io_micros, b.attr_page_io_micros);
  EXPECT_EQ(a.attr_kernel_micros, b.attr_kernel_micros);
  EXPECT_EQ(a.attr_matrix_micros, b.attr_matrix_micros);
}

TEST(AnswerInBatchesTest, BatchSizeOneIsTheSingleQueryLoop) {
  auto loop_db = OpenUnmeteredDb(331, 4);
  auto driver_db = OpenUnmeteredDb(331, 4);
  // Object kNN and range queries, one of them repeated: the single form
  // must not answer the repeat from a buffer the way an engine call could.
  std::vector<Query> queries = RandomObjectKnnBatch(loop_db.get(), 9, 5, 93);
  queries.push_back(loop_db->MakeObjectRangeQuery(17, 0.1));
  queries.push_back(queries.front());

  std::vector<AnswerSet> expected;
  for (const Query& q : queries) {
    auto got = loop_db->SimilarityQuery(q);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    expected.push_back(*got);
  }
  auto answers = driver_db->AnswerInBatches(queries, 1);
  ASSERT_TRUE(answers.ok()) << answers.status().ToString();
  ASSERT_EQ(answers->size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_TRUE(SameAnswers((*answers)[i], expected[i], 0.0)) << i;
  }
  ExpectSameStats(driver_db->stats(), loop_db->stats());
}

TEST(AnswerInBatchesTest, OversizedBatchSplitsIntoEngineBlocks) {
  auto blocks_db = OpenUnmeteredDb(333, 4);
  auto driver_db = OpenUnmeteredDb(333, 4);
  const auto queries = RandomObjectKnnBatch(driver_db.get(), 11, 6, 95);
  // One engine call cannot take the whole list ...
  EXPECT_TRUE(driver_db->MultipleSimilarityQueryAll(queries)
                  .status()
                  .IsResourceExhausted());
  driver_db->ResetAll();
  // ... the driver runs it as blocks of max_batch_size = 4.
  auto answers = driver_db->AnswerInBatches(queries, 100);
  ASSERT_TRUE(answers.ok()) << answers.status().ToString();
  ASSERT_EQ(answers->size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_TRUE(SameAnswers((*answers)[i],
                            BruteForceQuery(driver_db->dataset(),
                                            driver_db->metric(), queries[i])))
        << i;
  }
  for (size_t begin = 0; begin < queries.size(); begin += 4) {
    const std::vector<Query> block(
        queries.begin() + static_cast<ptrdiff_t>(begin),
        queries.begin() +
            static_cast<ptrdiff_t>(std::min(queries.size(), begin + 4)));
    ASSERT_TRUE(blocks_db->MultipleSimilarityQueryAll(block).ok());
  }
  ExpectSameStats(driver_db->stats(), blocks_db->stats());
}

TEST(AnswerInBatchesTest, ZeroBatchSizeRejected) {
  auto db = OpenUnmeteredDb(335, 4);
  const auto queries = RandomObjectKnnBatch(db.get(), 3, 2, 97);
  EXPECT_TRUE(db->AnswerInBatches(queries, 0).status().IsInvalidArgument());
  EXPECT_TRUE(db->AnswerInBatches({}, 0).status().IsInvalidArgument());
  EXPECT_EQ(db->stats().queries_completed, 0u);
  auto empty = db->AnswerInBatches({}, 8);
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
}

TEST(AnswerInBatchesTest, BadQueryInLaterBlockReturnsThatBlocksStatus) {
  for (const size_t batch_size : {size_t{1}, size_t{4}}) {
    auto db = OpenUnmeteredDb(337, 4);
    auto queries = RandomObjectKnnBatch(db.get(), 10, 3, 99);
    queries[9] = Query{queries[9].id, Vec{}, QueryType::Knn(3)};
    auto got = db->AnswerInBatches(queries, batch_size);
    EXPECT_TRUE(got.status().IsInvalidArgument()) << batch_size;
    EXPECT_EQ(got.status().message(), "query point is empty") << batch_size;
    // Every query before the failing call completed: the first nine one
    // by one, or the two full blocks of four before the last block.
    EXPECT_EQ(db->stats().queries_completed, batch_size == 1 ? 9u : 8u);
  }
}

}  // namespace
}  // namespace msq
