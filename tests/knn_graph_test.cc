// Tests of the batched kNN-graph utilities.

#include <memory>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "dataset/generators.h"
#include "dist/builtin_metrics.h"
#include "mining/knn_graph.h"
#include "tests/test_util.h"

namespace msq {
namespace {

std::unique_ptr<MetricDatabase> OpenDb(const Dataset& dataset,
                                       BackendKind kind =
                                           BackendKind::kLinearScan) {
  DatabaseOptions options;
  options.backend = kind;
  options.page_size_bytes = 2048;
  auto db = MetricDatabase::Open(dataset,
                                 std::make_shared<EuclideanMetric>(),
                                 options);
  EXPECT_TRUE(db.ok());
  return std::move(db).value();
}

TEST(KnnGraphTest, EdgesMatchBruteForce) {
  Dataset dataset = MakeGaussianClustersDataset(400, 4, 4, 0.05, 1301);
  EuclideanMetric metric;
  auto db = OpenDb(dataset);
  KnnGraphParams params;
  params.k = 6;
  auto graph = BuildKnnGraph(db.get(), params);
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  ASSERT_EQ(graph->neighbors.size(), dataset.size());
  for (ObjectId id : {0u, 57u, 399u}) {
    Query q{static_cast<QueryId>(id + 100000), dataset.object(id),
            QueryType::Knn(params.k + 1)};
    AnswerSet expected = testing::BruteForceQuery(dataset, metric, q);
    AnswerSet expected_wo_self;
    for (const Neighbor& nb : expected) {
      if (nb.id != id && expected_wo_self.size() < params.k) {
        expected_wo_self.push_back(nb);
      }
    }
    EXPECT_TRUE(testing::SameAnswers(graph->neighbors[id],
                                     expected_wo_self))
        << id;
  }
}

TEST(KnnGraphTest, EveryObjectHasKNeighbors) {
  Dataset dataset = MakeUniformDataset(300, 3, 1303);
  auto db = OpenDb(dataset);
  KnnGraphParams params;
  params.k = 5;
  auto graph = BuildKnnGraph(db.get(), params);
  ASSERT_TRUE(graph.ok());
  for (const AnswerSet& nbrs : graph->neighbors) {
    EXPECT_EQ(nbrs.size(), 5u);
    for (size_t i = 1; i < nbrs.size(); ++i) {
      EXPECT_LE(nbrs[i - 1].distance, nbrs[i].distance);
    }
  }
}

TEST(KnnGraphTest, SingleAndMultipleModesAgree) {
  Dataset dataset = MakeGaussianClustersDataset(350, 4, 3, 0.04, 1305);
  KnnGraphParams params;
  params.k = 4;
  params.batch_size = 1;
  auto db_single = OpenDb(dataset);
  auto single = BuildKnnGraph(db_single.get(), params);
  ASSERT_TRUE(single.ok());
  params.batch_size = 64;
  auto db_multi = OpenDb(dataset);
  auto multi = BuildKnnGraph(db_multi.get(), params);
  ASSERT_TRUE(multi.ok());
  for (ObjectId id = 0; id < dataset.size(); ++id) {
    EXPECT_TRUE(testing::SameAnswers(single->neighbors[id],
                                     multi->neighbors[id]))
        << id;
  }
  EXPECT_LT(db_multi->stats().TotalPageReads(),
            db_single->stats().TotalPageReads());
}

TEST(KnnGraphTest, MutualEdgeFractionDropsWithDimensionality) {
  // The hubness effect: on uniform data, kNN relations become less
  // symmetric as the dimensionality grows (a few hub objects appear in
  // many kNN lists without reciprocating).
  KnnGraphParams params;
  params.k = 5;
  double low_dim = 0.0, high_dim = 0.0;
  for (size_t dim : {2, 32}) {
    Dataset dataset = MakeUniformDataset(600, dim, 1307);
    auto db = OpenDb(dataset);
    auto graph = BuildKnnGraph(db.get(), params);
    ASSERT_TRUE(graph.ok());
    const double fraction = graph->MutualEdgeFraction();
    EXPECT_GT(fraction, 0.0);
    EXPECT_LE(fraction, 1.0);
    (dim == 2 ? low_dim : high_dim) = fraction;
  }
  EXPECT_GT(low_dim, high_dim + 0.1);
}

TEST(KDistanceTest, SortedDescendingAndSeparatesDensityRegimes) {
  // Clustered data: most objects have a tiny k-dist (inside a cluster),
  // and the list is sorted descending — the classic Eps-selection plot.
  Dataset dataset = MakeGaussianClustersDataset(500, 4, 5, 0.02, 1309);
  auto db = OpenDb(dataset);
  KnnGraphParams params;
  params.k = 4;
  auto k_dist = KDistanceList(db.get(), params);
  ASSERT_TRUE(k_dist.ok());
  ASSERT_EQ(k_dist->size(), dataset.size());
  for (size_t i = 1; i < k_dist->size(); ++i) {
    EXPECT_GE((*k_dist)[i - 1], (*k_dist)[i]);
  }
  // The median k-dist (dense regions) is far below the max (outliers).
  EXPECT_LT((*k_dist)[k_dist->size() / 2], 0.5 * (*k_dist)[0]);
}

TEST(KnnGraphTest, RejectsBadParameters) {
  Dataset dataset = MakeUniformDataset(100, 3, 1311);
  auto db = OpenDb(dataset);
  KnnGraphParams params;
  params.k = 0;
  EXPECT_TRUE(BuildKnnGraph(db.get(), params).status().IsInvalidArgument());
  EXPECT_TRUE(KDistanceList(db.get(), params).status().IsInvalidArgument());
}

}  // namespace
}  // namespace msq
