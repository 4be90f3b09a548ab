// Tests of OPTICS and the similarity self-join.

#include <cmath>
#include <memory>
#include <set>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "dataset/generators.h"
#include "dist/builtin_metrics.h"
#include "mining/dbscan.h"
#include "mining/optics.h"
#include "mining/similarity_join.h"

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
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  return std::move(db).value();
}

// ---------------------------------------------------------------------
// OPTICS
// ---------------------------------------------------------------------

TEST(OpticsTest, OrderingIsAPermutationOfAllObjects) {
  Dataset dataset = MakeGaussianClustersDataset(500, 4, 4, 0.03, 1201);
  auto db = OpenDb(dataset);
  OpticsParams params;
  params.eps = 0.2;
  params.min_pts = 5;
  auto got = RunOptics(db.get(), params);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->ordering.size(), dataset.size());
  std::set<ObjectId> unique(got->ordering.begin(), got->ordering.end());
  EXPECT_EQ(unique.size(), dataset.size());
  EXPECT_EQ(got->reachability.size(), dataset.size());
  EXPECT_EQ(got->core_distance.size(), dataset.size());
}

TEST(OpticsTest, ReachabilityIsAtLeastCoreDistanceOfPredecessors) {
  Dataset dataset = MakeGaussianClustersDataset(400, 3, 3, 0.03, 1203);
  auto db = OpenDb(dataset);
  OpticsParams params;
  params.eps = 0.3;
  params.min_pts = 4;
  auto got = RunOptics(db.get(), params);
  ASSERT_TRUE(got.ok());
  // Reachable objects (finite reachability) must have been reached within
  // the generating radius.
  for (size_t i = 0; i < got->ordering.size(); ++i) {
    if (!std::isinf(got->reachability[i])) {
      EXPECT_LE(got->reachability[i], /* max core+dist */ 2 * params.eps);
      EXPECT_GT(got->reachability[i], 0.0);
    }
    if (!std::isinf(got->core_distance[i])) {
      EXPECT_LE(got->core_distance[i], params.eps);
    }
  }
}

TEST(OpticsTest, ExtractedClusteringMatchesDbscanClusterCount) {
  // The clustering extracted at eps' from the OPTICS ordering partitions
  // the same density-connected components as DBSCAN at eps'.
  Dataset dataset = MakeGaussianClustersDataset(600, 3, 4, 0.015, 1205);
  auto db = OpenDb(dataset);
  const double eps = 0.06;
  const size_t min_pts = 5;

  OpticsParams optics_params;
  optics_params.eps = 0.2;  // generating radius above the extraction radius
  optics_params.min_pts = min_pts;
  auto optics = RunOptics(db.get(), optics_params);
  ASSERT_TRUE(optics.ok());
  // Note: extraction uses stored core distances, which were computed with
  // the generating eps; for eps' <= eps they agree where it matters.
  const std::vector<int32_t> extracted = optics->ExtractClustering(eps);

  DbscanParams dbscan_params;
  dbscan_params.eps = eps;
  dbscan_params.min_pts = min_pts;
  auto db2 = OpenDb(dataset);
  auto dbscan = RunDbscan(db2.get(), dbscan_params);
  ASSERT_TRUE(dbscan.ok());

  std::set<int32_t> optics_clusters, dbscan_clusters;
  for (int32_t c : extracted) {
    if (c >= 0) optics_clusters.insert(c);
  }
  for (int32_t c : dbscan->cluster_of) {
    if (c >= 0) dbscan_clusters.insert(c);
  }
  EXPECT_EQ(optics_clusters.size(), dbscan_clusters.size());
  // Core objects must agree on cluster membership up to renaming: two
  // objects in the same DBSCAN cluster and both clustered by OPTICS must
  // share the OPTICS cluster.
  std::map<int32_t, std::set<int32_t>> mapping;
  for (ObjectId id = 0; id < dataset.size(); ++id) {
    if (dbscan->cluster_of[id] >= 0 && extracted[id] >= 0) {
      mapping[dbscan->cluster_of[id]].insert(extracted[id]);
    }
  }
  for (const auto& [dbscan_cluster, optics_ids] : mapping) {
    EXPECT_EQ(optics_ids.size(), 1u)
        << "DBSCAN cluster " << dbscan_cluster << " split by OPTICS";
  }
}

TEST(OpticsTest, SingleAndMultipleModesProduceIdenticalOrderings) {
  Dataset dataset = MakeGaussianClustersDataset(500, 4, 4, 0.03, 1207);
  OpticsParams params;
  params.eps = 0.15;
  params.min_pts = 4;
  params.batch_size = 1;
  auto db_single = OpenDb(dataset);
  auto single = RunOptics(db_single.get(), params);
  ASSERT_TRUE(single.ok());
  params.batch_size = 32;
  auto db_multi = OpenDb(dataset);
  auto multi = RunOptics(db_multi.get(), params);
  ASSERT_TRUE(multi.ok());
  EXPECT_EQ(single->ordering, multi->ordering);
  EXPECT_EQ(single->reachability, multi->reachability);
  EXPECT_EQ(single->core_distance, multi->core_distance);
  // And the batched form must read fewer pages.
  EXPECT_LT(db_multi->stats().TotalPageReads(),
            db_single->stats().TotalPageReads());
}

TEST(OpticsTest, WorksOnXTree) {
  Dataset dataset = MakeGaussianClustersDataset(400, 4, 3, 0.03, 1209);
  OpticsParams params;
  params.eps = 0.15;
  params.min_pts = 4;
  auto scan_db = OpenDb(dataset, BackendKind::kLinearScan);
  auto reference = RunOptics(scan_db.get(), params);
  ASSERT_TRUE(reference.ok());
  auto xtree_db = OpenDb(dataset, BackendKind::kXTree);
  auto got = RunOptics(xtree_db.get(), params);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->ordering, reference->ordering);
}

TEST(OpticsTest, RejectsBadParameters) {
  Dataset dataset = MakeUniformDataset(100, 3, 1211);
  auto db = OpenDb(dataset);
  OpticsParams params;
  params.eps = 0.0;
  EXPECT_TRUE(RunOptics(db.get(), params).status().IsInvalidArgument());
  params.eps = 0.1;
  params.min_pts = 0;
  EXPECT_TRUE(RunOptics(db.get(), params).status().IsInvalidArgument());
}

// ---------------------------------------------------------------------
// Similarity self-join
// ---------------------------------------------------------------------

std::vector<JoinPair> BruteForceJoin(const Dataset& ds, double eps) {
  EuclideanMetric metric;
  std::vector<JoinPair> pairs;
  for (ObjectId a = 0; a < ds.size(); ++a) {
    for (ObjectId b = a + 1; b < ds.size(); ++b) {
      const double d = metric.Distance(ds.object(a), ds.object(b));
      if (d <= eps) pairs.push_back({a, b, d});
    }
  }
  std::sort(pairs.begin(), pairs.end());
  return pairs;
}

TEST(SimilarityJoinTest, MatchesBruteForce) {
  Dataset dataset = MakeGaussianClustersDataset(400, 3, 4, 0.03, 1213);
  auto db = OpenDb(dataset);
  SimilarityJoinParams params;
  params.eps = 0.08;
  auto got = SimilaritySelfJoin(db.get(), params);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  const std::vector<JoinPair> expected = BruteForceJoin(dataset, 0.08);
  ASSERT_EQ(got->size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ((*got)[i].first, expected[i].first);
    EXPECT_EQ((*got)[i].second, expected[i].second);
    EXPECT_NEAR((*got)[i].distance, expected[i].distance, 1e-9);
  }
}

TEST(SimilarityJoinTest, SingleAndMultipleModesAgree) {
  Dataset dataset = MakeUniformDataset(300, 4, 1215);
  SimilarityJoinParams params;
  params.eps = 0.25;
  params.batch_size = 1;
  auto db_single = OpenDb(dataset);
  auto single = SimilaritySelfJoin(db_single.get(), params);
  ASSERT_TRUE(single.ok());
  params.batch_size = 64;
  auto db_multi = OpenDb(dataset);
  auto multi = SimilaritySelfJoin(db_multi.get(), params);
  ASSERT_TRUE(multi.ok());
  EXPECT_EQ(single->size(), multi->size());
  for (size_t i = 0; i < single->size(); ++i) {
    EXPECT_TRUE((*single)[i] == (*multi)[i]);
  }
  EXPECT_LT(db_multi->stats().TotalPageReads(),
            db_single->stats().TotalPageReads());
}

TEST(SimilarityJoinTest, EmptyJoinAtTinyRadius) {
  Dataset dataset = MakeUniformDataset(200, 6, 1217);
  auto db = OpenDb(dataset);
  SimilarityJoinParams params;
  params.eps = 1e-9;
  auto got = SimilaritySelfJoin(db.get(), params);
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(got->empty());
}

TEST(SimilarityJoinTest, WorksOnMTree) {
  Dataset dataset = MakeGaussianClustersDataset(300, 3, 3, 0.03, 1219);
  auto db = OpenDb(dataset, BackendKind::kMTree);
  SimilarityJoinParams params;
  params.eps = 0.08;
  auto got = SimilaritySelfJoin(db.get(), params);
  ASSERT_TRUE(got.ok());
  const std::vector<JoinPair> expected = BruteForceJoin(dataset, 0.08);
  EXPECT_EQ(got->size(), expected.size());
}

}  // namespace
}  // namespace msq
