// Tests of index persistence: X-tree and M-tree structures round-trip
// through their serialized index streams (SaveIndex/LoadIndex, the bytes
// MetricDatabase::Save embeds in its page file), loaded indexes answer
// queries identically, and corrupted or mismatched streams are rejected.

#include <memory>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/single_query.h"
#include "dataset/generators.h"
#include "dist/builtin_metrics.h"
#include "dist/counting_metric.h"
#include "dist/edit_distance.h"
#include "mtree/mtree.h"
#include "xtree/xtree.h"
#include "tests/test_util.h"

namespace msq {
namespace {

std::shared_ptr<const Dataset> SharedDataset(Dataset ds) {
  return std::make_shared<Dataset>(std::move(ds));
}

TEST(XTreePersistenceTest, RoundTripPreservesStructureAndAnswers) {
  auto dataset = SharedDataset(
      MakeGaussianClustersDataset(2000, 6, 6, 0.05, 1001));
  auto metric = std::make_shared<EuclideanMetric>();
  XTreeOptions options;
  options.page_size_bytes = 1024;
  auto original = XTreeBackend::BulkLoad(dataset, metric, options);
  ASSERT_TRUE(original.ok());

  std::stringstream bytes;
  ASSERT_TRUE((*original)->SaveIndex(bytes).ok());
  auto loaded = XTreeBackend::LoadIndex(bytes, dataset, metric, options);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  const XTreeShape a = (*original)->Shape();
  const XTreeShape b = (*loaded)->Shape();
  EXPECT_EQ(a.height, b.height);
  EXPECT_EQ(a.num_leaves, b.num_leaves);
  EXPECT_EQ(a.num_dir_nodes, b.num_dir_nodes);
  EXPECT_EQ(a.num_supernodes, b.num_supernodes);
  EXPECT_TRUE((*loaded)->CheckInvariants().ok());

  CountingMetric counted(metric);
  Rng rng(1003);
  for (int trial = 0; trial < 10; ++trial) {
    Vec point(6);
    for (auto& x : point) x = static_cast<Scalar>(rng.NextDouble());
    Query q{static_cast<QueryId>(trial + 1), point, QueryType::Knn(8)};
    auto got_a = ExecuteSingleQuery(original->get(), counted, q, nullptr);
    auto got_b = ExecuteSingleQuery(loaded->get(), counted, q, nullptr);
    ASSERT_TRUE(got_a.ok());
    ASSERT_TRUE(got_b.ok());
    EXPECT_TRUE(testing::SameAnswers(*got_a, *got_b)) << trial;
  }
}

TEST(XTreePersistenceTest, DynamicTreeWithSupernodesRoundTrips) {
  auto dataset = SharedDataset(MakeUniformDataset(3000, 64, 1005));
  auto metric = std::make_shared<EuclideanMetric>();
  XTreeOptions options;
  options.page_size_bytes = 4096;
  options.max_overlap = 0.0;  // force supernodes
  auto original = XTreeBackend::BuildByInsertion(dataset, metric, options);
  ASSERT_TRUE(original.ok());
  ASSERT_GT((*original)->Shape().num_supernodes, 0u);
  std::stringstream bytes;
  ASSERT_TRUE((*original)->SaveIndex(bytes).ok());
  auto loaded = XTreeBackend::LoadIndex(bytes, dataset, metric, options);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->Shape().num_supernodes,
            (*original)->Shape().num_supernodes);
}

TEST(XTreePersistenceTest, RejectsWrongDataset) {
  auto dataset = SharedDataset(MakeUniformDataset(500, 4, 1007));
  auto metric = std::make_shared<EuclideanMetric>();
  auto tree = XTreeBackend::BulkLoad(dataset, metric, {});
  ASSERT_TRUE(tree.ok());
  std::stringstream bytes;
  ASSERT_TRUE((*tree)->SaveIndex(bytes).ok());
  const std::string saved = bytes.str();
  // Different size.
  auto smaller = SharedDataset(MakeUniformDataset(400, 4, 1007));
  std::istringstream in_smaller(saved);
  EXPECT_TRUE(XTreeBackend::LoadIndex(in_smaller, smaller, metric, {})
                  .status()
                  .IsInvalidArgument());
  // Different dimensionality.
  auto other_dim = SharedDataset(MakeUniformDataset(500, 5, 1007));
  std::istringstream in_other_dim(saved);
  EXPECT_TRUE(XTreeBackend::LoadIndex(in_other_dim, other_dim, metric, {})
                  .status()
                  .IsInvalidArgument());
}

TEST(XTreePersistenceTest, RejectsGarbageFile) {
  std::istringstream bytes("certainly not an index");
  auto dataset = SharedDataset(MakeUniformDataset(100, 4, 1009));
  auto metric = std::make_shared<EuclideanMetric>();
  EXPECT_TRUE(XTreeBackend::LoadIndex(bytes, dataset, metric, {})
                  .status()
                  .IsCorruption());
}

TEST(MTreePersistenceTest, RoundTripPreservesAnswers) {
  auto dataset = SharedDataset(
      MakeGaussianClustersDataset(1500, 5, 6, 0.05, 1013));
  auto metric = std::make_shared<EuclideanMetric>();
  MTreeOptions options;
  options.page_size_bytes = 1024;
  auto original = MTreeBackend::Build(dataset, metric, options);
  ASSERT_TRUE(original.ok());
  std::stringstream bytes;
  ASSERT_TRUE((*original)->SaveIndex(bytes).ok());
  auto loaded = MTreeBackend::LoadIndex(bytes, dataset, metric, options);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE((*loaded)->CheckInvariants().ok());

  const MTreeShape a = (*original)->Shape();
  const MTreeShape b = (*loaded)->Shape();
  EXPECT_EQ(a.height, b.height);
  EXPECT_EQ(a.num_leaves, b.num_leaves);

  CountingMetric counted(metric);
  for (ObjectId probe : {0u, 700u, 1499u}) {
    Query q{static_cast<QueryId>(probe), dataset->object(probe),
            QueryType::Knn(5)};
    auto got_a = ExecuteSingleQuery(original->get(), counted, q, nullptr);
    auto got_b = ExecuteSingleQuery(loaded->get(), counted, q, nullptr);
    ASSERT_TRUE(got_a.ok());
    ASSERT_TRUE(got_b.ok());
    EXPECT_TRUE(testing::SameAnswers(*got_a, *got_b));
  }
}

TEST(MTreePersistenceTest, LoadingWithWrongMetricFailsInvariants) {
  auto dataset = SharedDataset(MakeUniformDataset(800, 4, 1015));
  auto euclid = std::make_shared<EuclideanMetric>();
  MTreeOptions options;
  options.page_size_bytes = 512;  // force a real (multi-level) structure
  auto tree = MTreeBackend::Build(dataset, euclid, options);
  ASSERT_TRUE(tree.ok());
  std::stringstream bytes;
  ASSERT_TRUE((*tree)->SaveIndex(bytes).ok());
  // Manhattan distances differ, so the stored radii/parent distances no
  // longer verify — the load must fail loudly instead of mis-answering.
  auto manhattan = std::make_shared<ManhattanMetric>();
  EXPECT_TRUE(MTreeBackend::LoadIndex(bytes, dataset, manhattan, options)
                  .status()
                  .IsCorruption());
}

TEST(MTreePersistenceTest, EditDistanceIndexRoundTrips) {
  auto dataset = SharedDataset(MakeSessionDataset(400, 6, 30, 12, 1017));
  auto metric = std::make_shared<EditDistanceMetric>();
  MTreeOptions options;
  options.page_size_bytes = 1024;
  auto original = MTreeBackend::Build(dataset, metric, options);
  ASSERT_TRUE(original.ok());
  std::stringstream bytes;
  ASSERT_TRUE((*original)->SaveIndex(bytes).ok());
  auto loaded = MTreeBackend::LoadIndex(bytes, dataset, metric, options);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  CountingMetric counted(metric);
  Query q{1, dataset->object(7), QueryType::Knn(4)};
  auto got_a = ExecuteSingleQuery(original->get(), counted, q, nullptr);
  auto got_b = ExecuteSingleQuery(loaded->get(), counted, q, nullptr);
  ASSERT_TRUE(got_a.ok());
  ASSERT_TRUE(got_b.ok());
  EXPECT_TRUE(testing::SameAnswers(*got_a, *got_b));
}

TEST(MTreePersistenceTest, RejectsTruncatedFile) {
  auto dataset = SharedDataset(MakeUniformDataset(500, 4, 1019));
  auto metric = std::make_shared<EuclideanMetric>();
  auto tree = MTreeBackend::Build(dataset, metric, {});
  ASSERT_TRUE(tree.ok());
  std::stringstream bytes;
  ASSERT_TRUE((*tree)->SaveIndex(bytes).ok());
  // Truncate to half.
  const std::string saved = bytes.str();
  std::istringstream truncated(saved.substr(0, saved.size() / 2));
  EXPECT_FALSE(MTreeBackend::LoadIndex(truncated, dataset, metric, {}).ok());
}

}  // namespace
}  // namespace msq
