#include "decorator.h"

#include <gtest/gtest.h>

#include <filesystem>

#include "core/database.h"
#include "dataset/generators.h"

namespace perfbench {
namespace {

std::vector<msq::AnswerSet> Answer(msq::MetricDatabase& db,
                                   const msq::Dataset& data) {
  std::vector<msq::Query> queries;
  for (msq::ObjectId id = 0; id < 40; id += 3) {
    queries.push_back(db.MakeObjectKnnQuery(id, 7));
  }
  queries.push_back(db.MakeRangeQuery(data.object(5), 0.3));
  auto answers = db.MultipleSimilarityQueryAll(queries);
  EXPECT_TRUE(answers.ok());
  return answers.ok() ? *answers : std::vector<msq::AnswerSet>{};
}

class DecoratorTest : public testing::TestWithParam<msq::BackendKind> {};

TEST_P(DecoratorTest, SameAnswersAndAcceptedByOpenPath) {
  const std::string dir = "perfbench_decorator_test";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  msq::TychoLikeOptions gen;
  gen.n = 1500;
  gen.seed = 11;
  const msq::Dataset data = msq::MakeTychoLikeDataset(gen);
  msq::DatabaseOptions o;
  o.backend = GetParam();
  o.pivots.enabled = true;

  auto plain =
      msq::MetricDatabase::Open(data, std::make_shared<msq::EuclideanMetric>(), o);
  ASSERT_TRUE(plain.ok());
  auto timed = std::make_shared<TimedMetric>();
  EXPECT_EQ(timed->Name(), "euclidean");
  auto decorated = msq::MetricDatabase::Open(data, timed, o);
  ASSERT_TRUE(decorated.ok());
  const std::vector<msq::AnswerSet> expected = Answer(**plain, data);
  const DistTotals before = timed->totals();
  EXPECT_EQ(Answer(**decorated, data), expected);
  const DistTotals after = timed->totals();
  EXPECT_GT(after.rows, before.rows);
  EXPECT_GT(after.calls, before.calls);
  EXPECT_GT(after.nanos, before.nanos);

  const std::string path = dir + "/db.msq";
  ASSERT_TRUE((*plain)->Save(path).ok());
  auto reopened = msq::MetricDatabase::Open(path, o, timed);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(Answer(**reopened, data), expected);
  plain->reset();
  reopened->reset();
  std::filesystem::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, DecoratorTest,
                         testing::Values(msq::BackendKind::kLinearScan,
                                         msq::BackendKind::kXTree,
                                         msq::BackendKind::kMTree,
                                         msq::BackendKind::kVaFile),
                         [](const auto& info) {
                           return msq::BackendKindName(info.param);
                         });

}  // namespace
}  // namespace perfbench
