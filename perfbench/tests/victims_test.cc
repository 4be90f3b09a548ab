#include "victims.h"

#include <gtest/gtest.h>

#include <filesystem>

#include "dataset/generators.h"
#include "dist/builtin_metrics.h"

namespace perfbench {
namespace {

TEST(LiveSetTest, MirrorsDenseRenumbering) {
  LiveSet live(4);                  // ids 0..3 hold keys 0..3
  EXPECT_EQ(live.Append(10), 4u);   // key 10 at id 4
  live.Remove(1);
  live.Remove(4);
  EXPECT_FALSE(live.live(1));
  EXPECT_EQ(live.size(), 3u);
  live.Fold();                      // survivors 0, 2, 3 -> 0, 1, 2
  EXPECT_EQ(live.total(), 3u);
  EXPECT_EQ(live.key(0), 0u);
  EXPECT_EQ(live.key(1), 2u);
  EXPECT_EQ(live.key(2), 3u);
  EXPECT_THROW(live.Remove(5), std::logic_error);
}

// The ingest sequence in miniature on a real WAL-armed database whose
// auto-checkpoints fold (and renumber) often: every victim the picker
// chooses is live and holds the object the tally says it holds.
TEST(LiveSetTest, NeverPicksATombstonedIdAcrossAutoCheckpoints) {
  const std::string dir = "perfbench_victims_test";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  msq::TychoLikeOptions gen;
  gen.n = 700;
  gen.seed = 5;
  const msq::Dataset all = msq::MakeTychoLikeDataset(gen);
  std::vector<msq::Vec> objects;
  for (size_t i = 0; i < all.size(); ++i) objects.push_back(all.object(i));
  const size_t base_n = 200;

  msq::DatabaseOptions o;
  o.backend = msq::BackendKind::kXTree;
  o.pivots.enabled = true;
  o.durability.wal_enabled = true;
  o.durability.wal_fsync_policy = msq::WalFsyncPolicy::kOnCheckpoint;
  o.durability.auto_checkpoint_wal_bytes = 8 * 1024;
  o.durability.auto_checkpoint_tombstone_ratio = 0.2;
  auto db = msq::MetricDatabase::Open(
      msq::Dataset(all.dim(), std::vector<msq::Vec>(objects.begin(),
                                                    objects.begin() + base_n)),
      std::make_shared<msq::EuclideanMetric>(), o);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->Save(dir + "/db.msq").ok());

  LiveSet live(base_n);
  msq::Rng rng(3);
  int folds = 0;
  for (size_t key = base_n; key < objects.size(); ++key) {
    auto id = (*db)->Insert(objects[key]);
    ASSERT_TRUE(id.ok());
    msq::ObjectId expect = live.Append(key);
    if (Folded(**db)) {
      ++folds;
      live.Fold();
      expect = static_cast<msq::ObjectId>(live.size() - 1);
    }
    ASSERT_EQ(*id, expect);
    if (key % 2 == 0) {
      const msq::ObjectId victim = live.Pick(rng);
      ASSERT_FALSE((*db)->CurrentVersion()->tombstoned(victim));
      ASSERT_EQ((*db)->backend().ObjectVec(victim), objects[live.key(victim)]);
      ASSERT_TRUE((*db)->Delete(victim).ok());
      live.Remove(victim);
      if (Folded(**db)) {
        ++folds;
        live.Fold();
      }
    }
  }
  EXPECT_GE(folds, 2);
  ASSERT_EQ((*db)->NumLiveObjects(), live.size());
  for (msq::ObjectId id : live.live_ids()) {
    ASSERT_FALSE((*db)->CurrentVersion()->tombstoned(id));
    ASSERT_EQ((*db)->backend().ObjectVec(id), objects[live.key(id)]);
  }
  db->reset();
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace perfbench
