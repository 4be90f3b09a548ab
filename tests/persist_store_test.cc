// Tests of the persistent database path: serialization hardening, the
// buffer pool's Lookup/Admit/Evict split, the DataLayout store mode, and
// MetricDatabase::Save / Open(path) round trips — including a corruption
// corpus (bit flips and truncations must always surface as
// Status::Corruption, never as a crash or a wrong answer).

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>
#include <unistd.h>

#include "common/serialize.h"
#include "core/database.h"
#include "dataset/generators.h"
#include "dist/builtin_metrics.h"
#include "storage/buffer_pool.h"
#include "storage/data_layout.h"
#include "storage/page_file.h"
#include "tests/test_util.h"

namespace msq {
namespace {

using testing::SameAnswers;

// Per-process suffix: ctest runs each test case as its own concurrent
// process, so a shared fixed name would race across cases.
std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() /
          (name + "." + std::to_string(::getpid())))
      .string();
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// --- serialization hardening -----------------------------------------

TEST(SerializeHardeningTest, WritersReportStreamFailure) {
  std::ostringstream out;
  out.setstate(std::ios::badbit);
  EXPECT_TRUE(WriteU32(out, 1).IsIOError());
  EXPECT_TRUE(WriteU64(out, 1).IsIOError());
  EXPECT_TRUE(WriteF64(out, 1.0).IsIOError());
  EXPECT_TRUE(WriteString(out, "x").IsIOError());
  EXPECT_TRUE(WriteVector(out, std::vector<float>{1.0f}).IsIOError());
}

TEST(SerializeHardeningTest, ReadVectorBoundsSizeBeforeAllocating) {
  // A length prefix claiming 2^28 floats backed by 4 bytes of payload must
  // fail cleanly (and cheaply) instead of attempting a 1 GiB resize.
  std::ostringstream out;
  ASSERT_TRUE(WriteU32(out, (1u << 28)).ok());
  ASSERT_TRUE(WriteU32(out, 0xdeadbeef).ok());
  std::istringstream in(out.str());
  std::vector<float> v;
  EXPECT_TRUE(ReadVector(in, &v).IsCorruption());
  EXPECT_TRUE(v.empty());

  // Sizes beyond max_elements are rejected even if the bytes were there.
  std::ostringstream big;
  ASSERT_TRUE(WriteVector(big, std::vector<uint8_t>(64, 7)).ok());
  std::istringstream in2(big.str());
  std::vector<uint8_t> w;
  EXPECT_TRUE(ReadVector(in2, &w, /*max_elements=*/16).IsCorruption());
}

TEST(SerializeHardeningTest, TruncationAtEveryOffsetIsAnError) {
  // A representative blob using every reader: tag, vectors, string.
  std::ostringstream out;
  ASSERT_TRUE(WriteU32(out, 0x4d535154).ok());
  ASSERT_TRUE(WriteVector(out, std::vector<float>{1.f, 2.f, 3.f}).ok());
  ASSERT_TRUE(WriteString(out, "euclidean").ok());
  ASSERT_TRUE(WriteVector(out, std::vector<uint32_t>{4, 5}).ok());
  ASSERT_TRUE(WriteU64(out, 42).ok());
  const std::string blob = out.str();

  const auto parse = [](const std::string& bytes) {
    std::istringstream in(bytes);
    std::vector<float> floats;
    std::string name;
    std::vector<uint32_t> ids;
    uint64_t n = 0;
    MSQ_RETURN_IF_ERROR(ExpectTag(in, 0x4d535154, "test blob"));
    MSQ_RETURN_IF_ERROR(ReadVector(in, &floats));
    MSQ_RETURN_IF_ERROR(ReadString(in, &name));
    MSQ_RETURN_IF_ERROR(ReadVector(in, &ids));
    MSQ_RETURN_IF_ERROR(ReadU64(in, &n));
    return Status::OK();
  };

  ASSERT_TRUE(parse(blob).ok());
  for (size_t len = 0; len < blob.size(); ++len) {
    const Status st = parse(blob.substr(0, len));
    EXPECT_TRUE(st.IsCorruption()) << "prefix of " << len << " bytes: "
                                   << st.ToString();
  }
}

// --- buffer pool Lookup/Admit/Evict ----------------------------------

TEST(BufferPoolSplitTest, LookupDoesNotAdmit) {
  BufferPool pool(2);
  QueryStats stats;
  EXPECT_FALSE(pool.Lookup(1, &stats));
  // A second lookup is still a miss: the failed "read" never admitted.
  EXPECT_FALSE(pool.Lookup(1, &stats));
  EXPECT_EQ(pool.size(), 0u);
  EXPECT_EQ(stats.buffer_hits, 0u);

  pool.Admit(1);
  EXPECT_TRUE(pool.Lookup(1, &stats));
  EXPECT_EQ(stats.buffer_hits, 1u);
}

TEST(BufferPoolSplitTest, AdmitReportsTheEvictedVictim) {
  BufferPool pool(2);
  QueryStats stats;
  PageId evicted = kInvalidPageId;
  pool.Admit(1, &evicted);
  EXPECT_EQ(evicted, kInvalidPageId);
  pool.Admit(2, &evicted);
  EXPECT_EQ(evicted, kInvalidPageId);
  // Touch 1 so 2 is the LRU victim.
  EXPECT_TRUE(pool.Lookup(1, &stats));
  pool.Admit(3, &evicted);
  EXPECT_EQ(evicted, 2u);
  EXPECT_TRUE(pool.Contains(1));
  EXPECT_FALSE(pool.Contains(2));
  EXPECT_TRUE(pool.Contains(3));
}

TEST(BufferPoolSplitTest, EvictUndoesAnAdmission) {
  BufferPool pool(4);
  QueryStats stats;
  pool.Admit(7);
  ASSERT_TRUE(pool.Contains(7));
  pool.Evict(7);
  EXPECT_FALSE(pool.Contains(7));
  EXPECT_FALSE(pool.Lookup(7, &stats));
  pool.Evict(7);  // idempotent
  EXPECT_EQ(pool.size(), 0u);
}

TEST(BufferPoolSplitTest, ZeroCapacityPoolAdmitsNothing) {
  BufferPool pool(0);
  QueryStats stats;
  pool.Admit(1);
  EXPECT_EQ(pool.size(), 0u);
  EXPECT_FALSE(pool.Lookup(1, &stats));
}

// --- DataLayout store mode -------------------------------------------

class StoreLayoutTest : public ::testing::Test {
 protected:
  // Builds a 6-page sequential layout over 24 objects of dim 3, saves it
  // to a fresh page file, and re-attaches the reopened store.
  void SetUp() override {
    path_ = TempPath("msq_store_layout_test.pf");
    objects_.clear();
    for (size_t i = 0; i < 24; ++i) {
      objects_.push_back(Vec{static_cast<Scalar>(i), 2.0f,
                             static_cast<Scalar>(i) * 0.5f});
    }
    layout_ = DataLayout::Sequential(24, 4, /*buffer_pages=*/2);
    layout_.MaterializeRows(3, objects_);
    auto created = PageFile::Create(path_, PageFile::kMinBlockSize);
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    ASSERT_TRUE(layout_.SaveToStore(created->get()).ok());
    ASSERT_TRUE((*created)->Sync().ok());
    auto opened = PageFile::Open(path_);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    store_ = std::move(opened).value();
    ASSERT_TRUE(layout_.AttachStore(store_).ok());
  }

  void TearDown() override { std::remove(path_.c_str()); }

  std::string path_;
  std::vector<Vec> objects_;
  DataLayout layout_;
  std::shared_ptr<PageFile> store_;
};

TEST_F(StoreLayoutTest, ReadsComeFromTheFileAndMatch) {
  QueryStats stats;
  for (PageId p = 0; p < layout_.num_pages(); ++p) {
    PageBlock block;
    ASSERT_TRUE(layout_.ReadBlock(p, &stats, &block).ok());
    ASSERT_EQ(block.size(), 4u);
    for (size_t i = 0; i < block.size(); ++i) {
      const ObjectId id = block.ids[i];
      for (size_t d = 0; d < 3; ++d) {
        EXPECT_EQ(block.vecs.row(i)[d], objects_[id][d]) << id;
      }
    }
  }
  EXPECT_GT(store_->io_stats().reads, 0u);
  EXPECT_GT(store_->io_stats().read_bytes, 0u);
}

TEST_F(StoreLayoutTest, FailedReadLeavesPageNonResident) {
  // Satellite regression: a page whose read fails must not be admitted —
  // a retry has to be a true miss that re-reads (and can succeed).
  store_->SetReadFaultHook(
      [](uint64_t) { return Status::IOError("injected"); });
  QueryStats stats;
  PageBlock block;
  EXPECT_TRUE(layout_.ReadBlock(0, &stats, &block).IsIOError());
  EXPECT_FALSE(layout_.buffer().Contains(0));
  EXPECT_EQ(stats.buffer_hits, 0u);
  const uint64_t file_reads_after_fault = store_->io_stats().reads;

  store_->SetReadFaultHook(nullptr);
  ASSERT_TRUE(layout_.ReadBlock(0, &stats, &block).ok());
  ASSERT_EQ(block.size(), 4u);
  EXPECT_EQ(block.ids[0], 0u);
  // The retry really went back to the file.
  EXPECT_GT(store_->io_stats().reads, file_reads_after_fault);
  EXPECT_TRUE(layout_.buffer().Contains(0));
  // And now it is a buffer hit, with no further file I/O.
  const uint64_t file_reads_after_retry = store_->io_stats().reads;
  ASSERT_TRUE(layout_.ReadBlock(0, &stats, &block).ok());
  EXPECT_EQ(stats.buffer_hits, 1u);
  EXPECT_EQ(store_->io_stats().reads, file_reads_after_retry);
}

TEST_F(StoreLayoutTest, LoadStoredObjectsReconstructsEveryVector) {
  size_t dim = 0;
  std::vector<Vec> restored;
  ASSERT_TRUE(DataLayout::LoadStoredObjects(*store_, &dim, &restored).ok());
  EXPECT_EQ(dim, 3u);
  ASSERT_EQ(restored.size(), objects_.size());
  for (size_t i = 0; i < restored.size(); ++i) {
    EXPECT_EQ(restored[i], objects_[i]) << i;
  }
}

// --- MetricDatabase::Save / Open(path) -------------------------------

Dataset RoundTripDataset() {
  return MakeGaussianClustersDataset(400, 4, 4, 0.05, 33);
}

DatabaseOptions RoundTripOptions(BackendKind kind) {
  DatabaseOptions options;
  options.backend = kind;
  options.page_size_bytes = 1024;
  return options;
}

TEST(DatabasePersistTest, SaveReopenAnswersBitIdentically) {
  const Dataset dataset = RoundTripDataset();
  for (BackendKind kind :
       {BackendKind::kLinearScan, BackendKind::kXTree, BackendKind::kMTree,
        BackendKind::kVaFile}) {
    SCOPED_TRACE(BackendKindName(kind));
    const std::string path =
        TempPath("msq_db_roundtrip_" + BackendKindName(kind) + ".msq");
    auto built = MetricDatabase::Open(
        dataset, std::make_shared<EuclideanMetric>(), RoundTripOptions(kind));
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    ASSERT_TRUE((*built)->Save(path).ok());

    auto reopened = MetricDatabase::Open(path);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    EXPECT_EQ((*reopened)->dataset().size(), dataset.size());
    EXPECT_EQ((*reopened)->dataset().dim(), dataset.dim());
    EXPECT_EQ((*reopened)->dataset().labels(), dataset.labels());
    EXPECT_EQ((*reopened)->metric().Name(), "euclidean");
    EXPECT_EQ((*reopened)->options().backend, kind);

    for (ObjectId id : {0u, 17u, 133u, 399u}) {
      const Query knn = (*built)->MakeObjectKnnQuery(id, 7);
      auto want = (*built)->SimilarityQuery(knn);
      auto got = (*reopened)->SimilarityQuery(knn);
      ASSERT_TRUE(want.ok());
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_TRUE(SameAnswers(*want, *got, /*tol=*/0.0)) << "knn " << id;

      const Query range = (*built)->MakeObjectRangeQuery(id, 0.2);
      auto want_r = (*built)->SimilarityQuery(range);
      auto got_r = (*reopened)->SimilarityQuery(range);
      ASSERT_TRUE(want_r.ok());
      ASSERT_TRUE(got_r.ok()) << got_r.status().ToString();
      EXPECT_TRUE(SameAnswers(*want_r, *got_r, /*tol=*/0.0))
          << "range " << id;
    }
    // The reopened database reads real bytes.
    const DataLayout* layout = (*reopened)->backend().MutableLayout();
    ASSERT_NE(layout, nullptr);
    ASSERT_TRUE(layout->has_store());
    EXPECT_GT(layout->store()->io_stats().reads, 0u);

    std::remove(path.c_str());
  }
}

TEST(DatabasePersistTest, MultiQueryOnReopenedDatabaseMatches) {
  const Dataset dataset = RoundTripDataset();
  const std::string path = TempPath("msq_db_multi.msq");
  auto built =
      MetricDatabase::Open(dataset, std::make_shared<EuclideanMetric>(),
                           RoundTripOptions(BackendKind::kXTree));
  ASSERT_TRUE(built.ok());
  ASSERT_TRUE((*built)->Save(path).ok());
  auto reopened = MetricDatabase::Open(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();

  std::vector<Query> batch;
  for (ObjectId id : {2u, 50u, 111u, 222u, 333u}) {
    batch.push_back((*built)->MakeObjectKnnQuery(id, 5));
  }
  auto want = (*built)->MultipleSimilarityQueryAll(batch);
  auto got = (*reopened)->MultipleSimilarityQueryAll(batch);
  ASSERT_TRUE(want.ok());
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_TRUE(SameAnswers((*want)[i], (*got)[i], /*tol=*/0.0)) << i;
  }
  std::remove(path.c_str());
}

TEST(DatabasePersistTest, MetricHandling) {
  const Dataset dataset = MakeUniformDataset(60, 3, 5);
  const std::string path = TempPath("msq_db_metric.msq");
  auto built =
      MetricDatabase::Open(dataset, std::make_shared<ManhattanMetric>(),
                           RoundTripOptions(BackendKind::kLinearScan));
  ASSERT_TRUE(built.ok());
  ASSERT_TRUE((*built)->Save(path).ok());

  // Stored name resolves the parameterless builtin automatically.
  auto by_name = MetricDatabase::Open(path);
  ASSERT_TRUE(by_name.ok()) << by_name.status().ToString();
  EXPECT_EQ((*by_name)->metric().Name(), "manhattan");

  // An explicitly supplied metric must match the stored name.
  auto mismatched = MetricDatabase::Open(path, DatabaseOptions(),
                                         std::make_shared<EuclideanMetric>());
  EXPECT_TRUE(mismatched.status().IsInvalidArgument());

  // Parameterized metrics cannot come from a name alone.
  auto unknown = MetricFromName("weighted_euclidean");
  EXPECT_TRUE(unknown.status().IsNotSupported());

  std::remove(path.c_str());
}

TEST(DatabasePersistTest, ResavingAReopenedDatabaseIsRejected) {
  const Dataset dataset = MakeUniformDataset(60, 3, 5);
  const std::string path = TempPath("msq_db_resave.msq");
  auto built =
      MetricDatabase::Open(dataset, std::make_shared<EuclideanMetric>(),
                           RoundTripOptions(BackendKind::kLinearScan));
  ASSERT_TRUE(built.ok());
  ASSERT_TRUE((*built)->Save(path).ok());
  auto reopened = MetricDatabase::Open(path);
  ASSERT_TRUE(reopened.ok());
  EXPECT_TRUE(
      (*reopened)->Save(TempPath("msq_db_resave2.msq")).IsNotSupported());
  std::remove(path.c_str());
}

TEST(DatabasePersistTest, OpenRejectsMissingFile) {
  auto missing = MetricDatabase::Open(TempPath("msq_db_nope.msq"));
  EXPECT_FALSE(missing.ok());
}

// Corruption corpus: a single saved database file, attacked with a bit
// flip at a stride of offsets and truncated to a stride of lengths. Every
// attack must be rejected as Corruption — never a crash, never a UB read,
// never a silently wrong database.
TEST(DatabasePersistTest, CorruptionCorpusAlwaysRejected) {
  const Dataset dataset = MakeUniformDataset(48, 3, 9);
  const std::string path = TempPath("msq_db_corrupt.msq");
  auto built =
      MetricDatabase::Open(dataset, std::make_shared<EuclideanMetric>(),
                           RoundTripOptions(BackendKind::kLinearScan));
  ASSERT_TRUE(built.ok());
  ASSERT_TRUE((*built)->Save(path).ok());
  const std::string original = ReadFileBytes(path);
  ASSERT_FALSE(original.empty());

  // Bit flips: every byte of the file is covered by the superblock CRC or
  // an extent CRC, so any flip must surface as Corruption.
  for (size_t off = 0; off < original.size(); off += 13) {
    std::string mutated = original;
    mutated[off] = static_cast<char>(mutated[off] ^ 0x10);
    WriteFileBytes(path, mutated);
    auto opened = MetricDatabase::Open(path);
    ASSERT_FALSE(opened.ok()) << "bit flip at " << off;
    EXPECT_TRUE(opened.status().IsCorruption())
        << "bit flip at " << off << ": " << opened.status().ToString();
  }

  // Truncations (and one zero-length file).
  for (size_t len = 0; len < original.size(); len += 97) {
    WriteFileBytes(path, original.substr(0, len));
    auto opened = MetricDatabase::Open(path);
    ASSERT_FALSE(opened.ok()) << "truncation to " << len;
    EXPECT_TRUE(opened.status().IsCorruption())
        << "truncation to " << len << ": " << opened.status().ToString();
  }

  // Trailing garbage fails the exact-size check.
  WriteFileBytes(path, original + std::string(33, 'z'));
  auto padded = MetricDatabase::Open(path);
  EXPECT_TRUE(padded.status().IsCorruption());

  // The pristine bytes still open fine (the corpus never mutated a copy).
  WriteFileBytes(path, original);
  auto intact = MetricDatabase::Open(path);
  EXPECT_TRUE(intact.ok()) << intact.status().ToString();
  std::remove(path.c_str());
}

}  // namespace
}  // namespace msq
