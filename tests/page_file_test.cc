// Tests of the single-file block store: extent round-trips, the object
// table, CRC verification over padded extents, superblock validation, and
// the read-fault hook used by the real-I/O failure-path tests.

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "common/crc32.h"
#include "storage/page_file.h"

namespace msq {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

std::string Blob(size_t n, char seed) {
  std::string s(n, '\0');
  for (size_t i = 0; i < n; ++i) {
    s[i] = static_cast<char>(seed + i % 31);
  }
  return s;
}

// The bytewise table loop Crc32 used before it was sliced by 8: the
// reference that pins the on-disk checksum format.
uint32_t BytewiseCrc32(const void* data, size_t len, uint32_t seed) {
  uint32_t table[256];
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? (0xedb88320u ^ (c >> 1)) : (c >> 1);
    }
    table[i] = c;
  }
  const auto* p = static_cast<const unsigned char*>(data);
  uint32_t c = seed ^ 0xffffffffu;
  for (size_t i = 0; i < len; ++i) {
    c = table[(c ^ p[i]) & 0xffu] ^ (c >> 8);
  }
  return c ^ 0xffffffffu;
}

TEST(Crc32Test, MatchesKnownVector) {
  // The standard check value for CRC-32/IEEE.
  EXPECT_EQ(Crc32("123456789", 9), 0xcbf43926u);
  EXPECT_EQ(Crc32("", 0), 0u);
  // Chaining equals one-shot.
  const std::string s = "hello, page file";
  const uint32_t once = Crc32(s.data(), s.size());
  const uint32_t chained = Crc32(s.data() + 4, s.size() - 4,
                                 Crc32(s.data(), 4));
  EXPECT_EQ(once, chained);
}

// Every stored extent, WAL frame and existing file keeps verifying: the
// sliced implementation equals the bytewise one for every length up to
// 4 KiB, every start offset within an 8-byte word, and a fresh or chained
// seed.
TEST(Crc32Test, MatchesBytewiseReferenceAtEveryLengthAndOffset) {
  constexpr size_t kMaxLen = 4096;
  constexpr size_t kMaxOffset = 8;
  std::string buf(kMaxLen + kMaxOffset, '\0');
  uint32_t x = 0x9e3779b9u;
  for (char& c : buf) {
    x = x * 1664525u + 1013904223u;
    c = static_cast<char>(x >> 24);
  }
  const uint32_t chained_seed = Crc32("page file", 9);
  size_t mismatches = 0;
  for (size_t offset = 0; offset < kMaxOffset; ++offset) {
    for (size_t len = 0; len <= kMaxLen; ++len) {
      for (uint32_t seed : {0u, chained_seed}) {
        const char* data = buf.data() + offset;
        if (Crc32(data, len, seed) != BytewiseCrc32(data, len, seed)) {
          ADD_FAILURE() << "offset " << offset << " len " << len << " seed "
                        << seed;
          if (++mismatches > 10) return;
        }
      }
    }
  }
}

TEST(PageFileTest, ExtentAndObjectRoundTrip) {
  const std::string path = TempPath("msq_pf_roundtrip.msq");
  PageFileExtent big_extent;
  {
    auto created = PageFile::Create(path, 512);
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    PageFile& pf = **created;
    // Spans multiple blocks and ends off the block boundary.
    const std::string big = Blob(3 * 512 + 77, 'a');
    auto ext = pf.AppendExtent(big.data(), big.size());
    ASSERT_TRUE(ext.ok());
    EXPECT_EQ(ext->first_block, 1u);
    EXPECT_EQ(ext->num_blocks, 4u);
    EXPECT_EQ(ext->byte_length, big.size());
    big_extent = *ext;
    ASSERT_TRUE(pf.PutObject("meta", "tiny payload").ok());
    ASSERT_TRUE(pf.PutObject("index", Blob(1000, 'x')).ok());
    // Duplicate names are rejected.
    EXPECT_TRUE(pf.PutObject("meta", "again").IsInvalidArgument());
    ASSERT_TRUE(pf.Sync().ok());

    std::string back;
    ASSERT_TRUE(pf.ReadExtent(*ext, &back).ok());
    EXPECT_EQ(back, big);
  }
  {
    auto opened = PageFile::Open(path);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    PageFile& pf = **opened;
    EXPECT_EQ(pf.block_size(), 512u);
    EXPECT_TRUE(pf.HasObject("meta"));
    EXPECT_TRUE(pf.HasObject("index"));
    EXPECT_FALSE(pf.HasObject("nope"));
    std::string meta, index, big;
    ASSERT_TRUE(pf.GetObject("meta", &meta).ok());
    EXPECT_EQ(meta, "tiny payload");
    ASSERT_TRUE(pf.GetObject("index", &index).ok());
    EXPECT_EQ(index, Blob(1000, 'x'));
    EXPECT_TRUE(pf.GetObject("nope", &big).IsNotFound());
    // Anonymous extents survive reopen via their coordinates.
    ASSERT_TRUE(pf.ReadExtent(big_extent, &big).ok());
    EXPECT_EQ(big, Blob(3 * 512 + 77, 'a'));
    // Reads are measured.
    EXPECT_GT(pf.io_stats().reads, 0u);
    EXPECT_GT(pf.io_stats().read_bytes, 0u);
  }
  std::remove(path.c_str());
}

TEST(PageFileTest, ReopenedFileIsReadOnly) {
  const std::string path = TempPath("msq_pf_readonly.msq");
  {
    auto created = PageFile::Create(path, 512);
    ASSERT_TRUE(created.ok());
    ASSERT_TRUE((*created)->PutObject("a", "payload").ok());
    ASSERT_TRUE((*created)->Sync().ok());
  }
  auto opened = PageFile::Open(path);
  ASSERT_TRUE(opened.ok());
  EXPECT_TRUE((*opened)->PutObject("b", "more").IsNotSupported());
  EXPECT_TRUE((*opened)->AppendExtent("x", 1).status().IsNotSupported());
  EXPECT_TRUE((*opened)->Sync().IsNotSupported());
  std::remove(path.c_str());
}

TEST(PageFileTest, UnsyncedFileDoesNotOpen) {
  const std::string path = TempPath("msq_pf_unsynced.msq");
  {
    auto created = PageFile::Create(path, 512);
    ASSERT_TRUE(created.ok());
    ASSERT_TRUE((*created)->PutObject("a", "payload").ok());
    // No Sync: superblock never written.
  }
  EXPECT_TRUE(PageFile::Open(path).status().IsCorruption());
  std::remove(path.c_str());
}

TEST(PageFileTest, EveryBitFlipIsCorruption) {
  const std::string path = TempPath("msq_pf_bitflip.msq");
  {
    auto created = PageFile::Create(path, 512);
    ASSERT_TRUE(created.ok());
    ASSERT_TRUE((*created)->PutObject("blob", Blob(700, 'q')).ok());
    ASSERT_TRUE((*created)->Sync().ok());
  }
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), {});
  }
  // Flip one bit at a sweep of offsets covering superblock, data blocks,
  // and object table; every variant must fail to open or fail to read —
  // with Corruption (version-field flips may read as NotSupported only if
  // the CRC still matched, which a single flip cannot achieve).
  for (size_t off = 0; off < bytes.size(); off += 41) {
    std::string mutated = bytes;
    mutated[off] = static_cast<char>(mutated[off] ^ 0x10);
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(mutated.data(), static_cast<std::streamsize>(mutated.size()));
    }
    auto opened = PageFile::Open(path);
    if (!opened.ok()) {
      EXPECT_TRUE(opened.status().IsCorruption())
          << "offset " << off << ": " << opened.status().ToString();
      continue;
    }
    std::string payload;
    const Status st = (*opened)->GetObject("blob", &payload);
    EXPECT_TRUE(st.IsCorruption())
        << "offset " << off << ": " << st.ToString();
  }
  std::remove(path.c_str());
}

TEST(PageFileTest, EveryTruncationIsCorruption) {
  const std::string path = TempPath("msq_pf_trunc.msq");
  {
    auto created = PageFile::Create(path, 512);
    ASSERT_TRUE(created.ok());
    ASSERT_TRUE((*created)->PutObject("blob", Blob(1500, 'z')).ok());
    ASSERT_TRUE((*created)->Sync().ok());
  }
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), {});
  }
  for (size_t size = 0; size < bytes.size(); size += 97) {
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(size));
    }
    auto opened = PageFile::Open(path);
    ASSERT_FALSE(opened.ok()) << "size " << size;
    EXPECT_TRUE(opened.status().IsCorruption())
        << "size " << size << ": " << opened.status().ToString();
  }
  std::remove(path.c_str());
}

TEST(PageFileTest, TrailingGarbageIsCorruption) {
  const std::string path = TempPath("msq_pf_trailing.msq");
  {
    auto created = PageFile::Create(path, 512);
    ASSERT_TRUE(created.ok());
    ASSERT_TRUE((*created)->PutObject("blob", "x").ok());
    ASSERT_TRUE((*created)->Sync().ok());
  }
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out << "extra bytes the superblock does not know about";
  }
  EXPECT_TRUE(PageFile::Open(path).status().IsCorruption());
  std::remove(path.c_str());
}

TEST(PageFileTest, ReadFaultHookFailsReads) {
  const std::string path = TempPath("msq_pf_fault.msq");
  {
    auto created = PageFile::Create(path, 512);
    ASSERT_TRUE(created.ok());
    ASSERT_TRUE((*created)->PutObject("blob", Blob(600, 'f')).ok());
    ASSERT_TRUE((*created)->Sync().ok());
  }
  auto opened = PageFile::Open(path);
  ASSERT_TRUE(opened.ok());
  PageFile& pf = **opened;
  int calls = 0;
  pf.SetReadFaultHook([&calls](uint64_t) {
    ++calls;
    return Status::IOError("injected");
  });
  std::string out;
  EXPECT_TRUE(pf.GetObject("blob", &out).IsIOError());
  EXPECT_EQ(calls, 1);
  pf.SetReadFaultHook(nullptr);
  EXPECT_TRUE(pf.GetObject("blob", &out).ok());
  std::remove(path.c_str());
}

TEST(PageFileTest, RejectsBadBlockSizeAndMissingFile) {
  EXPECT_TRUE(PageFile::Create(TempPath("msq_pf_bad.msq"), 64)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(PageFile::Open("/nonexistent/msq_pf_none.msq")
                  .status()
                  .IsIOError());
}

}  // namespace
}  // namespace msq
