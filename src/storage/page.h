// Page identifiers and storage constants.
//
// The storage layer is a *simulated* disk: objects live in memory, and
// "reading a page" charges the disk model and the buffer pool. The paper's
// I/O metric is the number of disk accesses (Sec. 1); counting them exactly
// — split into sequential and random accesses, which the paper's
// `determine_relevant_data_pages` explicitly orders to minimize seeks —
// reproduces its I/O cost curves deterministically.

#ifndef MSQ_STORAGE_PAGE_H_
#define MSQ_STORAGE_PAGE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace msq {

/// Identifier of a data page within one backend's page file.
using PageId = uint32_t;

/// Sentinel for "no page".
inline constexpr PageId kInvalidPageId = 0xffffffffu;

/// Default page size: 32 KB, the X-tree block size used in Sec. 6.
inline constexpr size_t kDefaultPageSizeBytes = 32 * 1024;

/// Per-object on-page overhead (object id + length/label bookkeeping)
/// assumed when deriving page capacity from the page size.
inline constexpr size_t kPerObjectOverheadBytes = 8;

/// Set of page ids as a dense bitmap, one bit per id below the largest id
/// inserted so far (it grows on demand, never shrinks). Page ids are dense
/// per backend, so a set costs num_pages / 8 bytes at most, and membership
/// is a shift and a mask instead of a hash probe.
class PageSet {
 public:
  bool count(PageId page) const {
    const size_t word = page / 64;
    return word < words_.size() && ((words_[word] >> (page % 64)) & 1u) != 0;
  }
  void insert(PageId page) {
    const size_t word = page / 64;
    if (word >= words_.size()) words_.resize(word + 1, 0);
    words_[word] |= uint64_t{1} << (page % 64);
  }
  void erase(PageId page) {
    const size_t word = page / 64;
    if (word < words_.size()) words_[word] &= ~(uint64_t{1} << (page % 64));
  }

 private:
  std::vector<uint64_t> words_;
};

/// Number of objects that fit on one data page for vectors of the given
/// dimensionality (4 bytes per component). Always at least 1.
size_t ObjectsPerPage(size_t page_size_bytes, size_t dim);

}  // namespace msq

#endif  // MSQ_STORAGE_PAGE_H_
