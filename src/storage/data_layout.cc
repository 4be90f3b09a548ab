#include "storage/data_layout.h"

#include <cassert>
#include <cmath>
#include <cstring>
#include <sstream>
#include <string>

#include "common/serialize.h"

namespace msq {

namespace {

// Tags of the store objects written by SaveToStore.
constexpr uint32_t kPageTag = 0x45474150;     // "PAGE"
constexpr uint32_t kPageDirTag = 0x52494450;  // "PDIR"
constexpr uint32_t kPageDirVersion = 1;

/// The stored "pages" directory: per page its object count and extent.
struct PageDirectory {
  uint32_t dim = 0;
  uint64_t total_objects = 0;
  std::vector<uint32_t> counts;
  std::vector<PageFileExtent> extents;  // parallel to counts
};

/// Reads and validates the "pages" directory of `store`. Entries are
/// appended as they are read, so a lying page count stops at the end of
/// the object instead of sizing an allocation.
Status ReadPageDirectory(const PageFile& store, PageDirectory* out) {
  std::string dir_bytes;
  MSQ_RETURN_IF_ERROR(store.GetObject("pages", &dir_bytes));
  std::istringstream dir(dir_bytes);
  MSQ_RETURN_IF_ERROR(ExpectTag(dir, kPageDirTag, "page directory"));
  uint32_t version = 0;
  uint64_t num_pages = 0;
  MSQ_RETURN_IF_ERROR(ReadU32(dir, &version));
  if (version != kPageDirVersion) {
    return Status::NotSupported("unsupported page directory version");
  }
  MSQ_RETURN_IF_ERROR(ReadU32(dir, &out->dim));
  MSQ_RETURN_IF_ERROR(ReadU64(dir, &num_pages));
  MSQ_RETURN_IF_ERROR(ReadU64(dir, &out->total_objects));
  // Pages are non-empty, and object ids are dense u32s; anything else is a
  // lying directory (the CRC passed, but the content is still validated).
  if (out->dim == 0 || out->total_objects == 0 || num_pages == 0 ||
      num_pages > out->total_objects || out->total_objects >= kInvalidPageId) {
    return Status::Corruption("page directory counts out of bounds");
  }
  out->counts.clear();
  out->extents.clear();
  for (uint64_t p = 0; p < num_pages; ++p) {
    uint32_t count = 0;
    PageFileExtent extent;
    MSQ_RETURN_IF_ERROR(ReadU32(dir, &count));
    MSQ_RETURN_IF_ERROR(ReadU64(dir, &extent.first_block));
    MSQ_RETURN_IF_ERROR(ReadU32(dir, &extent.num_blocks));
    MSQ_RETURN_IF_ERROR(ReadU32(dir, &extent.byte_length));
    MSQ_RETURN_IF_ERROR(ReadU32(dir, &extent.crc));
    if (count == 0) return Status::Corruption("empty stored page");
    out->counts.push_back(count);
    out->extents.push_back(extent);
  }
  if (dir.peek() != std::istringstream::traits_type::eof()) {
    return Status::Corruption("trailing bytes after page directory");
  }
  return Status::OK();
}

/// Unaligned views into one PAGE payload (copy out with memcpy).
struct PagePayload {
  const char* ids = nullptr;   // `count` ObjectIds
  const char* rows = nullptr;  // `count * dim` Scalars, row-major
};

/// Decodes the PAGE payload `bytes` of page `page`: checks the tag, page id
/// and dimensionality, that it holds exactly `count` ids and `count * dim`
/// scalars, and that nothing trails them. Reads the payload in place.
Status DecodePagePayload(const std::string& bytes, uint64_t page, size_t dim,
                         size_t count, PagePayload* out) {
  const char* cur = bytes.data();
  size_t left = bytes.size();
  const auto read_u32 = [&cur, &left](uint32_t* v) {
    if (left < sizeof(*v)) return false;
    std::memcpy(v, cur, sizeof(*v));
    cur += sizeof(*v);
    left -= sizeof(*v);
    return true;
  };
  uint32_t tag = 0, stored_page = 0, stored_dim = 0, id_count = 0;
  if (!read_u32(&tag) || tag != kPageTag) {
    return Status::Corruption("bad page payload tag");
  }
  if (!read_u32(&stored_page) || stored_page != page) {
    return Status::Corruption("page payload id mismatch");
  }
  if (!read_u32(&stored_dim) || stored_dim != dim) {
    return Status::Corruption("page payload dimensionality mismatch");
  }
  const size_t id_bytes = count * sizeof(ObjectId);
  if (!read_u32(&id_count) || id_count != count || left < id_bytes) {
    return Status::Corruption("page payload id list malformed");
  }
  out->ids = cur;
  cur += id_bytes;
  left -= id_bytes;
  uint32_t row_count = 0;
  const uint64_t want_rows = static_cast<uint64_t>(count) * dim;
  if (!read_u32(&row_count) || row_count != want_rows ||
      left != want_rows * sizeof(Scalar)) {
    return Status::Corruption("page payload rows malformed");
  }
  out->rows = cur;
  return Status::OK();
}

}  // namespace

size_t ObjectsPerPage(size_t page_size_bytes, size_t dim) {
  const size_t per_object = dim * sizeof(Scalar) + kPerObjectOverheadBytes;
  const size_t n = page_size_bytes / per_object;
  return n == 0 ? 1 : n;
}

DataLayout DataLayout::Sequential(size_t num_objects, size_t objects_per_page,
                                  size_t buffer_pages) {
  assert(objects_per_page > 0);
  DataLayout layout;
  layout.buffer_ = BufferPool(buffer_pages);
  layout.page_of_.resize(num_objects);
  for (size_t start = 0; start < num_objects; start += objects_per_page) {
    const size_t end =
        start + objects_per_page < num_objects ? start + objects_per_page
                                               : num_objects;
    std::vector<ObjectId> page;
    page.reserve(end - start);
    for (size_t i = start; i < end; ++i) {
      page.push_back(static_cast<ObjectId>(i));
      layout.page_of_[i] = static_cast<PageId>(layout.pages_.size());
    }
    layout.pages_.push_back(std::move(page));
  }
  return layout;
}

DataLayout DataLayout::FromGroups(std::vector<std::vector<ObjectId>> groups,
                                  size_t buffer_pages) {
  DataLayout layout;
  layout.buffer_ = BufferPool(buffer_pages);
  size_t num_objects = 0;
  for (const auto& g : groups) {
    for (ObjectId id : g) {
      if (id >= num_objects) num_objects = id + 1;
    }
  }
  layout.page_of_.assign(num_objects, kInvalidPageId);
  for (auto& g : groups) {
    const PageId pid = static_cast<PageId>(layout.pages_.size());
    for (ObjectId id : g) layout.page_of_[id] = pid;
    layout.pages_.push_back(std::move(g));
  }
  return layout;
}

void DataLayout::MaterializeRows(size_t dim, const std::vector<Vec>& objects) {
  dim_ = dim;
  row_data_.clear();
  row_data_.reserve(pages_.size());
  tile_data_.clear();
  tile_data_.reserve(pages_.size());
  for (const std::vector<ObjectId>& page : pages_) {
    std::vector<Scalar> rows;
    rows.reserve(page.size() * dim);
    for (ObjectId id : page) {
      assert(id < objects.size() && objects[id].size() == dim);
      rows.insert(rows.end(), objects[id].begin(), objects[id].end());
    }
    tile_data_.push_back(MakeVecBlockTiles(rows.data(), dim, page.size()));
    row_data_.push_back(std::move(rows));
  }
}

Status DataLayout::ReadBlock(PageId page, QueryStats* stats, PageBlock* out) {
  if (page >= pages_.size()) {
    return Status::InvalidArgument("page id out of range");
  }
  assert(page < row_data_.size());
  if (store_ == nullptr) {
    if (!buffer_.Access(page, stats)) disk_.RecordRead(page, stats);
  } else if (!buffer_.Lookup(page, stats)) {
    const Status st = EnsurePageLoaded(page);
    if (!st.ok()) {
      // Evict-on-failure: the page must not look resident, or a retry
      // would be billed as a buffer hit without ever re-reading.
      buffer_.Evict(page);
      DropPayload(page);
      disk_.RecordFailedRead(stats);
      return st;
    }
    disk_.RecordRead(page, stats);
    AdmitLoaded(page);
  }
  const std::vector<ObjectId>& ids = pages_[page];
  out->ids = ids.data();
  out->vecs = VecBlock{row_data_[page].data(), dim_, ids.size(),
                       tile_data_[page].data()};
  return Status::OK();
}

Status DataLayout::SaveToStore(PageFile* store) const {
  if (!has_rows() || dim_ == 0) {
    return Status::InvalidArgument(
        "layout has no materialized rows to persist");
  }
  std::vector<PageFileExtent> extents;
  extents.reserve(pages_.size());
  uint64_t total_objects = 0;
  for (size_t p = 0; p < pages_.size(); ++p) {
    std::ostringstream payload;
    MSQ_RETURN_IF_ERROR(WriteU32(payload, kPageTag));
    MSQ_RETURN_IF_ERROR(WriteU32(payload, static_cast<uint32_t>(p)));
    MSQ_RETURN_IF_ERROR(WriteU32(payload, static_cast<uint32_t>(dim_)));
    MSQ_RETURN_IF_ERROR(WriteVector(payload, pages_[p]));
    MSQ_RETURN_IF_ERROR(WriteVector(payload, row_data_[p]));
    const std::string bytes = payload.str();
    StatusOr<PageFileExtent> extent =
        store->AppendExtent(bytes.data(), bytes.size());
    if (!extent.ok()) return extent.status();
    extents.push_back(*extent);
    total_objects += pages_[p].size();
  }
  std::ostringstream dir;
  MSQ_RETURN_IF_ERROR(WriteU32(dir, kPageDirTag));
  MSQ_RETURN_IF_ERROR(WriteU32(dir, kPageDirVersion));
  MSQ_RETURN_IF_ERROR(WriteU32(dir, static_cast<uint32_t>(dim_)));
  MSQ_RETURN_IF_ERROR(WriteU64(dir, pages_.size()));
  MSQ_RETURN_IF_ERROR(WriteU64(dir, total_objects));
  for (size_t p = 0; p < pages_.size(); ++p) {
    MSQ_RETURN_IF_ERROR(
        WriteU32(dir, static_cast<uint32_t>(pages_[p].size())));
    MSQ_RETURN_IF_ERROR(WriteU64(dir, extents[p].first_block));
    MSQ_RETURN_IF_ERROR(WriteU32(dir, extents[p].num_blocks));
    MSQ_RETURN_IF_ERROR(WriteU32(dir, extents[p].byte_length));
    MSQ_RETURN_IF_ERROR(WriteU32(dir, extents[p].crc));
  }
  return store->PutObject("pages", dir.str());
}

Status DataLayout::AttachStore(std::shared_ptr<PageFile> store) {
  if (store == nullptr) return Status::InvalidArgument("null store");
  if (dim_ == 0 || row_data_.size() != pages_.size()) {
    return Status::InvalidArgument(
        "attach requires a materialized layout (call MaterializeRows)");
  }
  PageDirectory dir;
  MSQ_RETURN_IF_ERROR(ReadPageDirectory(*store, &dir));
  if (dir.dim != dim_ || dir.counts.size() != pages_.size() ||
      dir.total_objects != page_of_.size()) {
    return Status::Corruption("page directory disagrees with the layout");
  }
  for (size_t p = 0; p < pages_.size(); ++p) {
    if (dir.counts[p] != pages_[p].size()) {
      return Status::Corruption("stored page size disagrees with layout");
    }
  }
  store_ = std::move(store);
  extents_ = std::move(dir.extents);
  loaded_.assign(pages_.size(), 0);
  last_loaded_ = kInvalidPageId;
  for (size_t p = 0; p < pages_.size(); ++p) DropPayload(static_cast<PageId>(p));
  buffer_.Clear();
  return Status::OK();
}

Status DataLayout::LoadStoredObjects(const PageFile& store, size_t* dim_out,
                                     std::vector<Vec>* objects) {
  PageDirectory dir;
  MSQ_RETURN_IF_ERROR(ReadPageDirectory(store, &dir));
  const size_t dim = dir.dim;
  const size_t total = static_cast<size_t>(dir.total_objects);
  objects->assign(total, Vec());
  std::vector<uint8_t> seen(total, 0);
  uint64_t objects_seen = 0;
  std::vector<ObjectId> ids;
  std::vector<Scalar> rows;
  for (size_t p = 0; p < dir.counts.size(); ++p) {
    const size_t count = dir.counts[p];
    std::string bytes;
    MSQ_RETURN_IF_ERROR(store.ReadExtent(dir.extents[p], &bytes));
    PagePayload payload;
    MSQ_RETURN_IF_ERROR(DecodePagePayload(bytes, p, dim, count, &payload));
    ids.resize(count);
    rows.resize(count * dim);
    std::memcpy(ids.data(), payload.ids, ids.size() * sizeof(ObjectId));
    std::memcpy(rows.data(), payload.rows, rows.size() * sizeof(Scalar));
    for (size_t i = 0; i < count; ++i) {
      const ObjectId id = ids[i];
      if (id >= total || seen[id]) {
        return Status::Corruption("object id out of range or duplicated");
      }
      seen[id] = 1;
      (*objects)[id].assign(rows.begin() + i * dim,
                            rows.begin() + (i + 1) * dim);
    }
    objects_seen += count;
  }
  if (objects_seen != total) {
    return Status::Corruption("stored pages do not cover every object");
  }
  *dim_out = dim;
  return Status::OK();
}

Status DataLayout::EnsurePageLoaded(PageId page) {
  if (loaded_[page]) return Status::OK();
  std::string bytes;
  MSQ_RETURN_IF_ERROR(store_->ReadExtent(extents_[page], &bytes));
  const std::vector<ObjectId>& ids = pages_[page];
  PagePayload payload;
  MSQ_RETURN_IF_ERROR(
      DecodePagePayload(bytes, page, dim_, ids.size(), &payload));
  if (std::memcmp(payload.ids, ids.data(), ids.size() * sizeof(ObjectId)) !=
      0) {
    return Status::Corruption("page payload ids disagree with layout");
  }
  std::vector<Scalar> rows(ids.size() * dim_);
  std::memcpy(rows.data(), payload.rows, rows.size() * sizeof(Scalar));
  tile_data_[page] = MakeVecBlockTiles(rows.data(), dim_, ids.size());
  row_data_[page] = std::move(rows);
  loaded_[page] = 1;
  return Status::OK();
}

void DataLayout::DropPayload(PageId page) {
  if (page == kInvalidPageId) return;
  std::vector<Scalar>().swap(row_data_[page]);
  std::vector<Scalar>().swap(tile_data_[page]);
  loaded_[page] = 0;
  if (last_loaded_ == page) last_loaded_ = kInvalidPageId;
}

void DataLayout::AdmitLoaded(PageId page) {
  if (buffer_.capacity() == 0) {
    if (last_loaded_ != kInvalidPageId && last_loaded_ != page) {
      DropPayload(last_loaded_);
    }
    last_loaded_ = page;
    return;
  }
  PageId evicted = kInvalidPageId;
  buffer_.Admit(page, &evicted);
  if (evicted != kInvalidPageId) DropPayload(evicted);
}

const std::vector<ObjectId>& DataLayout::Peek(PageId page) const {
  assert(page < pages_.size());
  return pages_[page];
}

PageId DataLayout::PageOf(ObjectId object) const {
  assert(object < page_of_.size());
  return page_of_[object];
}

void DataLayout::ResetIoState() {
  buffer_.Clear();
  disk_.Reset();
  if (store_ != nullptr) {
    for (size_t p = 0; p < pages_.size(); ++p) {
      DropPayload(static_cast<PageId>(p));
    }
    store_->ResetIoStats();
  }
}

Status DataLayout::CheckInvariants() const {
  std::vector<uint8_t> seen(page_of_.size(), 0);
  for (size_t p = 0; p < pages_.size(); ++p) {
    if (pages_[p].empty()) {
      return Status::Corruption("empty data page " + std::to_string(p));
    }
    for (ObjectId id : pages_[p]) {
      if (id >= page_of_.size()) {
        return Status::Corruption("object id out of range");
      }
      if (page_of_[id] != static_cast<PageId>(p)) {
        return Status::Corruption("page_of mismatch for object " +
                                  std::to_string(id));
      }
      if (seen[id]) {
        return Status::Corruption("object " + std::to_string(id) +
                                  " stored on more than one page");
      }
      seen[id] = 1;
    }
  }
  for (size_t i = 0; i < seen.size(); ++i) {
    if (!seen[i]) {
      return Status::Corruption("object " + std::to_string(i) +
                                " not stored on any page");
    }
  }
  return Status::OK();
}

}  // namespace msq
