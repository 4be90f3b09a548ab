#include "victims.h"

#include <stdexcept>

namespace perfbench {

LiveSet::LiveSet(size_t base_n) {
  key_of_id_.resize(base_n);
  live_ids_.resize(base_n);
  pos_of_id_.resize(base_n);
  for (size_t i = 0; i < base_n; ++i) {
    key_of_id_[i] = static_cast<int64_t>(i);
    live_ids_[i] = static_cast<msq::ObjectId>(i);
    pos_of_id_[i] = i;
  }
}

msq::ObjectId LiveSet::Append(uint64_t key) {
  const auto id = static_cast<msq::ObjectId>(key_of_id_.size());
  key_of_id_.push_back(static_cast<int64_t>(key));
  pos_of_id_.push_back(live_ids_.size());
  live_ids_.push_back(id);
  return id;
}

void LiveSet::Remove(msq::ObjectId id) {
  if (!live(id)) throw std::logic_error("LiveSet::Remove of a dead id");
  const size_t pos = pos_of_id_[id];
  const msq::ObjectId moved = live_ids_.back();
  live_ids_[pos] = moved;
  pos_of_id_[moved] = pos;
  live_ids_.pop_back();
  key_of_id_[id] = -1;
}

void LiveSet::Fold() {
  std::vector<int64_t> keys;
  keys.reserve(live_ids_.size());
  for (int64_t key : key_of_id_) {
    if (key >= 0) keys.push_back(key);
  }
  key_of_id_ = std::move(keys);
  const size_t n = key_of_id_.size();
  live_ids_.resize(n);
  pos_of_id_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    live_ids_[i] = static_cast<msq::ObjectId>(i);
    pos_of_id_[i] = i;
  }
}

msq::ObjectId LiveSet::Pick(msq::Rng& rng) const {
  return live_ids_[static_cast<size_t>(rng.NextIndex(live_ids_.size()))];
}

bool Folded(const msq::MetricDatabase& db) {
  const auto v = db.CurrentVersion();
  return v->delta.size() == 0 && v->tomb_count == 0;
}

}  // namespace perfbench
