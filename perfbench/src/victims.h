// LiveSet: the ingest workload's own tally of which object every live id
// holds, kept valid across the auto-checkpoints that renumber ids.
//
// MetricDatabase ids are dense positions: an insert takes the next id, a
// delete tombstones one, and a fold (Compact, or a checkpoint tripped by
// an Insert/Delete) renumbers the survivors densely in id order — base
// order, then insertion order. The benchmark mirrors exactly that, so a
// victim it picks is always a live id and the object there is the one it
// expects.

#ifndef PERFBENCH_VICTIMS_H_
#define PERFBENCH_VICTIMS_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "core/database.h"
#include "dist/vector.h"

namespace perfbench {

class LiveSet {
 public:
  /// Ids [0, base_n) are live and hold keys [0, base_n).
  explicit LiveSet(size_t base_n);

  /// An insert of the object with `key` took the next id; returns it.
  msq::ObjectId Append(uint64_t key);
  /// `id` was tombstoned. It must be live.
  void Remove(msq::ObjectId id);
  /// The database folded its overlay: survivors are renumbered densely
  /// in id order.
  void Fold();

  /// A uniformly random live id.
  msq::ObjectId Pick(msq::Rng& rng) const;

  bool live(msq::ObjectId id) const {
    return id < key_of_id_.size() && key_of_id_[id] >= 0;
  }
  /// Key of the object at a live id.
  uint64_t key(msq::ObjectId id) const {
    return static_cast<uint64_t>(key_of_id_[id]);
  }
  size_t size() const { return live_ids_.size(); }
  /// Ids ever assigned since the last fold (live or tombstoned).
  size_t total() const { return key_of_id_.size(); }
  /// Live ids, in no particular order.
  const std::vector<msq::ObjectId>& live_ids() const { return live_ids_; }

 private:
  std::vector<int64_t> key_of_id_;  // -1 = tombstoned
  std::vector<msq::ObjectId> live_ids_;
  std::vector<size_t> pos_of_id_;  // index into live_ids_
};

/// True when the Insert or Delete just applied to `db` folded its overlay
/// (an auto-checkpoint): right after a mutation the overlay is empty only
/// then.
bool Folded(const msq::MetricDatabase& db);

}  // namespace perfbench

#endif  // PERFBENCH_VICTIMS_H_
