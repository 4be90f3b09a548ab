// MetricDatabase: the public facade of the library.
//
// Owns a dataset, a metric, one storage/index backend, and the single- and
// multiple-query engines, and exposes the two operations of the paper:
//   similarity_query          (Definition 1, Figure 1)
//   multiple_similarity_query (Definition 4, Figure 4)
// plus cumulative cost statistics under a calibrated cost model.
//
// Since PR 9 the lifecycle is mutable (DESIGN.md §13): Insert/Delete may
// run concurrent with query traffic (single writer at a time, queries
// externally serialized among themselves), Compact folds the accumulated
// overlay into a fresh base build, and Save persists the compacted state.
// Each query call pins an epoch and runs against one immutable
// LiveVersion snapshot; an unmutated database behaves bit-identically to
// the pre-refactor build-once one.

#ifndef MSQ_CORE_DATABASE_H_
#define MSQ_CORE_DATABASE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/stats.h"
#include "common/status.h"
#include "core/backend.h"
#include "core/multi_query.h"
#include "core/mutable_backend.h"
#include "core/pivot_table.h"
#include "core/query.h"
#include "dataset/dataset.h"
#include "dist/metric.h"
#include "mtree/mtree.h"
#include "obs/metrics.h"
#include "scan/linear_scan.h"
#include "scan/va_file.h"
#include "storage/wal.h"
#include "xtree/xtree.h"

namespace msq {

namespace robust {
class FaultInjector;
}  // namespace robust

/// Storage/index organization of a MetricDatabase.
enum class BackendKind {
  kLinearScan,
  kXTree,
  kMTree,
  kVaFile,
};

std::string BackendKindName(BackendKind kind);

struct DatabaseOptions {
  BackendKind backend = BackendKind::kLinearScan;
  size_t page_size_bytes = kDefaultPageSizeBytes;
  /// Buffer pool size as a fraction of the organization's block count
  /// (Sec. 6 uses 10%).
  double buffer_fraction = 0.10;
  /// Cost model converting operation counts to modeled time.
  CostModel cost_model;
  MultiQueryOptions multi;
  /// Build the X-tree by repeated insertion instead of bulk loading.
  bool xtree_dynamic_build = false;
  /// LAESA-style pivot filtering (DESIGN §12). Disabled by default, so
  /// every pre-existing baseline keeps its exact counters. When enabled,
  /// Open builds a global PivotTable (an offline index build, uncharged)
  /// and arms it on both engines and the backend (M-tree hyper-rings);
  /// Save persists it as the page store's "pivots" object and Open(path)
  /// restores it — a reopened database keeps its pivot layer regardless of
  /// this flag.
  struct PivotFilterOptions {
    bool enabled = false;
    PivotTableOptions table;
  } pivots;
  /// When set, the backend is wrapped in a robust::FaultInjectingBackend
  /// driven by this injector (crashes, flaky page reads, latency spikes).
  /// The injector is shared so a test / cluster driver can flip faults on a
  /// live database. Unset (the default) leaves the backend unwrapped —
  /// fault handling then costs nothing at all. Since PR 10 the injector
  /// also covers the write side: every pwrite/fsync/rename of
  /// Save/Checkpoint and the WAL routes through it.
  std::shared_ptr<robust::FaultInjector> fault_injector;
  /// Crash-consistent durability (DESIGN §14). Off by default: an
  /// in-memory database behaves exactly as before. With wal_enabled, a
  /// database bound to a file (by Save or Open(path)) appends every
  /// Insert/Delete to `<path>.wal` before publishing it, Open replays the
  /// log over the checkpoint, and Checkpoint() folds the overlay into a
  /// new atomic checkpoint and truncates the log.
  struct DurabilityOptions {
    bool wal_enabled = false;
    WalFsyncPolicy wal_fsync_policy = WalFsyncPolicy::kEveryRecord;
    /// Records per fsync under WalFsyncPolicy::kEveryN.
    size_t wal_fsync_every_n = 32;
    /// Auto-checkpoint when the WAL grows past this many bytes (0 = off).
    /// This is the background compaction policy of ROADMAP item 2: the
    /// checkpoint runs on the writer's thread, synchronously, under the
    /// writer mutex — queries in flight keep their pinned snapshots.
    uint64_t auto_checkpoint_wal_bytes = 0;
    /// Auto-checkpoint when tombstones exceed this fraction of the total
    /// object count (0 = off).
    double auto_checkpoint_tombstone_ratio = 0.0;
  } durability;
};

/// A metric database: dataset + metric + storage organization + engines.
class MetricDatabase {
 public:
  /// Builds the database. The dataset is copied into shared ownership;
  /// the metric must match the dataset's dimensionality.
  static StatusOr<std::unique_ptr<MetricDatabase>> Open(
      Dataset dataset, std::shared_ptr<const Metric> metric,
      const DatabaseOptions& options);

  /// Persists the database as one page-store file: data pages first (a
  /// full scan is a sequential pass), then the index blob, labels, and
  /// metadata. Open(path) restores it without rebuilding anything.
  ///
  /// Atomic since PR 10: the store is written to `<path>.tmp`, fsynced,
  /// renamed over `path`, and the directory fsynced — a crash at any
  /// point leaves either the old file or the new one, intact. Save also
  /// binds the database to `path`: with durability.wal_enabled a fresh
  /// `<path>.wal` is attached and subsequent mutations are logged.
  Status Save(const std::string& path);

  /// Folds the accumulated overlay into a new atomic checkpoint at the
  /// bound path (the one Save or Open(path) used) and truncates the WAL.
  /// No-op when nothing was mutated. The swap is crash-consistent: each
  /// checkpoint carries a fresh nonce stored in both the file's metadata
  /// and the WAL header, so a crash between checkpoint-rename and
  /// WAL-truncate leaves a stale log that recovery discards instead of
  /// replaying twice.
  Status Checkpoint();

  /// Opens a database saved with Save. Structural options — backend kind,
  /// page size, buffer fraction — come from the file; `runtime` supplies
  /// the rest (cost model, multi-query knobs, fault injector, index
  /// tuning). The metric is reconstructed from its stored name for the
  /// parameterless built-ins; pass `metric` explicitly for parameterized
  /// metrics (its Name() must match the stored one). Page reads of the
  /// returned database are real positioned reads against the file, routed
  /// through the buffer pool.
  static StatusOr<std::unique_ptr<MetricDatabase>> Open(
      const std::string& path,
      const DatabaseOptions& runtime = DatabaseOptions(),
      std::shared_ptr<const Metric> metric = nullptr);

  // --- query construction ---------------------------------------------
  /// Fresh-id queries for external points.
  Query MakeRangeQuery(Vec point, double eps);
  Query MakeKnnQuery(Vec point, size_t k);
  Query MakeBoundedKnnQuery(Vec point, size_t k, double eps);
  /// Queries whose query object is a database object; the query id is the
  /// object id, so the answer buffer recognizes repeats (the mining
  /// engines rely on this).
  Query MakeObjectKnnQuery(ObjectId id, size_t k) const;
  Query MakeObjectRangeQuery(ObjectId id, double eps) const;

  // --- the paper's two operations ---------------------------------------
  /// DB.similarity_query(Q, T): complete answers for one query.
  StatusOr<AnswerSet> SimilarityQuery(const Query& query);

  /// DB.multiple_similarity_query(Queries, SimTypes): the first query is
  /// answered completely, the others at least partially (Definition 4).
  StatusOr<MultiQueryResult> MultipleSimilarityQuery(
      const std::vector<Query>& queries);

  /// Completes every query of the batch via incremental calls. A batch
  /// wider than multi.max_batch_size is ResourceExhausted.
  StatusOr<std::vector<AnswerSet>> MultipleSimilarityQueryAll(
      const std::vector<Query>& queries);

  /// The one batch driver for a list of queries of any length: answers[i]
  /// belongs to queries[i]. batch_size == 1 runs one SimilarityQuery per
  /// query — the Fig. 1 baseline, no cross-query buffering (a 1-query
  /// engine call could be answered from the answer buffer and charge
  /// different counters). A larger batch_size runs consecutive blocks of
  /// min(batch_size, multi.max_batch_size) queries through
  /// MultipleSimilarityQueryAll, which is the Fig. 3 form of every mining
  /// algorithm. Returns the first failing call's status; batch_size == 0
  /// is InvalidArgument.
  StatusOr<std::vector<AnswerSet>> AnswerInBatches(
      const std::vector<Query>& queries, size_t batch_size);

  /// Fault-tolerant variant of MultipleSimilarityQueryAll: per-query
  /// statuses instead of first-error-wins, and partial answers for queries
  /// whose deadline expired. See MultiQueryEngine::ExecuteAllPartial.
  StatusOr<BatchResult> MultipleSimilarityQueryAllPartial(
      const std::vector<Query>& queries);

  // --- online mutability (DESIGN §13) -----------------------------------
  // Writers are serialized against each other internally and may run
  // concurrent with the (externally serialized) query stream. Ids are
  // dense and stable between compactions; Compact renumbers survivors
  // (base order, then insertion order) — callers holding object ids
  // across a Compact must re-resolve them.

  /// Appends an object to the in-memory delta segment. Queries observe it
  /// from the next call on. Returns the new object's id — when an
  /// auto-checkpoint threshold trips on this very insert, that is the
  /// *post-fold* id (the fold renumbers survivors; the returned id is
  /// always valid at return time). Ids obtained from *earlier* calls
  /// follow the Compact renumbering rule below: with auto-checkpointing
  /// armed, any mutation may invalidate them.
  StatusOr<ObjectId> Insert(Vec point, int32_t label = kNoLabel);

  /// Tombstones an object (base or delta tier). The last live object
  /// cannot be deleted (an empty database cannot be compacted or rebuilt).
  /// With auto-checkpointing armed, a tripped threshold folds the overlay
  /// before returning — ids held across this call must be re-resolved.
  Status Delete(ObjectId id);

  /// Folds delta + tombstones into a fresh base build (same backend kind,
  /// options, pivot configuration and fault wiring), publishing it as the
  /// next version. Queries in flight finish on their pinned snapshot.
  /// No-op when nothing was mutated. On a durability-armed database (WAL
  /// attached, or wal_enabled and file-bound) this is a full Checkpoint():
  /// the renumbered base must land on disk before any post-compaction WAL
  /// record can reference the new id space, otherwise crash recovery would
  /// replay those records against the pre-compaction checkpoint.
  Status Compact();

  /// The snapshot queries would run against right now.
  std::shared_ptr<const LiveVersion> CurrentVersion() const;
  size_t NumLiveObjects() const { return CurrentVersion()->live_objects(); }
  size_t NumDeltaObjects() const { return CurrentVersion()->delta.size(); }
  size_t NumTombstones() const { return CurrentVersion()->tomb_count; }
  uint64_t MutationGeneration() const { return CurrentVersion()->generation; }
  /// The reader-epoch machinery (introspection: limbo depth, reclaim lag).
  EpochManager& epochs() { return overlay_->epochs(); }

  // --- durability introspection (DESIGN §14) ----------------------------
  /// What (if anything) the last Open(path) replayed from the WAL.
  struct RecoveryInfo {
    /// A non-empty WAL was replayed over the checkpoint.
    bool recovered = false;
    uint64_t replayed_records = 0;
    /// A torn/corrupt WAL tail was dropped at the first bad frame.
    bool wal_tail_truncated = false;
    /// The WAL predated the checkpoint (nonce mismatch) and was discarded.
    bool wal_stale_discarded = false;
  };
  const RecoveryInfo& recovery() const { return recovery_; }
  /// The file this database checkpoints to ("" until Save/Open(path)).
  /// By value under writer_mu_: safe to call from a monitoring thread
  /// concurrent with writers (a Save may rebind the path).
  std::string bound_path() const {
    std::lock_guard<std::mutex> lock(writer_mu_);
    return bound_path_;
  }
  /// Current WAL file size (0 when no WAL is attached). Takes writer_mu_:
  /// a checkpoint on the writer thread swaps the WAL object out while a
  /// monitoring thread polls this.
  uint64_t WalSizeBytes() const {
    std::lock_guard<std::mutex> lock(writer_mu_);
    return wal_ == nullptr ? 0 : wal_->size_bytes();
  }
  bool wal_attached() const {
    std::lock_guard<std::mutex> lock(writer_mu_);
    return wal_ != nullptr;
  }

  // --- accounting -------------------------------------------------------
  const QueryStats& stats() const { return stats_; }
  void ResetStats() { stats_ = QueryStats(); }
  /// Also clears buffered answers, the query-distance cache, the buffer
  /// pool and the disk head (cold restart between experiments).
  void ResetAll();

  double ModeledIoMillis() const { return stats_.IoMillis(cost_model()); }
  double ModeledCpuMillis() const {
    return stats_.CpuMillis(cost_model(), dataset_->dim());
  }
  double ModeledTotalMillis() const {
    return ModeledIoMillis() + ModeledCpuMillis();
  }

  // --- access -----------------------------------------------------------
  /// The dataset the database was opened with (the original base; stable
  /// across mutations — the *current* object set is
  /// CurrentVersion()->base_dataset plus its delta).
  const Dataset& dataset() const { return *dataset_; }
  const Metric& metric() const { return *metric_; }
  std::shared_ptr<const Metric> metric_ptr() const { return metric_; }
  std::shared_ptr<const Dataset> dataset_ptr() const { return dataset_; }
  /// The mutability decorator (delegates to the current version's base).
  QueryBackend& backend() { return *backend_; }
  MultiQueryEngine& engine() { return *engine_; }
  /// The armed pivot table of the current version; null when pivot
  /// filtering is off.
  std::shared_ptr<const PivotTable> pivot_table() const {
    return CurrentVersion()->pivots;
  }
  const CostModel& cost_model() const { return options_.cost_model; }
  const DatabaseOptions& options() const { return options_; }

 private:
  MetricDatabase(std::shared_ptr<const Dataset> dataset,
                 std::shared_ptr<const Metric> metric,
                 DatabaseOptions options);

  /// One database-level read call: an epoch pin plus the snapshot every
  /// backend access of the call resolves against. Construction also
  /// re-wires the engine (buffer reset + pivot attach) when the version
  /// generation moved since the engine was last wired.
  struct ReadSession {
    EpochManager::Guard guard;
    std::shared_ptr<const LiveVersion> version;
    MutableBackend* overlay = nullptr;
    ReadSession() = default;
    ReadSession(const ReadSession&) = delete;
    ReadSession& operator=(const ReadSession&) = delete;
    ~ReadSession() {
      if (overlay != nullptr) overlay->ClearActive();
    }
  };
  void BeginRead(ReadSession* session);

  /// Shared tail of both Open overloads: wraps the base backend (already
  /// fault-wrapped by BuildBaseBackend) in the mutability layer, builds
  /// the multi-query engine, and wires the observability sink.
  void WireEngine(std::unique_ptr<QueryBackend> base);

  /// Arms `table` on the engine and the backend (both see the same table).
  void ArmPivots(std::shared_ptr<const PivotTable> table);

  /// Compact() body; callers hold writer_mu_.
  Status CompactLocked();

  // --- durability internals (callers hold writer_mu_) -------------------
  /// Writes the current (storeless) base as a page store at `tmp_path`.
  Status WriteStoreLocked(const std::string& tmp_path, uint64_t nonce);
  /// Atomic checkpoint write: temp + fsync + rename + dir fsync. On
  /// success checkpoint_nonce_ is the new nonce. `rename_attempted`
  /// (optional) is set when the rename ran — on failure past that point
  /// the new nonce may already be durable at `path`.
  Status SaveLocked(const std::string& path,
                    bool* rename_attempted = nullptr);
  /// Checkpoint() body: compact, SaveLocked(bound_path_), swap the WAL.
  Status CheckpointLocked();
  /// Binds the database to `path` and attaches (or removes) the WAL
  /// according to durability options.
  Status BindDurabilityLocked(const std::string& path);
  /// Appends one mutation to the WAL (no-op without one; an error when
  /// durability is armed but the WAL is gone — mutations must not be
  /// silently undurable).
  Status LogMutationLocked(const WalRecord& record);
  /// Fires CheckpointLocked when an auto-checkpoint threshold trips.
  /// Returns true when a fold was published (ids renumbered) — even if
  /// the checkpoint's save then failed — so Insert can return a post-fold
  /// id.
  bool MaybeAutoCheckpointLocked();

  std::shared_ptr<const Dataset> dataset_;
  std::shared_ptr<const Metric> metric_;
  DatabaseOptions options_;
  std::unique_ptr<QueryBackend> backend_;  // the MutableBackend decorator
  MutableBackend* overlay_ = nullptr;      // owned by backend_
  std::unique_ptr<MultiQueryEngine> engine_;
  QueryStats stats_;
  std::atomic<QueryId> next_query_id_;

  /// Serializes Insert/Delete/Compact/Save against each other (writers
  /// never block queries). mutable: the const durability accessors
  /// (bound_path, WalSizeBytes, wal_attached) lock it too.
  mutable std::mutex writer_mu_;
  /// Generation the engine was last wired for; query-side state, touched
  /// only under the external query serialization.
  uint64_t engine_generation_ = 0;

  struct MutationInstruments {
    obs::Counter* inserts = nullptr;
    obs::Counter* deletes = nullptr;
    obs::Counter* compactions = nullptr;
    obs::Counter* checkpoints = nullptr;
    obs::Counter* recoveries = nullptr;
    obs::Counter* wal_replayed = nullptr;
    obs::Gauge* tombstones_live = nullptr;
    obs::Gauge* delta_objects = nullptr;
    obs::Gauge* epoch_reclaim_lag = nullptr;
  };
  MutationInstruments mutation_metrics_;
  /// Updates the mutation gauges from `v` (no-op without a registry).
  void PublishMutationGauges(const LiveVersion& v);

  // --- durability state (guarded by writer_mu_) -------------------------
  std::string bound_path_;
  uint64_t checkpoint_nonce_ = 0;
  std::unique_ptr<Wal> wal_;
  RecoveryInfo recovery_;
};

}  // namespace msq

#endif  // MSQ_CORE_DATABASE_H_
