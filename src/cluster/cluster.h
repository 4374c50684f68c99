#ifndef SDW_CLUSTER_CLUSTER_H_
#define SDW_CLUSTER_CLUSTER_H_

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "cluster/cost_model.h"
#include "common/result.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"
#include "replication/replication.h"
#include "storage/block_store.h"
#include "storage/table_shard.h"

namespace sdw::cluster {

class Cluster;

/// Cluster topology and storage knobs.
struct ClusterConfig {
  int num_nodes = 2;
  /// One slice per core of the node's processor (§2.1).
  int slices_per_node = 2;
  /// Worker threads in the shared execution pool that query execution
  /// and COPY fan slice work out on. -1 sizes it from the topology
  /// (total slices, capped at the host's hardware threads); 0 disables
  /// threading entirely — every "parallel" path runs inline, which is
  /// the serial arm of the bench comparisons.
  int exec_pool_threads = -1;
  storage::StorageOptions storage;
  /// Synchronous two-copy block replication across the node stores
  /// (§2.1). Requires >= 2 nodes; silently off on a single-node
  /// cluster (nowhere to put the secondary).
  bool replicate = false;
  replication::ReplicationConfig replication;
  uint64_t replication_seed = 42;
};

/// A compute node: one block device shared by its slices, one table
/// shard per (slice, table). The slice maps are internally locked so
/// snapshot readers can resolve shards while DDL runs on another
/// thread; the shards themselves version their chains (MVCC).
class ComputeNode {
 public:
  /// `clock` is the owning cluster's commit clock; every shard created
  /// here stamps its installs from it.
  ComputeNode(int node_id, int num_slices, storage::StorageOptions options,
              storage::CommitClock* clock);
  ComputeNode(const ComputeNode&) = delete;
  ComputeNode& operator=(const ComputeNode&) = delete;

  int node_id() const { return node_id_; }
  int num_slices() const { return static_cast<int>(slices_.size()); }
  storage::BlockStore* store() { return &store_; }

  /// Creates the per-slice shards for a new table.
  Status CreateShards(const TableSchema& schema) SDW_EXCLUDES(mu_);

  /// Unlinks the table's shards from the slices and hands them to the
  /// caller. Blocks are NOT deleted here — a snapshot reader may still
  /// be scanning them; the cluster parks the shards on its dropped
  /// list until garbage collection proves them unpinned.
  Status DropShards(const std::string& table,
                    std::vector<std::shared_ptr<storage::TableShard>>* removed)
      SDW_EXCLUDES(mu_);

  /// The shard of `table` on local slice `slice`. The raw pointer is
  /// valid while the table exists; concurrent readers should take
  /// shard_ref instead.
  Result<storage::TableShard*> shard(int slice, const std::string& table)
      SDW_EXCLUDES(mu_);
  Result<std::shared_ptr<storage::TableShard>> shard_ref(
      int slice, const std::string& table) SDW_EXCLUDES(mu_);

  /// The highest head stamp among this node's shards of `table` (0 when
  /// it has none), read in place: no pin, no shared_ptr copy.
  uint64_t MaxHeadStamp(const std::string& table) const SDW_EXCLUDES(mu_);

  /// Makes every shard on this node forget its decoded blocks (the node
  /// died: its memory is gone). Sets each shard's drop flag under mu_
  /// only, so a fault trigger may call it from inside a block read that
  /// holds a shard's cache_mu_ (ranked below mu_).
  void DropDecodeCaches() SDW_EXCLUDES(mu_);

 private:
  int node_id_;
  storage::StorageOptions options_;
  storage::BlockStore store_;
  storage::CommitClock* const clock_;
  mutable common::Mutex mu_{common::LockRank::kComputeNode};
  std::vector<std::map<std::string, std::shared_ptr<storage::TableShard>>>
      slices_ SDW_GUARDED_BY(mu_);
};

/// The tables a statement reads, pinned at one point in time: for each
/// table, one ShardRef per global slice. Scans resolve their shard and
/// version from here instead of the live maps, so a concurrent
/// DROP/COPY/VACUUM can neither change what the statement sees nor
/// reclaim the blocks under it.
///
/// Pinning itself is not atomic against concurrent installs — the
/// warehouse takes its data lock in shared mode around PinTables while
/// writers install under the exclusive mode, which is what makes the
/// pinned view statement-consistent.
struct ReadSnapshot {
  std::map<std::string, std::vector<storage::ShardRef>> tables;

  /// The pinned ref of (table, global slice), or nullptr if the table
  /// was not pinned (e.g. dropped before the pin).
  const storage::ShardRef* Find(const std::string& table, int slice) const;

  /// The highest commit stamp among `table`'s pinned versions (0 when
  /// the table was not pinned).
  uint64_t Stamp(const std::string& table) const;
};

/// Chain versions built off to the side by one mutating statement
/// (INSERT/COPY/VACUUM). Blocks are written to the stores at prepare
/// time, but no reader can see them until Cluster::CommitStaged
/// installs every pending head — the statement becomes visible
/// atomically. Destroying an uncommitted StagedWrite aborts it: the
/// prepared blocks are deleted again.
class StagedWrite {
 public:
  explicit StagedWrite(Cluster* cluster) : cluster_(cluster) {}
  ~StagedWrite();
  StagedWrite(const StagedWrite&) = delete;
  StagedWrite& operator=(const StagedWrite&) = delete;

 private:
  friend class Cluster;

  struct Pending {
    std::shared_ptr<storage::TableShard> shard;
    /// The head the statement built on — Install's expected version.
    storage::ShardSnapshot base;
    /// The staged replacement (chains appends across multiple runs).
    storage::PreparedVersion next;
  };

  Pending* Find(const storage::TableShard* shard);

  Cluster* cluster_;
  std::vector<Pending> pending_;
  bool committed_ = false;
};

/// The data plane of one warehouse: a leader-side catalog plus compute
/// nodes partitioned into slices (§2.1, Figure 3). Rows are distributed
/// EVEN / KEY / ALL across slices on insert and sorted per slice by the
/// table's sort style. Query execution lives in QueryExecutor.
class Cluster {
 public:
  explicit Cluster(ClusterConfig config);

  const ClusterConfig& config() const { return config_; }
  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  int total_slices() const {
    return num_nodes() * config_.slices_per_node;
  }

  Catalog* catalog() { return &catalog_; }
  const Catalog* catalog() const { return &catalog_; }
  ComputeNode* node(int i) { return nodes_[i].get(); }

  /// The shared slice-execution pool (never null; with
  /// exec_pool_threads = 0 it has no workers and runs tasks inline).
  common::ThreadPool* pool() { return pool_.get(); }

  /// Maps a global slice index to its (node, local slice).
  ComputeNode* NodeOfSlice(int global_slice) {
    return nodes_[global_slice / config_.slices_per_node].get();
  }
  int LocalSlice(int global_slice) const {
    return global_slice % config_.slices_per_node;
  }

  /// The shard of `table` on global slice `slice`.
  Result<storage::TableShard*> shard(int global_slice,
                                     const std::string& table);
  Result<std::shared_ptr<storage::TableShard>> shard_ref(
      int global_slice, const std::string& table);

  /// Pins the current version of every slice shard of `tables` into
  /// `out`. Tables missing from the catalog are skipped (the planner
  /// reports them). See ReadSnapshot for the atomicity contract.
  Status PinTables(const std::vector<std::string>& tables, ReadSnapshot* out);

  /// The highest commit stamp among `table`'s shard heads right now (0:
  /// no such table) — what ReadSnapshot::Stamp would report for a pin
  /// taken at this instant, without taking one. Every install draws a
  /// fresh stamp, so it moves whenever any shard of the table installs.
  uint64_t HeadStamp(const std::string& table) const;

  /// DDL. DropTable unlinks the table immediately but defers block
  /// deletion to CollectGarbage so pinned snapshot readers finish
  /// their scans.
  Status CreateTable(const TableSchema& schema);
  Status DropTable(const std::string& table);

  /// Distributes one run of rows across slices per the table's
  /// DISTSTYLE, sorts each slice's portion per its SORTKEY, and stages
  /// the appends. With `staged` the new blocks stay invisible until the
  /// caller's CommitStaged; without it the insert stages into its own
  /// StagedWrite and commits it before returning. A value its column
  /// cannot hold (CheckIntLaneValue) is kInvalidArgument naming the
  /// column. Rejected while the cluster is read-only (§3.1).
  Status InsertRows(const std::string& table,
                    const std::vector<ColumnVector>& columns,
                    StagedWrite* staged = nullptr) SDW_EXCLUDES(mu_);

  /// Recomputes table statistics (row count, min/max, NDV estimate)
  /// from the stored data — the ANALYZE that COPY runs implicitly —
  /// then re-installs every shard head unchanged, so the fresh stamps
  /// move the cache key of every query over the table and no plan
  /// lowered against the old stats is served again.
  Status Analyze(const std::string& table);

  /// Re-sorts and rewrites every slice's shard. Each COPY sorts its own
  /// run, so a table loaded in many increments accumulates overlapping
  /// sorted runs whose zone maps prune poorly; VACUUM merges them back
  /// into one fully-sorted region (the paper's §3.2 future work makes
  /// this self-triggering; here it is the classic user-initiated op).
  /// With `staged` the rewrite is prepared but not installed; without
  /// it the rewrite stages into its own StagedWrite, commits it, and
  /// reclaims unpinned old versions. Returns the number of blocks
  /// rewritten.
  Result<uint64_t> Vacuum(const std::string& table,
                          StagedWrite* staged = nullptr);

  /// Installs every shard head a staged statement prepared. The caller
  /// serializes writers and brackets this with its snapshot-coherence
  /// lock so readers pin either all of the statement or none of it.
  /// `barrier`, if set, runs after each head installs (with the count
  /// installed so far) and aborts the rest of the commit on error —
  /// the chaos layer's mid-multi-shard-install crash point. Heads
  /// already installed are live (readers may pin them) and are NOT
  /// rolled back on an aborted commit: recovery replays the whole
  /// statement from the commit log.
  Status CommitStaged(StagedWrite* staged,
                      const std::function<Status(size_t)>& barrier = nullptr);

  /// Deletes the blocks a staged statement prepared (statement failed
  /// or was abandoned). Also runs from StagedWrite's destructor.
  void AbortStaged(StagedWrite* staged);

  /// Reclaims storage no snapshot can reach anymore: retired shard
  /// versions (VACUUM rewrites, rollbacks) and dropped tables whose
  /// readers have drained. Replication placements of reclaimed blocks
  /// are removed with them.
  struct GcStats {
    uint64_t versions_reclaimed = 0;
    uint64_t blocks_reclaimed = 0;
    /// Retired versions still pinned by a snapshot after the sweep.
    uint64_t versions_deferred = 0;
    uint64_t dropped_shards_reclaimed = 0;
    uint64_t dropped_shards_deferred = 0;
  };
  GcStats CollectGarbage() SDW_EXCLUDES(mu_);

  /// How much reclaimable-but-unreclaimed storage has accumulated:
  /// retired chain versions on live and dropped shards plus parked
  /// dropped shards. The health sweep thresholds on this to make GC
  /// self-triggering instead of relying on explicit calls.
  uint64_t PendingGarbage() SDW_EXCLUDES(mu_);

  /// The EVEN-distribution round-robin cursor of a table (0 when the
  /// table never inserted). Captured into backup manifests and restored
  /// before a commit-log replay so re-executed inserts land on the same
  /// slices the original run chose.
  uint64_t round_robin_cursor(const std::string& table) const
      SDW_EXCLUDES(mu_);
  void set_round_robin_cursor(const std::string& table, uint64_t cursor)
      SDW_EXCLUDES(mu_);

  /// Total rows of a table across all slices.
  Result<uint64_t> TotalRows(const std::string& table);

  /// Resize (§3.1): provisions a target cluster, puts this cluster in
  /// read-only mode, runs a parallel node-to-node copy, and returns the
  /// target. The source remains readable throughout.
  struct ResizeStats {
    uint64_t bytes_moved = 0;
    /// Modeled wall-clock of the parallel copy.
    double modeled_seconds = 0;
  };
  /// `on_target_created` (optional) runs on the freshly provisioned
  /// target before any data copies — the hook encryption uses to
  /// install its at-rest transforms.
  Result<std::unique_ptr<Cluster>> Resize(
      int new_num_nodes, ResizeStats* stats,
      const std::function<void(Cluster*)>& on_target_created = nullptr);

  bool read_only() const {
    return read_only_.load(std::memory_order_relaxed);
  }
  void set_read_only(bool ro) {
    read_only_.store(ro, std::memory_order_relaxed);
  }

  /// Interconnect accounting (bytes that crossed node boundaries).
  /// Atomic: COPY and queries may account from pool workers.
  void AddNetworkBytes(uint64_t bytes) {
    network_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  }
  uint64_t network_bytes() const {
    return network_bytes_.load(std::memory_order_relaxed);
  }

  /// Total encoded bytes stored across the cluster.
  uint64_t TotalStoredBytes() const;

  // --- fault tolerance (§2.1) ---

  /// The replication manager over the node stores, or nullptr when
  /// replication is off (single node / replicate=false).
  replication::ReplicationManager* replication() {
    return replication_.get();
  }

  /// Last-resort read path behind replication: when no live replica of
  /// a block exists, the cluster page-faults it from here (the S3
  /// streaming-restore path of §2.3). Installing a handler wires every
  /// node store's fault handler through the cluster masking chain.
  void set_page_fault_handler(storage::BlockStore::FaultHandler handler)
      SDW_EXCLUDES(mu_);

  /// Simulates whole-node loss: all the node's blocks vanish, its
  /// decode caches are dropped and the node is marked failed for
  /// replication. Queries keep working through masked reads (counted
  /// per query on the span tree, process-wide by
  /// sdw_cluster_masked_reads / _s3_fault_reads); the warehouse health
  /// sweep recovers it. Safe to call from a read-fault trigger.
  void FailNode(int node);

  /// Local read failures observed on a node since the last reset — the
  /// health signal the warehouse sweep thresholds on.
  uint64_t node_read_failures(int node) const {
    return node_read_failures_[node].load(std::memory_order_relaxed);
  }
  void ResetNodeReadFailures(int node) {
    node_read_failures_[node].store(0, std::memory_order_relaxed);
  }

 private:
  /// Resize's copy: creates every table on `target` and inserts each
  /// shard's rows there, adding the bytes read to *bytes_moved.
  Status CopyTablesTo(Cluster* target, uint64_t* bytes_moved);

  /// Routes every node store's read-miss through the masking chain:
  /// secondary replica first, then the page-fault handler.
  void WireReadPath() SDW_EXCLUDES(mu_);

  /// The fault handler of node `node`'s store: masks a local media
  /// failure from the secondary replica, then from the page-fault
  /// (S3) path. Strikes the node's failure counter for tracked blocks.
  Result<Bytes> FaultRead(int node, storage::BlockId id) SDW_EXCLUDES(mu_);
  /// Chooses the target global slice for row i of a KEY-distributed
  /// table.
  int SliceForKey(const Datum& key) const;

  /// A dropped table's shard awaiting its last reader before its
  /// blocks leave `store`.
  struct DroppedShard {
    std::shared_ptr<storage::TableShard> shard;
    storage::BlockStore* store;
  };

  ClusterConfig config_;
  Catalog catalog_;
  /// Stamps every shard version installed anywhere in this cluster.
  storage::CommitClock commit_clock_{0};
  std::vector<std::unique_ptr<ComputeNode>> nodes_;
  std::unique_ptr<common::ThreadPool> pool_;
  std::unique_ptr<replication::ReplicationManager> replication_;
  /// Guards the cluster's mutable routing state — the per-table
  /// round-robin cursors and the page-fault handler (installed after
  /// construction, read by fault handlers on any worker) — plus the
  /// dropped-shard GC list, and serializes InsertRows end to end:
  /// cursor advance and shard appends stage (and a direct insert
  /// commits) together. The append loop only writes (store Put), so it
  /// cannot re-enter FaultRead and deadlock. FaultRead copies the handler out before invoking it —
  /// it reaches S3 / other stores and must not run under mu_.
  mutable common::Mutex mu_{common::LockRank::kClusterRouting};
  storage::BlockStore::FaultHandler page_fault_ SDW_GUARDED_BY(mu_);
  std::map<std::string, uint64_t> round_robin_ SDW_GUARDED_BY(mu_);
  std::vector<DroppedShard> dropped_ SDW_GUARDED_BY(mu_);
  std::atomic<bool> read_only_{false};
  std::atomic<uint64_t> network_bytes_{0};
  std::vector<std::atomic<uint64_t>> node_read_failures_;
};

/// Estimated wire size of a batch's columns (used for network
/// accounting of shuffles, broadcasts and leader returns).
uint64_t EstimateBytes(const std::vector<ColumnVector>& columns);

}  // namespace sdw::cluster

#endif  // SDW_CLUSTER_CLUSTER_H_
