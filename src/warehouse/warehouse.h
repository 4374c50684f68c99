#ifndef SDW_WAREHOUSE_WAREHOUSE_H_
#define SDW_WAREHOUSE_WAREHOUSE_H_

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "backup/backup_manager.h"
#include "backup/s3sim.h"
#include "cluster/cluster.h"
#include "cluster/cost_model.h"
#include "cluster/executor.h"
#include "cluster/wlm.h"
#include "common/fault_injector.h"
#include "common/result.h"
#include "common/thread_annotations.h"
#include "controlplane/control_plane.h"
#include "durability/commit_log.h"
#include "load/copy.h"
#include "obs/alerts.h"
#include "obs/profiler.h"
#include "obs/query_log.h"
#include "plan/planner.h"
#include "security/keychain.h"
#include "sim/engine.h"
#include "sql/parser.h"
#include "warehouse/query_cache.h"

namespace sdw::warehouse {

/// Outcome of one SQL statement.
struct StatementResult {
  /// Result rows for SELECT; empty otherwise.
  exec::Batch rows;
  std::vector<std::string> column_names;
  cluster::ExecStats exec_stats;
  /// EXPLAIN output or a human-readable confirmation.
  std::string message;
  /// COPY telemetry when the statement was a COPY.
  load::CopyStats copy_stats;
  /// The rows were served from the result cache (no slot occupied, no
  /// data touched).
  bool from_result_cache = false;

  /// Renders the rows as an aligned text table (examples/demos).
  std::string ToTable(size_t max_rows = 20) const;
};

struct WarehouseOptions {
  cluster::ClusterConfig cluster;
  plan::PlannerOptions planner;
  cluster::ExecOptions exec;
  std::string region = "us-east-1";
  std::string cluster_id = "simpledw";
  /// The §3.2 encryption checkbox: every block is ChaCha20-encrypted at
  /// rest under a per-block key wrapped by the cluster key wrapped by
  /// the master key. Backups upload the ciphertext.
  bool encrypted = false;
  /// Masked read failures on a node before the health sweep treats it
  /// as a crashing process (host-manager restart, then escalation).
  int health_read_failure_threshold = 3;
  /// Per-node host-manager policy (restart budget before escalating).
  controlplane::HostManager::Config host_manager;
  /// Live admission control for concurrent Execute() calls (§4:
  /// resources "distributed across many concurrent queries").
  cluster::WlmConfig wlm;
  /// Cost model behind the WLM's short-query-acceleration estimate
  /// (stats bytes over scan throughput — DESIGN.md §4k).
  cluster::CostModel cost_model;
  /// Compiled-segment and result caches keyed by plan fingerprint.
  CacheConfig cache;
  /// When set, the warehouse reads and writes this external object
  /// store instead of owning one. This is how crash recovery is
  /// modeled: S3 survives the "process", so a fresh Warehouse over the
  /// same S3 plus Recover() is a restart of the same cluster.
  backup::S3* shared_s3 = nullptr;
  /// RunHealthSweep() triggers an MVCC garbage-collection pass when
  /// the data plane's pending-garbage count (retired chain versions +
  /// dropped shards) reaches this threshold. 0 disables self-GC.
  int health_gc_threshold = 64;
};

/// Outcome of one health sweep (§2.2: host managers restart, the
/// control plane replaces).
struct HealthStats {
  /// Nodes that showed trouble this sweep (dead or over threshold).
  int unhealthy_nodes = 0;
  /// Local process restarts performed by host managers.
  int restarts = 0;
  /// Nodes escalated to a control-plane replacement workflow.
  int escalations = 0;
  /// Blocks copied back to two-copy during this sweep.
  uint64_t blocks_rereplicated = 0;
  /// Blocks still at one copy after the sweep (degraded but serving).
  uint64_t single_copy_blocks = 0;
  /// Blocks with no live replica (only reachable via S3 page faults).
  uint64_t lost_blocks = 0;
  /// Simulated seconds spent in control-plane replacement workflows.
  double control_plane_seconds = 0;
  /// The sweep self-triggered an MVCC GC pass (pending garbage crossed
  /// WarehouseOptions::health_gc_threshold).
  bool gc_triggered = false;
  uint64_t gc_versions_reclaimed = 0;
  uint64_t gc_blocks_reclaimed = 0;
};

/// The customer-facing endpoint: a SQL-speaking, fully-managed
/// warehouse. Wraps the leader-node pieces (parser, planner, executor)
/// plus COPY and backup/restore — the "easy to buy, easy to tune, easy
/// to manage" surface the paper argues for.
///
/// The front door is thread-safe: concurrent Execute() calls are
/// admitted into WlmConfig::concurrency_slots live slots (FIFO queue
/// beyond that, per-statement queue timeout). SELECTs run under MVCC:
/// admission pins a (cluster, cache key, shard snapshot) triple under a
/// short shared hold of the snapshot-coherence lock and scans immutable
/// block chains as of that snapshot — never blocking on, or blocked by,
/// a running COPY/VACUUM. Writers are serialized on writer_mu_, build
/// their new chains off to the side, and install them under a short
/// exclusive hold of the same coherence lock, so a snapshot is always
/// all-before or all-after a statement. Each install draws a fresh
/// commit stamp and the cache key is built from those stamps, so no
/// cache entry computed from pre-write data can ever be served after
/// the write.
class Warehouse {
 public:
  explicit Warehouse(WarehouseOptions options = {});

  /// A lightweight client connection. Statements executed through a
  /// session are tagged with its id in stl_wlm; sessions share the
  /// warehouse front door and each may be driven from its own thread.
  /// The user group feeds the WLM classifier (DESIGN.md §4k).
  class Session {
   public:
    Session() = default;

    int id() const { return id_; }
    const std::string& user_group() const { return user_group_; }
    Result<StatementResult> Execute(const std::string& sql) {
      return warehouse_->ExecuteAs(sql, id_, user_group_);
    }

   private:
    friend class Warehouse;
    Session(Warehouse* warehouse, int id, std::string user_group)
        : warehouse_(warehouse),
          id_(id),
          user_group_(std::move(user_group)) {}
    Warehouse* warehouse_ = nullptr;
    int id_ = 0;
    std::string user_group_;
  };

  /// Opens a new session (thread-safe). The user group routes the
  /// session's statements through the WLM classifier's group rules.
  Session CreateSession(std::string user_group = "");

  /// Executes one SQL statement (as the default session 0).
  Result<StatementResult> Execute(const std::string& sql);

  /// Executes an already-parsed query through the full serving path
  /// (admission + caches) — the API the differential tests drive.
  Result<StatementResult> ExecuteQuery(const plan::LogicalQuery& query);

  /// Direct-API access for tooling and benches.
  cluster::Cluster* data_plane() { return cluster_.get(); }
  backup::S3* s3() { return s3_; }
  backup::BackupManager* backups() { return &backups_; }

  /// The durable commit log (LSN-sequenced records in the object
  /// store; §2.2: "commits... are logged to S3"), always on: every
  /// acknowledged write is in it, or in a snapshot at or above its LSN.
  /// And the crash-point controller the tests arm. Once a crash fires,
  /// every entry point returns kAborted until Recover().
  durability::CommitLog* commit_log() { return &commit_log_; }
  chaos::CrashController* crash_points() { return &crash_; }
  bool crashed() const { return crash_.crashed(); }

  struct RecoverStats {
    /// Snapshot the recovered state was based on (0: none existed —
    /// the whole log replayed onto an empty cluster).
    uint64_t base_snapshot_id = 0;
    /// Commit-log records replayed on top of the base snapshot.
    uint64_t replayed_records = 0;
    /// Statements those records re-executed.
    uint64_t replayed_statements = 0;
    /// First LSN of a torn tail that was truncated (0: tail was clean).
    uint64_t torn_lsn = 0;
    backup::BackupManager::RestoreStats restore;
  };

  /// Crash recovery: resets the crash controller ("new process"),
  /// streaming-restores the commit log's recovery-base snapshot (or
  /// starts empty when none exists) and idempotently replays the log
  /// tail above the snapshot's durable-LSN watermark through the
  /// normal statement path. A torn final record (append died mid-
  /// write) is truncated — it was never acknowledged. Single-caller:
  /// run recovery to completion before serving traffic.
  Result<RecoverStats> Recover();

  /// The live admission controller (slot occupancy, queue, stl_wlm).
  cluster::AdmissionController* wlm() { return &admission_; }
  /// The plan/result caches (metrics and stv_cache back them too).
  SegmentCache* segment_cache() { return &segment_cache_; }
  ResultCache* result_cache() { return &result_cache_; }

  /// Takes a snapshot of the warehouse. Refused inside a transaction:
  /// the live heads would hold rows the log does not.
  Result<backup::BackupManager::BackupStats> Backup(bool user_initiated = false);

  /// Streaming-restores a snapshot and swaps the endpoint onto the
  /// restored cluster (queries work immediately; blocks page in from
  /// the object store on demand).
  Status RestoreInPlace(uint64_t snapshot_id,
                        backup::BackupManager::RestoreStats* stats = nullptr);

  /// Resizes the data plane: the old cluster copies to a new one and
  /// the endpoint swaps over (§3.1).
  Result<cluster::Cluster::ResizeStats> Resize(int new_num_nodes);

  /// Re-wraps every block key under a fresh cluster key (queries keep
  /// working; no data is touched). Only valid when encrypted.
  Status RotateKeys();

  /// True while a session's BEGIN is open (see Begin below).
  bool in_transaction() const {
    return in_txn_.load(std::memory_order_relaxed);
  }

  /// Key hierarchy (null when not encrypted).
  security::KeyHierarchy* keys() { return keys_.get(); }

  /// One pass of the health/recovery loop (§2.2 "escalators, not
  /// elevators"): per node, a dead store or repeated masked read
  /// failures count as a process crash — the host manager restarts it
  /// locally until its budget runs out, then escalates to the control
  /// plane's node-replacement workflow. Every sweep re-replicates
  /// under-replicated blocks and reports remaining degradation; a
  /// single-copy cluster keeps serving with a warning (degrade, don't
  /// fail). Requires a replicated cluster.
  Result<HealthStats> RunHealthSweep();

  /// Control-plane access for tooling and benches.
  controlplane::ControlPlane* control_plane() { return &control_plane_; }
  sim::Engine* health_engine() { return &health_engine_; }

  /// Observability: the per-warehouse query history behind stl_query /
  /// stl_span and the health-event history behind stl_health_events.
  /// Both are also queryable through Execute() as system tables, and
  /// each history keeps its newest obs::kHistoryBytes.
  obs::QueryLog* query_log() { return &query_log_; }
  obs::History<obs::HealthEvent>* event_log() { return &event_log_; }

  /// Workload intelligence: per-scan telemetry (stl_scan), live
  /// statement progress (stv_inflight), sweep gauge samples
  /// (stv_gauge_history), and performance alerts
  /// (stl_alert_event_log). All four are queryable through Execute().
  obs::History<obs::ScanRecord>* scan_log() { return &scan_log_; }
  obs::InflightRegistry* inflight() { return &inflight_; }
  obs::History<obs::GaugeSample>* gauges() { return &gauges_; }
  obs::History<obs::AlertEvent>* alerts() { return &alerts_; }

  /// One MVCC garbage-collection sweep over the data plane: reclaims
  /// retired chain versions and dropped tables no pinned snapshot can
  /// reach anymore (VACUUM and DROP also collect inline).
  cluster::Cluster::GcStats CollectGarbage();

 private:
  /// Everything one SELECT needs pinned at admission: the data plane it
  /// runs on (restore/resize swap the pointer; pinned readers keep the
  /// old one alive), the cache key, and the shard snapshot the scans
  /// read. All three are captured under one shared hold of data_mu_,
  /// and the key's stamps are read off the pinned versions, so it
  /// describes exactly the chains the snapshot pinned.
  struct PinnedSnapshot {
    std::shared_ptr<cluster::Cluster> cluster;
    CacheKey key;
    std::shared_ptr<const cluster::ReadSnapshot> snapshot;
  };
  [[nodiscard]] Result<PinnedSnapshot> PinSnapshot(
      const std::vector<std::string>& tables) SDW_EXCLUDES(data_mu_);

  /// The cache key of `tables` as of the live heads: what a pin taken
  /// now would report, read without taking one (the result cache's hit
  /// path).
  CacheKey LiveKey(const std::vector<std::string>& tables) const
      SDW_REQUIRES_SHARED(data_mu_);

  /// Installs the encrypt/decrypt transforms on every node store of the
  /// current cluster (called at creation, after resize and restore).
  void WireEncryption();
  void WireEncryptionOn(cluster::Cluster* target);

  /// (Re)creates one host manager per node of the current cluster
  /// (called at creation and after restore/resize swap the cluster).
  void SyncHostManagers();

  /// The session-tagged front door behind Execute()/Session::Execute().
  Result<StatementResult> ExecuteAs(const std::string& sql, int session_id,
                                    const std::string& user_group = "");

  /// Repudiation makes the data unreadable, including what memory still
  /// holds (decoded blocks, cached results): once the keys are gone the
  /// front door refuses every statement but system-table reads, with
  /// the status a block decryption would return.
  Status RefuseIfRepudiated() const;

  /// A user-table SELECT (or EXPLAIN [ANALYZE]) through admission and
  /// the caches; executes against a pinned MVCC snapshot, off every
  /// warehouse lock.
  Result<StatementResult> RunSelect(const plan::LogicalQuery& query,
                                    bool explain, bool explain_analyze,
                                    const std::string& sql_text,
                                    int session_id,
                                    const std::string& user_group);

  /// Every non-SELECT statement: admission, then writer_mu_ for the
  /// whole statement; heavy work (parse, sort, encode) runs off
  /// data_mu_ on staged chains, and only the install takes data_mu_
  /// exclusively.
  Result<StatementResult> RunStatement(sql::Statement stmt,
                                       const std::string& sql,
                                       int session_id,
                                       const std::string& user_group);

  /// Cost-model scan estimate for the short-query fast lane: stats
  /// bytes of the referenced tables over per-slice scan throughput.
  /// Returns -1 (never SQA-eligible) when SQA is off or no stats exist.
  double EstimateSelectSeconds(const std::vector<std::string>& tables)
      SDW_EXCLUDES(data_mu_);

  /// Transactions (§2.1: the leader "coordinates serialization and
  /// state of transactions"), owned by the session that ran BEGIN. BEGIN
  /// captures an in-memory manifest of every block chain; ROLLBACK swaps
  /// the chains back (blocks are immutable, so pre-transaction blocks
  /// are still on the device). DROP TABLE, VACUUM, backup, restore and
  /// resize are refused inside a transaction.
  Status Begin(int session_id) SDW_REQUIRES(writer_mu_);
  Status Commit() SDW_REQUIRES(writer_mu_);
  Status Rollback() SDW_REQUIRES(writer_mu_);
  /// kFailedPrecondition when another session's transaction is open:
  /// its writes, BEGIN, COMMIT and ROLLBACK change nothing (reads run).
  Status RefuseOtherSessions(int session_id) const SDW_REQUIRES(writer_mu_);
  /// Forgets the open transaction (COMMIT, ROLLBACK, recovery).
  void EndTransaction() SDW_REQUIRES(writer_mu_);

  /// What CommitWrite installs under its one exclusive data_mu_ hold.
  /// At most one member is set; none for ANALYZE and COMMIT.
  struct Install {
    /// Staged shard heads (INSERT, COPY, VACUUM).
    cluster::StagedWrite* staged = nullptr;
    /// A catalog change (CREATE, DROP).
    std::function<Status()> apply;
    /// A data plane to swap in (restore, resize); moves the generation.
    std::shared_ptr<cluster::Cluster> cluster;
  };
  /// The one commit step of every write, log before install (DESIGN.md
  /// §4i): crash site pre-log, append `record` (an owner's statement in
  /// the open transaction is buffered for COMMIT instead), crash site
  /// post-log-pre-install, install (mid-install fires after the first
  /// staged head), crash site post-install-pre-ack. While the log
  /// replays it neither logs nor crashes. Callers validate and stage
  /// before it and run post-install work (ANALYZE, GC) after it.
  Status CommitWrite(durability::LogRecord record, Install install)
      SDW_REQUIRES(writer_mu_) SDW_EXCLUDES(data_mu_);
  /// Re-executes one log record through the normal front door.
  Status ApplyLogRecord(const durability::LogRecord& record,
                        RecoverStats* stats);
  Status RecoverInternal(RecoverStats* stats);

  WarehouseOptions options_;
  std::unique_ptr<security::ServiceKeyProvider> master_provider_;
  std::unique_ptr<security::KeyHierarchy> keys_;
  std::atomic<bool> in_txn_{false};
  backup::SnapshotManifest txn_manifest_;
  /// Statement texts buffered inside the open transaction; COMMIT
  /// appends them as one atomic kTransaction log record. Guarded by
  /// writer_mu_ in spirit (same regime as txn_manifest_).
  std::vector<std::string> txn_statements_;
  /// The data plane. shared_ptr: restore/resize swap it while pinned
  /// readers finish on the old one (it dies when the last drains).
  std::shared_ptr<cluster::Cluster> cluster_;
  /// The object store: owned by default, external when
  /// WarehouseOptions::shared_s3 points at one (crash-recovery tests
  /// restart "the process" as a fresh Warehouse over the same S3).
  backup::S3 owned_s3_;
  backup::S3* const s3_;
  backup::BackupManager backups_;
  durability::CommitLog commit_log_;
  chaos::CrashController crash_;
  /// Recovery in progress: the front door returns kUnavailable to
  /// everyone except the replay path itself.
  std::atomic<bool> recovering_{false};
  std::atomic<bool> replaying_{false};
  /// Highest LSN whose effects are in the live data plane — the
  /// idempotency guard replay skips through.
  std::atomic<uint64_t> applied_lsn_{0};
  sim::Engine health_engine_;
  controlplane::ControlPlane control_plane_{&health_engine_};
  std::vector<controlplane::HostManager> host_managers_;
  obs::QueryLog query_log_;
  obs::History<obs::HealthEvent> event_log_;
  obs::History<obs::ScanRecord> scan_log_;
  obs::InflightRegistry inflight_;
  obs::History<obs::GaugeSample> gauges_;
  obs::History<obs::AlertEvent> alerts_;

  /// Lock order: admission slot -> writer_mu_ -> data_mu_ (then the
  /// caches' and data plane's internal locks, leaf-level).
  ///
  /// writer_mu_ serializes whole mutating statements (DDL/DML/COPY/
  /// VACUUM), transactions, backups, cluster swaps and health sweeps —
  /// it is never taken by SELECTs, so writers exclude each other
  /// without blocking readers.
  ///
  /// data_mu_ is the snapshot-coherence lock, held only for moments:
  /// readers take it shared to pin {cluster_, cache key, shard
  /// snapshot} as one coherent triple (or, on a result-cache hit, just
  /// to read the key); writers take it exclusive just to install
  /// already-prepared chains (or swap cluster_ and bump generation_).
  /// No I/O, parsing, sorting or encoding ever happens under it.
  /// txn_manifest_ / host_managers_ are guarded by writer_mu_ in spirit
  /// but deliberately not annotated — single-threaded tooling
  /// (data_plane(), benches) reads them lock-free by design.
  mutable common::Mutex writer_mu_ SDW_ACQUIRED_BEFORE(data_mu_){
      common::LockRank::kWarehouseWriter};
  mutable common::SharedMutex data_mu_{common::LockRank::kWarehouseData};
  /// The session whose BEGIN opened the transaction.
  int txn_session_ SDW_GUARDED_BY(writer_mu_) = 0;
  /// Counts cluster_ swaps. A swapped-in cluster draws its commit
  /// stamps afresh, so the cache key carries the generation too.
  uint64_t generation_ SDW_GUARDED_BY(data_mu_) = 0;

  cluster::AdmissionController admission_;
  SegmentCache segment_cache_;
  ResultCache result_cache_;
  std::atomic<int> next_session_id_{1};
};

}  // namespace sdw::warehouse

#endif  // SDW_WAREHOUSE_WAREHOUSE_H_
