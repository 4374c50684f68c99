#include "warehouse/warehouse.h"

#include <algorithm>
#include <set>
#include <utility>

#include "common/hash.h"
#include "common/logging.h"
#include "obs/registry.h"
#include "plan/fingerprint.h"
#include "sim/stopwatch.h"
#include "warehouse/system_tables.h"

namespace sdw::warehouse {

namespace {

/// Renders a pinned key's stamps for stl_query's snapshot column:
/// "fact@3 dim@1".
std::string FormatStamps(const CacheKey& key) {
  std::string out;
  for (const auto& [table, stamp] : key.stamps) {
    if (!out.empty()) out += " ";
    out += table + "@" + std::to_string(stamp);
  }
  return out;
}

/// Renders one datum for the text table.
std::string Cell(const Datum& value) {
  if (value.is_null()) return "NULL";
  if (value.type() == TypeId::kString) return value.string_value();
  return value.ToString();
}

/// Admits, or records a "timeout" stl_wlm row when admission fails so
/// cancelled statements show up in the history too. The controller
/// fills the timeout report itself — the accrued queued_seconds across
/// every queue the caller hopped through, not the configured timeout.
Result<cluster::AdmissionController::Slot> AdmitOrReport(
    cluster::AdmissionController* admission,
    const cluster::AdmitRequest& request) {
  cluster::AdmissionController::Report timeout_report;
  Result<cluster::AdmissionController::Slot> slot =
      admission->Admit(request, &timeout_report);
  if (!slot.ok() && !timeout_report.state.empty()) {
    admission->Record(std::move(timeout_report));
  }
  return slot;
}

/// Records one stl_wlm row when the scope ends, whatever the exit path
/// (success, error, early return). The state starts out "error" and is
/// upgraded on success; exec time is measured by the scope's lifetime.
class WlmReportScope {
 public:
  WlmReportScope(cluster::AdmissionController* admission, int session_id,
                 std::string statement,
                 const cluster::AdmissionController::Slot& slot)
      : admission_(admission) {
    report_.session_id = session_id;
    report_.statement = std::move(statement);
    report_.state = "error";
    report_.queued_seconds = slot.queued_seconds();
    report_.queue = slot.queue();
    report_.hops = slot.hops();
  }
  ~WlmReportScope() {
    report_.exec_seconds = timer_.Seconds();
    admission_->Record(std::move(report_));
  }
  WlmReportScope(const WlmReportScope&) = delete;
  WlmReportScope& operator=(const WlmReportScope&) = delete;

  void set_state(const std::string& state) { report_.state = state; }

 private:
  cluster::AdmissionController* admission_;
  cluster::AdmissionController::Report report_;
  sim::Stopwatch timer_;
};

}  // namespace

std::string StatementResult::ToTable(size_t max_rows) const {
  const size_t ncols = rows.num_columns();
  if (ncols == 0) return message + "\n";
  const size_t nrows = std::min<size_t>(rows.num_rows(), max_rows);
  std::vector<std::vector<std::string>> cells(nrows + 1);
  std::vector<size_t> widths(ncols, 0);
  for (size_t c = 0; c < ncols; ++c) {
    std::string name =
        c < column_names.size() ? column_names[c] : "col" + std::to_string(c);
    widths[c] = name.size();
    cells[0].push_back(std::move(name));
  }
  for (size_t r = 0; r < nrows; ++r) {
    for (size_t c = 0; c < ncols; ++c) {
      std::string cell = Cell(rows.columns[c].DatumAt(r));
      widths[c] = std::max(widths[c], cell.size());
      cells[r + 1].push_back(std::move(cell));
    }
  }
  std::string out;
  for (size_t r = 0; r < cells.size(); ++r) {
    for (size_t c = 0; c < ncols; ++c) {
      out += cells[r][c];
      out.append(widths[c] - cells[r][c].size() + 2, ' ');
    }
    out += "\n";
    if (r == 0) {
      for (size_t c = 0; c < ncols; ++c) {
        out.append(widths[c], '-');
        out.append(2, ' ');
      }
      out += "\n";
    }
  }
  if (rows.num_rows() > nrows) {
    out += "... (" + std::to_string(rows.num_rows()) + " rows total)\n";
  } else {
    out += "(" + std::to_string(rows.num_rows()) + " rows)\n";
  }
  return out;
}

Warehouse::Warehouse(WarehouseOptions options)
    : options_(options),
      cluster_(std::make_shared<cluster::Cluster>(options.cluster)),
      s3_(options.shared_s3 != nullptr ? options.shared_s3 : &owned_s3_),
      backups_(s3_, options.region, options.cluster_id),
      commit_log_(s3_, options.region, options.cluster_id),
      admission_(options.wlm),
      segment_cache_(options.cache.segment_cache_entries,
                     MakeCacheMetrics("sdw_cache_segment")),
      result_cache_(options.cache.result_cache_entries,
                    MakeCacheMetrics("sdw_cache_result")) {
  if (options_.encrypted) {
    master_provider_ = std::make_unique<security::ServiceKeyProvider>(
        Hash64(std::string_view(options_.cluster_id)));
    auto hierarchy = security::KeyHierarchy::Create(master_provider_.get());
    SDW_CHECK(hierarchy.ok()) << hierarchy.status();
    keys_ = std::make_unique<security::KeyHierarchy>(
        std::move(hierarchy).ValueOrDie());
    WireEncryption();
  }
  control_plane_.set_event_log(&event_log_);
  commit_log_.set_crash_controller(&crash_);
  SyncHostManagers();
}

Warehouse::Session Warehouse::CreateSession(std::string user_group) {
  return Session(this, next_session_id_.fetch_add(1), std::move(user_group));
}

Status Warehouse::CommitWrite(durability::LogRecord record,
                              Install install) {
  // Replay neither logs nor crashes: the crash already happened, and
  // recovery must run to completion.
  const bool live = !replaying_.load(std::memory_order_relaxed);
  auto crash_point = [&](const char* site) {
    return live ? crash_.AtSite(site) : Status::OK();
  };
  SDW_RETURN_IF_ERROR(crash_point(durability::kCrashPreLog));
  if (live) {
    using Kind = durability::LogRecord::Kind;
    if (record.kind == Kind::kStatement && in_transaction()) {
      // Durability happens at COMMIT: the whole batch becomes one
      // atomic kTransaction record (a crash before then rolls back
      // everything — nothing was logged). Only the owner's statements
      // get here: RunStatement refuses every other session's.
      SDW_DCHECK(record.session_id == txn_session_);
      txn_statements_.push_back(std::move(record.statements.front()));
    } else if (record.kind != Kind::kTransaction ||
               !record.statements.empty()) {
      SDW_ASSIGN_OR_RETURN(uint64_t lsn,
                           commit_log_.Append(std::move(record)));
      applied_lsn_.store(lsn, std::memory_order_relaxed);
    }
  }
  SDW_RETURN_IF_ERROR(crash_point(durability::kCrashPostLogPreInstall));
  if (install.staged != nullptr || install.apply || install.cluster) {
    common::WriterMutexLock data_lock(data_mu_);
    if (install.apply) SDW_RETURN_IF_ERROR(install.apply());
    if (install.staged != nullptr) {
      SDW_RETURN_IF_ERROR(cluster_->CommitStaged(
          install.staged, [&](size_t installed) {
            return installed == 1 ? crash_point(durability::kCrashMidInstall)
                                  : Status::OK();
          }));
    }
    if (install.cluster != nullptr) {
      // Its stamps start over, so the new generation keeps every cached
      // entry from matching again. In-flight SELECTs finish on the old
      // cluster they pinned; it is freed when the last of them drains.
      cluster_ = std::move(install.cluster);
      ++generation_;
    }
  }
  return crash_point(durability::kCrashPreAck);
}

void Warehouse::SyncHostManagers() {
  host_managers_.clear();
  for (int n = 0; n < cluster_->num_nodes(); ++n) {
    host_managers_.emplace_back(options_.host_manager);
  }
}

Result<Warehouse::PinnedSnapshot> Warehouse::PinSnapshot(
    const std::vector<std::string>& tables) {
  // The short shared hold that makes MVCC reads coherent: a writer
  // installs (CommitStaged) under the exclusive mode, so the {cluster,
  // key, chains} triple pinned here is all-before or all-after any
  // statement, never a mix.
  common::ReaderMutexLock data_lock(data_mu_);
  PinnedSnapshot pin;
  pin.cluster = cluster_;
  auto snapshot = std::make_shared<cluster::ReadSnapshot>();
  SDW_RETURN_IF_ERROR(pin.cluster->PinTables(tables, snapshot.get()));
  pin.key.generation = generation_;
  for (const std::string& t : tables) {
    pin.key.stamps.emplace_back(t, snapshot->Stamp(t));
  }
  pin.snapshot = std::move(snapshot);
  return pin;
}

CacheKey Warehouse::LiveKey(const std::vector<std::string>& tables) const {
  CacheKey key;
  key.generation = generation_;
  for (const std::string& t : tables) {
    key.stamps.emplace_back(t, cluster_->HeadStamp(t));
  }
  return key;
}

cluster::Cluster::GcStats Warehouse::CollectGarbage() {
  common::MutexLock statement_lock(writer_mu_);
  if (!crash_.Down().ok()) return {};
  return cluster_->CollectGarbage();
}

Result<HealthStats> Warehouse::RunHealthSweep() {
  // One sweep at a time, serialized with writers and cluster swaps on
  // writer_mu_ — but NOT on data_mu_: queries keep running (and keep
  // masking failed reads) while the sweep diagnoses, re-replicates and
  // waits out control-plane replacement workflows. Only the per-node
  // rewire below takes data_mu_ exclusively, and only for an instant.
  // (This used to hold data_mu_ exclusive across ReplaceNode's modeled
  // minutes-long workflow, stalling every query behind a sweep.)
  common::MutexLock statement_lock(writer_mu_);
  SDW_RETURN_IF_ERROR(crash_.Down());
  replication::ReplicationManager* repl = cluster_->replication();
  if (repl == nullptr) {
    return Status::FailedPrecondition(
        "health sweep requires a replicated cluster (set "
        "ClusterConfig::replicate with >= 2 nodes)");
  }
  // Gauge the pre-sweep state first: queue depth, cache hit rates, GC
  // backlog, degradation — the time series stv_gauge_history serves,
  // plus the sweep-time threshold alerts.
  obs::GaugeSample sample;
  sample.tick = query_log_.now();
  sample.wlm_queued = static_cast<int>(admission_.queued());
  sample.wlm_running = admission_.running();
  sample.wlm_max_in_flight = admission_.max_in_flight();
  sample.result_cache_hit_rate = result_cache_.hit_rate();
  sample.segment_cache_hit_rate = segment_cache_.hit_rate();
  sample.gc_backlog = cluster_->PendingGarbage();
  sample.degraded_blocks = repl->CountSingleCopyBlocks();
  for (const cluster::AdmissionController::QueueStats& queue :
       admission_.queue_stats()) {
    obs::GaugeSample::QueueGauge gauge;
    gauge.name = queue.name;
    gauge.slots = queue.slots;
    gauge.queued = static_cast<int>(queue.queued);
    gauge.running = queue.running;
    gauge.max_in_flight = queue.max_in_flight;
    sample.queues.push_back(std::move(gauge));
  }
  gauges_.Append(sample);
  obs::SweepAlertInputs sweep_inputs;
  sweep_inputs.tick = sample.tick;
  sweep_inputs.sample = sample;
  sweep_inputs.wlm_slots = admission_.config().concurrency_slots;
  sweep_inputs.gc_threshold =
      options_.health_gc_threshold > 0
          ? static_cast<uint64_t>(options_.health_gc_threshold)
          : 0;
  alerts_.Append(obs::EvaluateSweepAlerts(sweep_inputs));

  HealthStats stats;
  std::vector<int> to_replace;
  for (int n = 0; n < cluster_->num_nodes(); ++n) {
    const bool dead = repl->IsNodeFailed(n);
    const bool flaky =
        cluster_->node_read_failures(n) >=
        static_cast<uint64_t>(options_.health_read_failure_threshold);
    if (!dead && !flaky) {
      host_managers_[n].OnHeartbeat();
      continue;
    }
    ++stats.unhealthy_nodes;
    if (dead) {
      // No process left to restart: straight to replacement.
      to_replace.push_back(n);
      continue;
    }
    // Repeated masked read failures look like a crashing/sick process:
    // the host manager restarts it locally until its budget runs out.
    if (host_managers_[n].OnProcessCrash()) {
      ++stats.restarts;
      event_log_.Append(obs::HealthEvent{
          .source = "host_manager", .kind = "restart", .node = n,
          .value = static_cast<double>(cluster_->node_read_failures(n)),
          .detail = "process restart after repeated masked read failures"});
      cluster_->ResetNodeReadFailures(n);
    } else {
      SDW_LOG(Warning) << "node " << n
                       << " exceeded its restart budget; escalating to "
                          "control-plane replacement";
      event_log_.Append(obs::HealthEvent{
          .source = "host_manager", .kind = "escalate", .node = n,
          .detail = "restart budget exhausted"});
      repl->FailNode(n);
      to_replace.push_back(n);
    }
  }

  // Heal what can be healed before (and regardless of) replacements:
  // every under-replicated block with a healthy peer gets its second
  // copy back.
  SDW_ASSIGN_OR_RETURN(int rereplicated, repl->ReReplicate());
  stats.blocks_rereplicated = static_cast<uint64_t>(rereplicated);
  if (rereplicated > 0) {
    event_log_.Append(obs::HealthEvent{
        .source = "sweep", .kind = "rereplicate",
        .value = static_cast<double>(rereplicated),
        .detail = "blocks copied back to two-copy"});
  }

  for (int n : to_replace) {
    // The replacement workflow (provision, attach, handshake) is the
    // slow part — it runs off the data lock, queries unblocked.
    controlplane::OpResult op = control_plane_.ReplaceNode();
    ++stats.escalations;
    stats.control_plane_seconds += op.seconds;
    // Rewiring the node in is quick: a brief exclusive hold keeps any
    // in-flight read from straddling the restore. The replacement node
    // comes up empty but healthy; the next sweep's ReReplicate()
    // refills it.
    common::WriterMutexLock data_lock(data_mu_);
    repl->RestoreNode(n);
    cluster_->ResetNodeReadFailures(n);
    host_managers_[n] = controlplane::HostManager(options_.host_manager);
  }

  stats.single_copy_blocks = repl->CountSingleCopyBlocks();
  stats.lost_blocks = repl->CountLostBlocks();
  if (stats.single_copy_blocks > 0) {
    SDW_LOG(Warning) << stats.single_copy_blocks
                     << " blocks at a single copy (degraded mode: serving "
                        "continues, next sweep re-replicates)";
    event_log_.Append(obs::HealthEvent{
        .source = "sweep", .kind = "degraded",
        .value = static_cast<double>(stats.single_copy_blocks),
        .detail = "blocks at a single copy after sweep"});
  }

  // Self-triggering MVCC GC: once retired versions and dropped shards
  // pile past the threshold, this sweep reclaims them — VACUUM/DROP
  // already collect inline, but retirees parked behind a since-drained
  // reader pin otherwise wait for someone to call CollectGarbage() by
  // hand. A still-pinned snapshot keeps deferring its blocks (GC never
  // touches pinned chains), so the sweep stays safe under live readers.
  const uint64_t pending = cluster_->PendingGarbage();
  if (options_.health_gc_threshold > 0 &&
      pending >= static_cast<uint64_t>(options_.health_gc_threshold)) {
    cluster::Cluster::GcStats gc = cluster_->CollectGarbage();
    stats.gc_triggered = true;
    stats.gc_versions_reclaimed = gc.versions_reclaimed;
    stats.gc_blocks_reclaimed = gc.blocks_reclaimed;
    event_log_.Append(obs::HealthEvent{
        .source = "sweep", .kind = "gc",
        .value = static_cast<double>(gc.blocks_reclaimed),
        .detail = "self-triggered GC at pending-garbage " +
                  std::to_string(pending)});
  }
  return stats;
}

void Warehouse::WireEncryption() { WireEncryptionOn(cluster_.get()); }

void Warehouse::WireEncryptionOn(cluster::Cluster* target) {
  if (keys_ == nullptr) return;
  security::KeyHierarchy* keys = keys_.get();
  for (int n = 0; n < target->num_nodes(); ++n) {
    storage::BlockStore* store = target->node(n)->store();
    store->set_write_transform(
        [keys](storage::BlockId id, Bytes data) -> Result<Bytes> {
          return keys->EncryptBlock(id, std::move(data));
        });
    store->set_read_transform(
        [keys](storage::BlockId id, Bytes data) -> Result<Bytes> {
          return keys->DecryptBlock(id, std::move(data));
        });
  }
}

Status Warehouse::RotateKeys() {
  if (keys_ == nullptr) {
    return Status::FailedPrecondition("warehouse is not encrypted");
  }
  // Serialized with writers only: the key hierarchy is internally
  // locked, so concurrent SELECTs keep decrypting right through the
  // rewrap. Data and results are untouched — nothing installs.
  common::MutexLock statement_lock(writer_mu_);
  return keys_->RotateClusterKey();
}

Status Warehouse::RefuseOtherSessions(int session_id) const {
  if (in_transaction() && session_id != txn_session_) {
    return Status::FailedPrecondition("session " +
                                      std::to_string(txn_session_) +
                                      " has an open transaction");
  }
  return Status::OK();
}

void Warehouse::EndTransaction() {
  in_txn_.store(false, std::memory_order_relaxed);
  txn_manifest_ = backup::SnapshotManifest{};
  txn_statements_.clear();
}

Status Warehouse::Begin(int session_id) {
  // writer_mu_ excludes every mutating statement, so the captured
  // manifest is a statement boundary; readers may keep scanning their
  // own pinned snapshots throughout.
  SDW_ASSIGN_OR_RETURN(txn_manifest_, backup::CaptureManifest(cluster_.get()));
  txn_session_ = session_id;
  in_txn_.store(true, std::memory_order_relaxed);
  return Status::OK();
}

Status Warehouse::Commit() {
  // The durability point: one atomic kTransaction record for the whole
  // buffered batch (none for an empty one), whose statements installed
  // as they ran. A failed append leaves the transaction open.
  durability::LogRecord record;
  record.kind = durability::LogRecord::Kind::kTransaction;
  record.session_id = txn_session_;
  record.statements = txn_statements_;
  SDW_RETURN_IF_ERROR(CommitWrite(std::move(record), {}));
  EndTransaction();
  return Status::OK();
}

Status Warehouse::Rollback() {
  {
    common::WriterMutexLock data_lock(data_mu_);
    // Tables created inside the transaction disappear entirely (their
    // blocks linger until no snapshot pins them; DropTable collects).
    std::set<std::string> pre_txn;
    for (const auto& table : txn_manifest_.tables) {
      pre_txn.insert(table.schema.name());
    }
    for (const std::string& name : cluster_->catalog()->TableNames()) {
      if (!pre_txn.count(name)) {
        SDW_RETURN_IF_ERROR(cluster_->DropTable(name));
      }
    }
    // Pre-existing tables snap back to their captured chains, installed
    // as a NEW version on the live shards (its fresh stamp retires every
    // cache entry read inside the transaction): blocks are immutable and
    // never deleted mid-transaction, so the old chains are fully
    // intact, and a reader pinned mid-transaction keeps its own
    // version. Blocks appended during the transaction retire with the
    // replaced heads and are collected below once unpinned.
    for (const auto& table : txn_manifest_.tables) {
      const std::string& name = table.schema.name();
      SDW_RETURN_IF_ERROR(
          cluster_->catalog()->UpdateTable(name, table.schema));
      for (const auto& shard : table.shards) {
        SDW_ASSIGN_OR_RETURN(
            std::shared_ptr<storage::TableShard> live,
            cluster_->shard_ref(shard.global_slice, name));
        // Undo analyzer-assigned encodings column by column: a pinned
        // reader may be consulting the shard schema's types
        // concurrently, and those never change.
        for (size_t c = 0; c < table.schema.num_columns(); ++c) {
          live->SetColumnEncoding(c, table.schema.column(c).encoding);
        }
        SDW_RETURN_IF_ERROR(live->InstallChains(shard.chains));
      }
      TableStats stats;
      stats.row_count = table.stats_row_count;
      stats.columns.resize(table.schema.num_columns());
      cluster_->catalog()->UpdateStats(name, stats);
      // EVEN-placement cursors snap back too: the rolled-back inserts
      // must leave no trace, or the next insert's placement (and so
      // replayed history) would diverge from a run that never had the
      // transaction.
      cluster_->set_round_robin_cursor(name, table.round_robin_cursor);
    }
    EndTransaction();
  }
  cluster_->CollectGarbage();
  return Status::OK();
}

Result<StatementResult> Warehouse::Execute(const std::string& sql) {
  return ExecuteAs(sql, 0);
}

Status Warehouse::RefuseIfRepudiated() const {
  if (keys_ != nullptr && keys_->repudiated()) {
    return security::KeyHierarchy::RepudiatedStatus();
  }
  return Status::OK();
}

Result<StatementResult> Warehouse::ExecuteQuery(
    const plan::LogicalQuery& query) {
  SDW_RETURN_IF_ERROR(crash_.Down());
  SDW_RETURN_IF_ERROR(RefuseIfRepudiated());
  return RunSelect(query, /*explain=*/false, /*explain_analyze=*/false,
                   plan::CanonicalText(query), /*session_id=*/0,
                   /*user_group=*/"");
}

Result<StatementResult> Warehouse::ExecuteAs(const std::string& sql,
                                             int session_id,
                                             const std::string& user_group) {
  // A crashed warehouse is a dead process: every entry point fails
  // until Recover() brings up "the new one". While recovery replays
  // the log it owns the front door exclusively.
  SDW_RETURN_IF_ERROR(crash_.Down());
  if (recovering_.load(std::memory_order_acquire) &&
      !replaying_.load(std::memory_order_relaxed)) {
    return Status::Unavailable("warehouse is recovering");
  }
  SDW_ASSIGN_OR_RETURN(sql::Statement stmt, sql::ParseStatement(sql));
  if (auto* select = std::get_if<sql::SelectStmt>(&stmt)) {
    if (IsSystemTable(select->query.from_table)) {
      // System-table queries run on the leader against the logs/registry
      // and are not themselves recorded in stl_query (monitoring should
      // not pollute what it monitors). They also bypass admission — the
      // operator must be able to read stl_wlm while the queue is full.
      if (select->explain) {
        return Status::NotSupported(
            "EXPLAIN is not supported on system tables");
      }
      // Pin the data plane with a short shared hold, then execute off
      // the lock — every source is internally synchronized.
      std::shared_ptr<cluster::Cluster> pinned_cluster;
      SystemTableSources sources;
      {
        common::ReaderMutexLock data_lock(data_mu_);
        pinned_cluster = cluster_;
        sources.generation = generation_;
      }
      sources.query_log = &query_log_;
      sources.event_log = &event_log_;
      sources.cluster = pinned_cluster.get();
      sources.wlm = &admission_;
      sources.segment_cache = &segment_cache_;
      sources.result_cache = &result_cache_;
      sources.scan_log = &scan_log_;
      sources.inflight = &inflight_;
      sources.gauges = &gauges_;
      sources.alerts = &alerts_;
      SDW_ASSIGN_OR_RETURN(SystemQueryResult sys,
                           ExecuteSystemQuery(select->query, sources));
      StatementResult result;
      result.rows = std::move(sys.rows);
      result.column_names = std::move(sys.column_names);
      result.message = std::to_string(result.rows.num_rows()) + " rows";
      return result;
    }
    // Before the result cache: a repeated SELECT must not be answered
    // from memory after the keys are gone.
    SDW_RETURN_IF_ERROR(RefuseIfRepudiated());
    return RunSelect(select->query, select->explain, select->explain_analyze,
                     sql, session_id, user_group);
  }
  SDW_RETURN_IF_ERROR(RefuseIfRepudiated());
  return RunStatement(std::move(stmt), sql, session_id, user_group);
}

double Warehouse::EstimateSelectSeconds(
    const std::vector<std::string>& tables) {
  if (!admission_.config().enable_sqa) return -1;
  std::shared_ptr<cluster::Cluster> pinned_cluster;
  {
    common::ReaderMutexLock data_lock(data_mu_);
    pinned_cluster = cluster_;
  }
  uint64_t bytes = 0;
  for (const std::string& table : tables) {
    const TableStats stats = pinned_cluster->catalog()->GetStats(table);
    if (stats.total_bytes == 0 && stats.row_count == 0) {
      // Never analyzed: no basis for a short-query promise.
      return -1;
    }
    // ANALYZE fills total_bytes; a stats row from INSERT bookkeeping
    // may only carry row_count — assume narrow rows rather than refuse.
    bytes += stats.total_bytes > 0 ? stats.total_bytes : stats.row_count * 8;
  }
  return options_.cost_model.ScanEstimateSeconds(
      bytes, pinned_cluster->total_slices());
}

Result<StatementResult> Warehouse::RunSelect(const plan::LogicalQuery& query,
                                             bool explain,
                                             bool explain_analyze,
                                             const std::string& sql_text,
                                             int session_id,
                                             const std::string& user_group) {
  StatementResult result;
  if (explain && !explain_analyze) {
    // Plain EXPLAIN plans but does not run, occupy a slot, or touch the
    // caches. Pin the data plane briefly; planning runs off the lock
    // against the internally locked catalog.
    std::shared_ptr<cluster::Cluster> pinned_cluster;
    {
      common::ReaderMutexLock data_lock(data_mu_);
      pinned_cluster = cluster_;
    }
    plan::Planner planner(pinned_cluster->catalog(), options_.planner);
    SDW_ASSIGN_OR_RETURN(plan::PhysicalQuery physical, planner.Plan(query));
    result.message = physical.ToString();
    return result;
  }

  const std::string canonical = plan::CanonicalText(query);
  const uint64_t fingerprint = Hash64(std::string_view(canonical));
  std::vector<std::string> tables{query.from_table};
  if (query.join_table.has_value()) tables.push_back(*query.join_table);

  // Result-cache fast path: a repeat query over unchanged tables is
  // answered from memory without occupying a WLM slot. The short
  // shared hold reads the key off the live head stamps — a writer
  // installs under the exclusive mode, so a hit here can never reflect
  // pre-write data after the write. An entry this lookup finds stale
  // was invalidated by a write: that is the result-cache-repeat-miss
  // alert's trigger.
  bool repeat_cache_miss = false;
  if (options_.cache.enable_result_cache && !explain_analyze) {
    std::shared_ptr<const CachedResult> hit;
    {
      common::ReaderMutexLock data_lock(data_mu_);
      hit = result_cache_.Lookup(fingerprint, canonical, LiveKey(tables),
                                 &repeat_cache_miss);
    }
    if (hit != nullptr) {
      obs::QueryLog::Started started = query_log_.StartQuery();
      obs::QueryRecord record;
      record.query_id = started.query_id;
      record.sql_text = sql_text;
      record.start_tick = started.start_tick;
      record.status = "success";
      record.result_rows = hit->rows.num_rows();
      record.counters.rows_out = record.result_rows;
      query_log_.FinishQuery(std::move(record));
      cluster::AdmissionController::Report report;
      report.session_id = session_id;
      report.state = "result_cache";
      report.queue = "none";  // served from memory, no slot occupied
      report.statement = sql_text;
      admission_.Record(std::move(report));
      result.rows = CloneBatch(hit->rows);
      result.column_names = hit->column_names;
      result.message = std::to_string(result.rows.num_rows()) + " rows";
      result.from_result_cache = true;
      return result;
    }
  }

  // Register with stv_inflight before joining the admission queue so a
  // queued statement is visible (phase "queued") while it waits.
  obs::InflightRegistry::Ticket ticket =
      inflight_.Register(session_id, sql_text);

  cluster::AdmitRequest admit_request;
  admit_request.session_id = session_id;
  admit_request.user_group = user_group;
  admit_request.query_class = "select";
  admit_request.estimated_seconds = EstimateSelectSeconds(tables);
  admit_request.statement = sql_text;
  SDW_ASSIGN_OR_RETURN(cluster::AdmissionController::Slot slot,
                       AdmitOrReport(&admission_, admit_request));
  WlmReportScope report(&admission_, session_id, sql_text, slot);
  ticket.progress()->set_queued_seconds(slot.queued_seconds());
  ticket.progress()->set_phase(obs::QueryPhase::kPlan);
  sim::Stopwatch exec_timer;
  // Pin the MVCC snapshot AFTER admission: a write may have committed
  // while this statement sat in the WLM queue, and the cache entries
  // inserted below must be keyed by the stamps the scans actually
  // read — key and chains are captured as one coherent triple.
  // Execution itself holds no warehouse lock at all; concurrent
  // COPY/VACUUM install new chains alongside the pinned ones.
  SDW_ASSIGN_OR_RETURN(PinnedSnapshot pin, PinSnapshot(tables));

  std::shared_ptr<const plan::PhysicalQuery> physical;
  bool segment_hit = false;
  if (options_.cache.enable_segment_cache) {
    physical = segment_cache_.Lookup(fingerprint, canonical, pin.key);
    segment_hit = physical != nullptr;
  }
  if (physical == nullptr) {
    plan::Planner planner(pin.cluster->catalog(), options_.planner);
    SDW_ASSIGN_OR_RETURN(plan::PhysicalQuery planned, planner.Plan(query));
    auto owned =
        std::make_shared<const plan::PhysicalQuery>(std::move(planned));
    if (options_.cache.enable_segment_cache) {
      segment_cache_.Insert(fingerprint, canonical, pin.key, owned);
    }
    physical = std::move(owned);
  }

  obs::QueryLog::Started started = query_log_.StartQuery();
  obs::QueryRecord record;
  record.query_id = started.query_id;
  record.sql_text = sql_text;
  record.start_tick = started.start_tick;
  record.snapshot = FormatStamps(pin.key);
  record.queue_seconds = slot.queued_seconds();
  cluster::ExecOptions exec_options = options_.exec;
  exec_options.segment_cache_hit = segment_hit;
  exec_options.snapshot = pin.snapshot;
  exec_options.progress = ticket.progress();
  cluster::QueryExecutor executor(pin.cluster.get(), exec_options);
  Result<cluster::QueryResult> executed = executor.Execute(*physical);
  if (!executed.ok()) {
    record.status = "error";
    record.exec_seconds = exec_timer.Seconds();
    query_log_.FinishQuery(std::move(record));
    return executed.status();
  }
  cluster::QueryResult query_result = std::move(executed).ValueOrDie();
  record.status = "success";
  record.result_rows = query_result.stats.result_rows;
  record.counters.rows_out = query_result.stats.result_rows;
  record.counters.blocks_decoded = query_result.stats.blocks_decoded;
  record.counters.bytes_shuffled = query_result.stats.network_bytes;
  record.counters.masked_reads = query_result.stats.masked_reads;
  record.counters.s3_fault_reads = query_result.stats.s3_fault_reads;
  // The admission wait precedes everything the executor recorded:
  // stage -1 lays out before compile/pipelines. One deterministic tick
  // — the real queue time is wall clock and belongs to stl_wlm, never
  // to the virtual timeline.
  query_result.trace->AddSpan("wlm admit", query_result.trace->root()->span_id,
                              /*stage=*/-1);
  record.trace = query_result.trace;
  record.exec_seconds = exec_timer.Seconds();
  const double queue_seconds = record.queue_seconds;
  const double exec_seconds = record.exec_seconds;
  // FinishQuery assigns the trace's virtual timestamps, so the EXPLAIN
  // ANALYZE rendering below sees final ticks.
  const uint64_t end_tick = query_log_.FinishQuery(std::move(record));
  report.set_state("run");

  // Workload intelligence at query finish: log the per-scan telemetry
  // (stl_scan) and evaluate the performance-alert rules over it. Alert
  // ticks are the query's end tick, so serial and pooled runs log
  // byte-identical alert histories.
  std::vector<obs::ScanRecord> scans = query_result.stats.scans;
  for (obs::ScanRecord& scan : scans) scan.query_id = started.query_id;
  obs::QueryAlertInputs inputs;
  inputs.query_id = started.query_id;
  inputs.tick = end_tick;
  inputs.scans = scans;
  inputs.masked_reads = query_result.stats.masked_reads;
  inputs.queue_seconds = queue_seconds;
  inputs.exec_seconds = exec_seconds;
  inputs.repeat_cache_miss = repeat_cache_miss;
  const std::vector<obs::AlertEvent> fired = obs::EvaluateQueryAlerts(inputs);
  alerts_.Append(fired);
  scan_log_.Append(std::move(scans));

  if (explain_analyze) {
    result.exec_stats = query_result.stats;
    result.message = RenderExplainAnalyze(*physical, query_result, fired);
    return result;
  }
  if (options_.cache.enable_result_cache) {
    auto cached = std::make_shared<CachedResult>();
    cached->rows = CloneBatch(query_result.rows);
    cached->column_names = query_result.column_names;
    result_cache_.Insert(fingerprint, canonical, std::move(pin.key),
                         std::move(cached));
  }
  result.rows = std::move(query_result.rows);
  result.column_names = std::move(query_result.column_names);
  result.exec_stats = query_result.stats;
  result.message = std::to_string(result.rows.num_rows()) + " rows";
  return result;
}

Result<StatementResult> Warehouse::RunStatement(sql::Statement stmt,
                                                const std::string& sql,
                                                int session_id,
                                                const std::string& user_group) {
  StatementResult result;
  if (auto* txn = std::get_if<sql::TxnStmt>(&stmt)) {
    // Transaction control is leader metadata work: no slot, no queue.
    common::MutexLock statement_lock(writer_mu_);
    SDW_RETURN_IF_ERROR(crash_.Down());
    SDW_RETURN_IF_ERROR(RefuseOtherSessions(session_id));
    const bool begin = txn->kind == sql::TxnStmt::Kind::kBegin;
    if (in_transaction() == begin) {
      return Status::FailedPrecondition(begin ? "already in a transaction"
                                              : "no open transaction");
    }
    switch (txn->kind) {
      case sql::TxnStmt::Kind::kBegin:
        SDW_RETURN_IF_ERROR(Begin(session_id));
        result.message = "BEGIN";
        break;
      case sql::TxnStmt::Kind::kCommit:
        SDW_RETURN_IF_ERROR(Commit());
        result.message = "COMMIT";
        break;
      case sql::TxnStmt::Kind::kRollback:
        SDW_RETURN_IF_ERROR(Rollback());
        result.message = "ROLLBACK";
        break;
    }
    return result;
  }

  // Writes go through the same front door as queries, then serialize
  // on writer_mu_ for the whole statement. The heavy work (fetch,
  // parse, distribute, sort, encode) runs on staged chains with no
  // data lock held — concurrent SELECTs read their pinned snapshots
  // undisturbed. Only the final install takes data_mu_ exclusively;
  // each head it swings draws a fresh commit stamp, which is what
  // moves the cache keys. A statement that fails before installing
  // changed nothing a reader can see, so every cache entry stays valid.
  // Writes are visible in stv_inflight too — a long COPY is exactly
  // what an operator polls for from another session.
  obs::InflightRegistry::Ticket ticket = inflight_.Register(session_id, sql);
  cluster::AdmitRequest admit_request;
  admit_request.session_id = session_id;
  admit_request.user_group = user_group;
  if (std::holds_alternative<sql::CopyStmt>(stmt)) {
    admit_request.query_class = "copy";
  } else if (std::holds_alternative<sql::InsertStmt>(stmt)) {
    admit_request.query_class = "insert";
  } else if (std::holds_alternative<sql::VacuumStmt>(stmt)) {
    admit_request.query_class = "vacuum";
  } else {
    admit_request.query_class = "ddl";
  }
  admit_request.statement = sql;
  SDW_ASSIGN_OR_RETURN(cluster::AdmissionController::Slot slot,
                       AdmitOrReport(&admission_, admit_request));
  WlmReportScope report(&admission_, session_id, sql, slot);
  ticket.progress()->set_queued_seconds(slot.queued_seconds());
  ticket.progress()->set_phase(obs::QueryPhase::kExec);
  common::MutexLock statement_lock(writer_mu_);
  SDW_RETURN_IF_ERROR(RefuseOtherSessions(session_id));
  if (in_transaction() && (std::holds_alternative<sql::DropTableStmt>(stmt) ||
                           std::holds_alternative<sql::VacuumStmt>(stmt))) {
    return Status::NotSupported(
        "DROP TABLE / VACUUM reclaim blocks eagerly and cannot run inside "
        "a transaction");
  }

  // Validate and stage: everything that can fail does so here, before
  // the commit step, so only statements that will apply (and so will
  // replay cleanly) enter the commit log.
  cluster::StagedWrite staged(cluster_.get());
  Install install;
  std::string analyze_after;
  if (auto* create = std::get_if<sql::CreateTableStmt>(&stmt)) {
    if (cluster_->catalog()->GetTable(create->schema.name()).ok()) {
      return Status::AlreadyExists("table '" + create->schema.name() +
                                   "' exists");
    }
    install.apply = [this, create] {
      return cluster_->CreateTable(create->schema);
    };
    result.message = "CREATE TABLE " + create->schema.name();
  } else if (auto* drop = std::get_if<sql::DropTableStmt>(&stmt)) {
    SDW_RETURN_IF_ERROR(cluster_->catalog()->GetTable(drop->table).status());
    // Unlinks the table; its shards park on the dropped list until
    // every pinned snapshot drains (mid-scan readers finish cleanly).
    install.apply = [this, drop] { return cluster_->DropTable(drop->table); };
    result.message = "DROP TABLE " + drop->table;
  } else if (auto* copy = std::get_if<sql::CopyStmt>(&stmt)) {
    load::CopyExecutor executor(cluster_.get(), s3_, options_.region);
    load::CopyOptions copy_options;
    copy_options.format = copy->format == sql::CopyStmt::Format::kCsv
                              ? load::CopyFormat::kCsv
                              : load::CopyFormat::kJson;
    copy_options.compupdate = copy->compupdate;
    // Every file's run stages here: the load becomes visible as ONE
    // install per shard (a snapshot sees the whole COPY or none of it),
    // and stats run after it on the installed data.
    copy_options.staging = &staged;
    copy_options.progress = ticket.progress();
    SDW_ASSIGN_OR_RETURN(result.copy_stats,
                         executor.CopyFromUri(copy->table, copy->source_uri,
                                              copy_options));
    install.staged = &staged;
    if (result.copy_stats.rows_loaded > 0) analyze_after = copy->table;
    result.message = "COPY " + std::to_string(result.copy_stats.rows_loaded) +
                     " rows into " + copy->table;
  } else if (auto* insert = std::get_if<sql::InsertStmt>(&stmt)) {
    SDW_ASSIGN_OR_RETURN(TableSchema schema,
                         cluster_->catalog()->GetTable(insert->table));
    std::vector<ColumnVector> columns;
    for (const ColumnDef& col : schema.columns()) {
      columns.emplace_back(col.type);
    }
    for (const Row& row : insert->rows) {
      if (row.size() != schema.num_columns()) {
        return Status::InvalidArgument("INSERT arity mismatch");
      }
      for (size_t c = 0; c < row.size(); ++c) {
        Status appended = columns[c].AppendDatum(row[c]);
        if (!appended.ok()) {
          return Status::InvalidArgument("column '" + schema.column(c).name +
                                         "': " + appended.message());
        }
      }
    }
    SDW_RETURN_IF_ERROR(cluster_->InsertRows(insert->table, columns, &staged));
    install.staged = &staged;
    result.message = "INSERT " + std::to_string(insert->rows.size()) + " rows";
  } else if (auto* analyze = std::get_if<sql::AnalyzeStmt>(&stmt)) {
    SDW_RETURN_IF_ERROR(
        cluster_->catalog()->GetTable(analyze->table).status());
    // Stats live in the internally locked catalog and never change
    // results, and Analyze's re-install of the heads moves no data, so
    // it runs after the step with no data_mu_ hold: a reader pinning
    // mid-way gets the same rows under either stamp, and plans against
    // the fresh stats.
    analyze_after = analyze->table;
    result.message = "ANALYZE " + analyze->table;
  } else {
    auto& vacuum = std::get<sql::VacuumStmt>(stmt);
    // Each COPY sorts its own run; VACUUM merges the accumulated runs
    // back into one fully-sorted region per slice. The merge-sort and
    // re-encode happen on staged chains — readers scan the old ones —
    // and the swap is one install per shard. Old chains retire and are
    // reclaimed after the step, once no snapshot pins them.
    SDW_ASSIGN_OR_RETURN(uint64_t blocks,
                         cluster_->Vacuum(vacuum.table, &staged));
    install.staged = &staged;
    result.message = "VACUUM " + vacuum.table + " (" +
                     std::to_string(blocks) + " blocks rewritten)";
  }

  durability::LogRecord record;
  record.kind = durability::LogRecord::Kind::kStatement;
  record.session_id = session_id;
  record.statements.push_back(sql);
  SDW_RETURN_IF_ERROR(CommitWrite(std::move(record), std::move(install)));

  if (!analyze_after.empty()) {
    SDW_RETURN_IF_ERROR(cluster_->Analyze(analyze_after));
  }
  if (std::holds_alternative<sql::VacuumStmt>(stmt)) cluster_->CollectGarbage();
  report.set_state("run");
  return result;
}

Result<backup::BackupManager::BackupStats> Warehouse::Backup(
    bool user_initiated) {
  // A backup is a consistent read of every chain: serialize it with
  // writers on writer_mu_ (no statement commits mid-capture) while
  // SELECTs keep running — it reads published heads, changes nothing.
  common::MutexLock statement_lock(writer_mu_);
  SDW_RETURN_IF_ERROR(crash_.Down());
  if (in_transaction()) {
    // The live heads hold the open transaction's rows and the log does
    // not: the snapshot would bring them back after a ROLLBACK.
    return Status::FailedPrecondition("cannot back up inside a transaction");
  }
  // Under writer_mu_ no commit can land mid-capture, so everything at
  // or below LastLsn() is contained in this snapshot.
  SDW_ASSIGN_OR_RETURN(uint64_t watermark, commit_log_.LastLsn());
  SDW_ASSIGN_OR_RETURN(backup::BackupManager::BackupStats stats,
                       backups_.Backup(cluster_.get(), user_initiated,
                                       watermark));
  // The fresh snapshot becomes the recovery base; the log keeps only
  // what some remaining snapshot has not absorbed (an older snapshot
  // with a lower — or zero — watermark pins the tail it still needs).
  SDW_RETURN_IF_ERROR(commit_log_.SetRecoveryBase(stats.snapshot_id));
  SDW_ASSIGN_OR_RETURN(uint64_t keep_after, backups_.MinimumWatermark());
  if (keep_after > 0) {
    SDW_RETURN_IF_ERROR(commit_log_.TruncateThrough(keep_after));
  }
  return stats;
}

Status Warehouse::RestoreInPlace(uint64_t snapshot_id,
                                 backup::BackupManager::RestoreStats* stats) {
  common::MutexLock statement_lock(writer_mu_);
  SDW_RETURN_IF_ERROR(crash_.Down());
  if (in_transaction()) {
    return Status::FailedPrecondition("cannot restore inside a transaction");
  }
  // Materialize the restored cluster entirely off the data lock:
  // queries keep answering from the current plane while blocks stream.
  SDW_ASSIGN_OR_RETURN(std::unique_ptr<cluster::Cluster> restored,
                       backups_.StreamingRestore(snapshot_id, stats));
  // Page-faulted blocks arrive as stored (encrypted) bytes; reads must
  // unwrap them from the very first query — wire before the swap.
  WireEncryptionOn(restored.get());
  // A restore rewinds visible state but must not rewind durable
  // history: it is itself a logged commit (kRestore), so acknowledged
  // statements before it stay acknowledged — recovery re-reaches this
  // exact state by replaying them and then the restore.
  durability::LogRecord record;
  record.kind = durability::LogRecord::Kind::kRestore;
  record.restore_snapshot_id = snapshot_id;
  Install install;
  install.cluster = std::move(restored);
  SDW_RETURN_IF_ERROR(CommitWrite(std::move(record), std::move(install)));
  SyncHostManagers();
  return Status::OK();
}

Result<cluster::Cluster::ResizeStats> Warehouse::Resize(int new_num_nodes) {
  common::MutexLock statement_lock(writer_mu_);
  SDW_RETURN_IF_ERROR(crash_.Down());
  if (in_transaction()) {
    return Status::FailedPrecondition("cannot resize inside a transaction");
  }
  cluster::Cluster::ResizeStats stats;
  // The parallel copy runs off the data lock — the source serves reads
  // throughout (it flips read-only, and writer_mu_ already excludes
  // writers). The target must encrypt blocks as the copy lands, so its
  // stores get the at-rest transforms before any data moves.
  SDW_ASSIGN_OR_RETURN(
      std::unique_ptr<cluster::Cluster> target,
      cluster_->Resize(new_num_nodes, &stats,
                       [this](cluster::Cluster* fresh) {
                         WireEncryptionOn(fresh);
                       }));
  // Topology is part of durable state (placement depends on it), so a
  // resize is a logged commit: the heavy copy above is re-doable, the
  // swap is what the kResize record makes durable. Same rows on a
  // different topology: results survive semantically but cached plans
  // are topology-bound, so everything re-derives. The swap moves the
  // SQL endpoint and decommissions the source (§3.1).
  durability::LogRecord record;
  record.kind = durability::LogRecord::Kind::kResize;
  record.resize_nodes = new_num_nodes;
  Install install;
  install.cluster = std::move(target);
  Status committed = CommitWrite(std::move(record), std::move(install));
  if (!committed.ok()) {
    // An ordinary failure (say, the log append) swapped nothing: the
    // source stays live and takes writes again. A crash leaves it to
    // Recover(), as every crash does.
    if (!crash_.crashed()) cluster_->set_read_only(false);
    return committed;
  }
  SyncHostManagers();
  return stats;
}

Status Warehouse::ApplyLogRecord(const durability::LogRecord& record,
                                 RecoverStats* stats) {
  switch (record.kind) {
    case durability::LogRecord::Kind::kStatement:
    case durability::LogRecord::Kind::kTransaction:
      // A kTransaction batch replays as bare statements: its effects
      // were already atomic in the original run (one log record), and
      // replay is single-threaded, so no interleaving can observe the
      // intermediate states.
      for (const std::string& text : record.statements) {
        SDW_RETURN_IF_ERROR(ExecuteAs(text, record.session_id).status());
        ++stats->replayed_statements;
      }
      return Status::OK();
    case durability::LogRecord::Kind::kResize:
      ++stats->replayed_statements;
      return Resize(record.resize_nodes).status();
    case durability::LogRecord::Kind::kRestore:
      ++stats->replayed_statements;
      return RestoreInPlace(record.restore_snapshot_id);
  }
  return Status::Corruption("unknown log record kind");
}

Status Warehouse::RecoverInternal(RecoverStats* stats) {
  uint64_t after = 0;
  {
    common::MutexLock statement_lock(writer_mu_);
    // The crashed process's open transaction (if any) died with it.
    EndTransaction();
    SDW_ASSIGN_OR_RETURN(uint64_t base, commit_log_.GetRecoveryBase());
    std::shared_ptr<cluster::Cluster> restored;
    if (base != 0) {
      SDW_ASSIGN_OR_RETURN(backup::SnapshotManifest manifest,
                           backups_.GetManifest(base));
      after = manifest.durable_lsn;
      SDW_ASSIGN_OR_RETURN(std::unique_ptr<cluster::Cluster> from_snapshot,
                           backups_.StreamingRestore(base, &stats->restore));
      restored = std::move(from_snapshot);
      stats->base_snapshot_id = base;
    } else {
      // Never backed up: start empty and replay the whole log.
      restored = std::make_shared<cluster::Cluster>(options_.cluster);
    }
    WireEncryptionOn(restored.get());
    {
      common::WriterMutexLock data_lock(data_mu_);
      // No cache entry computed from pre-crash state may ever serve
      // against recovered data.
      cluster_ = std::move(restored);
      ++generation_;
    }
    SyncHostManagers();
    applied_lsn_.store(after, std::memory_order_relaxed);
  }
  // Replay runs off writer_mu_: every record re-enters the normal
  // front door (which takes writer_mu_ per statement), so replayed
  // history takes exactly the code path the original commits took.
  replaying_.store(true, std::memory_order_release);
  SDW_ASSIGN_OR_RETURN(durability::CommitLog::Tail tail,
                       commit_log_.ReadTail(after));
  for (const durability::LogRecord& record : tail.records) {
    // LSN guard: anything the base snapshot already contains is
    // skipped, so recovery is idempotent (a crash during recovery
    // just recovers again).
    if (record.lsn <= applied_lsn_.load(std::memory_order_relaxed)) continue;
    SDW_RETURN_IF_ERROR(ApplyLogRecord(record, stats));
    applied_lsn_.store(record.lsn, std::memory_order_relaxed);
    ++stats->replayed_records;
  }
  if (tail.torn_lsn != 0) {
    // The torn record was mid-append when the process died — by
    // log-before-install it was never acknowledged, so dropping it is
    // the correct (and only consistent) choice.
    SDW_RETURN_IF_ERROR(commit_log_.TruncateFrom(tail.torn_lsn));
    stats->torn_lsn = tail.torn_lsn;
  }
  return Status::OK();
}

Result<Warehouse::RecoverStats> Warehouse::Recover() {
  static obs::Counter* recoveries =
      obs::Registry::Global().counter("sdw_durability_recoveries");
  static obs::Counter* replayed =
      obs::Registry::Global().counter("sdw_durability_replayed_records");
  // Recovery IS the new process: whatever crash poisoned the old one
  // is history.
  crash_.Reset();
  recovering_.store(true, std::memory_order_release);
  RecoverStats stats;
  Status status = RecoverInternal(&stats);
  replaying_.store(false, std::memory_order_release);
  recovering_.store(false, std::memory_order_release);
  SDW_RETURN_IF_ERROR(status);
  recoveries->Add();
  replayed->Add(stats.replayed_records);
  event_log_.Append(obs::HealthEvent{
      .source = "durability",
      .kind = "recover",
      .value = static_cast<double>(stats.replayed_records),
      .detail =
          "recovered from snapshot " + std::to_string(stats.base_snapshot_id) +
          ", replayed " + std::to_string(stats.replayed_records) +
          " log records (" + std::to_string(stats.replayed_statements) +
          " statements)" +
          (stats.torn_lsn != 0 ? ", truncated torn tail at lsn " +
                                     std::to_string(stats.torn_lsn)
                               : "")});
  return stats;
}

}  // namespace sdw::warehouse
