#include "cluster/cluster.h"

#include <algorithm>
#include <numeric>
#include <set>
#include <utility>

#include "common/hash.h"
#include "common/logging.h"
#include "exec/hash_table.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "zorder/zorder.h"

namespace sdw::cluster {

uint64_t EstimateBytes(const std::vector<ColumnVector>& columns) {
  uint64_t total = 0;
  for (const auto& col : columns) {
    if (col.type() == TypeId::kString) {
      // Each value's length plus 4; a NULL is zero bytes long.
      total += col.arena().size() + 4 * col.size();
    } else {
      total += col.size() * 8;
    }
  }
  return total;
}

ComputeNode::ComputeNode(int node_id, int num_slices,
                         storage::StorageOptions options,
                         storage::CommitClock* clock)
    : node_id_(node_id), options_(options), clock_(clock), slices_(num_slices) {}

Status ComputeNode::CreateShards(const TableSchema& schema) {
  common::MutexLock lock(mu_);
  for (auto& slice : slices_) {
    if (slice.count(schema.name())) {
      return Status::AlreadyExists("shard exists for " + schema.name());
    }
    slice[schema.name()] = std::make_shared<storage::TableShard>(
        schema, options_, &store_, clock_);
  }
  return Status::OK();
}

Status ComputeNode::DropShards(
    const std::string& table,
    std::vector<std::shared_ptr<storage::TableShard>>* removed) {
  common::MutexLock lock(mu_);
  for (auto& slice : slices_) {
    auto it = slice.find(table);
    if (it == slice.end()) continue;
    if (removed != nullptr) removed->push_back(std::move(it->second));
    slice.erase(it);
  }
  return Status::OK();
}

Result<storage::TableShard*> ComputeNode::shard(int slice,
                                                const std::string& table) {
  SDW_ASSIGN_OR_RETURN(std::shared_ptr<storage::TableShard> ref,
                       shard_ref(slice, table));
  return ref.get();
}

Result<std::shared_ptr<storage::TableShard>> ComputeNode::shard_ref(
    int slice, const std::string& table) {
  if (slice < 0 || static_cast<size_t>(slice) >= slices_.size()) {
    return Status::InvalidArgument("bad slice index");
  }
  common::MutexLock lock(mu_);
  auto it = slices_[slice].find(table);
  if (it == slices_[slice].end()) {
    return Status::NotFound("no shard for table '" + table + "'");
  }
  return it->second;
}

uint64_t ComputeNode::MaxHeadStamp(const std::string& table) const {
  uint64_t stamp = 0;
  common::MutexLock lock(mu_);
  for (const auto& slice : slices_) {
    auto it = slice.find(table);
    if (it != slice.end()) stamp = std::max(stamp, it->second->head_stamp());
  }
  return stamp;
}

void ComputeNode::DropDecodeCaches() {
  common::MutexLock lock(mu_);
  for (const auto& slice : slices_) {
    for (const auto& [table, shard] : slice) shard->DropDecodeCache();
  }
}

const storage::ShardRef* ReadSnapshot::Find(const std::string& table,
                                            int slice) const {
  auto it = tables.find(table);
  if (it == tables.end()) return nullptr;
  if (slice < 0 || static_cast<size_t>(slice) >= it->second.size()) {
    return nullptr;
  }
  return &it->second[slice];
}

uint64_t ReadSnapshot::Stamp(const std::string& table) const {
  uint64_t stamp = 0;
  auto it = tables.find(table);
  if (it == tables.end()) return stamp;
  for (const storage::ShardRef& ref : it->second) {
    stamp = std::max(stamp, ref.version->version);
  }
  return stamp;
}

StagedWrite::~StagedWrite() {
  if (!committed_ && cluster_ != nullptr) cluster_->AbortStaged(this);
}

StagedWrite::Pending* StagedWrite::Find(const storage::TableShard* shard) {
  for (Pending& p : pending_) {
    if (p.shard.get() == shard) return &p;
  }
  return nullptr;
}

Cluster::Cluster(ClusterConfig config)
    : config_(config),
      node_read_failures_(static_cast<size_t>(config.num_nodes)) {
  SDW_CHECK(config.num_nodes >= 1);
  SDW_CHECK(config.slices_per_node >= 1);
  for (int n = 0; n < config.num_nodes; ++n) {
    nodes_.push_back(std::make_unique<ComputeNode>(
        n, config.slices_per_node, config.storage, &commit_clock_));
  }
  int threads = config.exec_pool_threads;
  if (threads < 0) {
    const int hw =
        std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
    threads = std::min(total_slices(), hw);
  }
  pool_ = std::make_unique<common::ThreadPool>(threads);

  if (config_.replicate && num_nodes() >= 2) {
    std::vector<storage::BlockStore*> stores;
    stores.reserve(nodes_.size());
    for (auto& node : nodes_) stores.push_back(node->store());
    replication_ = std::make_unique<replication::ReplicationManager>(
        stores, config_.replication, config_.replication_seed);
    // Every committed Put gains a synchronous secondary copy ("each
    // data block is synchronously written to both its primary slice as
    // well as to at least one secondary on a separate node", §2.1).
    for (int n = 0; n < num_nodes(); ++n) {
      nodes_[n]->store()->set_put_observer(
          [this, n](storage::BlockId id, const Bytes& stored) {
            Status status = replication_->Replicate(n, id, stored);
            if (!status.ok()) {
              SDW_LOG(Warning) << "replication of block " << id
                               << " failed: " << status;
            }
          });
    }
    WireReadPath();
  }
}

void Cluster::WireReadPath() {
  bool has_page_fault;
  {
    common::MutexLock lock(mu_);
    has_page_fault = static_cast<bool>(page_fault_);
  }
  if (!replication_ && !has_page_fault) return;
  for (int n = 0; n < num_nodes(); ++n) {
    nodes_[n]->store()->set_fault_handler(
        [this, n](storage::BlockId id) { return FaultRead(n, id); });
  }
}

void Cluster::set_page_fault_handler(
    storage::BlockStore::FaultHandler handler) {
  {
    common::MutexLock lock(mu_);
    page_fault_ = std::move(handler);
  }
  WireReadPath();
}

Result<Bytes> Cluster::FaultRead(int node, storage::BlockId id) {
  // Masking order: secondary replica first, then the S3 page-fault
  // path. Only replication-tracked blocks strike the node's health
  // counter — a cold read after a streaming restore is not a failure.
  if (replication_ && replication_->HasPlacement(id)) {
    node_read_failures_[node].fetch_add(1, std::memory_order_relaxed);
    auto replica = replication_->ReadReplicaExcluding(id, node);
    if (replica.ok()) {
      static obs::Counter* masked =
          obs::Registry::Global().counter("sdw_cluster_masked_reads");
      masked->Add();
      if (obs::SpanCounters* span = obs::CurrentSpanCounters()) {
        ++span->masked_reads;
      }
      return replica;
    }
  }
  // Copy the handler out: it reaches S3 (its own locks) and must not
  // run under mu_.
  storage::BlockStore::FaultHandler page_fault;
  {
    common::MutexLock lock(mu_);
    page_fault = page_fault_;
  }
  if (page_fault) {
    auto paged = page_fault(id);
    if (paged.ok()) {
      static obs::Counter* s3_faults =
          obs::Registry::Global().counter("sdw_cluster_s3_fault_reads");
      s3_faults->Add();
      if (obs::SpanCounters* span = obs::CurrentSpanCounters()) {
        ++span->s3_fault_reads;
      }
    }
    return paged;
  }
  return Status::Unavailable("block " + std::to_string(id) +
                             " has no live replica and no backup path");
}

void Cluster::FailNode(int node) {
  SDW_CHECK(node >= 0 && node < num_nodes());
  nodes_[node]->DropDecodeCaches();
  if (replication_) {
    replication_->FailNode(node);
    return;
  }
  for (storage::BlockId id : nodes_[node]->store()->ListIds()) {
    nodes_[node]->store()->DropForTest(id);
  }
}

Result<storage::TableShard*> Cluster::shard(int global_slice,
                                            const std::string& table) {
  if (global_slice < 0 || global_slice >= total_slices()) {
    return Status::InvalidArgument("bad global slice");
  }
  return NodeOfSlice(global_slice)->shard(LocalSlice(global_slice), table);
}

Result<std::shared_ptr<storage::TableShard>> Cluster::shard_ref(
    int global_slice, const std::string& table) {
  if (global_slice < 0 || global_slice >= total_slices()) {
    return Status::InvalidArgument("bad global slice");
  }
  return NodeOfSlice(global_slice)->shard_ref(LocalSlice(global_slice), table);
}

Status Cluster::PinTables(const std::vector<std::string>& tables,
                          ReadSnapshot* out) {
  static obs::Counter* pinned_metric =
      obs::Registry::Global().counter("sdw_mvcc_snapshots_pinned");
  for (const std::string& table : tables) {
    if (out->tables.count(table) > 0) continue;
    std::vector<storage::ShardRef> refs;
    refs.reserve(total_slices());
    bool complete = true;
    for (int s = 0; s < total_slices(); ++s) {
      auto ref = shard_ref(s, table);
      if (!ref.ok()) {
        // Dropped (or never created): leave the table unpinned and let
        // the planner report it.
        complete = false;
        break;
      }
      storage::ShardRef pinned;
      pinned.shard = std::move(*ref);
      pinned.version = pinned.shard->Snapshot();
      refs.push_back(std::move(pinned));
    }
    if (complete) {
      out->tables[table] = std::move(refs);
      pinned_metric->Add();
    }
  }
  return Status::OK();
}

uint64_t Cluster::HeadStamp(const std::string& table) const {
  uint64_t stamp = 0;
  for (const auto& node : nodes_) {
    stamp = std::max(stamp, node->MaxHeadStamp(table));
  }
  return stamp;
}

Status Cluster::CreateTable(const TableSchema& schema) {
  SDW_RETURN_IF_ERROR(catalog_.CreateTable(schema));
  for (auto& node : nodes_) {
    SDW_RETURN_IF_ERROR(node->CreateShards(schema));
  }
  return Status::OK();
}

Status Cluster::DropTable(const std::string& table) {
  SDW_RETURN_IF_ERROR(catalog_.DropTable(table));
  for (auto& node : nodes_) {
    std::vector<std::shared_ptr<storage::TableShard>> removed;
    SDW_RETURN_IF_ERROR(node->DropShards(table, &removed));
    common::MutexLock lock(mu_);
    for (auto& shard_sp : removed) {
      dropped_.push_back({std::move(shard_sp), node->store()});
    }
  }
  {
    // Forget the EVEN-placement cursor with the table: a re-created
    // table starts placing from slice 0, exactly like one arriving via
    // snapshot restore (manifests only capture live tables' cursors) —
    // keeps replayed history byte-identical to the original run.
    common::MutexLock lock(mu_);
    round_robin_.erase(table);
  }
  // Nothing pinned (the common case): the blocks go away right here,
  // keeping DROP's storage release prompt. Pinned shards stay parked
  // until a later sweep.
  CollectGarbage();
  return Status::OK();
}

Status Cluster::CommitStaged(StagedWrite* staged,
                             const std::function<Status(size_t)>& barrier) {
  size_t installed = 0;
  Status status = Status::OK();
  for (StagedWrite::Pending& p : staged->pending_) {
    status = p.shard->Install(p.base, p.next);
    if (!status.ok()) break;
    ++installed;
    if (barrier != nullptr) {
      status = barrier(installed);
      if (!status.ok()) break;
    }
  }
  // Heads installed before a failure are live — a reader may already
  // have pinned them — so the abort path must not discard their blocks.
  // Drop them from pending_ and let the destructor abort only the
  // never-installed suffix.
  staged->pending_.erase(
      staged->pending_.begin(),
      staged->pending_.begin() + static_cast<long>(installed));
  SDW_RETURN_IF_ERROR(status);
  staged->committed_ = true;
  return Status::OK();
}

void Cluster::AbortStaged(StagedWrite* staged) {
  for (StagedWrite::Pending& p : staged->pending_) {
    std::vector<storage::BlockId> removed =
        p.shard->DiscardPrepared(*p.base, *p.next);
    if (replication_) {
      for (storage::BlockId id : removed) replication_->Remove(id);
    }
  }
  staged->pending_.clear();
}

Cluster::GcStats Cluster::CollectGarbage() {
  static obs::Counter* deferred_metric =
      obs::Registry::Global().counter("sdw_mvcc_gc_deferred");
  GcStats stats;
  std::vector<storage::BlockId> reclaimed;

  // Retired versions of live shards (VACUUM rewrites, rollbacks).
  for (const std::string& table : catalog_.TableNames()) {
    for (int s = 0; s < total_slices(); ++s) {
      auto ref = shard_ref(s, table);
      if (!ref.ok()) continue;
      stats.versions_reclaimed += (*ref)->CollectGarbage(&reclaimed);
      stats.versions_deferred += (*ref)->retired_versions();
    }
  }

  // Dropped tables: a shard is reclaimable once nothing outside the
  // dropped list references it (use_count drops monotonically — new
  // refs only come from copying existing ones, and the maps no longer
  // hold one) and its own retired queue has drained.
  std::vector<DroppedShard> parked;
  {
    common::MutexLock lock(mu_);
    parked.swap(dropped_);
  }
  std::vector<DroppedShard> keep;
  for (DroppedShard& d : parked) {
    stats.versions_reclaimed += d.shard->CollectGarbage(&reclaimed);
    if (d.shard.use_count() == 1 && d.shard->retired_versions() == 0) {
      for (storage::BlockId id : d.shard->AllBlockIds()) {
        (void)d.store->Delete(id);
        reclaimed.push_back(id);
      }
      ++stats.dropped_shards_reclaimed;
    } else {
      stats.versions_deferred += d.shard->retired_versions();
      ++stats.dropped_shards_deferred;
      keep.push_back(std::move(d));
    }
  }
  if (!keep.empty()) {
    common::MutexLock lock(mu_);
    for (DroppedShard& d : keep) dropped_.push_back(std::move(d));
  }

  // Reclaimed blocks also lose their secondary copy + placement (else
  // vacuumed/dropped blocks leak on their replica nodes).
  if (replication_) {
    for (storage::BlockId id : reclaimed) replication_->Remove(id);
  }
  stats.blocks_reclaimed = reclaimed.size();
  if (stats.versions_deferred > 0 || stats.dropped_shards_deferred > 0) {
    deferred_metric->Add();
  }
  return stats;
}

uint64_t Cluster::PendingGarbage() {
  uint64_t pending = 0;
  for (const std::string& table : catalog_.TableNames()) {
    for (int s = 0; s < total_slices(); ++s) {
      auto ref = shard_ref(s, table);
      if (!ref.ok()) continue;
      pending += (*ref)->retired_versions();
    }
  }
  common::MutexLock lock(mu_);
  for (const DroppedShard& d : dropped_) {
    pending += 1 + d.shard->retired_versions();
  }
  return pending;
}

uint64_t Cluster::round_robin_cursor(const std::string& table) const {
  common::MutexLock lock(mu_);
  auto it = round_robin_.find(table);
  return it == round_robin_.end() ? 0 : it->second;
}

void Cluster::set_round_robin_cursor(const std::string& table,
                                     uint64_t cursor) {
  common::MutexLock lock(mu_);
  round_robin_[table] = cursor;
}

int Cluster::SliceForKey(const Datum& key) const {
  return static_cast<int>(key.Hash() % static_cast<uint64_t>(
                              num_nodes() * config_.slices_per_node));
}

namespace {

/// Applies a row permutation/selection to a set of parallel columns.
Result<std::vector<ColumnVector>> TakeRows(
    const std::vector<ColumnVector>& columns,
    const std::vector<uint64_t>& indices) {
  if (!columns.empty() && columns[0].size() > UINT32_MAX) {
    return Status::OutOfRange("an insert run holds more than 2^32 rows");
  }
  const std::vector<uint32_t> rows(indices.begin(), indices.end());
  std::vector<ColumnVector> out;
  out.reserve(columns.size());
  for (const auto& col : columns) {
    ColumnVector taken(col.type());
    SDW_RETURN_IF_ERROR(taken.AppendSelected(col, rows));
    out.push_back(std::move(taken));
  }
  return out;
}

/// Sorts the slice-local run per the table's sort organization and
/// returns the row order. Compound keys sort lexicographically;
/// interleaved keys sort by the z-curve (§3.3).
Result<std::vector<uint64_t>> SortOrder(
    const TableSchema& schema, const std::vector<ColumnVector>& columns) {
  const size_t n = columns.empty() ? 0 : columns[0].size();
  std::vector<uint64_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  if (schema.sort_style() == SortStyle::kNone || n == 0) return order;

  if (schema.sort_style() == SortStyle::kCompound) {
    std::stable_sort(order.begin(), order.end(), [&](uint64_t a, uint64_t b) {
      for (int key : schema.sort_keys()) {
        int cmp = columns[key].Compare(a, b);
        if (cmp != 0) return cmp < 0;
      }
      return false;
    });
    return order;
  }

  // Interleaved: z-curve over the sort-key columns, calibrated from
  // this run's value ranges.
  std::vector<const ColumnVector*> key_columns;
  for (int key : schema.sort_keys()) key_columns.push_back(&columns[key]);
  SDW_ASSIGN_OR_RETURN(zorder::ZOrderMapper mapper,
                       zorder::BuildMapperFromColumns(key_columns));
  SDW_ASSIGN_OR_RETURN(std::vector<uint64_t> keys,
                       mapper.MapColumns(key_columns));
  std::stable_sort(order.begin(), order.end(),
                   [&](uint64_t a, uint64_t b) { return keys[a] < keys[b]; });
  return order;
}

}  // namespace

Status Cluster::InsertRows(const std::string& table,
                           const std::vector<ColumnVector>& columns,
                           StagedWrite* staged) {
  if (read_only_) {
    return Status::FailedPrecondition(
        "cluster is read-only (resize in progress)");
  }
  SDW_ASSIGN_OR_RETURN(TableSchema schema, catalog_.GetTable(table));
  if (columns.size() != schema.num_columns()) {
    return Status::InvalidArgument("column count mismatch");
  }
  const size_t n = columns.empty() ? 0 : columns[0].size();
  for (size_t c = 0; c < columns.size(); ++c) {
    const ColumnVector& col = columns[c];
    if (col.size() != n) return Status::InvalidArgument("ragged insert");
    // Every write arrives here, so the narrow int64 lanes are held to
    // their domain here. BIGINT lanes cost no pass.
    if (!IsIntegerLike(col.type()) || col.type() == TypeId::kInt64) continue;
    for (size_t i = 0; i < n; ++i) {
      Status fits = col.IsNull(i) ? Status::OK()
                                  : CheckIntLaneValue(col.type(), col.IntAt(i));
      if (!fits.ok()) {
        return Status::InvalidArgument("column '" + schema.column(c).name +
                                       "': " + fits.message());
      }
    }
  }
  if (n == 0) return Status::OK();
  // A direct insert stages into its own write and commits it below.
  // Declared before the lock: an abandoned one aborts after mu_ drops.
  StagedWrite own(this);
  if (staged == nullptr) staged = &own;

  const int slices = total_slices();
  std::vector<std::vector<uint64_t>> per_slice(slices);

  // One insert at a time: the round-robin cursor and the shard appends
  // must advance together (writers are additionally serialized by the
  // warehouse's statement lock). Appends only ever write (store Put),
  // so nothing below re-enters FaultRead and wants mu_ back. COPY
  // distributes serially — only parsing fans out — so this serializes
  // nothing that was parallel.
  common::MutexLock lock(mu_);

  switch (schema.dist_style()) {
    case DistStyle::kEven: {
      uint64_t& rr = round_robin_[table];
      for (size_t i = 0; i < n; ++i) {
        per_slice[rr % slices].push_back(i);
        ++rr;
      }
      break;
    }
    case DistStyle::kKey: {
      const ColumnVector& key = columns[schema.dist_key()];
      for (size_t i = 0; i < n; ++i) {
        per_slice[SliceForKey(key.DatumAt(i))].push_back(i);
      }
      break;
    }
    case DistStyle::kAll: {
      // Every slice receives the full run. Copies to other nodes cross
      // the interconnect once per remote node.
      std::vector<uint64_t> all(n);
      std::iota(all.begin(), all.end(), 0);
      for (int s = 0; s < slices; ++s) per_slice[s] = all;
      AddNetworkBytes(EstimateBytes(columns) *
                      static_cast<uint64_t>(num_nodes() - 1));
      break;
    }
  }

  if (schema.dist_style() != DistStyle::kAll) {
    // Hash/round-robin distribution moves each row to its target node.
    // Approximate: a uniform (nodes-1)/nodes share of bytes is remote.
    if (num_nodes() > 1) {
      AddNetworkBytes(EstimateBytes(columns) *
                      static_cast<uint64_t>(num_nodes() - 1) /
                      static_cast<uint64_t>(num_nodes()));
    }
  }

  for (int s = 0; s < slices; ++s) {
    if (per_slice[s].empty()) continue;
    SDW_ASSIGN_OR_RETURN(std::vector<ColumnVector> slice_rows,
                         TakeRows(columns, per_slice[s]));
    SDW_ASSIGN_OR_RETURN(std::vector<uint64_t> order,
                         SortOrder(schema, slice_rows));
    bool already_sorted = true;
    for (size_t i = 0; i < order.size(); ++i) {
      if (order[i] != i) {
        already_sorted = false;
        break;
      }
    }
    if (!already_sorted) {
      SDW_ASSIGN_OR_RETURN(slice_rows, TakeRows(slice_rows, order));
    }
    SDW_ASSIGN_OR_RETURN(std::shared_ptr<storage::TableShard> shard_sp,
                         shard_ref(s, table));
    // Chain this run onto whatever the statement already staged for
    // the shard; readers see nothing until CommitStaged.
    StagedWrite::Pending* pending = staged->Find(shard_sp.get());
    storage::ShardSnapshot base =
        pending != nullptr ? pending->next : shard_sp->Snapshot();
    SDW_ASSIGN_OR_RETURN(storage::PreparedVersion next,
                         shard_sp->PrepareAppend(base, slice_rows));
    if (pending != nullptr) {
      pending->next = std::move(next);
    } else {
      staged->pending_.push_back(
          {std::move(shard_sp), std::move(base), std::move(next)});
    }
  }
  // Committed before mu_ drops, so concurrent direct inserts stay
  // serialized end to end, cursor advance and installs together.
  return staged == &own ? CommitStaged(&own) : Status::OK();
}

Status Cluster::Analyze(const std::string& table) {
  SDW_ASSIGN_OR_RETURN(TableSchema schema, catalog_.GetTable(table));
  TableStats stats;
  stats.columns.resize(schema.num_columns());
  std::vector<std::set<uint64_t>> hashes(schema.num_columns());
  const int slice_count =
      schema.dist_style() == DistStyle::kAll ? 1 : total_slices();
  for (int s = 0; s < slice_count; ++s) {
    SDW_ASSIGN_OR_RETURN(std::shared_ptr<storage::TableShard> shard_sp,
                         shard_ref(s, table));
    storage::ShardSnapshot version = shard_sp->Snapshot();
    stats.row_count += version->row_count;
    stats.total_bytes += version->encoded_bytes;
    std::vector<int> all_cols(schema.num_columns());
    std::iota(all_cols.begin(), all_cols.end(), 0);
    SDW_ASSIGN_OR_RETURN(std::vector<ColumnVector> data,
                         shard_sp->ReadAll(*version, all_cols));
    std::vector<uint64_t> row_hashes;
    for (size_t c = 0; c < data.size(); ++c) {
      ColumnStats& cs = stats.columns[c];
      const ColumnVector& col = data[c];
      exec::HashColumn(col, &row_hashes);  // Datum::Hash of every row
      // This slice's first minimum and first maximum, read from the lanes.
      const size_t none = col.size();
      size_t lo = none;
      size_t hi = none;
      for (size_t i = 0; i < col.size(); ++i) {
        if (col.IsNull(i)) {
          ++cs.null_count;
          continue;
        }
        if (lo == none || col.Compare(i, lo) < 0) lo = i;
        if (hi == none || col.Compare(hi, i) < 0) hi = i;
        // NDV estimate via a capped hash set (sampled sketch).
        if (hashes[c].size() < 100000) hashes[c].insert(row_hashes[i]);
      }
      if (lo == none) continue;
      const Datum min = col.DatumAt(lo);
      const Datum max = col.DatumAt(hi);
      if (cs.min.is_null() || min < cs.min) cs.min = min;
      if (cs.max.is_null() || cs.max < max) cs.max = max;
    }
  }
  for (size_t c = 0; c < hashes.size(); ++c) {
    stats.columns[c].distinct_estimate = hashes[c].size();
  }
  catalog_.UpdateStats(table, stats);
  // Re-install after the stats land: a reader that pins a fresh stamp
  // plans against the fresh stats.
  for (int s = 0; s < total_slices(); ++s) {
    SDW_ASSIGN_OR_RETURN(std::shared_ptr<storage::TableShard> shard_sp,
                         shard_ref(s, table));
    SDW_RETURN_IF_ERROR(shard_sp->InstallChains(shard_sp->Snapshot()->chains));
  }
  return Status::OK();
}

Result<uint64_t> Cluster::Vacuum(const std::string& table,
                                 StagedWrite* staged) {
  if (read_only_) {
    return Status::FailedPrecondition("cluster is read-only");
  }
  SDW_ASSIGN_OR_RETURN(TableSchema schema, catalog_.GetTable(table));
  // A direct VACUUM stages into its own write and commits it below.
  StagedWrite own(this);
  if (staged == nullptr) staged = &own;
  std::vector<int> all_cols(schema.num_columns());
  std::iota(all_cols.begin(), all_cols.end(), 0);
  uint64_t blocks_rewritten = 0;
  for (int s = 0; s < total_slices(); ++s) {
    SDW_ASSIGN_OR_RETURN(std::shared_ptr<storage::TableShard> shard_sp,
                         shard_ref(s, table));
    storage::ShardSnapshot base = shard_sp->Snapshot();
    if (base->row_count == 0) continue;
    // Read everything (as of `base`), re-sort as one run, and stage a
    // full replacement version. The old blocks become the retired
    // version's delete set at install time.
    SDW_ASSIGN_OR_RETURN(std::vector<ColumnVector> data,
                         shard_sp->ReadAll(*base, all_cols));
    SDW_ASSIGN_OR_RETURN(std::vector<uint64_t> order,
                         SortOrder(shard_sp->schema(), data));
    SDW_ASSIGN_OR_RETURN(data, TakeRows(data, order));
    SDW_ASSIGN_OR_RETURN(storage::PreparedVersion next,
                         shard_sp->PrepareRewrite(base, data));
    for (const auto& chain : base->chains) {
      blocks_rewritten += chain.size();
    }
    staged->pending_.push_back(
        {std::move(shard_sp), std::move(base), std::move(next)});
  }
  if (staged == &own) {
    SDW_RETURN_IF_ERROR(CommitStaged(&own));
    // Reclaims eagerly, so the rewrite frees storage right away when
    // nothing is pinned.
    CollectGarbage();
  }
  return blocks_rewritten;
}

Result<uint64_t> Cluster::TotalRows(const std::string& table) {
  SDW_ASSIGN_OR_RETURN(TableSchema schema, catalog_.GetTable(table));
  uint64_t total = 0;
  const int slice_count =
      schema.dist_style() == DistStyle::kAll ? 1 : total_slices();
  for (int s = 0; s < slice_count; ++s) {
    SDW_ASSIGN_OR_RETURN(std::shared_ptr<storage::TableShard> shard_sp,
                         shard_ref(s, table));
    total += shard_sp->row_count();
  }
  return total;
}

uint64_t Cluster::TotalStoredBytes() const {
  uint64_t total = 0;
  for (const auto& node : nodes_) {
    total += const_cast<ComputeNode&>(*node).store()->total_bytes();
  }
  return total;
}

Result<std::unique_ptr<Cluster>> Cluster::Resize(
    int new_num_nodes, ResizeStats* stats,
    const std::function<void(Cluster*)>& on_target_created) {
  if (new_num_nodes < 1) {
    return Status::InvalidArgument("resize target must have >= 1 node");
  }
  // 1. Provision the target cluster.
  ClusterConfig target_config = config_;
  target_config.num_nodes = new_num_nodes;
  auto target = std::make_unique<Cluster>(target_config);
  if (on_target_created) on_target_created(target.get());

  // 2. Source goes read-only; reads keep working (§3.1). A failed copy
  //    leaves it writable again.
  set_read_only(true);

  // 3. Parallel node-to-node copy: every table's rows stream from
  //    source shards to the target's distribution.
  uint64_t bytes_moved = 0;
  Status copied = CopyTablesTo(target.get(), &bytes_moved);
  if (!copied.ok()) {
    set_read_only(false);
    return copied;
  }

  if (stats != nullptr) {
    stats->bytes_moved = bytes_moved;
    // The copy is node-parallel on both ends; the slower side bounds it.
    CostModel model;
    const int senders = num_nodes();
    const int receivers = new_num_nodes;
    stats->modeled_seconds =
        model.NetworkSeconds(bytes_moved, std::min(senders, receivers));
  }
  // 4. The control plane moves the SQL endpoint and decommissions the
  //    source; data-plane-side we just hand the target back.
  return target;
}

Status Cluster::CopyTablesTo(Cluster* target, uint64_t* bytes_moved) {
  for (const std::string& table : catalog_.TableNames()) {
    SDW_ASSIGN_OR_RETURN(TableSchema schema, catalog_.GetTable(table));
    SDW_RETURN_IF_ERROR(target->CreateTable(schema));
    std::vector<int> all_cols(schema.num_columns());
    std::iota(all_cols.begin(), all_cols.end(), 0);
    const int slice_count =
        schema.dist_style() == DistStyle::kAll ? 1 : total_slices();
    for (int s = 0; s < slice_count; ++s) {
      SDW_ASSIGN_OR_RETURN(std::shared_ptr<storage::TableShard> shard_sp,
                           shard_ref(s, table));
      storage::ShardSnapshot version = shard_sp->Snapshot();
      if (version->row_count == 0) continue;
      SDW_ASSIGN_OR_RETURN(std::vector<ColumnVector> data,
                           shard_sp->ReadAll(*version, all_cols));
      *bytes_moved += EstimateBytes(data);
      SDW_RETURN_IF_ERROR(target->InsertRows(table, data));
    }
    catalog_.UpdateStats(table, catalog_.GetStats(table));
    target->catalog_.UpdateStats(table, catalog_.GetStats(table));
  }
  return Status::OK();
}

}  // namespace sdw::cluster
