#include "storage/table_shard.h"

#include <algorithm>
#include <set>
#include <utility>

#include "compress/codec.h"
#include "obs/registry.h"

namespace sdw::storage {

namespace {

/// Blocks reachable from `from` but not from `to` — what becomes
/// deletable once no pinned snapshot can still reach `from`.
std::vector<BlockId> DiffBlocks(const ShardVersion& from,
                                const ShardVersion& to) {
  std::set<BlockId> kept;
  for (const auto& chain : to.chains) {
    for (const BlockMeta& block : chain) kept.insert(block.id);
  }
  std::vector<BlockId> garbage;
  for (const auto& chain : from.chains) {
    for (const BlockMeta& block : chain) {
      if (kept.count(block.id) == 0) garbage.push_back(block.id);
    }
  }
  return garbage;
}

}  // namespace

TableShard::TableShard(TableSchema schema, StorageOptions options,
                       BlockStore* store, CommitClock* clock)
    : schema_(std::move(schema)),
      options_(options),
      store_(store),
      clock_(clock != nullptr ? clock : &own_clock_) {
  auto head = std::make_shared<ShardVersion>();
  head->version = ++*clock_;
  head->chains.resize(schema_.num_columns());
  common::MutexLock lock(head_mu_);
  head_stamp_.store(head->version);
  head_ = std::move(head);
}

ShardSnapshot TableShard::Snapshot() const {
  common::MutexLock lock(head_mu_);
  return head_;
}

size_t TableShard::EstimateWidth(const ColumnVector& values) {
  if (values.type() == TypeId::kString) {
    if (values.size() == 0) return 16;
    size_t total = 0;
    const size_t sample = std::min<size_t>(values.size(), 256);
    for (size_t i = 0; i < sample; ++i) total += values.StringAt(i).size() + 2;
    return std::max<size_t>(1, total / sample);
  }
  return 8;
}

Status TableShard::Append(const std::vector<ColumnVector>& columns) {
  ShardSnapshot base = Snapshot();
  SDW_ASSIGN_OR_RETURN(PreparedVersion next, PrepareAppend(base, columns));
  if (next->row_count == base->row_count) return Status::OK();  // empty run
  return Install(base, std::move(next));
}

Result<PreparedVersion> TableShard::PrepareAppend(
    const ShardSnapshot& base, const std::vector<ColumnVector>& columns) {
  if (base == nullptr) {
    return Status::InvalidArgument("PrepareAppend without a base version");
  }
  if (columns.size() != schema_.num_columns()) {
    return Status::InvalidArgument("append column count != schema");
  }
  const size_t n = columns.empty() ? 0 : columns[0].size();
  for (size_t c = 0; c < columns.size(); ++c) {
    if (columns[c].size() != n) {
      return Status::InvalidArgument("ragged append run");
    }
    if (columns[c].type() != schema_.column(c).type) {
      return Status::InvalidArgument("append type mismatch on column " +
                                     schema_.column(c).name);
    }
  }
  auto next = std::make_shared<ShardVersion>(*base);
  if (n == 0) return next;
  const uint64_t first_row = base->row_count;
  for (size_t c = 0; c < columns.size(); ++c) {
    SDW_RETURN_IF_ERROR(AppendColumnTo(&next->chains[c], c, columns[c],
                                       first_row, &next->encoded_bytes));
  }
  next->row_count += n;
  return next;
}

Result<PreparedVersion> TableShard::PrepareRewrite(
    const ShardSnapshot& base, const std::vector<ColumnVector>& columns) {
  if (base == nullptr) {
    return Status::InvalidArgument("PrepareRewrite without a base version");
  }
  if (columns.size() != schema_.num_columns()) {
    return Status::InvalidArgument("rewrite column count != schema");
  }
  const size_t n = columns.empty() ? 0 : columns[0].size();
  auto next = std::make_shared<ShardVersion>();
  next->chains.resize(schema_.num_columns());
  if (n > 0) {
    for (size_t c = 0; c < columns.size(); ++c) {
      if (columns[c].size() != n) {
        return Status::InvalidArgument("ragged rewrite run");
      }
      SDW_RETURN_IF_ERROR(AppendColumnTo(&next->chains[c], c, columns[c],
                                         /*first_row=*/0,
                                         &next->encoded_bytes));
    }
    next->row_count = n;
  }
  return next;
}

Status TableShard::Install(const ShardSnapshot& expected,
                           PreparedVersion next) {
  if (next == nullptr) {
    return Status::InvalidArgument("Install of a null version");
  }
  static obs::Counter* installed =
      obs::Registry::Global().counter("sdw_mvcc_versions_installed");
  common::MutexLock lock(head_mu_);
  if (head_ != expected) {
    return Status::FailedPrecondition(
        "shard head moved under a staged write (writers must serialize)");
  }
  // Every retired head enters the FIFO queue, even with an empty delete
  // set: delete sets are cumulative along the chain, so a pin on this
  // version must also block reclamation of every later retiree.
  retired_.push_back({head_, DiffBlocks(*head_, *next)});
  next->version = ++*clock_;
  head_stamp_.store(next->version);
  head_ = std::move(next);
  installed->Add();
  return Status::OK();
}

std::vector<BlockId> TableShard::DiscardPrepared(const ShardVersion& base,
                                                 const ShardVersion& next) {
  std::vector<BlockId> removed = DiffBlocks(next, base);
  for (BlockId id : removed) (void)store_->Delete(id);
  return removed;
}

uint64_t TableShard::CollectGarbage(std::vector<BlockId>* reclaimed) {
  static obs::Counter* versions_metric =
      obs::Registry::Global().counter("sdw_mvcc_versions_reclaimed");
  static obs::Counter* blocks_metric =
      obs::Registry::Global().counter("sdw_mvcc_blocks_reclaimed");
  common::MutexLock lock(head_mu_);
  uint64_t versions = 0;
  // use_count() == 1 means only the queue itself holds the snapshot:
  // new pins are only ever created by copying an existing reference, so
  // the count cannot concurrently rise back above one.
  while (!retired_.empty() && retired_.front().version.use_count() == 1) {
    for (BlockId id : retired_.front().garbage) {
      (void)store_->Delete(id);
      if (reclaimed != nullptr) reclaimed->push_back(id);
      blocks_metric->Add();
    }
    retired_.pop_front();
    ++versions;
    versions_metric->Add();
  }
  return versions;
}

size_t TableShard::retired_versions() const {
  common::MutexLock lock(head_mu_);
  return retired_.size();
}

Status TableShard::AppendColumnTo(std::vector<BlockMeta>* chain, size_t column,
                                  const ColumnVector& values,
                                  uint64_t first_row, uint64_t* bytes) {
  ColumnEncoding encoding = schema_.column(column).encoding;
  if (encoding == ColumnEncoding::kAuto) encoding = ColumnEncoding::kRaw;

  const size_t width = EstimateWidth(values);
  const size_t rows_per_block = std::max<size_t>(
      1, std::min(options_.max_rows_per_block, options_.block_bytes / width));

  size_t offset = 0;
  while (offset < values.size()) {
    const size_t count = std::min(rows_per_block, values.size() - offset);
    ColumnVector chunk(values.type());
    chunk.Reserve(count);
    SDW_RETURN_IF_ERROR(chunk.AppendRange(values, offset, offset + count));

    Bytes encoded;
    SDW_RETURN_IF_ERROR(compress::EncodeColumn(encoding, chunk, &encoded));

    BlockMeta meta;
    meta.id = store_->Allocate();
    meta.first_row = first_row + offset;
    meta.row_count = count;
    meta.encoding = encoding;
    meta.encoded_bytes = encoded.size();
    meta.zone.UpdateAll(chunk);
    SDW_RETURN_IF_ERROR(store_->Put(meta.id, std::move(encoded)));

    *bytes += meta.encoded_bytes;
    chain->push_back(std::move(meta));
    offset += count;
  }
  return Status::OK();
}

std::vector<RowRange> TableShard::CandidateRanges(
    const ShardVersion& version,
    const std::vector<RangePredicate>& predicates) const {
  std::vector<RowRange> candidates = {{0, version.row_count}};
  if (version.row_count == 0) return {};

  for (const RangePredicate& pred : predicates) {
    if (pred.column < 0 ||
        static_cast<size_t>(pred.column) >= version.chains.size()) {
      continue;
    }
    // Row ranges of blocks in this column that may match.
    std::vector<RowRange> passing;
    for (const BlockMeta& block : version.chains[pred.column]) {
      if (!block.zone.MayOverlap(pred.lo, pred.hi)) continue;
      if (!passing.empty() &&
          passing.back().end == block.first_row) {
        passing.back().end = block.first_row + block.row_count;
      } else {
        passing.push_back(
            {block.first_row, block.first_row + block.row_count});
      }
    }
    // Intersect the candidate list with the passing list (both sorted).
    std::vector<RowRange> merged;
    size_t i = 0;
    size_t j = 0;
    while (i < candidates.size() && j < passing.size()) {
      uint64_t lo = std::max(candidates[i].begin, passing[j].begin);
      uint64_t hi = std::min(candidates[i].end, passing[j].end);
      if (lo < hi) merged.push_back({lo, hi});
      if (candidates[i].end < passing[j].end) {
        ++i;
      } else {
        ++j;
      }
    }
    candidates = std::move(merged);
    if (candidates.empty()) break;
  }
  return candidates;
}

Result<std::vector<ColumnVector>> TableShard::ReadRange(
    const ShardVersion& version, const std::vector<int>& columns,
    const RowRange& range) {
  if (range.end > version.row_count || range.begin > range.end) {
    return Status::OutOfRange("ReadRange outside shard");
  }
  std::vector<ColumnVector> out;
  out.reserve(columns.size());
  for (int c : columns) {
    if (c < 0 || static_cast<size_t>(c) >= version.chains.size()) {
      return Status::InvalidArgument("bad column index");
    }
    ColumnVector result(schema_.column(c).type);
    result.Reserve(range.size());
    for (const BlockMeta& block : version.chains[c]) {
      const uint64_t block_end = block.first_row + block.row_count;
      if (block_end <= range.begin || block.first_row >= range.end) continue;
      SDW_ASSIGN_OR_RETURN(std::shared_ptr<const ColumnVector> decoded,
                           DecodeBlock(block, result.type()));
      const uint64_t lo = std::max(range.begin, block.first_row);
      const uint64_t hi = std::min(range.end, block_end);
      SDW_RETURN_IF_ERROR(result.AppendRange(
          *decoded, lo - block.first_row, hi - block.first_row));
    }
    if (result.size() != range.size()) {
      return Status::Corruption("chain did not cover requested range");
    }
    out.push_back(std::move(result));
  }
  return out;
}

Result<std::vector<ColumnVector>> TableShard::ReadAll(
    const ShardVersion& version, const std::vector<int>& columns) {
  return ReadRange(version, columns, {0, version.row_count});
}

Result<std::shared_ptr<const ColumnVector>> TableShard::DecodeBlock(
    const BlockMeta& meta, TypeId type) {
  common::MutexLock lock(cache_mu_);
  if (drop_cache_.load(std::memory_order_relaxed) &&
      drop_cache_.exchange(false, std::memory_order_acq_rel)) {
    decode_cache_.clear();
    cache_order_.clear();
  }
  auto it = decode_cache_.find(meta.id);
  if (it != decode_cache_.end()) {
    // A hit makes the block the most recently used.
    auto pos = std::find(cache_order_.begin(), cache_order_.end(), meta.id);
    std::rotate(pos, pos + 1, cache_order_.end());
    return it->second;
  }
  SDW_ASSIGN_OR_RETURN(Bytes data, store_->Get(meta.id));
  SDW_ASSIGN_OR_RETURN(ColumnVector decoded,
                       compress::DecodeColumn(meta.encoding, type, data));
  // Process-wide count of real decodes. Queries count the blocks they
  // need from chain metadata instead (exec::ShardScan), so their
  // per-query numbers do not depend on what this cache holds.
  static obs::Counter* decoded_metric =
      obs::Registry::Global().counter("sdw_storage_blocks_decoded");
  decoded_metric->Add();
  auto shared = std::make_shared<const ColumnVector>(std::move(decoded));
  // Evicting the least recently used block keeps memory bounded even
  // for huge scans. Whether a read hits then depends only on the
  // blocks read since that block's last read, so a repeating mix of
  // scans cannot settle into long-lived phases with different hit
  // rates, as it did under FIFO (DESIGN.md §4m).
  constexpr size_t kCacheCapacity = 64;
  if (cache_order_.size() >= kCacheCapacity) {
    decode_cache_.erase(cache_order_.front());
    cache_order_.erase(cache_order_.begin());
  }
  decode_cache_[meta.id] = shared;
  cache_order_.push_back(meta.id);
  return shared;
}

Result<PreparedVersion> TableShard::BuildVersion(
    std::vector<std::vector<BlockMeta>> chains) const {
  if (chains.size() != schema_.num_columns()) {
    return Status::InvalidArgument("chain count != schema column count");
  }
  auto built = std::make_shared<ShardVersion>();
  uint64_t rows = 0;
  for (size_t c = 0; c < chains.size(); ++c) {
    uint64_t expected_row = 0;
    for (const BlockMeta& meta : chains[c]) {
      if (meta.first_row != expected_row) {
        return Status::Corruption("chain has a row-range gap");
      }
      expected_row += meta.row_count;
      built->encoded_bytes += meta.encoded_bytes;
    }
    if (c == 0) {
      rows = expected_row;
    } else if (expected_row != rows) {
      return Status::Corruption("chains disagree on row count");
    }
  }
  built->chains = std::move(chains);
  built->row_count = rows;
  return built;
}

Status TableShard::LoadChains(std::vector<std::vector<BlockMeta>> chains) {
  ShardSnapshot base = Snapshot();
  // Every head carries a stamp, even the empty one CREATE TABLE made,
  // so emptiness is the row count, not an unstamped version.
  if (base->row_count != 0) {
    return Status::FailedPrecondition("LoadChains on a non-empty shard");
  }
  SDW_ASSIGN_OR_RETURN(PreparedVersion next, BuildVersion(std::move(chains)));
  return Install(base, std::move(next));
}

Status TableShard::InstallChains(std::vector<std::vector<BlockMeta>> chains) {
  ShardSnapshot base = Snapshot();
  SDW_ASSIGN_OR_RETURN(PreparedVersion next, BuildVersion(std::move(chains)));
  return Install(base, std::move(next));
}

std::vector<BlockId> TableShard::AllBlockIds() const {
  ShardSnapshot head = Snapshot();
  std::vector<BlockId> ids;
  for (const auto& chain : head->chains) {
    for (const auto& block : chain) ids.push_back(block.id);
  }
  return ids;
}

}  // namespace sdw::storage
