#ifndef SDW_STORAGE_TABLE_SHARD_H_
#define SDW_STORAGE_TABLE_SHARD_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <vector>

#include "catalog/schema.h"
#include "catalog/types.h"
#include "common/result.h"
#include "common/thread_annotations.h"
#include "storage/block_store.h"
#include "storage/zone_map.h"

namespace sdw::storage {

/// Knobs for the block writer.
struct StorageOptions {
  /// Maximum estimated raw bytes per block (paper: fixed-size 1 MiB
  /// blocks; kept configurable so benches can produce many blocks from
  /// laptop-scale data).
  size_t block_bytes = 1024 * 1024;
  /// Hard cap on rows per block regardless of width.
  size_t max_rows_per_block = 65536;
};

/// A contiguous half-open range of logical row offsets within a shard.
struct RowRange {
  uint64_t begin = 0;
  uint64_t end = 0;

  uint64_t size() const { return end - begin; }
  bool operator==(const RowRange& other) const {
    return begin == other.begin && end == other.end;
  }
};

/// A single-column range predicate used for block skipping: NULL bounds
/// are unbounded; both bounds inclusive.
struct RangePredicate {
  int column = 0;
  Datum lo;
  Datum hi;
};

/// Metadata for one block in a column chain. The linkage between the
/// columns of a row is purely the logical row offset (paper §2.1), so
/// each column chains its blocks independently.
struct BlockMeta {
  BlockId id = 0;
  uint64_t first_row = 0;
  uint64_t row_count = 0;
  ColumnEncoding encoding = ColumnEncoding::kRaw;
  size_t encoded_bytes = 0;
  ZoneMap zone;
};

/// One immutable version of a shard's chains. Once published via
/// TableShard::Install the struct is never mutated again, so any number
/// of readers can scan it without locks while writers build successor
/// versions off to the side.
struct ShardVersion {
  /// The commit stamp Install drew from the shard's CommitClock as it
  /// published this version.
  uint64_t version = 0;
  std::vector<std::vector<BlockMeta>> chains;
  uint64_t row_count = 0;
  uint64_t encoded_bytes = 0;
};

/// A pinned shard version. Holding the pointer keeps every block the
/// version references alive: garbage collection only reclaims versions
/// whose snapshot is no longer referenced anywhere.
using ShardSnapshot = std::shared_ptr<const ShardVersion>;

/// A version built off to the side and not yet installed: only its
/// writer holds it, and Install stamps it as it publishes it.
using PreparedVersion = std::shared_ptr<ShardVersion>;

/// The counter installs draw their commit stamps from (++clock; the
/// first stamp is 1). A cluster owns one and shares it with every shard
/// it creates, so a stamp orders each install against every other
/// install in that cluster, across tables, DROP and re-CREATE; a
/// standalone shard owns its own.
using CommitClock = std::atomic<uint64_t>;

class TableShard;

/// A pinned (shard, version) pair — what a snapshot reader actually
/// scans. The shard pointer keeps the decode cache + store wiring
/// alive across DROP TABLE; the version pins the chains.
struct ShardRef {
  std::shared_ptr<TableShard> shard;
  ShardSnapshot version;
};

/// One slice's portion of one table: per-column chains of encoded,
/// immutable blocks plus in-memory zone maps.
///
/// MVCC: the chains live in an immutable ShardVersion published under
/// head_mu_. Readers pin a version with Snapshot() and scan it without
/// further coordination. Writers stage new blocks with PrepareAppend /
/// PrepareRewrite (store writes happen here, but no reader can see the
/// blocks yet) and make them visible with Install, which stamps the
/// version from the commit clock, atomically swaps the head and retires
/// the old version onto a FIFO garbage queue. CollectGarbage deletes the
/// blocks of retired versions once their snapshots are unreferenced.
class TableShard {
 public:
  /// `clock` stamps every version this shard publishes, starting with
  /// the empty head made here; null gives the shard a clock of its own.
  TableShard(TableSchema schema, StorageOptions options, BlockStore* store,
             CommitClock* clock = nullptr);

  const TableSchema& schema() const { return schema_; }

  /// Pins the current head version. [[nodiscard]]: a dropped pin is a
  /// no-op that reads like a consistency guarantee.
  [[nodiscard]] ShardSnapshot Snapshot() const SDW_EXCLUDES(head_mu_);

  /// The current head's commit stamp, read without pinning the head.
  uint64_t head_stamp() const { return head_stamp_.load(); }

  /// Rows / bytes / chain metadata of the current head (backup,
  /// replication, system tables and benches walk these; scans should
  /// pin a Snapshot() instead so they see one consistent version).
  uint64_t row_count() const { return Snapshot()->row_count; }
  uint64_t encoded_bytes() const { return Snapshot()->encoded_bytes; }
  std::vector<BlockMeta> chain(size_t column) const {
    return Snapshot()->chains[column];
  }
  size_t num_columns() const { return schema_.num_columns(); }

  /// Changes the encoding used for future appends to a column (the
  /// COPY-time compression analyzer calls this before the first load).
  void SetColumnEncoding(size_t column, ColumnEncoding encoding) {
    schema_.SetColumnEncoding(column, encoding);
  }

  /// Appends one run of rows (column vectors of equal length, one per
  /// schema column) as a single new version: PrepareAppend off the
  /// current head followed immediately by Install.
  Status Append(const std::vector<ColumnVector>& columns);

  /// Builds a successor of `base` with `columns` appended, writing the
  /// new blocks to the store. The result is invisible to readers until
  /// Install; abandon it with DiscardPrepared. `base` may itself be a
  /// prepared-but-uninstalled version (multi-run statements chain their
  /// appends and install once). An empty run yields a copy of `base`.
  Result<PreparedVersion> PrepareAppend(
      const ShardSnapshot& base, const std::vector<ColumnVector>& columns);

  /// Builds a full replacement version (VACUUM rewrite): fresh chains
  /// holding exactly `columns` starting at row 0, as a successor of
  /// `base`. Invisible until Install.
  Result<PreparedVersion> PrepareRewrite(
      const ShardSnapshot& base, const std::vector<ColumnVector>& columns);

  /// Publishes `next`: stamps it with the next commit stamp, atomically
  /// swaps the head from `expected` to `next` and retires `expected`
  /// (its blocks absent from `next` become the retired version's delete
  /// set). Fails with FailedPrecondition if the head moved since
  /// `expected` was pinned — callers serialize writers, so that
  /// indicates a bug.
  Status Install(const ShardSnapshot& expected, PreparedVersion next)
      SDW_EXCLUDES(head_mu_);

  /// Deletes the blocks a prepared-but-uninstalled version added over
  /// its base (statement abort). Returns the ids removed.
  std::vector<BlockId> DiscardPrepared(const ShardVersion& base,
                                       const ShardVersion& next);

  /// Rebuilds this (empty) shard from backed-up chain metadata. Blocks
  /// need not be resident in the store yet — reads will page-fault them
  /// in via the store's fault handler (streaming restore, §2.3).
  Status LoadChains(std::vector<std::vector<BlockMeta>> chains);

  /// Installs `chains` as a new version of a live shard (transaction
  /// rollback restores the pre-transaction manifest this way; ANALYZE
  /// re-installs the head's own chains to give it a fresh stamp).
  /// Blocks only reachable from the current head are retired for GC;
  /// readers pinned on older versions are unaffected.
  Status InstallChains(std::vector<std::vector<BlockMeta>> chains)
      SDW_EXCLUDES(head_mu_);

  /// Reclaims retired versions no longer pinned by any snapshot,
  /// deleting their delete-set blocks from the store. The retired queue
  /// is FIFO and an entry is only reclaimed while it is at the front:
  /// delete sets are cumulative along the version chain (a block
  /// retired at version v may still be readable from a pinned version
  /// older than v), so a pinned old version blocks every newer retiree.
  /// Appends reclaimed block ids to `reclaimed` (may be null) and
  /// returns the number of versions freed.
  uint64_t CollectGarbage(std::vector<BlockId>* reclaimed)
      SDW_EXCLUDES(head_mu_);

  /// Retired versions still waiting for GC (pinned or queued).
  size_t retired_versions() const SDW_EXCLUDES(head_mu_);

  /// Snapshot-parameterized reads. Row ranges that may satisfy all
  /// predicates, ascending and non-overlapping; no predicates -> one
  /// full-range candidate.
  std::vector<RowRange> CandidateRanges(
      const ShardVersion& version,
      const std::vector<RangePredicate>& predicates) const;

  /// Materializes the requested columns for a row range of `version`.
  /// Decodes every block overlapping the range (per-column chains are
  /// block-aligned independently).
  Result<std::vector<ColumnVector>> ReadRange(const ShardVersion& version,
                                              const std::vector<int>& columns,
                                              const RowRange& range);

  /// Materializes whole columns of `version`.
  Result<std::vector<ColumnVector>> ReadAll(const ShardVersion& version,
                                            const std::vector<int>& columns);

  /// Head-version conveniences for single-threaded callers (tests,
  /// tools). Each call pins the head anew, so back-to-back calls may
  /// see different versions if a writer installs in between.
  std::vector<RowRange> CandidateRanges(
      const std::vector<RangePredicate>& predicates) const {
    return CandidateRanges(*Snapshot(), predicates);
  }
  Result<std::vector<ColumnVector>> ReadRange(const std::vector<int>& columns,
                                              const RowRange& range) {
    return ReadRange(*Snapshot(), columns, range);
  }
  Result<std::vector<ColumnVector>> ReadAll(const std::vector<int>& columns) {
    return ReadAll(*Snapshot(), columns);
  }

  /// Every block id reachable from the current head.
  std::vector<BlockId> AllBlockIds() const;

  /// Forgets every decoded block: the next read of each block goes to
  /// the store again (a dead node's memory is gone). Only raises a flag,
  /// which the next DecodeBlock acts on under cache_mu_ — so it is safe
  /// to call from inside a block read, where a fault trigger may kill
  /// the node while this shard's cache_mu_ is held.
  void DropDecodeCache() {
    drop_cache_.store(true, std::memory_order_release);
  }

 private:
  /// Appends one column run to `chain`, splitting into blocks and
  /// writing them to the store. Adds the encoded size to `bytes`.
  Status AppendColumnTo(std::vector<BlockMeta>* chain, size_t column,
                        const ColumnVector& values, uint64_t first_row,
                        uint64_t* bytes);

  /// Validates chain invariants (no row gaps, columns agree on row
  /// count) and builds an unstamped version from them.
  Result<PreparedVersion> BuildVersion(
      std::vector<std::vector<BlockMeta>> chains) const;

  /// Reads + decodes one block, serving repeat reads from a small
  /// least-recently-used cache (scans pull overlapping blocks once, not
  /// once per batch).
  Result<std::shared_ptr<const ColumnVector>> DecodeBlock(
      const BlockMeta& meta, TypeId type) SDW_EXCLUDES(cache_mu_);

  /// Estimated raw width of one value of the column, for block sizing.
  static size_t EstimateWidth(const ColumnVector& values);

  TableSchema schema_;
  StorageOptions options_;
  BlockStore* store_;
  CommitClock own_clock_{0};
  CommitClock* const clock_;

  /// A version retired by Install, waiting for its pins to drain.
  struct Retired {
    ShardSnapshot version;
    /// Blocks reachable from `version` but not from its successor —
    /// deletable once no snapshot at or before `version` is pinned.
    std::vector<BlockId> garbage;
  };

  /// head_mu_ orders only the head swap and the retired queue; scans
  /// never take it beyond the initial Snapshot() pin. Lock order is
  /// head_mu_ -> store mu_ (GC deletes under head_mu_; the store never
  /// calls back into shards).
  mutable common::Mutex head_mu_{common::LockRank::kShardHead};
  ShardSnapshot head_ SDW_GUARDED_BY(head_mu_);
  std::deque<Retired> retired_ SDW_GUARDED_BY(head_mu_);
  /// head_->version, published for lock-free readers; written only under
  /// head_mu_ together with head_.
  std::atomic<uint64_t> head_stamp_{0};

  /// The decode cache and its recency order are the only shard state
  /// mutated by reads, so they carry the shard's read-path lock. Block
  /// ids are process-unique and blocks immutable, so a cached decode is
  /// never stale and the cache lives across queries. Holding the lock
  /// across the whole decode (including the store Get) makes racing
  /// misses of one block share a single decode; slices do not contend
  /// because each slice owns its own shard. Lock order is cache_mu_ ->
  /// store mu_. The store reaches back into shards only through
  /// DropDecodeCache (a fault trigger failing the node mid-read), which
  /// touches the atomic flag below and never this lock.
  std::atomic<bool> drop_cache_{false};
  mutable common::Mutex cache_mu_{common::LockRank::kShardDecodeCache};
  std::map<BlockId, std::shared_ptr<const ColumnVector>> decode_cache_
      SDW_GUARDED_BY(cache_mu_);
  /// Cached block ids, least recently used first.
  std::vector<BlockId> cache_order_ SDW_GUARDED_BY(cache_mu_);
};

}  // namespace sdw::storage

#endif  // SDW_STORAGE_TABLE_SHARD_H_
