#ifndef SDW_EXEC_OPERATORS_H_
#define SDW_EXEC_OPERATORS_H_

#include <memory>
#include <optional>
#include <vector>

#include "exec/batch.h"
#include "exec/expr.h"
#include "exec/hash_table.h"
#include "storage/table_shard.h"

namespace sdw::obs {
class QueryProgress;
}  // namespace sdw::obs

namespace sdw::exec {

/// A pull-based batch operator (vectorized Volcano). Next() yields
/// batches until std::nullopt.
class Operator {
 public:
  virtual ~Operator() = default;

  /// Column types this operator produces.
  virtual std::vector<TypeId> OutputTypes() const = 0;

  /// Produces the next batch, or nullopt at end of stream.
  virtual Result<std::optional<Batch>> Next() = 0;
};

using OperatorPtr = std::unique_ptr<Operator>;

/// Drains an operator into one materialized batch.
Result<Batch> Collect(Operator* op);

/// Yields pre-materialized batches (test inputs, exchange receive
/// queues, ALL-distributed dimension tables).
OperatorPtr MemoryScan(std::vector<TypeId> types, std::vector<Batch> batches);

/// Per-scan telemetry filled by ShardScan (and CountRows for rows_out).
/// Block and byte counts are computed statically at operator
/// construction from the pinned version's chain metadata and the
/// zone-map candidate ranges — deterministic regardless of decode-cache
/// state or scheduling; rows_scanned accumulates as batches decode.
struct ScanTelemetry {
  uint64_t rows_scanned = 0;
  uint64_t rows_out = 0;
  uint64_t blocks_read = 0;
  uint64_t blocks_skipped = 0;
  uint64_t bytes_decoded = 0;
};

/// Scans a table shard: zone-map pruning from the range predicates,
/// then batch-wise decode of the surviving row ranges. `columns` picks
/// and orders the projected columns. With no column (a bare COUNT(*))
/// the scan reads no block: each candidate range becomes one batch that
/// carries only its row count, taken from the pinned version's chains.
struct ScanOptions {
  size_t batch_rows = 4096;
  /// Optional telemetry sink; must outlive the operator. Each slice's
  /// scan gets its own struct (no cross-thread writes).
  ScanTelemetry* telemetry = nullptr;
  /// Optional live progress counters (stv_inflight); bumped with
  /// relaxed atomics per batch, shared across slices.
  obs::QueryProgress* progress = nullptr;
};
OperatorPtr ShardScan(storage::ShardRef ref, std::vector<int> columns,
                      std::vector<storage::RangePredicate> predicates = {},
                      ScanOptions options = {});
/// Non-owning form: pins the shard's current head version (tests and
/// other single-threaded callers; concurrent readers pass a ShardRef).
OperatorPtr ShardScan(storage::TableShard* shard, std::vector<int> columns,
                      std::vector<storage::RangePredicate> predicates = {},
                      ScanOptions options = {});

/// Keeps rows where `predicate` evaluates to TRUE (NULL drops).
OperatorPtr Filter(OperatorPtr input, ExprPtr predicate);

/// Transparent pass-through that adds every batch's row count to
/// `*counter`. Placed above a scan's filter to record post-filter
/// cardinality (stl_scan's rows_out). `counter` must outlive the
/// operator and be written from one thread only.
OperatorPtr CountRows(OperatorPtr input, uint64_t* counter);

/// Computes one output column per expression.
OperatorPtr Project(OperatorPtr input, std::vector<ExprPtr> exprs);

/// Inner hash join: materializes and hashes `build`, streams `probe`.
/// Output columns: probe columns then build columns. Keys are column
/// indices into each side's output. Rows come out in probe order, and
/// a probe row's matches in build order; NULL keys never match.
OperatorPtr HashJoin(OperatorPtr probe, OperatorPtr build,
                     std::vector<int> probe_keys, std::vector<int> build_keys);

struct AggSpec {
  AggFn fn = AggFn::kCount;
  /// Input column; -1 for COUNT(*).
  int column = -1;
};

/// How the aggregate participates in distributed execution: kSingle
/// computes the whole aggregate; kPartial emits per-slice partial
/// states; kFinal merges partials at the leader (paper §2.1: "performs
/// final aggregation of results").
enum class AggMode { kSingle, kPartial, kFinal };

/// Hash aggregation grouped by `group_by` columns. Output: group
/// columns, then one column per agg, one row per group in first-seen
/// order (NULL keys group together). Without GROUP BY, kSingle and
/// kPartial fold each batch straight into the one group, with no hash
/// or key table. In kFinal mode the input must have the kPartial output
/// layout. An integer SUM that overflows fails with OutOfRange.
OperatorPtr HashAggregate(OperatorPtr input, std::vector<int> group_by,
                          std::vector<AggSpec> aggs,
                          AggMode mode = AggMode::kSingle);

/// Materializing sort. `descending[i]` flips key i.
struct SortKey {
  int column = 0;
  bool descending = false;
};
OperatorPtr Sort(OperatorPtr input, std::vector<SortKey> keys);

/// Emits at most `limit` rows.
OperatorPtr Limit(OperatorPtr input, uint64_t limit);

}  // namespace sdw::exec

#endif  // SDW_EXEC_OPERATORS_H_
