#ifndef SDW_CLUSTER_EXECUTOR_H_
#define SDW_CLUSTER_EXECUTOR_H_

#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/cost_model.h"
#include "exec/batch.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "plan/physical.h"

namespace sdw::cluster {

/// Which engine runs the per-slice pipelines (the A5 experiment's two
/// arms). kCompiled is the production path: type-specialized vectorized
/// segments, paying a fixed per-query "compilation" latency. kInterpreted
/// is the tuple-at-a-time general-purpose executor.
enum class ExecutionMode { kCompiled, kInterpreted };

struct ExecOptions {
  ExecutionMode mode = ExecutionMode::kCompiled;
  /// Modeled fixed cost of plan->C++->binary compilation at the leader
  /// (only charged in kCompiled mode). Defaults to 0 so tests measure
  /// pure execution; benches set it from the CostModel.
  double compile_seconds = 0.0;
  /// Per-slice parallelism: -1 uses the cluster's shared pool (sized
  /// from topology), 0 forces serial inline execution (the benches'
  /// baseline arm), >0 gives this executor a private pool of that many
  /// workers. Serial and parallel runs produce identical results and
  /// identical blocks_decoded counts.
  int pool_size = -1;
  /// The plan came from the warehouse's compiled-segment cache: the
  /// per-query compile_seconds charge is skipped (the segments already
  /// exist) and the trace records a zero-cost "compile (cached)" span.
  bool segment_cache_hit = false;
  /// The MVCC snapshot the scans read as of (the warehouse pins it at
  /// admission, under its snapshot-coherence lock). Null: Execute pins
  /// the current version of the query's tables itself, so even direct
  /// executor users get one consistent version across all slices.
  std::shared_ptr<const ReadSnapshot> snapshot;
  /// Live progress counters for stv_inflight (owned by the warehouse's
  /// in-flight registry); null when nobody is watching.
  obs::QueryProgress* progress = nullptr;
};

/// Per-query execution telemetry. Execute reads every field but `scans`
/// off the query's span tree, where each number was written once by
/// the work that produced it, so concurrent queries on one cluster
/// never see each other's work.
struct ExecStats {
  /// Measured CPU seconds per slice (in a real cluster each slice runs
  /// on its own core, so modeled wall clock takes the max).
  std::vector<double> slice_seconds;
  /// Measured leader-side seconds (final agg, sort, limit).
  double leader_seconds = 0;
  /// Bytes that crossed node boundaries for this query.
  uint64_t network_bytes = 0;
  /// Blocks the query's scans need: per projected column, the blocks
  /// overlapping a zone-map candidate range, counted from chain
  /// metadata (zone-map effectiveness). Whether a decode cache already
  /// holds them does not change it; sdw_storage_blocks_decoded counts
  /// the real decodes process-wide.
  uint64_t blocks_decoded = 0;
  /// Rows returned to the client.
  uint64_t result_rows = 0;
  /// Fixed compile overhead charged (kCompiled only).
  double compile_seconds = 0;
  /// Block reads this query served from a secondary replica after a
  /// local media failure (§2.1 failure masking — customers never
  /// notice, but we count).
  uint64_t masked_reads = 0;
  /// Block reads that fell through to the S3 page-fault path (§2.3
  /// streaming restore / both copies gone).
  uint64_t s3_fault_reads = 0;
  /// Per-scan-site telemetry summed over the site's slices, in
  /// deterministic plan order (build pre-passes before pipeline scans)
  /// — the raw material for stl_scan. Metadata-derived counts and
  /// canonical predicate text, so serial and pooled runs agree; the
  /// warehouse fills in query_id. Empty in interpreted mode.
  std::vector<obs::ScanRecord> scans;

  double MaxSliceSeconds() const {
    double m = 0;
    for (double s : slice_seconds) m = std::max(m, s);
    return m;
  }

  /// Modeled parallel wall-clock: compile + slowest slice + network +
  /// leader.
  double ModeledSeconds(const CostModel& model) const {
    return compile_seconds + MaxSliceSeconds() +
           model.NetworkSeconds(network_bytes, 1) + leader_seconds;
  }

  /// Sum of slice CPU (what a single-node system would have to spend).
  double TotalSliceSeconds() const {
    double t = 0;
    for (double s : slice_seconds) t += s;
    return t;
  }
};

/// A completed query: rows, names, stats, and the trace they came from.
struct QueryResult {
  exec::Batch rows;
  std::vector<std::string> column_names;
  ExecStats stats;
  /// Span tree recorded during execution (never null). Virtual
  /// timestamps are assigned later, by the warehouse's QueryLog (they
  /// need the warehouse clock).
  std::shared_ptr<obs::Trace> trace;
};

/// Executes PhysicalQuery plans against a Cluster: per-slice pipelines
/// (scan [+ join] [+ partial agg]) then leader finalization — the §2.1
/// flow ("the executable and plan parameters are sent to each compute
/// node participating in the query ... intermediate results are sent
/// back to the leader node for final aggregation").
class QueryExecutor {
 public:
  explicit QueryExecutor(Cluster* cluster, ExecOptions options = {})
      : cluster_(cluster), options_(options) {
    if (options_.pool_size >= 0) {
      own_pool_ = std::make_unique<common::ThreadPool>(options_.pool_size);
    }
  }

  Result<QueryResult> Execute(const plan::PhysicalQuery& query);

 private:
  /// The pool per-slice work fans out on (serial-inline when sized 0).
  common::ThreadPool* pool() {
    return own_pool_ ? own_pool_.get() : cluster_->pool();
  }

  /// Builds the per-slice pipeline output batches for every slice,
  /// scanning the pinned `snapshot`. Records its spans under `root` and
  /// its scan sites on `stats->scans`.
  Result<std::vector<exec::Batch>> RunSlices(const plan::PhysicalQuery& query,
                                             const ReadSnapshot& snapshot,
                                             ExecStats* stats,
                                             obs::Trace* trace,
                                             obs::Span* root);

  /// kInterpreted per-slice pipeline (scan/filter/agg only).
  Result<std::vector<exec::Batch>> RunSlicesInterpreted(
      const plan::PhysicalQuery& query, const ReadSnapshot& snapshot,
      obs::Trace* trace, obs::Span* root);

  Cluster* cluster_;
  ExecOptions options_;
  std::unique_ptr<common::ThreadPool> own_pool_;
};

}  // namespace sdw::cluster

#endif  // SDW_CLUSTER_EXECUTOR_H_
