#include "cluster/executor.h"

#include <numeric>

#include "common/logging.h"
#include "exec/hash_table.h"
#include "exec/operators.h"
#include "exec/row_executor.h"
#include "obs/registry.h"
#include "sim/stopwatch.h"

namespace sdw::cluster {

namespace {

/// Builds the scan (+ residual filter) operator for one slice over the
/// statement's pinned snapshot. `telemetry` receives this slice's scan
/// counts; a CountRows cap above the filter records the post-filter
/// cardinality.
Result<exec::OperatorPtr> BuildScan(const ReadSnapshot& snapshot, int slice,
                                    const plan::ScanSpec& spec,
                                    exec::ScanTelemetry* telemetry,
                                    obs::QueryProgress* progress) {
  const storage::ShardRef* ref = snapshot.Find(spec.table, slice);
  if (ref == nullptr) {
    return Status::NotFound("no shard for table '" + spec.table + "'");
  }
  exec::ScanOptions scan_options;
  scan_options.telemetry = telemetry;
  scan_options.progress = progress;
  exec::OperatorPtr op =
      exec::ShardScan(*ref, spec.columns, spec.predicates, scan_options);
  if (spec.filter) {
    op = exec::Filter(std::move(op), spec.filter);
  }
  return exec::CountRows(std::move(op), &telemetry->rows_out);
}

/// Canonical text of a scan's pushed-down range predicates plus its
/// residual filter: "k >= 3 and k <= 9, filter(v > 100)". Stable across
/// runs (catalog column names + Datum::ToString), so it is safe to log
/// into the byte-identity-checked stl_scan history.
std::string RenderPredicates(Cluster* cluster, const plan::ScanSpec& spec) {
  std::string out;
  auto schema = cluster->catalog()->GetTable(spec.table);
  for (const storage::RangePredicate& p : spec.predicates) {
    std::string name =
        schema.ok() && p.column >= 0 &&
                static_cast<size_t>(p.column) < schema->num_columns()
            ? schema->column(p.column).name
            : "col" + std::to_string(p.column);
    if (!p.lo.is_null()) {
      if (!out.empty()) out += " and ";
      out += name + " >= " + p.lo.ToString();
    }
    if (!p.hi.is_null()) {
      if (!out.empty()) out += " and ";
      out += name + " <= " + p.hi.ToString();
    }
  }
  if (spec.filter) {
    if (!out.empty()) out += ", ";
    out += "filter(" + spec.filter->ToString() + ")";
  }
  return out;
}

/// Sums one scan site's per-slice telemetry into a ScanRecord on
/// ExecStats (leader thread, after the site's fan-out joined).
void AddScanRecord(ExecStats* stats, Cluster* cluster, const char* site,
                   const plan::ScanSpec& spec,
                   const std::vector<exec::ScanTelemetry>& slices) {
  obs::ScanRecord scan;
  scan.site = site;
  scan.table = spec.table;
  scan.predicates = RenderPredicates(cluster, spec);
  for (const exec::ScanTelemetry& t : slices) {
    scan.rows_scanned += t.rows_scanned;
    scan.rows_out += t.rows_out;
    scan.blocks_read += t.blocks_read;
    scan.blocks_skipped += t.blocks_skipped;
    scan.bytes_decoded += t.bytes_decoded;
  }
  stats->scans.push_back(std::move(scan));
}

/// Reads a finished query's counters off its span tree, the one
/// per-query ledger: every number was written once, into the span of
/// the work that produced it. Per-slice spans carry their slice's
/// seconds, "finalize" the leader's seconds and the result rows, and
/// the rest are sums over every span (bytes_shuffled is the network
/// traffic: broadcasts, shuffles and returns to the leader).
void ReadStatsOffTrace(const obs::Trace& trace, int slices, ExecStats* stats) {
  stats->slice_seconds.assign(slices, 0.0);
  obs::SpanCounters total;
  for (const obs::Span& span : trace.spans()) {
    total += span.counters;
    if (span.slice >= 0) stats->slice_seconds[span.slice] += span.real_seconds;
    if (span.name == "finalize") {
      stats->leader_seconds = span.real_seconds;
      stats->result_rows = span.counters.rows_out;
    } else if (span.name == "compile" || span.name == "compile (cached)") {
      stats->compile_seconds = span.real_seconds;
    }
  }
  stats->network_bytes = total.bytes_shuffled;
  stats->blocks_decoded = total.blocks_decoded;
  stats->masked_reads = total.masked_reads;
  stats->s3_fault_reads = total.s3_fault_reads;
}

/// One child span per slice under `parent`, created on the leader
/// thread before a fan-out: each task then writes only its own span
/// (the trace's deque keeps the pointers stable).
std::vector<obs::Span*> AddSliceSpans(obs::Trace* trace,
                                      const obs::Span* parent,
                                      const char* name, int slices) {
  std::vector<obs::Span*> spans(slices);
  for (int s = 0; s < slices; ++s) {
    spans[s] = trace->AddSpan(name, parent->span_id, 0, s);
  }
  return spans;
}

/// Number of slices that scan `table` (ALL tables are scanned on a
/// single slice to avoid duplicating rows).
Result<int> ScanSliceCount(Cluster* cluster, const std::string& table) {
  SDW_ASSIGN_OR_RETURN(TableSchema schema,
                       cluster->catalog()->GetTable(table));
  return schema.dist_style() == DistStyle::kAll ? 1
                                                : cluster->total_slices();
}

/// Output types of a scan pipeline, derived from the catalog so shuffle
/// buckets exist before (and regardless of whether) any batch arrives —
/// an empty side must still yield correctly-typed empty buckets.
Result<std::vector<TypeId>> ScanOutputTypes(Cluster* cluster,
                                            const plan::ScanSpec& spec) {
  SDW_ASSIGN_OR_RETURN(TableSchema schema,
                       cluster->catalog()->GetTable(spec.table));
  std::vector<TypeId> types;
  types.reserve(spec.columns.size());
  for (int c : spec.columns) types.push_back(schema.column(c).type);
  return types;
}

/// Deep-copies a batch (broadcast copies per slice).
exec::Batch CopyBatch(const exec::Batch& batch) {
  exec::Batch out = exec::MakeBatch(batch.Types());
  for (size_t c = 0; c < batch.columns.size(); ++c) {
    SDW_CHECK_OK(
        out.columns[c].AppendRange(batch.columns[c], 0, batch.columns[c].size()));
  }
  return out;
}

}  // namespace

Result<std::vector<exec::Batch>> QueryExecutor::RunSlices(
    const plan::PhysicalQuery& query, const ReadSnapshot& snapshot,
    ExecStats* stats, obs::Trace* trace, obs::Span* root) {
  const int slices = cluster_->total_slices();
  SDW_ASSIGN_OR_RETURN(int probe_slices,
                       ScanSliceCount(cluster_, query.scan.table));
  obs::QueryProgress* progress = options_.progress;

  // --- Pre-passes for join strategies that move data. ---
  // Each pre-pass fans its per-slice scans out on the pool. Spans are
  // created on the leader thread before the fan-out; each task writes
  // only its own span and its own pre-sized slots (partitions, scan
  // telemetry), and the leader gathers after the join, so Result<>
  // semantics and accounting are identical to a serial run.
  exec::Batch broadcast_build;
  std::vector<TypeId> build_types;
  std::vector<exec::Batch> probe_buckets;  // kShuffle: per target slice
  std::vector<exec::Batch> build_buckets;
  bool use_buckets = false;

  if (query.join.has_value()) {
    const plan::JoinSpec& join = *query.join;
    if (join.strategy == plan::JoinStrategy::kBroadcastBuild) {
      // Collect the (filtered) build side from its slices once.
      SDW_ASSIGN_OR_RETURN(int build_slices,
                           ScanSliceCount(cluster_, join.build.table));
      SDW_ASSIGN_OR_RETURN(build_types,
                           ScanOutputTypes(cluster_, join.build));
      std::vector<exec::Batch> parts(build_slices);
      std::vector<exec::ScanTelemetry> btel(build_slices);
      obs::Span* bparent = trace->AddSpan("broadcast", root->span_id, 1);
      std::vector<obs::Span*> bspans =
          AddSliceSpans(trace, bparent, "broadcast scan", build_slices);
      SDW_RETURN_IF_ERROR(pool()->ParallelFor(
          build_slices, [&](int s) -> Status {
            sim::Stopwatch timer;
            obs::ScopedSpan scoped(bspans[s]);
            SDW_ASSIGN_OR_RETURN(
                exec::OperatorPtr op,
                BuildScan(snapshot, s, join.build, &btel[s], progress));
            SDW_ASSIGN_OR_RETURN(parts[s], exec::Collect(op.get()));
            bspans[s]->counters.rows_out = parts[s].num_rows();
            bspans[s]->real_seconds = timer.Seconds();
            return Status::OK();
          }));
      AddScanRecord(stats, cluster_, "build", join.build, btel);
      exec::Batch collected = exec::MakeBatch(build_types);
      for (int s = 0; s < build_slices; ++s) {
        for (size_t c = 0; c < collected.columns.size(); ++c) {
          SDW_RETURN_IF_ERROR(collected.columns[c].AppendRange(
              parts[s].columns[c], 0, parts[s].columns[c].size()));
        }
      }
      // Broadcast: one copy to every other node.
      bparent->counters.bytes_shuffled =
          EstimateBytes(collected.columns) *
          static_cast<uint64_t>(cluster_->num_nodes() - 1);
      broadcast_build = std::move(collected);
    } else if (join.strategy == plan::JoinStrategy::kShuffle) {
      // Re-hash both sides on the join key across all slices.
      use_buckets = true;
      auto shuffle = [&](const plan::ScanSpec& spec,
                         const std::vector<int>& keys,
                         std::vector<exec::Batch>* buckets,
                         const char* label, const char* site) -> Status {
        SDW_ASSIGN_OR_RETURN(int side_slices,
                             ScanSliceCount(cluster_, spec.table));
        SDW_ASSIGN_OR_RETURN(std::vector<TypeId> types,
                             ScanOutputTypes(cluster_, spec));
        // local[s][t]: rows slice s routes to target slice t. Allocated
        // from catalog types up front, so a side that scans zero
        // batches still produces (empty) buckets for every target.
        std::vector<std::vector<exec::Batch>> local(side_slices);
        std::vector<exec::ScanTelemetry> stel(side_slices);
        std::vector<obs::Span*> sspans =
            AddSliceSpans(trace, trace->AddSpan(label, root->span_id, 1),
                          "shuffle scan", side_slices);
        SDW_RETURN_IF_ERROR(pool()->ParallelFor(
            side_slices, [&](int s) -> Status {
              sim::Stopwatch timer;
              obs::ScopedSpan scoped(sspans[s]);
              SDW_ASSIGN_OR_RETURN(
                  exec::OperatorPtr op,
                  BuildScan(snapshot, s, spec, &stel[s], progress));
              std::vector<exec::Batch>& mine = local[s];
              mine.reserve(slices);
              for (int t = 0; t < slices; ++t) {
                mine.push_back(exec::MakeBatch(types));
              }
              uint64_t rows_routed = 0;
              std::vector<uint64_t> hashes;
              std::vector<std::vector<uint32_t>> routed(slices);
              while (true) {
                SDW_ASSIGN_OR_RETURN(std::optional<exec::Batch> batch,
                                     op->Next());
                if (!batch.has_value()) break;
                const size_t n = batch->num_rows();
                rows_routed += n;
                // Hash the batch once, then gather each target's rows
                // column by column.
                exec::HashRows(*batch, keys, &hashes);
                for (auto& rows : routed) rows.clear();
                for (size_t i = 0; i < n; ++i) {
                  routed[hashes[i] % static_cast<uint64_t>(slices)].push_back(
                      static_cast<uint32_t>(i));
                }
                for (int t = 0; t < slices; ++t) {
                  for (size_t c = 0; c < batch->columns.size(); ++c) {
                    SDW_RETURN_IF_ERROR(mine[t].columns[c].AppendSelected(
                        batch->columns[c], routed[t]));
                  }
                }
              }
              // Cross-node moves hit the interconnect: charge the real
              // wire size of each remote-bound bucket (matches the
              // EstimateBytes accounting of broadcast/leader paths and
              // counts varchar payloads, unlike a flat per-row rate).
              const int src_node = cluster_->NodeOfSlice(s)->node_id();
              for (int t = 0; t < slices; ++t) {
                if (cluster_->NodeOfSlice(t)->node_id() != src_node) {
                  sspans[s]->counters.bytes_shuffled +=
                      EstimateBytes(mine[t].columns);
                }
              }
              sspans[s]->counters.rows_out = rows_routed;
              sspans[s]->real_seconds = timer.Seconds();
              return Status::OK();
            }));
        AddScanRecord(stats, cluster_, site, spec, stel);
        buckets->clear();
        for (int t = 0; t < slices; ++t) {
          buckets->push_back(exec::MakeBatch(types));
        }
        for (int s = 0; s < side_slices; ++s) {
          for (int t = 0; t < slices; ++t) {
            for (size_t c = 0; c < (*buckets)[t].columns.size(); ++c) {
              SDW_RETURN_IF_ERROR((*buckets)[t].columns[c].AppendRange(
                  local[s][t].columns[c], 0, local[s][t].columns[c].size()));
            }
          }
        }
        return Status::OK();
      };
      SDW_RETURN_IF_ERROR(shuffle(query.scan, query.join->probe_keys,
                                  &probe_buckets, "shuffle probe", "probe"));
      SDW_RETURN_IF_ERROR(shuffle(query.join->build, query.join->build_keys,
                                  &build_buckets, "shuffle build", "build"));
    }
  }

  // --- Per-slice pipelines, one pool task per slice. ---
  const int pipeline_slices = use_buckets ? slices : probe_slices;
  if (progress != nullptr) progress->set_slices_total(pipeline_slices);
  std::vector<exec::Batch> outputs(pipeline_slices);
  // kShuffle pipelines read the shuffle buckets (already profiled by
  // the pre-pass); only direct shard scans get telemetry slots here.
  std::vector<exec::ScanTelemetry> ptel;
  std::vector<exec::ScanTelemetry> ctel;  // co-located build
  const bool colocated_build =
      !use_buckets && query.join.has_value() &&
      query.join->strategy == plan::JoinStrategy::kCoLocated;
  if (!use_buckets) {
    ptel.assign(pipeline_slices, {});
    if (colocated_build) ctel.assign(pipeline_slices, {});
  }
  std::vector<obs::Span*> pspans =
      AddSliceSpans(trace, trace->AddSpan("pipeline", root->span_id, 2),
                    "slice pipeline", pipeline_slices);
  SDW_RETURN_IF_ERROR(pool()->ParallelFor(
      pipeline_slices, [&](int s) -> Status {
        sim::Stopwatch timer;
        obs::ScopedSpan scoped(pspans[s]);
        exec::OperatorPtr pipeline;
        if (use_buckets) {
          auto probe_types = probe_buckets[s].Types();
          std::vector<exec::Batch> one;
          one.push_back(std::move(probe_buckets[s]));
          exec::OperatorPtr probe =
              exec::MemoryScan(probe_types, std::move(one));
          auto bt = build_buckets[s].Types();
          std::vector<exec::Batch> bone;
          bone.push_back(std::move(build_buckets[s]));
          exec::OperatorPtr build = exec::MemoryScan(bt, std::move(bone));
          pipeline = exec::HashJoin(std::move(probe), std::move(build),
                                    query.join->probe_keys,
                                    query.join->build_keys);
        } else {
          SDW_ASSIGN_OR_RETURN(
              pipeline, BuildScan(snapshot, s, query.scan, &ptel[s], progress));
          if (query.join.has_value()) {
            const plan::JoinSpec& join = *query.join;
            exec::OperatorPtr build;
            if (join.strategy == plan::JoinStrategy::kBroadcastBuild) {
              std::vector<exec::Batch> one;
              one.push_back(CopyBatch(broadcast_build));
              build = exec::MemoryScan(build_types, std::move(one));
            } else {  // co-located
              SDW_ASSIGN_OR_RETURN(build, BuildScan(snapshot, s, join.build,
                                                    &ctel[s], progress));
            }
            pipeline = exec::HashJoin(std::move(pipeline), std::move(build),
                                      join.probe_keys, join.build_keys);
          }
        }
        if (query.agg.has_value()) {
          pipeline = exec::HashAggregate(std::move(pipeline),
                                         query.agg->group_by, query.agg->aggs,
                                         exec::AggMode::kPartial);
        }
        SDW_ASSIGN_OR_RETURN(outputs[s], exec::Collect(pipeline.get()));
        pspans[s]->real_seconds = timer.Seconds();
        pspans[s]->counters.rows_out = outputs[s].num_rows();
        // Intermediate results stream back to the leader.
        pspans[s]->counters.bytes_shuffled = EstimateBytes(outputs[s].columns);
        if (progress != nullptr) progress->SliceDone();
        return Status::OK();
      }));
  if (!ptel.empty()) {
    AddScanRecord(stats, cluster_, "probe", query.scan, ptel);
  }
  if (!ctel.empty()) {
    AddScanRecord(stats, cluster_, "build", query.join->build, ctel);
  }
  return outputs;
}

Result<std::vector<exec::Batch>> QueryExecutor::RunSlicesInterpreted(
    const plan::PhysicalQuery& query, const ReadSnapshot& snapshot,
    obs::Trace* trace, obs::Span* root) {
  if (query.join.has_value()) {
    return Status::NotSupported(
        "interpreted mode supports scan/filter/aggregate pipelines");
  }
  if (query.agg.has_value()) {
    for (const exec::AggSpec& spec : query.agg->aggs) {
      if (spec.fn == exec::AggFn::kApproxDistinct) {
        return Status::NotSupported(
            "APPROXIMATE aggregates require the compiled engine (sketch "
            "partials are not mergeable row-at-a-time)");
      }
    }
  }
  SDW_ASSIGN_OR_RETURN(int probe_slices,
                       ScanSliceCount(cluster_, query.scan.table));
  SDW_ASSIGN_OR_RETURN(TableSchema schema,
                       cluster_->catalog()->GetTable(query.scan.table));
  // Pipeline output types (must match the compiled path's layout).
  std::vector<TypeId> scan_types;
  for (int c : query.scan.columns) scan_types.push_back(schema.column(c).type);
  std::vector<TypeId> out_types;
  if (query.agg.has_value()) {
    for (int g : query.agg->group_by) out_types.push_back(scan_types[g]);
    for (const exec::AggSpec& a : query.agg->aggs) {
      switch (a.fn) {
        case exec::AggFn::kCount:
          out_types.push_back(TypeId::kInt64);
          break;
        case exec::AggFn::kSum:
          out_types.push_back(a.column >= 0 &&
                                      scan_types[a.column] == TypeId::kDouble
                                  ? TypeId::kDouble
                                  : TypeId::kInt64);
          break;
        case exec::AggFn::kMin:
        case exec::AggFn::kMax:
          out_types.push_back(scan_types[a.column]);
          break;
        case exec::AggFn::kApproxDistinct:
          out_types.push_back(TypeId::kInt64);  // unreachable: guarded above
          break;
      }
    }
  } else {
    out_types = scan_types;
  }

  // Interpreted mode keeps live slice progress and charges each slice
  // span the blocks its full scan needs, but records no scan sites:
  // RowScan has no zone maps (stl_scan only covers the compiled
  // production path).
  if (options_.progress != nullptr) {
    options_.progress->set_slices_total(probe_slices);
  }
  std::vector<exec::Batch> outputs(probe_slices);
  std::vector<obs::Span*> pspans =
      AddSliceSpans(trace, trace->AddSpan("pipeline", root->span_id, 2),
                    "slice pipeline", probe_slices);
  SDW_RETURN_IF_ERROR(pool()->ParallelFor(probe_slices, [&](int s) -> Status {
    sim::Stopwatch timer;
    obs::ScopedSpan scoped(pspans[s]);
    const storage::ShardRef* ref = snapshot.Find(query.scan.table, s);
    if (ref == nullptr) {
      return Status::NotFound("no shard for table '" + query.scan.table + "'");
    }
    exec::RowOperatorPtr pipe = exec::RowScan(*ref, query.scan.columns);
    if (query.scan.filter) {
      pipe = exec::RowFilter(std::move(pipe), query.scan.filter);
    }
    if (query.agg.has_value()) {
      pipe = exec::RowAggregate(std::move(pipe), query.agg->group_by,
                                query.agg->aggs);
    }
    SDW_ASSIGN_OR_RETURN(outputs[s], exec::CollectRows(pipe.get(), out_types));
    pspans[s]->real_seconds = timer.Seconds();
    pspans[s]->counters.rows_out = outputs[s].num_rows();
    pspans[s]->counters.bytes_shuffled = EstimateBytes(outputs[s].columns);
    if (options_.progress != nullptr) options_.progress->SliceDone();
    return Status::OK();
  }));
  return outputs;
}

Result<QueryResult> QueryExecutor::Execute(const plan::PhysicalQuery& query) {
  QueryResult result;
  ExecStats& stats = result.stats;
  if (options_.progress != nullptr) {
    options_.progress->set_phase(obs::QueryPhase::kExec);
  }
  result.trace = std::make_shared<obs::Trace>();
  obs::Trace* trace = result.trace.get();
  obs::Span* root = trace->AddSpan("query", -1, 0);
  // Pin the statement's snapshot if the caller (the warehouse) did not
  // hand one in: one consistent version per table across all slices.
  std::shared_ptr<const ReadSnapshot> snapshot = options_.snapshot;
  if (snapshot == nullptr) {
    std::vector<std::string> tables = {query.scan.table};
    if (query.join.has_value()) tables.push_back(query.join->build.table);
    auto pinned = std::make_shared<ReadSnapshot>();
    SDW_RETURN_IF_ERROR(cluster_->PinTables(tables, pinned.get()));
    snapshot = std::move(pinned);
  }
  if (options_.mode == ExecutionMode::kCompiled) {
    obs::Span* compile = trace->AddSpan(
        options_.segment_cache_hit ? "compile (cached)" : "compile",
        root->span_id, 0);
    compile->real_seconds =
        options_.segment_cache_hit ? 0.0 : options_.compile_seconds;
  }

  std::vector<exec::Batch> slice_outputs;
  if (options_.mode == ExecutionMode::kCompiled) {
    SDW_ASSIGN_OR_RETURN(slice_outputs,
                         RunSlices(query, *snapshot, &stats, trace, root));
  } else {
    SDW_ASSIGN_OR_RETURN(slice_outputs,
                         RunSlicesInterpreted(query, *snapshot, trace, root));
  }

  // --- Leader finalization. ---
  if (options_.progress != nullptr) {
    options_.progress->set_phase(obs::QueryPhase::kFinalize);
  }
  sim::Stopwatch leader_timer;
  obs::Span* finalize = trace->AddSpan("finalize", root->span_id, 3);
  obs::ScopedSpan finalize_scope(finalize);
  std::vector<TypeId> types;
  for (const auto& b : slice_outputs) {
    if (b.num_columns() > 0) {
      types = b.Types();
      break;
    }
  }
  if (types.empty() && !slice_outputs.empty()) {
    types = slice_outputs[0].Types();
  }
  exec::OperatorPtr leader =
      exec::MemoryScan(types, std::move(slice_outputs));
  if (query.agg.has_value()) {
    // Final aggregation: group columns are the leading partial columns.
    std::vector<int> final_groups(query.agg->group_by.size());
    std::iota(final_groups.begin(), final_groups.end(), 0);
    leader = exec::HashAggregate(std::move(leader), final_groups,
                                 query.agg->aggs, exec::AggMode::kFinal);
  }
  if (!query.project.empty()) {
    leader = exec::Project(std::move(leader), query.project);
  }
  if (!query.order_by.empty()) {
    leader = exec::Sort(std::move(leader), query.order_by);
  }
  if (query.limit.has_value()) {
    leader = exec::Limit(std::move(leader), *query.limit);
  }
  SDW_ASSIGN_OR_RETURN(result.rows, exec::Collect(leader.get()));
  finalize->real_seconds = leader_timer.Seconds();
  finalize->counters.rows_out = result.rows.num_rows();
  // Work done by other executors on the same cluster never leaks in:
  // every counter was charged to a span of this query's tree.
  ReadStatsOffTrace(*trace, cluster_->total_slices(), &stats);
  cluster_->AddNetworkBytes(stats.network_bytes);
  result.column_names = query.output_names;
  static obs::Counter* query_count =
      obs::Registry::Global().counter("sdw_query_count");
  static obs::Counter* query_rows =
      obs::Registry::Global().counter("sdw_query_result_rows");
  query_count->Add();
  query_rows->Add(stats.result_rows);
  return result;
}

}  // namespace sdw::cluster
