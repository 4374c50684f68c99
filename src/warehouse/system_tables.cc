#include "warehouse/system_tables.h"

#include <cstdio>
#include <set>

#include "catalog/catalog.h"
#include "exec/operators.h"
#include "obs/registry.h"
#include "plan/planner.h"

namespace sdw::warehouse {

namespace {

ColumnDef IntCol(const std::string& name) {
  return {name, TypeId::kInt64, ColumnEncoding::kRaw, false};
}
ColumnDef StrCol(const std::string& name) {
  return {name, TypeId::kString, ColumnEncoding::kRaw, false};
}
ColumnDef DblCol(const std::string& name) {
  return {name, TypeId::kDouble, ColumnEncoding::kRaw, false};
}

Result<TableSchema> SchemaFor(const std::string& name) {
  if (name == "stl_query") {
    // queue_seconds/exec_seconds are measured real time (the WLM split
    // of the old `elapsed` tick delta, which stays derivable from the
    // tick columns) — deterministic comparisons must project them out.
    return TableSchema(name, {IntCol("query_id"), StrCol("sql_text"),
                              StrCol("status"), IntCol("start_tick"),
                              IntCol("end_tick"), DblCol("queue_seconds"),
                              DblCol("exec_seconds"), IntCol("result_rows"),
                              IntCol("blocks_decoded"),
                              IntCol("network_bytes"), IntCol("masked_reads"),
                              IntCol("s3_fault_reads"), StrCol("snapshot")});
  }
  if (name == "stl_span") {
    return TableSchema(name, {IntCol("query_id"), IntCol("span_id"),
                              IntCol("parent_id"), StrCol("name"),
                              IntCol("slice"), IntCol("stage"),
                              IntCol("start_tick"), IntCol("end_tick"),
                              IntCol("rows_out"), IntCol("blocks_decoded"),
                              IntCol("bytes_shuffled"), IntCol("masked_reads"),
                              IntCol("s3_fault_reads")});
  }
  if (name == "stv_blocklist") {
    return TableSchema(name, {StrCol("tbl"), IntCol("node"), IntCol("slice"),
                              StrCol("col"), IntCol("blk"), IntCol("rows"),
                              IntCol("bytes"), StrCol("encoding"),
                              IntCol("version")});
  }
  if (name == "stv_metrics") {
    return TableSchema(name,
                       {StrCol("name"), StrCol("kind"), DblCol("value")});
  }
  if (name == "stl_health_events") {
    return TableSchema(name, {IntCol("event_id"), IntCol("tick"),
                              StrCol("source"), StrCol("kind"), IntCol("node"),
                              DblCol("value"), StrCol("detail")});
  }
  if (name == "stl_wlm") {
    return TableSchema(name, {IntCol("seq"), IntCol("session_id"),
                              StrCol("state"), StrCol("queue"),
                              StrCol("statement"),
                              DblCol("queued_seconds"),
                              DblCol("exec_seconds"), IntCol("hops")});
  }
  if (name == "stv_cache") {
    return TableSchema(name, {StrCol("cache"), StrCol("fingerprint"),
                              StrCol("tables"), IntCol("hits"),
                              IntCol("entry_rows"), IntCol("live")});
  }
  if (name == "stl_scan") {
    return TableSchema(name, {IntCol("scan_id"), IntCol("query_id"),
                              StrCol("tbl"), StrCol("site"),
                              StrCol("predicates"), IntCol("rows_scanned"),
                              IntCol("rows_out"), IntCol("blocks_read"),
                              IntCol("blocks_skipped"),
                              IntCol("bytes_decoded")});
  }
  if (name == "stv_inflight") {
    return TableSchema(name, {IntCol("inflight_id"), IntCol("session_id"),
                              StrCol("statement"), StrCol("phase"),
                              IntCol("rows_scanned"), IntCol("slices_done"),
                              IntCol("slices_total"),
                              DblCol("queued_seconds"),
                              DblCol("exec_seconds")});
  }
  if (name == "stv_gauge_history") {
    return TableSchema(name, {IntCol("seq"), IntCol("tick"), StrCol("queue"),
                              IntCol("wlm_queued"), IntCol("wlm_running"),
                              IntCol("wlm_max_in_flight"),
                              DblCol("result_cache_hit_rate"),
                              DblCol("segment_cache_hit_rate"),
                              IntCol("gc_backlog"),
                              IntCol("degraded_blocks")});
  }
  if (name == "stl_alert_event_log") {
    return TableSchema(name, {IntCol("alert_id"), IntCol("query_id"),
                              IntCol("tick"), StrCol("rule"), StrCol("tbl"),
                              DblCol("evidence"), StrCol("detail"),
                              StrCol("action")});
  }
  return Status::NotFound("unknown system table '" + name + "'");
}

void AppendTicks(ColumnVector* col, uint64_t v) {
  col->AppendInt(static_cast<int64_t>(v));
}

exec::Batch BuildStlQuery(const obs::QueryLog& log,
                          const TableSchema& schema) {
  exec::Batch b;
  for (const ColumnDef& c : schema.columns()) b.columns.emplace_back(c.type);
  for (const auto& q : log.history().Snapshot()) {
    b.columns[0].AppendInt(q->query_id);
    b.columns[1].AppendString(q->sql_text);
    b.columns[2].AppendString(q->status);
    AppendTicks(&b.columns[3], q->start_tick);
    AppendTicks(&b.columns[4], q->end_tick);
    b.columns[5].AppendDouble(q->queue_seconds);
    b.columns[6].AppendDouble(q->exec_seconds);
    AppendTicks(&b.columns[7], q->result_rows);
    AppendTicks(&b.columns[8], q->counters.blocks_decoded);
    AppendTicks(&b.columns[9], q->counters.bytes_shuffled);
    AppendTicks(&b.columns[10], q->counters.masked_reads);
    AppendTicks(&b.columns[11], q->counters.s3_fault_reads);
    b.columns[12].AppendString(q->snapshot);
  }
  return b;
}

exec::Batch BuildStlSpan(const obs::QueryLog& log, const TableSchema& schema) {
  exec::Batch b;
  for (const ColumnDef& c : schema.columns()) b.columns.emplace_back(c.type);
  for (const auto& q : log.history().Snapshot()) {
    if (!q->trace) continue;
    for (const obs::Span& s : q->trace->spans()) {
      b.columns[0].AppendInt(q->query_id);
      b.columns[1].AppendInt(s.span_id);
      b.columns[2].AppendInt(s.parent_id);
      b.columns[3].AppendString(s.name);
      b.columns[4].AppendInt(s.slice);
      b.columns[5].AppendInt(s.stage);
      AppendTicks(&b.columns[6], s.start_tick);
      AppendTicks(&b.columns[7], s.end_tick);
      AppendTicks(&b.columns[8], s.counters.rows_out);
      AppendTicks(&b.columns[9], s.counters.blocks_decoded);
      AppendTicks(&b.columns[10], s.counters.bytes_shuffled);
      AppendTicks(&b.columns[11], s.counters.masked_reads);
      AppendTicks(&b.columns[12], s.counters.s3_fault_reads);
    }
  }
  return b;
}

exec::Batch BuildStvBlocklist(cluster::Cluster* cluster,
                              const TableSchema& schema) {
  exec::Batch b;
  for (const ColumnDef& c : schema.columns()) b.columns.emplace_back(c.type);
  // TableNames() is map-ordered and slices are walked in order, so the
  // listing is deterministic. `blk` is the block's position in its
  // column chain, not the global BlockId — chain positions compare
  // equal across two warehouses loaded with the same workload, global
  // ids do not.
  for (const std::string& table : cluster->catalog()->TableNames()) {
    auto schema_or = cluster->catalog()->GetTable(table);
    if (!schema_or.ok()) continue;
    const TableSchema& tschema = *schema_or;
    for (int s = 0; s < cluster->total_slices(); ++s) {
      auto shard = cluster->shard_ref(s, table);
      if (!shard.ok()) continue;
      const int node = cluster->NodeOfSlice(s)->node_id();
      // One consistent version per shard: the listing shows the chains
      // of the head published at this instant, tagged with its MVCC
      // version (what a SELECT admitted now would pin).
      storage::ShardSnapshot head = (*shard)->Snapshot();
      for (size_t c = 0; c < head->chains.size(); ++c) {
        const std::vector<storage::BlockMeta>& chain = head->chains[c];
        for (size_t p = 0; p < chain.size(); ++p) {
          b.columns[0].AppendString(table);
          b.columns[1].AppendInt(node);
          b.columns[2].AppendInt(s);
          b.columns[3].AppendString(tschema.column(c).name);
          b.columns[4].AppendInt(static_cast<int64_t>(p));
          b.columns[5].AppendInt(static_cast<int64_t>(chain[p].row_count));
          b.columns[6].AppendInt(static_cast<int64_t>(chain[p].encoded_bytes));
          b.columns[7].AppendString(ColumnEncodingName(chain[p].encoding));
          b.columns[8].AppendInt(static_cast<int64_t>(head->version));
        }
      }
    }
  }
  return b;
}

exec::Batch BuildStvMetrics(const TableSchema& schema) {
  exec::Batch b;
  for (const ColumnDef& c : schema.columns()) b.columns.emplace_back(c.type);
  for (const obs::MetricRow& m : obs::Registry::Global().Snapshot()) {
    b.columns[0].AppendString(m.name);
    b.columns[1].AppendString(m.kind);
    b.columns[2].AppendDouble(m.value);
  }
  return b;
}

exec::Batch BuildStlHealthEvents(const obs::History<obs::HealthEvent>& log,
                                 const TableSchema& schema) {
  exec::Batch b;
  for (const ColumnDef& c : schema.columns()) b.columns.emplace_back(c.type);
  for (const auto& e : log.Snapshot()) {
    b.columns[0].AppendInt(e->event_id);
    AppendTicks(&b.columns[1], e->tick);
    b.columns[2].AppendString(e->source);
    b.columns[3].AppendString(e->kind);
    b.columns[4].AppendInt(e->node);
    b.columns[5].AppendDouble(e->value);
    b.columns[6].AppendString(e->detail);
  }
  return b;
}

exec::Batch BuildStlWlm(const cluster::AdmissionController& wlm,
                        const TableSchema& schema) {
  exec::Batch b;
  for (const ColumnDef& c : schema.columns()) b.columns.emplace_back(c.type);
  for (const auto& r : wlm.report_history().Snapshot()) {
    b.columns[0].AppendInt(static_cast<int64_t>(r->seq));
    b.columns[1].AppendInt(r->session_id);
    b.columns[2].AppendString(r->state);
    b.columns[3].AppendString(r->queue);
    b.columns[4].AppendString(r->statement);
    b.columns[5].AppendDouble(r->queued_seconds);
    b.columns[6].AppendDouble(r->exec_seconds);
    b.columns[7].AppendInt(r->hops);
  }
  return b;
}

std::string HexFingerprint(uint64_t fp) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(fp));
  return std::string(buf);
}

/// An entry is live while a lookup now would still match it: same
/// generation, and every table it read still at the stamped head.
template <typename V>
void AppendCacheRows(const std::string& cache_name, LruQueryCache<V>* cache,
                     const SystemTableSources& sources,
                     size_t (*entry_rows)(const V&), exec::Batch* b) {
  if (cache == nullptr) return;
  for (const auto& entry : cache->Entries()) {
    std::string tables;
    bool live = entry.key.generation == sources.generation;
    for (const auto& [table, stamp] : entry.key.stamps) {
      if (!tables.empty()) tables += ",";
      tables += table + "@" + std::to_string(stamp);
      if (sources.cluster->HeadStamp(table) != stamp) live = false;
    }
    b->columns[0].AppendString(cache_name);
    b->columns[1].AppendString(HexFingerprint(entry.fingerprint));
    b->columns[2].AppendString(tables);
    b->columns[3].AppendInt(static_cast<int64_t>(entry.hits));
    b->columns[4].AppendInt(
        static_cast<int64_t>(entry.value ? entry_rows(*entry.value) : 0));
    b->columns[5].AppendInt(live ? 1 : 0);
  }
}

exec::Batch BuildStvCache(const SystemTableSources& sources,
                          const TableSchema& schema) {
  exec::Batch b;
  for (const ColumnDef& c : schema.columns()) b.columns.emplace_back(c.type);
  AppendCacheRows<plan::PhysicalQuery>(
      "segment", sources.segment_cache, sources,
      +[](const plan::PhysicalQuery&) -> size_t { return 0; }, &b);
  AppendCacheRows<CachedResult>(
      "result", sources.result_cache, sources,
      +[](const CachedResult& r) -> size_t { return r.rows.num_rows(); }, &b);
  return b;
}

exec::Batch BuildStlScan(const obs::History<obs::ScanRecord>& log,
                         const TableSchema& schema) {
  exec::Batch b;
  for (const ColumnDef& c : schema.columns()) b.columns.emplace_back(c.type);
  for (const auto& s : log.Snapshot()) {
    b.columns[0].AppendInt(s->scan_id);
    b.columns[1].AppendInt(s->query_id);
    b.columns[2].AppendString(s->table);
    b.columns[3].AppendString(s->site);
    b.columns[4].AppendString(s->predicates);
    b.columns[5].AppendInt(static_cast<int64_t>(s->rows_scanned));
    b.columns[6].AppendInt(static_cast<int64_t>(s->rows_out));
    b.columns[7].AppendInt(static_cast<int64_t>(s->blocks_read));
    b.columns[8].AppendInt(static_cast<int64_t>(s->blocks_skipped));
    b.columns[9].AppendInt(static_cast<int64_t>(s->bytes_decoded));
  }
  return b;
}

exec::Batch BuildStvInflight(const obs::InflightRegistry& inflight,
                             const TableSchema& schema) {
  exec::Batch b;
  for (const ColumnDef& c : schema.columns()) b.columns.emplace_back(c.type);
  for (const obs::InflightEntry& e : inflight.Snapshot()) {
    b.columns[0].AppendInt(e.inflight_id);
    b.columns[1].AppendInt(e.session_id);
    b.columns[2].AppendString(e.statement);
    b.columns[3].AppendString(e.phase);
    b.columns[4].AppendInt(static_cast<int64_t>(e.rows_scanned));
    b.columns[5].AppendInt(e.slices_done);
    b.columns[6].AppendInt(e.slices_total);
    b.columns[7].AppendDouble(e.queued_seconds);
    b.columns[8].AppendDouble(e.exec_seconds);
  }
  return b;
}

exec::Batch BuildStvGaugeHistory(const obs::History<obs::GaugeSample>& gauges,
                                 const TableSchema& schema) {
  exec::Batch b;
  for (const ColumnDef& c : schema.columns()) b.columns.emplace_back(c.type);
  // Each sample renders as an aggregate "total" row followed by one row
  // per WLM queue. The warehouse-global gauges (cache hit rates, GC
  // backlog, degradation) repeat on every row of the sample so a
  // per-queue filter still sees them; filter queue = 'total' to chart
  // fleet-wide occupancy without double counting.
  for (const auto& s : gauges.Snapshot()) {
    auto append_row = [&b, &s](const std::string& queue, int queued,
                               int running, int max_in_flight) {
      b.columns[0].AppendInt(s->seq);
      AppendTicks(&b.columns[1], s->tick);
      b.columns[2].AppendString(queue);
      b.columns[3].AppendInt(queued);
      b.columns[4].AppendInt(running);
      b.columns[5].AppendInt(max_in_flight);
      b.columns[6].AppendDouble(s->result_cache_hit_rate);
      b.columns[7].AppendDouble(s->segment_cache_hit_rate);
      b.columns[8].AppendInt(static_cast<int64_t>(s->gc_backlog));
      b.columns[9].AppendInt(static_cast<int64_t>(s->degraded_blocks));
    };
    append_row("total", s->wlm_queued, s->wlm_running, s->wlm_max_in_flight);
    for (const obs::GaugeSample::QueueGauge& q : s->queues) {
      append_row(q.name, q.queued, q.running, q.max_in_flight);
    }
  }
  return b;
}

exec::Batch BuildStlAlertEventLog(const obs::History<obs::AlertEvent>& alerts,
                                  const TableSchema& schema) {
  exec::Batch b;
  for (const ColumnDef& c : schema.columns()) b.columns.emplace_back(c.type);
  for (const auto& a : alerts.Snapshot()) {
    b.columns[0].AppendInt(a->alert_id);
    b.columns[1].AppendInt(a->query_id);
    AppendTicks(&b.columns[2], a->tick);
    b.columns[3].AppendString(a->rule);
    b.columns[4].AppendString(a->table);
    b.columns[5].AppendDouble(a->evidence);
    b.columns[6].AppendString(a->detail);
    b.columns[7].AppendString(a->action);
  }
  return b;
}

}  // namespace

bool IsSystemTable(const std::string& name) {
  static const std::set<std::string>* tables = new std::set<std::string>{
      "stl_query", "stl_span", "stv_blocklist", "stv_metrics",
      "stl_health_events", "stl_wlm", "stv_cache", "stl_scan",
      "stv_inflight", "stv_gauge_history", "stl_alert_event_log"};
  return tables->count(name) > 0;
}

Result<SystemQueryResult> ExecuteSystemQuery(const plan::LogicalQuery& query,
                                             const SystemTableSources& sources) {
  if (query.join_table.has_value()) {
    return Status::NotSupported("joins are not supported on system tables");
  }
  SDW_ASSIGN_OR_RETURN(TableSchema schema, SchemaFor(query.from_table));

  exec::Batch data;
  if (query.from_table == "stl_query") {
    data = BuildStlQuery(*sources.query_log, schema);
  } else if (query.from_table == "stl_span") {
    data = BuildStlSpan(*sources.query_log, schema);
  } else if (query.from_table == "stv_blocklist") {
    data = BuildStvBlocklist(sources.cluster, schema);
  } else if (query.from_table == "stv_metrics") {
    data = BuildStvMetrics(schema);
  } else if (query.from_table == "stl_wlm") {
    data = BuildStlWlm(*sources.wlm, schema);
  } else if (query.from_table == "stv_cache") {
    data = BuildStvCache(sources, schema);
  } else if (query.from_table == "stl_scan") {
    data = BuildStlScan(*sources.scan_log, schema);
  } else if (query.from_table == "stv_inflight") {
    data = BuildStvInflight(*sources.inflight, schema);
  } else if (query.from_table == "stv_gauge_history") {
    data = BuildStvGaugeHistory(*sources.gauges, schema);
  } else if (query.from_table == "stl_alert_event_log") {
    data = BuildStlAlertEventLog(*sources.alerts, schema);
  } else {
    data = BuildStlHealthEvents(*sources.event_log, schema);
  }

  // Plan against a one-table synthetic catalog, then run the pipeline
  // on the leader: system tables live on the leader node, so there is
  // nothing to distribute. Zone predicates are skipped (the residual
  // filter is exact); everything else is the ordinary operator stack.
  Catalog catalog;
  SDW_RETURN_IF_ERROR(catalog.CreateTable(schema));
  TableStats tstats;
  tstats.row_count = data.num_rows();
  tstats.columns.resize(schema.num_columns());
  catalog.UpdateStats(schema.name(), tstats);
  plan::Planner planner(&catalog);
  SDW_ASSIGN_OR_RETURN(plan::PhysicalQuery phys, planner.Plan(query));

  std::vector<TypeId> types;
  types.reserve(phys.scan.columns.size());
  for (int c : phys.scan.columns) types.push_back(schema.column(c).type);
  exec::Batch projected = exec::MakeBatch(types);
  projected.rows = data.num_rows();  // what a bare COUNT(*) counts
  for (size_t i = 0; i < phys.scan.columns.size(); ++i) {
    const ColumnVector& src = data.columns[phys.scan.columns[i]];
    SDW_RETURN_IF_ERROR(projected.columns[i].AppendRange(src, 0, src.size()));
  }
  std::vector<exec::Batch> batches;
  batches.push_back(std::move(projected));
  exec::OperatorPtr op = exec::MemoryScan(types, std::move(batches));
  if (phys.scan.filter) {
    op = exec::Filter(std::move(op), phys.scan.filter);
  }
  if (phys.agg.has_value()) {
    op = exec::HashAggregate(std::move(op), phys.agg->group_by,
                             phys.agg->aggs, exec::AggMode::kSingle);
  }
  if (!phys.project.empty()) {
    op = exec::Project(std::move(op), phys.project);
  }
  if (!phys.order_by.empty()) {
    op = exec::Sort(std::move(op), phys.order_by);
  }
  if (phys.limit.has_value()) {
    op = exec::Limit(std::move(op), *phys.limit);
  }
  SystemQueryResult out;
  SDW_ASSIGN_OR_RETURN(out.rows, exec::Collect(op.get()));
  out.column_names = phys.output_names;
  return out;
}

std::string RenderExplainAnalyze(const plan::PhysicalQuery& query,
                                 const cluster::QueryResult& result,
                                 const std::vector<obs::AlertEvent>& alerts) {
  const obs::Trace& trace = *result.trace;
  const cluster::ExecStats& stats = result.stats;
  auto fmt = [](uint64_t v) { return std::to_string(v); };
  // Zone-map accounting per plan site, from the scan records the
  // executor recorded (absent in interpreted mode).
  auto scan_line = [&](const char* site, const std::string& table) {
    for (const obs::ScanRecord& p : stats.scans) {
      if (p.site != site || p.table != table) continue;
      return "\n     (blocks_read=" + fmt(p.blocks_read) +
             " blocks_skipped=" + fmt(p.blocks_skipped) +
             " rows_scanned=" + fmt(p.rows_scanned) +
             " rows_out=" + fmt(p.rows_out) + ")";
    }
    return std::string();
  };

  std::string out = "XN Scan " + query.scan.table + " (cols";
  for (int c : query.scan.columns) out += " " + std::to_string(c);
  out += ")";
  if (!query.scan.predicates.empty()) {
    out += " [" + std::to_string(query.scan.predicates.size()) +
           " zone preds]";
  }
  if (query.scan.filter) out += " filter " + query.scan.filter->ToString();
  out += "\n     (blocks_decoded=" + fmt(stats.blocks_decoded) +
         " masked_reads=" + fmt(stats.masked_reads) +
         " s3_fault_reads=" + fmt(stats.s3_fault_reads) + ")";
  out += scan_line("probe", query.scan.table);

  if (query.join.has_value()) {
    out += "\n  -> " +
           std::string(plan::JoinStrategyName(query.join->strategy)) +
           " Hash Join with " + query.join->build.table;
    if (query.join->build.filter) {
      out += " (build filter " + query.join->build.filter->ToString() + ")";
    }
    out += scan_line("build", query.join->build.table);
    if (query.join->strategy == plan::JoinStrategy::kBroadcastBuild) {
      const obs::SpanCounters scans = trace.SumByName("broadcast scan");
      const obs::SpanCounters bytes = trace.SumByName("broadcast");
      out += "\n     (build rows=" + fmt(scans.rows_out) +
             " broadcast_bytes=" + fmt(bytes.bytes_shuffled) + ")";
    } else if (query.join->strategy == plan::JoinStrategy::kShuffle) {
      // Probe and build shuffles both record "shuffle scan" children;
      // tell them apart through their parent spans.
      obs::SpanCounters probe, build;
      for (const obs::Span& parent : trace.spans()) {
        if (parent.name != "shuffle probe" && parent.name != "shuffle build")
          continue;
        for (const obs::Span& child : trace.spans()) {
          if (child.parent_id != parent.span_id) continue;
          (parent.name == "shuffle probe" ? probe : build) += child.counters;
        }
      }
      out += "\n     (probe rows=" + fmt(probe.rows_out) +
             " bytes=" + fmt(probe.bytes_shuffled) +
             "; build rows=" + fmt(build.rows_out) +
             " bytes=" + fmt(build.bytes_shuffled) + ")";
    }
  }

  if (query.agg.has_value()) {
    out += "\n  -> Partial HashAggregate (" +
           std::to_string(query.agg->group_by.size()) + " keys, " +
           std::to_string(query.agg->aggs.size()) + " aggs) per slice";
  }
  const obs::SpanCounters pipe = trace.SumByName("slice pipeline");
  out += "\n  -> Slice pipelines (rows_to_leader=" + fmt(pipe.rows_out) +
         " bytes_to_leader=" + fmt(pipe.bytes_shuffled) + ")";
  if (query.agg.has_value()) {
    out += "\n  -> Final HashAggregate at leader";
  }
  if (!query.project.empty()) {
    out += "\n  -> Project";
    for (const auto& e : query.project) out += " " + e->ToString();
  }
  if (!query.order_by.empty()) {
    out += "\n  -> Sort at leader";
  }
  if (query.limit.has_value()) {
    out += "\n  -> Limit " + std::to_string(*query.limit);
  }
  out += "\n  -> Result (rows=" + fmt(stats.result_rows) +
         " network_bytes=" + fmt(stats.network_bytes) + " elapsed_ticks=" +
         fmt(trace.root()->end_tick - trace.root()->start_tick) + ")";
  for (const obs::AlertEvent& a : alerts) {
    out += "\nAlert: " + a.rule;
    if (!a.table.empty()) out += " on " + a.table;
    out += " — " + a.detail + " (suggested: " + a.action + ")";
  }
  return out;
}

}  // namespace sdw::warehouse
