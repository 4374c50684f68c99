#ifndef SDW_WAREHOUSE_SYSTEM_TABLES_H_
#define SDW_WAREHOUSE_SYSTEM_TABLES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/executor.h"
#include "cluster/wlm.h"
#include "common/result.h"
#include "exec/batch.h"
#include "obs/alerts.h"
#include "obs/profiler.h"
#include "obs/query_log.h"
#include "plan/logical.h"
#include "plan/physical.h"
#include "warehouse/query_cache.h"

namespace sdw::warehouse {

/// True when `name` is one of the Redshift-style observability system
/// tables: stl_query, stl_span, stv_blocklist, stv_metrics,
/// stl_health_events, stl_wlm, stv_cache, stl_scan, stv_inflight,
/// stv_gauge_history, stl_alert_event_log.
bool IsSystemTable(const std::string& name);

struct SystemQueryResult {
  exec::Batch rows;
  std::vector<std::string> column_names;
};

/// Everything a system-table SELECT may materialize from. The caller
/// (the warehouse) fills in pointers to its live components plus the
/// generation captured with `cluster` (stv_cache marks an entry live
/// while its key still matches that generation and the head stamps).
struct SystemTableSources {
  const obs::QueryLog* query_log = nullptr;
  const obs::History<obs::HealthEvent>* event_log = nullptr;
  cluster::Cluster* cluster = nullptr;
  const cluster::AdmissionController* wlm = nullptr;
  SegmentCache* segment_cache = nullptr;
  ResultCache* result_cache = nullptr;
  const obs::History<obs::ScanRecord>* scan_log = nullptr;
  const obs::InflightRegistry* inflight = nullptr;
  const obs::History<obs::GaugeSample>* gauges = nullptr;
  const obs::History<obs::AlertEvent>* alerts = nullptr;
  uint64_t generation = 0;
};

/// Executes a single-table SELECT whose FROM is a system table. The
/// table is materialized from the warehouse's query/event logs, the
/// cluster's block chains, the global metrics registry, the admission
/// controller's history (stl_wlm), or the plan/result caches
/// (stv_cache), then the query runs through the ordinary planner and
/// leader operators (filter, aggregate, project, sort, limit) — system
/// tables are just tables. Joins are not supported.
Result<SystemQueryResult> ExecuteSystemQuery(const plan::LogicalQuery& query,
                                             const SystemTableSources& sources);

/// Renders the physical plan annotated with counters from the query's
/// span tree (EXPLAIN ANALYZE). Scan lines are further annotated with
/// per-scan zone-map accounting (blocks read vs skipped) when the
/// result carries scan records, and any performance alerts the query
/// fired are appended at the end.
std::string RenderExplainAnalyze(const plan::PhysicalQuery& query,
                                 const cluster::QueryResult& result,
                                 const std::vector<obs::AlertEvent>& alerts = {});

}  // namespace sdw::warehouse

#endif  // SDW_WAREHOUSE_SYSTEM_TABLES_H_
