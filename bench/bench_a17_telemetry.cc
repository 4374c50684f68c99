// A17 (extension): the workload-intelligence layer earns its keep.
// Visibility: 8 A14-style clients against 2 WLM slots while health
// sweeps sample gauges: stv_gauge_history must capture the queue-depth
// spike (MAX(wlm_queued) > 0) the serial log views alone would have
// missed. (Telemetry has no off switch, so its cost sits inside every
// end-to-end number.)

#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/logging.h"
#include "warehouse/warehouse.h"

namespace {

using sdw::warehouse::Warehouse;
using sdw::warehouse::WarehouseOptions;

constexpr int kRows = 60000;

WarehouseOptions Options() {
  WarehouseOptions options;
  options.cluster.num_nodes = 2;
  options.cluster.slices_per_node = 2;
  options.cluster.storage.max_rows_per_block = 1024;
  // Caches off: every statement must actually execute and occupy a slot.
  options.cache.enable_segment_cache = false;
  options.cache.enable_result_cache = false;
  return options;
}

void LoadTable(Warehouse* wh) {
  SDW_CHECK_OK(wh->Execute("CREATE TABLE t (k BIGINT, v BIGINT, x DOUBLE) "
                           "DISTKEY(k) SORTKEY(v)")
                   .status());
  sdw::ColumnVector k(sdw::TypeId::kInt64), v(sdw::TypeId::kInt64),
      x(sdw::TypeId::kDouble);
  for (int i = 0; i < kRows; ++i) {
    k.AppendInt(i % 97);
    v.AppendInt(i);
    x.AppendDouble((i % 1000) / 8.0);
  }
  std::vector<sdw::ColumnVector> cols;
  cols.push_back(std::move(k));
  cols.push_back(std::move(v));
  cols.push_back(std::move(x));
  SDW_CHECK_OK(wh->data_plane()->InsertRows("t", cols));
  SDW_CHECK_OK(wh->data_plane()->Analyze("t"));
}

std::string ClientQuery(int client, int iter) {
  // Distinct literals per statement (the A14 idiom): distinct
  // fingerprints keep every statement on the execution path.
  return "SELECT k, COUNT(*) AS n, SUM(v) AS sv FROM t WHERE v < " +
         std::to_string(10000 + 4000 * client + 17 * iter) +
         " GROUP BY k ORDER BY k";
}

}  // namespace

int main() {
  benchutil::Banner(
      "A17 (extension)",
      "workload intelligence: scan telemetry, gauges, alerts",
      "gauge history captures the WLM queue-depth spike under 8-client "
      "load");

  constexpr int kClients = 8;
  constexpr int kSlots = 2;
  constexpr int kStatementsPerClient = 20;
  WarehouseOptions options = Options();
  options.cluster.replicate = true;  // sweeps need replication
  options.wlm.concurrency_slots = kSlots;
  Warehouse wh(options);
  LoadTable(&wh);

  std::atomic<int> live_clients{kClients};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    Warehouse::Session session = wh.CreateSession();
    clients.emplace_back([&live_clients, c, session]() mutable {
      for (int i = 0; i < kStatementsPerClient; ++i) {
        SDW_CHECK_OK(session.Execute(ClientQuery(c, i)).status());
      }
      live_clients.fetch_sub(1);
    });
  }
  // The operator's periodic sweep, racing the load: each pass gauges
  // queue depth, cache hit rates, GC backlog and degradation.
  int sweeps = 0;
  while (live_clients.load() > 0) {
    SDW_CHECK_OK(wh.RunHealthSweep().status());
    ++sweeps;
  }
  for (auto& t : clients) t.join();

  auto spike = wh.Execute(
      "SELECT MAX(wlm_queued) AS peak_queue, MAX(wlm_running) AS "
      "peak_running FROM stv_gauge_history");
  SDW_CHECK_OK(spike.status());
  const long long peak_queue = spike->rows.columns[0].IntAt(0);
  const long long peak_running = spike->rows.columns[1].IntAt(0);
  auto backlog_alerts = wh.Execute(
      "SELECT COUNT(*) AS n FROM stl_alert_event_log "
      "WHERE rule = 'wlm-queue-backlog'");
  SDW_CHECK_OK(backlog_alerts.status());
  const long long backlog = backlog_alerts->rows.columns[0].IntAt(0);
  std::printf("\n  %d sweeps while %d clients ran on %d slots: peak "
              "queue %lld, peak running %lld, %lld wlm-queue-backlog "
              "alert(s)\n",
              sweeps, kClients, kSlots, peak_queue, peak_running, backlog);
  benchutil::JsonMetric("gauges.sweeps", sweeps);
  benchutil::JsonMetric("gauges.peak_wlm_queued",
                        static_cast<double>(peak_queue));
  benchutil::JsonMetric("gauges.peak_wlm_running",
                        static_cast<double>(peak_running));
  benchutil::JsonMetric("gauges.wlm_queue_backlog_alerts",
                        static_cast<double>(backlog));
  auto scans = wh.Execute("SELECT COUNT(*) AS n FROM stl_scan");
  SDW_CHECK_OK(scans.status());
  const long long scan_rows = scans->rows.columns[0].IntAt(0);
  benchutil::JsonMetric("telemetry.stl_scan_rows",
                        static_cast<double>(scan_rows));
  benchutil::Check(scan_rows > 0, "telemetry recorded scan rows");
  benchutil::Check(peak_queue > 0,
                   "gauge history captured a WLM queue-depth spike");
  benchutil::Check(peak_running <= kSlots,
                   "gauged running count never exceeded the slot limit");
  return 0;
}
