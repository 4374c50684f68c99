#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "common/random.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "warehouse/system_tables.h"
#include "warehouse/warehouse.h"

namespace sdw {
namespace {

// ---------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------

TEST(RegistryTest, CountersGaugesAndSnapshot) {
  obs::Registry& reg = obs::Registry::Global();
  obs::Counter* c = reg.counter("test.registry.counter");
  obs::Gauge* g = reg.gauge("test.registry.gauge");
  c->Reset();
  g->Set(0);

  c->Add();
  c->Add(4);
  g->Set(2);
  g->Add(1);
  EXPECT_EQ(c->value(), 5u);
  EXPECT_EQ(g->value(), 3);

  // Same name returns the same instrument.
  EXPECT_EQ(reg.counter("test.registry.counter"), c);
  EXPECT_EQ(reg.gauge("test.registry.gauge"), g);

  bool saw_counter = false, saw_gauge = false;
  std::string prev;
  for (const obs::MetricRow& row : reg.Snapshot()) {
    EXPECT_LE(prev, row.name);  // sorted by name
    prev = row.name;
    if (row.name == "test.registry.counter") {
      saw_counter = true;
      EXPECT_EQ(row.kind, "counter");
      EXPECT_DOUBLE_EQ(row.value, 5.0);
    }
    if (row.name == "test.registry.gauge") {
      saw_gauge = true;
      EXPECT_EQ(row.kind, "gauge");
      EXPECT_DOUBLE_EQ(row.value, 3.0);
    }
  }
  EXPECT_TRUE(saw_counter);
  EXPECT_TRUE(saw_gauge);
}

TEST(RegistryTest, ResetZeroesValuesButKeepsRegistrations) {
  obs::Registry& reg = obs::Registry::Global();
  obs::Counter* c = reg.counter("test.registry.reset");
  c->Add(7);
  EXPECT_GE(c->value(), 7u);
  reg.Reset();
  EXPECT_EQ(c->value(), 0u);
  // The cached pointer is still the registered instrument.
  EXPECT_EQ(reg.counter("test.registry.reset"), c);
  c->Add(2);
  EXPECT_EQ(c->value(), 2u);
}

TEST(RegistryTest, HistogramBucketing) {
  obs::Registry& reg = obs::Registry::Global();
  obs::Histogram* h =
      reg.histogram("test.registry.hist", {1.0, 10.0, 100.0});
  h->Reset();

  h->Observe(0.5);    // <= 1
  h->Observe(1.0);    // == 1: upper edges are inclusive
  h->Observe(5.0);    // <= 10
  h->Observe(10.0);   // == 10
  h->Observe(50.0);   // <= 100
  h->Observe(1000.0);  // overflow

  ASSERT_EQ(h->num_buckets(), 4u);  // 3 bounds + overflow
  EXPECT_EQ(h->bucket_count(0), 2u);
  EXPECT_EQ(h->bucket_count(1), 2u);
  EXPECT_EQ(h->bucket_count(2), 1u);
  EXPECT_EQ(h->bucket_count(3), 1u);
  EXPECT_EQ(h->count(), 6u);
  EXPECT_DOUBLE_EQ(h->sum(), 1066.5);

  // Snapshot flattens to per-bucket rows plus count and sum.
  std::set<std::string> names;
  for (const obs::MetricRow& row : reg.Snapshot()) {
    if (row.name.rfind("test.registry.hist", 0) == 0) names.insert(row.name);
  }
  EXPECT_TRUE(names.count("test.registry.hist.le_1"));
  EXPECT_TRUE(names.count("test.registry.hist.le_10"));
  EXPECT_TRUE(names.count("test.registry.hist.le_100"));
  EXPECT_TRUE(names.count("test.registry.hist.le_inf"));
  EXPECT_TRUE(names.count("test.registry.hist.count"));
  EXPECT_TRUE(names.count("test.registry.hist.sum"));
}

// Run under TSan: concurrent writers on the same instruments must be
// race-free and lose no updates.
TEST(RegistryTest, ConcurrentUpdatesAreExact) {
  obs::Registry& reg = obs::Registry::Global();
  obs::Counter* c = reg.counter("test.registry.concurrent");
  obs::Histogram* h =
      reg.histogram("test.registry.concurrent_hist", {0.5});
  c->Reset();
  h->Reset();

  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        c->Add();
        h->Observe(t % 2 == 0 ? 0.25 : 1.0);
        // Exercise the registration path concurrently too.
        reg.counter("test.registry.concurrent_lookup")->Add();
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c->value(), static_cast<uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(h->count(), static_cast<uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(h->bucket_count(0), h->bucket_count(1));
}

TEST(LoggingTest, ThresholdIsThreadSafeAndSticky) {
  const LogLevel before = GetLogThreshold();
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < 1000; ++i) {
        SetLogThreshold(LogLevel::kError);
        (void)GetLogThreshold();
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(GetLogThreshold(), LogLevel::kError);
  SetLogThreshold(before);
}

// ---------------------------------------------------------------------
// Trace spans
// ---------------------------------------------------------------------

TEST(TraceTest, VirtualTimesModelStagesAndParallelSiblings) {
  obs::Trace trace;
  obs::Span* root = trace.AddSpan("query", -1, 0);
  obs::Span* a = trace.AddSpan("scan", root->span_id, 0, 0);
  obs::Span* b = trace.AddSpan("scan", root->span_id, 0, 1);
  obs::Span* fin = trace.AddSpan("finalize", root->span_id, 1);
  a->counters.rows_out = 100;
  b->counters.rows_out = 10;
  fin->counters.rows_out = 5;
  trace.AssignVirtualTimes(40);

  EXPECT_EQ(root->start_tick, 40u);
  // Same-stage siblings start together; the stage ends at the slower one.
  EXPECT_EQ(a->start_tick, b->start_tick);
  EXPECT_GT(a->end_tick, b->end_tick);
  // The next stage starts after the previous one ends.
  EXPECT_GE(fin->start_tick, a->end_tick);
  EXPECT_GE(root->end_tick, fin->end_tick);
  EXPECT_EQ(trace.end_tick(), root->end_tick);
}

// ---------------------------------------------------------------------
// Warehouse-level observability
// ---------------------------------------------------------------------

warehouse::WarehouseOptions ObsOptions(int pool_size) {
  warehouse::WarehouseOptions options;
  options.cluster.num_nodes = 2;
  options.cluster.slices_per_node = 2;
  options.cluster.exec_pool_threads = pool_size;
  options.cluster.storage.max_rows_per_block = 64;
  options.exec.pool_size = pool_size;
  // Force the shuffle strategy for non-co-located joins.
  options.planner.broadcast_row_threshold = 0;
  return options;
}

void RunWorkload(warehouse::Warehouse* wh) {
  auto run = [&](const std::string& sql) {
    auto r = wh->Execute(sql);
    ASSERT_TRUE(r.ok()) << sql << " -> " << r.status();
  };
  run("CREATE TABLE f (k BIGINT, v DOUBLE PRECISION)");
  run("CREATE TABLE d (id BIGINT, name VARCHAR)");
  std::string insert_f = "INSERT INTO f VALUES ";
  Rng rng(17);
  for (int i = 0; i < 400; ++i) {
    if (i) insert_f += ", ";
    insert_f += "(" + std::to_string(i % 20) + ", " +
                std::to_string(rng.NextDouble()) + ")";
  }
  run(insert_f);
  std::string insert_d = "INSERT INTO d VALUES ";
  for (int i = 0; i < 20; ++i) {
    if (i) insert_d += ", ";
    insert_d += "(" + std::to_string(i) + ", 'name" + std::to_string(i) + "')";
  }
  run(insert_d);
  run("ANALYZE f");
  run("ANALYZE d");
  // A deliberately bad query shape: very selective (20 of 400 rows)
  // but k=i%20 is unsorted, so zone maps skip nothing — this fires
  // the selective-filter-no-skip alert deterministically.
  run("SELECT COUNT(*) AS n FROM f WHERE k = 5");
  run("SELECT name, COUNT(*) AS n, SUM(v) AS s FROM f JOIN d "
      "ON f.k = d.id GROUP BY name ORDER BY name");
  run("SELECT k, COUNT(*) AS n FROM f WHERE k < 10 GROUP BY k ORDER BY k");
}

TEST(SystemTablesTest, ShuffleJoinSpanTreeShape) {
  warehouse::Warehouse wh(ObsOptions(0));
  RunWorkload(&wh);

  // The join query is the second-to-last record.
  auto records = wh.query_log()->history().Snapshot();
  ASSERT_GE(records.size(), 2u);
  const obs::QueryRecord& join_q = *records[records.size() - 2];
  ASSERT_NE(join_q.sql_text.find("JOIN"), std::string::npos);
  ASSERT_NE(join_q.trace, nullptr);

  const obs::Span* root = join_q.trace->root();
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->name, "query");
  EXPECT_EQ(root->parent_id, -1);

  // Expected children of the root: both shuffle pre-passes, the slice
  // pipelines, and the leader finalize.
  std::set<std::string> root_children;
  for (const obs::Span& s : join_q.trace->spans()) {
    if (s.parent_id == root->span_id) root_children.insert(s.name);
  }
  EXPECT_TRUE(root_children.count("shuffle probe"));
  EXPECT_TRUE(root_children.count("shuffle build"));
  EXPECT_TRUE(root_children.count("pipeline"));
  EXPECT_TRUE(root_children.count("finalize"));

  // Each parallel phase has one child span per slice.
  int shuffle_scans = 0, slice_pipelines = 0;
  for (const obs::Span& s : join_q.trace->spans()) {
    if (s.name == "shuffle scan") ++shuffle_scans;
    if (s.name == "slice pipeline") ++slice_pipelines;
    if (s.slice >= 0) {
      EXPECT_LT(s.slice, 4);
    }
    // Virtual times were assigned and nest within the root.
    EXPECT_GE(s.start_tick, root->start_tick);
    EXPECT_LE(s.end_tick, root->end_tick);
  }
  EXPECT_EQ(shuffle_scans, 8);  // probe + build, 4 slices each
  EXPECT_EQ(slice_pipelines, 4);

  // The trace's span counters are what ExecStats reports (the
  // double-counting fix): summing pipeline rows gives the pre-limit
  // row flow, and blocks decoded match the per-span attribution.
  obs::SpanCounters total;
  for (const obs::Span& s : join_q.trace->spans()) total += s.counters;
  EXPECT_EQ(join_q.counters.blocks_decoded, total.blocks_decoded);
  EXPECT_GT(total.rows_out, 0u);
}

std::string TableDump(warehouse::Warehouse* wh, const std::string& sql) {
  auto r = wh->Execute(sql);
  EXPECT_TRUE(r.ok()) << sql << " -> " << r.status();
  if (!r.ok()) return "";
  return r->ToTable(1000000);
}

TEST(SystemTablesTest, SerialAndPooledRunsLogIdenticalTables) {
  // Every per-warehouse system table renders identically: virtual
  // ticks come from deterministic work counters, never wall clock.
  // stl_query projects out queue_seconds/exec_seconds (measured real
  // time, the one documented nondeterminism in the table). Each arm
  // runs from a clean registry.
  const std::vector<std::string> sqls = {
      "SELECT query_id, sql_text, status, start_tick, end_tick, "
      "result_rows, blocks_decoded, network_bytes, masked_reads, "
      "s3_fault_reads, snapshot FROM stl_query ORDER BY query_id",
      "SELECT * FROM stl_span ORDER BY query_id, span_id",
      "SELECT tbl, node, slice, col, blk, rows, encoding "
      "FROM stv_blocklist ORDER BY tbl, node, slice, col, blk",
      "SELECT * FROM stl_scan ORDER BY scan_id",
      "SELECT * FROM stl_alert_event_log ORDER BY alert_id",
      "SELECT * FROM stv_gauge_history ORDER BY seq",
      "SELECT * FROM stv_inflight ORDER BY inflight_id",
  };
  std::map<std::string, std::string> dumps[2];
  for (int arm = 0; arm < 2; ++arm) {
    obs::Registry::Global().Reset();
    warehouse::WarehouseOptions options = ObsOptions(arm == 0 ? 0 : 4);
    options.cluster.replicate = true;  // the sweep gauges need replication
    warehouse::Warehouse wh(options);
    RunWorkload(&wh);
    auto sweep = wh.RunHealthSweep();
    ASSERT_TRUE(sweep.ok()) << sweep.status();
    for (const std::string& sql : sqls) dumps[arm][sql] = TableDump(&wh, sql);
  }
  for (const std::string& sql : sqls) {
    EXPECT_EQ(dumps[0][sql], dumps[1][sql]) << sql;
  }
  // The histories being compared are non-trivial: the workload's bad
  // query fired at least one alert and logged its scans.
  EXPECT_NE(dumps[0]["SELECT * FROM stl_scan ORDER BY scan_id"], "");
  EXPECT_NE(dumps[0]["SELECT * FROM stl_alert_event_log ORDER BY alert_id"]
                .find("selective-filter-no-skip"),
            std::string::npos);
}

TEST(SystemTablesTest, MetricsAccumulateIdenticallySerialVsPooled) {
  // stv_metrics is process-global, so compare the counters each run
  // accumulates from a clean registry: the same workload must bump
  // every metric by the same amount with the pool off or on (e.g.
  // sdw_pool_tasks counts before the inline/fan-out branch).
  obs::Registry::Global().Reset();
  std::string serial_dump;
  {
    warehouse::Warehouse serial(ObsOptions(0));
    RunWorkload(&serial);
    serial_dump =
        TableDump(&serial, "SELECT * FROM stv_metrics ORDER BY name");
  }
  obs::Registry::Global().Reset();
  std::string pooled_dump;
  {
    warehouse::Warehouse pooled(ObsOptions(4));
    RunWorkload(&pooled);
    pooled_dump =
        TableDump(&pooled, "SELECT * FROM stv_metrics ORDER BY name");
  }
  EXPECT_EQ(serial_dump, pooled_dump);
  EXPECT_NE(serial_dump.find("sdw_storage_blocks_decoded"),
            std::string::npos);
}

TEST(SystemTablesTest, StlQuerySplitsQueueAndExecSeconds) {
  warehouse::Warehouse wh(ObsOptions(0));
  RunWorkload(&wh);
  auto r = wh.Execute(
      "SELECT * FROM stl_query ORDER BY exec_seconds DESC LIMIT 10");
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_GT(r->rows.num_rows(), 0u);
  ASSERT_LE(r->rows.num_rows(), 10u);
  EXPECT_EQ(r->column_names[0], "query_id");
  const auto& cols = r->rows.columns;
  auto schema_idx = [&](const std::string& name) {
    for (size_t i = 0; i < r->column_names.size(); ++i) {
      if (r->column_names[i] == name) return static_cast<int>(i);
    }
    return -1;
  };
  const int queue = schema_idx("queue_seconds");
  const int exec = schema_idx("exec_seconds");
  ASSERT_GE(queue, 0);
  ASSERT_GE(exec, 0);
  for (size_t i = 0; i < r->rows.num_rows(); ++i) {
    // Uncontended: no queue wait; every finished query spent real time
    // executing.
    EXPECT_GE(cols[queue].DoubleAt(i), 0.0);
    EXPECT_GT(cols[exec].DoubleAt(i), 0.0);
    if (i > 0) {
      EXPECT_GE(cols[exec].DoubleAt(i - 1), cols[exec].DoubleAt(i));
    }
  }
  // System-table queries are not themselves logged.
  auto again = wh.Execute("SELECT COUNT(*) AS n FROM stl_query");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(static_cast<size_t>(again->rows.columns[0].IntAt(0)),
            wh.query_log()->history().Snapshot().size());
}

TEST(SystemTablesTest, ScanTelemetryFeedsStlScan) {
  warehouse::Warehouse wh(ObsOptions(0));
  RunWorkload(&wh);

  // The bad query decoded all 400 rows of f, kept 20, and skipped no
  // blocks — all from immutable version metadata.
  auto r = wh.Execute(
      "SELECT scan_id, tbl, predicates, rows_scanned, rows_out, blocks_read, "
      "blocks_skipped FROM stl_scan WHERE tbl = 'f' ORDER BY scan_id");
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_GT(r->rows.num_rows(), 0u);
  bool saw_selective = false;
  for (size_t i = 0; i < r->rows.num_rows(); ++i) {
    const std::string preds(r->rows.columns[2].StringAt(i));
    if (preds.find("k >= 5") == std::string::npos) continue;
    saw_selective = true;
    EXPECT_NE(preds.find("k <= 5"), std::string::npos) << preds;
    EXPECT_EQ(r->rows.columns[3].IntAt(i), 400);  // rows_scanned
    EXPECT_EQ(r->rows.columns[4].IntAt(i), 20);   // rows_out
    EXPECT_GE(r->rows.columns[5].IntAt(i), 4);    // blocks_read
    EXPECT_EQ(r->rows.columns[6].IntAt(i), 0);    // blocks_skipped
  }
  EXPECT_TRUE(saw_selective);
}

TEST(SystemTablesTest, SelectiveFilterAlertFiresDeterministically) {
  warehouse::Warehouse wh(ObsOptions(0));
  RunWorkload(&wh);

  auto r = wh.Execute(
      "SELECT query_id, rule, tbl, evidence, action "
      "FROM stl_alert_event_log WHERE rule = 'selective-filter-no-skip'");
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_GT(r->rows.num_rows(), 0u);
  EXPECT_GT(r->rows.columns[0].IntAt(0), 0);  // fired by a real query
  EXPECT_EQ(r->rows.columns[2].StringAt(0), "f");
  EXPECT_GE(r->rows.columns[3].DoubleAt(0), 4.0);  // blocks read
  EXPECT_NE(r->rows.columns[4].StringAt(0).find("sort key"),
            std::string::npos);

  // EXPLAIN ANALYZE of the same shape surfaces the alert inline.
  auto ea = wh.Execute("EXPLAIN ANALYZE SELECT COUNT(*) AS n FROM f "
                       "WHERE k = 5");
  ASSERT_TRUE(ea.ok()) << ea.status();
  EXPECT_NE(ea->message.find("blocks_read="), std::string::npos)
      << ea->message;
  EXPECT_NE(ea->message.find("blocks_skipped="), std::string::npos)
      << ea->message;
  EXPECT_NE(ea->message.find("Alert: selective-filter-no-skip"),
            std::string::npos)
      << ea->message;
}

TEST(SystemTablesTest, InflightIsVisibleFromASecondSessionMidCopy) {
  warehouse::Warehouse wh(ObsOptions(4));
  warehouse::Warehouse::Session writer_session = wh.CreateSession();
  warehouse::Warehouse::Session reader_session = wh.CreateSession();
  auto created =
      writer_session.Execute("CREATE TABLE logs (ts BIGINT, path VARCHAR)");
  ASSERT_TRUE(created.ok()) << created.status();
  std::string csv;
  for (int i = 0; i < 20000; ++i) {
    csv += std::to_string(i) + ",/page" + std::to_string(i % 7) + "\n";
  }
  ASSERT_TRUE(wh.s3()
                  ->region("us-east-1")
                  ->PutObject("bkt/live/part-0", Bytes(csv.begin(), csv.end()))
                  .ok());

  // The writer keeps COPYing until the reader has caught one mid-
  // flight (bounded, so a miss fails the test instead of hanging).
  std::atomic<bool> caught{false};
  std::atomic<bool> writer_done{false};
  std::thread writer([&] {
    for (int i = 0; i < 200 && !caught.load(); ++i) {
      auto copied = writer_session.Execute("COPY logs FROM 's3://bkt/live/'");
      EXPECT_TRUE(copied.ok()) << copied.status();
    }
    writer_done.store(true);
  });
  while (!writer_done.load()) {
    // System-table reads bypass admission, so the probe never queues
    // behind the COPY it is observing.
    auto live = reader_session.Execute(
        "SELECT session_id, statement, phase, rows_scanned "
        "FROM stv_inflight");
    ASSERT_TRUE(live.ok()) << live.status();
    for (size_t i = 0; i < live->rows.num_rows(); ++i) {
      if (live->rows.columns[1].StringAt(i).find("COPY") ==
          std::string::npos) {
        continue;
      }
      EXPECT_EQ(live->rows.columns[0].IntAt(i), writer_session.id());
      caught.store(true);
    }
  }
  writer.join();
  EXPECT_TRUE(caught.load());
  // Once everything drained, stv_inflight is empty again.
  auto after = reader_session.Execute("SELECT COUNT(*) AS n FROM stv_inflight");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->rows.columns[0].IntAt(0), 0);
}

TEST(SystemTablesTest, AggregatesAndFiltersOverSystemTables) {
  warehouse::Warehouse wh(ObsOptions(0));
  RunWorkload(&wh);

  auto blocks = wh.Execute(
      "SELECT tbl, COUNT(*) AS n FROM stv_blocklist GROUP BY tbl ORDER BY "
      "tbl");
  ASSERT_TRUE(blocks.ok()) << blocks.status();
  ASSERT_EQ(blocks->rows.num_rows(), 2u);
  EXPECT_EQ(blocks->rows.columns[0].StringAt(0), "d");
  EXPECT_EQ(blocks->rows.columns[0].StringAt(1), "f");
  EXPECT_GT(blocks->rows.columns[1].IntAt(1), 0);

  auto metrics = wh.Execute(
      "SELECT name, value FROM stv_metrics WHERE kind = 'counter' "
      "ORDER BY name");
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  bool saw_query_count = false;
  for (size_t i = 0; i < metrics->rows.num_rows(); ++i) {
    if (metrics->rows.columns[0].StringAt(i) == "sdw_query_count") {
      saw_query_count = true;
      EXPECT_GT(metrics->rows.columns[1].DoubleAt(i), 0.0);
    }
  }
  EXPECT_TRUE(saw_query_count);

  auto spans = wh.Execute(
      "SELECT name, COUNT(*) AS n, SUM(rows_out) AS rows FROM stl_span "
      "GROUP BY name ORDER BY name");
  ASSERT_TRUE(spans.ok()) << spans.status();
  EXPECT_GT(spans->rows.num_rows(), 0u);

  // EXPLAIN on a system table is rejected; joins with system tables too.
  EXPECT_FALSE(wh.Execute("EXPLAIN SELECT * FROM stl_query").ok());
}

TEST(SystemTablesTest, HealthEventsAreQueryable) {
  warehouse::WarehouseOptions options = ObsOptions(0);
  options.cluster.replicate = true;
  warehouse::Warehouse wh(options);
  auto run = [&](const std::string& sql) {
    auto r = wh.Execute(sql);
    ASSERT_TRUE(r.ok()) << sql << " -> " << r.status();
  };
  run("CREATE TABLE t (a BIGINT, b BIGINT)");
  std::string insert = "INSERT INTO t VALUES ";
  for (int i = 0; i < 500; ++i) {
    if (i) insert += ", ";
    insert += "(" + std::to_string(i) + ", " + std::to_string(i * 2) + ")";
  }
  run(insert);

  wh.data_plane()->FailNode(1);
  auto sweep = wh.RunHealthSweep();
  ASSERT_TRUE(sweep.ok()) << sweep.status();

  auto events = wh.Execute(
      "SELECT source, kind, COUNT(*) AS n FROM stl_health_events "
      "GROUP BY source, kind ORDER BY source, kind");
  ASSERT_TRUE(events.ok()) << events.status();
  ASSERT_GT(events->rows.num_rows(), 0u);
  bool saw_replace = false;
  for (size_t i = 0; i < events->rows.num_rows(); ++i) {
    if (events->rows.columns[1].StringAt(i) == "replace") saw_replace = true;
  }
  EXPECT_TRUE(saw_replace);

  // The sweep gauged the pre-sweep state: the failed node left blocks
  // at a single copy, so the sample shows degradation and the
  // threshold rule filed a sweep alert (query_id -1).
  auto gauges = wh.Execute(
      "SELECT seq, degraded_blocks FROM stv_gauge_history ORDER BY seq");
  ASSERT_TRUE(gauges.ok()) << gauges.status();
  ASSERT_GT(gauges->rows.num_rows(), 0u);
  EXPECT_GT(gauges->rows.columns[1].IntAt(0), 0);
  auto alerts = wh.Execute(
      "SELECT query_id, evidence FROM stl_alert_event_log "
      "WHERE rule = 'replication-degraded'");
  ASSERT_TRUE(alerts.ok()) << alerts.status();
  ASSERT_GT(alerts->rows.num_rows(), 0u);
  EXPECT_EQ(alerts->rows.columns[0].IntAt(0), -1);
  EXPECT_GT(alerts->rows.columns[1].DoubleAt(0), 0.0);
}

TEST(SystemTablesTest, GaugeHitRatesCountOnlyThisWarehouse) {
  // The registry's cache counters are shared by every warehouse in the
  // process; the gauge must read the sweeping warehouse's own caches.
  warehouse::WarehouseOptions options = ObsOptions(0);
  options.cluster.replicate = true;  // the sweep gauges need replication
  warehouse::Warehouse a(options);
  warehouse::Warehouse b(options);
  for (warehouse::Warehouse* wh : {&a, &b}) {
    ASSERT_TRUE(wh->Execute("CREATE TABLE t (k BIGINT)").ok());
    ASSERT_TRUE(wh->Execute("INSERT INTO t VALUES (1), (2), (3)").ok());
  }
  // Ten lookups of one statement: a miss, then nine result-cache hits.
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(a.Execute("SELECT COUNT(*) AS n FROM t").ok());
  }
  auto hit_rate = [](warehouse::Warehouse* wh) {
    EXPECT_TRUE(wh->RunHealthSweep().ok());
    auto r = wh->Execute(
        "SELECT seq, result_cache_hit_rate FROM stv_gauge_history "
        "WHERE queue = 'total' ORDER BY seq");
    EXPECT_TRUE(r.ok()) << r.status();
    if (!r.ok() || r->rows.num_rows() == 0) return -1.0;
    return r->rows.columns[1].DoubleAt(r->rows.num_rows() - 1);
  };
  EXPECT_DOUBLE_EQ(hit_rate(&a), 0.9);
  EXPECT_DOUBLE_EQ(hit_rate(&b), 0.0) << "b ran no SELECT";
}

TEST(SystemTablesTest, ExplainAnalyzeAnnotatesThePlan) {
  warehouse::Warehouse wh(ObsOptions(0));
  RunWorkload(&wh);
  auto r = wh.Execute(
      "EXPLAIN ANALYZE SELECT name, COUNT(*) AS n FROM f JOIN d "
      "ON f.k = d.id GROUP BY name ORDER BY name");
  ASSERT_TRUE(r.ok()) << r.status();
  const std::string& msg = r->message;
  EXPECT_NE(msg.find("XN Scan f"), std::string::npos) << msg;
  EXPECT_NE(msg.find("blocks_decoded="), std::string::npos) << msg;
  EXPECT_NE(msg.find("blocks_read="), std::string::npos) << msg;
  EXPECT_NE(msg.find("blocks_skipped="), std::string::npos) << msg;
  EXPECT_NE(msg.find("SHUFFLE Hash Join"), std::string::npos) << msg;
  EXPECT_NE(msg.find("probe rows="), std::string::npos) << msg;
  EXPECT_NE(msg.find("Slice pipelines"), std::string::npos) << msg;
  EXPECT_NE(msg.find("elapsed_ticks="), std::string::npos) << msg;
  // EXPLAIN ANALYZE runs the query, so it is logged like any other.
  const auto records = wh.query_log()->history().Snapshot();
  EXPECT_NE(records.back()->sql_text.find("EXPLAIN ANALYZE"),
            std::string::npos);
}

}  // namespace
}  // namespace sdw
