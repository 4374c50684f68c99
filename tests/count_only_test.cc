// A bare COUNT(*) projects no column: its scan reads no block and counts
// each candidate range's rows from the pinned version's chain metadata,
// and the aggregate folds those counts into its one group. These tests
// pin the answer on every path such a count can take (empty and ALL
// tables, pinned snapshots, VACUUM, ORDER BY/LIMIT above it, both
// engines, serial and pooled, system tables, a dead node) and the
// telemetry it leaves (stl_scan, stv_inflight, blocks_decoded).

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "cluster/cluster.h"
#include "cluster/executor.h"
#include "common/logging.h"
#include "obs/profiler.h"
#include "obs/registry.h"
#include "plan/planner.h"
#include "warehouse/warehouse.h"

namespace sdw::warehouse {
namespace {

WarehouseOptions CountOptions() {
  WarehouseOptions options;
  options.cluster.num_nodes = 2;
  options.cluster.slices_per_node = 2;
  options.cluster.storage.max_rows_per_block = 256;
  options.cache.enable_result_cache = false;  // execute every statement
  return options;
}

StatementResult MustRun(Warehouse* wh, const std::string& sql) {
  auto r = wh->Execute(sql);
  EXPECT_TRUE(r.ok()) << sql << " -> " << r.status();
  return r.ok() ? std::move(*r) : StatementResult{};
}

int64_t CountOf(Warehouse* wh, const std::string& sql) {
  StatementResult r = MustRun(wh, sql);
  if (r.rows.num_rows() != 1) {
    ADD_FAILURE() << sql << " returned " << r.rows.num_rows() << " rows";
    return -1;
  }
  return r.rows.columns[0].IntAt(0);
}

/// Loads rows (i, i % 7) for i in [first, first + n) into t(k, v).
void LoadRows(cluster::Cluster* cluster, int64_t first, int64_t n) {
  ColumnVector k(TypeId::kInt64);
  ColumnVector v(TypeId::kInt64);
  for (int64_t i = first; i < first + n; ++i) {
    k.AppendInt(i);
    v.AppendInt(i % 7);
  }
  std::vector<ColumnVector> cols;
  cols.push_back(std::move(k));
  cols.push_back(std::move(v));
  SDW_CHECK_OK(cluster->InsertRows("t", cols));
}

/// Runs a bare COUNT(*) of t straight through the executor.
Result<cluster::QueryResult> ExecuteCount(cluster::Cluster* cluster,
                                          cluster::ExecOptions options) {
  plan::LogicalQuery q;
  q.from_table = "t";
  q.select = {{plan::LogicalAggFn::kCountStar, {}, "n"}};
  plan::Planner planner(cluster->catalog());
  SDW_ASSIGN_OR_RETURN(plan::PhysicalQuery physical, planner.Plan(q));
  cluster::QueryExecutor executor(cluster, options);
  return executor.Execute(physical);
}

class CountOnlyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    wh_ = std::make_unique<Warehouse>(CountOptions());
    MustRun(wh_.get(), "CREATE TABLE t (k BIGINT, v BIGINT) SORTKEY(k)");
    LoadRows(wh_->data_plane(), 0, 3000);
  }

  std::unique_ptr<Warehouse> wh_;
};

TEST_F(CountOnlyTest, PlannerBindsNoColumn) {
  plan::LogicalQuery q;
  q.from_table = "t";
  q.select = {{plan::LogicalAggFn::kCountStar, {}, "n"}};
  plan::Planner planner(wh_->data_plane()->catalog());
  auto physical = planner.Plan(q);
  ASSERT_TRUE(physical.ok()) << physical.status();
  EXPECT_TRUE(physical->scan.columns.empty());
  EXPECT_TRUE(physical->scan.predicates.empty());
  EXPECT_EQ(physical->scan.filter, nullptr);

  // Anything that needs a value still binds its column.
  q.where = {{{"", "v"}, plan::LogicalCmp::kGe, Datum::Int64(3)}};
  physical = planner.Plan(q);
  ASSERT_TRUE(physical.ok()) << physical.status();
  EXPECT_EQ(physical->scan.columns.size(), 1u);
}

TEST_F(CountOnlyTest, BareCountReadsNoBlock) {
  obs::Counter* decoded =
      obs::Registry::Global().counter("sdw_storage_blocks_decoded");
  wh_->data_plane()->FailNode(0);  // nothing is cached, nothing readable
  const uint64_t before = decoded->value();
  StatementResult r = MustRun(wh_.get(), "SELECT COUNT(*) AS n FROM t");
  ASSERT_EQ(r.rows.num_rows(), 1u);
  EXPECT_EQ(r.rows.columns[0].IntAt(0), 3000);
  EXPECT_EQ(r.exec_stats.blocks_decoded, 0u);
  EXPECT_EQ(decoded->value(), before) << "no block was decoded";
  ASSERT_EQ(r.exec_stats.scans.size(), 1u);
  const obs::ScanRecord& scan = r.exec_stats.scans[0];
  EXPECT_EQ(scan.rows_scanned, 3000u);
  EXPECT_EQ(scan.rows_out, 3000u);
  EXPECT_EQ(scan.blocks_read, 0u);
  EXPECT_EQ(scan.blocks_skipped, 0u);
  EXPECT_EQ(scan.bytes_decoded, 0u);
}

TEST_F(CountOnlyTest, StlScanLogsNoBlockRead) {
  MustRun(wh_.get(), "SELECT COUNT(*) AS n FROM t");
  StatementResult scans = MustRun(
      wh_.get(),
      "SELECT rows_scanned, rows_out, blocks_read, blocks_skipped, "
      "bytes_decoded FROM stl_scan");
  ASSERT_EQ(scans.rows.num_rows(), 1u);
  EXPECT_EQ(scans.rows.columns[0].IntAt(0), 3000);
  EXPECT_EQ(scans.rows.columns[1].IntAt(0), 3000);
  EXPECT_EQ(scans.rows.columns[2].IntAt(0), 0);
  EXPECT_EQ(scans.rows.columns[3].IntAt(0), 0);
  EXPECT_EQ(scans.rows.columns[4].IntAt(0), 0);
}

TEST_F(CountOnlyTest, InflightProgressCountsScannedRows) {
  // stv_inflight reads these counters while the statement runs.
  for (int pool_size : {0, 4}) {
    obs::QueryProgress progress;
    cluster::ExecOptions options;
    options.pool_size = pool_size;
    options.progress = &progress;
    auto r = ExecuteCount(wh_->data_plane(), options);
    ASSERT_TRUE(r.ok()) << r.status();
    EXPECT_EQ(r->rows.columns[0].IntAt(0), 3000);
    EXPECT_EQ(progress.rows_scanned(), 3000u) << "pool " << pool_size;
    EXPECT_EQ(progress.slices_done(), 4);
    EXPECT_EQ(progress.slices_total(), 4);
  }
}

TEST_F(CountOnlyTest, EmptyTableCountsZero) {
  MustRun(wh_.get(), "CREATE TABLE e (k BIGINT, s VARCHAR)");
  StatementResult r = MustRun(wh_.get(), "SELECT COUNT(*) AS n FROM e");
  ASSERT_EQ(r.rows.num_rows(), 1u) << "a global aggregate emits one row";
  EXPECT_EQ(r.rows.columns[0].IntAt(0), 0);
  WarehouseOptions options = CountOptions();
  options.exec.mode = cluster::ExecutionMode::kInterpreted;
  Warehouse interp(options);
  MustRun(&interp, "CREATE TABLE e (k BIGINT, s VARCHAR)");
  EXPECT_EQ(CountOf(&interp, "SELECT COUNT(*) AS n FROM e"), 0);
}

TEST_F(CountOnlyTest, DistStyleAllCountsEachRowOnce) {
  MustRun(wh_.get(), "CREATE TABLE a (k BIGINT, v BIGINT) DISTSTYLE ALL");
  std::string insert = "INSERT INTO a VALUES (0, 0)";
  for (int i = 1; i < 500; ++i) {
    insert += ", (" + std::to_string(i) + ", " + std::to_string(i) + ")";
  }
  MustRun(wh_.get(), insert);
  EXPECT_EQ(CountOf(wh_.get(), "SELECT COUNT(*) AS n FROM a"), 500);
  EXPECT_EQ(CountOf(wh_.get(), "SELECT COUNT(v) AS n FROM a"), 500);
}

TEST_F(CountOnlyTest, PinnedSnapshotCountsItsOwnVersion) {
  cluster::Cluster* cluster = wh_->data_plane();
  auto before_insert = std::make_shared<cluster::ReadSnapshot>();
  ASSERT_TRUE(cluster->PinTables({"t"}, before_insert.get()).ok());
  LoadRows(cluster, 3000, 250);

  cluster::ExecOptions pinned;
  pinned.snapshot = before_insert;
  auto old_count = ExecuteCount(cluster, pinned);
  ASSERT_TRUE(old_count.ok()) << old_count.status();
  EXPECT_EQ(old_count->rows.columns[0].IntAt(0), 3000);
  EXPECT_EQ(CountOf(wh_.get(), "SELECT COUNT(*) AS n FROM t"), 3250);

  // VACUUM rewrites every chain; the count follows the new version, and
  // a snapshot pinned before it still counts its own.
  auto before_vacuum = std::make_shared<cluster::ReadSnapshot>();
  ASSERT_TRUE(cluster->PinTables({"t"}, before_vacuum.get()).ok());
  MustRun(wh_.get(), "VACUUM t");
  EXPECT_EQ(CountOf(wh_.get(), "SELECT COUNT(*) AS n FROM t"), 3250);
  pinned.snapshot = before_vacuum;
  auto vacuumed = ExecuteCount(cluster, pinned);
  ASSERT_TRUE(vacuumed.ok()) << vacuumed.status();
  EXPECT_EQ(vacuumed->rows.columns[0].IntAt(0), 3250);
  pinned.snapshot = before_insert;
  old_count = ExecuteCount(cluster, pinned);
  ASSERT_TRUE(old_count.ok()) << old_count.status();
  EXPECT_EQ(old_count->rows.columns[0].IntAt(0), 3000);
}

TEST_F(CountOnlyTest, OrderByAndLimitAboveTheCount) {
  StatementResult ordered =
      MustRun(wh_.get(), "SELECT COUNT(*) AS n FROM t ORDER BY n DESC LIMIT 1");
  ASSERT_EQ(ordered.rows.num_rows(), 1u);
  EXPECT_EQ(ordered.rows.columns[0].IntAt(0), 3000);
  StatementResult none =
      MustRun(wh_.get(), "SELECT COUNT(*) AS n FROM t LIMIT 0");
  EXPECT_EQ(none.rows.num_rows(), 0u);
  StatementResult twice =
      MustRun(wh_.get(),
              "SELECT COUNT(*) AS a, COUNT(*) AS b FROM t ORDER BY 2");
  ASSERT_EQ(twice.rows.num_rows(), 1u);
  EXPECT_EQ(twice.rows.columns[0].IntAt(0), 3000);
  EXPECT_EQ(twice.rows.columns[1].IntAt(0), 3000);
}

TEST(CountOnlyEngineTest, CompiledInterpretedSerialAndPooledAgree) {
  // 20,000 rows: several 4096-row interpreted batches per slice.
  for (auto mode : {cluster::ExecutionMode::kCompiled,
                    cluster::ExecutionMode::kInterpreted}) {
    for (int pool_size : {0, 4}) {
      WarehouseOptions options = CountOptions();
      options.cluster.storage.max_rows_per_block = 4096;
      options.exec.mode = mode;
      options.exec.pool_size = pool_size;
      Warehouse wh(options);
      MustRun(&wh, "CREATE TABLE t (k BIGINT, v BIGINT)");
      LoadRows(wh.data_plane(), 0, 20000);
      const bool compiled = mode == cluster::ExecutionMode::kCompiled;
      const std::string arm =
          std::string(compiled ? "compiled" : "interpreted") + " pool " +
          std::to_string(pool_size);
      StatementResult r = MustRun(&wh, "SELECT COUNT(*) AS n FROM t");
      ASSERT_EQ(r.rows.num_rows(), 1u) << arm;
      EXPECT_EQ(r.rows.columns[0].IntAt(0), 20000) << arm;
      EXPECT_EQ(r.exec_stats.blocks_decoded, 0u) << arm;
      EXPECT_EQ(CountOf(&wh, "SELECT COUNT(k) AS n FROM t"), 20000) << arm;
      int64_t threes = 0;
      for (int64_t i = 0; i < 20000; ++i) threes += i % 7 == 3 ? 1 : 0;
      EXPECT_EQ(CountOf(&wh, "SELECT COUNT(*) AS n FROM t WHERE v = 3"),
                threes)
          << arm;
    }
  }
}

TEST(CountOnlySystemTableTest, CountsEverySystemTableRow) {
  Warehouse wh(CountOptions());
  MustRun(&wh, "CREATE TABLE t (k BIGINT, v BIGINT)");
  LoadRows(wh.data_plane(), 0, 100);
  for (int i = 0; i < 5; ++i) {
    MustRun(&wh, "SELECT SUM(v) AS s FROM t WHERE k >= " + std::to_string(i));
  }
  const size_t queries = wh.query_log()->history().Snapshot().size();
  ASSERT_GT(queries, 0u);
  EXPECT_EQ(CountOf(&wh, "SELECT COUNT(*) AS n FROM stl_query"),
            static_cast<int64_t>(queries));
  const size_t scans = wh.scan_log()->Snapshot().size();
  ASSERT_GT(scans, 0u);
  EXPECT_EQ(CountOf(&wh, "SELECT COUNT(*) AS n FROM stl_scan"),
            static_cast<int64_t>(scans));
  EXPECT_EQ(
      CountOf(&wh, "SELECT COUNT(*) AS n FROM stl_scan WHERE rows_out >= 0"),
      static_cast<int64_t>(scans));
}

TEST(CountOnlyFaultTest, DeadNodeWithoutReplicaStillCounts) {
  WarehouseOptions options = CountOptions();
  options.cluster.replicate = false;
  Warehouse wh(options);
  MustRun(&wh, "CREATE TABLE t (k BIGINT, v BIGINT)");
  LoadRows(wh.data_plane(), 0, 2000);
  wh.data_plane()->FailNode(0);
  // The chain metadata lives on: the count needs no block.
  EXPECT_EQ(CountOf(&wh, "SELECT COUNT(*) AS n FROM t"), 2000);
  // A column read needs node 0's blocks, and nothing masks their loss.
  auto sum = wh.Execute("SELECT SUM(v) AS s FROM t");
  ASSERT_FALSE(sum.ok());
  EXPECT_EQ(sum.status().code(), StatusCode::kUnavailable) << sum.status();
}

}  // namespace
}  // namespace sdw::warehouse
