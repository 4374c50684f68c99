#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "backup/s3sim.h"
#include "common/random.h"
#include "obs/registry.h"
#include "warehouse/warehouse.h"

namespace sdw::warehouse {
namespace {

WarehouseOptions SmallOptions() {
  WarehouseOptions options;
  options.cluster.num_nodes = 2;
  options.cluster.slices_per_node = 2;
  options.cluster.storage.max_rows_per_block = 256;
  return options;
}

class WarehouseTest : public ::testing::Test {
 protected:
  void SetUp() override { wh_ = std::make_unique<Warehouse>(SmallOptions()); }

  StatementResult MustRun(const std::string& sql) {
    auto r = wh_->Execute(sql);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status();
    return r.ok() ? std::move(*r) : StatementResult{};
  }

  std::unique_ptr<Warehouse> wh_;
};

TEST_F(WarehouseTest, EndToEndSqlSession) {
  MustRun(
      "CREATE TABLE sales (day BIGINT, store BIGINT, amount DOUBLE "
      "PRECISION) DISTKEY(store) SORTKEY(day)");
  MustRun(
      "CREATE TABLE stores (id BIGINT, city VARCHAR) DISTSTYLE ALL");
  MustRun("INSERT INTO stores VALUES (1, 'seattle'), (2, 'portland')");
  // Load sales through INSERT.
  std::string insert = "INSERT INTO sales VALUES ";
  Rng rng(3);
  for (int i = 0; i < 300; ++i) {
    if (i) insert += ", ";
    insert += "(" + std::to_string(i % 30) + ", " +
              std::to_string(1 + (i % 2)) + ", " +
              std::to_string(1.0 + rng.NextDouble()) + ")";
  }
  MustRun(insert);
  MustRun("ANALYZE sales");

  auto result = MustRun(
      "SELECT city, COUNT(*) AS n, AVG(amount) AS avg_amount "
      "FROM sales JOIN stores ON sales.store = stores.id "
      "WHERE day >= 10 GROUP BY city ORDER BY city");
  ASSERT_EQ(result.rows.num_rows(), 2u);
  EXPECT_EQ(result.column_names,
            (std::vector<std::string>{"city", "n", "avg_amount"}));
  EXPECT_EQ(result.rows.columns[0].StringAt(0), "portland");
  EXPECT_EQ(result.rows.columns[0].StringAt(1), "seattle");
  // 300 rows, day >= 10 keeps 2/3, split evenly by store.
  EXPECT_EQ(result.rows.columns[1].IntAt(0) + result.rows.columns[1].IntAt(1),
            200);
  EXPECT_GT(result.rows.columns[2].DoubleAt(0), 1.0);
}

TEST_F(WarehouseTest, ExplainShowsStrategy) {
  MustRun("CREATE TABLE f (k BIGINT, v BIGINT) DISTKEY(k)");
  MustRun("CREATE TABLE d (id BIGINT, name VARCHAR) DISTKEY(id)");
  auto result = MustRun(
      "EXPLAIN SELECT name, COUNT(*) FROM f JOIN d ON f.k = d.id GROUP BY "
      "name");
  EXPECT_NE(result.message.find("CO-LOCATED"), std::string::npos);
  EXPECT_NE(result.message.find("Final HashAggregate"), std::string::npos);
}

TEST_F(WarehouseTest, CopyFromObjectStore) {
  MustRun("CREATE TABLE logs (ts BIGINT, path VARCHAR) SORTKEY(ts)");
  std::string csv;
  for (int i = 0; i < 1000; ++i) {
    csv += std::to_string(i) + ",/page" + std::to_string(i % 7) + "\n";
  }
  ASSERT_TRUE(wh_->s3()
                  ->region("us-east-1")
                  ->PutObject("bkt/logs/part-0", Bytes(csv.begin(), csv.end()))
                  .ok());
  auto result = MustRun("COPY logs FROM 's3://bkt/logs/' FORMAT CSV");
  EXPECT_EQ(result.copy_stats.rows_loaded, 1000u);
  auto count = MustRun("SELECT COUNT(*) AS n FROM logs");
  EXPECT_EQ(count.rows.columns[0].IntAt(0), 1000);
}

TEST_F(WarehouseTest, BackupRestoreRoundTrip) {
  MustRun("CREATE TABLE t (a BIGINT, b VARCHAR)");
  MustRun("INSERT INTO t VALUES (1, 'x'), (2, 'y'), (3, 'z')");
  auto backup = wh_->Backup(/*user_initiated=*/true);
  ASSERT_TRUE(backup.ok()) << backup.status();
  // Mutate after the snapshot.
  MustRun("INSERT INTO t VALUES (4, 'w')");
  EXPECT_EQ(MustRun("SELECT COUNT(*) AS n FROM t").rows.columns[0].IntAt(0),
            4);
  // Restore rolls back to snapshot state.
  backup::BackupManager::RestoreStats stats;
  ASSERT_TRUE(wh_->RestoreInPlace(backup->snapshot_id, &stats).ok());
  EXPECT_EQ(MustRun("SELECT COUNT(*) AS n FROM t").rows.columns[0].IntAt(0),
            3);
}

TEST_F(WarehouseTest, ResizeKeepsServing) {
  MustRun("CREATE TABLE t (a BIGINT)");
  MustRun("INSERT INTO t VALUES (1), (2), (3), (4), (5)");
  auto stats = wh_->Resize(4);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(wh_->data_plane()->num_nodes(), 4);
  EXPECT_EQ(MustRun("SELECT SUM(a) AS s FROM t").rows.columns[0].IntAt(0),
            15);
  // Writes continue on the new cluster.
  MustRun("INSERT INTO t VALUES (6)");
  EXPECT_EQ(MustRun("SELECT COUNT(*) AS n FROM t").rows.columns[0].IntAt(0),
            6);
}

// A resize whose commit fails with an ordinary error (the log's region
// is down, no crash) swaps nothing and leaves the source writable.
TEST_F(WarehouseTest, FailedResizeLeavesTheClusterWritable) {
  MustRun("CREATE TABLE t (a BIGINT)");
  MustRun("INSERT INTO t VALUES (1), (2)");
  backup::S3Region* region = wh_->s3()->region("us-east-1");
  region->set_available(false);
  auto failed = wh_->Resize(3);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kUnavailable)
      << failed.status();
  region->set_available(true);
  EXPECT_FALSE(wh_->crashed());
  EXPECT_EQ(wh_->data_plane()->num_nodes(), 2);
  EXPECT_FALSE(wh_->data_plane()->read_only());
  MustRun("INSERT INTO t VALUES (3)");
  auto resized = wh_->Resize(3);
  ASSERT_TRUE(resized.ok()) << resized.status();
  EXPECT_EQ(wh_->data_plane()->num_nodes(), 3);
  EXPECT_EQ(MustRun("SELECT SUM(a) AS s FROM t").rows.columns[0].IntAt(0), 6);
  MustRun("INSERT INTO t VALUES (4)");
}

TEST_F(WarehouseTest, BetweenInAndLikePrefix) {
  MustRun("CREATE TABLE logs (day BIGINT, path VARCHAR, code BIGINT) "
          "SORTKEY(day)");
  std::string sql = "INSERT INTO logs VALUES ";
  for (int i = 0; i < 300; ++i) {
    if (i) sql += ", ";
    sql += "(" + std::to_string(i % 30) + ", '/" +
           (i % 3 == 0 ? std::string("api/v") + std::to_string(i % 5)
                       : std::string("static/img")) +
           "', " + std::to_string(200 + 100 * (i % 4)) + ")";
  }
  MustRun(sql);

  auto between = MustRun(
      "SELECT COUNT(*) AS n FROM logs WHERE day BETWEEN 10 AND 19");
  EXPECT_EQ(between.rows.columns[0].IntAt(0), 100);

  auto in_list = MustRun(
      "SELECT COUNT(*) AS n FROM logs WHERE code IN (200, 400)");
  EXPECT_EQ(in_list.rows.columns[0].IntAt(0), 150);

  auto like = MustRun(
      "SELECT COUNT(*) AS n FROM logs WHERE path LIKE '/api/%'");
  EXPECT_EQ(like.rows.columns[0].IntAt(0), 100);

  // Combined conjuncts.
  auto combo = MustRun(
      "SELECT COUNT(*) AS n FROM logs WHERE day BETWEEN 0 AND 29 AND "
      "path LIKE '/api/%' AND code IN (200, 300, 400, 500)");
  EXPECT_EQ(combo.rows.columns[0].IntAt(0), 100);

  // Unsupported LIKE patterns fail with guidance, not wrong answers.
  auto bad = wh_->Execute("SELECT COUNT(*) FROM logs WHERE path LIKE '%x'");
  EXPECT_EQ(bad.status().code(), StatusCode::kNotSupported);
  auto mid = wh_->Execute("SELECT COUNT(*) FROM logs WHERE path LIKE 'a%b'");
  EXPECT_FALSE(mid.ok());
}

TEST_F(WarehouseTest, BetweenPrunesBlocks) {
  MustRun("CREATE TABLE series (ts BIGINT, v BIGINT) SORTKEY(ts)");
  std::string sql = "INSERT INTO series VALUES (0, 0)";
  for (int i = 1; i < 4000; ++i) {
    sql += ", (" + std::to_string(i) + ", " + std::to_string(i % 7) + ")";
  }
  MustRun(sql);
  auto narrow =
      MustRun("SELECT COUNT(*) AS n FROM series WHERE ts BETWEEN 100 AND 140");
  EXPECT_EQ(narrow.rows.columns[0].IntAt(0), 41);
  auto full = MustRun("SELECT COUNT(ts) AS n FROM series");
  EXPECT_LT(narrow.exec_stats.blocks_decoded * 3,
            full.exec_stats.blocks_decoded)
      << "BETWEEN must feed the zone maps";
  // A bare COUNT(*) reads no block: its rows come from chain metadata.
  auto bare = MustRun("SELECT COUNT(*) AS n FROM series");
  EXPECT_EQ(bare.rows.columns[0].IntAt(0), 4000);
  EXPECT_EQ(bare.exec_stats.blocks_decoded, 0u);
}

// Decoded blocks survive from one query to the next: a repeated SELECT
// decodes nothing new, while its per-query ledger still reports the
// blocks its scans need, the same on every run and in every place.
TEST(WarehouseLedgerTest, RepeatedSelectReusesDecodedBlocks) {
  WarehouseOptions options = SmallOptions();
  options.cache.enable_result_cache = false;  // execute every run
  Warehouse wh(options);
  ASSERT_TRUE(
      wh.Execute("CREATE TABLE t (k BIGINT, v BIGINT) SORTKEY(v)").ok());
  std::string insert = "INSERT INTO t VALUES (0, 0)";
  for (int i = 1; i < 2000; ++i) {
    insert += ", (" + std::to_string(i % 13) + ", " + std::to_string(i) + ")";
  }
  ASSERT_TRUE(wh.Execute(insert).ok());

  obs::Counter* decoded =
      obs::Registry::Global().counter("sdw_storage_blocks_decoded");
  const std::string sql =
      "SELECT k, COUNT(*) AS n, SUM(v) AS s FROM t WHERE v >= 300 "
      "GROUP BY k ORDER BY k";
  std::vector<uint64_t> real_decodes;
  for (int run = 0; run < 3; ++run) {
    const uint64_t before = decoded->value();
    auto r = wh.Execute(sql);
    ASSERT_TRUE(r.ok()) << r.status();
    real_decodes.push_back(decoded->value() - before);
    ASSERT_EQ(r->rows.num_rows(), 13u);

    uint64_t needed = 0;
    for (const auto& scan : r->exec_stats.scans) {
      needed += scan.blocks_read;
    }
    EXPECT_GT(needed, 0u);
    EXPECT_EQ(r->exec_stats.blocks_decoded, needed) << "run " << run;
    auto logged = wh.Execute(
        "SELECT query_id, blocks_decoded FROM stl_query "
        "ORDER BY query_id DESC LIMIT 1");
    ASSERT_TRUE(logged.ok()) << logged.status();
    ASSERT_EQ(logged->rows.num_rows(), 1u);
    EXPECT_EQ(static_cast<uint64_t>(logged->rows.columns[1].IntAt(0)), needed)
        << "run " << run;
  }
  EXPECT_GT(real_decodes[0], 0u) << "the first run starts cold";
  EXPECT_EQ(real_decodes[1], 0u) << "repeat runs read the decode caches";
  EXPECT_EQ(real_decodes[2], 0u);
}

TEST_F(WarehouseTest, VacuumAcceptedAndErrorsPropagate) {
  MustRun("CREATE TABLE t (a BIGINT)");
  auto vacuum = wh_->Execute("VACUUM t");
  ASSERT_TRUE(vacuum.ok());
  EXPECT_FALSE(wh_->Execute("SELECT a FROM missing").ok());
  EXPECT_FALSE(wh_->Execute("CREATE TABLE t (a BIGINT)").ok());  // dup
  EXPECT_FALSE(wh_->Execute("INSERT INTO t VALUES (1, 2)").ok());  // arity
  EXPECT_FALSE(wh_->Execute("garbage statement").ok());
}

TEST_F(WarehouseTest, TransactionRollbackUndoesWrites) {
  MustRun("CREATE TABLE t (a BIGINT) SORTKEY(a)");
  MustRun("INSERT INTO t VALUES (1), (2), (3)");
  MustRun("BEGIN");
  MustRun("INSERT INTO t VALUES (4), (5)");
  MustRun("CREATE TABLE scratch (x BIGINT)");
  MustRun("INSERT INTO scratch VALUES (9)");
  EXPECT_EQ(MustRun("SELECT COUNT(*) AS n FROM t").rows.columns[0].IntAt(0),
            5);
  MustRun("ROLLBACK");
  // Pre-transaction state restored; the scratch table is gone.
  EXPECT_EQ(MustRun("SELECT COUNT(*) AS n FROM t").rows.columns[0].IntAt(0),
            3);
  EXPECT_FALSE(wh_->Execute("SELECT x FROM scratch").ok());
  EXPECT_EQ(MustRun("SELECT SUM(a) AS s FROM t").rows.columns[0].IntAt(0),
            6);
  // Writes after rollback land normally.
  MustRun("INSERT INTO t VALUES (10)");
  EXPECT_EQ(MustRun("SELECT COUNT(*) AS n FROM t").rows.columns[0].IntAt(0),
            4);
}

TEST_F(WarehouseTest, TransactionCommitKeepsWrites) {
  MustRun("CREATE TABLE t (a BIGINT)");
  MustRun("BEGIN");
  MustRun("INSERT INTO t VALUES (1), (2)");
  MustRun("COMMIT");
  EXPECT_EQ(MustRun("SELECT COUNT(*) AS n FROM t").rows.columns[0].IntAt(0),
            2);
}

TEST_F(WarehouseTest, TransactionGuards) {
  MustRun("CREATE TABLE t (a BIGINT)");
  // COMMIT/ROLLBACK without BEGIN.
  EXPECT_EQ(wh_->Execute("COMMIT").status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(wh_->Execute("ROLLBACK").status().code(),
            StatusCode::kFailedPrecondition);
  MustRun("BEGIN");
  // Nested BEGIN rejected.
  EXPECT_EQ(wh_->Execute("BEGIN").status().code(),
            StatusCode::kFailedPrecondition);
  // Block-reclaiming ops rejected inside a transaction.
  EXPECT_EQ(wh_->Execute("DROP TABLE t").status().code(),
            StatusCode::kNotSupported);
  EXPECT_EQ(wh_->Execute("VACUUM t").status().code(),
            StatusCode::kNotSupported);
  EXPECT_EQ(wh_->Resize(4).status().code(), StatusCode::kFailedPrecondition);
  MustRun("COMMIT");
  // And allowed again afterwards.
  MustRun("DROP TABLE t");
}

TEST_F(WarehouseTest, RollbackUndoesCopyAndEncodings) {
  MustRun("CREATE TABLE logs (ts BIGINT, msg VARCHAR) SORTKEY(ts)");
  MustRun("BEGIN");
  std::string csv;
  for (int i = 0; i < 500; ++i) {
    csv += std::to_string(i) + ",message-" + std::to_string(i % 5) + "\n";
  }
  ASSERT_TRUE(wh_->s3()
                  ->region("us-east-1")
                  ->PutObject("bkt/roll/part-0", Bytes(csv.begin(), csv.end()))
                  .ok());
  MustRun("COPY logs FROM 's3://bkt/roll/'");
  EXPECT_EQ(MustRun("SELECT COUNT(*) AS n FROM logs").rows.columns[0].IntAt(0),
            500);
  // COPY's analyzer assigned encodings; rollback restores AUTO.
  EXPECT_NE(wh_->data_plane()->catalog()->GetTable("logs")->column(0).encoding,
            ColumnEncoding::kAuto);
  MustRun("ROLLBACK");
  EXPECT_EQ(MustRun("SELECT COUNT(*) AS n FROM logs").rows.columns[0].IntAt(0),
            0);
  EXPECT_EQ(wh_->data_plane()->catalog()->GetTable("logs")->column(0).encoding,
            ColumnEncoding::kAuto);
  // The same COPY works again after rollback.
  MustRun("COPY logs FROM 's3://bkt/roll/'");
  EXPECT_EQ(MustRun("SELECT COUNT(*) AS n FROM logs").rows.columns[0].IntAt(0),
            500);
}

TEST_F(WarehouseTest, ResultTableRendering) {
  MustRun("CREATE TABLE t (a BIGINT, b VARCHAR)");
  MustRun("INSERT INTO t VALUES (1, 'hello'), (2, NULL)");
  auto result = MustRun("SELECT a, b FROM t ORDER BY a");
  std::string table = result.ToTable();
  EXPECT_NE(table.find("hello"), std::string::npos);
  EXPECT_NE(table.find("NULL"), std::string::npos);
  EXPECT_NE(table.find("(2 rows)"), std::string::npos);
}

// ---------------------------------------------------------------------------
// A transaction belongs to the session that opened it
// ---------------------------------------------------------------------------

StatementResult RunIn(Warehouse::Session* session, const std::string& sql) {
  auto r = session->Execute(sql);
  EXPECT_TRUE(r.ok()) << sql << " -> " << r.status();
  return r.ok() ? std::move(*r) : StatementResult{};
}

StatusCode CodeIn(Warehouse::Session* session, const std::string& sql) {
  return session->Execute(sql).status().code();
}

TEST(TransactionOwnerTest, OtherSessionsAreRefusedUntilTheTransactionEnds) {
  Warehouse wh(SmallOptions());
  Warehouse::Session a = wh.CreateSession();
  Warehouse::Session b = wh.CreateSession();
  RunIn(&b, "CREATE TABLE t (k BIGINT)");
  RunIn(&b, "INSERT INTO t VALUES (1)");
  RunIn(&a, "BEGIN");
  RunIn(&a, "INSERT INTO t VALUES (2)");

  // Every write of another session is refused and changes nothing.
  for (const char* sql :
       {"INSERT INTO t VALUES (42)", "CREATE TABLE u (x BIGINT)",
        "DROP TABLE t", "VACUUM t", "ANALYZE t",
        "COPY t FROM 's3://nowhere/t/' FORMAT CSV"}) {
    EXPECT_EQ(CodeIn(&b, sql), StatusCode::kFailedPrecondition) << sql;
  }
  // It can neither end the owner's transaction nor open one of its own.
  EXPECT_EQ(CodeIn(&b, "COMMIT"), StatusCode::kFailedPrecondition);
  EXPECT_EQ(CodeIn(&b, "ROLLBACK"), StatusCode::kFailedPrecondition);
  EXPECT_EQ(CodeIn(&b, "BEGIN"), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(wh.in_transaction());
  EXPECT_FALSE(wh.data_plane()->catalog()->GetTable("u").ok());
  // Reads are served (they see the open transaction's rows: no
  // per-session snapshots yet).
  EXPECT_EQ(RunIn(&b, "SELECT COUNT(*) AS n FROM t").rows.columns[0].IntAt(0),
            2);
  EXPECT_TRUE(b.Execute("SELECT COUNT(*) AS n FROM stl_query").ok());

  RunIn(&a, "COMMIT");
  // Once the transaction ends the other session writes again.
  RunIn(&b, "INSERT INTO t VALUES (42)");
  EXPECT_EQ(RunIn(&b, "SELECT COUNT(*) AS n FROM t").rows.columns[0].IntAt(0),
            3);
  RunIn(&b, "BEGIN");
  EXPECT_EQ(CodeIn(&a, "INSERT INTO t VALUES (43)"),
            StatusCode::kFailedPrecondition);
  RunIn(&b, "ROLLBACK");
}

TEST(TransactionOwnerTest, EveryAcknowledgedWriteSurvivesRollbackAndRestart) {
  backup::S3 shared;
  WarehouseOptions options = SmallOptions();
  options.shared_s3 = &shared;
  std::vector<int64_t> acknowledged;
  {
    Warehouse wh(options);
    Warehouse::Session a = wh.CreateSession();
    Warehouse::Session b = wh.CreateSession();
    auto insert = [&](int64_t k) {
      if (b.Execute("INSERT INTO t VALUES (" + std::to_string(k) + ")").ok()) {
        acknowledged.push_back(k);
      }
    };
    RunIn(&b, "CREATE TABLE t (k BIGINT)");
    // Another session's ROLLBACK must not undo B's acknowledged write.
    RunIn(&a, "BEGIN");
    insert(42);
    RunIn(&a, "ROLLBACK");
    insert(7);
    // Nor may B's write be buffered into A's transaction, out of the
    // log: the process ends with A's transaction still open.
    RunIn(&a, "BEGIN");
    insert(8);
    EXPECT_EQ(acknowledged, (std::vector<int64_t>{7}));
    EXPECT_EQ(RunIn(&b, "SELECT COUNT(*) AS n FROM t").rows.columns[0].IntAt(0),
              static_cast<int64_t>(acknowledged.size()));
  }
  Warehouse reborn(options);
  ASSERT_TRUE(reborn.Recover().ok());
  auto keys = reborn.Execute("SELECT k FROM t ORDER BY k");
  ASSERT_TRUE(keys.ok()) << keys.status();
  std::vector<int64_t> recovered;
  for (size_t i = 0; i < keys->rows.num_rows(); ++i) {
    recovered.push_back(keys->rows.columns[0].IntAt(i));
  }
  EXPECT_EQ(recovered, acknowledged);
}

// ---------------------------------------------------------------------------
// INSERT stores only values its column can hold
// ---------------------------------------------------------------------------

TEST_F(WarehouseTest, InsertRejectsValuesOutsideTheColumnsDomain) {
  MustRun("CREATE TABLE t (i INTEGER, b BOOLEAN, d DATE, k BIGINT)");
  struct Probe {
    const char* sql;
    const char* column;
  };
  for (const Probe& probe : {
           Probe{"INSERT INTO t VALUES (3000000000, TRUE, 0, 1)", "'i'"},
           Probe{"INSERT INTO t VALUES (-2147483649, TRUE, 0, 1)", "'i'"},
           Probe{"INSERT INTO t VALUES (1, 5, 0, 2)", "'b'"},
           Probe{"INSERT INTO t VALUES (1, -1, 0, 2)", "'b'"},
           Probe{"INSERT INTO t VALUES (1, TRUE, 2147483648, 3)", "'d'"},
           // One bad row fails the whole statement.
           Probe{"INSERT INTO t VALUES (1, TRUE, 0, 4), (3000000000, TRUE, 0, 5)",
                 "'i'"},
       }) {
    auto r = wh_->Execute(probe.sql);
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << probe.sql;
    EXPECT_NE(r.status().message().find(probe.column), std::string::npos)
        << probe.sql << " -> " << r.status();
  }
  EXPECT_EQ(MustRun("SELECT COUNT(*) AS n FROM t").rows.columns[0].IntAt(0), 0);
  EXPECT_EQ(MustRun("SELECT COUNT(*) AS n FROM t WHERE i < 0")
                .rows.columns[0]
                .IntAt(0),
            0);

  // The extremes of each domain insert and read back unchanged.
  MustRun(
      "INSERT INTO t VALUES (-2147483648, FALSE, -2147483648, 1), "
      "(2147483647, TRUE, 2147483647, 2), (0, 0, 0, 3), (1, 1, 1, 4)");
  auto rows = MustRun("SELECT i, b, d, k FROM t ORDER BY k");
  ASSERT_EQ(rows.rows.num_rows(), 4u);
  EXPECT_EQ(rows.rows.columns[0].DatumAt(0), Datum::Int32(-2147483648));
  EXPECT_EQ(rows.rows.columns[0].DatumAt(1), Datum::Int32(2147483647));
  EXPECT_EQ(rows.rows.columns[1].DatumAt(0), Datum::Bool(false));
  EXPECT_EQ(rows.rows.columns[1].DatumAt(1), Datum::Bool(true));
  EXPECT_EQ(rows.rows.columns[1].DatumAt(2), Datum::Bool(false));
  EXPECT_EQ(rows.rows.columns[1].DatumAt(3), Datum::Bool(true));
  EXPECT_EQ(rows.rows.columns[2].DatumAt(0), Datum::Date(-2147483648));
  EXPECT_EQ(rows.rows.columns[2].DatumAt(1), Datum::Date(2147483647));
  EXPECT_EQ(MustRun("SELECT COUNT(*) AS n FROM t WHERE b = TRUE")
                .rows.columns[0]
                .IntAt(0),
            2);
  EXPECT_EQ(MustRun("SELECT COUNT(*) AS n FROM t WHERE i < 0")
                .rows.columns[0]
                .IntAt(0),
            1);
}

TEST_F(WarehouseTest, DataPlaneInsertRejectsValuesOutsideTheColumnsDomain) {
  MustRun("CREATE TABLE t (i INTEGER, b BOOLEAN, d DATE, k BIGINT)");
  // Lanes built directly, past AppendDatum's check: the data plane is
  // where every write arrives, so it refuses them too.
  auto run = [](int64_t i, int64_t b, int64_t d) {
    std::vector<ColumnVector> columns;
    for (TypeId type :
         {TypeId::kInt32, TypeId::kBool, TypeId::kDate, TypeId::kInt64}) {
      columns.emplace_back(type);
    }
    columns[0].AppendInt(i);
    columns[1].AppendInt(b);
    columns[2].AppendInt(d);
    columns[3].AppendInt(1);
    return columns;
  };
  cluster::Cluster* plane = wh_->data_plane();
  for (const auto& [columns, name] :
       {std::pair{run(3000000000, 1, 0), "'i'"}, std::pair{run(1, 5, 0), "'b'"},
        std::pair{run(1, 1, -3000000000), "'d'"}}) {
    Status status = plane->InsertRows("t", columns);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status;
    EXPECT_NE(status.message().find(name), std::string::npos) << status;
  }
  EXPECT_EQ(*plane->TotalRows("t"), 0u);
  ASSERT_TRUE(plane->InsertRows("t", run(-2147483648, 0, 2147483647)).ok());
  EXPECT_EQ(*plane->TotalRows("t"), 1u);
}

}  // namespace
}  // namespace sdw::warehouse
