// Read-your-writes regression suite for the result cache: every write
// path (INSERT, COPY, VACUUM, DROP, ANALYZE, transactions, streaming
// restore, direct data-plane writes) installs under a fresh MVCC commit
// stamp, and the cache key is built from those stamps, so a repeated
// SELECT can never be served stale rows — including when a chaos-layer
// fault aborts the write before it installs.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/fault_injector.h"
#include "warehouse/warehouse.h"

namespace sdw::warehouse {
namespace {

WarehouseOptions CachedOptions() {
  WarehouseOptions options;
  options.cluster.num_nodes = 2;
  options.cluster.slices_per_node = 2;
  options.cluster.storage.max_rows_per_block = 32;
  return options;  // both caches on by default
}

class CacheInvalidationTest : public ::testing::Test {
 protected:
  StatementResult MustRun(Warehouse* wh, const std::string& sql) {
    auto r = wh->Execute(sql);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status();
    return r.ok() ? std::move(*r) : StatementResult{};
  }

  int64_t Count(Warehouse* wh, bool* from_cache = nullptr) {
    StatementResult r = MustRun(wh, kCount);
    if (from_cache != nullptr) *from_cache = r.from_result_cache;
    if (r.rows.num_rows() != 1) {
      ADD_FAILURE() << "COUNT returned " << r.rows.num_rows() << " rows";
      return -1;
    }
    return r.rows.columns[0].IntAt(0);
  }

  static constexpr const char* kCount = "SELECT COUNT(*) AS n FROM t";
};

TEST_F(CacheInvalidationTest, RepeatSelectHitsUntilInsertInvalidates) {
  Warehouse wh(CachedOptions());
  MustRun(&wh, "CREATE TABLE t (k BIGINT, v BIGINT)");
  MustRun(&wh, "INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)");

  bool cached = false;
  EXPECT_EQ(Count(&wh, &cached), 3);
  EXPECT_FALSE(cached) << "first run executes";
  EXPECT_EQ(Count(&wh, &cached), 3);
  EXPECT_TRUE(cached) << "repeat is served from the result cache";

  MustRun(&wh, "INSERT INTO t VALUES (4, 40)");
  EXPECT_EQ(Count(&wh, &cached), 4) << "read-your-writes";
  EXPECT_FALSE(cached) << "the INSERT invalidated the cached entry";
  EXPECT_EQ(Count(&wh, &cached), 4);
  EXPECT_TRUE(cached);
}

TEST_F(CacheInvalidationTest, CopyAndVacuumInvalidate) {
  Warehouse wh(CachedOptions());
  MustRun(&wh, "CREATE TABLE t (k BIGINT, v BIGINT) SORTKEY(k)");
  MustRun(&wh, "INSERT INTO t VALUES (5, 50), (6, 60)");
  bool cached = false;
  EXPECT_EQ(Count(&wh, &cached), 2);
  EXPECT_EQ(Count(&wh, &cached), 2);
  ASSERT_TRUE(cached);

  std::string csv;
  for (int i = 0; i < 100; ++i) csv += std::to_string(i) + "," + "7\n";
  ASSERT_TRUE(wh.s3()
                  ->region("us-east-1")
                  ->PutObject("bkt/t/part-0", Bytes(csv.begin(), csv.end()))
                  .ok());
  MustRun(&wh, "COPY t FROM 's3://bkt/t/'");
  EXPECT_EQ(Count(&wh, &cached), 102);
  EXPECT_FALSE(cached) << "COPY invalidated the cached count";

  EXPECT_EQ(Count(&wh, &cached), 102);
  ASSERT_TRUE(cached);
  MustRun(&wh, "VACUUM t");
  EXPECT_EQ(Count(&wh, &cached), 102) << "VACUUM preserves rows";
  EXPECT_FALSE(cached) << "but still invalidates (blocks were rewritten)";
}

TEST_F(CacheInvalidationTest, DropAndRecreateNeverServesTheOldTable) {
  Warehouse wh(CachedOptions());
  MustRun(&wh, "CREATE TABLE t (k BIGINT, v BIGINT)");
  MustRun(&wh, "INSERT INTO t VALUES (1, 10), (2, 20)");
  bool cached = false;
  EXPECT_EQ(Count(&wh, &cached), 2);
  EXPECT_EQ(Count(&wh, &cached), 2);
  ASSERT_TRUE(cached);

  MustRun(&wh, "DROP TABLE t");
  EXPECT_FALSE(wh.Execute(kCount).ok()) << "no ghost answers for a dropped "
                                           "table";
  MustRun(&wh, "CREATE TABLE t (k BIGINT, v BIGINT)");
  MustRun(&wh, "INSERT INTO t VALUES (9, 90)");
  EXPECT_EQ(Count(&wh, &cached), 1) << "the new t, not the cached old t";
  EXPECT_FALSE(cached);

  // Empty heads are stamped too: a cached SELECT * over an empty t
  // must not answer for a re-created, still empty t with other columns.
  MustRun(&wh, "DROP TABLE t");
  MustRun(&wh, "CREATE TABLE t (k BIGINT, v BIGINT)");
  StatementResult empty = MustRun(&wh, "SELECT * FROM t");
  EXPECT_EQ(empty.rows.num_rows(), 0u);
  EXPECT_EQ(empty.column_names, (std::vector<std::string>{"k", "v"}));
  MustRun(&wh, "DROP TABLE t");
  MustRun(&wh, "CREATE TABLE t (a BIGINT, b BIGINT, c BIGINT)");
  StatementResult recreated = MustRun(&wh, "SELECT * FROM t");
  EXPECT_FALSE(recreated.from_result_cache);
  EXPECT_EQ(recreated.column_names,
            (std::vector<std::string>{"a", "b", "c"}));
}

TEST_F(CacheInvalidationTest, RollbackInvalidatesInTransactionReads) {
  Warehouse wh(CachedOptions());
  MustRun(&wh, "CREATE TABLE t (k BIGINT, v BIGINT)");
  MustRun(&wh, "INSERT INTO t VALUES (1, 10)");
  bool cached = false;
  EXPECT_EQ(Count(&wh, &cached), 1);

  MustRun(&wh, "BEGIN");
  MustRun(&wh, "INSERT INTO t VALUES (2, 20)");
  EXPECT_EQ(Count(&wh, &cached), 2) << "in-transaction read sees the insert";
  EXPECT_EQ(Count(&wh, &cached), 2);
  ASSERT_TRUE(cached) << "in-transaction repeats may cache";
  MustRun(&wh, "ROLLBACK");
  EXPECT_EQ(Count(&wh, &cached), 1)
      << "the rolled-back insert must not be served from cache";
  EXPECT_FALSE(cached);
}

TEST_F(CacheInvalidationTest, StreamingRestoreInvalidatesEverything) {
  Warehouse wh(CachedOptions());
  MustRun(&wh, "CREATE TABLE t (k BIGINT, v BIGINT)");
  MustRun(&wh, "INSERT INTO t VALUES (1, 10), (2, 20)");
  auto backup = wh.Backup(/*user_initiated=*/true);
  ASSERT_TRUE(backup.ok()) << backup.status();

  MustRun(&wh, "INSERT INTO t VALUES (3, 30)");
  bool cached = false;
  EXPECT_EQ(Count(&wh, &cached), 3);
  EXPECT_EQ(Count(&wh, &cached), 3);
  ASSERT_TRUE(cached);

  ASSERT_TRUE(wh.RestoreInPlace(backup->snapshot_id).ok());
  EXPECT_EQ(Count(&wh, &cached), 2)
      << "restore rewinds the data; the post-backup count is stale";
  EXPECT_FALSE(cached);
}

// Chaos arm: the COPY aborts mid-load on an S3 outage, before any rows
// landed. It installed nothing, so the cached count is still the truth
// and stays servable; the retried COPY installs and invalidates it.
TEST_F(CacheInvalidationTest, FailedCopyLeavesCacheValid) {
  Warehouse wh(CachedOptions());
  MustRun(&wh, "CREATE TABLE t (k BIGINT, v BIGINT)");
  MustRun(&wh, "INSERT INTO t VALUES (1, 10)");
  bool cached = false;
  EXPECT_EQ(Count(&wh, &cached), 1);
  EXPECT_EQ(Count(&wh, &cached), 1);
  ASSERT_TRUE(cached);

  std::string csv = "2,20\n3,30\n";
  backup::S3Region* region = wh.s3()->region("us-east-1");
  ASSERT_TRUE(
      region->PutObject("bkt/t/part-0", Bytes(csv.begin(), csv.end())).ok());
  region->fault_point()->FailNext(1000);  // outage beyond the retry budget
  auto failed = wh.Execute("COPY t FROM 's3://bkt/t/'");
  ASSERT_FALSE(failed.ok());
  region->fault_point()->Reset();

  EXPECT_EQ(Count(&wh, &cached), 1) << "no rows landed";
  EXPECT_TRUE(cached) << "the aborted COPY installed nothing";

  MustRun(&wh, "COPY t FROM 's3://bkt/t/'");
  EXPECT_EQ(Count(&wh, &cached), 3) << "the retried COPY landed";
  EXPECT_FALSE(cached) << "and its install invalidated the entry";
}

// Chaos arm: a node dies mid-SELECT right after an INSERT invalidated
// the cache. The re-execution masks the failure through replicas and
// must return the fresh rows — never fall back to the stale entry.
TEST_F(CacheInvalidationTest, NodeFailureDuringReexecutionStaysFresh) {
  WarehouseOptions options = CachedOptions();
  options.cluster.replicate = true;
  Warehouse wh(options);
  MustRun(&wh, "CREATE TABLE t (k BIGINT, v BIGINT)");
  std::string insert = "INSERT INTO t VALUES ";
  for (int i = 0; i < 200; ++i) {
    if (i) insert += ", ";
    insert += "(" + std::to_string(i) + ", " + std::to_string(i) + ")";
  }
  MustRun(&wh, insert);
  // COUNT(v) reads v's blocks, so its re-execution meets the fault.
  constexpr const char* kCountV = "SELECT COUNT(v) AS n FROM t";
  EXPECT_EQ(MustRun(&wh, kCountV).rows.columns[0].IntAt(0), 200);
  ASSERT_TRUE(MustRun(&wh, kCountV).from_result_cache);

  MustRun(&wh, "INSERT INTO t VALUES (1000, 1000)");
  chaos::FaultInjector injector(0xC0FFEE);
  chaos::FaultPoint* point = injector.point("node0:read");
  wh.data_plane()->node(0)->store()->set_read_fault(point);
  point->ArmTrigger(1, [&] { wh.data_plane()->FailNode(0); });

  StatementResult masked = MustRun(&wh, kCountV);
  EXPECT_FALSE(masked.from_result_cache);
  ASSERT_EQ(masked.rows.num_rows(), 1u);
  EXPECT_EQ(masked.rows.columns[0].IntAt(0), 201) << "fresh, fault-masked";
  EXPECT_GT(masked.exec_stats.masked_reads, 0u);

  // A bare COUNT(*) reads no block, so it meets no fault at all.
  bool cached = true;
  EXPECT_EQ(Count(&wh, &cached), 201);
  EXPECT_FALSE(cached);
  EXPECT_EQ(MustRun(&wh, kCount).exec_stats.blocks_decoded, 0u);
}

// stv_cache exposes entry liveness: a write moves the key and flips the
// entry to live=0 until the next execution replaces it.
TEST_F(CacheInvalidationTest, StvCacheShowsStaleEntries) {
  Warehouse wh(CachedOptions());
  MustRun(&wh, "CREATE TABLE t (k BIGINT, v BIGINT)");
  MustRun(&wh, "INSERT INTO t VALUES (1, 10)");
  Count(&wh);

  auto live = MustRun(&wh, "SELECT cache, live FROM stv_cache ORDER BY cache");
  ASSERT_EQ(live.rows.num_rows(), 2u) << "one segment + one result entry";
  EXPECT_EQ(live.rows.columns[1].IntAt(0), 1);
  EXPECT_EQ(live.rows.columns[1].IntAt(1), 1);

  MustRun(&wh, "INSERT INTO t VALUES (2, 20)");
  auto stale = MustRun(&wh, "SELECT cache, live FROM stv_cache ORDER BY cache");
  ASSERT_EQ(stale.rows.num_rows(), 2u);
  EXPECT_EQ(stale.rows.columns[1].IntAt(0), 0) << "segment entry now stale";
  EXPECT_EQ(stale.rows.columns[1].IntAt(1), 0) << "result entry now stale";
}

// A write through the direct data-plane API bypasses the front door
// entirely; its installs still draw fresh stamps, so the cached count
// cannot outlive it.
TEST_F(CacheInvalidationTest, DataPlaneInsertInvalidates) {
  Warehouse wh(CachedOptions());
  MustRun(&wh, "CREATE TABLE t (k BIGINT, v BIGINT)");
  MustRun(&wh, "INSERT INTO t VALUES (1, 10), (2, 20)");
  bool cached = false;
  EXPECT_EQ(Count(&wh, &cached), 2);
  EXPECT_EQ(Count(&wh, &cached), 2);
  ASSERT_TRUE(cached);

  std::vector<ColumnVector> row;
  row.emplace_back(TypeId::kInt64);
  row.emplace_back(TypeId::kInt64);
  row[0].AppendInt(3);
  row[1].AppendInt(30);
  ASSERT_TRUE(wh.data_plane()->InsertRows("t", row).ok());
  EXPECT_EQ(Count(&wh, &cached), 3) << "read-your-writes";
  EXPECT_FALSE(cached) << "the direct insert invalidated the entry";
}

// ANALYZE changes no rows, but fresh stats change plans: with no stats
// the 50-row build side is broadcast, and after ANALYZE it is too big
// to broadcast. The cached segment must not outlive the stats.
TEST_F(CacheInvalidationTest, AnalyzeInvalidatesCachedPlans) {
  WarehouseOptions options = CachedOptions();
  options.planner.broadcast_row_threshold = 10;
  Warehouse wh(options);
  MustRun(&wh, "CREATE TABLE f (k BIGINT, v BIGINT)");
  MustRun(&wh, "CREATE TABLE d (id BIGINT, name VARCHAR)");
  MustRun(&wh, "INSERT INTO f VALUES (1, 10), (2, 20), (3, 30)");
  std::string insert = "INSERT INTO d VALUES ";
  for (int i = 0; i < 50; ++i) {
    if (i > 0) insert += ", ";
    insert += "(" + std::to_string(i) + ", 'n" + std::to_string(i) + "')";
  }
  MustRun(&wh, insert);  // INSERT leaves d without stats

  const std::string kJoin =
      "EXPLAIN ANALYZE SELECT name, COUNT(*) AS n FROM f JOIN d "
      "ON f.k = d.id GROUP BY name ORDER BY name";
  const CacheMetrics& segment = wh.segment_cache()->metrics();
  EXPECT_NE(MustRun(&wh, kJoin).message.find("BROADCAST Hash Join"),
            std::string::npos);
  const uint64_t hits = segment.hits->value();
  EXPECT_NE(MustRun(&wh, kJoin).message.find("BROADCAST Hash Join"),
            std::string::npos);
  EXPECT_EQ(segment.hits->value(), hits + 1) << "served from the cache";

  MustRun(&wh, "ANALYZE d");
  const std::string analyzed = MustRun(&wh, kJoin).message;
  EXPECT_NE(analyzed.find("SHUFFLE Hash Join"), std::string::npos)
      << analyzed;
}

// The result-cache-repeat-miss alert fires when a repeated statement
// finds its entry invalidated by a write — not on a first run, not on
// a hit.
TEST_F(CacheInvalidationTest, RepeatMissAlertFiresOnWriteInvalidation) {
  Warehouse wh(CachedOptions());
  MustRun(&wh, "CREATE TABLE t (k BIGINT, v BIGINT)");
  MustRun(&wh, "INSERT INTO t VALUES (1, 10)");
  auto repeat_misses = [&wh] {
    size_t n = 0;
    for (const auto& e : wh.alerts()->Snapshot()) {
      if (e->rule == "result-cache-repeat-miss") ++n;
    }
    return n;
  };
  bool cached = false;
  Count(&wh, &cached);
  EXPECT_EQ(repeat_misses(), 0u) << "a first run is not a repeat";
  Count(&wh, &cached);
  ASSERT_TRUE(cached);
  EXPECT_EQ(repeat_misses(), 0u) << "a hit is not a miss";

  MustRun(&wh, "INSERT INTO t VALUES (2, 20)");
  EXPECT_EQ(Count(&wh, &cached), 2);
  EXPECT_FALSE(cached);
  EXPECT_EQ(repeat_misses(), 1u) << "the INSERT invalidated a repeat";
}

}  // namespace
}  // namespace sdw::warehouse
