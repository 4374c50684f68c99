// MVCC snapshot reads: SELECTs pin a (table -> chain version) snapshot
// at admission and scan immutable chains while writers install new
// versions off to the side. This suite covers the storage-level
// version machinery (prepare/install/retire/GC), the cluster-level
// pin + deferred-DROP paths, and the warehouse-level races the MVCC
// promotion fixed: stale result-cache entries keyed by pre-admission
// versions, restores missing tables the front door never saw, and
// readers pinned across DROP / VACUUM / ROLLBACK. Runs under the
// TSan/ASan CI legs.

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "storage/block_store.h"
#include "storage/table_shard.h"
#include "warehouse/warehouse.h"

namespace sdw::warehouse {
namespace {

// ---------------------------------------------------------------------------
// Storage level: the versioned chain head
// ---------------------------------------------------------------------------

TableSchema KvSchema() {
  return TableSchema("t", {{"k", TypeId::kInt64}, {"v", TypeId::kInt64}});
}

std::vector<ColumnVector> KvRun(int64_t start, size_t n) {
  ColumnVector k(TypeId::kInt64);
  ColumnVector v(TypeId::kInt64);
  for (size_t i = 0; i < n; ++i) {
    k.AppendInt(start + static_cast<int64_t>(i));
    v.AppendInt(10 * (start + static_cast<int64_t>(i)));
  }
  std::vector<ColumnVector> run;
  run.push_back(std::move(k));
  run.push_back(std::move(v));
  return run;
}

storage::StorageOptions TinyBlocks() {
  storage::StorageOptions opts;
  opts.max_rows_per_block = 16;
  return opts;
}

TEST(MvccStorageTest, SnapshotIsolatedFromLaterAppends) {
  storage::BlockStore store;
  storage::TableShard shard(KvSchema(), TinyBlocks(), &store);
  ASSERT_TRUE(shard.Append(KvRun(0, 40)).ok());
  storage::ShardSnapshot pinned = shard.Snapshot();
  ASSERT_TRUE(shard.Append(KvRun(40, 40)).ok());

  EXPECT_EQ(pinned->row_count, 40u);
  EXPECT_EQ(shard.row_count(), 80u);
  auto old_view = shard.ReadAll(*pinned, {0});
  ASSERT_TRUE(old_view.ok());
  ASSERT_EQ((*old_view)[0].size(), 40u);
  EXPECT_EQ((*old_view)[0].IntAt(39), 39);
  auto head_view = shard.ReadAll({0});
  ASSERT_TRUE(head_view.ok());
  EXPECT_EQ((*head_view)[0].size(), 80u);
  EXPECT_GT(shard.Snapshot()->version, pinned->version);
}

TEST(MvccStorageTest, InstallDetectsConcurrentWriter) {
  storage::BlockStore store;
  storage::TableShard shard(KvSchema(), TinyBlocks(), &store);
  ASSERT_TRUE(shard.Append(KvRun(0, 20)).ok());

  storage::ShardSnapshot base = shard.Snapshot();
  auto staged = shard.PrepareAppend(base, KvRun(20, 20));
  ASSERT_TRUE(staged.ok());
  // Another statement wins the race and installs first.
  ASSERT_TRUE(shard.Append(KvRun(100, 20)).ok());
  EXPECT_EQ(shard.Install(base, *staged).code(),
            StatusCode::kFailedPrecondition);
  // Aborting deletes the invisibly prepared blocks again.
  const uint64_t before = store.num_blocks();
  std::vector<storage::BlockId> discarded =
      shard.DiscardPrepared(*base, **staged);
  EXPECT_FALSE(discarded.empty());
  EXPECT_LT(store.num_blocks(), before);
  EXPECT_EQ(shard.row_count(), 40u);
}

TEST(MvccStorageTest, GcSkipsPinnedRetiredVersions) {
  storage::BlockStore store;
  storage::TableShard shard(KvSchema(), TinyBlocks(), &store);
  ASSERT_TRUE(shard.Append(KvRun(0, 40)).ok());
  shard.CollectGarbage(nullptr);  // drain the retired empty v0
  storage::ShardSnapshot pinned = shard.Snapshot();

  // A rewrite (VACUUM-style) replaces every chain; the old version
  // retires but its blocks must outlive the pin.
  auto all = shard.ReadAll(*pinned, {0, 1});
  ASSERT_TRUE(all.ok());
  auto rewritten = shard.PrepareRewrite(pinned, *all);
  ASSERT_TRUE(rewritten.ok());
  ASSERT_TRUE(shard.Install(pinned, *rewritten).ok());

  std::vector<storage::BlockId> reclaimed;
  EXPECT_EQ(shard.CollectGarbage(&reclaimed), 0u) << "pinned -> deferred";
  EXPECT_EQ(shard.retired_versions(), 1u);
  auto still_readable = shard.ReadAll(*pinned, {0});
  ASSERT_TRUE(still_readable.ok());
  EXPECT_EQ((*still_readable)[0].size(), 40u);

  pinned.reset();
  EXPECT_EQ(shard.CollectGarbage(&reclaimed), 1u);
  EXPECT_FALSE(reclaimed.empty());
  EXPECT_EQ(shard.retired_versions(), 0u);
  EXPECT_EQ(shard.row_count(), 40u) << "the live head is untouched";
}

// ---------------------------------------------------------------------------
// Warehouse level: pinned readers vs. the write paths
// ---------------------------------------------------------------------------

WarehouseOptions MvccOptions() {
  WarehouseOptions options;
  options.cluster.num_nodes = 2;
  options.cluster.slices_per_node = 2;
  options.cluster.storage.max_rows_per_block = 32;
  return options;
}

StatementResult MustRun(Warehouse* wh, const std::string& sql) {
  auto r = wh->Execute(sql);
  EXPECT_TRUE(r.ok()) << sql << " -> " << r.status();
  return r.ok() ? std::move(*r) : StatementResult{};
}

int64_t Count(Warehouse* wh, const std::string& table,
              bool* from_cache = nullptr) {
  StatementResult r =
      MustRun(wh, "SELECT COUNT(*) AS n FROM " + table);
  if (from_cache != nullptr) *from_cache = r.from_result_cache;
  if (r.rows.num_rows() != 1) {
    ADD_FAILURE() << "COUNT returned " << r.rows.num_rows() << " rows";
    return -1;
  }
  return r.rows.columns[0].IntAt(0);
}

/// Rows visible through a pinned snapshot, summed across slices.
uint64_t PinnedRows(const cluster::ReadSnapshot& snap,
                    const std::string& table, int total_slices) {
  uint64_t rows = 0;
  for (int s = 0; s < total_slices; ++s) {
    const storage::ShardRef* ref = snap.Find(table, s);
    if (ref != nullptr) rows += ref->version->row_count;
  }
  return rows;
}

TEST(MvccWarehouseTest, DropTableWhileReaderMidScan) {
  Warehouse wh(MvccOptions());
  MustRun(&wh, "CREATE TABLE t (k BIGINT, v BIGINT)");
  MustRun(&wh, "INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)");

  // A reader mid-scan holds the shard refs + versions it pinned at
  // admission...
  cluster::ReadSnapshot pinned;
  ASSERT_TRUE(wh.data_plane()->PinTables({"t"}, &pinned).ok());
  const int slices = wh.data_plane()->total_slices();
  EXPECT_EQ(PinnedRows(pinned, "t", slices), 3u);

  // ... while the table is dropped out from under it.
  MustRun(&wh, "DROP TABLE t");
  EXPECT_FALSE(wh.Execute("SELECT COUNT(*) AS n FROM t").ok());

  // The pinned scan still completes over the parked chains.
  const storage::ShardRef* ref = nullptr;
  for (int s = 0; s < slices && ref == nullptr; ++s) {
    const storage::ShardRef* candidate = pinned.Find("t", s);
    if (candidate != nullptr && candidate->version->row_count > 0) {
      ref = candidate;
    }
  }
  ASSERT_NE(ref, nullptr);
  auto rows = ref->shard->ReadAll(*ref->version, {0, 1});
  ASSERT_TRUE(rows.ok()) << rows.status();
  EXPECT_GT((*rows)[0].size(), 0u);

  // GC refuses the dropped shards while the reader is live...
  cluster::Cluster::GcStats deferred = wh.CollectGarbage();
  EXPECT_EQ(deferred.dropped_shards_reclaimed, 0u);
  EXPECT_GT(deferred.dropped_shards_deferred, 0u);

  // ... and reclaims them (blocks and all) once it drains.
  pinned = cluster::ReadSnapshot{};
  cluster::Cluster::GcStats collected = wh.CollectGarbage();
  EXPECT_GT(collected.dropped_shards_reclaimed, 0u);
  EXPECT_EQ(collected.dropped_shards_deferred, 0u);
}

TEST(MvccWarehouseTest, VacuumDefersReclaimUnderPinnedSnapshot) {
  Warehouse wh(MvccOptions());
  MustRun(&wh, "CREATE TABLE t (k BIGINT, v BIGINT) SORTKEY(k)");
  MustRun(&wh, "INSERT INTO t VALUES (9, 90), (7, 70)");
  MustRun(&wh, "INSERT INTO t VALUES (8, 80), (1, 10)");

  cluster::ReadSnapshot pinned;
  ASSERT_TRUE(wh.data_plane()->PinTables({"t"}, &pinned).ok());

  // VACUUM rewrites every chain; the pre-vacuum version stays readable
  // through the pin and its blocks stay on the device.
  MustRun(&wh, "VACUUM t");
  const int slices = wh.data_plane()->total_slices();
  EXPECT_EQ(PinnedRows(pinned, "t", slices), 4u);
  for (int s = 0; s < slices; ++s) {
    const storage::ShardRef* ref = pinned.Find("t", s);
    ASSERT_NE(ref, nullptr);
    auto rows = ref->shard->ReadAll(*ref->version, {0, 1});
    EXPECT_TRUE(rows.ok()) << rows.status();
  }
  cluster::Cluster::GcStats deferred = wh.CollectGarbage();
  EXPECT_GT(deferred.versions_deferred, 0u);

  pinned = cluster::ReadSnapshot{};
  cluster::Cluster::GcStats collected = wh.CollectGarbage();
  EXPECT_GT(collected.versions_reclaimed, 0u);
  EXPECT_EQ(collected.versions_deferred, 0u);
  EXPECT_EQ(Count(&wh, "t"), 4);
}

TEST(MvccWarehouseTest, RollbackKeepsPinnedMidTransactionReaders) {
  Warehouse wh(MvccOptions());
  MustRun(&wh, "CREATE TABLE t (k BIGINT, v BIGINT)");
  MustRun(&wh, "INSERT INTO t VALUES (1, 10), (2, 20)");
  MustRun(&wh, "BEGIN");
  MustRun(&wh, "INSERT INTO t VALUES (3, 30)");

  cluster::ReadSnapshot pinned;
  ASSERT_TRUE(wh.data_plane()->PinTables({"t"}, &pinned).ok());
  const int slices = wh.data_plane()->total_slices();
  EXPECT_EQ(PinnedRows(pinned, "t", slices), 3u);

  MustRun(&wh, "ROLLBACK");
  EXPECT_EQ(Count(&wh, "t"), 2) << "rollback rewound the head";
  EXPECT_EQ(PinnedRows(pinned, "t", slices), 3u)
      << "the pinned mid-transaction version is immutable";

  pinned = cluster::ReadSnapshot{};
  wh.CollectGarbage();
  EXPECT_EQ(Count(&wh, "t"), 2);
}

// A restore swaps in a catalog whose tables may have never been
// queried or written through this endpoint. An entry cached after one
// restore must still be invalidated by the NEXT whole-plane swap, even
// for such a table.
TEST(MvccWarehouseTest, RestoreInvalidatesTablesTheFrontDoorNeverSaw) {
  Warehouse wh(MvccOptions());
  // Build the table through the direct data-plane API: the catalog
  // knows it, the front door has never seen it (exactly a restored
  // table's situation).
  TableSchema schema("t", {{"k", TypeId::kInt64}, {"v", TypeId::kInt64}});
  ASSERT_TRUE(wh.data_plane()->CreateTable(schema).ok());
  {
    std::vector<ColumnVector> one = KvRun(1, 1);
    ASSERT_TRUE(wh.data_plane()->InsertRows("t", one).ok());
  }
  auto s1 = wh.Backup();
  ASSERT_TRUE(s1.ok());
  {
    std::vector<ColumnVector> two = KvRun(2, 1);
    ASSERT_TRUE(wh.data_plane()->InsertRows("t", two).ok());
  }
  auto s2 = wh.Backup();
  ASSERT_TRUE(s2.ok());

  ASSERT_TRUE(wh.RestoreInPlace(s2->snapshot_id).ok());
  EXPECT_EQ(Count(&wh, "t"), 2);
  // The entry just cached carries the post-restore generation (the
  // first swap moves a fresh warehouse from 0 to 1), so the next swap
  // moves its key whichever tables it read.
  const auto entries = wh.result_cache()->Entries();
  ASSERT_FALSE(entries.empty());
  for (const auto& entry : entries) {
    EXPECT_EQ(entry.key.generation, 1u)
        << "entry cached under the pre-restore generation";
  }
  ASSERT_TRUE(wh.RestoreInPlace(s1->snapshot_id).ok());
  EXPECT_EQ(Count(&wh, "t"), 1) << "second swap must invalidate the entry";
}

// ---------------------------------------------------------------------------
// Concurrency: the races the MVCC promotion fixed
// ---------------------------------------------------------------------------

// A write that commits between a SELECT's admission and its snapshot
// pin must not poison the result cache: the entry is keyed by the
// versions pinned WITH the chains (one coherent triple), so a repeat
// lookup can never serve rows older than its key claims.
TEST(MvccConcurrencyTest, ResultCacheKeyedByPinnedSnapshot) {
  WarehouseOptions options = MvccOptions();
  options.wlm.concurrency_slots = 2;
  Warehouse wh(options);
  MustRun(&wh, "CREATE TABLE t (k BIGINT, v BIGINT)");
  MustRun(&wh, "INSERT INTO t VALUES (0, 0)");

  constexpr int kWrites = 40;
  std::thread writer([&] {
    for (int i = 1; i <= kWrites; ++i) {
      auto r = wh.Execute("INSERT INTO t VALUES (" + std::to_string(i) +
                          ", " + std::to_string(10 * i) + ")");
      ASSERT_TRUE(r.ok()) << r.status();
    }
  });
  std::thread reader([&] {
    int64_t last = 0;
    for (int i = 0; i < kWrites; ++i) {
      auto r = wh.Execute("SELECT COUNT(*) AS n FROM t");
      ASSERT_TRUE(r.ok()) << r.status();
      ASSERT_EQ(r->rows.num_rows(), 1u);
      const int64_t n = r->rows.columns[0].IntAt(0);
      EXPECT_GE(n, last) << "counts move forward";
      EXPECT_LE(n, 1 + kWrites);
      last = n;
    }
  });
  writer.join();
  reader.join();

  // Whatever interleaving happened, a lookup NOW must agree with the
  // data NOW — the stale-cache bug served a mid-race count here.
  auto truth = wh.data_plane()->TotalRows("t");
  ASSERT_TRUE(truth.ok());
  EXPECT_EQ(*truth, 1u + kWrites);
  EXPECT_EQ(Count(&wh, "t"), static_cast<int64_t>(*truth));
  EXPECT_EQ(Count(&wh, "t"), static_cast<int64_t>(*truth));
}

// Readers racing a multi-file COPY observe either the pre-COPY count
// or the post-COPY count — never a file boundary in between: the whole
// statement installs as one version bump.
TEST(MvccConcurrencyTest, CopyIsAtomicUnderConcurrentSelects) {
  WarehouseOptions options = MvccOptions();
  options.wlm.concurrency_slots = 3;
  Warehouse wh(options);
  MustRun(&wh, "CREATE TABLE t (k BIGINT, v BIGINT) SORTKEY(k)");
  MustRun(&wh, "INSERT INTO t VALUES (-1, -1), (-2, -2)");

  constexpr int kFiles = 4;
  constexpr int kRowsPerFile = 96;
  backup::S3Region* region = wh.s3()->region("us-east-1");
  for (int f = 0; f < kFiles; ++f) {
    std::string csv;
    for (int i = 0; i < kRowsPerFile; ++i) {
      const int k = f * kRowsPerFile + i;
      csv += std::to_string(k) + "," + std::to_string(10 * k) + "\n";
    }
    ASSERT_TRUE(region
                    ->PutObject("bkt/t/part-" + std::to_string(f),
                                Bytes(csv.begin(), csv.end()))
                    .ok());
  }

  constexpr int64_t kPre = 2;
  constexpr int64_t kPost = kPre + kFiles * kRowsPerFile;
  std::atomic<bool> copy_done{false};
  std::thread copier([&] {
    auto r = wh.Execute("COPY t FROM 's3://bkt/t/'");
    ASSERT_TRUE(r.ok()) << r.status();
    copy_done.store(true);
  });
  std::set<int64_t> seen;
  while (!copy_done.load()) {
    auto r = wh.Execute("SELECT COUNT(*) AS n FROM t");
    ASSERT_TRUE(r.ok()) << r.status();
    const int64_t n = r->rows.columns[0].IntAt(0);
    EXPECT_TRUE(n == kPre || n == kPost)
        << "partial COPY visible: count " << n;
    seen.insert(n);
  }
  copier.join();
  EXPECT_EQ(Count(&wh, "t"), kPost);
}

}  // namespace
}  // namespace sdw::warehouse
