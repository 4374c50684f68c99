#include <gtest/gtest.h>

#include "backup/backup_manager.h"
#include "backup/manifest.h"
#include "backup/s3sim.h"
#include "cluster/executor.h"
#include "common/logging.h"
#include "common/random.h"
#include "plan/planner.h"

namespace sdw::backup {
namespace {

// ---------------------------------------------------------------------------
// S3 simulator
// ---------------------------------------------------------------------------

TEST(S3SimTest, PutGetListDelete) {
  S3 s3;
  S3Region* r = s3.region("us-east-1");
  ASSERT_TRUE(r->PutObject("a/1", {1}).ok());
  ASSERT_TRUE(r->PutObject("a/2", {2}).ok());
  ASSERT_TRUE(r->PutObject("b/1", {3}).ok());
  auto got = r->GetObject("a/2");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ((*got)[0], 2);
  EXPECT_EQ(r->ListPrefix("a/"),
            (std::vector<std::string>{"a/1", "a/2"}));
  ASSERT_TRUE(r->DeleteObject("a/1").ok());
  EXPECT_FALSE(r->HasObject("a/1"));
  EXPECT_EQ(r->GetObject("a/1").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r->num_objects(), 2u);
}

TEST(S3SimTest, OverwriteAccountsBytes) {
  S3 s3;
  S3Region* r = s3.region("x");
  ASSERT_TRUE(r->PutObject("k", Bytes(100)).ok());
  ASSERT_TRUE(r->PutObject("k", Bytes(40)).ok());
  EXPECT_EQ(r->total_bytes(), 40u);
}

TEST(S3SimTest, UnavailableRegionFailsButKeepsData) {
  S3 s3;
  S3Region* r = s3.region("x");
  ASSERT_TRUE(r->PutObject("k", {9}).ok());
  r->set_available(false);
  EXPECT_EQ(r->GetObject("k").status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(r->PutObject("j", {1}).code(), StatusCode::kUnavailable);
  r->set_available(true);
  EXPECT_TRUE(r->GetObject("k").ok());
}

TEST(S3SimTest, CrossRegionCopy) {
  S3 s3;
  ASSERT_TRUE(s3.region("east")->PutObject("c/1", {1}).ok());
  ASSERT_TRUE(s3.region("east")->PutObject("c/2", {2, 2}).ok());
  auto copied = s3.CopyPrefix("east", "c/", "west");
  ASSERT_TRUE(copied.ok());
  EXPECT_EQ(*copied, 3u);
  EXPECT_TRUE(s3.region("west")->HasObject("c/1"));
  EXPECT_TRUE(s3.region("west")->HasObject("c/2"));
}

// ---------------------------------------------------------------------------
// Manifest serde
// ---------------------------------------------------------------------------

TEST(ManifestTest, DatumRoundTrip) {
  for (const Datum& d :
       {Datum::Null(), Datum::Int64(-42), Datum::Int32(7), Datum::Bool(true),
        Datum::Date(12345), Datum::Double(3.25), Datum::String("hello")}) {
    Bytes out;
    SerializeDatum(d, &out);
    size_t pos = 0;
    auto back = DeserializeDatum(out, &pos);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back->Compare(d), 0);
    EXPECT_EQ(pos, out.size());
  }
}

// ---------------------------------------------------------------------------
// Backup + restore end to end
// ---------------------------------------------------------------------------

cluster::ClusterConfig SmallConfig() {
  cluster::ClusterConfig config;
  config.num_nodes = 2;
  config.slices_per_node = 2;
  config.storage.max_rows_per_block = 128;
  config.storage.block_bytes = 16 * 1024;
  return config;
}

std::unique_ptr<cluster::Cluster> MakeLoadedCluster(size_t rows = 2000) {
  auto c = std::make_unique<cluster::Cluster>(SmallConfig());
  TableSchema schema("events", {{"ts", TypeId::kInt64},
                                {"kind", TypeId::kString},
                                {"value", TypeId::kDouble}});
  SDW_CHECK_OK(schema.SetSortKey(SortStyle::kCompound, {"ts"}));
  SDW_CHECK_OK(c->CreateTable(schema));
  Rng rng(3);
  ColumnVector ts(TypeId::kInt64);
  ColumnVector kind(TypeId::kString);
  ColumnVector value(TypeId::kDouble);
  for (size_t i = 0; i < rows; ++i) {
    ts.AppendInt(static_cast<int64_t>(i));
    kind.AppendString("kind-" + std::to_string(rng.Uniform(5)));
    value.AppendDouble(rng.NextDouble() * 10);
  }
  std::vector<ColumnVector> cols;
  cols.push_back(std::move(ts));
  cols.push_back(std::move(kind));
  cols.push_back(std::move(value));
  SDW_CHECK_OK(c->InsertRows("events", cols));
  SDW_CHECK_OK(c->Analyze("events"));
  return c;
}

/// Runs COUNT(column) over events, or a bare COUNT(*) when `column` is
/// empty (which reads no block).
cluster::QueryResult RunCount(cluster::Cluster* c,
                              const std::string& column = "") {
  plan::LogicalQuery q;
  q.from_table = "events";
  q.select = {{column.empty() ? plan::LogicalAggFn::kCountStar
                              : plan::LogicalAggFn::kCount,
               {"", column},
               "n"}};
  plan::Planner planner(c->catalog());
  auto physical = planner.Plan(q);
  SDW_CHECK(physical.ok());
  cluster::QueryExecutor executor(c);
  auto r = executor.Execute(*physical);
  SDW_CHECK(r.ok()) << r.status();
  return std::move(*r);
}

uint64_t CountEvents(cluster::Cluster* c, const std::string& column = "") {
  return static_cast<uint64_t>(RunCount(c, column).rows.columns[0].IntAt(0));
}

TEST(BackupTest, ManifestRoundTripsThroughWire) {
  auto c = MakeLoadedCluster();
  auto manifest = CaptureManifest(c.get());
  ASSERT_TRUE(manifest.ok());
  manifest->snapshot_id = 7;
  Bytes wire;
  SerializeManifest(*manifest, &wire);
  auto back = DeserializeManifest(wire);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back->snapshot_id, 7u);
  EXPECT_EQ(back->tables.size(), 1u);
  EXPECT_EQ(back->tables[0].schema.name(), "events");
  EXPECT_EQ(back->tables[0].schema.sort_style(), SortStyle::kCompound);
  EXPECT_EQ(back->tables[0].shards.size(), 4u);
  EXPECT_EQ(back->ReferencedBlocks().size(),
            manifest->ReferencedBlocks().size());
  // Zone maps survive the round trip.
  const auto& chain = back->tables[0].shards[0].chains[0];
  ASSERT_FALSE(chain.empty());
  EXPECT_TRUE(chain[0].zone.has_values());
}

TEST(BackupTest, BackupIsIncremental) {
  S3 s3;
  auto c = MakeLoadedCluster();
  BackupManager mgr(&s3, "us-east-1", "cluster-a");
  auto first = mgr.Backup(c.get());
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_GT(first->blocks_uploaded, 0u);
  EXPECT_EQ(first->blocks_skipped, 0u);

  // No new data: second backup uploads nothing.
  auto second = mgr.Backup(c.get());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->blocks_uploaded, 0u);
  EXPECT_EQ(second->blocks_skipped, first->blocks_uploaded);

  // Append new data: only the delta uploads.
  ColumnVector ts(TypeId::kInt64);
  ColumnVector kind(TypeId::kString);
  ColumnVector value(TypeId::kDouble);
  for (int i = 0; i < 100; ++i) {
    ts.AppendInt(100000 + i);
    kind.AppendString("new");
    value.AppendDouble(1.0);
  }
  std::vector<ColumnVector> cols;
  cols.push_back(std::move(ts));
  cols.push_back(std::move(kind));
  cols.push_back(std::move(value));
  ASSERT_TRUE(c->InsertRows("events", cols).ok());
  auto third = mgr.Backup(c.get());
  ASSERT_TRUE(third.ok());
  EXPECT_GT(third->blocks_uploaded, 0u);
  EXPECT_LT(third->blocks_uploaded, first->blocks_uploaded);
}

TEST(BackupTest, StreamingRestoreServesQueriesBeforeBlocksArrive) {
  S3 s3;
  auto c = MakeLoadedCluster();
  const uint64_t expected = CountEvents(c.get());
  BackupManager mgr(&s3, "us-east-1", "cluster-a");
  auto backup = mgr.Backup(c.get());
  ASSERT_TRUE(backup.ok());

  BackupManager::RestoreStats stats;
  auto restored = mgr.StreamingRestore(backup->snapshot_id, &stats);
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_GT(stats.total_blocks, 0u);
  EXPECT_LT(stats.time_to_first_query_seconds, stats.full_restore_seconds);

  // No blocks are local yet.
  uint64_t resident = 0;
  for (int n = 0; n < (*restored)->num_nodes(); ++n) {
    resident += (*restored)->node(n)->store()->num_blocks();
  }
  EXPECT_EQ(resident, 0u);

  // A bare COUNT(*) answers from the restored chain metadata alone.
  cluster::QueryResult bare = RunCount(restored->get());
  EXPECT_EQ(static_cast<uint64_t>(bare.rows.columns[0].IntAt(0)), expected);
  EXPECT_EQ(bare.stats.blocks_decoded, 0u);

  // Queries that read a column work immediately (blocks page-fault from
  // S3).
  EXPECT_EQ(CountEvents(restored->get(), "value"), expected);

  // Faulted blocks are now cached locally.
  uint64_t after = 0;
  for (int n = 0; n < (*restored)->num_nodes(); ++n) {
    after += (*restored)->node(n)->store()->num_blocks();
  }
  EXPECT_GT(after, 0u);

  // Background restore completes the remainder.
  auto fetched = mgr.FinishRestore(restored->get(), backup->snapshot_id);
  ASSERT_TRUE(fetched.ok());
  uint64_t full = 0;
  for (int n = 0; n < (*restored)->num_nodes(); ++n) {
    full += (*restored)->node(n)->store()->num_blocks();
  }
  EXPECT_EQ(full, stats.total_blocks);
}

TEST(BackupTest, RestoredDataMatchesExactly) {
  S3 s3;
  auto c = MakeLoadedCluster(500);
  BackupManager mgr(&s3, "us-east-1", "cluster-a");
  auto backup = mgr.Backup(c.get());
  ASSERT_TRUE(backup.ok());
  auto restored = mgr.StreamingRestore(backup->snapshot_id);
  ASSERT_TRUE(restored.ok());
  for (int s = 0; s < c->total_slices(); ++s) {
    auto src = (*c->shard(s, "events"))->ReadAll({0, 1, 2});
    auto dst = (*(*restored)->shard(s, "events"))->ReadAll({0, 1, 2});
    ASSERT_TRUE(src.ok());
    ASSERT_TRUE(dst.ok());
    ASSERT_EQ((*src)[0].size(), (*dst)[0].size());
    for (size_t i = 0; i < (*src)[0].size(); ++i) {
      EXPECT_EQ((*src)[0].IntAt(i), (*dst)[0].IntAt(i));
      EXPECT_EQ((*src)[1].StringAt(i), (*dst)[1].StringAt(i));
      EXPECT_DOUBLE_EQ((*src)[2].DoubleAt(i), (*dst)[2].DoubleAt(i));
    }
  }
}

TEST(BackupTest, SnapshotAgingKeepsUserBackups) {
  S3 s3;
  auto c = MakeLoadedCluster(200);
  BackupManager mgr(&s3, "us-east-1", "cluster-a");
  ASSERT_TRUE(mgr.Backup(c.get(), /*user_initiated=*/false).ok());
  ASSERT_TRUE(mgr.Backup(c.get(), /*user_initiated=*/true).ok());
  ASSERT_TRUE(mgr.Backup(c.get(), false).ok());
  ASSERT_TRUE(mgr.Backup(c.get(), false).ok());
  EXPECT_EQ(mgr.ListSnapshots().size(), 4u);
  auto removed = mgr.AgeSystemBackups(1);
  ASSERT_TRUE(removed.ok());
  EXPECT_EQ(*removed, 2);  // two old system backups gone
  auto remaining = mgr.ListSnapshots();
  EXPECT_EQ(remaining.size(), 2u);
  // The user backup (id 2) survived.
  EXPECT_NE(std::find(remaining.begin(), remaining.end(), 2u),
            remaining.end());
}

TEST(BackupTest, GarbageCollectionDropsUnreferencedBlocks) {
  S3 s3;
  auto c = MakeLoadedCluster(500);
  BackupManager mgr(&s3, "us-east-1", "cluster-a");
  auto b1 = mgr.Backup(c.get());
  ASSERT_TRUE(b1.ok());
  const uint64_t blocks_before =
      s3.region("us-east-1")->ListPrefix("cluster-a/blocks/").size();
  ASSERT_TRUE(mgr.DeleteSnapshot(b1->snapshot_id).ok());
  auto reclaimed = mgr.CollectGarbage();
  ASSERT_TRUE(reclaimed.ok());
  EXPECT_GT(*reclaimed, 0u);
  EXPECT_EQ(s3.region("us-east-1")->ListPrefix("cluster-a/blocks/").size(),
            0u);
  EXPECT_GT(blocks_before, 0u);
}

TEST(BackupTest, DisasterRecoveryRestoreFromSecondRegion) {
  S3 s3;
  auto c = MakeLoadedCluster(400);
  const uint64_t expected = CountEvents(c.get());
  BackupManager mgr(&s3, "us-east-1", "cluster-a");
  auto backup = mgr.Backup(c.get());
  ASSERT_TRUE(backup.ok());
  // The §3.2 checkbox: replicate backups to a second region.
  auto copied = mgr.ReplicateToRegion("eu-west-1");
  ASSERT_TRUE(copied.ok());
  EXPECT_GT(*copied, 0u);

  // Primary region goes down; restore from the DR region still works.
  s3.region("us-east-1")->set_available(false);
  BackupManager::RestoreStats stats;
  auto restored =
      mgr.StreamingRestoreFromRegion("eu-west-1", backup->snapshot_id, &stats);
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(CountEvents(restored->get()), expected);
}

TEST(BackupTest, S3CopyMasksLocalMediaFailure) {
  // §2.1: "the primary, secondary and Amazon S3 copies of the data
  // block are each available for read, making media failures
  // transparent." Here the local copy dies after a backup; wiring the
  // store's fault handler to the backup bucket keeps queries working.
  S3 s3;
  auto c = MakeLoadedCluster(800);
  const uint64_t expected = CountEvents(c.get());
  BackupManager mgr(&s3, "us-east-1", "cluster-a");
  auto backup = mgr.Backup(c.get());
  ASSERT_TRUE(backup.ok());

  // Media failure: node 0 loses every block.
  cluster::ComputeNode* node = c->node(0);
  for (storage::BlockId id : node->store()->ListIds()) {
    node->store()->DropForTest(id);
  }
  // Without the S3 leg, reads fail (drop the decode cache first: the
  // cache is warm state, not a durability mechanism).
  (*c->shard(0, "events"))->DropDecodeCache();
  (*c->shard(1, "events"))->DropDecodeCache();
  EXPECT_FALSE((*c->shard(0, "events"))->ReadAll({0}).ok());
  // A bare COUNT(*) reads no block, so it still answers.
  cluster::QueryResult bare = RunCount(c.get());
  EXPECT_EQ(static_cast<uint64_t>(bare.rows.columns[0].IntAt(0)), expected);
  EXPECT_EQ(bare.stats.blocks_decoded, 0u);

  // With it, the failure is transparent.
  S3Region* region = s3.region("us-east-1");
  node->store()->set_fault_handler(
      [&mgr, region](storage::BlockId id) -> sdw::Result<Bytes> {
        return region->GetObject(mgr.BlockKey(id));
      });
  EXPECT_EQ(CountEvents(c.get(), "value"), expected);
  EXPECT_GT(node->store()->faults(), 0u);
}

TEST(BackupTest, RestoreFailsCleanlyWhenRegionDown) {
  S3 s3;
  auto c = MakeLoadedCluster(100);
  BackupManager mgr(&s3, "us-east-1", "cluster-a");
  auto backup = mgr.Backup(c.get());
  ASSERT_TRUE(backup.ok());
  s3.region("us-east-1")->set_available(false);
  auto restored = mgr.StreamingRestore(backup->snapshot_id);
  EXPECT_EQ(restored.status().code(), StatusCode::kUnavailable);
}

}  // namespace
}  // namespace sdw::backup
