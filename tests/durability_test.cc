// Durable commits: the S3-backed commit log, crash-point injection and
// replay recovery. The core proof is differential: crash the warehouse
// at every instrumented site of every statement of a mixed script,
// restart it as a fresh Warehouse over the surviving object store,
// Recover(), and require byte-identical state against a twin that
// never crashed — acknowledged commits are never lost, unacknowledged
// ones are atomically absent. Also covers the commit-log wire format,
// torn-tail truncation, snapshot+tail recovery chains, transaction
// durability, the BackupManager crash-safety satellites (snapshot-id
// derivation, recovery-base delete/age guards) and the self-triggering
// GC sweep. Runs under the TSan/ASan/UBSan CI legs.

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "backup/backup_manager.h"
#include "backup/s3sim.h"
#include "common/logging.h"
#include "durability/commit_log.h"
#include "warehouse/warehouse.h"

namespace sdw::warehouse {
namespace {

WarehouseOptions SmallOptions(backup::S3* shared) {
  WarehouseOptions options;
  options.cluster.num_nodes = 2;
  options.cluster.slices_per_node = 2;
  options.cluster.storage.max_rows_per_block = 32;
  options.shared_s3 = shared;
  return options;
}

std::unique_ptr<Warehouse> MakeWarehouse(backup::S3* shared) {
  return std::make_unique<Warehouse>(SmallOptions(shared));
}

/// COPY sources live in the same (surviving) object store, so replay
/// can re-fetch them. The twin gets an identical seed in its own store.
void SeedSources(backup::S3* s3) {
  std::string csv;
  for (int i = 100; i < 140; ++i) {
    csv += std::to_string(i) + "," + std::to_string(i * 10) + "\n";
  }
  SDW_CHECK_OK(s3->region("us-east-1")
                   ->PutObject("src/t/part-0", Bytes(csv.begin(), csv.end())));
}

/// A mixed mutation script: DDL, INSERT, COPY, VACUUM, ANALYZE, DROP —
/// every logged statement kind, on EVEN-placed tables so round-robin
/// cursor determinism is exercised too.
std::vector<std::string> Script() {
  return {
      "CREATE TABLE t (k BIGINT, v BIGINT)",
      "INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)",
      "COPY t FROM 's3://src/t/' FORMAT CSV",
      "INSERT INTO t VALUES (4, 40), (5, 50)",
      "VACUUM t",
      "CREATE TABLE u (a BIGINT, b VARCHAR)",
      "INSERT INTO u VALUES (7, 'x'), (8, 'y')",
      "DROP TABLE u",
      "ANALYZE t",
      "INSERT INTO t VALUES (6, 60)",
  };
}

void MustRun(Warehouse* wh, const std::string& sql) {
  auto r = wh->Execute(sql);
  ASSERT_TRUE(r.ok()) << sql << " -> " << r.status();
}

/// Full observable state, rendered to a comparable string: catalog,
/// per-slice physical row placement (catches round-robin divergence
/// that no ORDER BY query would), and query results per table.
std::string Dump(Warehouse* wh) {
  std::string out;
  std::vector<std::string> tables = wh->data_plane()->catalog()->TableNames();
  std::sort(tables.begin(), tables.end());
  const int slices =
      wh->data_plane()->num_nodes() * 2;  // slices_per_node in SmallOptions
  for (const std::string& name : tables) {
    out += "== " + name + " ==\n";
    for (int s = 0; s < slices; ++s) {
      auto shard = wh->data_plane()->shard_ref(s, name);
      if (!shard.ok()) continue;
      out += "slice " + std::to_string(s) + ": " +
             std::to_string((*shard)->Snapshot()->row_count) + "\n";
    }
  }
  for (const std::string& name : tables) {
    const std::string sql =
        name == "t"
            ? "SELECT k, COUNT(*) AS n, SUM(v) AS s FROM t GROUP BY k "
              "ORDER BY k"
            : "SELECT a, COUNT(*) AS n FROM " + name + " GROUP BY a ORDER BY a";
    auto r = wh->Execute(sql);
    out += r.ok() ? r->ToTable(1000) : r.status().ToString();
  }
  return out;
}

bool SiteDurable(const std::string& site) {
  // The log append is the durability point: sites at or before it lose
  // the statement, sites after it keep it.
  return site == durability::kCrashPostLogPreInstall ||
         site == durability::kCrashMidInstall ||
         site == durability::kCrashPreAck;
}

// ---------------------------------------------------------------------------
// The tentpole proof: crash at every site of every statement
// ---------------------------------------------------------------------------

TEST(DurabilityCrashSweep, EverySiteEveryStatementRecoversExactly) {
  const std::vector<std::string> script = Script();
  for (const char* site : durability::kAllCrashSites) {
    for (size_t k = 0; k < script.size(); ++k) {
      SCOPED_TRACE(std::string(site) + " at statement " + std::to_string(k));
      backup::S3 shared;
      SeedSources(&shared);
      std::unique_ptr<Warehouse> victim = MakeWarehouse(&shared);
      for (size_t i = 0; i < k; ++i) MustRun(victim.get(), script[i]);

      victim->crash_points()->ArmCrash(site);
      Result<StatementResult> last = victim->Execute(script[k]);
      if (!victim->crashed()) {
        // The site is not on this statement's path (e.g. mid-install
        // on a DDL that installs nothing) — the arm must be harmless.
        EXPECT_TRUE(last.ok()) << last.status();
        continue;
      }
      // The crash surfaced as an aborted statement and the process is
      // down: nothing gets in or out until recovery.
      EXPECT_EQ(last.status().code(), StatusCode::kAborted) << last.status();
      EXPECT_EQ(victim->Execute("SELECT COUNT(*) AS n FROM t").status().code(),
                StatusCode::kAborted);

      // Restart: a fresh process over the surviving object store.
      std::unique_ptr<Warehouse> reborn = MakeWarehouse(&shared);
      auto recovered = reborn->Recover();
      ASSERT_TRUE(recovered.ok()) << recovered.status();

      // The twin never crashed and executed exactly the acknowledged
      // history (statement k only when its log append completed).
      backup::S3 twin_s3;
      SeedSources(&twin_s3);
      std::unique_ptr<Warehouse> twin = MakeWarehouse(&twin_s3);
      const size_t twin_statements = k + (SiteDurable(site) ? 1 : 0);
      for (size_t i = 0; i < twin_statements; ++i) {
        MustRun(twin.get(), script[i]);
      }
      EXPECT_EQ(Dump(reborn.get()), Dump(twin.get()));

      // A torn append leaves a half-written record recovery truncates.
      if (std::string(site) == durability::kCrashTornAppend) {
        EXPECT_NE(recovered->torn_lsn, 0u);
      }
      // The recovered warehouse is live again.
      MustRun(reborn.get(), "CREATE TABLE liveness (x BIGINT)");
      MustRun(reborn.get(), "INSERT INTO liveness VALUES (99)");
    }
  }
}

/// Restarts a warehouse that crashed at `site` as a fresh process over
/// `shared`, recovers it, and requires the state of `twin`, which never
/// crashed and ran exactly the acknowledged history; then checks that
/// the recovered warehouse takes writes again.
void ExpectRecoversLikeTwin(const std::string& site, backup::S3* shared,
                            Warehouse* twin) {
  std::unique_ptr<Warehouse> reborn = MakeWarehouse(shared);
  auto recovered = reborn->Recover();
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ(reborn->data_plane()->num_nodes(), twin->data_plane()->num_nodes());
  EXPECT_EQ(Dump(reborn.get()), Dump(twin));
  if (site == durability::kCrashTornAppend) {
    EXPECT_NE(recovered->torn_lsn, 0u);
  }
  MustRun(reborn.get(), "CREATE TABLE liveness (x BIGINT)");
  MustRun(reborn.get(), "INSERT INTO liveness VALUES (99)");
}

// The other three log record kinds, crashed at every site: a COMMIT
// (kTransaction), a restore in place (kRestore) and a resize (kResize).
// A site the write does not pass (mid-install: none of them swings
// staged heads) must leave the write acknowledged; every other site
// must crash it.
constexpr int kSitesOffTheStagedPath = 1;

TEST(DurabilityCrashSweep, EverySiteOfATransactionCommitRecoversExactly) {
  const std::vector<std::string> prefix = {
      "CREATE TABLE t (k BIGINT, v BIGINT)",
      "INSERT INTO t VALUES (1, 10), (2, 20)",
  };
  const std::vector<std::string> batch = {
      "INSERT INTO t VALUES (3, 30)",
      "COPY t FROM 's3://src/t/' FORMAT CSV",
  };
  int crashes = 0;
  for (const char* site : durability::kAllCrashSites) {
    SCOPED_TRACE(site);
    backup::S3 shared;
    SeedSources(&shared);
    std::unique_ptr<Warehouse> victim = MakeWarehouse(&shared);
    for (const std::string& sql : prefix) MustRun(victim.get(), sql);
    MustRun(victim.get(), "BEGIN");
    for (const std::string& sql : batch) MustRun(victim.get(), sql);
    victim->crash_points()->ArmCrash(site);
    Result<StatementResult> commit = victim->Execute("COMMIT");
    if (!victim->crashed()) {
      EXPECT_TRUE(commit.ok()) << commit.status();
      continue;
    }
    EXPECT_EQ(commit.status().code(), StatusCode::kAborted) << commit.status();
    ++crashes;

    // The batch is durable exactly when COMMIT's append completed; the
    // statements inside it were only buffered until then.
    backup::S3 twin_s3;
    SeedSources(&twin_s3);
    std::unique_ptr<Warehouse> twin = MakeWarehouse(&twin_s3);
    for (const std::string& sql : prefix) MustRun(twin.get(), sql);
    if (SiteDurable(site)) {
      for (const std::string& sql : batch) MustRun(twin.get(), sql);
    }
    ExpectRecoversLikeTwin(site, &shared, twin.get());
  }
  EXPECT_EQ(crashes, static_cast<int>(std::size(durability::kAllCrashSites)) -
                         kSitesOffTheStagedPath);
}

TEST(DurabilityCrashSweep, EverySiteOfARestoreInPlaceRecoversExactly) {
  const std::vector<std::string> script = Script();
  constexpr size_t kSnapshotAfter = 5;
  // Runs the script with a snapshot taken partway through and returns
  // the snapshot's id.
  auto run_with_snapshot = [&](Warehouse* wh) -> uint64_t {
    for (size_t i = 0; i < kSnapshotAfter; ++i) MustRun(wh, script[i]);
    auto snapshot = wh->Backup();
    EXPECT_TRUE(snapshot.ok()) << snapshot.status();
    for (size_t i = kSnapshotAfter; i < script.size(); ++i) {
      MustRun(wh, script[i]);
    }
    return snapshot.ok() ? snapshot->snapshot_id : 0;
  };
  int crashes = 0;
  for (const char* site : durability::kAllCrashSites) {
    SCOPED_TRACE(site);
    backup::S3 shared;
    SeedSources(&shared);
    std::unique_ptr<Warehouse> victim = MakeWarehouse(&shared);
    const uint64_t snapshot_id = run_with_snapshot(victim.get());
    victim->crash_points()->ArmCrash(site);
    Status restored = victim->RestoreInPlace(snapshot_id);
    if (!victim->crashed()) {
      EXPECT_TRUE(restored.ok()) << restored;
      continue;
    }
    EXPECT_EQ(restored.code(), StatusCode::kAborted) << restored;
    ++crashes;

    backup::S3 twin_s3;
    SeedSources(&twin_s3);
    std::unique_ptr<Warehouse> twin = MakeWarehouse(&twin_s3);
    const uint64_t twin_snapshot_id = run_with_snapshot(twin.get());
    ASSERT_EQ(twin_snapshot_id, snapshot_id);
    if (SiteDurable(site)) {
      ASSERT_TRUE(twin->RestoreInPlace(twin_snapshot_id).ok());
    }
    ExpectRecoversLikeTwin(site, &shared, twin.get());
  }
  EXPECT_EQ(crashes, static_cast<int>(std::size(durability::kAllCrashSites)) -
                         kSitesOffTheStagedPath);
}

TEST(DurabilityCrashSweep, EverySiteOfAResizeRecoversExactly) {
  const std::vector<std::string> script = Script();
  int crashes = 0;
  for (const char* site : durability::kAllCrashSites) {
    SCOPED_TRACE(site);
    backup::S3 shared;
    SeedSources(&shared);
    std::unique_ptr<Warehouse> victim = MakeWarehouse(&shared);
    for (const std::string& sql : script) MustRun(victim.get(), sql);
    victim->crash_points()->ArmCrash(site);
    auto resized = victim->Resize(3);
    if (!victim->crashed()) {
      EXPECT_TRUE(resized.ok()) << resized.status();
      continue;
    }
    EXPECT_EQ(resized.status().code(), StatusCode::kAborted)
        << resized.status();
    ++crashes;

    backup::S3 twin_s3;
    SeedSources(&twin_s3);
    std::unique_ptr<Warehouse> twin = MakeWarehouse(&twin_s3);
    for (const std::string& sql : script) MustRun(twin.get(), sql);
    if (SiteDurable(site)) {
      ASSERT_TRUE(twin->Resize(3).ok());
    }
    ExpectRecoversLikeTwin(site, &shared, twin.get());
  }
  EXPECT_EQ(crashes, static_cast<int>(std::size(durability::kAllCrashSites)) -
                         kSitesOffTheStagedPath);
}

// ---------------------------------------------------------------------------
// Commit-log wire format
// ---------------------------------------------------------------------------

TEST(CommitLogWire, RoundTripChecksumAndTornRejection) {
  durability::LogRecord record;
  record.lsn = 7;
  record.kind = durability::LogRecord::Kind::kTransaction;
  record.session_id = 3;
  record.statements = {"INSERT INTO t VALUES (1, 2)", "ANALYZE t"};
  Bytes wire;
  durability::SerializeLogRecord(record, &wire);

  auto back = durability::DeserializeLogRecord(wire);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back->lsn, 7u);
  EXPECT_EQ(back->kind, durability::LogRecord::Kind::kTransaction);
  EXPECT_EQ(back->session_id, 3);
  EXPECT_EQ(back->statements, record.statements);

  Bytes flipped = wire;
  flipped[flipped.size() / 2] ^= 0x01;
  EXPECT_EQ(durability::DeserializeLogRecord(flipped).status().code(),
            StatusCode::kCorruption);

  Bytes torn(wire.begin(), wire.begin() + wire.size() / 2);
  EXPECT_FALSE(durability::DeserializeLogRecord(torn).ok());
}

TEST(CommitLogTest, AppendReadTruncateAndRestartDerivation) {
  backup::S3 s3;
  durability::CommitLog log(&s3, "us-east-1", "c1");
  for (int i = 0; i < 3; ++i) {
    durability::LogRecord r;
    r.statements = {"stmt " + std::to_string(i)};
    auto lsn = log.Append(std::move(r));
    ASSERT_TRUE(lsn.ok()) << lsn.status();
    EXPECT_EQ(*lsn, static_cast<uint64_t>(i + 1));
  }
  auto tail = log.ReadTail(1);
  ASSERT_TRUE(tail.ok());
  ASSERT_EQ(tail->records.size(), 2u);
  EXPECT_EQ(tail->records[0].lsn, 2u);
  EXPECT_EQ(tail->torn_lsn, 0u);

  ASSERT_TRUE(log.TruncateThrough(2).ok());
  auto after = log.ReadTail(0);
  ASSERT_TRUE(after.ok());
  ASSERT_EQ(after->records.size(), 1u);
  EXPECT_EQ(after->records[0].lsn, 3u);

  // A fresh process derives its cursor from the surviving objects —
  // never reusing (and silently overwriting) a live LSN.
  durability::CommitLog reborn(&s3, "us-east-1", "c1");
  auto last = reborn.LastLsn();
  ASSERT_TRUE(last.ok());
  EXPECT_EQ(*last, 3u);
  durability::LogRecord r;
  r.statements = {"stmt 3"};
  auto lsn = reborn.Append(std::move(r));
  ASSERT_TRUE(lsn.ok());
  EXPECT_EQ(*lsn, 4u);

  // Torn-tail truncation frees the slot for the next append.
  ASSERT_TRUE(reborn.TruncateFrom(4).ok());
  durability::LogRecord again;
  again.statements = {"stmt 3 retry"};
  auto reused = reborn.Append(std::move(again));
  ASSERT_TRUE(reused.ok());
  EXPECT_EQ(*reused, 4u);
}

// ---------------------------------------------------------------------------
// Snapshot + log tail recovery chains
// ---------------------------------------------------------------------------

TEST(DurabilityRecovery, SnapshotPlusTailAndLogTruncationOnBackup) {
  backup::S3 shared;
  SeedSources(&shared);
  const std::vector<std::string> script = Script();
  std::unique_ptr<Warehouse> victim = MakeWarehouse(&shared);
  for (size_t i = 0; i < 5; ++i) MustRun(victim.get(), script[i]);

  auto backup = victim->Backup();
  ASSERT_TRUE(backup.ok()) << backup.status();
  // The snapshot absorbed the whole log: everything at or below its
  // watermark is truncated away.
  auto remaining = victim->commit_log()->ReadTail(0);
  ASSERT_TRUE(remaining.ok());
  EXPECT_TRUE(remaining->records.empty());

  for (size_t i = 5; i < script.size(); ++i) MustRun(victim.get(), script[i]);
  victim->crash_points()->ArmCrash(durability::kCrashPreAck);
  EXPECT_EQ(victim->Execute("INSERT INTO t VALUES (11, 110)").status().code(),
            StatusCode::kAborted);

  std::unique_ptr<Warehouse> reborn = MakeWarehouse(&shared);
  auto recovered = reborn->Recover();
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ(recovered->base_snapshot_id, backup->snapshot_id);
  // Only the post-snapshot tail replays: statements 5..9 plus the
  // crashed-but-logged INSERT.
  EXPECT_EQ(recovered->replayed_records, script.size() - 5 + 1);

  backup::S3 twin_s3;
  SeedSources(&twin_s3);
  std::unique_ptr<Warehouse> twin = MakeWarehouse(&twin_s3);
  for (const std::string& sql : script) MustRun(twin.get(), sql);
  MustRun(twin.get(), "INSERT INTO t VALUES (11, 110)");
  EXPECT_EQ(Dump(reborn.get()), Dump(twin.get()));

  // Recovery reported itself into the health-event history
  // (stl_health_events).
  bool saw_recover_event = false;
  for (const auto& event : reborn->event_log()->Snapshot()) {
    if (event->source == "durability" && event->kind == "recover") {
      saw_recover_event = true;
    }
  }
  EXPECT_TRUE(saw_recover_event);
}

TEST(DurabilityRecovery, RecoverIsIdempotent) {
  backup::S3 shared;
  SeedSources(&shared);
  std::unique_ptr<Warehouse> victim = MakeWarehouse(&shared);
  for (const std::string& sql : Script()) MustRun(victim.get(), sql);
  victim->crash_points()->ArmCrash(durability::kCrashMidInstall);
  EXPECT_FALSE(victim->Execute("INSERT INTO t VALUES (12, 120)").ok());

  std::unique_ptr<Warehouse> reborn = MakeWarehouse(&shared);
  auto first = reborn->Recover();
  ASSERT_TRUE(first.ok()) << first.status();
  const std::string state = Dump(reborn.get());
  // A crash during recovery just recovers again: replay is LSN-guarded
  // and lands on the identical state.
  auto second = reborn->Recover();
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(second->replayed_records, first->replayed_records);
  EXPECT_EQ(Dump(reborn.get()), state);
}

// ---------------------------------------------------------------------------
// Transactions
// ---------------------------------------------------------------------------

TEST(DurabilityTxn, CommitIsTheDurabilityPointAndRollbackLeavesNoTrace) {
  backup::S3 shared;
  std::unique_ptr<Warehouse> victim = MakeWarehouse(&shared);
  MustRun(victim.get(), "CREATE TABLE t (k BIGINT, v BIGINT)");
  // Committed transaction: durable as one atomic record.
  MustRun(victim.get(), "BEGIN");
  MustRun(victim.get(), "INSERT INTO t VALUES (1, 10)");
  MustRun(victim.get(), "INSERT INTO t VALUES (2, 20)");
  MustRun(victim.get(), "COMMIT");
  // Rolled-back transaction: nothing may survive, not even placement
  // cursors.
  MustRun(victim.get(), "BEGIN");
  MustRun(victim.get(), "INSERT INTO t VALUES (77, 770)");
  MustRun(victim.get(), "ROLLBACK");
  // Open transaction dies with the process: its statements were only
  // buffered, never logged.
  MustRun(victim.get(), "BEGIN");
  MustRun(victim.get(), "INSERT INTO t VALUES (88, 880)");
  victim->crash_points()->ArmCrash(durability::kCrashPreLog);
  EXPECT_EQ(victim->Execute("INSERT INTO t VALUES (89, 890)").status().code(),
            StatusCode::kAborted);

  std::unique_ptr<Warehouse> reborn = MakeWarehouse(&shared);
  ASSERT_TRUE(reborn->Recover().ok());

  backup::S3 twin_s3;
  std::unique_ptr<Warehouse> twin = MakeWarehouse(&twin_s3);
  MustRun(twin.get(), "CREATE TABLE t (k BIGINT, v BIGINT)");
  MustRun(twin.get(), "INSERT INTO t VALUES (1, 10)");
  MustRun(twin.get(), "INSERT INTO t VALUES (2, 20)");
  EXPECT_EQ(Dump(reborn.get()), Dump(twin.get()));
}

TEST(DurabilityTxn, CrashAfterCommitLogAppendKeepsTheTransaction) {
  backup::S3 shared;
  std::unique_ptr<Warehouse> victim = MakeWarehouse(&shared);
  MustRun(victim.get(), "CREATE TABLE t (k BIGINT, v BIGINT)");
  MustRun(victim.get(), "BEGIN");
  MustRun(victim.get(), "INSERT INTO t VALUES (5, 50)");
  victim->crash_points()->ArmCrash(durability::kCrashPostLogPreInstall);
  EXPECT_EQ(victim->Execute("COMMIT").status().code(), StatusCode::kAborted);

  std::unique_ptr<Warehouse> reborn = MakeWarehouse(&shared);
  ASSERT_TRUE(reborn->Recover().ok());
  auto count = reborn->Execute("SELECT COUNT(*) AS n FROM t");
  ASSERT_TRUE(count.ok()) << count.status();
  EXPECT_EQ(count->rows.columns[0].IntAt(0), 1);
}

TEST(DurabilityTxn, BackupInsideATransactionIsRefused) {
  backup::S3 shared;
  std::unique_ptr<Warehouse> wh = MakeWarehouse(&shared);
  MustRun(wh.get(), "CREATE TABLE t (k BIGINT, v BIGINT)");
  MustRun(wh.get(), "INSERT INTO t VALUES (1, 10)");
  MustRun(wh.get(), "BEGIN");
  MustRun(wh.get(), "INSERT INTO t VALUES (2, 20), (3, 30)");
  // The live heads hold the open transaction's rows, and the log does
  // not: a snapshot now would bring them back after a ROLLBACK.
  EXPECT_EQ(wh->Backup(/*user_initiated=*/true).status().code(),
            StatusCode::kFailedPrecondition);
  MustRun(wh.get(), "ROLLBACK");
  auto live = wh->Execute("SELECT COUNT(*) AS n FROM t");
  ASSERT_TRUE(live.ok()) << live.status();
  EXPECT_EQ(live->rows.columns[0].IntAt(0), 1);

  std::unique_ptr<Warehouse> reborn = MakeWarehouse(&shared);
  ASSERT_TRUE(reborn->Recover().ok());
  auto count = reborn->Execute("SELECT COUNT(*) AS n FROM t");
  ASSERT_TRUE(count.ok()) << count.status();
  EXPECT_EQ(count->rows.columns[0].IntAt(0), 1);
  // Outside the transaction the backup runs.
  EXPECT_TRUE(reborn->Backup(/*user_initiated=*/true).ok());
}

// ---------------------------------------------------------------------------
// Satellite: BackupManager snapshot ids survive restarts
// ---------------------------------------------------------------------------

TEST(BackupManagerRestart, SnapshotIdsDeriveFromSurvivingManifests) {
  backup::S3 shared;
  SeedSources(&shared);
  std::unique_ptr<Warehouse> first = MakeWarehouse(&shared);
  MustRun(first.get(), "CREATE TABLE t (k BIGINT, v BIGINT)");
  MustRun(first.get(), "INSERT INTO t VALUES (1, 10)");
  auto b1 = first->Backup();
  ASSERT_TRUE(b1.ok());
  auto b2 = first->Backup();
  ASSERT_TRUE(b2.ok());
  EXPECT_GT(b2->snapshot_id, b1->snapshot_id);

  // The "restarted process" must not reuse (and overwrite) id 1.
  std::unique_ptr<Warehouse> reborn = MakeWarehouse(&shared);
  ASSERT_TRUE(reborn->Recover().ok());
  auto b3 = reborn->Backup();
  ASSERT_TRUE(b3.ok());
  EXPECT_GT(b3->snapshot_id, b2->snapshot_id);
  EXPECT_EQ(reborn->backups()->ListSnapshots().size(), 3u);
}

// ---------------------------------------------------------------------------
// Satellite: the recovery base is protected from deletion/aging/GC
// ---------------------------------------------------------------------------

TEST(BackupLifecycle, RecoveryBaseRefusesDeletionUntilSuperseded) {
  backup::S3 shared;
  std::unique_ptr<Warehouse> wh = MakeWarehouse(&shared);
  MustRun(wh.get(), "CREATE TABLE t (k BIGINT, v BIGINT)");
  MustRun(wh.get(), "INSERT INTO t VALUES (1, 10)");
  auto b1 = wh->Backup(/*user_initiated=*/true);
  ASSERT_TRUE(b1.ok());
  // b1 is the recovery base: the live log tail replays on top of it.
  EXPECT_EQ(wh->backups()->DeleteSnapshot(b1->snapshot_id).code(),
            StatusCode::kFailedPrecondition);

  MustRun(wh.get(), "INSERT INTO t VALUES (2, 20)");
  auto b2 = wh->Backup(/*user_initiated=*/true);
  ASSERT_TRUE(b2.ok());
  // Superseded: b2 is the base now, so b1 may go.
  EXPECT_TRUE(wh->backups()->DeleteSnapshot(b1->snapshot_id).ok());
  EXPECT_EQ(wh->backups()->DeleteSnapshot(b2->snapshot_id).code(),
            StatusCode::kFailedPrecondition);
}

TEST(BackupLifecycle, AgingAndGcNeverOrphanTheRecoveryChain) {
  backup::S3 shared;
  SeedSources(&shared);
  std::unique_ptr<Warehouse> wh = MakeWarehouse(&shared);
  MustRun(wh.get(), "CREATE TABLE t (k BIGINT, v BIGINT)");
  MustRun(wh.get(), "INSERT INTO t VALUES (1, 10)");
  auto base = wh->Backup();
  ASSERT_TRUE(base.ok());
  MustRun(wh.get(), "INSERT INTO t VALUES (2, 20)");

  // Later system snapshots taken behind the warehouse's back (no
  // watermark, base pointer unmoved) would normally age `base` out.
  ASSERT_TRUE(wh->backups()->Backup(wh->data_plane()).ok());
  ASSERT_TRUE(wh->backups()->Backup(wh->data_plane()).ok());
  auto aged = wh->backups()->AgeSystemBackups(/*keep_latest=*/1);
  ASSERT_TRUE(aged.ok());
  std::vector<uint64_t> left = wh->backups()->ListSnapshots();
  // The base survived aging even though it is not among the newest.
  EXPECT_NE(std::find(left.begin(), left.end(), base->snapshot_id),
            left.end());
  // Backup GC must not reclaim blocks the recovery chain references.
  ASSERT_TRUE(wh->backups()->CollectGarbage().ok());

  wh->crash_points()->ArmCrash(durability::kCrashPreLog);
  EXPECT_FALSE(wh->Execute("INSERT INTO t VALUES (3, 30)").ok());
  std::unique_ptr<Warehouse> reborn = MakeWarehouse(&shared);
  auto recovered = reborn->Recover();
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ(recovered->base_snapshot_id, base->snapshot_id);
  auto count = reborn->Execute("SELECT COUNT(*) AS n FROM t");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count->rows.columns[0].IntAt(0), 2);
}

// ---------------------------------------------------------------------------
// Satellite: self-triggering GC in the health sweep
// ---------------------------------------------------------------------------

TEST(SelfTriggeringGc, SweepCollectsWhenPressureCrossesThreshold) {
  backup::S3 shared;
  WarehouseOptions options = SmallOptions(&shared);
  options.cluster.replicate = true;
  options.health_gc_threshold = 1;
  auto wh = std::make_unique<Warehouse>(options);
  ASSERT_TRUE(wh->Execute("CREATE TABLE t (k BIGINT, v BIGINT)").ok());
  // Each INSERT retires the previous chain version; nothing collects
  // them inline.
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(wh->Execute("INSERT INTO t VALUES (" + std::to_string(i) +
                            ", 1)")
                    .ok());
  }
  EXPECT_GT(wh->data_plane()->PendingGarbage(), 0u);

  // A pinned reader defers reclaim: the sweep triggers GC but the
  // pinned versions stay, and the reader's snapshot remains scannable.
  cluster::ReadSnapshot pinned;
  ASSERT_TRUE(wh->data_plane()->PinTables({"t"}, &pinned).ok());
  ASSERT_TRUE(wh->Execute("INSERT INTO t VALUES (100, 1)").ok());
  auto sweep = wh->RunHealthSweep();
  ASSERT_TRUE(sweep.ok()) << sweep.status();
  EXPECT_TRUE(sweep->gc_triggered);
  EXPECT_GT(wh->data_plane()->PendingGarbage(), 0u);  // pinned ones deferred
  pinned.tables.clear();                              // release the pin

  ASSERT_TRUE(wh->Execute("INSERT INTO t VALUES (101, 1)").ok());
  auto drained = wh->RunHealthSweep();
  ASSERT_TRUE(drained.ok());
  EXPECT_TRUE(drained->gc_triggered);
  EXPECT_EQ(wh->data_plane()->PendingGarbage(), 0u);

  // Threshold 0 disables self-GC entirely.
  WarehouseOptions off = SmallOptions(nullptr);
  off.cluster.replicate = true;
  off.health_gc_threshold = 0;
  auto manual = std::make_unique<Warehouse>(off);
  ASSERT_TRUE(manual->Execute("CREATE TABLE t (k BIGINT)").ok());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(
        manual->Execute("INSERT INTO t VALUES (" + std::to_string(i) + ")")
            .ok());
  }
  auto untouched = manual->RunHealthSweep();
  ASSERT_TRUE(untouched.ok());
  EXPECT_FALSE(untouched->gc_triggered);
  EXPECT_GT(manual->data_plane()->PendingGarbage(), 0u);
}

}  // namespace
}  // namespace sdw::warehouse
