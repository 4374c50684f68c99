// End-to-end fault tolerance: deterministic fault injection (seeded
// rates, scripted outages, mid-query triggers), the replicated read
// path that masks media failures and whole-node loss (§2.1), bounded
// retry against transient S3 unavailability, and the warehouse health
// sweep that restarts flaky nodes locally and escalates dead ones to
// the control plane's replacement workflow (§2.2).

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "common/fault_injector.h"
#include "common/retry.h"
#include "replication/replication.h"
#include "warehouse/warehouse.h"

namespace sdw::warehouse {
namespace {

Bytes MakePayload(const std::string& text) {
  return Bytes(text.begin(), text.end());
}

// --- chaos::FaultPoint scripting modes ---

TEST(FaultPointTest, SeededFailureRateIsDeterministic) {
  auto run = [](uint64_t seed) {
    chaos::FaultPoint point("site", seed);
    point.set_failure_rate(0.3);
    std::vector<bool> injected;
    for (int i = 0; i < 200; ++i) injected.push_back(!point.OnCall().ok());
    return injected;
  };
  const auto a = run(7);
  const auto b = run(7);
  EXPECT_EQ(a, b) << "same seed must inject the same calls";
  EXPECT_NE(a, run(8)) << "different seeds must differ";
  chaos::FaultPoint clean("clean");
  for (int i = 0; i < 50; ++i) EXPECT_TRUE(clean.OnCall().ok());
}

TEST(FaultPointTest, FailNextAndTriggers) {
  chaos::FaultPoint point("site");
  point.FailNext(2, StatusCode::kCorruption);
  EXPECT_EQ(point.OnCall().code(), StatusCode::kCorruption);
  EXPECT_EQ(point.OnCall().code(), StatusCode::kCorruption);
  EXPECT_TRUE(point.OnCall().ok()) << "outage must end after exactly N calls";
  EXPECT_EQ(point.calls(), 3u);
  EXPECT_EQ(point.injected(), 2u);

  int fired_at = -1;
  point.ArmTrigger(5, [&] { fired_at = static_cast<int>(point.calls()); });
  EXPECT_TRUE(point.OnCall().ok());  // call 4
  EXPECT_EQ(fired_at, -1);
  EXPECT_TRUE(point.OnCall().ok());  // call 5: trigger fires, call succeeds
  EXPECT_EQ(fired_at, 5);
}

TEST(FaultPointTest, InjectorSeedsPointsPerSite) {
  chaos::FaultInjector injector(42);
  chaos::FaultPoint* a = injector.point("node0:read");
  EXPECT_EQ(a, injector.point("node0:read")) << "points are singletons";
  EXPECT_NE(a, injector.point("node1:read"));
  EXPECT_EQ(injector.sites(),
            (std::vector<std::string>{"node0:read", "node1:read"}));
}

// --- common::Retry against a scripted S3 outage ---

TEST(RetryTest, RecoversWithinBudgetFailsBeyondIt) {
  backup::S3 s3;
  backup::S3Region* region = s3.region("us-east-1");
  ASSERT_TRUE(region->PutObject("k", MakePayload("v")).ok());

  // Outage shorter than the budget: retried away, backoff accounted.
  region->fault_point()->FailNext(2);
  common::RetryPolicy policy;
  policy.max_attempts = 4;
  common::Retry retry(policy);
  auto got = retry.Call<Bytes>([&] { return region->GetObject("k"); });
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(retry.attempts(), 3);
  EXPECT_GT(retry.backoff_seconds(), 0.0);

  // Outage longer than the budget: clean kUnavailable, bounded attempts.
  region->fault_point()->FailNext(100);
  common::Retry exhausted(policy);
  auto failed = exhausted.Call<Bytes>([&] { return region->GetObject("k"); });
  EXPECT_EQ(failed.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(exhausted.attempts(), policy.max_attempts);
  region->fault_point()->Reset();

  // Non-transient errors are never retried.
  common::Retry not_found(policy);
  auto missing = not_found.Call<Bytes>([&] { return region->GetObject("no"); });
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(not_found.attempts(), 1);
}

// --- replication: degraded writes heal instead of leaking orphans ---

TEST(ReplicationFaultTest, SecondaryPutFailureDegradesThenHeals) {
  storage::BlockStore a, b;
  replication::ReplicationManager repl({&a, &b});

  chaos::FaultPoint write_fault("node1:write");
  b.set_write_fault(&write_fault);
  write_fault.FailNext(1);

  auto id = repl.Write(0, MakePayload("hello blocks"));
  ASSERT_TRUE(id.ok()) << "a failed secondary must degrade, not fail the "
                          "write: " << id.status();
  EXPECT_EQ(repl.degraded_writes(), 1u);
  EXPECT_EQ(b.num_blocks(), 0u) << "no orphaned secondary copy";
  auto placement = repl.GetPlacement(*id);
  ASSERT_TRUE(placement.ok());
  EXPECT_EQ(placement->primary, 0);
  EXPECT_EQ(placement->secondary, -1) << "single-copy placement recorded";
  EXPECT_EQ(repl.CountSingleCopyBlocks(), 1);

  // The device recovered; re-replication restores two-copy redundancy.
  auto healed = repl.ReReplicate();
  ASSERT_TRUE(healed.ok());
  EXPECT_EQ(*healed, 1);
  EXPECT_EQ(repl.ReplicaCount(*id), 2);
  EXPECT_EQ(repl.CountSingleCopyBlocks(), 0);
  ASSERT_TRUE(b.Contains(*id));
  auto copy = b.GetStored(*id);
  ASSERT_TRUE(copy.ok());
  EXPECT_EQ(*copy, MakePayload("hello blocks"));
}

// --- concurrent fault-ins share one fetch (deterministic counters) ---

TEST(ReplicationFaultTest, ConcurrentFaultsOfOneBlockSingleFlight) {
  storage::BlockStore store;
  const storage::BlockId id = storage::BlockStore::Allocate();
  ASSERT_TRUE(store.Put(id, MakePayload("payload")).ok());
  store.DropForTest(id);

  std::atomic<int> handler_calls{0};
  store.set_fault_handler([&](storage::BlockId) -> Result<Bytes> {
    handler_calls.fetch_add(1);
    return MakePayload("payload");
  });

  std::vector<std::thread> threads;
  std::atomic<int> successes{0};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      auto got = store.Get(id);
      if (got.ok() && *got == MakePayload("payload")) successes.fetch_add(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(successes.load(), 4);
  EXPECT_EQ(handler_calls.load(), 1) << "racers must share the leader's fetch";
  EXPECT_EQ(store.faults(), 1u);
  EXPECT_TRUE(store.Contains(id)) << "faulted block is cached back in";
}

// --- warehouse-level chaos ---

WarehouseOptions ReplicatedOptions(int nodes = 4) {
  WarehouseOptions options;
  options.cluster.num_nodes = nodes;
  options.cluster.slices_per_node = 2;
  options.cluster.storage.max_rows_per_block = 64;
  options.cluster.replicate = true;
  // These scenarios repeat one query before/after a fault and assert on
  // its execution stats (masked reads). A result-cache hit would be
  // byte-identical but skip execution entirely — force the re-run.
  options.cache.enable_result_cache = false;
  return options;
}

class FaultWarehouseTest : public ::testing::Test {
 protected:
  StatementResult MustRun(Warehouse* wh, const std::string& sql) {
    auto r = wh->Execute(sql);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status();
    return r.ok() ? std::move(*r) : StatementResult{};
  }

  void LoadFleet(Warehouse* wh, int rows = 600) {
    MustRun(wh, "CREATE TABLE t (k BIGINT, v BIGINT) DISTKEY(k) SORTKEY(v)");
    std::string insert = "INSERT INTO t VALUES ";
    for (int i = 0; i < rows; ++i) {
      if (i) insert += ", ";
      insert += "(" + std::to_string(i % 37) + ", " + std::to_string(i) + ")";
    }
    MustRun(wh, insert);
  }

  static constexpr const char* kQuery =
      "SELECT k, COUNT(*) AS n, SUM(v) AS s FROM t GROUP BY k ORDER BY k";
};

// The acceptance scenario: a seeded injector kills a whole node in the
// middle of a query. The query completes with byte-identical results
// through masked replica reads, and the next health sweep re-replicates
// every under-replicated block and escalates the node to a
// control-plane replacement.
TEST_F(FaultWarehouseTest, NodeDiesMidQueryMaskedThenRecovered) {
  Warehouse wh(ReplicatedOptions(4));
  LoadFleet(&wh);
  const std::string baseline = MustRun(&wh, kQuery).ToTable(100000);

  chaos::FaultInjector injector(0xFEED);
  chaos::FaultPoint* point = injector.point("node0:read");
  wh.data_plane()->node(0)->store()->set_read_fault(point);
  // The first read node 0 serves during the query takes the whole node
  // down: every local block vanishes and the node is marked failed.
  point->ArmTrigger(1, [&] { wh.data_plane()->FailNode(0); });
  // Decoded blocks live across queries; start node 0 cold so the query
  // reads its device and the armed read fires.
  wh.data_plane()->node(0)->DropDecodeCaches();

  StatementResult after = MustRun(&wh, kQuery);
  EXPECT_EQ(after.ToTable(100000), baseline)
      << "masked reads must be invisible to the client";
  EXPECT_GT(after.exec_stats.masked_reads, 0u);
  EXPECT_GT(wh.data_plane()->node_read_failures(0), 0u);

  auto health = wh.RunHealthSweep();
  ASSERT_TRUE(health.ok()) << health.status();
  EXPECT_EQ(health->unhealthy_nodes, 1);
  EXPECT_EQ(health->escalations, 1) << "a dead node goes straight to the "
                                       "control plane";
  EXPECT_EQ(health->restarts, 0);
  EXPECT_GT(health->blocks_rereplicated, 0u);
  EXPECT_EQ(health->single_copy_blocks, 0u);
  EXPECT_EQ(health->lost_blocks, 0u);
  EXPECT_GT(health->control_plane_seconds, 0.0);

  replication::ReplicationManager* repl = wh.data_plane()->replication();
  EXPECT_FALSE(repl->IsNodeFailed(0)) << "replacement rejoined the fleet";
  for (storage::BlockId id : repl->AllBlocks()) {
    EXPECT_EQ(repl->ReplicaCount(id), 2) << "block " << id;
  }
  EXPECT_EQ(MustRun(&wh, kQuery).ToTable(100000), baseline);
}

TEST_F(FaultWarehouseTest, QueryOverFailedNodeIsByteIdentical) {
  Warehouse wh(ReplicatedOptions(4));
  LoadFleet(&wh);
  const std::string baseline = MustRun(&wh, kQuery).ToTable(100000);

  wh.data_plane()->FailNode(2);
  StatementResult masked = MustRun(&wh, kQuery);
  EXPECT_EQ(masked.ToTable(100000), baseline);
  EXPECT_GT(masked.exec_stats.masked_reads, 0u);
  EXPECT_EQ(masked.exec_stats.s3_fault_reads, 0u)
      << "replica masking must come before the S3 page-fault path";
}

// A flaky-but-alive node is a host-manager problem first: restart
// locally, escalate only after the restart budget is spent.
TEST_F(FaultWarehouseTest, FlakyNodeRestartsThenEscalates) {
  WarehouseOptions options = ReplicatedOptions(4);
  options.health_read_failure_threshold = 3;
  options.host_manager.max_restarts = 1;
  Warehouse wh(options);
  LoadFleet(&wh);

  auto provoke_faults = [&] {
    storage::BlockStore* store = wh.data_plane()->node(1)->store();
    for (storage::BlockId id : store->ListIds()) store->DropForTest(id);
    // Media loss alone leaves decoded blocks in memory: start node 1
    // cold so the query reads (and fails on) its device.
    wh.data_plane()->node(1)->DropDecodeCaches();
    MustRun(&wh, kQuery);
    ASSERT_GE(wh.data_plane()->node_read_failures(1), 3u);
  };

  provoke_faults();
  auto first = wh.RunHealthSweep();
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_EQ(first->restarts, 1);
  EXPECT_EQ(first->escalations, 0);
  EXPECT_EQ(wh.data_plane()->node_read_failures(1), 0u)
      << "a restart clears the node's failure counter";

  provoke_faults();
  auto second = wh.RunHealthSweep();
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(second->restarts, 0);
  EXPECT_EQ(second->escalations, 1) << "restart budget spent: escalate";
  EXPECT_EQ(MustRun(&wh, "SELECT COUNT(*) AS n FROM t")
                .rows.columns[0]
                .IntAt(0),
            600);
}

// Two nodes, one dead: no healthy peer to re-replicate to, so the sweep
// reports degraded single-copy mode and the warehouse keeps serving;
// once the replacement rejoins, the next sweep restores two copies.
TEST_F(FaultWarehouseTest, DegradedSingleCopyModeKeepsServing) {
  Warehouse wh(ReplicatedOptions(2));
  LoadFleet(&wh, 300);
  const std::string baseline =
      MustRun(&wh, "SELECT SUM(v) AS s FROM t").ToTable();

  wh.data_plane()->FailNode(1);
  EXPECT_EQ(MustRun(&wh, "SELECT SUM(v) AS s FROM t").ToTable(), baseline);

  auto first = wh.RunHealthSweep();
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_EQ(first->escalations, 1);
  EXPECT_EQ(first->blocks_rereplicated, 0u)
      << "nowhere to copy to while the peer is down";
  EXPECT_GT(first->single_copy_blocks, 0u);
  EXPECT_EQ(first->lost_blocks, 0u);
  EXPECT_EQ(MustRun(&wh, "SELECT SUM(v) AS s FROM t").ToTable(), baseline)
      << "degrade, don't fail";

  auto second = wh.RunHealthSweep();
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_GT(second->blocks_rereplicated, 0u);
  EXPECT_EQ(second->single_copy_blocks, 0u);
  replication::ReplicationManager* repl = wh.data_plane()->replication();
  for (storage::BlockId id : repl->AllBlocks()) {
    EXPECT_EQ(repl->ReplicaCount(id), 2);
  }
}

TEST_F(FaultWarehouseTest, HealthSweepNeedsReplication) {
  WarehouseOptions options;
  options.cluster.num_nodes = 2;
  Warehouse wh(options);
  EXPECT_EQ(wh.RunHealthSweep().status().code(),
            StatusCode::kFailedPrecondition);
}

// --- COPY and Backup survive scripted S3 outages via bounded retry ---

TEST_F(FaultWarehouseTest, CopyRetriesTransientOutageFailsBeyondBudget) {
  Warehouse wh(ReplicatedOptions(2));
  MustRun(&wh, "CREATE TABLE logs (ts BIGINT, msg VARCHAR)");
  std::string csv;
  for (int i = 0; i < 400; ++i) {
    csv += std::to_string(i) + ",m" + std::to_string(i % 9) + "\n";
  }
  backup::S3Region* region = wh.s3()->region("us-east-1");
  ASSERT_TRUE(region->PutObject("bkt/logs/part-0", MakePayload(csv)).ok());

  // Transient: outage shorter than the default 4-attempt budget.
  region->fault_point()->FailNext(2);
  StatementResult loaded = MustRun(&wh, "COPY logs FROM 's3://bkt/logs/'");
  EXPECT_EQ(loaded.copy_stats.rows_loaded, 400u);
  EXPECT_EQ(loaded.copy_stats.s3_retry_attempts, 2);
  EXPECT_GT(loaded.copy_stats.retry_backoff_seconds, 0.0);

  // Hard outage: budget spent, clean kUnavailable to the client.
  region->fault_point()->FailNext(1000);
  auto failed = wh.Execute("COPY logs FROM 's3://bkt/logs/'");
  EXPECT_EQ(failed.status().code(), StatusCode::kUnavailable);
  region->fault_point()->Reset();
}

TEST_F(FaultWarehouseTest, BackupRetriesTransientOutageFailsBeyondBudget) {
  Warehouse wh(ReplicatedOptions(2));
  LoadFleet(&wh, 200);
  backup::S3Region* region = wh.s3()->region("us-east-1");

  region->fault_point()->FailNext(2);
  auto backup = wh.Backup(/*user_initiated=*/true);
  ASSERT_TRUE(backup.ok()) << backup.status();
  EXPECT_EQ(backup->s3_retry_attempts, 2);
  EXPECT_GT(backup->retry_backoff_seconds, 0.0);
  EXPECT_GT(backup->blocks_uploaded, 0u);

  MustRun(&wh, "INSERT INTO t VALUES (1, 10000)");
  region->fault_point()->FailNext(1000);
  EXPECT_EQ(wh.Backup().status().code(), StatusCode::kUnavailable);
  region->fault_point()->Reset();
}

// Streaming restore wires the S3 page-fault path behind replication
// masking: a restored (cold) cluster serves queries by faulting blocks
// in from the object store, counted separately from masked reads.
TEST_F(FaultWarehouseTest, RestoredClusterPageFaultsFromS3) {
  Warehouse wh(ReplicatedOptions(2));
  LoadFleet(&wh, 300);
  const std::string baseline = MustRun(&wh, kQuery).ToTable(100000);
  auto backup = wh.Backup(/*user_initiated=*/true);
  ASSERT_TRUE(backup.ok()) << backup.status();

  ASSERT_TRUE(wh.RestoreInPlace(backup->snapshot_id).ok());
  StatementResult cold = MustRun(&wh, kQuery);
  EXPECT_EQ(cold.ToTable(100000), baseline);
  EXPECT_GT(cold.exec_stats.s3_fault_reads, 0u);
  EXPECT_EQ(wh.data_plane()->node_read_failures(0), 0u)
      << "cold page faults are not a node-health signal";
  EXPECT_EQ(wh.data_plane()->node_read_failures(1), 0u);

  // Once paged in, reads are local again.
  StatementResult warm = MustRun(&wh, kQuery);
  EXPECT_EQ(warm.exec_stats.s3_fault_reads, 0u);
  EXPECT_EQ(warm.ToTable(100000), baseline);
}

// DROP TABLE and VACUUM must reclaim secondary copies too — otherwise
// every rewrite leaks replica blocks on the peers.
TEST_F(FaultWarehouseTest, DropAndVacuumReclaimSecondaryCopies) {
  Warehouse wh(ReplicatedOptions(2));
  LoadFleet(&wh, 300);
  replication::ReplicationManager* repl = wh.data_plane()->replication();
  ASSERT_GT(repl->AllBlocks().size(), 0u);

  MustRun(&wh, "INSERT INTO t VALUES (5, 9999)");  // second sorted run
  const size_t tracked_before = repl->AllBlocks().size();
  MustRun(&wh, "VACUUM t");
  EXPECT_LE(repl->AllBlocks().size(), tracked_before);
  for (storage::BlockId id : repl->AllBlocks()) {
    EXPECT_EQ(repl->ReplicaCount(id), 2) << "vacuumed chains re-replicate";
  }

  MustRun(&wh, "DROP TABLE t");
  EXPECT_EQ(repl->AllBlocks().size(), 0u);
  EXPECT_EQ(wh.data_plane()->node(0)->store()->num_blocks(), 0u);
  EXPECT_EQ(wh.data_plane()->node(1)->store()->num_blocks(), 0u)
      << "secondary copies reclaimed";
}

}  // namespace
}  // namespace sdw::warehouse
