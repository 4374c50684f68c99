// Serial (pool_size = 0) vs parallel execution must be observationally
// identical: same rows, same blocks_decoded, same network accounting —
// across scan, co-located / broadcast / shuffle joins, and aggregates.
// Also the shuffle-join regression tests: an empty side must produce an
// empty (not crashing) join, and shuffle network accounting must use
// real wire sizes (EstimateBytes), consistent with the broadcast path.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>

#include "cluster/cluster.h"
#include "cluster/executor.h"
#include "common/logging.h"
#include "common/random.h"
#include "load/copy.h"
#include "obs/registry.h"
#include "plan/planner.h"

namespace sdw::cluster {
namespace {

constexpr int kParallelPool = 4;

ClusterConfig Config(int nodes = 2, int slices = 2) {
  ClusterConfig config;
  config.num_nodes = nodes;
  config.slices_per_node = slices;
  config.storage.max_rows_per_block = 256;
  config.storage.block_bytes = 64 * 1024;
  return config;
}

/// fact(k, v, tag) / dim(id, grp, name): tag/name are varchar so the
/// network-accounting tests can observe string wire sizes.
void CreateTables(Cluster* cluster, DistStyle fact_style, DistStyle dim_style) {
  TableSchema fact("fact", {{"k", TypeId::kInt64},
                            {"v", TypeId::kInt64},
                            {"tag", TypeId::kString}});
  if (fact_style == DistStyle::kKey) {
    SDW_CHECK_OK(fact.SetDistKey("k"));
  } else {
    fact.SetDistStyle(fact_style);
  }
  SDW_CHECK_OK(cluster->CreateTable(fact));

  TableSchema dim("dim", {{"id", TypeId::kInt64},
                          {"grp", TypeId::kInt64},
                          {"name", TypeId::kString}});
  if (dim_style == DistStyle::kKey) {
    SDW_CHECK_OK(dim.SetDistKey("id"));
  } else {
    dim.SetDistStyle(dim_style);
  }
  SDW_CHECK_OK(cluster->CreateTable(dim));
}

void LoadData(Cluster* cluster, size_t fact_rows, size_t dim_rows) {
  Rng rng(7);
  if (fact_rows > 0) {
    ColumnVector k(TypeId::kInt64), v(TypeId::kInt64), tag(TypeId::kString);
    for (size_t i = 0; i < fact_rows; ++i) {
      k.AppendInt(rng.UniformRange(0, static_cast<int>(dim_rows ? dim_rows : 64) - 1));
      v.AppendInt(rng.UniformRange(0, 999));
      tag.AppendString("tag-" + std::string(60, 'x') +
                       std::to_string(rng.UniformRange(0, 9)));
    }
    std::vector<ColumnVector> cols;
    cols.push_back(std::move(k));
    cols.push_back(std::move(v));
    cols.push_back(std::move(tag));
    SDW_CHECK_OK(cluster->InsertRows("fact", cols));
    SDW_CHECK_OK(cluster->Analyze("fact"));
  }
  if (dim_rows > 0) {
    ColumnVector id(TypeId::kInt64), grp(TypeId::kInt64),
        name(TypeId::kString);
    for (size_t i = 0; i < dim_rows; ++i) {
      id.AppendInt(static_cast<int64_t>(i));
      grp.AppendInt(static_cast<int64_t>(i % 13));
      name.AppendString("name-" + std::string(200, 'y') + std::to_string(i));
    }
    std::vector<ColumnVector> cols;
    cols.push_back(std::move(id));
    cols.push_back(std::move(grp));
    cols.push_back(std::move(name));
    SDW_CHECK_OK(cluster->InsertRows("dim", cols));
    SDW_CHECK_OK(cluster->Analyze("dim"));
  }
}

/// All rows of a batch, sorted lexicographically so comparisons do not
/// depend on slice interleaving (the leader sort a client would add).
std::vector<Row> CanonicalRows(const exec::Batch& batch) {
  std::vector<Row> rows;
  rows.reserve(batch.num_rows());
  for (size_t i = 0; i < batch.num_rows(); ++i) rows.push_back(batch.RowAt(i));
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    for (size_t c = 0; c < a.size(); ++c) {
      const int cmp = a[c].Compare(b[c]);
      if (cmp != 0) return cmp < 0;
    }
    return false;
  });
  return rows;
}

void ExpectSameRows(const exec::Batch& a, const exec::Batch& b) {
  ASSERT_EQ(a.num_columns(), b.num_columns());
  ASSERT_EQ(a.num_rows(), b.num_rows());
  const std::vector<Row> ra = CanonicalRows(a);
  const std::vector<Row> rb = CanonicalRows(b);
  for (size_t i = 0; i < ra.size(); ++i) {
    for (size_t c = 0; c < ra[i].size(); ++c) {
      EXPECT_EQ(ra[i][c].Compare(rb[i][c]), 0)
          << "row " << i << " column " << c << " differs";
    }
  }
}

/// Runs `logical` serially then in parallel on the same cluster and
/// asserts identical rows, blocks_decoded and network accounting.
void CheckDeterminism(Cluster* cluster, const plan::LogicalQuery& logical,
                      plan::PlannerOptions planner_options = {}) {
  plan::Planner planner(cluster->catalog(), planner_options);
  auto physical = planner.Plan(logical);
  ASSERT_TRUE(physical.ok()) << physical.status();

  ExecOptions serial_opts;
  serial_opts.pool_size = 0;
  QueryExecutor serial(cluster, serial_opts);
  auto serial_result = serial.Execute(*physical);
  ASSERT_TRUE(serial_result.ok()) << serial_result.status();

  ExecOptions parallel_opts;
  parallel_opts.pool_size = kParallelPool;
  QueryExecutor parallel(cluster, parallel_opts);
  auto parallel_result = parallel.Execute(*physical);
  ASSERT_TRUE(parallel_result.ok()) << parallel_result.status();

  ExpectSameRows(serial_result->rows, parallel_result->rows);
  EXPECT_EQ(serial_result->stats.blocks_decoded,
            parallel_result->stats.blocks_decoded);
  EXPECT_EQ(serial_result->stats.network_bytes,
            parallel_result->stats.network_bytes);
}

TEST(ParallelExecTest, ScanOnlyDeterministic) {
  Cluster cluster(Config());
  CreateTables(&cluster, DistStyle::kEven, DistStyle::kEven);
  LoadData(&cluster, 4000, 200);
  plan::LogicalQuery q;
  q.from_table = "fact";
  q.where = {{{"", "v"}, plan::LogicalCmp::kLt, Datum::Int64(500)}};
  q.select = {{plan::LogicalAggFn::kNone, {"", "k"}, ""},
              {plan::LogicalAggFn::kNone, {"", "v"}, ""},
              {plan::LogicalAggFn::kNone, {"", "tag"}, ""}};
  CheckDeterminism(&cluster, q);
}

TEST(ParallelExecTest, AggregateDeterministic) {
  Cluster cluster(Config());
  CreateTables(&cluster, DistStyle::kEven, DistStyle::kEven);
  LoadData(&cluster, 4000, 200);
  plan::LogicalQuery q;
  q.from_table = "fact";
  q.select = {{plan::LogicalAggFn::kNone, {"", "k"}, ""},
              {plan::LogicalAggFn::kCountStar, {}, "n"},
              {plan::LogicalAggFn::kSum, {"", "v"}, "s"},
              {plan::LogicalAggFn::kMin, {"", "v"}, "lo"},
              {plan::LogicalAggFn::kMax, {"", "v"}, "hi"}};
  q.group_by = {{"", "k"}};
  CheckDeterminism(&cluster, q);
}

plan::LogicalQuery JoinQuery() {
  plan::LogicalQuery q;
  q.from_table = "fact";
  q.join_table = "dim";
  q.join_left = {"fact", "k"};
  q.join_right = {"dim", "id"};
  q.select = {{plan::LogicalAggFn::kNone, {"dim", "grp"}, ""},
              {plan::LogicalAggFn::kCountStar, {}, "n"},
              {plan::LogicalAggFn::kSum, {"fact", "v"}, "s"}};
  q.group_by = {{"dim", "grp"}};
  return q;
}

TEST(ParallelExecTest, CoLocatedJoinDeterministic) {
  Cluster cluster(Config());
  CreateTables(&cluster, DistStyle::kKey, DistStyle::kKey);
  LoadData(&cluster, 4000, 200);
  CheckDeterminism(&cluster, JoinQuery());
}

TEST(ParallelExecTest, BroadcastJoinDeterministic) {
  Cluster cluster(Config());
  CreateTables(&cluster, DistStyle::kEven, DistStyle::kEven);
  LoadData(&cluster, 4000, 200);
  CheckDeterminism(&cluster, JoinQuery());  // dim is small -> broadcast
}

TEST(ParallelExecTest, ShuffleJoinDeterministic) {
  Cluster cluster(Config());
  CreateTables(&cluster, DistStyle::kEven, DistStyle::kEven);
  LoadData(&cluster, 4000, 200);
  CheckDeterminism(&cluster, JoinQuery(),
                   {.broadcast_row_threshold = 1});  // force shuffle
}

TEST(ParallelExecTest, InterpretedModeDeterministic) {
  Cluster cluster(Config());
  CreateTables(&cluster, DistStyle::kEven, DistStyle::kEven);
  LoadData(&cluster, 4000, 200);
  plan::LogicalQuery q;
  q.from_table = "fact";
  q.where = {{{"", "v"}, plan::LogicalCmp::kGe, Datum::Int64(100)}};
  q.select = {{plan::LogicalAggFn::kNone, {"", "k"}, ""},
              {plan::LogicalAggFn::kCountStar, {}, "n"}};
  q.group_by = {{"", "k"}};
  plan::Planner planner(cluster.catalog());
  auto physical = planner.Plan(q);
  ASSERT_TRUE(physical.ok());

  ExecOptions serial{ExecutionMode::kInterpreted, 0.0, 0};
  auto serial_result = QueryExecutor(&cluster, serial).Execute(*physical);
  ASSERT_TRUE(serial_result.ok());
  ExecOptions parallel{ExecutionMode::kInterpreted, 0.0, kParallelPool};
  auto parallel_result = QueryExecutor(&cluster, parallel).Execute(*physical);
  ASSERT_TRUE(parallel_result.ok());
  ExpectSameRows(serial_result->rows, parallel_result->rows);
  EXPECT_EQ(serial_result->stats.blocks_decoded,
            parallel_result->stats.blocks_decoded);
}

// --- Shuffle-join empty-side regressions (used to crash: per-target
// buckets were only allocated once the first batch arrived). ---

/// fact JOIN dim with an explicitly shuffled strategy, built by hand so
/// the strategy does not depend on stats.
plan::PhysicalQuery ManualShuffleJoin() {
  plan::PhysicalQuery q;
  q.scan.table = "fact";
  q.scan.columns = {0, 1};
  plan::JoinSpec join;
  join.build.table = "dim";
  join.build.columns = {0, 1};
  join.probe_keys = {0};
  join.build_keys = {0};
  join.strategy = plan::JoinStrategy::kShuffle;
  q.join = join;
  q.output_names = {"k", "v", "id", "grp"};
  return q;
}

TEST(ParallelExecTest, ShuffleJoinEmptyBuildSide) {
  for (int pool_size : {0, kParallelPool}) {
    Cluster cluster(Config());
    CreateTables(&cluster, DistStyle::kEven, DistStyle::kEven);
    LoadData(&cluster, 500, /*dim_rows=*/0);  // build side empty
    ExecOptions opts;
    opts.pool_size = pool_size;
    QueryExecutor executor(&cluster, opts);
    auto result = executor.Execute(ManualShuffleJoin());
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(result->rows.num_rows(), 0u);
    EXPECT_EQ(result->rows.num_columns(), 4u);
  }
}

TEST(ParallelExecTest, ShuffleJoinEmptyProbeSide) {
  for (int pool_size : {0, kParallelPool}) {
    Cluster cluster(Config());
    CreateTables(&cluster, DistStyle::kEven, DistStyle::kEven);
    LoadData(&cluster, /*fact_rows=*/0, 300);  // probe side empty
    ExecOptions opts;
    opts.pool_size = pool_size;
    QueryExecutor executor(&cluster, opts);
    auto result = executor.Execute(ManualShuffleJoin());
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(result->rows.num_rows(), 0u);
  }
}

TEST(ParallelExecTest, ShuffleJoinBothSidesEmpty) {
  Cluster cluster(Config());
  CreateTables(&cluster, DistStyle::kEven, DistStyle::kEven);
  QueryExecutor executor(&cluster);
  auto result = executor.Execute(ManualShuffleJoin());
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->rows.num_rows(), 0u);
}

// --- Shuffle network accounting: EstimateBytes-based, consistent with
// the broadcast path. ---

uint64_t SideBytes(Cluster* cluster, const std::string& table,
                   const std::vector<int>& columns) {
  uint64_t total = 0;
  for (int s = 0; s < cluster->total_slices(); ++s) {
    auto shard = cluster->shard(s, table);
    SDW_CHECK(shard.ok());
    auto data = (*shard)->ReadAll(columns);
    SDW_CHECK(data.ok());
    total += EstimateBytes(*data);
  }
  return total;
}

TEST(ParallelExecTest, ShuffleAccountingConsistentWithBroadcast) {
  Cluster cluster(Config(2, 1));
  CreateTables(&cluster, DistStyle::kEven, DistStyle::kEven);
  LoadData(&cluster, 3000, 600);

  // Join without aggregation, selecting every pipeline column in
  // pipeline order (probe then build), so the leader projection is the
  // identity and leader-return bytes are observable from the result.
  plan::LogicalQuery q;
  q.from_table = "fact";
  q.join_table = "dim";
  q.join_left = {"fact", "k"};
  q.join_right = {"dim", "id"};
  q.select = {{plan::LogicalAggFn::kNone, {"fact", "k"}, ""},
              {plan::LogicalAggFn::kNone, {"fact", "v"}, ""},
              {plan::LogicalAggFn::kNone, {"dim", "id"}, ""},
              {plan::LogicalAggFn::kNone, {"dim", "name"}, ""}};

  plan::Planner broadcast_planner(cluster.catalog());
  auto broadcast_plan = broadcast_planner.Plan(q);
  ASSERT_TRUE(broadcast_plan.ok());
  ASSERT_EQ(broadcast_plan->join->strategy,
            plan::JoinStrategy::kBroadcastBuild);
  plan::Planner shuffle_planner(cluster.catalog(),
                                {.broadcast_row_threshold = 1});
  auto shuffle_plan = shuffle_planner.Plan(q);
  ASSERT_TRUE(shuffle_plan.ok());
  ASSERT_EQ(shuffle_plan->join->strategy, plan::JoinStrategy::kShuffle);

  QueryExecutor executor(&cluster);
  auto broadcast_result = executor.Execute(*broadcast_plan);
  ASSERT_TRUE(broadcast_result.ok());
  auto shuffle_result = executor.Execute(*shuffle_plan);
  ASSERT_TRUE(shuffle_result.ok());

  // Both strategies join the same rows, so they return the same bytes
  // to the leader; what differs is the pre-pass movement.
  const uint64_t leader_bytes =
      EstimateBytes(broadcast_result->rows.columns);
  ASSERT_EQ(leader_bytes, EstimateBytes(shuffle_result->rows.columns));

  // Broadcast moves the whole (projected) build side to the other node.
  const uint64_t build_bytes =
      SideBytes(&cluster, "dim", broadcast_plan->join->build.columns);
  const uint64_t probe_bytes =
      SideBytes(&cluster, "fact", broadcast_plan->scan.columns);
  EXPECT_EQ(broadcast_result->stats.network_bytes,
            build_bytes * (cluster.num_nodes() - 1) + leader_bytes);

  // Shuffle moves the cross-node share of both sides, measured with the
  // same EstimateBytes yardstick: strictly more than the old flat
  // 8-bytes-per-column guess could ever charge (the dim rows carry wide
  // varchars), strictly less than shipping both sides entirely.
  const uint64_t moved =
      shuffle_result->stats.network_bytes - leader_bytes;
  const uint64_t total_rows = 3000 + 600;
  EXPECT_GT(moved, total_rows * 8 * 2);  // flat estimate, all rows moved
  EXPECT_LT(moved, probe_bytes + build_bytes);
  EXPECT_GT(moved, (probe_bytes + build_bytes) / 4);  // ~half for 2 nodes
}

// --- COPY: parallel per-file parse loads byte-identical data. ---

TEST(ParallelExecTest, ParallelCopyDeterministic) {
  std::vector<std::string> payloads;
  Rng rng(11);
  for (int f = 0; f < 8; ++f) {
    std::string csv;
    for (int r = 0; r < 200; ++r) {
      csv += std::to_string(rng.UniformRange(0, 99)) + "," +
             std::to_string(rng.UniformRange(0, 999)) + ",tag" +
             std::to_string(rng.UniformRange(0, 9)) + "\n";
    }
    payloads.push_back(std::move(csv));
  }

  auto run = [&](int pool_size) {
    auto cluster = std::make_unique<Cluster>(Config());
    CreateTables(cluster.get(), DistStyle::kEven, DistStyle::kEven);
    load::CopyExecutor copy(cluster.get(), nullptr);
    load::CopyOptions options;
    options.pool_size = pool_size;
    auto stats = copy.CopyFromPayloads("fact", payloads, options);
    SDW_CHECK(stats.ok()) << stats.status();
    EXPECT_EQ(stats->rows_loaded, 8u * 200u);
    return cluster;
  };
  auto serial_cluster = run(0);
  auto parallel_cluster = run(kParallelPool);

  plan::LogicalQuery q;
  q.from_table = "fact";
  q.select = {{plan::LogicalAggFn::kNone, {"", "k"}, ""},
              {plan::LogicalAggFn::kNone, {"", "v"}, ""},
              {plan::LogicalAggFn::kNone, {"", "tag"}, ""}};
  auto run_query = [&](Cluster* cluster) {
    plan::Planner planner(cluster->catalog());
    auto physical = planner.Plan(q);
    SDW_CHECK(physical.ok());
    QueryExecutor executor(cluster);
    auto result = executor.Execute(*physical);
    SDW_CHECK(result.ok());
    return std::move(result->rows);
  };
  exec::Batch serial_rows = run_query(serial_cluster.get());
  exec::Batch parallel_rows = run_query(parallel_cluster.get());
  ExpectSameRows(serial_rows, parallel_rows);
  // Same distribution too, not just the same multiset of rows.
  for (int s = 0; s < serial_cluster->total_slices(); ++s) {
    auto a = serial_cluster->shard(s, "fact");
    auto b = parallel_cluster->shard(s, "fact");
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ((*a)->row_count(), (*b)->row_count()) << "slice " << s;
  }
}

// --- Fault tolerance under the slice pool: masked replica reads and
// retried S3 fetches must stay deterministic when slices race. ---

TEST(ParallelExecTest, ReplicatedClusterWithFailedNodeDeterministic) {
  ClusterConfig config = Config(4, 2);
  config.replicate = true;
  Cluster cluster(config);
  CreateTables(&cluster, DistStyle::kKey, DistStyle::kKey);
  LoadData(&cluster, 4000, 200);
  ASSERT_NE(cluster.replication(), nullptr);

  obs::Counter* masked =
      obs::Registry::Global().counter("sdw_cluster_masked_reads");
  const uint64_t masked_before = masked->value();
  cluster.FailNode(1);
  CheckDeterminism(&cluster, JoinQuery());
  EXPECT_GT(masked->value() - masked_before, 0u)
      << "the serial arm reads through replica masking";

  // The pool's concurrent faults of one block share a single fetch, so
  // the per-store fault counters equal the block population, not the
  // (racy) reader count.
  Cluster fresh(config);
  CreateTables(&fresh, DistStyle::kKey, DistStyle::kKey);
  LoadData(&fresh, 4000, 200);
  const uint64_t node1_blocks = fresh.node(1)->store()->num_blocks();
  fresh.FailNode(1);
  ExecOptions parallel_opts;
  parallel_opts.pool_size = kParallelPool;
  plan::Planner planner(fresh.catalog());
  auto physical = planner.Plan(JoinQuery());
  ASSERT_TRUE(physical.ok());
  auto result = QueryExecutor(&fresh, parallel_opts).Execute(*physical);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_LE(fresh.node(1)->store()->faults(), node1_blocks);
  EXPECT_GT(result->stats.masked_reads, 0u);
}

TEST(ParallelExecTest, ParallelCopyWithTransientS3FaultsDeterministic) {
  backup::S3 s3;
  backup::S3Region* region = s3.region("us-east-1");
  Rng rng(13);
  for (int f = 0; f < 6; ++f) {
    std::string csv;
    for (int r = 0; r < 150; ++r) {
      csv += std::to_string(rng.UniformRange(0, 99)) + "," +
             std::to_string(rng.UniformRange(0, 999)) + ",t" +
             std::to_string(rng.UniformRange(0, 9)) + "\n";
    }
    SDW_CHECK_OK(region->PutObject("bkt/in/part-" + std::to_string(f),
                                   Bytes(csv.begin(), csv.end())));
  }

  auto run = [&](int pool_size) {
    auto cluster = std::make_unique<Cluster>(Config());
    CreateTables(cluster.get(), DistStyle::kEven, DistStyle::kEven);
    // Same scripted outage for both arms: the first fetches hit a
    // 2-call S3 blip that bounded retry absorbs.
    region->fault_point()->FailNext(2);
    load::CopyExecutor copy(cluster.get(), &s3);
    load::CopyOptions options;
    options.pool_size = pool_size;
    auto stats = copy.CopyFromUri("fact", "s3://bkt/in/", options);
    SDW_CHECK(stats.ok()) << stats.status();
    EXPECT_EQ(stats->rows_loaded, 6u * 150u);
    EXPECT_EQ(stats->s3_retry_attempts, 2);
    return cluster;
  };
  auto serial_cluster = run(0);
  auto parallel_cluster = run(kParallelPool);

  plan::LogicalQuery q;
  q.from_table = "fact";
  q.select = {{plan::LogicalAggFn::kNone, {"", "k"}, ""},
              {plan::LogicalAggFn::kNone, {"", "v"}, ""},
              {plan::LogicalAggFn::kNone, {"", "tag"}, ""}};
  auto rows_of = [&](Cluster* cluster) {
    plan::Planner planner(cluster->catalog());
    auto physical = planner.Plan(q);
    SDW_CHECK(physical.ok());
    auto result = QueryExecutor(cluster).Execute(*physical);
    SDW_CHECK(result.ok());
    return std::move(result->rows);
  };
  exec::Batch serial_rows = rows_of(serial_cluster.get());
  exec::Batch parallel_rows = rows_of(parallel_cluster.get());
  ExpectSameRows(serial_rows, parallel_rows);
}

}  // namespace
}  // namespace sdw::cluster
