#include <gtest/gtest.h>

#include <numeric>

#include "cluster/cluster.h"
#include "cluster/executor.h"
#include "common/logging.h"
#include "common/random.h"
#include "obs/registry.h"
#include "plan/planner.h"

namespace sdw::cluster {
namespace {

ClusterConfig SmallConfig(int nodes = 2, int slices = 2) {
  ClusterConfig config;
  config.num_nodes = nodes;
  config.slices_per_node = slices;
  config.storage.max_rows_per_block = 256;
  config.storage.block_bytes = 64 * 1024;
  return config;
}

TableSchema FactSchema(DistStyle style) {
  TableSchema s("fact", {{"key", TypeId::kInt64},
                         {"day", TypeId::kInt64},
                         {"value", TypeId::kInt64}});
  if (style == DistStyle::kKey) {
    SDW_CHECK_OK(s.SetDistKey("key"));
  } else {
    s.SetDistStyle(style);
  }
  SDW_CHECK_OK(s.SetSortKey(SortStyle::kCompound, {"day"}));
  return s;
}

std::vector<ColumnVector> FactRows(size_t n, uint64_t seed) {
  Rng rng(seed);
  ColumnVector key(TypeId::kInt64);
  ColumnVector day(TypeId::kInt64);
  ColumnVector value(TypeId::kInt64);
  for (size_t i = 0; i < n; ++i) {
    key.AppendInt(rng.UniformRange(0, 199));
    day.AppendInt(rng.UniformRange(0, 29));
    value.AppendInt(rng.UniformRange(1, 100));
  }
  std::vector<ColumnVector> cols;
  cols.push_back(std::move(key));
  cols.push_back(std::move(day));
  cols.push_back(std::move(value));
  return cols;
}

TEST(ClusterTest, TopologyAndDdl) {
  Cluster cluster(SmallConfig(3, 2));
  EXPECT_EQ(cluster.num_nodes(), 3);
  EXPECT_EQ(cluster.total_slices(), 6);
  ASSERT_TRUE(cluster.CreateTable(FactSchema(DistStyle::kEven)).ok());
  EXPECT_TRUE(cluster.catalog()->HasTable("fact"));
  EXPECT_EQ(cluster.CreateTable(FactSchema(DistStyle::kEven)).code(),
            StatusCode::kAlreadyExists);
  ASSERT_TRUE(cluster.shard(5, "fact").ok());
  EXPECT_FALSE(cluster.shard(6, "fact").ok());
  ASSERT_TRUE(cluster.DropTable("fact").ok());
  EXPECT_FALSE(cluster.shard(0, "fact").ok());
}

TEST(ClusterTest, EvenDistributionBalances) {
  Cluster cluster(SmallConfig(2, 2));
  ASSERT_TRUE(cluster.CreateTable(FactSchema(DistStyle::kEven)).ok());
  ASSERT_TRUE(cluster.InsertRows("fact", FactRows(4000, 1)).ok());
  for (int s = 0; s < 4; ++s) {
    EXPECT_EQ((*cluster.shard(s, "fact"))->row_count(), 1000u);
  }
  EXPECT_EQ(*cluster.TotalRows("fact"), 4000u);
}

TEST(ClusterTest, KeyDistributionCoLocatesEqualKeys) {
  Cluster cluster(SmallConfig(2, 2));
  ASSERT_TRUE(cluster.CreateTable(FactSchema(DistStyle::kKey)).ok());
  ASSERT_TRUE(cluster.InsertRows("fact", FactRows(4000, 1)).ok());
  EXPECT_EQ(*cluster.TotalRows("fact"), 4000u);
  // Every key must live on exactly one slice.
  std::map<int64_t, std::set<int>> key_slices;
  for (int s = 0; s < 4; ++s) {
    auto data = (*cluster.shard(s, "fact"))->ReadAll({0});
    ASSERT_TRUE(data.ok());
    for (size_t i = 0; i < (*data)[0].size(); ++i) {
      key_slices[(*data)[0].IntAt(i)].insert(s);
    }
  }
  for (const auto& [key, slices] : key_slices) {
    EXPECT_EQ(slices.size(), 1u) << "key " << key << " split across slices";
  }
  // And the distribution should be reasonably balanced.
  uint64_t min_rows = UINT64_MAX, max_rows = 0;
  for (int s = 0; s < 4; ++s) {
    uint64_t r = (*cluster.shard(s, "fact"))->row_count();
    min_rows = std::min(min_rows, r);
    max_rows = std::max(max_rows, r);
  }
  EXPECT_LT(max_rows, 3 * min_rows);
}

TEST(ClusterTest, AllDistributionReplicatesEverywhere) {
  Cluster cluster(SmallConfig(2, 2));
  ASSERT_TRUE(cluster.CreateTable(FactSchema(DistStyle::kAll)).ok());
  ASSERT_TRUE(cluster.InsertRows("fact", FactRows(500, 1)).ok());
  for (int s = 0; s < 4; ++s) {
    EXPECT_EQ((*cluster.shard(s, "fact"))->row_count(), 500u);
  }
  // TotalRows counts the logical table, not the copies.
  EXPECT_EQ(*cluster.TotalRows("fact"), 500u);
  EXPECT_GT(cluster.network_bytes(), 0u);  // replication crossed nodes
}

TEST(ClusterTest, SliceRunsAreSorted) {
  Cluster cluster(SmallConfig(2, 2));
  ASSERT_TRUE(cluster.CreateTable(FactSchema(DistStyle::kEven)).ok());
  ASSERT_TRUE(cluster.InsertRows("fact", FactRows(2000, 1)).ok());
  // Each slice's single run must be sorted by day (the sort key).
  for (int s = 0; s < 4; ++s) {
    auto data = (*cluster.shard(s, "fact"))->ReadAll({1});
    ASSERT_TRUE(data.ok());
    for (size_t i = 1; i < (*data)[0].size(); ++i) {
      EXPECT_LE((*data)[0].IntAt(i - 1), (*data)[0].IntAt(i));
    }
  }
}

TEST(ClusterTest, InsertValidation) {
  Cluster cluster(SmallConfig());
  ASSERT_TRUE(cluster.CreateTable(FactSchema(DistStyle::kEven)).ok());
  EXPECT_FALSE(cluster.InsertRows("nope", FactRows(10, 1)).ok());
  auto missing_col = FactRows(10, 1);
  missing_col.pop_back();
  EXPECT_FALSE(cluster.InsertRows("fact", missing_col).ok());
  cluster.set_read_only(true);
  EXPECT_EQ(cluster.InsertRows("fact", FactRows(10, 1)).code(),
            StatusCode::kFailedPrecondition);
}

TEST(ClusterTest, AnalyzeComputesStats) {
  Cluster cluster(SmallConfig());
  ASSERT_TRUE(cluster.CreateTable(FactSchema(DistStyle::kEven)).ok());
  ASSERT_TRUE(cluster.InsertRows("fact", FactRows(3000, 2)).ok());
  ASSERT_TRUE(cluster.Analyze("fact").ok());
  const TableStats& stats = cluster.catalog()->GetStats("fact");
  EXPECT_EQ(stats.row_count, 3000u);
  EXPECT_EQ(stats.columns[1].min, Datum::Int64(0));
  EXPECT_EQ(stats.columns[1].max, Datum::Int64(29));
  EXPECT_GE(stats.columns[0].distinct_estimate, 150u);
  EXPECT_LE(stats.columns[0].distinct_estimate, 200u);
}

// ---------------------------------------------------------------------------
// Distributed query execution
// ---------------------------------------------------------------------------

struct TestWarehouse {
  explicit TestWarehouse(ClusterConfig config) : cluster(config) {}

  Result<QueryResult> Run(const plan::LogicalQuery& q,
                          ExecOptions options = {}) {
    plan::Planner planner(cluster.catalog());
    SDW_ASSIGN_OR_RETURN(plan::PhysicalQuery physical, planner.Plan(q));
    QueryExecutor executor(&cluster, options);
    return executor.Execute(physical);
  }

  Cluster cluster;
};

void LoadJoinTables(TestWarehouse* w, DistStyle fact_style,
                    DistStyle dim_style, uint64_t dim_rows = 200) {
  TableSchema fact = FactSchema(fact_style);
  ASSERT_TRUE(w->cluster.CreateTable(fact).ok());
  ASSERT_TRUE(w->cluster.InsertRows("fact", FactRows(3000, 7)).ok());

  TableSchema dim("dim", {{"id", TypeId::kInt64}, {"name", TypeId::kString}});
  if (dim_style == DistStyle::kKey) {
    ASSERT_TRUE(dim.SetDistKey("id").ok());
  } else {
    dim.SetDistStyle(dim_style);
  }
  ASSERT_TRUE(w->cluster.CreateTable(dim).ok());
  ColumnVector id(TypeId::kInt64);
  ColumnVector name(TypeId::kString);
  for (uint64_t i = 0; i < dim_rows; ++i) {
    id.AppendInt(static_cast<int64_t>(i));
    name.AppendString("name-" + std::to_string(i % 10));
  }
  std::vector<ColumnVector> dim_cols;
  dim_cols.push_back(std::move(id));
  dim_cols.push_back(std::move(name));
  ASSERT_TRUE(w->cluster.InsertRows("dim", dim_cols).ok());
  ASSERT_TRUE(w->cluster.Analyze("fact").ok());
  ASSERT_TRUE(w->cluster.Analyze("dim").ok());
}

plan::LogicalQuery JoinCountQuery() {
  plan::LogicalQuery q;
  q.from_table = "fact";
  q.join_table = "dim";
  q.join_left = {"fact", "key"};
  q.join_right = {"dim", "id"};
  q.select = {{plan::LogicalAggFn::kNone, {"dim", "name"}, ""},
              {plan::LogicalAggFn::kCountStar, {}, "n"},
              {plan::LogicalAggFn::kSum, {"fact", "value"}, "total"}};
  q.group_by = {{"dim", "name"}};
  q.order_by = {{0, false}};
  return q;
}

TEST(DistributedExecTest, ScanFilterProject) {
  TestWarehouse w(SmallConfig());
  ASSERT_TRUE(w.cluster.CreateTable(FactSchema(DistStyle::kEven)).ok());
  ASSERT_TRUE(w.cluster.InsertRows("fact", FactRows(2000, 3)).ok());
  plan::LogicalQuery q;
  q.from_table = "fact";
  q.where = {{{"", "day"}, plan::LogicalCmp::kEq, Datum::Int64(5)}};
  q.select = {{plan::LogicalAggFn::kNone, {"", "key"}, ""},
              {plan::LogicalAggFn::kNone, {"", "value"}, ""}};
  auto r = w.Run(q);
  ASSERT_TRUE(r.ok()) << r.status();
  // ~2000/30 rows expected.
  EXPECT_GT(r->rows.num_rows(), 30u);
  EXPECT_LT(r->rows.num_rows(), 120u);
  EXPECT_EQ(r->column_names, (std::vector<std::string>{"key", "value"}));
  EXPECT_GT(r->stats.slice_seconds.size(), 0u);
}

TEST(DistributedExecTest, GlobalAggregateMatchesManualSum) {
  TestWarehouse w(SmallConfig());
  ASSERT_TRUE(w.cluster.CreateTable(FactSchema(DistStyle::kEven)).ok());
  auto rows = FactRows(2500, 4);
  int64_t expected_sum = 0;
  for (size_t i = 0; i < rows[2].size(); ++i) expected_sum += rows[2].IntAt(i);
  ASSERT_TRUE(w.cluster.InsertRows("fact", rows).ok());
  plan::LogicalQuery q;
  q.from_table = "fact";
  q.select = {{plan::LogicalAggFn::kCountStar, {}, "n"},
              {plan::LogicalAggFn::kSum, {"", "value"}, "s"},
              {plan::LogicalAggFn::kAvg, {"", "value"}, "a"},
              {plan::LogicalAggFn::kMin, {"", "value"}, "lo"},
              {plan::LogicalAggFn::kMax, {"", "value"}, "hi"}};
  auto r = w.Run(q);
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_EQ(r->rows.num_rows(), 1u);
  EXPECT_EQ(r->rows.columns[0].IntAt(0), 2500);
  EXPECT_EQ(r->rows.columns[1].IntAt(0), expected_sum);
  EXPECT_NEAR(r->rows.columns[2].DoubleAt(0),
              static_cast<double>(expected_sum) / 2500.0, 1e-9);
  EXPECT_GE(r->rows.columns[3].IntAt(0), 1);
  EXPECT_LE(r->rows.columns[4].IntAt(0), 100);
}

TEST(DistributedExecTest, AllJoinStrategiesAgree) {
  // The same logical join must produce identical results under
  // co-located, broadcast and shuffle execution.
  auto run_with = [&](DistStyle fact_style, DistStyle dim_style,
                      uint64_t dim_rows,
                      plan::JoinStrategy expected) -> exec::Batch {
    TestWarehouse w(SmallConfig());
    LoadJoinTables(&w, fact_style, dim_style, dim_rows);
    plan::Planner planner(w.cluster.catalog());
    auto physical = planner.Plan(JoinCountQuery());
    EXPECT_TRUE(physical.ok()) << physical.status();
    EXPECT_EQ(physical->join->strategy, expected);
    QueryExecutor executor(&w.cluster);
    auto r = executor.Execute(*physical);
    EXPECT_TRUE(r.ok()) << r.status();
    return std::move(r->rows);
  };

  // KEY/KEY on the join columns: co-located.
  exec::Batch colocated =
      run_with(DistStyle::kKey, DistStyle::kKey, 200,
               plan::JoinStrategy::kCoLocated);
  // EVEN fact, small EVEN dim: broadcast.
  exec::Batch broadcast =
      run_with(DistStyle::kEven, DistStyle::kEven, 200,
               plan::JoinStrategy::kBroadcastBuild);
  // EVEN fact, large dim (stats above threshold after we inflate them):
  // force shuffle by setting a tiny broadcast threshold instead.
  exec::Batch shuffled;
  {
    TestWarehouse w(SmallConfig());
    LoadJoinTables(&w, DistStyle::kEven, DistStyle::kEven, 200);
    plan::PlannerOptions opts;
    opts.broadcast_row_threshold = 10;  // force shuffle
    plan::Planner planner(w.cluster.catalog(), opts);
    auto physical = planner.Plan(JoinCountQuery());
    ASSERT_TRUE(physical.ok());
    ASSERT_EQ(physical->join->strategy, plan::JoinStrategy::kShuffle);
    QueryExecutor executor(&w.cluster);
    auto r = executor.Execute(*physical);
    ASSERT_TRUE(r.ok()) << r.status();
    shuffled = std::move(r->rows);
  }

  ASSERT_EQ(colocated.num_rows(), broadcast.num_rows());
  ASSERT_EQ(colocated.num_rows(), shuffled.num_rows());
  for (size_t i = 0; i < colocated.num_rows(); ++i) {
    for (size_t c = 0; c < colocated.num_columns(); ++c) {
      EXPECT_EQ(colocated.columns[c].DatumAt(i).Compare(
                    broadcast.columns[c].DatumAt(i)),
                0);
      EXPECT_EQ(colocated.columns[c].DatumAt(i).Compare(
                    shuffled.columns[c].DatumAt(i)),
                0);
    }
  }
}

TEST(DistributedExecTest, CoLocatedJoinMovesLessData) {
  TestWarehouse co(SmallConfig());
  LoadJoinTables(&co, DistStyle::kKey, DistStyle::kKey, 200);
  TestWarehouse ev(SmallConfig());
  LoadJoinTables(&ev, DistStyle::kEven, DistStyle::kEven, 200);

  auto run = [](TestWarehouse* w) {
    auto r = w->Run(JoinCountQuery());
    EXPECT_TRUE(r.ok());
    return r->stats.network_bytes;
  };
  uint64_t colocated_bytes = run(&co);
  uint64_t broadcast_bytes = run(&ev);
  EXPECT_LT(colocated_bytes, broadcast_bytes);
}

TEST(DistributedExecTest, InterpretedMatchesCompiled) {
  TestWarehouse w(SmallConfig());
  ASSERT_TRUE(w.cluster.CreateTable(FactSchema(DistStyle::kEven)).ok());
  ASSERT_TRUE(w.cluster.InsertRows("fact", FactRows(2000, 11)).ok());
  plan::LogicalQuery q;
  q.from_table = "fact";
  q.where = {{{"", "day"}, plan::LogicalCmp::kLe, Datum::Int64(10)}};
  q.select = {{plan::LogicalAggFn::kNone, {"", "day"}, ""},
              {plan::LogicalAggFn::kCountStar, {}, "n"},
              {plan::LogicalAggFn::kSum, {"", "value"}, "s"}};
  q.group_by = {{"", "day"}};
  q.order_by = {{0, false}};

  auto compiled = w.Run(q, {ExecutionMode::kCompiled, 0.0});
  auto interpreted = w.Run(q, {ExecutionMode::kInterpreted, 0.0});
  ASSERT_TRUE(compiled.ok()) << compiled.status();
  ASSERT_TRUE(interpreted.ok()) << interpreted.status();
  ASSERT_EQ(compiled->rows.num_rows(), interpreted->rows.num_rows());
  for (size_t i = 0; i < compiled->rows.num_rows(); ++i) {
    for (size_t c = 0; c < compiled->rows.num_columns(); ++c) {
      EXPECT_EQ(compiled->rows.columns[c].DatumAt(i).Compare(
                    interpreted->rows.columns[c].DatumAt(i)),
                0);
    }
  }
  // Joins are compiled-only.
  TestWarehouse wj(SmallConfig());
  LoadJoinTables(&wj, DistStyle::kKey, DistStyle::kKey);
  auto join_interpreted =
      wj.Run(JoinCountQuery(), {ExecutionMode::kInterpreted, 0.0});
  EXPECT_EQ(join_interpreted.status().code(), StatusCode::kNotSupported);
}

TEST(DistributedExecTest, ZonePredicatesReduceDecodes) {
  TestWarehouse w(SmallConfig(1, 1));
  ASSERT_TRUE(w.cluster.CreateTable(FactSchema(DistStyle::kEven)).ok());
  ASSERT_TRUE(w.cluster.InsertRows("fact", FactRows(20000, 13)).ok());
  plan::LogicalQuery narrow;
  narrow.from_table = "fact";
  narrow.where = {{{"", "day"}, plan::LogicalCmp::kEq, Datum::Int64(3)}};
  narrow.select = {{plan::LogicalAggFn::kCountStar, {}, "n"}};
  auto with_zones = w.Run(narrow);
  ASSERT_TRUE(with_zones.ok());

  // The unfiltered count reads the same column, so it needs every block
  // of its chain.
  plan::LogicalQuery full;
  full.from_table = "fact";
  full.select = {{plan::LogicalAggFn::kCount, {"", "day"}, "n"}};
  auto no_zones = w.Run(full);
  ASSERT_TRUE(no_zones.ok());
  EXPECT_LT(with_zones->stats.blocks_decoded * 2,
            no_zones->stats.blocks_decoded);

  // A bare COUNT(*) needs no block at all.
  plan::LogicalQuery bare;
  bare.from_table = "fact";
  bare.select = {{plan::LogicalAggFn::kCountStar, {}, "n"}};
  auto counted = w.Run(bare);
  ASSERT_TRUE(counted.ok());
  EXPECT_EQ(counted->rows.columns[0].IntAt(0), 20000);
  EXPECT_EQ(counted->stats.blocks_decoded, 0u);
}

TEST(ClusterTest, ResizePreservesDataAndKeepsSourceReadable) {
  TestWarehouse w(SmallConfig(2, 2));
  LoadJoinTables(&w, DistStyle::kKey, DistStyle::kKey);
  auto before = w.Run(JoinCountQuery());
  ASSERT_TRUE(before.ok());

  Cluster::ResizeStats stats;
  auto target = w.cluster.Resize(4, &stats);
  ASSERT_TRUE(target.ok()) << target.status();
  EXPECT_EQ((*target)->num_nodes(), 4);
  EXPECT_GT(stats.bytes_moved, 0u);
  EXPECT_GT(stats.modeled_seconds, 0.0);
  EXPECT_TRUE(w.cluster.read_only());

  // Source still answers reads.
  auto during = w.Run(JoinCountQuery());
  ASSERT_TRUE(during.ok()) << during.status();

  // Target answers the same query with the same result.
  plan::Planner planner((*target)->catalog());
  auto physical = planner.Plan(JoinCountQuery());
  ASSERT_TRUE(physical.ok());
  QueryExecutor executor(target->get());
  auto after = executor.Execute(*physical);
  ASSERT_TRUE(after.ok()) << after.status();
  ASSERT_EQ(before->rows.num_rows(), after->rows.num_rows());
  for (size_t i = 0; i < before->rows.num_rows(); ++i) {
    for (size_t c = 0; c < before->rows.num_columns(); ++c) {
      EXPECT_EQ(before->rows.columns[c].DatumAt(i).Compare(
                    after->rows.columns[c].DatumAt(i)),
                0);
    }
  }
  // Writes resume on the target.
  EXPECT_TRUE((*target)->InsertRows("fact", FactRows(10, 99)).ok());
}

TEST(ClusterTest, VacuumRestoresSortOrderAcrossRuns) {
  // Many small sorted runs overlap in their day ranges, so zone maps
  // prune poorly; VACUUM merges them into one sorted region.
  Cluster cluster(SmallConfig(1, 1));
  ASSERT_TRUE(cluster.CreateTable(FactSchema(DistStyle::kEven)).ok());
  for (int run = 0; run < 20; ++run) {
    ASSERT_TRUE(cluster.InsertRows("fact", FactRows(500, 100 + run)).ok());
  }
  auto* shard = *cluster.shard(0, "fact");
  storage::RangePredicate pred{1, Datum::Int64(5), Datum::Int64(5)};

  // Real decodes (process-wide counter) from a cold decode cache.
  obs::Counter* decoded =
      obs::Registry::Global().counter("sdw_storage_blocks_decoded");
  auto count_decodes = [&] {
    shard = *cluster.shard(0, "fact");
    shard->DropDecodeCache();
    const uint64_t before = decoded->value();
    for (const auto& range : shard->CandidateRanges({pred})) {
      SDW_CHECK(shard->ReadRange({1}, range).ok());
    }
    return decoded->value() - before;
  };
  const uint64_t fragmented = count_decodes();
  const uint64_t rows_before = *cluster.TotalRows("fact");

  auto rewritten = cluster.Vacuum("fact");
  ASSERT_TRUE(rewritten.ok()) << rewritten.status();
  EXPECT_GT(*rewritten, 0u);

  const uint64_t compacted = count_decodes();
  EXPECT_LT(compacted * 3, fragmented)
      << "vacuum should sharply reduce blocks decoded for a point query";
  // Data intact, fully sorted.
  EXPECT_EQ(*cluster.TotalRows("fact"), rows_before);
  auto data = (*cluster.shard(0, "fact"))->ReadAll({1});
  ASSERT_TRUE(data.ok());
  for (size_t i = 1; i < (*data)[0].size(); ++i) {
    EXPECT_LE((*data)[0].IntAt(i - 1), (*data)[0].IntAt(i));
  }
}

TEST(ClusterTest, VacuumReclaimsAndValidates) {
  Cluster cluster(SmallConfig(2, 2));
  ASSERT_TRUE(cluster.CreateTable(FactSchema(DistStyle::kKey)).ok());
  for (int run = 0; run < 5; ++run) {
    ASSERT_TRUE(cluster.InsertRows("fact", FactRows(300, run)).ok());
  }
  // Sum must be identical before and after.
  auto sum_values = [&] {
    int64_t total = 0;
    for (int s = 0; s < cluster.total_slices(); ++s) {
      auto data = (*cluster.shard(s, "fact"))->ReadAll({2});
      SDW_CHECK(data.ok());
      for (size_t i = 0; i < (*data)[0].size(); ++i) {
        total += (*data)[0].IntAt(i);
      }
    }
    return total;
  };
  const int64_t before = sum_values();
  ASSERT_TRUE(cluster.Vacuum("fact").ok());
  EXPECT_EQ(sum_values(), before);
  // Unknown table / read-only cluster rejected.
  EXPECT_FALSE(cluster.Vacuum("missing").ok());
  cluster.set_read_only(true);
  EXPECT_EQ(cluster.Vacuum("fact").status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(ClusterTest, ResizeDownWorks) {
  TestWarehouse w(SmallConfig(4, 2));
  ASSERT_TRUE(w.cluster.CreateTable(FactSchema(DistStyle::kEven)).ok());
  ASSERT_TRUE(w.cluster.InsertRows("fact", FactRows(1000, 5)).ok());
  Cluster::ResizeStats stats;
  auto target = w.cluster.Resize(1, &stats);
  ASSERT_TRUE(target.ok());
  EXPECT_EQ(*(*target)->TotalRows("fact"), 1000u);
}

}  // namespace
}  // namespace sdw::cluster
