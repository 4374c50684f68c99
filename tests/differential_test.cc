// Differential testing: the same randomly-generated query must produce
// identical results regardless of physical choices — cluster topology,
// distribution style, join strategy, or execution engine. This is the
// paper's core promise made testable: physical design knobs (the few
// that remain) change performance, never answers.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <optional>

#include "cluster/cluster.h"
#include "cluster/executor.h"
#include "common/logging.h"
#include "common/random.h"
#include "plan/planner.h"
#include "warehouse/warehouse.h"
#include "workload/replay.h"
#include "workload/synth.h"

namespace sdw {
namespace {

using cluster::Cluster;
using cluster::ClusterConfig;
using cluster::ExecOptions;
using cluster::ExecutionMode;
using cluster::QueryExecutor;

ClusterConfig Config(int nodes, int slices) {
  ClusterConfig config;
  config.num_nodes = nodes;
  config.slices_per_node = slices;
  config.storage.max_rows_per_block = 128;
  return config;
}

/// Loads identical fact/dim data into a cluster with the given styles.
void Load(Cluster* cluster, DistStyle fact_style, DistStyle dim_style,
          SortStyle sort_style, uint64_t data_seed) {
  TableSchema fact("fact", {{"k", TypeId::kInt64},
                            {"a", TypeId::kInt64},
                            {"b", TypeId::kInt64},
                            {"x", TypeId::kDouble}});
  if (fact_style == DistStyle::kKey) {
    SDW_CHECK_OK(fact.SetDistKey("k"));
  } else {
    fact.SetDistStyle(fact_style);
  }
  if (sort_style != SortStyle::kNone) {
    SDW_CHECK_OK(fact.SetSortKey(sort_style, {"a", "b"}));
  }
  SDW_CHECK_OK(cluster->CreateTable(fact));

  TableSchema dim("dim", {{"id", TypeId::kInt64}, {"tag", TypeId::kString}});
  if (dim_style == DistStyle::kKey) {
    SDW_CHECK_OK(dim.SetDistKey("id"));
  } else {
    dim.SetDistStyle(dim_style);
  }
  SDW_CHECK_OK(cluster->CreateTable(dim));

  Rng rng(data_seed);
  {
    ColumnVector k(TypeId::kInt64), a(TypeId::kInt64), b(TypeId::kInt64),
        x(TypeId::kDouble);
    for (int i = 0; i < 4000; ++i) {
      k.AppendInt(rng.UniformRange(0, 149));
      if (rng.Bernoulli(0.05)) {
        a.AppendNull();
      } else {
        a.AppendInt(rng.UniformRange(0, 49));
      }
      b.AppendInt(rng.UniformRange(-20, 20));
      x.AppendDouble(rng.UniformRange(0, 1000) / 8.0);
    }
    std::vector<ColumnVector> cols;
    cols.push_back(std::move(k));
    cols.push_back(std::move(a));
    cols.push_back(std::move(b));
    cols.push_back(std::move(x));
    SDW_CHECK_OK(cluster->InsertRows("fact", cols));
  }
  {
    ColumnVector id(TypeId::kInt64), tag(TypeId::kString);
    for (int i = 0; i < 150; ++i) {
      id.AppendInt(i);
      tag.AppendString("tag-" + std::to_string(i % 12));
    }
    std::vector<ColumnVector> cols;
    cols.push_back(std::move(id));
    cols.push_back(std::move(tag));
    SDW_CHECK_OK(cluster->InsertRows("dim", cols));
  }
  SDW_CHECK_OK(cluster->Analyze("fact"));
  SDW_CHECK_OK(cluster->Analyze("dim"));
}

/// Generates a random single-block query over the fact (and maybe dim)
/// tables. ORDER BY covers every select item so results are totally
/// ordered and comparable.
plan::LogicalQuery RandomQuery(Rng* rng, bool allow_join) {
  plan::LogicalQuery q;
  q.from_table = "fact";
  const bool join = allow_join && rng->Bernoulli(0.5);
  if (join) {
    q.join_table = "dim";
    q.join_left = {"fact", "k"};
    q.join_right = {"dim", "id"};
  }
  // WHERE: 0-2 conjuncts on fact int columns.
  const char* fact_cols[] = {"k", "a", "b"};
  const int nconj = static_cast<int>(rng->Uniform(3));
  for (int c = 0; c < nconj; ++c) {
    plan::Selection sel;
    sel.column = {"fact", fact_cols[rng->Uniform(3)]};
    sel.op = static_cast<plan::LogicalCmp>(rng->Uniform(6));
    sel.literal = Datum::Int64(rng->UniformRange(-10, 60));
    q.where.push_back(sel);
  }
  // GROUP BY one column + a batch of aggregates, or plain projection.
  if (rng->Bernoulli(0.7)) {
    plan::ColumnName group =
        join && rng->Bernoulli(0.5)
            ? plan::ColumnName{"dim", "tag"}
            : plan::ColumnName{"fact", "b"};
    q.group_by = {group};
    q.select = {{plan::LogicalAggFn::kNone, group, "g"},
                {plan::LogicalAggFn::kCountStar, {}, "n"},
                {plan::LogicalAggFn::kSum, {"fact", "x"}, "sx"},
                {plan::LogicalAggFn::kMin, {"fact", "b"}, "lo"},
                {plan::LogicalAggFn::kMax, {"fact", "x"}, "hi"},
                {plan::LogicalAggFn::kAvg, {"fact", "x"}, "mean"},
                {plan::LogicalAggFn::kCount, {"fact", "a"}, "na"}};
    q.order_by = {{0, false}};
  } else {
    q.select = {{plan::LogicalAggFn::kNone, {"fact", "k"}, ""},
                {plan::LogicalAggFn::kNone, {"fact", "b"}, ""},
                {plan::LogicalAggFn::kNone, {"fact", "x"}, ""}};
    for (int i = 0; i < 3; ++i) {
      q.order_by.push_back({i, rng->Bernoulli(0.5)});
    }
  }
  return q;
}

void ExpectBatchesEqual(const exec::Batch& a, const exec::Batch& b,
                        const std::string& context) {
  ASSERT_EQ(a.num_rows(), b.num_rows()) << context;
  ASSERT_EQ(a.num_columns(), b.num_columns()) << context;
  for (size_t r = 0; r < a.num_rows(); ++r) {
    for (size_t c = 0; c < a.num_columns(); ++c) {
      if (a.columns[c].type() == TypeId::kDouble &&
          !a.columns[c].IsNull(r) && !b.columns[c].IsNull(r)) {
        ASSERT_NEAR(a.columns[c].DoubleAt(r), b.columns[c].DoubleAt(r), 1e-6)
            << context << " row " << r << " col " << c;
      } else {
        ASSERT_EQ(a.columns[c].DatumAt(r).Compare(b.columns[c].DatumAt(r)), 0)
            << context << " row " << r << " col " << c << ": "
            << a.columns[c].DatumAt(r).ToString() << " vs "
            << b.columns[c].DatumAt(r).ToString();
      }
    }
  }
}

class DifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DifferentialTest, TopologiesAndEnginesAgree) {
  const uint64_t seed = GetParam();
  // Reference: single node, single slice, EVEN, unsorted.
  Cluster reference(Config(1, 1));
  Load(&reference, DistStyle::kEven, DistStyle::kEven, SortStyle::kNone,
       seed);
  // Variants exercising every physical dimension.
  Cluster colocated(Config(3, 2));
  Load(&colocated, DistStyle::kKey, DistStyle::kKey, SortStyle::kCompound,
       seed);
  Cluster broadcast(Config(2, 3));
  Load(&broadcast, DistStyle::kEven, DistStyle::kEven,
       SortStyle::kInterleaved, seed);
  Cluster replicated(Config(2, 2));
  Load(&replicated, DistStyle::kEven, DistStyle::kAll, SortStyle::kCompound,
       seed);

  Rng rng(seed * 977 + 3);
  for (int trial = 0; trial < 8; ++trial) {
    plan::LogicalQuery q = RandomQuery(&rng, /*allow_join=*/true);
    const std::string context =
        "seed " + std::to_string(seed) + " trial " + std::to_string(trial);

    plan::Planner ref_planner(reference.catalog());
    auto ref_plan = ref_planner.Plan(q);
    ASSERT_TRUE(ref_plan.ok()) << context << ": " << ref_plan.status();
    QueryExecutor ref_exec(&reference);
    auto expected = ref_exec.Execute(*ref_plan);
    ASSERT_TRUE(expected.ok()) << context << ": " << expected.status();

    for (Cluster* variant : {&colocated, &broadcast, &replicated}) {
      plan::Planner planner(variant->catalog());
      auto physical = planner.Plan(q);
      ASSERT_TRUE(physical.ok()) << context;
      QueryExecutor executor(variant);
      auto got = executor.Execute(*physical);
      ASSERT_TRUE(got.ok()) << context << ": " << got.status();
      ExpectBatchesEqual(expected->rows, got->rows, context);
    }

    // Forced shuffle must also agree (different code path entirely).
    if (q.join_table.has_value()) {
      plan::PlannerOptions force;
      force.broadcast_row_threshold = 1;
      plan::Planner planner(broadcast.catalog(), force);
      auto physical = planner.Plan(q);
      ASSERT_TRUE(physical.ok()) << context;
      ASSERT_EQ(physical->join->strategy, plan::JoinStrategy::kShuffle);
      QueryExecutor executor(&broadcast);
      auto got = executor.Execute(*physical);
      ASSERT_TRUE(got.ok()) << context << ": " << got.status();
      ExpectBatchesEqual(expected->rows, got->rows, context + " (shuffle)");
    }

    // The interpreted engine must agree on join-free queries.
    if (!q.join_table.has_value()) {
      plan::Planner planner(colocated.catalog());
      auto physical = planner.Plan(q);
      ASSERT_TRUE(physical.ok()) << context;
      QueryExecutor interpreted(&colocated,
                                ExecOptions{ExecutionMode::kInterpreted, 0.0});
      auto got = interpreted.Execute(*physical);
      ASSERT_TRUE(got.ok()) << context << ": " << got.status();
      ExpectBatchesEqual(expected->rows, got->rows, context + " (interp)");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

// The cache axis: cold-cache, warm result-cache, and segment-cache-only
// serving must all be byte-identical — across topologies and both
// engines. Caches are a performance knob, never an answer knob.
TEST_P(DifferentialTest, CacheArmsAgree) {
  const uint64_t seed = GetParam();
  auto make = [&](int nodes, int slices, DistStyle fact_style,
                  DistStyle dim_style, SortStyle sort_style, bool segment,
                  bool result, ExecutionMode mode) {
    warehouse::WarehouseOptions options;
    options.cluster = Config(nodes, slices);
    options.exec.mode = mode;
    options.cache.enable_segment_cache = segment;
    options.cache.enable_result_cache = result;
    auto wh = std::make_unique<warehouse::Warehouse>(options);
    Load(wh->data_plane(), fact_style, dim_style, sort_style, seed);
    return wh;
  };

  // Cold reference: no caches at all, trivial topology.
  auto cold = make(1, 1, DistStyle::kEven, DistStyle::kEven, SortStyle::kNone,
                   false, false, ExecutionMode::kCompiled);
  // Warm arm: both caches on; repeats must come from the result cache.
  auto warm = make(3, 2, DistStyle::kKey, DistStyle::kKey,
                   SortStyle::kCompound, true, true,
                   ExecutionMode::kCompiled);
  // Segment-only arm: repeats reuse the cached plan but re-execute.
  auto segonly = make(2, 3, DistStyle::kEven, DistStyle::kEven,
                      SortStyle::kInterleaved, true, false,
                      ExecutionMode::kCompiled);
  // Interpreted engine with both caches (join-free queries only).
  auto interp = make(2, 2, DistStyle::kEven, DistStyle::kAll,
                     SortStyle::kCompound, true, true,
                     ExecutionMode::kInterpreted);

  Rng rng(seed * 7919 + 11);
  for (int trial = 0; trial < 8; ++trial) {
    plan::LogicalQuery q = RandomQuery(&rng, /*allow_join=*/true);
    const std::string context =
        "seed " + std::to_string(seed) + " trial " + std::to_string(trial);

    auto expected = cold->ExecuteQuery(q);
    ASSERT_TRUE(expected.ok()) << context << ": " << expected.status();
    EXPECT_FALSE(expected->from_result_cache) << context;

    auto warm_cold = warm->ExecuteQuery(q);
    ASSERT_TRUE(warm_cold.ok()) << context << ": " << warm_cold.status();
    ExpectBatchesEqual(expected->rows, warm_cold->rows, context + " (warm/1)");
    auto warm_hit = warm->ExecuteQuery(q);
    ASSERT_TRUE(warm_hit.ok()) << context << ": " << warm_hit.status();
    EXPECT_TRUE(warm_hit->from_result_cache) << context;
    ExpectBatchesEqual(expected->rows, warm_hit->rows, context + " (warm/2)");

    auto seg_cold = segonly->ExecuteQuery(q);
    ASSERT_TRUE(seg_cold.ok()) << context << ": " << seg_cold.status();
    auto seg_repeat = segonly->ExecuteQuery(q);
    ASSERT_TRUE(seg_repeat.ok()) << context << ": " << seg_repeat.status();
    EXPECT_FALSE(seg_repeat->from_result_cache) << context;
    ExpectBatchesEqual(expected->rows, seg_repeat->rows, context + " (seg)");

    if (!q.join_table.has_value()) {
      auto interp_cold = interp->ExecuteQuery(q);
      ASSERT_TRUE(interp_cold.ok()) << context << ": "
                                    << interp_cold.status();
      ExpectBatchesEqual(expected->rows, interp_cold->rows,
                         context + " (interp/1)");
      auto interp_hit = interp->ExecuteQuery(q);
      ASSERT_TRUE(interp_hit.ok()) << context << ": " << interp_hit.status();
      EXPECT_TRUE(interp_hit->from_result_cache) << context;
      ExpectBatchesEqual(expected->rows, interp_hit->rows,
                         context + " (interp/2)");
    }
  }
  // The warm arm really did serve from its caches.
  EXPECT_GT(warm->result_cache()->size(), 0u);
  EXPECT_GT(warm->segment_cache()->size(), 0u);
}

// The oracle axis: filtered COUNT(*)s (SQLancer's NoREC check) must equal
// a plain loop over the rows the test inserted, not only another engine.
// The predicates cover what the integer-only queries above never reach:
// BETWEEN, IN lists holding NULL, VARCHAR and DOUBLE comparisons (-0.0
// and NaN included), a NULL-heavy column, prefix LIKE, and a bare
// COUNT(*). Arms vary topology, distribution, sort keys, block size,
// engine and pool; the loop shares no code with any of them.

/// One inserted row of p(k BIGINT, d DOUBLE PRECISION, s VARCHAR).
struct OracleRow {
  std::optional<int64_t> k;
  std::optional<double> d;
  std::optional<std::string> s;
};

/// SQL truth of one conjunct on one row: TRUE, FALSE or NULL (nullopt).
using Truth = std::optional<bool>;

/// The oracle's own order: NaN equals NaN and sorts above every double.
int OracleOrder(double a, double b) {
  if (std::isnan(a) || std::isnan(b)) {
    return std::isnan(a) == std::isnan(b) ? 0 : (std::isnan(a) ? 1 : -1);
  }
  return a < b ? -1 : (a > b ? 1 : 0);
}
int OracleOrder(int64_t a, int64_t b) { return a < b ? -1 : (a > b ? 1 : 0); }
int OracleOrder(const std::string& a, const std::string& b) {
  return a < b ? -1 : (a > b ? 1 : 0);
}

struct OraclePredicate {
  std::string sql;
  std::function<Truth(const OracleRow&)> eval;
};

const char* const kOpSql[] = {"=", "<>", "<", "<=", ">", ">="};

bool OracleApply(int op, int order) {
  switch (op) {
    case 0:
      return order == 0;
    case 1:
      return order != 0;
    case 2:
      return order < 0;
    case 3:
      return order <= 0;
    case 4:
      return order > 0;
    default:
      return order >= 0;
  }
}

/// `column <op> literal`, `BETWEEN` or `IN` over the field `get` reads;
/// a NULL field or literal makes the comparison NULL.
template <typename T, typename Get>
OraclePredicate Compare(const std::string& column, int op,
                        std::optional<T> lit, const std::string& lit_sql,
                        Get get) {
  return {column + " " + kOpSql[op] + " " + lit_sql,
          [=](const OracleRow& r) -> Truth {
            const std::optional<T> v = get(r);
            if (!v || !lit) return std::nullopt;
            return OracleApply(op, OracleOrder(*v, *lit));
          }};
}
template <typename T, typename Get>
OraclePredicate Between(const std::string& column, T lo, T hi,
                        const std::string& lo_sql, const std::string& hi_sql,
                        Get get) {
  return {column + " BETWEEN " + lo_sql + " AND " + hi_sql,
          [=](const OracleRow& r) -> Truth {
            const std::optional<T> v = get(r);
            if (!v) return std::nullopt;
            return OracleOrder(*v, lo) >= 0 && OracleOrder(*v, hi) <= 0;
          }};
}
/// IN (values..., NULL): TRUE on a match, else NULL (never FALSE).
template <typename T, typename Get>
OraclePredicate InWithNull(const std::string& column,
                           const std::vector<T>& values,
                           const std::vector<std::string>& value_sql, Get get) {
  std::string sql = column + " IN (";
  for (const std::string& v : value_sql) sql += v + ", ";
  sql += "NULL)";
  return {sql, [=](const OracleRow& r) -> Truth {
            const std::optional<T> v = get(r);
            if (!v) return std::nullopt;
            for (const T& candidate : values) {
              if (OracleOrder(*v, candidate) == 0) return true;
            }
            return std::nullopt;
          }};
}

const double kDoublePool[] = {-2.25, -0.0, 0.0, 1.5, 3.75, 100.0,
                              std::numeric_limits<double>::quiet_NaN()};
const char* const kStringPool[] = {"",   "a",  "ab",  "abc", "b",
                                   "ba", "bz", "c-long-string-past-sso"};

std::string DoubleSql(double d) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", d);  // "-0.00" keeps the sign
  return buf;
}

OraclePredicate RandomPredicate(Rng* rng) {
  auto get_k = [](const OracleRow& r) { return r.k; };
  auto get_d = [](const OracleRow& r) { return r.d; };
  auto get_s = [](const OracleRow& r) { return r.s; };
  auto pick_d = [&] { return kDoublePool[rng->Uniform(6)]; };  // no NaN
  auto pick_s = [&] { return std::string(kStringPool[rng->Uniform(8)]); };
  const int op = static_cast<int>(rng->Uniform(6));
  switch (rng->Uniform(11)) {
    case 0: {
      const int64_t lo = rng->UniformRange(-5, 40);
      const int64_t hi = rng->UniformRange(-5, 40);
      return Between<int64_t>("k", lo, hi, std::to_string(lo),
                              std::to_string(hi), get_k);
    }
    case 1: {
      const double lo = pick_d();
      const double hi = pick_d();
      return Between<double>("d", lo, hi, DoubleSql(lo), DoubleSql(hi), get_d);
    }
    case 2: {
      const std::string lo = pick_s();
      const std::string hi = pick_s();
      return Between<std::string>("s", lo, hi, "'" + lo + "'", "'" + hi + "'",
                                  get_s);
    }
    case 3: {
      const int64_t a = rng->UniformRange(0, 30);
      const int64_t b = rng->UniformRange(0, 30);
      return InWithNull<int64_t>("k", {a, b},
                                 {std::to_string(a), std::to_string(b)}, get_k);
    }
    case 4: {
      const std::string a = pick_s();
      return InWithNull<std::string>("s", {a}, {"'" + a + "'"}, get_s);
    }
    case 5: {
      const double a = pick_d();
      return InWithNull<double>("d", {a, 0.0}, {DoubleSql(a), "0.0"}, get_d);
    }
    case 6: {
      const std::string lit = pick_s();
      return Compare<std::string>("s", op, lit, "'" + lit + "'", get_s);
    }
    case 7: {
      const double lit = pick_d();
      return Compare<double>("d", op, lit, DoubleSql(lit), get_d);
    }
    case 8: {
      const int64_t lit = rng->UniformRange(-5, 40);
      return Compare<int64_t>("k", op, lit, std::to_string(lit), get_k);
    }
    case 9: {
      const std::string prefix = rng->Bernoulli(0.5) ? "a" : "b";
      return {"s LIKE '" + prefix + "%'", [=](const OracleRow& r) -> Truth {
                if (!r.s) return std::nullopt;
                return r.s->compare(0, prefix.size(), prefix) == 0;
              }};
    }
    default:
      return Compare<int64_t>("k", op, std::nullopt, "NULL", get_k);
  }
}

std::vector<OracleRow> OracleRows(uint64_t seed) {
  Rng rng(seed);
  std::vector<OracleRow> rows(3000);
  for (OracleRow& r : rows) {
    if (rng.Bernoulli(0.5)) r.k = rng.UniformRange(0, 39);  // NULL-heavy
    if (!rng.Bernoulli(0.1)) r.d = kDoublePool[rng.Uniform(7)];
    if (!rng.Bernoulli(0.2)) r.s = kStringPool[rng.Uniform(8)];
  }
  return rows;
}

struct OracleArm {
  std::string name;
  int nodes;
  int slices;
  size_t block_rows;
  std::string table_options;
  ExecutionMode mode;
  int pool_size;
};

TEST_P(DifferentialTest, FilteredCountsMatchAPlainLoop) {
  const uint64_t seed = GetParam();
  const std::vector<OracleRow> rows = OracleRows(seed * 104729 + 7);
  const OracleArm arms[] = {
      {"1x1", 1, 1, 128, "", ExecutionMode::kCompiled, -1},
      {"sorted-d", 3, 2, 16, "SORTKEY(d)", ExecutionMode::kCompiled, 0},
      {"interleaved-key", 2, 2, 32, "DISTKEY(k) INTERLEAVED SORTKEY(k, s)",
       ExecutionMode::kCompiled, 4},
      {"all-interp", 2, 2, 64, "DISTSTYLE ALL SORTKEY(s)",
       ExecutionMode::kInterpreted, -1},
      {"sorted-s-interp", 1, 3, 16, "SORTKEY(s)", ExecutionMode::kInterpreted,
       0},
  };
  std::vector<std::unique_ptr<warehouse::Warehouse>> warehouses;
  for (const OracleArm& arm : arms) {
    warehouse::WarehouseOptions options;
    options.cluster = Config(arm.nodes, arm.slices);
    options.cluster.storage.max_rows_per_block = arm.block_rows;
    options.exec.mode = arm.mode;
    options.exec.pool_size = arm.pool_size;
    options.cache.enable_result_cache = false;
    auto wh = std::make_unique<warehouse::Warehouse>(options);
    auto created = wh->Execute(
        "CREATE TABLE p (k BIGINT, d DOUBLE PRECISION, s VARCHAR) " +
        arm.table_options);
    ASSERT_TRUE(created.ok()) << arm.name << ": " << created.status();
    ColumnVector k(TypeId::kInt64), d(TypeId::kDouble), s(TypeId::kString);
    for (const OracleRow& r : rows) {
      SDW_CHECK_OK(k.AppendDatum(r.k ? Datum::Int64(*r.k) : Datum::Null()));
      SDW_CHECK_OK(d.AppendDatum(r.d ? Datum::Double(*r.d) : Datum::Null()));
      SDW_CHECK_OK(s.AppendDatum(r.s ? Datum::String(*r.s) : Datum::Null()));
    }
    std::vector<ColumnVector> cols;
    cols.push_back(std::move(k));
    cols.push_back(std::move(d));
    cols.push_back(std::move(s));
    SDW_CHECK_OK(wh->data_plane()->InsertRows("p", cols));
    warehouses.push_back(std::move(wh));
  }

  auto count_on = [&](warehouse::Warehouse* wh, const std::string& sql,
                      const std::string& context) -> int64_t {
    auto r = wh->Execute(sql);
    EXPECT_TRUE(r.ok()) << context << ": " << r.status();
    if (!r.ok() || r->rows.num_rows() != 1) return -1;
    return r->rows.columns[0].IntAt(0);
  };
  // The bare COUNT(*) and COUNT(column) need no predicate.
  int64_t non_null_k = 0;
  for (const OracleRow& r : rows) non_null_k += r.k ? 1 : 0;
  for (size_t a = 0; a < warehouses.size(); ++a) {
    EXPECT_EQ(count_on(warehouses[a].get(), "SELECT COUNT(*) AS n FROM p",
                       arms[a].name),
              static_cast<int64_t>(rows.size()))
        << arms[a].name;
    EXPECT_EQ(count_on(warehouses[a].get(), "SELECT COUNT(k) AS n FROM p",
                       arms[a].name),
              non_null_k)
        << arms[a].name;
  }

  Rng rng(seed * 6151 + 5);
  for (int trial = 0; trial < 24; ++trial) {
    std::vector<OraclePredicate> conjuncts = {RandomPredicate(&rng)};
    if (rng.Bernoulli(0.4)) conjuncts.push_back(RandomPredicate(&rng));
    std::string sql = "SELECT COUNT(*) AS n FROM p WHERE ";
    for (size_t c = 0; c < conjuncts.size(); ++c) {
      sql += (c > 0 ? " AND " : "") + conjuncts[c].sql;
    }
    int64_t expected = 0;
    for (const OracleRow& r : rows) {
      bool all_true = true;
      for (const OraclePredicate& c : conjuncts) {
        const Truth t = c.eval(r);
        all_true = all_true && t.has_value() && *t;
      }
      expected += all_true ? 1 : 0;
    }
    for (size_t a = 0; a < warehouses.size(); ++a) {
      const std::string context = "seed " + std::to_string(seed) + " arm " +
                                  arms[a].name + ": " + sql;
      EXPECT_EQ(count_on(warehouses[a].get(), sql, context), expected)
          << context;
    }
  }
}

// The VARCHAR oracle: one column per VARCHAR encoding, each holding the
// same values, and every statement over each column checked against a
// plain loop over the inserted rows. The values cover the empty string,
// the 15/16/17-byte small-string boundary, 300-byte strings, bytes
// 0x80-0xFF, multi-word text with doubled and edge spaces, a quote, NULLs,
// and a run of distinct values long enough that every block holding it has
// more than 255 distinct values (BYTEDICT escapes, TEXT255 literals).

const char* const kVarcharColumns[] = {"r", "l", "b", "t", "z"};

/// One inserted row of v(id, g, r, l, b, t, z): every VARCHAR column
/// holds `s`.
struct VarcharRow {
  int64_t id;
  int64_t g;
  std::optional<std::string> s;
};

std::vector<std::string> VarcharPool() {
  return {"",
          "abcdefghijklmno",    // 15 bytes: the longest small string
          "abcdefghijklmnop",   // 16
          "abcdefghijklmnopq",  // 17
          "abd",
          "b",
          std::string(300, 'z'),
          "abc" + std::string(297, 'q'),
          "\x80",
          "\xff\xfe",
          "caf\xc3\xa9",
          std::string(20, '\xf0'),
          "the quick brown fox",
          "the  lazy dog ",
          " leading space",
          "it's"};
}

std::vector<VarcharRow> VarcharRows(uint64_t seed) {
  Rng rng(seed);
  const std::vector<std::string> pool = VarcharPool();
  std::vector<VarcharRow> rows;
  for (int64_t i = 0; i < 2600; ++i) {
    VarcharRow r{i, i % 7, std::nullopt};
    if (i < 1200) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "u-%04lld", static_cast<long long>(i));
      r.s = buf;
    } else if (!rng.Bernoulli(0.1)) {
      r.s = pool[rng.Uniform(pool.size())];
    }
    rows.push_back(std::move(r));
  }
  return rows;
}

std::string SqlQuote(const std::string& s) {
  std::string out = "'";
  for (char c : s) {
    out += c;
    if (c == '\'') out += '\'';
  }
  return out + "'";
}

/// The oracle's rendering of a value, as the engine prints it.
std::string Render(const std::optional<std::string>& s) {
  return s ? "'" + *s + "'" : "NULL";
}

/// Every row of a result, each value rendered and joined by '|'.
std::vector<std::string> RenderRows(const exec::Batch& batch) {
  std::vector<std::string> out;
  for (size_t r = 0; r < batch.num_rows(); ++r) {
    std::string line;
    for (size_t c = 0; c < batch.num_columns(); ++c) {
      line += (c > 0 ? "|" : "") + batch.columns[c].DatumAt(r).ToString();
    }
    out.push_back(std::move(line));
  }
  return out;
}

TEST_P(DifferentialTest, VarcharCodecsMatchAPlainLoop) {
  const uint64_t seed = GetParam();
  const std::vector<VarcharRow> rows = VarcharRows(seed * 7907 + 3);
  const std::vector<std::string> pool = VarcharPool();
  // The join's build side: a key per pool value (two for some), a NULL.
  std::vector<std::pair<std::optional<std::string>, int64_t>> dim;
  for (size_t i = 0; i < pool.size(); i += 2) {
    dim.emplace_back(pool[i], static_cast<int64_t>(i));
    if (i % 4 == 0) dim.emplace_back(pool[i], 100);
  }
  dim.emplace_back("u-0007", 7);
  dim.emplace_back(std::nullopt, 1);

  const OracleArm arms[] = {
      {"1x1-serial", 1, 1, 512, "", ExecutionMode::kCompiled, 0},
      {"2x2-pooled", 2, 2, 512, "DISTKEY(id)", ExecutionMode::kCompiled, 4},
      {"2x1-sorted", 2, 1, 128, "SORTKEY(b)", ExecutionMode::kCompiled, -1},
      {"1x2-interp", 1, 2, 256, "SORTKEY(t)", ExecutionMode::kInterpreted, 0},
  };
  std::vector<std::unique_ptr<warehouse::Warehouse>> warehouses;
  for (const OracleArm& arm : arms) {
    warehouse::WarehouseOptions options;
    options.cluster = Config(arm.nodes, arm.slices);
    options.cluster.storage.max_rows_per_block = arm.block_rows;
    options.exec.mode = arm.mode;
    options.exec.pool_size = arm.pool_size;
    options.cache.enable_result_cache = false;
    auto wh = std::make_unique<warehouse::Warehouse>(options);
    auto created = wh->Execute(
        "CREATE TABLE v (id BIGINT, g BIGINT, r VARCHAR ENCODE raw, "
        "l VARCHAR ENCODE runlength, b VARCHAR ENCODE bytedict, "
        "t VARCHAR ENCODE text255, z VARCHAR ENCODE lzo) " +
        arm.table_options);
    ASSERT_TRUE(created.ok()) << arm.name << ": " << created.status();
    ASSERT_TRUE(wh->Execute("CREATE TABLE w (k VARCHAR ENCODE bytedict, "
                            "tag BIGINT) DISTSTYLE EVEN")
                    .ok());
    std::vector<ColumnVector> cols;
    cols.emplace_back(TypeId::kInt64);
    cols.emplace_back(TypeId::kInt64);
    for (size_t c = 0; c < std::size(kVarcharColumns); ++c) {
      cols.emplace_back(TypeId::kString);
    }
    for (const VarcharRow& r : rows) {
      cols[0].AppendInt(r.id);
      cols[1].AppendInt(r.g);
      for (size_t c = 2; c < cols.size(); ++c) {
        SDW_CHECK_OK(
            cols[c].AppendDatum(r.s ? Datum::String(*r.s) : Datum::Null()));
      }
    }
    SDW_CHECK_OK(wh->data_plane()->InsertRows("v", cols));
    ColumnVector k(TypeId::kString), tag(TypeId::kInt64);
    for (const auto& [key, t] : dim) {
      SDW_CHECK_OK(k.AppendDatum(key ? Datum::String(*key) : Datum::Null()));
      tag.AppendInt(t);
    }
    std::vector<ColumnVector> dim_cols;
    dim_cols.push_back(std::move(k));
    dim_cols.push_back(std::move(tag));
    SDW_CHECK_OK(wh->data_plane()->InsertRows("w", dim_cols));
    // Every block of each VARCHAR column has the encoding it forced.
    auto blocks = wh->Execute(
        "SELECT col, encoding, COUNT(*) FROM stv_blocklist WHERE tbl = 'v' "
        "GROUP BY col, encoding ORDER BY 1, 2");
    ASSERT_TRUE(blocks.ok()) << arm.name << ": " << blocks.status();
    std::map<std::string, std::string> encodings;
    for (size_t i = 0; i < blocks->rows.num_rows(); ++i) {
      const std::string col = blocks->rows.columns[0].DatumAt(i).ToString();
      EXPECT_EQ(encodings.count(col), 0u) << arm.name << ": " << col;
      encodings[col] = blocks->rows.columns[1].DatumAt(i).ToString();
    }
    EXPECT_EQ(encodings["'r'"], "'RAW'") << arm.name;
    EXPECT_EQ(encodings["'l'"], "'RUNLENGTH'") << arm.name;
    EXPECT_EQ(encodings["'b'"], "'BYTEDICT'") << arm.name;
    EXPECT_EQ(encodings["'t'"], "'TEXT255'") << arm.name;
    EXPECT_EQ(encodings["'z'"], "'LZO'") << arm.name;
    warehouses.push_back(std::move(wh));
  }

  struct Check {
    std::string sql;
    std::vector<std::string> expected;
    bool join;
  };
  auto count_check = [&](const std::string& col, const std::string& where,
                         auto pred) {
    int64_t n = 0;
    for (const VarcharRow& r : rows) n += r.s && pred(*r.s) ? 1 : 0;
    return Check{"SELECT COUNT(*) AS n FROM v WHERE " + where,
                 {std::to_string(n)},
                 false};
  };

  Rng rng(seed * 4001 + 9);
  auto pick = [&] { return pool[rng.Uniform(pool.size())]; };
  std::vector<Check> checks;
  for (const char* col : kVarcharColumns) {
    const std::string c = col;
    const std::string eq = pick();
    checks.push_back(count_check(c, c + " = " + SqlQuote(eq),
                                 [&](const std::string& s) { return s == eq; }));
    std::string lo = pick();
    std::string hi = pick();
    if (hi < lo) std::swap(lo, hi);
    checks.push_back(count_check(
        c, c + " >= " + SqlQuote(lo) + " AND " + c + " < " + SqlQuote(hi),
        [&](const std::string& s) { return s >= lo && s < hi; }));
    const std::string in_a = pick();
    const std::string in_b = pick();
    checks.push_back(count_check(
        c, c + " IN (" + SqlQuote(in_a) + ", " + SqlQuote(in_b) + ", 'u-0042')",
        [&](const std::string& s) {
          return s == in_a || s == in_b || s == "u-0042";
        }));
    for (const std::string prefix : {"abc", "u-01", "\xf0\xf0", "the "}) {
      checks.push_back(count_check(
          c, c + " LIKE " + SqlQuote(prefix + "%"), [&](const std::string& s) {
            return s.compare(0, prefix.size(), prefix) == 0;
          }));
    }

    // GROUP BY the column: NULL groups first, then byte order.
    std::map<std::optional<std::string>, int64_t> by_value;
    for (const VarcharRow& r : rows) ++by_value[r.s];
    Check group{"SELECT " + c + ", COUNT(*), MIN(" + c + "), MAX(" + c +
                    ") FROM v GROUP BY " + c + " ORDER BY 1",
                {},
                false};
    for (const auto& [key, n] : by_value) {
      group.expected.push_back(Render(key) + "|" + std::to_string(n) + "|" +
                               Render(key) + "|" + Render(key));
    }
    checks.push_back(std::move(group));

    // MIN and MAX of the column within integer groups.
    struct Extremes {
      int64_t count = 0;
      std::optional<std::string> min, max;
    };
    std::map<int64_t, Extremes> by_g;
    for (const VarcharRow& r : rows) {
      Extremes& e = by_g[r.g];
      if (!r.s) continue;
      ++e.count;
      if (!e.min || *r.s < *e.min) e.min = r.s;
      if (!e.max || *r.s > *e.max) e.max = r.s;
    }
    Check extremes{"SELECT g, COUNT(" + c + "), MIN(" + c + "), MAX(" + c +
                       ") FROM v GROUP BY g ORDER BY 1",
                   {},
                   false};
    for (const auto& [g, e] : by_g) {
      extremes.expected.push_back(std::to_string(g) + "|" +
                                  std::to_string(e.count) + "|" +
                                  Render(e.min) + "|" + Render(e.max));
    }
    checks.push_back(std::move(extremes));

    // A join on the VARCHAR key, grouped on the build side's key.
    std::map<std::string, std::pair<int64_t, int64_t>> joined;
    for (const VarcharRow& r : rows) {
      if (!r.s) continue;
      for (const auto& [key, t] : dim) {
        if (key && *key == *r.s) {
          joined[*key].first += 1;
          joined[*key].second += t;
        }
      }
    }
    Check join{"SELECT w.k, COUNT(*), SUM(w.tag) FROM v JOIN w ON v." + c +
                   " = w.k GROUP BY w.k ORDER BY 1",
               {},
               true};
    for (const auto& [key, cs] : joined) {
      join.expected.push_back(Render(key) + "|" + std::to_string(cs.first) +
                              "|" + std::to_string(cs.second));
    }
    checks.push_back(std::move(join));

    // ORDER BY the column (descending puts NULLs last), ties by id.
    std::vector<const VarcharRow*> sorted;
    for (const VarcharRow& r : rows) sorted.push_back(&r);
    std::sort(sorted.begin(), sorted.end(),
              [](const VarcharRow* a, const VarcharRow* b) {
                if (a->s != b->s) return a->s > b->s;
                return a->id < b->id;
              });
    Check top{"SELECT " + c + ", id FROM v ORDER BY 1 DESC, 2 LIMIT 40",
              {},
              false};
    for (size_t i = 0; i < 40; ++i) {
      top.expected.push_back(Render(sorted[i]->s) + "|" +
                             std::to_string(sorted[i]->id));
    }
    checks.push_back(std::move(top));
  }

  for (const Check& check : checks) {
    for (size_t a = 0; a < warehouses.size(); ++a) {
      if (check.join && arms[a].mode == ExecutionMode::kInterpreted) continue;
      const std::string context = "seed " + std::to_string(seed) + " arm " +
                                  arms[a].name + ": " + check.sql;
      auto r = warehouses[a]->Execute(check.sql);
      ASSERT_TRUE(r.ok()) << context << ": " << r.status();
      EXPECT_EQ(RenderRows(r->rows), check.expected) << context;
    }
  }
}

// The serving-harness axis: a synthesized trace at a fixed seed must
// replay byte-identically whether it runs serially in trace order,
// through a concurrent session pool, or against warm caches. The trace
// is read-only after provisioning (no ETL sessions), so statement
// interleaving is a performance knob, never an answer knob.
TEST(WorkloadTraceDifferential, SynthesizedTraceReplaysIdentically) {
  workload::SynthConfig config;
  config.seed = 13;
  config.duration_seconds = 0.25;
  config.dashboard_sessions = 3;
  config.dashboard_think_seconds = 0.02;
  config.etl_sessions = 0;  // read-only replay: order-independent answers
  config.adhoc_sessions = 2;
  config.adhoc_think_seconds = 0.05;
  config.sales_rows = 200;
  config.events_rows = 1500;
  const workload::Trace trace = workload::Synthesize(config);
  ASSERT_FALSE(trace.statements.empty());

  auto run = [&trace](int workers, bool warm) {
    warehouse::Warehouse wh;
    workload::ReplayOptions opts;
    opts.workers = workers;
    opts.capture_results = true;
    workload::Replayer replayer(&wh, opts);
    SDW_CHECK_OK(replayer.Provision(trace));
    if (warm) {
      auto priming = replayer.Replay(trace);  // fill result/segment caches
      SDW_CHECK_OK(priming.status());
    }
    auto result = replayer.Replay(trace);
    SDW_CHECK_OK(result.status());
    EXPECT_EQ(result->errors, 0);
    return result->outputs;
  };

  const std::vector<std::string> serial = run(0, false);
  const std::vector<std::string> pooled = run(4, false);
  const std::vector<std::string> cache_warm = run(0, true);
  ASSERT_EQ(serial.size(), trace.statements.size());
  EXPECT_EQ(serial, pooled) << "pooled replay must be byte-identical";
  EXPECT_EQ(serial, cache_warm) << "cache-warm replay must be byte-identical";
}

}  // namespace
}  // namespace sdw
