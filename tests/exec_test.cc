#include <gtest/gtest.h>

#include <limits>

#include "cluster/cluster.h"
#include "cluster/executor.h"
#include "common/logging.h"
#include "common/random.h"
#include "exec/expr.h"
#include "exec/operators.h"
#include "exec/row_executor.h"
#include "plan/planner.h"
#include "storage/block_store.h"
#include "storage/table_shard.h"

namespace sdw::exec {
namespace {

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

Batch IntBatch(const std::vector<std::vector<int64_t>>& columns) {
  Batch b;
  for (const auto& col : columns) {
    ColumnVector v(TypeId::kInt64);
    for (int64_t x : col) v.AppendInt(x);
    b.columns.push_back(std::move(v));
  }
  return b;
}

OperatorPtr ScanOf(Batch batch) {
  auto types = batch.Types();
  std::vector<Batch> batches;
  batches.push_back(std::move(batch));
  return MemoryScan(types, std::move(batches));
}

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

TEST(ExprTest, ColAndLit) {
  Batch b = IntBatch({{1, 2, 3}});
  auto col = Col(0, TypeId::kInt64);
  auto batch_result = col->EvalBatch(b);
  ASSERT_TRUE(batch_result.ok());
  EXPECT_EQ(batch_result->IntAt(2), 3);
  auto lit = Lit(Datum::Int64(9));
  auto lit_result = lit->EvalBatch(b);
  ASSERT_TRUE(lit_result.ok());
  ASSERT_EQ(lit_result->size(), 3u);
  EXPECT_EQ(lit_result->IntAt(0), 9);
  EXPECT_EQ(col->EvalRow({Datum::Int64(5)})->int_value(), 5);
}

TEST(ExprTest, ComparisonVariants) {
  Batch b = IntBatch({{1, 2, 3}, {2, 2, 2}});
  struct Case {
    CmpOp op;
    std::vector<int64_t> expected;
  };
  for (const auto& [op, expected] :
       std::vector<Case>{{CmpOp::kEq, {0, 1, 0}},
                         {CmpOp::kNe, {1, 0, 1}},
                         {CmpOp::kLt, {1, 0, 0}},
                         {CmpOp::kLe, {1, 1, 0}},
                         {CmpOp::kGt, {0, 0, 1}},
                         {CmpOp::kGe, {0, 1, 1}}}) {
    auto e = Cmp(op, Col(0, TypeId::kInt64), Col(1, TypeId::kInt64));
    auto r = e->EvalBatch(b);
    ASSERT_TRUE(r.ok());
    for (size_t i = 0; i < 3; ++i) {
      EXPECT_EQ(r->IntAt(i), expected[i]) << "op " << static_cast<int>(op);
    }
  }
}

TEST(ExprTest, NullComparisonsAreNull) {
  ColumnVector v(TypeId::kInt64);
  v.AppendInt(1);
  v.AppendNull();
  Batch b;
  b.columns.push_back(std::move(v));
  auto e = Cmp(CmpOp::kEq, Col(0, TypeId::kInt64), Lit(Datum::Int64(1)));
  auto r = e->EvalBatch(b);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->IntAt(0), 1);
  EXPECT_TRUE(r->IsNull(1));
  EXPECT_TRUE(e->EvalRow({Datum::Null()})->is_null());
}

TEST(ExprTest, ThreeValuedLogic) {
  Datum t = Datum::Bool(true), f = Datum::Bool(false), n = Datum::Null();
  auto eval = [](ExprPtr e, Datum a, Datum b) {
    return *e->EvalRow({std::move(a), std::move(b)});
  };
  auto a = Col(0, TypeId::kBool);
  auto b = Col(1, TypeId::kBool);
  EXPECT_EQ(eval(And(a, b), t, n).is_null(), true);
  EXPECT_EQ(eval(And(a, b), f, n), Datum::Bool(false));  // false AND null
  EXPECT_EQ(eval(Or(a, b), t, n), Datum::Bool(true));    // true OR null
  EXPECT_EQ(eval(Or(a, b), f, n).is_null(), true);
  EXPECT_EQ(eval(And(a, b), t, t), Datum::Bool(true));
  EXPECT_TRUE(Not(a)->EvalRow({n})->is_null());
  EXPECT_EQ(*Not(a)->EvalRow({t}), Datum::Bool(false));
}

TEST(ExprTest, Arithmetic) {
  Batch b = IntBatch({{10, 20}, {3, 4}});
  auto add = Arith(ArithOp::kAdd, Col(0, TypeId::kInt64), Col(1, TypeId::kInt64));
  EXPECT_EQ(add->type(), TypeId::kInt64);
  auto r = add->EvalBatch(b);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->IntAt(0), 13);
  EXPECT_EQ(r->IntAt(1), 24);
  // Division always produces DOUBLE.
  auto div = Arith(ArithOp::kDiv, Col(0, TypeId::kInt64), Col(1, TypeId::kInt64));
  EXPECT_EQ(div->type(), TypeId::kDouble);
  auto d = div->EvalBatch(b);
  ASSERT_TRUE(d.ok());
  EXPECT_DOUBLE_EQ(d->DoubleAt(1), 5.0);
  // String arithmetic rejected.
  auto bad = Arith(ArithOp::kAdd, Lit(Datum::String("x")), Lit(Datum::Int64(1)));
  EXPECT_FALSE(bad->EvalBatch(b).ok());
}

TEST(ExprTest, IsNullAndStartsWith) {
  ColumnVector s(TypeId::kString);
  s.AppendString("https://a");
  s.AppendNull();
  s.AppendString("ftp://b");
  Batch b;
  b.columns.push_back(std::move(s));
  auto isnull = IsNull(Col(0, TypeId::kString));
  auto r1 = isnull->EvalBatch(b);
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(r1->IntAt(0), 0);
  EXPECT_EQ(r1->IntAt(1), 1);
  auto prefix = StartsWith(Col(0, TypeId::kString), "https://");
  auto r2 = prefix->EvalBatch(b);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->IntAt(0), 1);
  EXPECT_TRUE(r2->IsNull(1));
  EXPECT_EQ(r2->IntAt(2), 0);
}

TEST(ExprTest, ToStringReadsLikeSql) {
  auto e = And(Cmp(CmpOp::kGt, Col(0, TypeId::kInt64), Lit(Datum::Int64(5))),
               Not(IsNull(Col(1, TypeId::kString))));
  EXPECT_EQ(e->ToString(), "(($0 > 5) AND NOT $1 IS NULL)");
}

// ---------------------------------------------------------------------------
// Operators
// ---------------------------------------------------------------------------

TEST(OperatorTest, FilterKeepsMatchingRows) {
  auto scan = ScanOf(IntBatch({{1, 2, 3, 4, 5}}));
  auto filtered =
      Filter(std::move(scan),
             Cmp(CmpOp::kGt, Col(0, TypeId::kInt64), Lit(Datum::Int64(2))));
  auto out = Collect(filtered.get());
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->num_rows(), 3u);
  EXPECT_EQ(out->columns[0].IntAt(0), 3);
  EXPECT_EQ(out->columns[0].IntAt(2), 5);
}

TEST(OperatorTest, ProjectComputesExpressions) {
  auto scan = ScanOf(IntBatch({{1, 2}, {10, 20}}));
  auto projected = Project(
      std::move(scan),
      {Arith(ArithOp::kMul, Col(0, TypeId::kInt64), Col(1, TypeId::kInt64)),
       Col(1, TypeId::kInt64)});
  auto out = Collect(projected.get());
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->columns[0].IntAt(0), 10);
  EXPECT_EQ(out->columns[0].IntAt(1), 40);
  EXPECT_EQ(out->columns[1].IntAt(1), 20);
}

TEST(OperatorTest, HashJoinInner) {
  // probe: (k, v) ; build: (k, w)
  auto probe = ScanOf(IntBatch({{1, 2, 3, 2}, {10, 20, 30, 21}}));
  auto build = ScanOf(IntBatch({{2, 3, 4}, {200, 300, 400}}));
  auto join = HashJoin(std::move(probe), std::move(build), {0}, {0});
  auto sorted = Sort(std::move(join), {{1, false}});
  auto out = Collect(sorted.get());
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->num_rows(), 3u);
  // Output: probe cols (k, v) then build cols (k, w).
  EXPECT_EQ(out->columns[1].IntAt(0), 20);
  EXPECT_EQ(out->columns[3].IntAt(0), 200);
  EXPECT_EQ(out->columns[1].IntAt(1), 21);
  EXPECT_EQ(out->columns[3].IntAt(1), 200);
  EXPECT_EQ(out->columns[1].IntAt(2), 30);
  EXPECT_EQ(out->columns[3].IntAt(2), 300);
}

TEST(OperatorTest, HashJoinDuplicateBuildKeysFanOut) {
  auto probe = ScanOf(IntBatch({{7}}));
  auto build = ScanOf(IntBatch({{7, 7}, {1, 2}}));
  auto join = HashJoin(std::move(probe), std::move(build), {0}, {0});
  auto out = Collect(join.get());
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->num_rows(), 2u);
}

TEST(OperatorTest, HashJoinDuplicateBuildKeysInBuildOrder) {
  // A probe row's matches come out in build order, across build batches.
  std::vector<Batch> build;
  build.push_back(IntBatch({{7, 8, 7}, {0, 9, 1}}));
  build.push_back(IntBatch({{7}, {2}}));
  auto join = HashJoin(ScanOf(IntBatch({{7, 8, 7}})),
                       MemoryScan({TypeId::kInt64, TypeId::kInt64},
                                  std::move(build)),
                       {0}, {0});
  auto out = Collect(join.get());
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->num_rows(), 7u);
  const int64_t want[] = {0, 1, 2, 9, 0, 1, 2};
  for (size_t i = 0; i < 7; ++i) {
    EXPECT_EQ(out->columns[2].IntAt(i), want[i]) << "row " << i;
  }
}

TEST(OperatorTest, HashJoinNullKeysNeverMatch) {
  ColumnVector k(TypeId::kInt64);
  k.AppendNull();
  k.AppendInt(1);
  Batch probe_batch;
  probe_batch.columns.push_back(std::move(k));
  ColumnVector bk(TypeId::kInt64);
  bk.AppendNull();
  bk.AppendInt(1);
  Batch build_batch;
  build_batch.columns.push_back(std::move(bk));
  auto join = HashJoin(ScanOf(std::move(probe_batch)),
                       ScanOf(std::move(build_batch)), {0}, {0});
  auto out = Collect(join.get());
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->num_rows(), 1u);  // only 1=1, not NULL=NULL
}

TEST(OperatorTest, HashAggregateGrouped) {
  auto scan = ScanOf(IntBatch({{1, 2, 1, 2, 1}, {10, 20, 30, 40, 50}}));
  auto agg = HashAggregate(std::move(scan), {0},
                           {{AggFn::kCount, -1},
                            {AggFn::kSum, 1},
                            {AggFn::kMin, 1},
                            {AggFn::kMax, 1}});
  auto sorted = Sort(std::move(agg), {{0, false}});
  auto out = Collect(sorted.get());
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->num_rows(), 2u);
  EXPECT_EQ(out->columns[0].IntAt(0), 1);
  EXPECT_EQ(out->columns[1].IntAt(0), 3);   // count
  EXPECT_EQ(out->columns[2].IntAt(0), 90);  // sum 10+30+50
  EXPECT_EQ(out->columns[3].IntAt(0), 10);  // min
  EXPECT_EQ(out->columns[4].IntAt(0), 50);  // max
  EXPECT_EQ(out->columns[2].IntAt(1), 60);  // 20+40
}

TEST(OperatorTest, GlobalAggregateOnEmptyInput) {
  auto scan = MemoryScan({TypeId::kInt64}, {});
  auto agg = HashAggregate(std::move(scan), {},
                           {{AggFn::kCount, -1}, {AggFn::kSum, 0}});
  auto out = Collect(agg.get());
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->num_rows(), 1u);
  EXPECT_EQ(out->columns[0].IntAt(0), 0);
  EXPECT_TRUE(out->columns[1].IsNull(0));  // SUM of nothing is NULL
}

TEST(OperatorTest, PartialThenFinalEqualsSingle) {
  // The leader-node final aggregation path: partials from two "slices"
  // merged by a final aggregate must equal a single-pass aggregate.
  Rng rng(5);
  std::vector<std::vector<int64_t>> slice1{{}, {}};
  std::vector<std::vector<int64_t>> slice2{{}, {}};
  std::vector<std::vector<int64_t>> all{{}, {}};
  for (int i = 0; i < 2000; ++i) {
    int64_t g = rng.UniformRange(0, 9);
    int64_t v = rng.UniformRange(-100, 100);
    auto& dest = rng.Bernoulli(0.5) ? slice1 : slice2;
    dest[0].push_back(g);
    dest[1].push_back(v);
    all[0].push_back(g);
    all[1].push_back(v);
  }
  std::vector<AggSpec> aggs = {{AggFn::kCount, -1},
                               {AggFn::kSum, 1},
                               {AggFn::kMin, 1},
                               {AggFn::kMax, 1}};
  auto p1 = HashAggregate(ScanOf(IntBatch(slice1)), {0}, aggs, AggMode::kPartial);
  auto p2 = HashAggregate(ScanOf(IntBatch(slice2)), {0}, aggs, AggMode::kPartial);
  auto b1 = Collect(p1.get());
  auto b2 = Collect(p2.get());
  ASSERT_TRUE(b1.ok());
  ASSERT_TRUE(b2.ok());
  std::vector<Batch> partials;
  partials.push_back(std::move(*b1));
  partials.push_back(std::move(*b2));
  auto types = partials[0].Types();
  auto final_agg = HashAggregate(MemoryScan(types, std::move(partials)), {0},
                                 aggs, AggMode::kFinal);
  auto merged = Collect(Sort(std::move(final_agg), {{0, false}}).get());
  auto single_agg =
      HashAggregate(ScanOf(IntBatch(all)), {0}, aggs, AggMode::kSingle);
  auto single = Collect(Sort(std::move(single_agg), {{0, false}}).get());
  ASSERT_TRUE(merged.ok());
  ASSERT_TRUE(single.ok());
  ASSERT_EQ(merged->num_rows(), single->num_rows());
  for (size_t i = 0; i < merged->num_rows(); ++i) {
    for (size_t c = 0; c < merged->num_columns(); ++c) {
      EXPECT_EQ(merged->columns[c].DatumAt(i).Compare(
                    single->columns[c].DatumAt(i)),
                0)
          << "row " << i << " col " << c;
    }
  }
}

TEST(OperatorTest, SortAscDescAndStability) {
  auto scan = ScanOf(IntBatch({{3, 1, 2, 1}, {0, 1, 2, 3}}));
  auto sorted = Sort(std::move(scan), {{0, false}, {1, true}});
  auto out = Collect(sorted.get());
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->columns[0].IntAt(0), 1);
  EXPECT_EQ(out->columns[1].IntAt(0), 3);  // desc tie-break
  EXPECT_EQ(out->columns[1].IntAt(1), 1);
  EXPECT_EQ(out->columns[0].IntAt(3), 3);
}

TEST(OperatorTest, LimitTruncates) {
  auto scan = ScanOf(IntBatch({{1, 2, 3, 4, 5}}));
  auto limited = Limit(std::move(scan), 2);
  auto out = Collect(limited.get());
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->num_rows(), 2u);
  auto scan2 = ScanOf(IntBatch({{1, 2}}));
  auto limited2 = Limit(std::move(scan2), 10);
  EXPECT_EQ(Collect(limited2.get())->num_rows(), 2u);
}

// ---------------------------------------------------------------------------
// ShardScan + row executor equivalence
// ---------------------------------------------------------------------------

TableSchema SalesSchema() {
  return TableSchema("sales", {{"day", TypeId::kInt64},
                               {"store", TypeId::kInt64},
                               {"amount", TypeId::kDouble}});
}

void FillSales(storage::TableShard* shard, size_t n, uint64_t seed) {
  Rng rng(seed);
  ColumnVector day(TypeId::kInt64);
  ColumnVector store(TypeId::kInt64);
  ColumnVector amount(TypeId::kDouble);
  for (size_t i = 0; i < n; ++i) {
    day.AppendInt(static_cast<int64_t>(i / 10));
    store.AppendInt(rng.UniformRange(0, 9));
    amount.AppendDouble(rng.NextDouble() * 100);
  }
  std::vector<ColumnVector> run;
  run.push_back(std::move(day));
  run.push_back(std::move(store));
  run.push_back(std::move(amount));
  ASSERT_TRUE(shard->Append(run).ok());
}

TEST(ShardScanTest, ProjectsAndPrunes) {
  storage::BlockStore store;
  storage::StorageOptions opts;
  opts.max_rows_per_block = 128;
  storage::TableShard shard(SalesSchema(), opts, &store);
  FillSales(&shard, 2000, 3);
  // Scan day in [50, 52] with pruning.
  auto scan = ShardScan(&shard, {0, 2},
                        {{0, Datum::Int64(50), Datum::Int64(52)}});
  auto filtered = Filter(
      std::move(scan),
      And(Cmp(CmpOp::kGe, Col(0, TypeId::kInt64), Lit(Datum::Int64(50))),
          Cmp(CmpOp::kLe, Col(0, TypeId::kInt64), Lit(Datum::Int64(52)))));
  auto out = Collect(filtered.get());
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->num_rows(), 30u);  // 3 days x 10 rows
}

TEST(RowExecutorTest, MatchesVectorizedPipeline) {
  storage::BlockStore store;
  storage::StorageOptions opts;
  opts.max_rows_per_block = 256;
  storage::TableShard shard(SalesSchema(), opts, &store);
  FillSales(&shard, 3000, 7);

  auto predicate =
      Cmp(CmpOp::kEq, Col(1, TypeId::kInt64), Lit(Datum::Int64(4)));
  std::vector<AggSpec> aggs = {{AggFn::kCount, -1}, {AggFn::kSum, 2}};

  // Vectorized ("compiled") pipeline.
  auto vec = HashAggregate(
      Filter(ShardScan(&shard, {0, 1, 2}), predicate), {0}, aggs);
  auto vec_out = Collect(Sort(std::move(vec), {{0, false}}).get());
  ASSERT_TRUE(vec_out.ok());

  // Tuple-at-a-time (interpreted) pipeline.
  auto row_pipe =
      RowAggregate(RowFilter(RowScan(&shard, {0, 1, 2}), predicate), {0}, aggs);
  auto row_collected = CollectRows(
      row_pipe.get(), {TypeId::kInt64, TypeId::kInt64, TypeId::kDouble});
  ASSERT_TRUE(row_collected.ok());
  // Row groups come back in key order, vectorized ones in first-seen
  // order: sort both.
  std::vector<Batch> row_batches;
  auto row_types = row_collected->Types();
  row_batches.push_back(std::move(*row_collected));
  auto row_out = Collect(
      Sort(MemoryScan(row_types, std::move(row_batches)), {{0, false}}).get());
  ASSERT_TRUE(row_out.ok());

  ASSERT_EQ(vec_out->num_rows(), row_out->num_rows());
  for (size_t i = 0; i < vec_out->num_rows(); ++i) {
    EXPECT_EQ(vec_out->columns[0].IntAt(i), row_out->columns[0].IntAt(i));
    EXPECT_EQ(vec_out->columns[1].IntAt(i), row_out->columns[1].IntAt(i));
    EXPECT_NEAR(vec_out->columns[2].DoubleAt(i),
                row_out->columns[2].DoubleAt(i), 1e-6);
  }
}

TEST(OperatorTest, SortPlacesNullsFirst) {
  ColumnVector v(TypeId::kInt64);
  v.AppendInt(5);
  v.AppendNull();
  v.AppendInt(-1);
  v.AppendNull();
  Batch b;
  b.columns.push_back(std::move(v));
  auto types = b.Types();
  std::vector<Batch> batches;
  batches.push_back(std::move(b));
  auto sorted =
      Sort(MemoryScan(types, std::move(batches)), {{0, false}});
  auto out = Collect(sorted.get());
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->columns[0].IsNull(0));
  EXPECT_TRUE(out->columns[0].IsNull(1));
  EXPECT_EQ(out->columns[0].IntAt(2), -1);
  EXPECT_EQ(out->columns[0].IntAt(3), 5);
  // Descending flips them last.
  std::vector<Batch> batches2;
  Batch b2 = MakeBatch(types);
  SDW_CHECK_OK(b2.columns[0].AppendRange(out->columns[0], 0, 4));
  batches2.push_back(std::move(b2));
  auto desc = Collect(
      Sort(MemoryScan(types, std::move(batches2)), {{0, true}}).get());
  ASSERT_TRUE(desc.ok());
  EXPECT_EQ(desc->columns[0].IntAt(0), 5);
  EXPECT_TRUE(desc->columns[0].IsNull(3));
}

TEST(OperatorTest, LimitZeroAndEmptyInputs) {
  auto empty = MemoryScan({TypeId::kInt64}, {});
  auto limited = Limit(std::move(empty), 0);
  auto out = Collect(limited.get());
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->num_rows(), 0u);
  // Join against an empty build side yields nothing.
  auto probe = ScanOf(IntBatch({{1, 2, 3}}));
  auto build = MemoryScan({TypeId::kInt64}, {});
  auto join = HashJoin(std::move(probe), std::move(build), {0}, {0});
  auto jout = Collect(join.get());
  ASSERT_TRUE(jout.ok());
  EXPECT_EQ(jout->num_rows(), 0u);
}

TEST(OperatorTest, MultiColumnJoinKeys) {
  // Composite keys: (a, b) must match both components.
  auto probe = ScanOf(IntBatch({{1, 1, 2}, {10, 20, 10}, {7, 8, 9}}));
  auto build = ScanOf(IntBatch({{1, 2}, {10, 10}, {100, 200}}));
  auto join =
      HashJoin(std::move(probe), std::move(build), {0, 1}, {0, 1});
  auto out = Collect(join.get());
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->num_rows(), 2u);  // (1,10) and (2,10) match
  EXPECT_EQ(out->columns[2].IntAt(0), 7);
  EXPECT_EQ(out->columns[5].IntAt(0), 100);
  EXPECT_EQ(out->columns[2].IntAt(1), 9);
  EXPECT_EQ(out->columns[5].IntAt(1), 200);
}

TEST(ExprTest, StartsWithEmptyPrefixMatchesAll) {
  ColumnVector s(TypeId::kString);
  s.AppendString("");
  s.AppendString("abc");
  Batch b;
  b.columns.push_back(std::move(s));
  auto e = StartsWith(Col(0, TypeId::kString), "");
  auto r = e->EvalBatch(b);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->IntAt(0), 1);
  EXPECT_EQ(r->IntAt(1), 1);
}

TEST(RowExecutorTest, ProjectAndFilter) {
  storage::BlockStore store;
  storage::TableShard shard(SalesSchema(), {}, &store);
  FillSales(&shard, 100, 1);
  auto pipe = RowProject(
      RowFilter(RowScan(&shard, {0, 1, 2}),
                Cmp(CmpOp::kLt, Col(0, TypeId::kInt64), Lit(Datum::Int64(2)))),
      {Arith(ArithOp::kAdd, Col(0, TypeId::kInt64), Col(1, TypeId::kInt64))});
  auto out = CollectRows(pipe.get(), {TypeId::kInt64});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->num_rows(), 20u);
}

// ---------------------------------------------------------------------------
// Integer SUM overflow: both engines return OutOfRange instead of
// wrapping, in the per-slice partial and in the leader's final merge.
// ---------------------------------------------------------------------------

constexpr int64_t kNearMax = std::numeric_limits<int64_t>::max() - 1;

TEST(OperatorTest, SumOverflowIsOutOfRange) {
  for (AggMode mode : {AggMode::kSingle, AggMode::kPartial}) {
    auto agg = HashAggregate(ScanOf(IntBatch({{1, 1}, {kNearMax, kNearMax}})),
                             {0}, {{AggFn::kSum, 1}}, mode);
    EXPECT_EQ(Collect(agg.get()).status().code(), StatusCode::kOutOfRange);
  }
  // Below INT64_MIN too, and in a global aggregate.
  auto low = HashAggregate(
      ScanOf(IntBatch({{std::numeric_limits<int64_t>::min(), -1}})), {},
      {{AggFn::kSum, 0}});
  EXPECT_EQ(Collect(low.get()).status().code(), StatusCode::kOutOfRange);
  // Two partials that each fit overflow only when the leader merges them.
  std::vector<Batch> partials;
  partials.push_back(IntBatch({{1}, {kNearMax}}));
  partials.push_back(IntBatch({{1}, {kNearMax}}));
  auto final_agg =
      HashAggregate(MemoryScan({TypeId::kInt64, TypeId::kInt64},
                               std::move(partials)),
                    {0}, {{AggFn::kSum, 1}}, AggMode::kFinal);
  EXPECT_EQ(Collect(final_agg.get()).status().code(),
            StatusCode::kOutOfRange);
}

TEST(RowExecutorTest, SumOverflowIsOutOfRange) {
  storage::BlockStore store;
  storage::TableShard shard(TableSchema("t", {{"v", TypeId::kInt64}}), {},
                            &store);
  std::vector<ColumnVector> run;
  run.push_back(ColumnVector::TakeInts(TypeId::kInt64, {kNearMax, kNearMax}));
  ASSERT_TRUE(shard.Append(run).ok());
  auto pipe = RowAggregate(RowScan(&shard, {0}), {}, {{AggFn::kSum, 0}});
  EXPECT_EQ(CollectRows(pipe.get(), {TypeId::kInt64}).status().code(),
            StatusCode::kOutOfRange);
}

/// SUM(v) through the cluster executor in every engine and pool setting.
/// With `same_slice` both rows share a dist key, so the slice's partial
/// overflows; otherwise round-robin puts them on two slices and only the
/// leader's final merge overflows.
void ExpectClusterSumOverflow(bool same_slice) {
  cluster::ClusterConfig config;
  config.num_nodes = 2;
  config.slices_per_node = 2;
  cluster::Cluster cluster(config);
  TableSchema schema("t", {{"k", TypeId::kInt64}, {"v", TypeId::kInt64}});
  if (same_slice) {
    ASSERT_TRUE(schema.SetDistKey("k").ok());
  } else {
    schema.SetDistStyle(DistStyle::kEven);
  }
  ASSERT_TRUE(cluster.CreateTable(schema).ok());
  std::vector<ColumnVector> cols;
  cols.push_back(ColumnVector::TakeInts(TypeId::kInt64, {7, 7}));
  cols.push_back(ColumnVector::TakeInts(TypeId::kInt64, {kNearMax, kNearMax}));
  ASSERT_TRUE(cluster.InsertRows("t", cols).ok());

  plan::LogicalQuery q;
  q.from_table = "t";
  q.select = {{plan::LogicalAggFn::kSum, {"", "v"}, "s"}};
  plan::Planner planner(cluster.catalog());
  auto physical = planner.Plan(q);
  ASSERT_TRUE(physical.ok()) << physical.status();
  for (auto mode : {cluster::ExecutionMode::kCompiled,
                    cluster::ExecutionMode::kInterpreted}) {
    for (int pool_size : {0, 4}) {
      cluster::ExecOptions options;
      options.mode = mode;
      options.pool_size = pool_size;
      cluster::QueryExecutor executor(&cluster, options);
      EXPECT_EQ(executor.Execute(*physical).status().code(),
                StatusCode::kOutOfRange)
          << "same_slice=" << same_slice << " interpreted="
          << (mode == cluster::ExecutionMode::kInterpreted)
          << " pool=" << pool_size;
    }
  }
}

TEST(ClusterSumOverflowTest, PartialOverflowIsOutOfRange) {
  ExpectClusterSumOverflow(/*same_slice=*/true);
}

TEST(ClusterSumOverflowTest, FinalMergeOverflowIsOutOfRange) {
  ExpectClusterSumOverflow(/*same_slice=*/false);
}

// The interpreted engine keys its groups by value: distinct doubles that
// print alike under %g stay apart, and -0.0 groups with 0.0.
TEST(RowExecutorTest, DistinctDoubleKeysStayApart) {
  storage::BlockStore store;
  storage::TableShard shard(TableSchema("t", {{"x", TypeId::kDouble}}), {},
                            &store);
  std::vector<ColumnVector> run;
  run.push_back(ColumnVector::TakeDoubles({1234567.0, 1234568.0, 0.0, -0.0}));
  ASSERT_TRUE(shard.Append(run).ok());
  auto pipe = RowAggregate(RowScan(&shard, {0}), {0}, {{AggFn::kCount, -1}});
  auto out = CollectRows(pipe.get(), {TypeId::kDouble, TypeId::kInt64});
  ASSERT_TRUE(out.ok()) << out.status();
  ASSERT_EQ(out->num_rows(), 3u);
  // Ordered by value: 0 (twice), 1234567, 1234568.
  EXPECT_EQ(out->columns[0].DoubleAt(0), 0.0);
  EXPECT_EQ(out->columns[1].IntAt(0), 2);
  EXPECT_EQ(out->columns[0].DoubleAt(1), 1234567.0);
  EXPECT_EQ(out->columns[1].IntAt(1), 1);
  EXPECT_EQ(out->columns[0].DoubleAt(2), 1234568.0);
  EXPECT_EQ(out->columns[1].IntAt(2), 1);
}

}  // namespace
}  // namespace sdw::exec
