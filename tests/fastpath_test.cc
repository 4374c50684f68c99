// Tests for the performance paths: selection-vector filtering, the
// typed aggregation kernel, decode caching, bulk AppendRange and the
// lane-wrapping constructors. Each must be behaviourally identical to a
// plain row-by-row reference.

#include <gtest/gtest.h>

#include <map>

#include "common/logging.h"
#include "common/random.h"
#include "exec/expr.h"
#include "exec/operators.h"
#include "obs/registry.h"
#include "storage/block_store.h"
#include "storage/table_shard.h"

namespace sdw {
namespace {

// ---------------------------------------------------------------------------
// ColumnVector bulk paths
// ---------------------------------------------------------------------------

TEST(AppendSelectedTest, SelectsInOrderWithNulls) {
  ColumnVector src(TypeId::kInt64);
  src.AppendInt(10);
  src.AppendNull();
  src.AppendInt(30);
  src.AppendInt(40);
  ColumnVector dst(TypeId::kInt64);
  ASSERT_TRUE(dst.AppendSelected(src, {3, 1, 1, 0}).ok());
  ASSERT_EQ(dst.size(), 4u);
  EXPECT_EQ(dst.IntAt(0), 40);
  EXPECT_TRUE(dst.IsNull(1));
  EXPECT_TRUE(dst.IsNull(2));
  EXPECT_EQ(dst.IntAt(3), 10);
  EXPECT_EQ(dst.null_count(), 2u);
}

TEST(AppendSelectedTest, AllTypesAndEmptySelection) {
  for (TypeId type : {TypeId::kInt64, TypeId::kDouble, TypeId::kString}) {
    ColumnVector src(type);
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(src.AppendDatum(type == TypeId::kString
                                      ? Datum::String(std::to_string(i))
                                  : type == TypeId::kDouble
                                      ? Datum::Double(i * 1.5)
                                      : Datum::Int64(i))
                      .ok());
    }
    ColumnVector dst(type);
    ASSERT_TRUE(dst.AppendSelected(src, {}).ok());
    EXPECT_EQ(dst.size(), 0u);
    ASSERT_TRUE(dst.AppendSelected(src, {9, 0}).ok());
    EXPECT_EQ(dst.DatumAt(0).Compare(src.DatumAt(9)), 0);
    EXPECT_EQ(dst.DatumAt(1).Compare(src.DatumAt(0)), 0);
  }
  ColumnVector ints(TypeId::kInt64);
  ColumnVector strs(TypeId::kString);
  EXPECT_FALSE(strs.AppendSelected(ints, {}).ok());
}

TEST(TakeLanesTest, WrapWithoutCopy) {
  std::vector<int64_t> lane = {1, 2, 3};
  ColumnVector v = ColumnVector::TakeInts(TypeId::kDate, std::move(lane));
  EXPECT_EQ(v.type(), TypeId::kDate);
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v.IntAt(2), 3);
  EXPECT_FALSE(v.has_nulls());
  ColumnVector d = ColumnVector::TakeDoubles({1.5, 2.5});
  EXPECT_DOUBLE_EQ(d.DoubleAt(1), 2.5);
}

// ---------------------------------------------------------------------------
// Filter fast path vs a reference row filter
// ---------------------------------------------------------------------------

TEST(FilterFastPathTest, MatchesRowByRowSemantics) {
  Rng rng(3);
  exec::Batch batch;
  ColumnVector a(TypeId::kInt64);
  ColumnVector b(TypeId::kString);
  for (int i = 0; i < 5000; ++i) {
    if (rng.Bernoulli(0.05)) {
      a.AppendNull();
    } else {
      a.AppendInt(rng.UniformRange(0, 99));
    }
    b.AppendString(std::to_string(i));
  }
  batch.columns.push_back(std::move(a));
  batch.columns.push_back(std::move(b));

  auto pred = exec::Cmp(exec::CmpOp::kLt, exec::Col(0, TypeId::kInt64),
                        exec::Lit(Datum::Int64(30)));
  // Reference: evaluate per row.
  std::vector<std::string> expected;
  for (size_t i = 0; i < batch.num_rows(); ++i) {
    auto keep = pred->EvalRow(batch.RowAt(i));
    ASSERT_TRUE(keep.ok());
    if (!keep->is_null() && keep->int_value() != 0) {
      expected.emplace_back(batch.columns[1].StringAt(i));
    }
  }
  // Fast path through the operator.
  auto types = batch.Types();
  std::vector<exec::Batch> batches;
  batches.push_back(std::move(batch));
  auto filtered =
      exec::Filter(exec::MemoryScan(types, std::move(batches)), pred);
  auto out = exec::Collect(filtered.get());
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->num_rows(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(out->columns[1].StringAt(i), expected[i]);
  }
}

TEST(FilterFastPathTest, PassThroughWhenNothingFiltered) {
  exec::Batch batch;
  ColumnVector a(TypeId::kInt64);
  for (int i = 0; i < 100; ++i) a.AppendInt(i);
  batch.columns.push_back(std::move(a));
  auto types = batch.Types();
  std::vector<exec::Batch> batches;
  batches.push_back(std::move(batch));
  auto filtered = exec::Filter(
      exec::MemoryScan(types, std::move(batches)),
      exec::Cmp(exec::CmpOp::kGe, exec::Col(0, TypeId::kInt64),
                exec::Lit(Datum::Int64(0))));
  auto out = exec::Collect(filtered.get());
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->num_rows(), 100u);
}

// ---------------------------------------------------------------------------
// Aggregation: one typed path for every key and aggregate
// ---------------------------------------------------------------------------

exec::Batch MakeAggBatch(size_t n, uint64_t seed, bool with_nulls) {
  Rng rng(seed);
  exec::Batch batch;
  ColumnVector key(TypeId::kInt64);
  ColumnVector iv(TypeId::kInt64);
  ColumnVector dv(TypeId::kDouble);
  for (size_t i = 0; i < n; ++i) {
    key.AppendInt(rng.UniformRange(0, 19));
    if (with_nulls && rng.Bernoulli(0.1)) {
      iv.AppendNull();
    } else {
      iv.AppendInt(rng.UniformRange(-50, 50));
    }
    dv.AppendDouble(rng.NextDouble());
  }
  batch.columns.push_back(std::move(key));
  batch.columns.push_back(std::move(iv));
  batch.columns.push_back(std::move(dv));
  return batch;
}

exec::Batch RunAgg(exec::Batch input, const std::vector<exec::AggSpec>& aggs,
                   std::vector<int> group_by) {
  auto types = input.Types();
  std::vector<exec::Batch> batches;
  batches.push_back(std::move(input));
  auto agg = exec::HashAggregate(exec::MemoryScan(types, std::move(batches)),
                                 std::move(group_by), aggs);
  auto sorted = exec::Sort(std::move(agg), {{0, false}});
  auto out = exec::Collect(sorted.get());
  SDW_CHECK(out.ok());
  return std::move(*out);
}

TEST(AggSinglePathTest, CountSumMatchRowByRowReference) {
  // Integer key with COUNT(*)/SUM(int)/SUM(double) — the shape the old
  // integer fast path took — must equal a row-by-row reference, and
  // adding a MIN (which the old generic path needed) changes nothing.
  std::vector<exec::AggSpec> aggs = {{exec::AggFn::kCount, -1},
                                     {exec::AggFn::kSum, 1},
                                     {exec::AggFn::kSum, 2}};
  std::vector<exec::AggSpec> with_min = aggs;
  with_min.push_back({exec::AggFn::kMin, 1});

  for (bool with_nulls : {false, true}) {
    exec::Batch input = MakeAggBatch(20000, 7, with_nulls);
    struct Ref {
      int64_t count = 0;
      int64_t sum = 0;
      double dsum = 0;
    };
    std::map<int64_t, Ref> ref;
    for (size_t i = 0; i < input.num_rows(); ++i) {
      Ref& r = ref[input.columns[0].IntAt(i)];
      ++r.count;
      if (!input.columns[1].IsNull(i)) r.sum += input.columns[1].IntAt(i);
      r.dsum += input.columns[2].DoubleAt(i);
    }
    exec::Batch plain = RunAgg(MakeAggBatch(20000, 7, with_nulls), aggs, {0});
    exec::Batch wider =
        RunAgg(MakeAggBatch(20000, 7, with_nulls), with_min, {0});
    ASSERT_EQ(plain.num_rows(), ref.size());
    ASSERT_EQ(wider.num_rows(), ref.size());
    size_t i = 0;
    for (const auto& [key, r] : ref) {
      for (const exec::Batch* out : {&plain, &wider}) {
        EXPECT_EQ(out->columns[0].IntAt(i), key);
        EXPECT_EQ(out->columns[1].IntAt(i), r.count);
        EXPECT_EQ(out->columns[2].IntAt(i), r.sum);
        EXPECT_EQ(out->columns[3].DoubleAt(i), r.dsum);  // row order kept
      }
      ++i;
    }
  }
}

TEST(AggSinglePathTest, NullKeysFormOneGroup) {
  // NULL keys group together, next to the non-NULL groups.
  exec::Batch batch;
  ColumnVector key(TypeId::kInt64);
  ColumnVector v(TypeId::kInt64);
  key.AppendInt(1);
  v.AppendInt(10);
  key.AppendNull();
  v.AppendInt(20);
  key.AppendNull();
  v.AppendInt(30);
  batch.columns.push_back(std::move(key));
  batch.columns.push_back(std::move(v));
  exec::Batch out = RunAgg(std::move(batch),
                           {{exec::AggFn::kCount, -1},
                            {exec::AggFn::kSum, 1}},
                           {0});
  ASSERT_EQ(out.num_rows(), 2u);  // NULL group + group 1
  EXPECT_TRUE(out.columns[0].IsNull(0));
  EXPECT_EQ(out.columns[2].IntAt(0), 50);  // NULL group sums 20+30
  EXPECT_EQ(out.columns[2].IntAt(1), 10);
}

TEST(AggSinglePathTest, NullFreeAndNullKeyBatchesShareGroups) {
  // Stream two batches, one null-free and one with NULL keys: both land
  // in the same key table, in first-seen order.
  exec::Batch clean;
  {
    ColumnVector key(TypeId::kInt64);
    ColumnVector v(TypeId::kInt64);
    for (int i = 0; i < 100; ++i) {
      key.AppendInt(i % 5);
      v.AppendInt(1);
    }
    clean.columns.push_back(std::move(key));
    clean.columns.push_back(std::move(v));
  }
  exec::Batch dirty;
  {
    ColumnVector key(TypeId::kInt64);
    ColumnVector v(TypeId::kInt64);
    for (int i = 0; i < 50; ++i) {
      if (i % 10 == 0) {
        key.AppendNull();
      } else {
        key.AppendInt(i % 5);
      }
      v.AppendInt(1);
    }
    dirty.columns.push_back(std::move(key));
    dirty.columns.push_back(std::move(v));
  }
  auto types = clean.Types();
  std::vector<exec::Batch> batches;
  batches.push_back(std::move(clean));
  batches.push_back(std::move(dirty));
  auto agg = exec::HashAggregate(exec::MemoryScan(types, std::move(batches)),
                                 {0}, {{exec::AggFn::kSum, 1}});
  auto out = exec::Collect(agg.get());
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->num_rows(), 6u);  // 5 keys, then NULL
  int64_t total = 0;
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(out->columns[0].IntAt(i), static_cast<int64_t>(i));
    total += out->columns[1].IntAt(i);
  }
  EXPECT_TRUE(out->columns[0].IsNull(5));
  EXPECT_EQ(out->columns[1].IntAt(5), 5);
  EXPECT_EQ(total + out->columns[1].IntAt(5), 150);
}

// ---------------------------------------------------------------------------
// Decode cache
// ---------------------------------------------------------------------------

TEST(DecodeCacheTest, RepeatReadsDoNotRecount) {
  storage::BlockStore store;
  TableSchema schema("t", {{"a", TypeId::kInt64}});
  storage::StorageOptions options;
  options.max_rows_per_block = 100;
  storage::TableShard shard(schema, options, &store);
  ColumnVector a(TypeId::kInt64);
  for (int i = 0; i < 1000; ++i) a.AppendInt(i);
  std::vector<ColumnVector> run;
  run.push_back(std::move(a));
  ASSERT_TRUE(shard.Append(run).ok());

  // Real decodes, process-wide.
  obs::Counter* counter =
      obs::Registry::Global().counter("sdw_storage_blocks_decoded");
  const uint64_t start = counter->value();
  auto decoded = [&] { return counter->value() - start; };
  shard.DropDecodeCache();
  ASSERT_TRUE(shard.ReadRange({0}, {0, 100}).ok());
  EXPECT_EQ(decoded(), 1u);
  // Same block again: served from cache.
  ASSERT_TRUE(shard.ReadRange({0}, {0, 100}).ok());
  EXPECT_EQ(decoded(), 1u);
  ASSERT_TRUE(shard.ReadRange({0}, {50, 150}).ok());
  EXPECT_EQ(decoded(), 2u);  // only block 2 was new
  // Dropping the cache makes the next read decode again.
  shard.DropDecodeCache();
  ASSERT_TRUE(shard.ReadRange({0}, {0, 100}).ok());
  EXPECT_EQ(decoded(), 3u);
}

TEST(DecodeCacheTest, EvictionKeepsResultsCorrect) {
  storage::BlockStore store;
  TableSchema schema("t", {{"a", TypeId::kInt64}});
  storage::StorageOptions options;
  options.max_rows_per_block = 10;  // 100 blocks > cache capacity (64)
  storage::TableShard shard(schema, options, &store);
  ColumnVector a(TypeId::kInt64);
  for (int i = 0; i < 1000; ++i) a.AppendInt(i);
  std::vector<ColumnVector> run;
  run.push_back(std::move(a));
  ASSERT_TRUE(shard.Append(run).ok());
  // Two full passes: eviction churns, data stays right.
  for (int pass = 0; pass < 2; ++pass) {
    auto cols = shard.ReadAll({0});
    ASSERT_TRUE(cols.ok());
    for (int i = 0; i < 1000; ++i) {
      ASSERT_EQ((*cols)[0].IntAt(i), i);
    }
  }
}

TEST(DecodeCacheTest, EvictsLeastRecentlyUsedBlock) {
  storage::BlockStore store;
  TableSchema schema("t", {{"a", TypeId::kInt64}});
  storage::StorageOptions options;
  options.max_rows_per_block = 10;  // 100 blocks > cache capacity (64)
  storage::TableShard shard(schema, options, &store);
  ColumnVector a(TypeId::kInt64);
  for (int i = 0; i < 1000; ++i) a.AppendInt(i);
  std::vector<ColumnVector> run;
  run.push_back(std::move(a));
  ASSERT_TRUE(shard.Append(run).ok());

  obs::Counter* counter =
      obs::Registry::Global().counter("sdw_storage_blocks_decoded");
  shard.DropDecodeCache();
  // Blocks 0..63 fill the cache; block 0 is then read again.
  ASSERT_TRUE(shard.ReadRange({0}, {0, 640}).ok());
  ASSERT_TRUE(shard.ReadRange({0}, {0, 10}).ok());
  const uint64_t start = counter->value();
  auto decoded = [&] { return counter->value() - start; };
  // Block 64 evicts block 1, the least recently used, and not block 0,
  // the first decoded.
  ASSERT_TRUE(shard.ReadRange({0}, {640, 650}).ok());
  EXPECT_EQ(decoded(), 1u);
  ASSERT_TRUE(shard.ReadRange({0}, {0, 10}).ok());
  EXPECT_EQ(decoded(), 1u);
  ASSERT_TRUE(shard.ReadRange({0}, {10, 20}).ok());
  EXPECT_EQ(decoded(), 2u);
}

TEST(DecodeCacheTest, CorruptionStillDetectedOnFirstRead) {
  storage::BlockStore store;
  TableSchema schema("t", {{"a", TypeId::kInt64}});
  storage::StorageOptions options;
  options.max_rows_per_block = 100;
  storage::TableShard shard(schema, options, &store);
  ColumnVector a(TypeId::kInt64);
  for (int i = 0; i < 100; ++i) a.AppendInt(i);
  std::vector<ColumnVector> run;
  run.push_back(std::move(a));
  ASSERT_TRUE(shard.Append(run).ok());
  store.CorruptForTest(shard.chain(0)[0].id);
  EXPECT_EQ(shard.ReadAll({0}).status().code(), StatusCode::kCorruption);
}

// ---------------------------------------------------------------------------
// LoadChains validation (the streaming-restore entry point)
// ---------------------------------------------------------------------------

TEST(LoadChainsTest, RejectsInvalidChains) {
  storage::BlockStore store;
  TableSchema schema("t", {{"a", TypeId::kInt64}, {"b", TypeId::kInt64}});
  storage::TableShard shard(schema, {}, &store);

  // Wrong column count.
  EXPECT_FALSE(shard.LoadChains({{}}).ok());

  // Gap in the row ranges.
  storage::BlockMeta m1;
  m1.id = 1;
  m1.first_row = 0;
  m1.row_count = 10;
  storage::BlockMeta m2 = m1;
  m2.id = 2;
  m2.first_row = 20;  // gap: should be 10
  EXPECT_FALSE(shard.LoadChains({{m1, m2}, {m1}}).ok());

  // Chains disagreeing on total rows.
  storage::BlockMeta m3 = m1;
  m3.row_count = 5;
  EXPECT_FALSE(shard.LoadChains({{m1}, {m3}}).ok());

  // Valid chains accepted; second load rejected (non-empty shard).
  ASSERT_TRUE(shard.LoadChains({{m1}, {m1}}).ok());
  EXPECT_EQ(shard.row_count(), 10u);
  EXPECT_EQ(shard.LoadChains({{m1}, {m1}}).code(),
            StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace sdw
