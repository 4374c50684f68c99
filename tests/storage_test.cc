#include <gtest/gtest.h>

#include <algorithm>

#include "common/random.h"
#include "obs/registry.h"
#include "storage/block_store.h"
#include "storage/table_shard.h"
#include "storage/zone_map.h"

namespace sdw::storage {
namespace {

// ---------------------------------------------------------------------------
// BlockStore
// ---------------------------------------------------------------------------

TEST(BlockStoreTest, PutGetDelete) {
  BlockStore store;
  BlockId id = store.Allocate();
  Bytes data = {1, 2, 3, 4};
  ASSERT_TRUE(store.Put(id, data).ok());
  EXPECT_TRUE(store.Contains(id));
  auto got = store.Get(id);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, data);
  ASSERT_TRUE(store.Delete(id).ok());
  EXPECT_FALSE(store.Contains(id));
  EXPECT_EQ(store.Delete(id).code(), StatusCode::kNotFound);
}

TEST(BlockStoreTest, BlocksAreImmutable) {
  BlockStore store;
  BlockId id = store.Allocate();
  ASSERT_TRUE(store.Put(id, {1}).ok());
  EXPECT_EQ(store.Put(id, {2}).code(), StatusCode::kAlreadyExists);
}

TEST(BlockStoreTest, ChecksumDetectsCorruption) {
  BlockStore store;
  BlockId id = store.Allocate();
  ASSERT_TRUE(store.Put(id, Bytes(100, 7)).ok());
  store.CorruptForTest(id);
  EXPECT_EQ(store.Get(id).status().code(), StatusCode::kCorruption);
}

TEST(BlockStoreTest, MissWithoutHandlerIsUnavailable) {
  BlockStore store;
  EXPECT_EQ(store.Get(42).status().code(), StatusCode::kUnavailable);
}

TEST(BlockStoreTest, FaultHandlerPagesBlockIn) {
  BlockStore store;
  int handler_calls = 0;
  store.set_fault_handler([&](BlockId id) -> Result<Bytes> {
    ++handler_calls;
    return Bytes{static_cast<uint8_t>(id), 9, 9};
  });
  auto got = store.Get(5);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ((*got)[0], 5);
  EXPECT_EQ(handler_calls, 1);
  EXPECT_EQ(store.faults(), 1u);
  // Second read is local: handler not called again.
  ASSERT_TRUE(store.Get(5).ok());
  EXPECT_EQ(handler_calls, 1);
}

TEST(BlockStoreTest, AccountsBytes) {
  BlockStore store;
  BlockId a = store.Allocate();
  BlockId b = store.Allocate();
  ASSERT_TRUE(store.Put(a, Bytes(100)).ok());
  ASSERT_TRUE(store.Put(b, Bytes(50)).ok());
  EXPECT_EQ(store.total_bytes(), 150u);
  EXPECT_EQ(store.num_blocks(), 2u);
  ASSERT_TRUE(store.Delete(a).ok());
  EXPECT_EQ(store.total_bytes(), 50u);
  EXPECT_EQ(store.ListIds(), (std::vector<BlockId>{b}));
}

// ---------------------------------------------------------------------------
// ZoneMap
// ---------------------------------------------------------------------------

TEST(ZoneMapTest, TracksMinMax) {
  ZoneMap zone;
  zone.Update(Datum::Int64(10));
  zone.Update(Datum::Int64(-5));
  zone.Update(Datum::Int64(3));
  EXPECT_EQ(zone.min(), Datum::Int64(-5));
  EXPECT_EQ(zone.max(), Datum::Int64(10));
}

TEST(ZoneMapTest, OverlapSemantics) {
  ZoneMap zone;
  zone.Update(Datum::Int64(10));
  zone.Update(Datum::Int64(20));
  EXPECT_TRUE(zone.MayOverlap(Datum::Int64(15), Datum::Int64(25)));
  EXPECT_TRUE(zone.MayOverlap(Datum::Int64(20), Datum::Int64(99)));
  EXPECT_FALSE(zone.MayOverlap(Datum::Int64(21), Datum::Int64(99)));
  EXPECT_FALSE(zone.MayOverlap(Datum::Int64(0), Datum::Int64(9)));
  // Unbounded sides.
  EXPECT_TRUE(zone.MayOverlap(Datum::Null(), Datum::Int64(10)));
  EXPECT_TRUE(zone.MayOverlap(Datum::Int64(10), Datum::Null()));
  EXPECT_TRUE(zone.MayOverlap(Datum::Null(), Datum::Null()));
  EXPECT_TRUE(zone.MayContain(Datum::Int64(15)));
  EXPECT_FALSE(zone.MayContain(Datum::Int64(5)));
}

TEST(ZoneMapTest, PureNullBlockNeverMatchesRanges) {
  ZoneMap zone;
  zone.Update(Datum::Null());
  EXPECT_TRUE(zone.has_nulls());
  EXPECT_FALSE(zone.has_values());
  EXPECT_FALSE(zone.MayOverlap(Datum::Null(), Datum::Null()));
}

TEST(ZoneMapTest, StringZones) {
  ZoneMap zone;
  zone.Update(Datum::String("banana"));
  zone.Update(Datum::String("cherry"));
  EXPECT_TRUE(zone.MayContain(Datum::String("blueberry")));
  EXPECT_FALSE(zone.MayContain(Datum::String("apple")));
}

// ---------------------------------------------------------------------------
// TableShard
// ---------------------------------------------------------------------------

TableSchema EventsSchema() {
  TableSchema s("events", {
                              {"ts", TypeId::kInt64},
                              {"user_id", TypeId::kInt64},
                              {"payload", TypeId::kString},
                          });
  return s;
}

std::vector<ColumnVector> MakeRun(int64_t start_ts, size_t n, uint64_t seed) {
  Rng rng(seed);
  ColumnVector ts(TypeId::kInt64);
  ColumnVector user(TypeId::kInt64);
  ColumnVector payload(TypeId::kString);
  for (size_t i = 0; i < n; ++i) {
    ts.AppendInt(start_ts + static_cast<int64_t>(i));
    user.AppendInt(rng.UniformRange(0, 999));
    payload.AppendString("p" + std::to_string(rng.Uniform(50)));
  }
  std::vector<ColumnVector> run;
  run.push_back(std::move(ts));
  run.push_back(std::move(user));
  run.push_back(std::move(payload));
  return run;
}

StorageOptions SmallBlocks() {
  StorageOptions opts;
  opts.block_bytes = 2048;  // many blocks from small data
  opts.max_rows_per_block = 256;
  return opts;
}

TEST(TableShardTest, AppendAndReadAll) {
  BlockStore store;
  TableShard shard(EventsSchema(), SmallBlocks(), &store);
  ASSERT_TRUE(shard.Append(MakeRun(0, 1000, 1)).ok());
  EXPECT_EQ(shard.row_count(), 1000u);
  EXPECT_GT(store.num_blocks(), 3u);  // chunked into multiple blocks
  auto cols = shard.ReadAll({0, 1, 2});
  ASSERT_TRUE(cols.ok());
  ASSERT_EQ((*cols)[0].size(), 1000u);
  EXPECT_EQ((*cols)[0].IntAt(0), 0);
  EXPECT_EQ((*cols)[0].IntAt(999), 999);
}

TEST(TableShardTest, MultipleRunsConcatenate) {
  BlockStore store;
  TableShard shard(EventsSchema(), SmallBlocks(), &store);
  ASSERT_TRUE(shard.Append(MakeRun(0, 300, 1)).ok());
  ASSERT_TRUE(shard.Append(MakeRun(300, 300, 2)).ok());
  EXPECT_EQ(shard.row_count(), 600u);
  auto cols = shard.ReadRange({0}, {295, 305});
  ASSERT_TRUE(cols.ok());
  ASSERT_EQ((*cols)[0].size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ((*cols)[0].IntAt(i), 295 + i);
}

TEST(TableShardTest, RejectsMalformedRuns) {
  BlockStore store;
  TableShard shard(EventsSchema(), SmallBlocks(), &store);
  auto run = MakeRun(0, 10, 1);
  run.pop_back();
  EXPECT_FALSE(shard.Append(run).ok());  // missing column
  auto ragged = MakeRun(0, 10, 1);
  ragged[1].AppendInt(11);
  EXPECT_FALSE(shard.Append(ragged).ok());  // ragged
  std::vector<ColumnVector> wrong_type;
  wrong_type.emplace_back(TypeId::kString);
  wrong_type.emplace_back(TypeId::kInt64);
  wrong_type.emplace_back(TypeId::kString);
  EXPECT_FALSE(shard.Append(wrong_type).ok());
}

TEST(TableShardTest, EmptyAppendIsNoop) {
  BlockStore store;
  TableShard shard(EventsSchema(), SmallBlocks(), &store);
  std::vector<ColumnVector> empty;
  empty.emplace_back(TypeId::kInt64);
  empty.emplace_back(TypeId::kInt64);
  empty.emplace_back(TypeId::kString);
  ASSERT_TRUE(shard.Append(empty).ok());
  EXPECT_EQ(shard.row_count(), 0u);
  EXPECT_TRUE(shard.CandidateRanges({}).empty());
}

TEST(TableShardTest, CandidateRangesPruneSortedColumn) {
  BlockStore store;
  TableShard shard(EventsSchema(), SmallBlocks(), &store);
  ASSERT_TRUE(shard.Append(MakeRun(0, 2000, 1)).ok());  // ts sorted 0..1999
  // Predicate on a narrow ts range must prune most blocks.
  RangePredicate pred{0, Datum::Int64(500), Datum::Int64(520)};
  auto ranges = shard.CandidateRanges({pred});
  ASSERT_FALSE(ranges.empty());
  uint64_t covered = 0;
  for (const auto& r : ranges) {
    covered += r.size();
    // Candidates must include all matching rows.
    EXPECT_LE(r.begin, 500u);
  }
  EXPECT_LT(covered, 2000u / 2);  // pruned more than half
  // All matching rows are inside some candidate.
  bool contains = false;
  for (const auto& r : ranges) {
    if (r.begin <= 500 && 521 <= r.end) contains = true;
  }
  EXPECT_TRUE(contains);
}

TEST(TableShardTest, NoPredicateScansEverything) {
  BlockStore store;
  TableShard shard(EventsSchema(), SmallBlocks(), &store);
  ASSERT_TRUE(shard.Append(MakeRun(0, 500, 1)).ok());
  auto ranges = shard.CandidateRanges({});
  ASSERT_EQ(ranges.size(), 1u);
  EXPECT_EQ(ranges[0], (RowRange{0, 500}));
}

TEST(TableShardTest, ImpossiblePredicateYieldsNothing) {
  BlockStore store;
  TableShard shard(EventsSchema(), SmallBlocks(), &store);
  ASSERT_TRUE(shard.Append(MakeRun(0, 500, 1)).ok());
  RangePredicate pred{0, Datum::Int64(10000), Datum::Int64(20000)};
  EXPECT_TRUE(shard.CandidateRanges({pred}).empty());
}

TEST(TableShardTest, ConjunctionIntersectsRanges) {
  BlockStore store;
  TableShard shard(EventsSchema(), SmallBlocks(), &store);
  ASSERT_TRUE(shard.Append(MakeRun(0, 2000, 1)).ok());
  RangePredicate p1{0, Datum::Int64(100), Datum::Int64(1900)};
  RangePredicate p2{0, Datum::Int64(1000), Datum::Int64(1100)};
  auto both = shard.CandidateRanges({p1, p2});
  auto narrow = shard.CandidateRanges({p2});
  uint64_t both_rows = 0;
  uint64_t narrow_rows = 0;
  for (const auto& r : both) both_rows += r.size();
  for (const auto& r : narrow) narrow_rows += r.size();
  EXPECT_EQ(both_rows, narrow_rows);  // p2 subsumes p1
}

TEST(TableShardTest, ScanVerifiesAgainstFullScan) {
  // Property: zone-map pruned scan returns exactly the rows a full scan
  // plus filter returns.
  BlockStore store;
  TableShard shard(EventsSchema(), SmallBlocks(), &store);
  // Semi-sorted data: sorted ts with occasional jitter.
  Rng rng(9);
  ColumnVector ts(TypeId::kInt64);
  ColumnVector user(TypeId::kInt64);
  ColumnVector payload(TypeId::kString);
  for (int i = 0; i < 3000; ++i) {
    ts.AppendInt(i + rng.UniformRange(-3, 3));
    user.AppendInt(rng.UniformRange(0, 99));
    payload.AppendString("x");
  }
  std::vector<ColumnVector> run;
  run.push_back(std::move(ts));
  run.push_back(std::move(user));
  run.push_back(std::move(payload));
  ASSERT_TRUE(shard.Append(run).ok());

  for (int64_t lo : {0, 500, 1500, 2990}) {
    const int64_t hi = lo + 40;
    RangePredicate pred{0, Datum::Int64(lo), Datum::Int64(hi)};
    // Pruned scan.
    std::vector<int64_t> pruned;
    for (const auto& range : shard.CandidateRanges({pred})) {
      auto cols = shard.ReadRange({0}, range);
      ASSERT_TRUE(cols.ok());
      for (size_t i = 0; i < (*cols)[0].size(); ++i) {
        int64_t v = (*cols)[0].IntAt(i);
        if (v >= lo && v <= hi) pruned.push_back(v);
      }
    }
    // Full scan.
    std::vector<int64_t> full;
    auto cols = shard.ReadAll({0});
    ASSERT_TRUE(cols.ok());
    for (size_t i = 0; i < (*cols)[0].size(); ++i) {
      int64_t v = (*cols)[0].IntAt(i);
      if (v >= lo && v <= hi) full.push_back(v);
    }
    EXPECT_EQ(pruned, full) << "range [" << lo << "," << hi << "]";
  }
}

TEST(TableShardTest, BlockSkippingReducesDecodes) {
  BlockStore store;
  TableShard shard(EventsSchema(), SmallBlocks(), &store);
  ASSERT_TRUE(shard.Append(MakeRun(0, 4000, 1)).ok());
  // Real decodes, process-wide; each read starts from a cold cache.
  obs::Counter* decoded =
      obs::Registry::Global().counter("sdw_storage_blocks_decoded");
  shard.DropDecodeCache();
  const uint64_t before_pruned = decoded->value();
  // Narrow predicate on the sorted column.
  RangePredicate pred{0, Datum::Int64(2000), Datum::Int64(2010)};
  for (const auto& range : shard.CandidateRanges({pred})) {
    ASSERT_TRUE(shard.ReadRange({0}, range).ok());
  }
  uint64_t pruned_decodes = decoded->value() - before_pruned;
  shard.DropDecodeCache();
  const uint64_t before_full = decoded->value();
  ASSERT_TRUE(shard.ReadAll({0}).ok());
  uint64_t full_decodes = decoded->value() - before_full;
  EXPECT_LT(pruned_decodes * 4, full_decodes);
}

TEST(TableShardTest, ReadRangeBoundsChecked) {
  BlockStore store;
  TableShard shard(EventsSchema(), SmallBlocks(), &store);
  ASSERT_TRUE(shard.Append(MakeRun(0, 100, 1)).ok());
  EXPECT_FALSE(shard.ReadRange({0}, {0, 200}).ok());
  EXPECT_FALSE(shard.ReadRange({7}, {0, 10}).ok());
  EXPECT_FALSE(shard.ReadRange({-1}, {0, 10}).ok());
}

TEST(TableShardTest, AllBlockIdsCoverChains) {
  BlockStore store;
  TableShard shard(EventsSchema(), SmallBlocks(), &store);
  ASSERT_TRUE(shard.Append(MakeRun(0, 1000, 1)).ok());
  auto ids = shard.AllBlockIds();
  EXPECT_EQ(ids.size(), store.num_blocks());
  for (BlockId id : ids) EXPECT_TRUE(store.Contains(id));
}

TEST(TableShardTest, EncodedColumnsUseSchemaEncoding) {
  TableSchema schema = EventsSchema();
  schema.SetColumnEncoding(0, ColumnEncoding::kDelta);
  schema.SetColumnEncoding(2, ColumnEncoding::kBytedict);
  BlockStore store_encoded;
  TableShard encoded(schema, SmallBlocks(), &store_encoded);
  ASSERT_TRUE(encoded.Append(MakeRun(0, 2000, 1)).ok());

  BlockStore store_raw;
  TableShard raw(EventsSchema(), SmallBlocks(), &store_raw);
  ASSERT_TRUE(raw.Append(MakeRun(0, 2000, 1)).ok());

  EXPECT_LT(encoded.encoded_bytes(), raw.encoded_bytes());
  // And data still reads back identically.
  auto a = encoded.ReadAll({0, 2});
  auto b = raw.ReadAll({0, 2});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  for (size_t i = 0; i < (*a)[0].size(); ++i) {
    EXPECT_EQ((*a)[0].IntAt(i), (*b)[0].IntAt(i));
    EXPECT_EQ((*a)[1].StringAt(i), (*b)[1].StringAt(i));
  }
}

}  // namespace
}  // namespace sdw::storage
