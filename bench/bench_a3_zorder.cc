// A3: multidimensional z-curves vs compound sort keys vs no sort (§3.3).
// The paper's argument for interleaved sort keys: a compound key is an
// index in disguise — great on its leading column, useless elsewhere —
// while the z-curve "degrades more gracefully ... and still provides
// utility if leading columns are not specified".

#include <cstdio>
#include <numeric>

#include <algorithm>
#include <memory>

#include "bench/bench_util.h"
#include "common/logging.h"
#include "common/random.h"
#include "storage/block_store.h"
#include "storage/table_shard.h"
#include "zorder/zorder.h"

namespace {

using sdw::storage::BlockStore;
using sdw::storage::RangePredicate;
using sdw::storage::StorageOptions;
using sdw::storage::TableShard;

constexpr size_t kRows = 1 << 18;  // 262144
constexpr int kDims = 4;
constexpr int64_t kDomain = 1024;

/// Builds a shard of kRows 4-dim points under the given organization.
std::unique_ptr<TableShard> Build(BlockStore* store, sdw::SortStyle style) {
  std::vector<sdw::ColumnDef> defs;
  for (int d = 0; d < kDims; ++d) {
    defs.push_back({"d" + std::to_string(d), sdw::TypeId::kInt64});
  }
  sdw::TableSchema schema("points", defs);
  if (style != sdw::SortStyle::kNone) {
    SDW_CHECK_OK(schema.SetSortKey(style, {"d0", "d1", "d2", "d3"}));
  }
  StorageOptions options;
  options.max_rows_per_block = 1024;
  auto shard = std::make_unique<TableShard>(schema, options, store);

  sdw::Rng rng(17);
  std::vector<sdw::ColumnVector> cols;
  for (int d = 0; d < kDims; ++d) cols.emplace_back(sdw::TypeId::kInt64);
  for (size_t i = 0; i < kRows; ++i) {
    for (int d = 0; d < kDims; ++d) {
      cols[d].AppendInt(rng.UniformRange(0, kDomain - 1));
    }
  }
  // Physically order the rows per the organization (what the per-slice
  // sort on COPY does).
  std::vector<uint64_t> order(kRows);
  std::iota(order.begin(), order.end(), 0);
  if (style == sdw::SortStyle::kCompound) {
    std::sort(order.begin(), order.end(), [&](uint64_t a, uint64_t b) {
      for (int d = 0; d < kDims; ++d) {
        if (cols[d].IntAt(a) != cols[d].IntAt(b)) {
          return cols[d].IntAt(a) < cols[d].IntAt(b);
        }
      }
      return false;
    });
  } else if (style == sdw::SortStyle::kInterleaved) {
    std::vector<const sdw::ColumnVector*> key_cols;
    for (auto& c : cols) key_cols.push_back(&c);
    auto mapper = sdw::zorder::BuildMapperFromColumns(key_cols);
    auto keys = mapper->MapColumns(key_cols);
    std::sort(order.begin(), order.end(), [&](uint64_t a, uint64_t b) {
      return (*keys)[a] < (*keys)[b];
    });
  }
  std::vector<sdw::ColumnVector> sorted;
  for (int d = 0; d < kDims; ++d) {
    sdw::ColumnVector col(sdw::TypeId::kInt64);
    col.Reserve(kRows);
    for (uint64_t i : order) {
      SDW_CHECK_OK(col.AppendRange(cols[d], i, i + 1));
    }
    sorted.push_back(std::move(col));
  }
  SDW_CHECK_OK(shard->Append(sorted));
  return shard;
}

/// Blocks decoded for a selective range predicate on one dimension.
uint64_t BlocksFor(TableShard* shard, int dim, int64_t width) {
  RangePredicate pred{dim, sdw::Datum::Int64(100),
                      sdw::Datum::Int64(100 + width - 1)};
  shard->DropDecodeCache();
  const uint64_t before = benchutil::BlocksDecodedSoFar();
  for (const auto& range : shard->CandidateRanges({pred})) {
    SDW_CHECK(shard->ReadRange({dim}, range).ok());
  }
  return benchutil::BlocksDecodedSoFar() - before;
}

}  // namespace

int main() {
  benchutil::Banner("A3", "z-curve interleaved sort vs compound sort",
                    "compound wins only on its leading column; z-order "
                    "prunes on every dimension");

  BlockStore s1, s2, s3;
  auto unsorted = Build(&s1, sdw::SortStyle::kNone);
  auto compound = Build(&s2, sdw::SortStyle::kCompound);
  auto interleaved = Build(&s3, sdw::SortStyle::kInterleaved);
  const uint64_t total = unsorted->chain(0).size();

  std::printf("\n%zu rows x %d dims (domain %lld), ~6%% range predicate on "
              "each single dimension; %llu blocks/column total\n",
              kRows, kDims, static_cast<long long>(kDomain),
              static_cast<unsigned long long>(total));
  std::printf("\n%12s  %12s  %12s  %12s\n", "predicate", "unsorted",
              "compound", "interleaved");

  const int64_t kWidth = kDomain / 16;
  uint64_t compound_d0 = 0, compound_d3 = 0, inter_worst = 0;
  for (int d = 0; d < kDims; ++d) {
    uint64_t u = BlocksFor(unsorted.get(), d, kWidth);
    uint64_t c = BlocksFor(compound.get(), d, kWidth);
    uint64_t z = BlocksFor(interleaved.get(), d, kWidth);
    std::printf("%10s%02d  %12llu  %12llu  %12llu\n", "d", d,
                static_cast<unsigned long long>(u),
                static_cast<unsigned long long>(c),
                static_cast<unsigned long long>(z));
    if (d == 0) compound_d0 = c;
    if (d == kDims - 1) compound_d3 = c;
    inter_worst = std::max(inter_worst, z);
  }

  // Two-dimensional conjunctions: the z-curve compounds its advantage.
  std::printf("\nConjunctions (d_i AND d_j, ~6%% each):\n");
  std::printf("%12s  %12s  %12s\n", "predicate", "compound", "interleaved");
  auto blocks2 = [&](TableShard* shard, int d1, int d2) {
    RangePredicate p1{d1, sdw::Datum::Int64(100),
                      sdw::Datum::Int64(100 + kWidth - 1)};
    RangePredicate p2{d2, sdw::Datum::Int64(100),
                      sdw::Datum::Int64(100 + kWidth - 1)};
    shard->DropDecodeCache();
    const uint64_t before = benchutil::BlocksDecodedSoFar();
    for (const auto& range : shard->CandidateRanges({p1, p2})) {
      SDW_CHECK(shard->ReadRange({d1}, range).ok());
    }
    return benchutil::BlocksDecodedSoFar() - before;
  };
  for (auto [d1, d2] : {std::pair{0, 1}, {1, 2}, {2, 3}}) {
    std::printf("%9sd%d&d%d  %12llu  %12llu\n", "", d1, d2,
                static_cast<unsigned long long>(blocks2(compound.get(), d1, d2)),
                static_cast<unsigned long long>(
                    blocks2(interleaved.get(), d1, d2)));
  }

  std::printf("\n");
  benchutil::Check(compound_d0 < total / 10,
                   "compound sort prunes hard on its leading column");
  benchutil::Check(compound_d3 > total / 2,
                   "compound sort is nearly useless on the trailing column");
  benchutil::Check(inter_worst < total * 3 / 4,
                   "z-order prunes on EVERY dimension (graceful degradation)");
  return 0;
}
