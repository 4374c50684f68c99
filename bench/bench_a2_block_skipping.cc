// A2: zone maps / block skipping — "Redshift foregoes traditional
// indexes ... and instead focuses on sequential scan speed through
// compiled code execution and column-block skipping based on
// value-ranges stored in memory" (§6). Skipping prunes nearly all
// blocks on (semi-)sorted columns and degrades to a full scan on
// random data — the graceful-degradation story vs a missing index.

#include <cstdio>

#include <algorithm>
#include <memory>

#include "bench/bench_util.h"
#include "common/logging.h"
#include "common/random.h"
#include "common/units.h"
#include "storage/block_store.h"
#include "storage/table_shard.h"

namespace {

using sdw::storage::BlockStore;
using sdw::storage::RangePredicate;
using sdw::storage::StorageOptions;
using sdw::storage::TableShard;

enum class Layout { kSorted, kSemiSorted, kRandom };

const char* LayoutName(Layout l) {
  switch (l) {
    case Layout::kSorted:
      return "sorted";
    case Layout::kSemiSorted:
      return "semi-sorted";
    case Layout::kRandom:
      return "random";
  }
  return "?";
}

std::unique_ptr<TableShard> BuildShard(BlockStore* store, Layout layout,
                                       size_t rows) {
  sdw::TableSchema schema("t", {{"ts", sdw::TypeId::kInt64},
                                {"v", sdw::TypeId::kInt64}});
  StorageOptions options;
  options.max_rows_per_block = 2048;
  auto shard = std::make_unique<TableShard>(schema, options, store);
  sdw::Rng rng(3);
  sdw::ColumnVector ts(sdw::TypeId::kInt64);
  sdw::ColumnVector v(sdw::TypeId::kInt64);
  for (size_t i = 0; i < rows; ++i) {
    int64_t value = static_cast<int64_t>(i);
    if (layout == Layout::kSemiSorted) value += rng.UniformRange(-500, 500);
    if (layout == Layout::kRandom) value = rng.UniformRange(0, rows);
    ts.AppendInt(value);
    v.AppendInt(rng.UniformRange(0, 1000));
  }
  std::vector<sdw::ColumnVector> run;
  run.push_back(std::move(ts));
  run.push_back(std::move(v));
  SDW_CHECK_OK(shard->Append(run));
  return shard;
}

}  // namespace

int main() {
  benchutil::Banner("A2", "zone-map block skipping vs full scans",
                    "range scans on sorted data touch ~selectivity of the "
                    "blocks; random layout degrades to full scan, never "
                    "worse");

  const size_t kRows = 1000000;
  std::printf("\n%zu rows, 2048 rows/block (%zu blocks/column):\n", kRows,
              kRows / 2048);
  std::printf("\n%-12s  %12s  %14s  %14s  %10s\n", "layout", "selectivity",
              "blocks_read", "blocks_total", "scan_time");

  double sorted_narrow_frac = 1.0;
  double random_narrow_frac = 0.0;
  for (Layout layout : {Layout::kSorted, Layout::kSemiSorted,
                        Layout::kRandom}) {
    BlockStore store;
    auto shard = BuildShard(&store, layout, kRows);
    const uint64_t total_blocks = shard->chain(0).size();
    for (double selectivity : {0.001, 0.01, 0.1, 1.0}) {
      const int64_t lo = static_cast<int64_t>(kRows * 0.45);
      const int64_t hi =
          lo + static_cast<int64_t>(kRows * selectivity) - 1;
      RangePredicate pred{0, sdw::Datum::Int64(lo), sdw::Datum::Int64(hi)};
      shard->DropDecodeCache();
      const uint64_t decoded_before = benchutil::BlocksDecodedSoFar();
      uint64_t matched = 0;
      double seconds = benchutil::TimeIt([&] {
        for (const auto& range :
             shard->CandidateRanges({pred})) {
          auto cols = shard->ReadRange({0}, range);
          SDW_CHECK(cols.ok());
          for (size_t i = 0; i < (*cols)[0].size(); ++i) {
            int64_t value = (*cols)[0].IntAt(i);
            if (value >= lo && value <= hi) ++matched;
          }
        }
      });
      const uint64_t blocks_read =
          benchutil::BlocksDecodedSoFar() - decoded_before;
      std::printf("%-12s  %11.1f%%  %14llu  %14llu  %10s\n",
                  LayoutName(layout), selectivity * 100,
                  static_cast<unsigned long long>(blocks_read),
                  static_cast<unsigned long long>(total_blocks),
                  sdw::FormatDuration(seconds).c_str());
      const double frac = static_cast<double>(blocks_read) / total_blocks;
      if (layout == Layout::kSorted && selectivity == 0.001) {
        sorted_narrow_frac = frac;
      }
      if (layout == Layout::kRandom && selectivity == 0.001) {
        random_narrow_frac = frac;
      }
      (void)matched;
    }
  }

  std::printf("\n");
  benchutil::Check(sorted_narrow_frac < 0.01,
                   "0.1% scan of sorted data touches <1% of blocks");
  benchutil::Check(random_narrow_frac > 0.9,
                   "random layout degrades to a full scan (never worse)");
  return 0;
}
