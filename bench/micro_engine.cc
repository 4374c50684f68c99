// Micro-benchmarks (google-benchmark) for the hot engine primitives:
// codecs, expression kernels, join probe, aggregation, sketches and
// checksums. These are the constants behind the cost model the scale
// benches (T1) extrapolate with.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>

#include "common/hash.h"
#include "common/logging.h"
#include "common/random.h"
#include "compress/codec.h"
#include "exec/expr.h"
#include "exec/hll.h"
#include "exec/operators.h"

namespace {

using sdw::ColumnEncoding;
using sdw::ColumnVector;
using sdw::Datum;
using sdw::Rng;
using sdw::TypeId;

ColumnVector SortedInts(size_t n) {
  Rng rng(1);
  ColumnVector v(TypeId::kInt64);
  int64_t ts = 1400000000;
  for (size_t i = 0; i < n; ++i) {
    v.AppendInt(ts += static_cast<int64_t>(rng.Uniform(4)));
  }
  return v;
}

ColumnVector LowCardStrings(size_t n) {
  Rng rng(2);
  ColumnVector v(TypeId::kString);
  for (size_t i = 0; i < n; ++i) {
    v.AppendString("region-" + std::to_string(rng.Uniform(16)));
  }
  return v;
}

void BM_EncodeDelta(benchmark::State& state) {
  ColumnVector v = SortedInts(65536);
  for (auto _ : state) {
    sdw::Bytes out;
    SDW_CHECK_OK(sdw::compress::EncodeColumn(ColumnEncoding::kDelta, v, &out));
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(state.iterations() * 65536 * 8);
}
BENCHMARK(BM_EncodeDelta);

void BM_DecodeDelta(benchmark::State& state) {
  ColumnVector v = SortedInts(65536);
  sdw::Bytes encoded;
  SDW_CHECK_OK(
      sdw::compress::EncodeColumn(ColumnEncoding::kDelta, v, &encoded));
  for (auto _ : state) {
    auto decoded =
        sdw::compress::DecodeColumn(ColumnEncoding::kDelta, TypeId::kInt64,
                                    encoded);
    SDW_CHECK(decoded.ok());
    benchmark::DoNotOptimize(*decoded);
  }
  state.SetBytesProcessed(state.iterations() * 65536 * 8);
}
BENCHMARK(BM_DecodeDelta);

void BM_EncodeBytedict(benchmark::State& state) {
  ColumnVector v = LowCardStrings(65536);
  for (auto _ : state) {
    sdw::Bytes out;
    SDW_CHECK_OK(
        sdw::compress::EncodeColumn(ColumnEncoding::kBytedict, v, &out));
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_EncodeBytedict);

void BM_Lz77RoundTrip(benchmark::State& state) {
  ColumnVector v = LowCardStrings(65536);
  for (auto _ : state) {
    sdw::Bytes out;
    SDW_CHECK_OK(sdw::compress::EncodeColumn(ColumnEncoding::kLz, v, &out));
    auto back =
        sdw::compress::DecodeColumn(ColumnEncoding::kLz, TypeId::kString, out);
    SDW_CHECK(back.ok());
    benchmark::DoNotOptimize(*back);
  }
}
BENCHMARK(BM_Lz77RoundTrip);

void BM_CompareKernelSpecialized(benchmark::State& state) {
  // column < literal over a null-free int lane (the fused fast path).
  sdw::exec::Batch batch;
  Rng rng(3);
  ColumnVector v(TypeId::kInt64);
  for (int i = 0; i < 65536; ++i) v.AppendInt(rng.UniformRange(0, 100));
  batch.columns.push_back(std::move(v));
  auto expr = sdw::exec::Cmp(sdw::exec::CmpOp::kLt,
                             sdw::exec::Col(0, TypeId::kInt64),
                             sdw::exec::Lit(Datum::Int64(50)));
  for (auto _ : state) {
    auto mask = expr->EvalBatch(batch);
    SDW_CHECK(mask.ok());
    benchmark::DoNotOptimize(*mask);
  }
  state.SetItemsProcessed(state.iterations() * 65536);
}
BENCHMARK(BM_CompareKernelSpecialized);

void BM_CompareKernelRowAtATime(benchmark::State& state) {
  // The same predicate evaluated the interpreted way: one Datum-boxed
  // virtual-dispatch evaluation per row.
  sdw::exec::Batch batch;
  Rng rng(3);
  ColumnVector v(TypeId::kInt64);
  for (int i = 0; i < 65536; ++i) v.AppendInt(rng.UniformRange(0, 100));
  batch.columns.push_back(std::move(v));
  auto expr = sdw::exec::Cmp(sdw::exec::CmpOp::kLt,
                             sdw::exec::Col(0, TypeId::kInt64),
                             sdw::exec::Lit(Datum::Int64(50)));
  for (auto _ : state) {
    int64_t kept = 0;
    for (size_t i = 0; i < batch.num_rows(); ++i) {
      auto r = expr->EvalRow(batch.RowAt(i));
      SDW_CHECK(r.ok());
      kept += (!r->is_null() && r->int_value()) ? 1 : 0;
    }
    benchmark::DoNotOptimize(kept);
  }
  state.SetItemsProcessed(state.iterations() * 65536);
}
BENCHMARK(BM_CompareKernelRowAtATime);

// id BETWEEN 25 AND 75 as the planner lowers it: an AND of two
// comparisons, combined lane by lane, over the 4096-row batches a
// slice's scan yields. Arg 1 makes every tenth value NULL, so the
// three-valued AND sees NULL lanes.
void BM_BetweenKernel(benchmark::State& state) {
  Rng rng(3);
  std::vector<sdw::exec::Batch> batches(16);
  for (sdw::exec::Batch& batch : batches) {
    ColumnVector v(TypeId::kInt64);
    for (int i = 0; i < 4096; ++i) {
      if (state.range(0) != 0 && i % 10 == 0) {
        v.AppendNull();
      } else {
        v.AppendInt(rng.UniformRange(0, 100));
      }
    }
    batch.columns.push_back(std::move(v));
  }
  const auto col = sdw::exec::Col(0, TypeId::kInt64);
  auto expr = sdw::exec::And(
      sdw::exec::Cmp(sdw::exec::CmpOp::kGe, col,
                     sdw::exec::Lit(Datum::Int64(25))),
      sdw::exec::Cmp(sdw::exec::CmpOp::kLe, col,
                     sdw::exec::Lit(Datum::Int64(75))));
  for (auto _ : state) {
    for (const sdw::exec::Batch& batch : batches) {
      auto mask = expr->EvalBatch(batch);
      SDW_CHECK(mask.ok());
      benchmark::DoNotOptimize(*mask);
    }
  }
  state.SetItemsProcessed(state.iterations() * 16 * 4096);
}
BENCHMARK(BM_BetweenKernel)->Arg(0)->Arg(1);

/// Times `make_op` over fresh copies of `source` (the copy is untimed),
/// cut into the 4096-row batches a slice's scan yields, counting the
/// source's rows as items.
template <typename MakeOp>
void RunOverCopies(benchmark::State& state, const sdw::exec::Batch& source,
                   MakeOp make_op) {
  const auto types = source.Types();
  const size_t n = source.num_rows();
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<sdw::exec::Batch> batches;
    for (size_t begin = 0; begin < n; begin += 4096) {
      sdw::exec::Batch copy = sdw::exec::MakeBatch(types);
      for (size_t c = 0; c < types.size(); ++c) {
        SDW_CHECK_OK(copy.columns[c].AppendRange(
            source.columns[c], begin, std::min<size_t>(n, begin + 4096)));
      }
      batches.push_back(std::move(copy));
    }
    state.ResumeTiming();
    auto op = make_op(sdw::exec::MemoryScan(types, std::move(batches)));
    auto out = sdw::exec::Collect(op.get());
    SDW_CHECK(out.ok());
    benchmark::DoNotOptimize(*out);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}

// GROUP BY an integer key with COUNT(*) and SUM through the typed key
// table and aggregate states.
void BM_HashAggregateIntKey(benchmark::State& state) {
  Rng rng(5);
  sdw::exec::Batch source;
  ColumnVector key(TypeId::kInt64), val(TypeId::kInt64);
  for (int i = 0; i < 65536; ++i) {
    key.AppendInt(rng.UniformRange(0, 63));
    val.AppendInt(rng.UniformRange(0, 100));
  }
  source.columns.push_back(std::move(key));
  source.columns.push_back(std::move(val));
  RunOverCopies(state, source, [](sdw::exec::OperatorPtr scan) {
    return sdw::exec::HashAggregate(
        std::move(scan), {0},
        {{sdw::exec::AggFn::kCount, -1}, {sdw::exec::AggFn::kSum, 1}});
  });
}
BENCHMARK(BM_HashAggregateIntKey);

// COUNT(*) and SUM with no GROUP BY: every row folds into one group, so
// there is no hash, key table or id array.
void BM_GlobalCountSum(benchmark::State& state) {
  Rng rng(5);
  sdw::exec::Batch source;
  ColumnVector val(TypeId::kInt64);
  for (int i = 0; i < 65536; ++i) val.AppendInt(rng.UniformRange(0, 100));
  source.columns.push_back(std::move(val));
  RunOverCopies(state, source, [](sdw::exec::OperatorPtr scan) {
    return sdw::exec::HashAggregate(
        std::move(scan), {},
        {{sdw::exec::AggFn::kCount, -1}, {sdw::exec::AggFn::kSum, 0}});
  });
}
BENCHMARK(BM_GlobalCountSum);

// A bare COUNT(*) over the count-only batches a scan that projects no
// column emits: one row count per candidate range, 16 ranges of 16K rows.
void BM_CountOnlyBatches(benchmark::State& state) {
  constexpr size_t kRanges = 16;
  constexpr size_t kRangeRows = 16384;
  for (auto _ : state) {
    std::vector<sdw::exec::Batch> batches(kRanges);
    for (auto& b : batches) b.rows = kRangeRows;
    auto op = sdw::exec::HashAggregate(
        sdw::exec::MemoryScan({}, std::move(batches)), {},
        {{sdw::exec::AggFn::kCount, -1}});
    auto out = sdw::exec::Collect(op.get());
    SDW_CHECK(out.ok());
    benchmark::DoNotOptimize(*out);
  }
  state.SetItemsProcessed(state.iterations() * kRanges * kRangeRows);
}
BENCHMARK(BM_CountOnlyBatches);

// The same aggregate grouped by a VARCHAR key (keys live in the table's
// string arena).
void BM_HashAggregateStringKey(benchmark::State& state) {
  Rng rng(5);
  sdw::exec::Batch source;
  ColumnVector val(TypeId::kInt64);
  for (int i = 0; i < 65536; ++i) val.AppendInt(rng.UniformRange(0, 100));
  source.columns.push_back(LowCardStrings(65536));
  source.columns.push_back(std::move(val));
  RunOverCopies(state, source, [](sdw::exec::OperatorPtr scan) {
    return sdw::exec::HashAggregate(
        std::move(scan), {0},
        {{sdw::exec::AggFn::kCount, -1}, {sdw::exec::AggFn::kSum, 1}});
  });
}
BENCHMARK(BM_HashAggregateStringKey);

// One 16K-row block of the scan workload's `region` column: 25 distinct
// "region-NN" values in random order.
ColumnVector RegionBlock() {
  Rng rng(6);
  ColumnVector v(TypeId::kString);
  char name[16];
  for (int i = 0; i < 16384; ++i) {
    std::snprintf(name, sizeof(name), "region-%02d",
                  static_cast<int>(rng.Uniform(25)));
    v.AppendString(name);
  }
  return v;
}

// Decodes the region block under each VARCHAR codec, straight into the
// string lane (items = rows).
void BM_DecodeVarchar(benchmark::State& state, ColumnEncoding encoding) {
  const ColumnVector v = RegionBlock();
  sdw::Bytes encoded;
  SDW_CHECK_OK(sdw::compress::EncodeColumn(encoding, v, &encoded));
  for (auto _ : state) {
    auto decoded =
        sdw::compress::DecodeColumn(encoding, TypeId::kString, encoded);
    SDW_CHECK(decoded.ok());
    benchmark::DoNotOptimize(*decoded);
  }
  state.SetItemsProcessed(state.iterations() * v.size());
}
BENCHMARK_CAPTURE(BM_DecodeVarchar, raw, ColumnEncoding::kRaw);
BENCHMARK_CAPTURE(BM_DecodeVarchar, runlength, ColumnEncoding::kRunLength);
BENCHMARK_CAPTURE(BM_DecodeVarchar, bytedict, ColumnEncoding::kBytedict);
BENCHMARK_CAPTURE(BM_DecodeVarchar, text255, ColumnEncoding::kText255);
BENCHMARK_CAPTURE(BM_DecodeVarchar, lzo, ColumnEncoding::kLz);

// Gathers 4,096 rows of the decoded region block into an empty vector:
// a scan batch's AppendRange, or AppendSelected of every fourth row of
// the block as a filter or join output does (items = rows copied).
void BM_GatherVarchar(benchmark::State& state, bool selected) {
  const ColumnVector block = RegionBlock();
  std::vector<uint32_t> indices;
  for (uint32_t i = 0; i < block.size(); i += 4) indices.push_back(i);
  for (auto _ : state) {
    ColumnVector out(TypeId::kString);
    SDW_CHECK_OK(selected ? out.AppendSelected(block, indices)
                          : out.AppendRange(block, 4096, 8192));
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK_CAPTURE(BM_GatherVarchar, range, false);
BENCHMARK_CAPTURE(BM_GatherVarchar, selected, true);

// Probes a 1K-row build side (one match per probe row) and gathers the
// joined columns: the broadcast-join kernel.
void BM_HashJoinProbe(benchmark::State& state) {
  Rng rng(6);
  sdw::exec::Batch dim;
  ColumnVector id(TypeId::kInt64), name(TypeId::kString);
  for (int i = 0; i < 1024; ++i) {
    id.AppendInt(i);
    name.AppendString("region-" + std::to_string(i % 16));
  }
  dim.columns.push_back(std::move(id));
  dim.columns.push_back(std::move(name));
  sdw::exec::Batch fact;
  ColumnVector fk(TypeId::kInt64), val(TypeId::kInt64);
  for (int i = 0; i < 65536; ++i) {
    fk.AppendInt(rng.UniformRange(0, 1023));
    val.AppendInt(rng.UniformRange(0, 100));
  }
  fact.columns.push_back(std::move(fk));
  fact.columns.push_back(std::move(val));
  const auto dim_types = dim.Types();
  RunOverCopies(state, fact, [&](sdw::exec::OperatorPtr probe) {
    sdw::exec::Batch build = sdw::exec::MakeBatch(dim_types);
    for (size_t c = 0; c < dim_types.size(); ++c) {
      SDW_CHECK_OK(build.columns[c].AppendRange(dim.columns[c], 0, 1024));
    }
    std::vector<sdw::exec::Batch> builds;
    builds.push_back(std::move(build));
    return sdw::exec::HashJoin(
        std::move(probe), sdw::exec::MemoryScan(dim_types, std::move(builds)),
        {0}, {0});
  });
}
BENCHMARK(BM_HashJoinProbe);

void BM_HllAdd(benchmark::State& state) {
  sdw::exec::HyperLogLog hll;
  Rng rng(7);
  for (auto _ : state) {
    hll.Add(rng.Next());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HllAdd);

void BM_Crc32c(benchmark::State& state) {
  sdw::Bytes block(1 << 20);
  Rng rng(9);
  for (auto& b : block) b = static_cast<uint8_t>(rng.Next());
  for (auto _ : state) {
    benchmark::DoNotOptimize(sdw::Crc32c(block.data(), block.size()));
  }
  state.SetBytesProcessed(state.iterations() * block.size());
}
BENCHMARK(BM_Crc32c);

void BM_DatumHashString(benchmark::State& state) {
  Datum d = Datum::String("a-plausible-url-path/of/typical/length");
  for (auto _ : state) {
    benchmark::DoNotOptimize(d.Hash());
  }
}
BENCHMARK(BM_DatumHashString);

}  // namespace

BENCHMARK_MAIN();
