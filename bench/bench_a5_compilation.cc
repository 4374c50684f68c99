// A5: query compilation (§2.1) — "the use of query compilation adds a
// fixed overhead per query that ... is generally amortized by the
// tighter execution at compute nodes vs the overhead of execution in a
// general-purpose set of executor functions". We measure the
// type-specialized vectorized engine against the tuple-at-a-time
// interpreted engine on the same scan-filter-aggregate, charge the
// compiled side a fixed 2 s compile cost, and find the crossover.

#include <cstdio>

#include <algorithm>
#include <memory>

#include "bench/bench_util.h"
#include "common/logging.h"
#include "cluster/cluster.h"
#include "cluster/executor.h"
#include "common/random.h"
#include "common/units.h"
#include "plan/planner.h"

namespace {

using sdw::cluster::Cluster;
using sdw::cluster::ExecOptions;
using sdw::cluster::ExecutionMode;
using sdw::cluster::QueryExecutor;

constexpr double kCompileSeconds = 2.0;

std::unique_ptr<Cluster> Build(size_t rows, int slices = 1) {
  sdw::cluster::ClusterConfig config;
  config.num_nodes = 1;
  config.slices_per_node = slices;
  config.storage.max_rows_per_block = 16384;
  auto cluster = std::make_unique<Cluster>(config);
  sdw::TableSchema schema("t", {{"grp", sdw::TypeId::kInt64},
                                {"flag", sdw::TypeId::kInt64},
                                {"v", sdw::TypeId::kDouble}});
  SDW_CHECK_OK(cluster->CreateTable(schema));
  sdw::Rng rng(31);
  const size_t kBatch = 200000;
  for (size_t done = 0; done < rows; done += kBatch) {
    const size_t n = std::min(kBatch, rows - done);
    sdw::ColumnVector grp(sdw::TypeId::kInt64), flag(sdw::TypeId::kInt64),
        v(sdw::TypeId::kDouble);
    for (size_t i = 0; i < n; ++i) {
      grp.AppendInt(rng.UniformRange(0, 31));
      flag.AppendInt(rng.UniformRange(0, 9));
      v.AppendDouble(rng.NextDouble());
    }
    std::vector<sdw::ColumnVector> cols;
    cols.push_back(std::move(grp));
    cols.push_back(std::move(flag));
    cols.push_back(std::move(v));
    SDW_CHECK_OK(cluster->InsertRows("t", cols));
  }
  return cluster;
}

sdw::plan::LogicalQuery Query() {
  sdw::plan::LogicalQuery q;
  q.from_table = "t";
  q.where = {{{"", "flag"}, sdw::plan::LogicalCmp::kLt, sdw::Datum::Int64(7)}};
  q.select = {{sdw::plan::LogicalAggFn::kNone, {"", "grp"}, ""},
              {sdw::plan::LogicalAggFn::kCountStar, {}, "n"},
              {sdw::plan::LogicalAggFn::kSum, {"", "v"}, "s"}};
  q.group_by = {{"", "grp"}};
  return q;
}

}  // namespace

int main() {
  benchutil::Banner("A5", "compiled vs interpreted query execution",
                    "fixed compile cost amortizes: interpreted wins tiny "
                    "queries, compiled wins by >5x at scale");

  std::printf("\nscan-filter-aggregate, single slice; compiled charged a "
              "fixed %.1fs compile cost:\n", kCompileSeconds);
  std::printf("\n%10s  %12s  %12s  %10s  %18s  %18s\n", "rows",
              "compiled_exec", "interpreted", "speedup",
              "compiled+compile", "winner");

  double speedup_at_max = 0;
  bool interpreted_wins_small = false;
  bool compiled_wins_large = false;
  for (size_t rows : {10000ul, 50000ul, 200000ul, 1000000ul, 4000000ul, 16000000ul}) {
    auto cluster = Build(rows);
    sdw::plan::Planner planner(cluster->catalog());
    auto physical = planner.Plan(Query());
    SDW_CHECK(physical.ok());

    QueryExecutor compiled(cluster.get(),
                           ExecOptions{ExecutionMode::kCompiled, 0.0});
    // Warm-up pass: pay one-time checksum verification outside the
    // measurement (both engines share the storage layer).
    SDW_CHECK(compiled.Execute(*physical).ok());
    auto compiled_result = compiled.Execute(*physical);
    SDW_CHECK(compiled_result.ok());
    const double compiled_exec =
        compiled_result->stats.MaxSliceSeconds() +
        compiled_result->stats.leader_seconds;

    QueryExecutor interpreted(cluster.get(),
                              ExecOptions{ExecutionMode::kInterpreted, 0.0});
    auto interpreted_result = interpreted.Execute(*physical);
    SDW_CHECK(interpreted_result.ok());
    const double interpreted_exec =
        interpreted_result->stats.MaxSliceSeconds() +
        interpreted_result->stats.leader_seconds;

    const double speedup = interpreted_exec / compiled_exec;
    const double with_compile = compiled_exec + kCompileSeconds;
    const char* winner =
        with_compile < interpreted_exec ? "compiled" : "interpreted";
    std::printf("%10zu  %12s  %12s  %9.1fx  %18s  %18s\n", rows,
                sdw::FormatDuration(compiled_exec).c_str(),
                sdw::FormatDuration(interpreted_exec).c_str(), speedup,
                sdw::FormatDuration(with_compile).c_str(), winner);
    speedup_at_max = speedup;
    if (rows == 10000 && with_compile > interpreted_exec) {
      interpreted_wins_small = true;
    }
    if (rows == 16000000 && with_compile < interpreted_exec) {
      compiled_wins_large = true;
    }
  }

  // Real slice parallelism on the compiled engine: the same scan on a
  // 4-slice node with the pool disabled vs one worker per slice.
  std::printf("\nReal serial vs parallel wall clock (4 slices, 4M rows):\n\n");
  {
    auto cluster = Build(4000000, /*slices=*/4);
    sdw::plan::Planner planner(cluster->catalog());
    auto physical = planner.Plan(Query());
    SDW_CHECK(physical.ok());
    auto run = [&](int pool_size) {
      sdw::cluster::ExecOptions opts;
      opts.pool_size = pool_size;
      QueryExecutor executor(cluster.get(), opts);
      SDW_CHECK(executor.Execute(*physical).ok());  // warm checksums
      return benchutil::TimeIt([&] {
        for (int rep = 0; rep < 3; ++rep) {
          SDW_CHECK(executor.Execute(*physical).ok());
        }
      });
    };
    benchutil::RealSpeedup("compiled scan-filter-agg", run(0), run(4));
  }

  std::printf("\n");
  benchutil::Check(speedup_at_max > 5,
                   "tight execution is >5x faster per row than the "
                   "general-purpose executor");
  benchutil::Check(interpreted_wins_small,
                   "fixed compile overhead dominates tiny queries");
  benchutil::Check(compiled_wins_large,
                   "compile cost fully amortized on warehouse-scale scans");
  return 0;
}
