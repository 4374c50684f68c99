// Self-tests of the benchmark's own checking code: the oracle agrees
// with Execute on a tiny table, and a fixture prefix without a trailing
// '/' is refused. Exits non-zero if any check failed.

#include <cstdio>
#include <string>
#include <vector>

#include "oracle.h"
#include "workload.h"

namespace whbench {
namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  std::printf("[%s] %s\n", ok ? "PASS" : "FAIL", what.c_str());
  if (!ok) ++failures;
}

void OracleAgreesWithExecute() {
  constexpr size_t kRows = 3000;
  const FactRows fact = GenerateFact(7, kRows);
  const DimRows dim = GenerateDim(8);
  sdw::warehouse::Warehouse warehouse(BenchOptions(true, true));
  Expect(StageFiles(&warehouse, "s3://t/fact/", FactCsv(fact, 2)).ok() &&
             StageFiles(&warehouse, "s3://t/dim/", {DimCsv(dim)}).ok(),
         "fixtures staged");
  for (const std::string& sql :
       {FactDdl("fact"), DimDdl(), *CopySql("fact", "s3://t/fact/"),
        *CopySql("dim", "s3://t/dim/")}) {
    Expect(warehouse.Execute(sql).ok(), sql);
  }
  Rng rng(9);
  std::vector<Query> queries;
  for (int i = 0; i < 4 * kBaseShapes; ++i) {
    queries.push_back(RandomQuery(static_cast<Shape>(i % kBaseShapes), kRows,
                                  &rng, /*plain_count=*/i < kBaseShapes));
  }
  Query empty_minmax;  // no row in range: no groups
  empty_minmax.shape = Shape::kMinMax;
  empty_minmax.lo = kRows + 10;
  empty_minmax.hi = kRows + 20;
  queries.push_back(empty_minmax);
  Query missing_point;
  missing_point.shape = Shape::kPoint;
  missing_point.lo = kRows + 1;
  queries.push_back(missing_point);
  for (const Query& q : queries) {
    const std::string sql = QuerySql(q, "fact");
    const std::string expected = OracleAnswer(q, fact, dim);
    // The second run is a result-cache hit and is checked the same way.
    for (int pass = 0; pass < 2; ++pass) {
      auto result = warehouse.Execute(sql);
      const bool ok =
          result.ok() && RenderBatch(result->rows) == expected &&
          result->from_result_cache == (pass == 1);
      Expect(ok, (pass ? "hit:  " : "miss: ") + sql);
      if (!ok && result.ok()) {
        std::printf("  engine: %s\n  oracle: %s\n",
                    RenderBatch(result->rows).c_str(), expected.c_str());
      }
    }
  }
  // An aggregate over no rows renders NULL (COUNT renders 0).
  auto empty = warehouse.Execute(
      "SELECT COUNT(*), SUM(v), MIN(v), MAX(v) FROM fact WHERE v > 100000");
  Expect(empty.ok() && RenderBatch(empty->rows) == "0|NULL|NULL|NULL",
         "empty aggregate renders NULL");
}

void PrefixWithoutSlashRefused() {
  Expect(!CopySql("fact", "s3://bench/fact/b1").ok(),
         "COPY prefix without trailing '/' is refused");
  Expect(CopySql("fact", "s3://bench/fact/b1/").ok(),
         "COPY prefix with trailing '/' is accepted");
  sdw::warehouse::Warehouse warehouse(BenchOptions(false, false));
  Expect(!StageFiles(&warehouse, "s3://bench/fact/b1", {"1,2,3\n"}).ok(),
         "staging under a prefix without trailing '/' is refused");
}

}  // namespace
}  // namespace whbench

int main() {
  whbench::OracleAgreesWithExecute();
  whbench::PrefixWithoutSlashRefused();
  std::printf("%s: %d failure(s)\n", whbench::failures ? "FAILED" : "OK",
              whbench::failures);
  return whbench::failures ? 1 : 0;
}
