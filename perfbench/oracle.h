#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

// The benchmark's reference answers: plain loops over the rows the
// benchmark generated itself. This file and oracle.cc include only the
// standard library, so a bug in the engine's parser, planner, storage,
// codecs or expression code cannot agree with itself here.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace whbench {

/// splitmix64: the benchmark's only source of randomness, so one seed
/// fixes every generated row, literal and statement draw.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, n); n > 0.
  uint64_t Uniform(uint64_t n) { return Next() % n; }
  /// Uniform in [0, 1).
  double Double() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

/// Column domains shared by the generator, the SQL text and the oracle.
inline constexpr int64_t kGroups = 100;      // grp in [0, 100)
inline constexpr int64_t kValueRange = 10000;  // v in [0, 10000)
inline constexpr int kRegions = 25;
inline constexpr int kCategories = 20;
inline constexpr size_t kDimRows = 1000;

/// "region-07": zero-padded so name order is index order.
std::string RegionName(int index);
std::string CategoryName(int index);

/// A fact-shaped table (`fact`, `sales`). Row i has id i.
struct FactRows {
  std::vector<int64_t> grp;
  std::vector<int64_t> v;
  std::vector<int64_t> dim_id;
  std::vector<uint8_t> region;  // RegionName index
  size_t size() const { return v.size(); }
};

/// The `dim` table. Row i has id i.
struct DimRows {
  std::vector<uint8_t> cat;  // CategoryName index
  size_t size() const { return cat.size(); }
};

/// The six baseline statement shapes of the scan path.
enum class Shape : uint8_t {
  kPoint,
  kCount,
  kGroup,
  kStringGroup,
  kMinMax,
  kJoin,
};
inline constexpr int kBaseShapes = 6;
/// "point", "count", "group", "string_group", "minmax", "join".
const char* ShapeName(Shape shape);

/// One statement: a shape plus its literals.
///   kPoint:       id = lo
///   kCount:       COUNT(*), with `id >= lo` unless `unfiltered`
///   kGroup:       v < lo, GROUP BY grp
///   kStringGroup: v < lo, GROUP BY region
///   kMinMax:      id BETWEEN lo AND hi, MIN/MAX(v) GROUP BY grp
///   kJoin:        v < lo, JOIN dim, GROUP BY dim.cat
struct Query {
  Shape shape = Shape::kPoint;
  int64_t lo = 0;
  int64_t hi = 0;
  bool unfiltered = false;
};

/// SQL text of `query` over fact-shaped `table` (and `dim`).
/// Aggregates are integer-only and every multi-row answer is ordered by
/// a unique key, so one rendering is the only right one.
std::string QuerySql(const Query& query, const std::string& table);

/// The answer the engine must return, rendered like RenderBatch: one
/// line per row, fields separated by '|', NULL for an empty aggregate.
std::string OracleAnswer(const Query& query, const FactRows& table,
                         const DimRows& dim);

/// 64-bit FNV-1a of a rendered answer (the run keeps hashes, not text).
uint64_t AnswerHash(const std::string& answer);

}  // namespace whbench

#endif  // PERFBENCH_ORACLE_H_
