// Seeded reference test for the hash operators. HashAggregate (kSingle,
// and several kPartial outputs merged by kFinal) and HashJoin run over
// random batches of every key type — BOOL, INT32, DATE, INT64, DOUBLE
// with -0.0 and 0.0, VARCHAR with empty strings — with NULLs, 1-3 key
// columns, duplicate and missing build keys, empty sides and inputs
// split over many batches. The expected answers are computed here with
// a std::map over Row and Datum::Compare, sharing no code with the
// operators. The batch hash is checked against Datum::Hash, the hash
// that shuffle routing and HyperLogLog sketches were defined on.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/logging.h"
#include "common/random.h"
#include "exec/hash_table.h"
#include "exec/operators.h"

namespace sdw::exec {
namespace {

constexpr TypeId kAllTypes[] = {TypeId::kBool,  TypeId::kInt32,
                                TypeId::kDate,  TypeId::kInt64,
                                TypeId::kDouble, TypeId::kString};

/// Small domains, so keys repeat and groups collide across types.
Datum RandomValue(Rng& rng, TypeId type, double null_rate) {
  if (rng.Bernoulli(null_rate)) return Datum::Null();
  switch (type) {
    case TypeId::kBool:
      return Datum::Bool(rng.Bernoulli(0.5));
    case TypeId::kInt32:
      return Datum::Int32(static_cast<int32_t>(rng.UniformRange(-3, 3)));
    case TypeId::kDate:
      return Datum::Date(static_cast<int32_t>(18000 + rng.UniformRange(0, 4)));
    case TypeId::kInt64: {
      static const int64_t kValues[] = {-3, -1, 0, 1, 2, 3, int64_t{1} << 40};
      return Datum::Int64(kValues[rng.Uniform(std::size(kValues))]);
    }
    case TypeId::kDouble: {
      static const double kValues[] = {-0.0, 0.0, 1.5, -2.25, 1234567.0,
                                       1234568.0};
      return Datum::Double(kValues[rng.Uniform(std::size(kValues))]);
    }
    case TypeId::kString: {
      static const char* const kValues[] = {"", "a", "b", "ab",
                                            "a-varchar-key-past-the-sso-size"};
      return Datum::String(kValues[rng.Uniform(std::size(kValues))]);
    }
  }
  return Datum::Null();
}

struct RowLess {
  size_t width;
  bool operator()(const Row& a, const Row& b) const {
    for (size_t c = 0; c < width; ++c) {
      const int cmp = a[c].Compare(b[c]);
      if (cmp != 0) return cmp < 0;
    }
    return false;
  }
};

/// Splits rows into batches of random sizes (0 to 40 rows, so some
/// batches are empty and most inputs span many batches).
std::vector<Batch> ToBatches(const std::vector<TypeId>& types,
                             const std::vector<Row>& rows, Rng& rng) {
  std::vector<Batch> batches;
  size_t next = 0;
  while (next < rows.size()) {
    const size_t n = std::min<size_t>(rows.size() - next, rng.Uniform(41));
    Batch batch = MakeBatch(types);
    for (size_t i = next; i < next + n; ++i) {
      for (size_t c = 0; c < types.size(); ++c) {
        SDW_CHECK_OK(batch.columns[c].AppendDatum(rows[i][c]));
      }
    }
    next += n;
    batches.push_back(std::move(batch));
  }
  return batches;
}

Result<Batch> Drain(OperatorPtr op) { return Collect(op.get()); }

std::vector<Row> RowsOf(const Batch& batch) {
  std::vector<Row> rows;
  for (size_t i = 0; i < batch.num_rows(); ++i) rows.push_back(batch.RowAt(i));
  return rows;
}

void ExpectSameRow(const Row& got, const Row& want, const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (size_t c = 0; c < got.size(); ++c) {
    EXPECT_EQ(got[c].Compare(want[c]), 0)
        << where << " column " << c << ": got " << got[c].ToString()
        << ", want " << want[c].ToString();
  }
}

// ---------------------------------------------------------------------------
// Aggregates
// ---------------------------------------------------------------------------

/// Reference aggregate of one group's rows, in row order.
Row RefAggregate(const std::vector<const Row*>& rows,
                 const std::vector<AggSpec>& aggs) {
  Row out;
  for (const AggSpec& spec : aggs) {
    switch (spec.fn) {
      case AggFn::kCount: {
        int64_t n = 0;
        for (const Row* r : rows) {
          if (spec.column < 0 || !(*r)[spec.column].is_null()) ++n;
        }
        out.push_back(Datum::Int64(n));
        break;
      }
      case AggFn::kSum: {
        bool any = false;
        bool is_double = false;
        int64_t isum = 0;
        double dsum = 0;
        for (const Row* r : rows) {
          const Datum& v = (*r)[spec.column];
          if (v.is_null()) continue;
          any = true;
          if (v.type() == TypeId::kDouble) {
            is_double = true;
            dsum += v.double_value();
          } else {
            isum += v.int_value();
          }
        }
        out.push_back(!any        ? Datum::Null()
                      : is_double ? Datum::Double(dsum)
                                  : Datum::Int64(isum));
        break;
      }
      case AggFn::kMin:
      case AggFn::kMax: {
        Datum best;
        for (const Row* r : rows) {
          const Datum& v = (*r)[spec.column];
          if (v.is_null()) continue;
          const bool better = spec.fn == AggFn::kMin ? v < best : best < v;
          if (best.is_null() || better) best = v;
        }
        out.push_back(best);
        break;
      }
      case AggFn::kApproxDistinct: {
        std::map<Row, bool, RowLess> distinct(RowLess{1});
        for (const Row* r : rows) {
          const Datum& v = (*r)[spec.column];
          if (!v.is_null()) distinct[Row{v}] = true;
        }
        out.push_back(Datum::Int64(static_cast<int64_t>(distinct.size())));
        break;
      }
    }
  }
  return out;
}

/// Groups `rows` by their first `width` columns (first-seen order kept
/// in `order`) and aggregates each group with RefAggregate.
std::vector<Row> RefGroupBy(const std::vector<Row>& rows, size_t width,
                            const std::vector<AggSpec>& aggs) {
  std::map<Row, std::vector<const Row*>, RowLess> groups(RowLess{width});
  std::vector<Row> order;
  for (const Row& r : rows) {
    Row key(r.begin(), r.begin() + static_cast<std::ptrdiff_t>(width));
    auto [it, inserted] = groups.try_emplace(key);
    if (inserted) order.push_back(key);
    it->second.push_back(&r);
  }
  if (width == 0 && groups.empty()) {
    order.push_back(Row{});
    groups[Row{}];
  }
  std::vector<Row> out;
  for (const Row& key : order) {
    Row row = key;
    for (Datum& d : RefAggregate(groups[key], aggs)) row.push_back(d);
    out.push_back(std::move(row));
  }
  return out;
}

/// Merges per-partition reference partials the way the leader does:
/// counts and sums add up in partition order, MIN/MAX fold.
std::vector<Row> RefFinal(const std::vector<std::vector<Row>>& partials,
                          size_t width, const std::vector<AggSpec>& aggs) {
  std::map<Row, Row, RowLess> merged(RowLess{width});
  std::vector<Row> order;
  for (const std::vector<Row>& part : partials) {
    for (const Row& p : part) {
      Row key(p.begin(), p.begin() + static_cast<std::ptrdiff_t>(width));
      auto it = merged.find(key);
      if (it == merged.end()) {
        order.push_back(key);
        Row acc = key;
        for (const AggSpec& spec : aggs) {
          acc.push_back(spec.fn == AggFn::kCount ? Datum::Int64(0)
                                                 : Datum::Null());
        }
        it = merged.emplace(key, std::move(acc)).first;
      }
      Row& acc = it->second;
      for (size_t a = 0; a < aggs.size(); ++a) {
        const Datum& v = p[width + a];
        Datum& cur = acc[width + a];
        switch (aggs[a].fn) {
          case AggFn::kCount:
            cur = Datum::Int64(cur.int_value() + v.int_value());
            break;
          case AggFn::kSum:
            if (v.is_null()) break;
            if (v.type() == TypeId::kDouble) {
              cur = Datum::Double((cur.is_null() ? 0.0 : cur.double_value()) +
                                  v.double_value());
            } else {
              cur = Datum::Int64((cur.is_null() ? 0 : cur.int_value()) +
                                 v.int_value());
            }
            break;
          case AggFn::kMin:
            if (!v.is_null() && (cur.is_null() || v < cur)) cur = v;
            break;
          case AggFn::kMax:
            if (!v.is_null() && (cur.is_null() || cur < v)) cur = v;
            break;
          case AggFn::kApproxDistinct:
            SDW_CHECK(false) << "sketches are checked against the union";
        }
      }
    }
  }
  std::vector<Row> out;
  for (const Row& key : order) out.push_back(merged.at(key));
  return out;
}

/// Operator rows vs reference rows, both in first-seen group order. The
/// HyperLogLog estimate may be off by one from the exact distinct count.
void ExpectAggRows(const std::vector<Row>& got, const std::vector<Row>& want,
                   size_t width, const std::vector<AggSpec>& aggs,
                   const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (size_t r = 0; r < got.size(); ++r) {
    Row g = got[r];
    Row w = want[r];
    for (size_t a = 0; a < aggs.size(); ++a) {
      if (aggs[a].fn != AggFn::kApproxDistinct) continue;
      EXPECT_LE(std::llabs(g[width + a].int_value() - w[width + a].int_value()),
                1)
          << where << " row " << r;
      g[width + a] = w[width + a];
    }
    ExpectSameRow(g, w, where + " row " + std::to_string(r));
  }
}

struct AggCase {
  std::vector<TypeId> types;  // keys first, then v, d, s
  std::vector<Row> rows;
  size_t width = 0;
  std::vector<AggSpec> aggs;
};

AggCase MakeAggCase(uint64_t seed, size_t rows) {
  Rng rng(seed);
  AggCase c;
  c.width = rng.Uniform(4) == 0 ? 0 : 1 + rng.Uniform(3);  // 0-3 keys
  for (size_t k = 0; k < c.width; ++k) {
    c.types.push_back(kAllTypes[rng.Uniform(std::size(kAllTypes))]);
  }
  const int v = static_cast<int>(c.width);
  c.types.push_back(TypeId::kInt64);
  c.types.push_back(TypeId::kDouble);
  c.types.push_back(TypeId::kString);
  const double key_nulls = rng.Bernoulli(0.5) ? 0.1 : 0.0;
  for (size_t i = 0; i < rows; ++i) {
    Row row;
    for (size_t k = 0; k < c.width; ++k) {
      row.push_back(RandomValue(rng, c.types[k], key_nulls));
    }
    row.push_back(rng.Bernoulli(0.1)
                      ? Datum::Null()
                      : Datum::Int64(rng.UniformRange(-1000, 1000)));
    row.push_back(rng.Bernoulli(0.1)
                      ? Datum::Null()
                      : Datum::Double(rng.UniformRange(-800, 800) / 8.0));
    row.push_back(RandomValue(rng, TypeId::kString, 0.1));
    c.rows.push_back(std::move(row));
  }
  c.aggs = {{AggFn::kCount, -1},  {AggFn::kCount, v},   {AggFn::kSum, v},
            {AggFn::kSum, v + 1}, {AggFn::kMin, v},     {AggFn::kMax, v},
            {AggFn::kMin, v + 1}, {AggFn::kMax, v + 1}, {AggFn::kMin, v + 2},
            {AggFn::kMax, v + 2}};
  // MIN/MAX over each key type too, so every type has a typed state.
  for (int k = 0; k < v; ++k) {
    c.aggs.push_back({AggFn::kMin, k});
    c.aggs.push_back({AggFn::kMax, k});
  }
  return c;
}

std::vector<int> Iota(size_t n) {
  std::vector<int> out(n);
  for (size_t i = 0; i < n; ++i) out[i] = static_cast<int>(i);
  return out;
}

TEST(HashAggregateReferenceTest, SingleMatchesReferenceInFirstSeenOrder) {
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    AggCase c = MakeAggCase(seed, 1 + seed * 7);
    Rng split(seed * 31);
    auto out = Drain(HashAggregate(
        MemoryScan(c.types, ToBatches(c.types, c.rows, split)),
        Iota(c.width), c.aggs, AggMode::kSingle));
    ASSERT_TRUE(out.ok()) << out.status();
    ExpectAggRows(RowsOf(*out), RefGroupBy(c.rows, c.width, c.aggs), c.width,
                  c.aggs, "seed " + std::to_string(seed));
  }
}

TEST(HashAggregateReferenceTest, PartialsMergedByFinalMatchReference) {
  for (uint64_t seed = 100; seed < 160; ++seed) {
    AggCase c = MakeAggCase(seed, seed % 5 == 0 ? 0 : 3 * seed);
    Rng rng(seed * 17);
    const size_t parts = 1 + rng.Uniform(4);
    std::vector<std::vector<Row>> part_rows(parts);
    for (const Row& r : c.rows) part_rows[rng.Uniform(parts)].push_back(r);
    std::vector<Batch> partial_batches;
    std::vector<std::vector<Row>> ref_partials;
    std::vector<TypeId> partial_types;
    for (const std::vector<Row>& rows : part_rows) {
      OperatorPtr partial = HashAggregate(
          MemoryScan(c.types, ToBatches(c.types, rows, rng)), Iota(c.width),
          c.aggs, AggMode::kPartial);
      partial_types = partial->OutputTypes();
      auto out = Drain(std::move(partial));
      ASSERT_TRUE(out.ok()) << out.status();
      partial_batches.push_back(std::move(*out));
      ref_partials.push_back(RefGroupBy(rows, c.width, c.aggs));
    }
    auto merged = Drain(HashAggregate(
        MemoryScan(partial_types, std::move(partial_batches)), Iota(c.width),
        c.aggs, AggMode::kFinal));
    ASSERT_TRUE(merged.ok()) << merged.status();
    ExpectAggRows(RowsOf(*merged),
                  RefFinal(ref_partials, c.width, c.aggs), c.width,
                  c.aggs, "seed " + std::to_string(seed));
  }
}

TEST(HashAggregateReferenceTest, ApproxDistinctThroughPartials) {
  for (uint64_t seed = 200; seed < 220; ++seed) {
    Rng rng(seed);
    const TypeId key_type = kAllTypes[rng.Uniform(std::size(kAllTypes))];
    const TypeId value_type = kAllTypes[rng.Uniform(std::size(kAllTypes))];
    std::vector<TypeId> types = {key_type, value_type};
    std::vector<Row> rows;
    for (int i = 0; i < 300; ++i) {
      rows.push_back({RandomValue(rng, key_type, 0.1),
                      RandomValue(rng, value_type, 0.1)});
    }
    const std::vector<AggSpec> aggs = {{AggFn::kApproxDistinct, 1}};
    auto single = Drain(HashAggregate(
        MemoryScan(types, ToBatches(types, rows, rng)), {0}, aggs));
    ASSERT_TRUE(single.ok()) << single.status();
    ExpectAggRows(RowsOf(*single), RefGroupBy(rows, 1, aggs), 1, aggs,
                  "single seed " + std::to_string(seed));

    std::vector<Batch> partials;
    std::vector<TypeId> partial_types;
    for (size_t half = 0; half < 2; ++half) {
      std::vector<Row> part(rows.begin() + static_cast<long>(half * 150),
                            rows.begin() + static_cast<long>(half * 150 + 150));
      OperatorPtr op = HashAggregate(
          MemoryScan(types, ToBatches(types, part, rng)), {0}, aggs,
          AggMode::kPartial);
      partial_types = op->OutputTypes();
      auto out = Drain(std::move(op));
      ASSERT_TRUE(out.ok()) << out.status();
      partials.push_back(std::move(*out));
    }
    auto merged = Drain(HashAggregate(
        MemoryScan(partial_types, std::move(partials)), {0}, aggs,
        AggMode::kFinal));
    ASSERT_TRUE(merged.ok()) << merged.status();
    std::vector<Row> got = RowsOf(*merged);
    std::sort(got.begin(), got.end(), RowLess{1});
    std::vector<Row> want = RefGroupBy(rows, 1, aggs);
    std::sort(want.begin(), want.end(), RowLess{1});
    ExpectAggRows(got, want, 1, aggs, "merged seed " + std::to_string(seed));
  }
}

// ---------------------------------------------------------------------------
// Joins
// ---------------------------------------------------------------------------

struct JoinCase {
  std::vector<TypeId> probe_types;  // keys, then the row id
  std::vector<TypeId> build_types;  // keys, the row id, then a payload
  std::vector<Row> probe;
  std::vector<Row> build;
  size_t width = 1;
};

/// Build keys come from a narrower draw than probe keys, so some probe
/// keys are missing from the build side and build keys repeat.
JoinCase MakeJoinCase(uint64_t seed, size_t probe_rows, size_t build_rows) {
  Rng rng(seed);
  JoinCase c;
  c.width = 1 + rng.Uniform(3);
  for (size_t k = 0; k < c.width; ++k) {
    const TypeId t = kAllTypes[rng.Uniform(std::size(kAllTypes))];
    c.build_types.push_back(t);
    // An INT32 probe key must still match a BIGINT build key.
    c.probe_types.push_back(t == TypeId::kInt64 && rng.Bernoulli(0.5)
                                ? TypeId::kInt32
                                : t);
  }
  c.probe_types.push_back(TypeId::kInt64);
  c.build_types.push_back(TypeId::kInt64);
  c.build_types.push_back(TypeId::kString);
  const double null_rate = rng.Bernoulli(0.5) ? 0.1 : 0.0;
  for (size_t i = 0; i < probe_rows; ++i) {
    Row row;
    for (size_t k = 0; k < c.width; ++k) {
      Datum v = RandomValue(rng, c.probe_types[k], null_rate);
      row.push_back(v);
    }
    row.push_back(Datum::Int64(static_cast<int64_t>(i)));
    c.probe.push_back(std::move(row));
  }
  for (size_t i = 0; i < build_rows; ++i) {
    Row row;
    for (size_t k = 0; k < c.width; ++k) {
      // INT32-range draws for a BIGINT build key keep matches likely.
      const TypeId draw = c.build_types[k] == TypeId::kInt64
                              ? TypeId::kInt32
                              : c.build_types[k];
      Datum v = RandomValue(rng, draw, null_rate);
      if (!v.is_null() && draw != c.build_types[k]) {
        v = Datum::Int64(v.int_value());
      }
      row.push_back(v);
    }
    row.push_back(Datum::Int64(static_cast<int64_t>(i)));
    row.push_back(Datum::String("payload-" + std::to_string(i)));
    c.build.push_back(std::move(row));
  }
  return c;
}

/// (probe id, build id) pairs: nested loops, NULL never equal.
std::vector<std::pair<int64_t, int64_t>> RefJoin(const JoinCase& c) {
  std::vector<std::pair<int64_t, int64_t>> out;
  for (const Row& p : c.probe) {
    for (const Row& b : c.build) {
      bool match = true;
      for (size_t k = 0; k < c.width && match; ++k) {
        match = !p[k].is_null() && !b[k].is_null() && p[k].Compare(b[k]) == 0;
      }
      if (match) {
        out.emplace_back(p[c.width].int_value(), b[c.width].int_value());
      }
    }
  }
  return out;
}

void CheckJoin(const JoinCase& c, uint64_t seed) {
  Rng rng(seed * 13);
  auto out = Drain(HashJoin(
      MemoryScan(c.probe_types, ToBatches(c.probe_types, c.probe, rng)),
      MemoryScan(c.build_types, ToBatches(c.build_types, c.build, rng)),
      Iota(c.width), Iota(c.width)));
  ASSERT_TRUE(out.ok()) << out.status();
  const size_t probe_width = c.probe_types.size();
  ASSERT_EQ(out->num_columns(), probe_width + c.build_types.size());
  std::vector<std::pair<int64_t, int64_t>> got;
  for (size_t i = 0; i < out->num_rows(); ++i) {
    const int64_t p = out->columns[c.width].IntAt(i);
    const int64_t b = out->columns[probe_width + c.width].IntAt(i);
    got.emplace_back(p, b);
    // Every output column is the matched input row's value.
    const Row row = out->RowAt(i);
    const auto split = row.begin() + static_cast<std::ptrdiff_t>(probe_width);
    ExpectSameRow(Row(row.begin(), split), c.probe[static_cast<size_t>(p)],
                  "probe side");
    ExpectSameRow(Row(split, row.end()), c.build[static_cast<size_t>(b)],
                  "build side");
  }
  // Output follows probe order.
  for (size_t i = 1; i < got.size(); ++i) {
    ASSERT_LE(got[i - 1].first, got[i].first) << "seed " << seed;
  }
  std::vector<std::pair<int64_t, int64_t>> want = RefJoin(c);
  std::sort(got.begin(), got.end());
  std::sort(want.begin(), want.end());
  EXPECT_EQ(got, want) << "seed " << seed;
}

TEST(HashJoinReferenceTest, MatchesNestedLoops) {
  for (uint64_t seed = 300; seed < 360; ++seed) {
    CheckJoin(MakeJoinCase(seed, 150 + seed % 50, 40 + seed % 30), seed);
  }
}

TEST(HashJoinReferenceTest, EmptySides) {
  for (uint64_t seed = 400; seed < 412; ++seed) {
    const size_t probe_rows = seed % 3 == 0 ? 0 : 50;
    const size_t build_rows = seed % 3 == 1 ? 0 : 20;
    CheckJoin(MakeJoinCase(seed, probe_rows, build_rows), seed);
  }
}

// ---------------------------------------------------------------------------
// Batch hash and key table
// ---------------------------------------------------------------------------

TEST(BatchHashTest, MatchesDatumHashAndRowFold) {
  Rng rng(500);
  for (TypeId type : kAllTypes) {
    std::vector<Row> rows;
    for (int i = 0; i < 200; ++i) rows.push_back({RandomValue(rng, type, 0.1)});
    Batch batch = MakeBatch({type});
    for (const Row& r : rows) SDW_CHECK_OK(batch.columns[0].AppendDatum(r[0]));
    std::vector<uint64_t> hashes;
    HashColumn(batch.columns[0], &hashes);
    ASSERT_EQ(hashes.size(), rows.size());
    for (size_t i = 0; i < rows.size(); ++i) {
      EXPECT_EQ(hashes[i], rows[i][0].Hash()) << TypeName(type) << " row " << i;
    }
  }
  // Several key columns: the seed folded with HashCombine, left to right.
  for (uint64_t seed = 501; seed < 541; ++seed) {
    Rng r(seed);
    const size_t width = 1 + r.Uniform(3);
    std::vector<TypeId> types;
    for (size_t k = 0; k < width; ++k) {
      types.push_back(kAllTypes[r.Uniform(std::size(kAllTypes))]);
    }
    std::vector<Row> rows;
    for (int i = 0; i < 100; ++i) {
      Row row;
      for (TypeId t : types) row.push_back(RandomValue(r, t, 0.1));
      rows.push_back(std::move(row));
    }
    Batch batch = MakeBatch(types);
    for (const Row& row : rows) {
      for (size_t k = 0; k < width; ++k) {
        SDW_CHECK_OK(batch.columns[k].AppendDatum(row[k]));
      }
    }
    std::vector<uint64_t> hashes;
    HashRows(batch, Iota(width), &hashes);
    for (size_t i = 0; i < rows.size(); ++i) {
      uint64_t want = 0x9e3779b97f4a7c15ull;  // the shuffle's seed
      for (const Datum& d : rows[i]) want = HashCombine(want, d.Hash());
      EXPECT_EQ(hashes[i], want) << "seed " << seed << " row " << i;
    }
  }
}

TEST(KeyTableTest, GrowsWithDistinctKeysAndKeepsFirstSeenIds) {
  // 40000 rows over 3 distinct keys, then 20000 distinct VARCHAR keys:
  // ids stay dense and in first-seen order through every growth.
  KeyTable table({TypeId::kString});
  Batch repeats = MakeBatch({TypeId::kString});
  for (int i = 0; i < 40000; ++i) {
    repeats.columns[0].AppendString(i % 3 == 0 ? "" : i % 3 == 1 ? "x" : "y");
  }
  std::vector<uint64_t> hashes;
  std::vector<uint32_t> ids(repeats.num_rows());
  HashRows(repeats, {0}, &hashes);
  table.Insert(repeats, {0}, hashes.data(), ids.data());
  ASSERT_EQ(table.size(), 3u);
  for (size_t i = 0; i < ids.size(); ++i) ASSERT_EQ(ids[i], i % 3);

  Batch distinct = MakeBatch({TypeId::kString});
  for (int i = 0; i < 20000; ++i) {
    distinct.columns[0].AppendString("key-" + std::to_string(i));
  }
  HashRows(distinct, {0}, &hashes);
  ids.resize(distinct.num_rows());
  table.Insert(distinct, {0}, hashes.data(), ids.data());
  ASSERT_EQ(table.size(), 20003u);
  std::vector<uint32_t> found(distinct.num_rows());
  table.Find(distinct, {0}, hashes.data(), found.data());
  for (size_t i = 0; i < ids.size(); ++i) {
    ASSERT_EQ(ids[i], 3 + i);
    ASSERT_EQ(found[i], ids[i]);
  }
  ColumnVector keys(TypeId::kString);
  table.AppendKeys(0, &keys);
  ASSERT_EQ(keys.size(), 20003u);
  EXPECT_EQ(keys.StringAt(0), "");
  EXPECT_EQ(keys.StringAt(20002), "key-19999");
}

}  // namespace
}  // namespace sdw::exec
