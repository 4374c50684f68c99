// The compiled engine's predicate kernels run over value and null lanes;
// the interpreted engine's EvalRow runs the same expressions one Datum at
// a time. They must agree on every row: AND, OR and NOT over every mix of
// TRUE, FALSE and NULL, and every comparison of BIGINT, DOUBLE (-0.0 and
// NaN included) and VARCHAR, with and without NULLs. NaN follows
// PostgreSQL everywhere: it equals NaN and sorts above every other double
// in comparisons, ORDER BY, GROUP BY, MIN/MAX and zone maps.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <string>

#include "common/logging.h"
#include "exec/expr.h"
#include "exec/hash_table.h"
#include "warehouse/warehouse.h"

namespace sdw {
namespace {

using exec::And;
using exec::Batch;
using exec::Cmp;
using exec::CmpOp;
using exec::Col;
using exec::ExprPtr;
using exec::Lit;
using exec::Not;
using exec::Or;

constexpr CmpOp kAllOps[] = {CmpOp::kEq, CmpOp::kNe, CmpOp::kLt,
                             CmpOp::kLe, CmpOp::kGt, CmpOp::kGe};

const double kNaN = std::numeric_limits<double>::quiet_NaN();
const double kInf = std::numeric_limits<double>::infinity();

/// NaN with the sign bit and a payload set: another bit pattern of NaN.
double OtherNaN() {
  uint64_t bits = 0xfff8000000000123ull;
  double d;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

/// Evaluates `expr` over `batch` through the lane kernels and through
/// EvalRow, and checks that every row agrees.
void ExpectLanesMatchRows(const ExprPtr& expr, const Batch& batch) {
  auto lanes = expr->EvalBatch(batch);
  ASSERT_TRUE(lanes.ok()) << expr->ToString() << ": " << lanes.status();
  ASSERT_EQ(lanes->type(), TypeId::kBool) << expr->ToString();
  ASSERT_EQ(lanes->size(), batch.num_rows()) << expr->ToString();
  size_t nulls = 0;
  for (size_t i = 0; i < batch.num_rows(); ++i) {
    auto row = expr->EvalRow(batch.RowAt(i));
    ASSERT_TRUE(row.ok()) << expr->ToString() << ": " << row.status();
    const std::string where = expr->ToString() + " row " + std::to_string(i);
    ASSERT_EQ(lanes->IsNull(i), row->is_null()) << where;
    if (lanes->IsNull(i)) {
      ++nulls;
      EXPECT_EQ(lanes->IntAt(i), 0) << where << ": a NULL row's lane is 0";
    } else {
      EXPECT_EQ(lanes->IntAt(i), row->int_value() != 0 ? 1 : 0) << where;
    }
  }
  EXPECT_EQ(lanes->null_count(), nulls) << expr->ToString();
}

/// A column holding `values` in order (Datum::Null() gives a NULL row).
ColumnVector ColumnOf(TypeId type, const std::vector<Datum>& values) {
  ColumnVector col(type);
  for (const Datum& v : values) SDW_CHECK_OK(col.AppendDatum(v));
  return col;
}

TEST(BoolLaneTest, AndOrNotOverEveryTruthCombination) {
  // Rows enumerate (a, b) over {TRUE, FALSE, NULL} x {TRUE, FALSE, NULL}.
  const Datum truth[] = {Datum::Bool(true), Datum::Bool(false), Datum::Null()};
  std::vector<Datum> a, b;
  for (const Datum& x : truth) {
    for (const Datum& y : truth) {
      a.push_back(x);
      b.push_back(y);
    }
  }
  Batch batch;
  batch.columns.push_back(ColumnOf(TypeId::kBool, a));
  batch.columns.push_back(ColumnOf(TypeId::kBool, b));
  const ExprPtr x = Col(0, TypeId::kBool);
  const ExprPtr y = Col(1, TypeId::kBool);

  // SQL's truth tables, row by row ('T', 'F' or 'N').
  const std::string kAnd = "TFNFFFNFN";
  const std::string kOr = "TTTTFNTNN";
  const std::string kNot = "FFFTTTNNN";
  auto expect_table = [&](const ExprPtr& e, const std::string& table) {
    auto lanes = e->EvalBatch(batch);
    ASSERT_TRUE(lanes.ok()) << lanes.status();
    for (size_t i = 0; i < table.size(); ++i) {
      const char got = lanes->IsNull(i) ? 'N' : (lanes->IntAt(i) ? 'T' : 'F');
      EXPECT_EQ(got, table[i]) << e->ToString() << " row " << i;
    }
  };
  expect_table(And(x, y), kAnd);
  expect_table(Or(x, y), kOr);
  expect_table(Not(x), kNot);

  for (const ExprPtr& e :
       {And(x, y), Or(x, y), Not(x), Not(y), And(y, x), Or(y, x),
        Not(And(x, y)), Or(And(x, Not(y)), Not(Or(x, y))), And(x, x)}) {
    ExpectLanesMatchRows(e, batch);
  }

  // Null-free lanes, and any nonzero integer counts as TRUE.
  Batch ints;
  ints.columns.push_back(ColumnOf(
      TypeId::kInt64, {Datum::Int64(0), Datum::Int64(1), Datum::Int64(-7),
                       Datum::Int64(0)}));
  ints.columns.push_back(ColumnOf(
      TypeId::kInt64, {Datum::Int64(2), Datum::Int64(0), Datum::Int64(3),
                       Datum::Int64(0)}));
  const ExprPtr p = Col(0, TypeId::kInt64);
  const ExprPtr q = Col(1, TypeId::kInt64);
  for (const ExprPtr& e : {And(p, q), Or(p, q), Not(p), Not(Or(p, q))}) {
    ExpectLanesMatchRows(e, ints);
  }
}

TEST(BoolLaneTest, NonBooleanOperandIsAnError) {
  Batch batch;
  batch.columns.push_back(ColumnOf(TypeId::kDouble, {Datum::Double(1.0)}));
  const ExprPtr d = Col(0, TypeId::kDouble);
  for (const ExprPtr& e : {And(d, d), Or(d, d), Not(d)}) {
    EXPECT_EQ(e->EvalBatch(batch).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(e->EvalRow(batch.RowAt(0)).status().code(),
              StatusCode::kInvalidArgument);
  }
}

/// Checks every operator, column against each literal and against a
/// second column, over `values` with and without NULLs mixed in.
void ExpectComparisonsMatchRows(TypeId type, const std::vector<Datum>& values,
                                const std::vector<Datum>& literals) {
  for (bool with_nulls : {false, true}) {
    std::vector<Datum> left, right;
    for (const Datum& l : values) {
      for (const Datum& r : values) {
        left.push_back(l);
        right.push_back(r);
      }
      if (with_nulls) {
        left.push_back(Datum::Null());
        right.push_back(l);
        left.push_back(l);
        right.push_back(Datum::Null());
      }
    }
    Batch batch;
    batch.columns.push_back(ColumnOf(type, left));
    batch.columns.push_back(ColumnOf(type, right));
    const ExprPtr l = Col(0, type);
    const ExprPtr r = Col(1, type);
    for (CmpOp op : kAllOps) {
      ExpectLanesMatchRows(Cmp(op, l, r), batch);
      ExpectLanesMatchRows(Cmp(op, l, Lit(Datum::Null())), batch);
      for (const Datum& lit : literals) {
        ExpectLanesMatchRows(Cmp(op, l, Lit(lit)), batch);
        ExpectLanesMatchRows(Cmp(op, Lit(lit), l), batch);
      }
      // A comparison inside AND, as BETWEEN lowers.
      if (!literals.empty()) {
        ExpectLanesMatchRows(
            And(Cmp(CmpOp::kGe, l, Lit(literals.front())),
                Cmp(CmpOp::kLe, l, Lit(literals.back()))),
            batch);
      }
    }
  }
}

TEST(CompareLaneTest, BigintMatchesEvalRow) {
  const int64_t kMin = std::numeric_limits<int64_t>::min();
  const int64_t kMax = std::numeric_limits<int64_t>::max();
  std::vector<Datum> values;
  for (int64_t v : {kMin, int64_t{-3}, int64_t{-1}, int64_t{0}, int64_t{1},
                    int64_t{2}, kMax}) {
    values.push_back(Datum::Int64(v));
  }
  ExpectComparisonsMatchRows(
      TypeId::kInt64, values,
      {Datum::Int64(-1), Datum::Int64(0), Datum::Int64(2), Datum::Int64(kMax),
       Datum::Int32(1), Datum::Double(1.5), Datum::Double(-0.0),
       Datum::Double(kNaN), Datum::Double(kInf)});
}

TEST(CompareLaneTest, NarrowIntegerTypesMatchEvalRow) {
  std::vector<Datum> dates;
  for (int32_t d : {18000, 18001, 18005}) dates.push_back(Datum::Date(d));
  ExpectComparisonsMatchRows(TypeId::kDate, dates,
                             {Datum::Date(18001), Datum::Int64(18003)});
  std::vector<Datum> ints;
  for (int32_t v : {-5, 0, 5}) ints.push_back(Datum::Int32(v));
  ExpectComparisonsMatchRows(TypeId::kInt32, ints,
                             {Datum::Int64(0), Datum::Double(0.5)});
}

TEST(CompareLaneTest, DoubleMatchesEvalRowWithSignedZeroAndNaN) {
  std::vector<Datum> values;
  for (double v : {-kInf, -2.25, -0.0, 0.0, 1.5, 1e300, kInf, kNaN,
                   OtherNaN()}) {
    values.push_back(Datum::Double(v));
  }
  ExpectComparisonsMatchRows(
      TypeId::kDouble, values,
      {Datum::Double(-0.0), Datum::Double(0.0), Datum::Double(1.5),
       Datum::Double(kInf), Datum::Double(kNaN), Datum::Int64(0),
       Datum::Int64(2)});
}

TEST(CompareLaneTest, VarcharMatchesEvalRow) {
  std::vector<Datum> values;
  for (const char* s :
       {"", "a", "ab", "b", "B", "a-varchar-past-the-sso-size"}) {
    values.push_back(Datum::String(s));
  }
  ExpectComparisonsMatchRows(
      TypeId::kString, values,
      {Datum::String(""), Datum::String("a"), Datum::String("aa"),
       Datum::String("zzz")});
}

TEST(CompareLaneTest, StringAgainstNumberIsAnError) {
  Batch batch;
  batch.columns.push_back(ColumnOf(TypeId::kString, {Datum::String("")}));
  const ExprPtr e = Cmp(CmpOp::kEq, Col(0, TypeId::kString),
                        Lit(Datum::Int64(5)));
  EXPECT_EQ(e->EvalBatch(batch).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(e->EvalRow(batch.RowAt(0)).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(NaNOrderTest, KeyTableGroupsEveryNaNTogether) {
  // As GROUP BY must, since NaN = NaN.
  Batch batch;
  batch.columns.push_back(ColumnOf(
      TypeId::kDouble, {Datum::Double(kNaN), Datum::Double(1.0),
                        Datum::Double(OtherNaN()), Datum::Double(-0.0),
                        Datum::Double(0.0)}));
  std::vector<uint64_t> hashes;
  exec::HashRows(batch, {0}, &hashes);
  exec::KeyTable table({TypeId::kDouble});
  std::vector<uint32_t> ids(batch.num_rows());
  table.Insert(batch, {0}, hashes.data(), ids.data());
  EXPECT_EQ(table.size(), 3u);
  EXPECT_EQ(ids[0], ids[2]);
  EXPECT_EQ(ids[3], ids[4]);
}

// --- NaN through SQL, in both engines ---------------------------------

class NaNSqlTest : public ::testing::TestWithParam<cluster::ExecutionMode> {
 protected:
  void SetUp() override {
    warehouse::WarehouseOptions options;
    options.cluster.num_nodes = 1;
    options.cluster.slices_per_node = 1;
    options.cluster.storage.max_rows_per_block = 4;  // one zone per 4 rows
    options.cache.enable_result_cache = false;
    options.exec.mode = GetParam();
    wh_ = std::make_unique<warehouse::Warehouse>(options);
    Run("CREATE TABLE t (id BIGINT, d DOUBLE PRECISION) SORTKEY(d)");
    // Sorted on d, NaN last, four rows a block: [-1, -0, 0, 1.5],
    // [1.5, 2.5, NaN, NaN] and [NaN x4].
    ColumnVector id(TypeId::kInt64);
    ColumnVector d(TypeId::kDouble);
    const double values[] = {kNaN,  -1.0, 1.5, 2.5,      OtherNaN(), 1.5,
                             kNaN,  0.0,  kNaN, OtherNaN(), -0.0,     kNaN};
    for (size_t i = 0; i < std::size(values); ++i) {
      id.AppendInt(static_cast<int64_t>(i));
      d.AppendDouble(values[i]);
    }
    std::vector<ColumnVector> cols;
    cols.push_back(std::move(id));
    cols.push_back(std::move(d));
    SDW_CHECK_OK(wh_->data_plane()->InsertRows("t", cols));
  }

  warehouse::StatementResult Run(const std::string& sql) {
    auto r = wh_->Execute(sql);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status();
    return r.ok() ? std::move(*r) : warehouse::StatementResult{};
  }

  int64_t Count(const std::string& where) {
    auto r = Run("SELECT COUNT(*) AS n FROM t WHERE " + where);
    return r.rows.num_rows() == 1 ? r.rows.columns[0].IntAt(0) : -1;
  }

  std::unique_ptr<warehouse::Warehouse> wh_;
};

TEST_P(NaNSqlTest, ComparisonsFollowTheNaNOrder) {
  EXPECT_EQ(Count("d = 1.5"), 2) << "NaN is not equal to 1.5";
  EXPECT_EQ(Count("d <> 1.5"), 10);
  EXPECT_EQ(Count("d < 2.0"), 5);
  EXPECT_EQ(Count("d > 2.0"), 7) << "NaN sorts above every double";
  EXPECT_EQ(Count("d >= 0.0"), 11);
  EXPECT_EQ(Count("d = 0.0"), 2) << "-0.0 equals 0.0";
  EXPECT_EQ(Count("d BETWEEN 0.0 AND 100.0"), 5);
  EXPECT_EQ(Count("d IN (1.5, 2.5)"), 3);
}

TEST_P(NaNSqlTest, OrderGroupAndExtremesFollowTheNaNOrder) {
  auto ordered = Run("SELECT d FROM t ORDER BY d");
  ASSERT_EQ(ordered.rows.num_rows(), 12u);
  EXPECT_EQ(ordered.rows.columns[0].DoubleAt(0), -1.0);
  for (size_t i = 6; i < 12; ++i) {
    EXPECT_TRUE(std::isnan(ordered.rows.columns[0].DoubleAt(i))) << i;
  }
  auto desc = Run("SELECT d FROM t ORDER BY d DESC LIMIT 1");
  ASSERT_EQ(desc.rows.num_rows(), 1u);
  EXPECT_TRUE(std::isnan(desc.rows.columns[0].DoubleAt(0)));

  auto groups = Run("SELECT d, COUNT(*) AS n FROM t GROUP BY d ORDER BY d");
  ASSERT_EQ(groups.rows.num_rows(), 5u) << "-1, 0, 1.5, 2.5 and one NaN";
  EXPECT_TRUE(std::isnan(groups.rows.columns[0].DoubleAt(4)));
  EXPECT_EQ(groups.rows.columns[1].IntAt(4), 6);
  EXPECT_EQ(groups.rows.columns[1].IntAt(1), 2) << "-0.0 groups with 0.0";

  auto extremes = Run("SELECT MIN(d) AS lo, MAX(d) AS hi FROM t");
  ASSERT_EQ(extremes.rows.num_rows(), 1u);
  EXPECT_EQ(extremes.rows.columns[0].DoubleAt(0), -1.0);
  EXPECT_TRUE(std::isnan(extremes.rows.columns[1].DoubleAt(0)));
  auto finite = Run("SELECT MIN(d) AS lo, MAX(d) AS hi FROM t WHERE d < 100.0");
  ASSERT_EQ(finite.rows.num_rows(), 1u);
  EXPECT_EQ(finite.rows.columns[1].DoubleAt(0), 2.5);
}

INSTANTIATE_TEST_SUITE_P(
    Engines, NaNSqlTest,
    ::testing::Values(cluster::ExecutionMode::kCompiled,
                      cluster::ExecutionMode::kInterpreted));

// Only the compiled scan has zone maps.
class NaNZoneMapTest : public NaNSqlTest {};

TEST_P(NaNZoneMapTest, PruneAroundNaNBlocks) {
  auto low = Run("SELECT COUNT(*) AS n FROM t WHERE d = 1.5");
  EXPECT_EQ(low.rows.columns[0].IntAt(0), 2);
  ASSERT_EQ(low.exec_stats.scans.size(), 1u);
  EXPECT_EQ(low.exec_stats.scans[0].blocks_skipped, 1u) << "the NaN block";
  auto high = Run("SELECT COUNT(*) AS n FROM t WHERE d > 1000.0");
  EXPECT_EQ(high.rows.columns[0].IntAt(0), 6);
  ASSERT_EQ(high.exec_stats.scans.size(), 1u);
  EXPECT_EQ(high.exec_stats.scans[0].blocks_skipped, 1u) << "the low block";
}

INSTANTIATE_TEST_SUITE_P(Compiled, NaNZoneMapTest,
                         ::testing::Values(cluster::ExecutionMode::kCompiled));

TEST(PredicateTypeTest, MismatchedLiteralIsAnErrorNotACrash) {
  warehouse::Warehouse wh;
  ASSERT_TRUE(
      wh.Execute("CREATE TABLE t (s VARCHAR, d DOUBLE PRECISION)").ok());
  ASSERT_TRUE(wh.Execute("INSERT INTO t VALUES ('a', 1.5), ('', 2.5)").ok());
  for (const char* sql : {"SELECT COUNT(*) AS n FROM t WHERE s = 5",
                          "SELECT COUNT(*) AS n FROM t WHERE d = 'x'",
                          "SELECT COUNT(*) AS n FROM t WHERE d LIKE 'x%'",
                          "SELECT COUNT(*) AS n FROM t WHERE s IN ('a', 1)",
                          "SELECT COUNT(*) AS n FROM t WHERE d BETWEEN 1 "
                          "AND 'z'"}) {
    auto r = wh.Execute(sql);
    ASSERT_FALSE(r.ok()) << sql;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << sql;
  }
  auto null_literal = wh.Execute("SELECT COUNT(*) AS n FROM t WHERE s = NULL");
  ASSERT_TRUE(null_literal.ok()) << null_literal.status();
  EXPECT_EQ(null_literal->rows.columns[0].IntAt(0), 0);
}

}  // namespace
}  // namespace sdw
