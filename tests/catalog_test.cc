#include <gtest/gtest.h>

#include <cstring>
#include <limits>

#include "catalog/catalog.h"
#include "catalog/schema.h"
#include "catalog/types.h"

namespace sdw {
namespace {

TableSchema ClicksSchema() {
  return TableSchema("clicks", {
                                   {"user_id", TypeId::kInt64},
                                   {"url", TypeId::kString},
                                   {"ts", TypeId::kInt64},
                                   {"latency", TypeId::kDouble},
                                   {"day", TypeId::kDate},
                               });
}

TEST(DatumTest, NullsCompareFirst) {
  EXPECT_LT(Datum::Null(), Datum::Int64(INT64_MIN));
  EXPECT_EQ(Datum::Null().Compare(Datum::Null()), 0);
}

TEST(DatumTest, IntOrdering) {
  EXPECT_LT(Datum::Int64(1), Datum::Int64(2));
  EXPECT_LT(Datum::Int64(-5), Datum::Int64(0));
  EXPECT_EQ(Datum::Int64(7).Compare(Datum::Int32(7)), 0);
}

TEST(DatumTest, MixedNumericComparesAsDouble) {
  EXPECT_LT(Datum::Int64(1), Datum::Double(1.5));
  EXPECT_LT(Datum::Double(0.5), Datum::Int64(1));
}

TEST(DatumTest, StringOrdering) {
  EXPECT_LT(Datum::String("abc"), Datum::String("abd"));
  EXPECT_EQ(Datum::String("x").Compare(Datum::String("x")), 0);
}

TEST(DatumTest, HashConsistentWithEquality) {
  EXPECT_EQ(Datum::Int64(42).Hash(), Datum::Int64(42).Hash());
  EXPECT_EQ(Datum::String("abc").Hash(), Datum::String("abc").Hash());
  EXPECT_NE(Datum::Int64(1).Hash(), Datum::Int64(2).Hash());
  EXPECT_EQ(Datum::Double(0.0).Hash(), Datum::Double(-0.0).Hash());
}

// PostgreSQL's rule: NaN equals NaN, whatever its bits, and sorts above
// every other double; -0.0 equals 0.0. Hash agrees with Compare.
TEST(DatumTest, NaNEqualsNaNAndSortsAboveEveryDouble) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const uint64_t other_bits = 0xfff8000000000123ull;  // sign and payload
  double other_nan;
  std::memcpy(&other_nan, &other_bits, sizeof(other_nan));
  EXPECT_EQ(Datum::Double(nan).Compare(Datum::Double(other_nan)), 0);
  EXPECT_EQ(Datum::Double(nan).Hash(), Datum::Double(other_nan).Hash());
  EXPECT_GT(Datum::Double(nan).Compare(Datum::Double(inf)), 0);
  EXPECT_LT(Datum::Double(-inf).Compare(Datum::Double(nan)), 0);
  EXPECT_GT(Datum::Double(nan).Compare(Datum::Int64(1)), 0);
  EXPECT_LT(Datum::Int64(1).Compare(Datum::Double(nan)), 0);
  EXPECT_LT(Datum::Null().Compare(Datum::Double(nan)), 0) << "NULLs first";
  EXPECT_EQ(Datum::Double(-0.0).Compare(Datum::Double(0.0)), 0);
  EXPECT_EQ(Datum::Double(-0.0).Hash(), Datum::Double(0.0).Hash());
  EXPECT_EQ(CompareDoubles(nan, other_nan), 0);
  EXPECT_EQ(CompareDoubles(nan, 1.0), 1);
  EXPECT_EQ(CompareDoubles(1.0, nan), -1);
  EXPECT_EQ(CompareDoubles(-0.0, 0.0), 0);
  EXPECT_EQ(CompareDoubles(-1.0, 2.0), -1);
}

TEST(DatumTest, ToStringRendersSqlish) {
  EXPECT_EQ(Datum::Null().ToString(), "NULL");
  EXPECT_EQ(Datum::Int64(42).ToString(), "42");
  EXPECT_EQ(Datum::String("hi").ToString(), "'hi'");
  EXPECT_EQ(Datum::Bool(true).ToString(), "true");
}

TEST(ColumnVectorTest, AppendAndRead) {
  ColumnVector v(TypeId::kInt64);
  v.AppendInt(10);
  v.AppendNull();
  v.AppendInt(-3);
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v.IntAt(0), 10);
  EXPECT_TRUE(v.IsNull(1));
  EXPECT_EQ(v.IntAt(2), -3);
  EXPECT_EQ(v.null_count(), 1u);
  EXPECT_TRUE(v.DatumAt(1).is_null());
  EXPECT_EQ(v.DatumAt(2), Datum::Int64(-3));
}

TEST(ColumnVectorTest, AppendDatumTypeChecks) {
  ColumnVector ints(TypeId::kInt64);
  EXPECT_TRUE(ints.AppendDatum(Datum::Int32(5)).ok());
  EXPECT_FALSE(ints.AppendDatum(Datum::String("no")).ok());
  ColumnVector strs(TypeId::kString);
  EXPECT_FALSE(strs.AppendDatum(Datum::Int64(1)).ok());
  EXPECT_TRUE(strs.AppendDatum(Datum::Null()).ok());
}

TEST(ColumnVectorTest, AppendDatumRejectsValuesTheLaneCannotHold) {
  // INTEGER and DATE read their lane back as int32, BOOLEAN as 0/1: a
  // value that would read back differently is refused, not truncated.
  for (TypeId type : {TypeId::kInt32, TypeId::kDate}) {
    ColumnVector v(type);
    EXPECT_EQ(v.AppendDatum(Datum::Int64(3000000000)).code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(v.AppendDatum(Datum::Int64(-2147483649)).code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(v.size(), 0u);
    ASSERT_TRUE(v.AppendDatum(Datum::Int64(-2147483648)).ok());
    ASSERT_TRUE(v.AppendDatum(Datum::Int64(2147483647)).ok());
    EXPECT_EQ(v.DatumAt(0).int_value(), -2147483648);
    EXPECT_EQ(v.DatumAt(1).int_value(), 2147483647);
  }
  ColumnVector b(TypeId::kBool);
  EXPECT_EQ(b.AppendDatum(Datum::Int64(5)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(b.AppendDatum(Datum::Int64(-1)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(b.size(), 0u);
  for (const Datum& d : {Datum::Bool(true), Datum::Bool(false),
                         Datum::Int64(1), Datum::Int64(0)}) {
    ASSERT_TRUE(b.AppendDatum(d).ok()) << d.ToString();
  }
  EXPECT_EQ(b.DatumAt(0), Datum::Bool(true));
  EXPECT_EQ(b.DatumAt(1), Datum::Bool(false));
  EXPECT_EQ(b.DatumAt(2), Datum::Bool(true));
  EXPECT_EQ(b.DatumAt(3), Datum::Bool(false));
  // BIGINT holds every int64.
  ColumnVector big(TypeId::kInt64);
  EXPECT_TRUE(big.AppendDatum(Datum::Int64(3000000000)).ok());
}

TEST(ColumnVectorTest, TakeIntsWithNulls) {
  ColumnVector v =
      ColumnVector::TakeInts(TypeId::kBool, {1, 0, 0}, {0, 1, 0});
  EXPECT_EQ(v.size(), 3u);
  EXPECT_EQ(v.null_count(), 1u);
  EXPECT_TRUE(v.IsNull(1));
  EXPECT_EQ(v.IntAt(0), 1);
  ColumnVector dense = ColumnVector::TakeInts(TypeId::kInt64, {4, 5});
  EXPECT_FALSE(dense.has_nulls());
  EXPECT_EQ(dense.nulls().size(), 2u);
}

TEST(ColumnVectorTest, AppendRange) {
  ColumnVector a(TypeId::kString);
  a.AppendString("x");
  a.AppendNull();
  a.AppendString("z");
  ColumnVector b(TypeId::kString);
  ASSERT_TRUE(b.AppendRange(a, 1, 3).ok());
  ASSERT_EQ(b.size(), 2u);
  EXPECT_TRUE(b.IsNull(0));
  EXPECT_EQ(b.StringAt(1), "z");
  EXPECT_FALSE(b.AppendRange(a, 2, 5).ok());
  ColumnVector c(TypeId::kInt64);
  EXPECT_FALSE(c.AppendRange(a, 0, 1).ok());
}

TEST(SchemaTest, FindColumn) {
  TableSchema s = ClicksSchema();
  EXPECT_EQ(*s.FindColumn("url"), 1u);
  EXPECT_FALSE(s.FindColumn("nope").ok());
}

TEST(SchemaTest, DistKey) {
  TableSchema s = ClicksSchema();
  EXPECT_EQ(s.dist_style(), DistStyle::kEven);
  ASSERT_TRUE(s.SetDistKey("user_id").ok());
  EXPECT_EQ(s.dist_style(), DistStyle::kKey);
  EXPECT_EQ(s.dist_key(), 0);
  EXPECT_FALSE(s.SetDistKey("nope").ok());
  s.SetDistStyle(DistStyle::kAll);
  EXPECT_EQ(s.dist_key(), -1);
}

TEST(SchemaTest, SortKeys) {
  TableSchema s = ClicksSchema();
  ASSERT_TRUE(s.SetSortKey(SortStyle::kCompound, {"day", "user_id"}).ok());
  EXPECT_EQ(s.sort_keys(), (std::vector<int>{4, 0}));
  ASSERT_TRUE(s.SetSortKey(SortStyle::kInterleaved, {"ts", "user_id"}).ok());
  EXPECT_EQ(s.sort_style(), SortStyle::kInterleaved);
  EXPECT_FALSE(s.SetSortKey(SortStyle::kCompound, {}).ok());
  EXPECT_FALSE(s.SetSortKey(SortStyle::kCompound, {"nope"}).ok());
}

TEST(SchemaTest, ToStringShowsDdl) {
  TableSchema s = ClicksSchema();
  ASSERT_TRUE(s.SetDistKey("user_id").ok());
  std::string ddl = s.ToString();
  EXPECT_NE(ddl.find("DISTKEY(user_id)"), std::string::npos);
  EXPECT_NE(ddl.find("BIGINT"), std::string::npos);
}

TEST(CatalogTest, CreateGetDrop) {
  Catalog cat;
  ASSERT_TRUE(cat.CreateTable(ClicksSchema()).ok());
  EXPECT_TRUE(cat.HasTable("clicks"));
  EXPECT_EQ(cat.CreateTable(ClicksSchema()).code(),
            StatusCode::kAlreadyExists);
  auto t = cat.GetTable("clicks");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->num_columns(), 5u);
  ASSERT_TRUE(cat.DropTable("clicks").ok());
  EXPECT_FALSE(cat.HasTable("clicks"));
  EXPECT_EQ(cat.DropTable("clicks").code(), StatusCode::kNotFound);
}

TEST(CatalogTest, RejectsInvalidSchemas) {
  Catalog cat;
  EXPECT_FALSE(cat.CreateTable(TableSchema("", {{"a", TypeId::kInt64}})).ok());
  EXPECT_FALSE(cat.CreateTable(TableSchema("t", {})).ok());
}

TEST(CatalogTest, StatsLifecycle) {
  Catalog cat;
  ASSERT_TRUE(cat.CreateTable(ClicksSchema()).ok());
  EXPECT_EQ(cat.GetStats("clicks").row_count, 0u);
  TableStats stats;
  stats.row_count = 123;
  stats.columns.resize(5);
  stats.columns[0].min = Datum::Int64(1);
  stats.columns[0].max = Datum::Int64(99);
  cat.UpdateStats("clicks", stats);
  EXPECT_EQ(cat.GetStats("clicks").row_count, 123u);
  EXPECT_EQ(cat.GetStats("clicks").columns[0].max, Datum::Int64(99));
}

TEST(CatalogTest, UpdateTableForAnalyzer) {
  Catalog cat;
  ASSERT_TRUE(cat.CreateTable(ClicksSchema()).ok());
  auto t = cat.GetTable("clicks");
  ASSERT_TRUE(t.ok());
  t->SetColumnEncoding(0, ColumnEncoding::kDelta);
  ASSERT_TRUE(cat.UpdateTable("clicks", *t).ok());
  EXPECT_EQ(cat.GetTable("clicks")->column(0).encoding,
            ColumnEncoding::kDelta);
  EXPECT_EQ(cat.UpdateTable("missing", *t).code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace sdw
