#include <gtest/gtest.h>

#include <cmath>

#include "common/random.h"
#include "load/copy.h"
#include "load/formats.h"
#include "load/infer.h"

namespace sdw::load {
namespace {

TableSchema LogSchema() {
  return TableSchema("logs", {{"ts", TypeId::kInt64},
                              {"path", TypeId::kString},
                              {"latency", TypeId::kDouble},
                              {"ok", TypeId::kBool}});
}

TEST(CsvTest, ParsesTypedFields) {
  auto cols = ParseCsv("100,/home,1.5,true\n200,/cart,0.25,false\n",
                       LogSchema());
  ASSERT_TRUE(cols.ok()) << cols.status();
  ASSERT_EQ((*cols)[0].size(), 2u);
  EXPECT_EQ((*cols)[0].IntAt(0), 100);
  EXPECT_EQ((*cols)[1].StringAt(1), "/cart");
  EXPECT_DOUBLE_EQ((*cols)[2].DoubleAt(0), 1.5);
  EXPECT_EQ((*cols)[3].IntAt(1), 0);
}

TEST(CsvTest, NullsAndQuoting) {
  auto cols = ParseCsv("1,\"a,b\"\"c\",\\N,1\n,\"\",2.0,0\n", LogSchema());
  ASSERT_TRUE(cols.ok()) << cols.status();
  EXPECT_EQ((*cols)[1].StringAt(0), "a,b\"c");
  EXPECT_TRUE((*cols)[2].IsNull(0));
  EXPECT_TRUE((*cols)[0].IsNull(1));
  // A quoted empty string is an empty string, not NULL.
  EXPECT_FALSE((*cols)[1].IsNull(1));
  EXPECT_EQ((*cols)[1].StringAt(1), "");
}

TEST(CsvTest, RejectsMalformedRows) {
  EXPECT_FALSE(ParseCsv("1,2\n", LogSchema()).ok());          // too few
  EXPECT_FALSE(ParseCsv("1,a,2.0,1,extra\n", LogSchema()).ok());  // too many
  EXPECT_FALSE(ParseCsv("abc,a,1.0,1\n", LogSchema()).ok());  // bad int
  EXPECT_FALSE(ParseCsv("1,a,xyz,1\n", LogSchema()).ok());    // bad double
  EXPECT_FALSE(ParseCsv("1,a,1.0,maybe\n", LogSchema()).ok());  // bad bool
}

// A number must be the whole field and fit its column: COPY never loads
// a silently truncated or clamped value.
TEST(CsvTest, RejectsPartialAndOutOfRangeNumbers) {
  const std::string good = "1,/ok,0.5,true\n";
  struct Case {
    std::string row;
    std::string column;
  };
  const Case cases[] = {
      {"12x,/a,2.5,true\n", "ts"},
      {"12,/a,2.5abc,true\n", "latency"},
      {"99999999999999999999,/a,2.5,true\n", "ts"},
      {"-99999999999999999999,/a,2.5,true\n", "ts"},
      {"12,/a,1e999,true\n", "latency"},
      {"12 ,/a,2.5,true\n", "ts"},
      {" 12,/a,2.5,true\n", "ts"},
      {"12,/a,2.5 ,true\n", "latency"},
      {"0x1A,/a,2.5,true\n", "ts"},
  };
  for (const Case& c : cases) {
    auto parsed = ParseCsv(good + c.row, LogSchema());
    ASSERT_FALSE(parsed.ok()) << c.row;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << c.row;
    EXPECT_NE(parsed.status().message().find("line 2"), std::string::npos)
        << parsed.status();
    EXPECT_NE(parsed.status().message().find("'" + c.column + "'"),
              std::string::npos)
        << parsed.status();
  }
  // INTEGER and DATE hold 32 bits.
  TableSchema narrow("n", {{"i", TypeId::kInt32}, {"day", TypeId::kDate}});
  EXPECT_FALSE(ParseCsv("2147483648,1\n", narrow).ok());
  EXPECT_FALSE(ParseCsv("1,-2147483649\n", narrow).ok());
  auto edges = ParseCsv("2147483647,-2147483648\n", narrow);
  ASSERT_TRUE(edges.ok()) << edges.status();
  EXPECT_EQ((*edges)[0].IntAt(0), 2147483647);
  // Every form strtod spells in full still loads, NaN and infinity too.
  auto doubles = ParseCsv("1,/a,-1.5e3,1\n2,/b,nan,0\n3,/c,inf,1\n",
                          LogSchema());
  ASSERT_TRUE(doubles.ok()) << doubles.status();
  EXPECT_EQ((*doubles)[2].DoubleAt(0), -1500.0);
  EXPECT_TRUE(std::isnan((*doubles)[2].DoubleAt(1)));
  EXPECT_TRUE(std::isinf((*doubles)[2].DoubleAt(2)));
}

// "\r\n" ends a line like "\n": no '\r' is left in the last field.
TEST(CsvTest, CrlfLineEndsLoadLikeLf) {
  const std::string lf = "100,/home,1.5,true\n\n200,\"/c,art\",0.25,false\n";
  const std::string crlf =
      "100,/home,1.5,true\r\n\r\n200,\"/c,art\",0.25,false\r\n";
  auto a = ParseCsv(lf, LogSchema());
  auto b = ParseCsv(crlf, LogSchema());
  ASSERT_TRUE(a.ok()) << a.status();
  ASSERT_TRUE(b.ok()) << b.status();
  EXPECT_EQ(FormatCsv(*a), FormatCsv(*b));
  TableSchema text("t", {{"k", TypeId::kInt64}, {"s", TypeId::kString}});
  auto last = ParseCsv("1,abc\r\n2,\"q\"\r\n", text);
  ASSERT_TRUE(last.ok()) << last.status();
  EXPECT_EQ((*last)[1].StringAt(0), "abc");
  EXPECT_EQ((*last)[1].StringAt(1), "q");
  // A '\r' inside a line is data, and a numeric field holding one is an
  // error.
  auto inner = ParseCsv("1,a\rb\n", text);
  ASSERT_TRUE(inner.ok()) << inner.status();
  EXPECT_EQ((*inner)[1].StringAt(0), "a\rb");
  EXPECT_FALSE(ParseCsv("1\r,a\n", text).ok());
}

TEST(CsvTest, RoundTripsThroughFormat) {
  Rng rng(5);
  std::vector<ColumnVector> cols;
  cols.emplace_back(TypeId::kInt64);
  cols.emplace_back(TypeId::kString);
  cols.emplace_back(TypeId::kDouble);
  cols.emplace_back(TypeId::kBool);
  for (int i = 0; i < 500; ++i) {
    if (rng.Bernoulli(0.1)) {
      cols[0].AppendNull();
    } else {
      cols[0].AppendInt(rng.UniformRange(-1000, 1000));
    }
    std::string s = rng.NextString(rng.Uniform(10));
    if (rng.Bernoulli(0.2)) s += ",\"tricky\"\n";
    cols[1].AppendString(s);
    cols[2].AppendDouble(rng.NextDouble());
    cols[3].AppendInt(rng.Bernoulli(0.5) ? 1 : 0);
  }
  std::string text = FormatCsv(cols);
  auto parsed = ParseCsv(text, LogSchema());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  for (size_t c = 0; c < cols.size(); ++c) {
    ASSERT_EQ((*parsed)[c].size(), cols[c].size());
    for (size_t i = 0; i < cols[c].size(); ++i) {
      ASSERT_EQ((*parsed)[c].IsNull(i), cols[c].IsNull(i)) << c << "," << i;
      if (cols[c].IsNull(i)) continue;
      EXPECT_EQ((*parsed)[c].DatumAt(i).Compare(cols[c].DatumAt(i)), 0)
          << c << "," << i;
    }
  }
}

TEST(JsonTest, ParsesObjectsPerLine) {
  const std::string text =
      "{\"ts\": 100, \"path\": \"/home\", \"latency\": 1.5, \"ok\": true}\n"
      "{\"path\": \"/x\", \"ts\": 200, \"extra\": 9}\n"
      "{}\n";
  auto cols = ParseJsonLines(text, LogSchema());
  ASSERT_TRUE(cols.ok()) << cols.status();
  ASSERT_EQ((*cols)[0].size(), 3u);
  EXPECT_EQ((*cols)[0].IntAt(0), 100);
  EXPECT_EQ((*cols)[1].StringAt(1), "/x");
  EXPECT_TRUE((*cols)[2].IsNull(1));  // absent field
  EXPECT_TRUE((*cols)[0].IsNull(2));  // empty object: all NULL
  EXPECT_EQ((*cols)[3].IntAt(0), 1);
}

TEST(JsonTest, EscapesAndNulls) {
  const std::string text =
      "{\"path\": \"a\\\"b\\nc\", \"ts\": null, \"latency\": -2.5, "
      "\"ok\": false}\n";
  auto cols = ParseJsonLines(text, LogSchema());
  ASSERT_TRUE(cols.ok()) << cols.status();
  EXPECT_EQ((*cols)[1].StringAt(0), "a\"b\nc");
  EXPECT_TRUE((*cols)[0].IsNull(0));
  EXPECT_DOUBLE_EQ((*cols)[2].DoubleAt(0), -2.5);
}

TEST(JsonTest, RejectsMalformedLines) {
  EXPECT_FALSE(ParseJsonLines("not json\n", LogSchema()).ok());
  EXPECT_FALSE(ParseJsonLines("{\"ts\" 1}\n", LogSchema()).ok());
  EXPECT_FALSE(ParseJsonLines("{\"ts\": }\n", LogSchema()).ok());
}

// ---------------------------------------------------------------------------
// COPY end to end
// ---------------------------------------------------------------------------

class CopyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cluster::ClusterConfig config;
    config.num_nodes = 2;
    config.slices_per_node = 2;
    config.storage.max_rows_per_block = 256;
    cluster_ = std::make_unique<cluster::Cluster>(config);
    TableSchema schema = LogSchema();
    ASSERT_TRUE(schema.SetSortKey(SortStyle::kCompound, {"ts"}).ok());
    ASSERT_TRUE(cluster_->CreateTable(schema).ok());
  }

  std::string MakeCsv(int rows, int first_ts) {
    Rng rng(first_ts);
    std::string out;
    for (int i = 0; i < rows; ++i) {
      out += std::to_string(first_ts + i) + ",/p" +
             std::to_string(rng.Uniform(20)) + "," +
             std::to_string(rng.NextDouble()) + ",true\n";
    }
    return out;
  }

  std::unique_ptr<cluster::Cluster> cluster_;
  backup::S3 s3_;
};

TEST_F(CopyTest, CopiesFromS3Prefix) {
  backup::S3Region* region = s3_.region("us-east-1");
  for (int f = 0; f < 4; ++f) {
    std::string csv = MakeCsv(500, f * 500);
    ASSERT_TRUE(region
                    ->PutObject("mybucket/logs/part-" + std::to_string(f),
                                Bytes(csv.begin(), csv.end()))
                    .ok());
  }
  CopyExecutor executor(cluster_.get(), &s3_);
  auto stats = executor.CopyFromUri("logs", "s3://mybucket/logs/");
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->rows_loaded, 2000u);
  EXPECT_EQ(stats->files, 4);
  EXPECT_GT(stats->modeled_seconds, 0.0);
  EXPECT_EQ(*cluster_->TotalRows("logs"), 2000u);
  // Statistics were refreshed ("statistics are updated with load").
  EXPECT_EQ(cluster_->catalog()->GetStats("logs").row_count, 2000u);
}

TEST_F(CopyTest, FirstLoadPicksEncodings) {
  CopyExecutor executor(cluster_.get(), &s3_);
  auto stats =
      executor.CopyFromPayloads("logs", {MakeCsv(4000, 0)});
  ASSERT_TRUE(stats.ok()) << stats.status();
  // The analyzer assigned encodings to the AUTO columns.
  EXPECT_FALSE(stats->chosen_encodings.empty());
  auto schema = cluster_->catalog()->GetTable("logs");
  ASSERT_TRUE(schema.ok());
  // Sorted ts column must land on DELTA.
  EXPECT_EQ(schema->column(0).encoding, ColumnEncoding::kDelta);
  // Low-cardinality path strings get a dictionary-ish encoding.
  EXPECT_NE(schema->column(1).encoding, ColumnEncoding::kAuto);
  // And the data still reads back.
  EXPECT_EQ(*cluster_->TotalRows("logs"), 4000u);

  // Second load must not re-run the analyzer.
  auto again = executor.CopyFromPayloads("logs", {MakeCsv(100, 9999)});
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->chosen_encodings.empty());
}

TEST_F(CopyTest, CompupdateOffSkipsAnalyzer) {
  CopyExecutor executor(cluster_.get(), &s3_);
  CopyOptions options;
  options.compupdate = false;
  auto stats = executor.CopyFromPayloads("logs", {MakeCsv(1000, 0)}, options);
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats->chosen_encodings.empty());
  EXPECT_EQ(cluster_->catalog()->GetTable("logs")->column(0).encoding,
            ColumnEncoding::kAuto);
}

TEST_F(CopyTest, JsonCopy) {
  CopyExecutor executor(cluster_.get(), &s3_);
  CopyOptions options;
  options.format = CopyFormat::kJson;
  const std::string payload =
      "{\"ts\": 1, \"path\": \"/a\", \"latency\": 0.5, \"ok\": true}\n"
      "{\"ts\": 2, \"path\": \"/b\", \"latency\": 1.5, \"ok\": false}\n";
  auto stats = executor.CopyFromPayloads("logs", {payload}, options);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->rows_loaded, 2u);
}

TEST_F(CopyTest, MalformedNumberLoadsNothing) {
  CopyExecutor executor(cluster_.get(), &s3_);
  for (const char* bad : {"12x,/a,1.0,true\n", "1,/a,2.5abc,true\n",
                          "99999999999999999999,/a,1.0,true\n"}) {
    auto stats =
        executor.CopyFromPayloads("logs",
                                  {MakeCsv(50, 0), MakeCsv(5, 100) + bad});
    ASSERT_FALSE(stats.ok()) << bad;
    EXPECT_EQ(stats.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(*cluster_->TotalRows("logs"), 0u) << bad;
  }
  auto good = executor.CopyFromPayloads("logs", {MakeCsv(50, 0)});
  ASSERT_TRUE(good.ok()) << good.status();
  EXPECT_EQ(*cluster_->TotalRows("logs"), 50u);
}

TEST(JsonTest, RejectsIntegersPastBigint) {
  TableSchema schema("j", {{"k", TypeId::kInt64}});
  EXPECT_FALSE(ParseJsonLines("{\"k\": 99999999999999999999}\n", schema).ok());
  auto ok = ParseJsonLines("{\"k\": 9007199254740992}\n", schema);
  ASSERT_TRUE(ok.ok()) << ok.status();
  EXPECT_EQ((*ok)[0].IntAt(0), 9007199254740992);
}

TEST_F(CopyTest, ErrorsSurfaceCleanly) {
  CopyExecutor executor(cluster_.get(), &s3_);
  EXPECT_FALSE(executor.CopyFromUri("logs", "s3://nope/missing/").ok());
  EXPECT_FALSE(executor.CopyFromUri("logs", "file:///etc/passwd").ok());
  EXPECT_FALSE(
      executor.CopyFromPayloads("missing_table", {MakeCsv(10, 0)}).ok());
  EXPECT_FALSE(executor.CopyFromPayloads("logs", {"bad,csv\n"}).ok());
}

// ---------------------------------------------------------------------------
// JSON schema inference ("automatically relationalizing", §4)
// ---------------------------------------------------------------------------

TEST(InferTest, InfersTypesAndWidens) {
  const std::string sample =
      "{\"ts\": 100, \"name\": \"a\", \"score\": 1, \"ok\": true}\n"
      "{\"ts\": 200, \"name\": \"b\", \"score\": 2.5, \"ok\": false, "
      "\"extra\": null}\n"
      "{\"ts\": 300, \"name\": \"c\", \"score\": 3}\n";
  auto schema = InferJsonSchema("events", sample);
  ASSERT_TRUE(schema.ok()) << schema.status();
  EXPECT_EQ(schema->name(), "events");
  ASSERT_EQ(schema->num_columns(), 5u);
  // First-appearance order.
  EXPECT_EQ(schema->column(0).name, "ts");
  EXPECT_EQ(schema->column(0).type, TypeId::kInt64);
  EXPECT_EQ(schema->column(1).type, TypeId::kString);
  // int widened by a 2.5 observation.
  EXPECT_EQ(schema->column(2).type, TypeId::kDouble);
  EXPECT_EQ(schema->column(3).type, TypeId::kBool);
  // all-NULL field defaults to VARCHAR.
  EXPECT_EQ(schema->column(4).name, "extra");
  EXPECT_EQ(schema->column(4).type, TypeId::kString);
}

TEST(InferTest, MixedScalarAndStringBecomesString) {
  const std::string sample =
      "{\"v\": 1}\n{\"v\": \"two\"}\n{\"v\": 3.5}\n";
  auto schema = InferJsonSchema("t", sample);
  ASSERT_TRUE(schema.ok());
  EXPECT_EQ(schema->column(0).type, TypeId::kString);
}

TEST(InferTest, RejectsEmptyOrMalformed) {
  EXPECT_FALSE(InferJsonSchema("t", "").ok());
  EXPECT_FALSE(InferJsonSchema("t", "{}\n{}\n").ok());
  EXPECT_FALSE(InferJsonSchema("t", "not json\n").ok());
}

TEST(InferTest, SampleLimitRespected) {
  // Drifted types past the sample window are not observed.
  std::string sample = "{\"v\": 1}\n{\"v\": 2}\n{\"v\": \"drift\"}\n";
  InferenceOptions options;
  options.sample_lines = 2;
  auto schema = InferJsonSchema("t", sample, options);
  ASSERT_TRUE(schema.ok());
  EXPECT_EQ(schema->column(0).type, TypeId::kInt64);
}

TEST_F(CopyTest, InferredSchemaRoundTripsThroughCopy) {
  // The full "relationalize a data lake" flow: infer -> CREATE -> COPY.
  backup::S3Region* region = s3_.region("us-east-1");
  const std::string payload =
      "{\"ts\": 1, \"path\": \"/a\", \"latency\": 0.5, \"ok\": true}\n"
      "{\"ts\": 2, \"path\": \"/b\", \"latency\": 1.25}\n";
  ASSERT_TRUE(region
                  ->PutObject("lake/raw/part-0",
                              Bytes(payload.begin(), payload.end()))
                  .ok());
  auto schema =
      InferJsonSchemaFromUri(region, "lake_events", "s3://lake/raw/");
  ASSERT_TRUE(schema.ok()) << schema.status();
  ASSERT_TRUE(cluster_->CreateTable(*schema).ok());
  CopyExecutor executor(cluster_.get(), &s3_);
  CopyOptions options;
  options.format = CopyFormat::kJson;
  auto stats = executor.CopyFromUri("lake_events", "s3://lake/raw/", options);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->rows_loaded, 2u);
  auto shard = cluster_->shard(0, "lake_events");
  ASSERT_TRUE(shard.ok());
  EXPECT_FALSE(InferJsonSchemaFromUri(region, "x", "s3://nope/").ok());
}

}  // namespace
}  // namespace sdw::load
