#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "common/random.h"
#include "compress/analyzer.h"
#include "compress/codec.h"
#include "compress/lz77.h"

namespace sdw::compress {
namespace {

// ---------------------------------------------------------------------------
// Data generators for the round-trip property sweep.
// ---------------------------------------------------------------------------

enum class Shape {
  kSortedInts,
  kUniformInts,
  kSmallInts,
  kSmallIntsWithOutliers,
  kConstant,
  kRuns,
  kLowCardStrings,
  kRandomStrings,
  kWordyText,
  kDoubles,
  kWithNulls,
  kAllNulls,
  kEmptyStrings,
};

ColumnVector Generate(Shape shape, TypeId type, size_t n, uint64_t seed) {
  Rng rng(seed);
  ColumnVector v(type);
  const std::vector<std::string> kWords = {"the",  "quick", "brown",
                                           "fox",  "jumps", "over",
                                           "lazy", "dog",   "warehouse"};
  for (size_t i = 0; i < n; ++i) {
    switch (shape) {
      case Shape::kSortedInts:
        v.AppendInt(static_cast<int64_t>(i) * 3 + static_cast<int64_t>(rng.Uniform(3)));
        break;
      case Shape::kUniformInts:
        v.AppendInt(static_cast<int64_t>(rng.Next()));
        break;
      case Shape::kSmallInts:
        v.AppendInt(rng.UniformRange(-100, 100));
        break;
      case Shape::kSmallIntsWithOutliers:
        v.AppendInt(rng.Bernoulli(0.02) ? static_cast<int64_t>(rng.Next())
                                        : rng.UniformRange(-100, 100));
        break;
      case Shape::kConstant:
        if (type == TypeId::kString) {
          v.AppendString("constant");
        } else if (type == TypeId::kDouble) {
          v.AppendDouble(3.25);
        } else {
          v.AppendInt(77);
        }
        break;
      case Shape::kRuns:
        v.AppendInt(static_cast<int64_t>(i / 50));
        break;
      case Shape::kLowCardStrings:
        v.AppendString("region-" + std::to_string(rng.Uniform(8)));
        break;
      case Shape::kRandomStrings:
        v.AppendString(rng.NextString(5 + rng.Uniform(20)));
        break;
      case Shape::kWordyText: {
        std::string s;
        size_t words = 1 + rng.Uniform(8);
        for (size_t w = 0; w < words; ++w) {
          if (w) s += ' ';
          s += kWords[rng.Uniform(kWords.size())];
        }
        v.AppendString(s);
        break;
      }
      case Shape::kDoubles:
        v.AppendDouble(rng.Normal(100.0, 15.0));
        break;
      case Shape::kWithNulls:
        if (rng.Bernoulli(0.2)) {
          v.AppendNull();
        } else if (type == TypeId::kString) {
          v.AppendString(rng.NextString(6));
        } else if (type == TypeId::kDouble) {
          v.AppendDouble(rng.NextDouble());
        } else {
          v.AppendInt(rng.UniformRange(0, 1000));
        }
        break;
      case Shape::kAllNulls:
        v.AppendNull();
        break;
      case Shape::kEmptyStrings:
        v.AppendString(rng.Bernoulli(0.5) ? "" : " leading and  double");
        break;
    }
  }
  return v;
}

void ExpectEqualVectors(const ColumnVector& a, const ColumnVector& b) {
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.type(), b.type());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.IsNull(i), b.IsNull(i)) << "row " << i;
    if (a.IsNull(i)) continue;
    ASSERT_EQ(a.DatumAt(i).Compare(b.DatumAt(i)), 0)
        << "row " << i << ": " << a.DatumAt(i).ToString() << " vs "
        << b.DatumAt(i).ToString();
  }
}

// ---------------------------------------------------------------------------
// Parameterized round-trip sweep: every (codec, compatible shape) pair.
// ---------------------------------------------------------------------------

using RoundTripCase = std::tuple<ColumnEncoding, Shape, TypeId>;

class CodecRoundTripTest : public ::testing::TestWithParam<RoundTripCase> {};

TEST_P(CodecRoundTripTest, EncodeDecodeIsIdentity) {
  auto [encoding, shape, type] = GetParam();
  for (uint64_t seed : {1ull, 2ull, 3ull}) {
    ColumnVector input = Generate(shape, type, 2000, seed);
    Bytes encoded;
    ASSERT_TRUE(EncodeColumn(encoding, input, &encoded).ok());
    auto decoded = DecodeColumn(encoding, type, encoded);
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    ExpectEqualVectors(input, *decoded);
  }
}

std::vector<RoundTripCase> AllCases() {
  std::vector<RoundTripCase> cases;
  struct ShapeType {
    Shape shape;
    TypeId type;
  };
  const std::vector<ShapeType> int_shapes = {
      {Shape::kSortedInts, TypeId::kInt64},
      {Shape::kUniformInts, TypeId::kInt64},
      {Shape::kSmallInts, TypeId::kInt32},
      {Shape::kSmallIntsWithOutliers, TypeId::kInt64},
      {Shape::kConstant, TypeId::kInt64},
      {Shape::kRuns, TypeId::kDate},
      {Shape::kWithNulls, TypeId::kInt64},
      {Shape::kAllNulls, TypeId::kInt64},
  };
  const std::vector<ShapeType> string_shapes = {
      {Shape::kLowCardStrings, TypeId::kString},
      {Shape::kRandomStrings, TypeId::kString},
      {Shape::kWordyText, TypeId::kString},
      {Shape::kConstant, TypeId::kString},
      {Shape::kWithNulls, TypeId::kString},
      {Shape::kEmptyStrings, TypeId::kString},
  };
  const std::vector<ShapeType> double_shapes = {
      {Shape::kDoubles, TypeId::kDouble},
      {Shape::kConstant, TypeId::kDouble},
      {Shape::kWithNulls, TypeId::kDouble},
  };
  auto add = [&](ColumnEncoding e, const std::vector<ShapeType>& shapes) {
    for (const auto& st : shapes) cases.emplace_back(e, st.shape, st.type);
  };
  for (ColumnEncoding e :
       {ColumnEncoding::kRaw, ColumnEncoding::kRunLength,
        ColumnEncoding::kBytedict, ColumnEncoding::kLz}) {
    add(e, int_shapes);
    add(e, string_shapes);
    add(e, double_shapes);
  }
  for (ColumnEncoding e :
       {ColumnEncoding::kDelta, ColumnEncoding::kMostly8,
        ColumnEncoding::kMostly16, ColumnEncoding::kMostly32}) {
    add(e, int_shapes);
  }
  add(ColumnEncoding::kText255, string_shapes);
  return cases;
}

std::string CaseName(const ::testing::TestParamInfo<RoundTripCase>& info) {
  auto [encoding, shape, type] = info.param;
  return std::string(ColumnEncodingName(encoding)) + "_shape" +
         std::to_string(static_cast<int>(shape)) + "_type" +
         std::to_string(static_cast<int>(type));
}

INSTANTIATE_TEST_SUITE_P(AllCodecs, CodecRoundTripTest,
                         ::testing::ValuesIn(AllCases()), CaseName);

// ---------------------------------------------------------------------------
// Codec-specific behaviour.
// ---------------------------------------------------------------------------

TEST(CodecTest, EmptyVectorRoundTrips) {
  for (ColumnEncoding e :
       {ColumnEncoding::kRaw, ColumnEncoding::kRunLength,
        ColumnEncoding::kDelta, ColumnEncoding::kBytedict,
        ColumnEncoding::kMostly8, ColumnEncoding::kLz}) {
    ColumnVector empty(TypeId::kInt64);
    Bytes out;
    ASSERT_TRUE(EncodeColumn(e, empty, &out).ok());
    auto decoded = DecodeColumn(e, TypeId::kInt64, out);
    ASSERT_TRUE(decoded.ok()) << ColumnEncodingName(e);
    EXPECT_EQ(decoded->size(), 0u);
  }
}

TEST(CodecTest, TypeMismatchRejected) {
  ColumnVector strings(TypeId::kString);
  strings.AppendString("x");
  Bytes out;
  EXPECT_FALSE(EncodeColumn(ColumnEncoding::kDelta, strings, &out).ok());
  EXPECT_FALSE(EncodeColumn(ColumnEncoding::kMostly8, strings, &out).ok());
  ColumnVector ints(TypeId::kInt64);
  ints.AppendInt(1);
  EXPECT_FALSE(EncodeColumn(ColumnEncoding::kText255, ints, &out).ok());
}

TEST(CodecTest, AutoHasNoCodec) {
  EXPECT_EQ(GetCodec(ColumnEncoding::kAuto), nullptr);
  ColumnVector ints(TypeId::kInt64);
  ints.AppendInt(1);
  Bytes out;
  EXPECT_FALSE(EncodeColumn(ColumnEncoding::kAuto, ints, &out).ok());
}

TEST(CodecTest, BytedictOverflowUsesEscapes) {
  // More than 255 distinct values still round-trips.
  ColumnVector v(TypeId::kString);
  for (int i = 0; i < 600; ++i) v.AppendString("val-" + std::to_string(i));
  Bytes out;
  ASSERT_TRUE(EncodeColumn(ColumnEncoding::kBytedict, v, &out).ok());
  auto decoded = DecodeColumn(ColumnEncoding::kBytedict, TypeId::kString, out);
  ASSERT_TRUE(decoded.ok());
  ExpectEqualVectors(v, *decoded);
}

TEST(CodecTest, MostlyCodecsHandleExtremes) {
  ColumnVector v(TypeId::kInt64);
  v.AppendInt(INT64_MIN);
  v.AppendInt(INT64_MAX);
  v.AppendInt(-128);  // == Mostly8's in-band marker
  v.AppendInt(127);
  v.AppendInt(0);
  for (ColumnEncoding e : {ColumnEncoding::kMostly8, ColumnEncoding::kMostly16,
                           ColumnEncoding::kMostly32}) {
    Bytes out;
    ASSERT_TRUE(EncodeColumn(e, v, &out).ok());
    auto decoded = DecodeColumn(e, TypeId::kInt64, out);
    ASSERT_TRUE(decoded.ok()) << ColumnEncodingName(e);
    ExpectEqualVectors(v, *decoded);
  }
}

TEST(CodecTest, RunLengthCompressesRuns) {
  ColumnVector runs = Generate(Shape::kRuns, TypeId::kInt64, 5000, 9);
  Bytes raw, rle;
  ASSERT_TRUE(EncodeColumn(ColumnEncoding::kRaw, runs, &raw).ok());
  ASSERT_TRUE(EncodeColumn(ColumnEncoding::kRunLength, runs, &rle).ok());
  EXPECT_LT(rle.size() * 10, raw.size());  // >10x on long runs
}

TEST(CodecTest, DeltaCompressesSorted) {
  ColumnVector sorted = Generate(Shape::kSortedInts, TypeId::kInt64, 5000, 9);
  Bytes raw, delta;
  ASSERT_TRUE(EncodeColumn(ColumnEncoding::kRaw, sorted, &raw).ok());
  ASSERT_TRUE(EncodeColumn(ColumnEncoding::kDelta, sorted, &delta).ok());
  EXPECT_LT(delta.size() * 4, raw.size());
}

TEST(CodecTest, DecodeDetectsTruncation) {
  ColumnVector v = Generate(Shape::kUniformInts, TypeId::kInt64, 100, 5);
  for (ColumnEncoding e :
       {ColumnEncoding::kRaw, ColumnEncoding::kRunLength,
        ColumnEncoding::kDelta, ColumnEncoding::kBytedict,
        ColumnEncoding::kMostly16, ColumnEncoding::kLz}) {
    Bytes out;
    ASSERT_TRUE(EncodeColumn(e, v, &out).ok());
    Bytes truncated(out.begin(), out.begin() + out.size() / 2);
    auto decoded = DecodeColumn(e, TypeId::kInt64, truncated);
    EXPECT_FALSE(decoded.ok()) << ColumnEncodingName(e);
  }
}

// ---------------------------------------------------------------------------
// VARCHAR decoders: truncation, bit flips and the wire format.
// ---------------------------------------------------------------------------

const ColumnEncoding kVarcharCodecs[] = {
    ColumnEncoding::kRaw, ColumnEncoding::kRunLength, ColumnEncoding::kBytedict,
    ColumnEncoding::kText255, ColumnEncoding::kLz};

const Shape kVarcharShapes[] = {Shape::kLowCardStrings, Shape::kRandomStrings,
                                Shape::kWordyText,      Shape::kConstant,
                                Shape::kWithNulls,      Shape::kEmptyStrings};

TEST(CodecTest, VarcharDecodeDetectsTruncation) {
  for (ColumnEncoding e : kVarcharCodecs) {
    for (Shape shape : kVarcharShapes) {
      ColumnVector v = Generate(shape, TypeId::kString, 100, 5);
      Bytes out;
      ASSERT_TRUE(EncodeColumn(e, v, &out).ok());
      // Every proper prefix of the block fails to decode, except that an
      // LZ stream may lose its redundant end marker and still decode to
      // every value.
      for (size_t len = 0; len < out.size(); ++len) {
        Bytes truncated(out.begin(), out.begin() + len);
        auto decoded = DecodeColumn(e, TypeId::kString, truncated);
        if (!decoded.ok()) continue;
        EXPECT_EQ(e, ColumnEncoding::kLz)
            << ColumnEncodingName(e) << " shape " << static_cast<int>(shape)
            << " prefix " << len;
        ExpectEqualVectors(v, *decoded);
      }
      Bytes half(out.begin(), out.begin() + out.size() / 2);
      EXPECT_FALSE(DecodeColumn(e, TypeId::kString, half).ok())
          << ColumnEncodingName(e) << " shape " << static_cast<int>(shape);
    }
  }
}

/// The row count a block's header claims (for LZ, the header of the
/// decompressed RAW form).
size_t HeaderRows(ColumnEncoding e, const Bytes& block) {
  Bytes raw = block;
  if (e == ColumnEncoding::kLz) raw = *Lz77Decompress(block);
  size_t pos = 0;
  uint64_t n = 0;
  EXPECT_TRUE(GetVarint64(raw, &pos, &n));
  return n;
}

/// A decoded VARCHAR vector is whole: one offset per value plus one,
/// non-decreasing from 0 to the arena's size, so every view lies inside
/// the arena; a NULL is zero bytes long.
void ExpectWholeLane(const ColumnVector& v, const std::string& context) {
  ASSERT_EQ(v.type(), TypeId::kString) << context;
  ASSERT_EQ(v.offsets().size(), v.size() + 1) << context;
  ASSERT_EQ(v.offsets().front(), 0u) << context;
  ASSERT_EQ(v.offsets().back(), v.arena().size()) << context;
  const char* begin = v.arena().data();
  const char* end = begin + v.arena().size();
  size_t nulls = 0;
  for (size_t i = 0; i < v.size(); ++i) {
    ASSERT_LE(v.offsets()[i], v.offsets()[i + 1]) << context << " row " << i;
    const std::string_view s = v.StringAt(i);
    ASSERT_TRUE(s.empty() || (s.data() >= begin && s.data() + s.size() <= end))
        << context << " row " << i;
    if (v.IsNull(i)) {
      ++nulls;
      EXPECT_TRUE(s.empty()) << context << " row " << i;
    }
  }
  EXPECT_EQ(nulls, v.null_count()) << context;
}

// A seeded sweep of damaged blocks, one per (codec, VARCHAR shape): each
// flipped block must decode to a Status or to a whole vector of the row
// count its header claims. Run under ASan and UBSan, it also shows that
// no decoder reads or writes outside its buffers.
TEST(CodecTest, VarcharDecodeSurvivesBitFlips) {
  for (ColumnEncoding e : kVarcharCodecs) {
    for (Shape shape : kVarcharShapes) {
      ColumnVector v = Generate(shape, TypeId::kString, 200, 11);
      Bytes block;
      ASSERT_TRUE(EncodeColumn(e, v, &block).ok());
      auto clean = DecodeColumn(e, TypeId::kString, block);
      ASSERT_TRUE(clean.ok()) << clean.status();
      ExpectWholeLane(*clean, ColumnEncodingName(e));
      Rng rng(static_cast<uint64_t>(e) * 131 + static_cast<uint64_t>(shape));
      for (int trial = 0; trial < 300; ++trial) {
        Bytes flipped = block;
        const int flips = 1 + static_cast<int>(rng.Uniform(2));
        for (int f = 0; f < flips; ++f) {
          flipped[rng.Uniform(flipped.size())] ^=
              static_cast<uint8_t>(1u << rng.Uniform(8));
        }
        auto decoded = DecodeColumn(e, TypeId::kString, flipped);
        if (!decoded.ok()) continue;
        const std::string context = std::string(ColumnEncodingName(e)) +
                                    " shape " +
                                    std::to_string(static_cast<int>(shape)) +
                                    " trial " + std::to_string(trial);
        EXPECT_EQ(decoded->size(), HeaderRows(e, flipped)) << context;
        ExpectWholeLane(*decoded, context);
      }
    }
  }
}

// Headers whose row count no block can hold: near 2^64, where rounding
// the null bitmap's size up wraps to zero, or with more nulls than rows.
// Each is Corruption before any lane or bitmap is sized, for every codec.
TEST(CodecTest, ImpossibleHeaderIsCorruption) {
  const std::pair<uint64_t, uint64_t> headers[] = {
      {UINT64_MAX, 1}, {UINT64_MAX - 6, 1}, {UINT64_MAX, 0}, {3, 4}};
  const std::pair<ColumnEncoding, TypeId> codecs[] = {
      {ColumnEncoding::kRaw, TypeId::kString},
      {ColumnEncoding::kRunLength, TypeId::kString},
      {ColumnEncoding::kBytedict, TypeId::kString},
      {ColumnEncoding::kText255, TypeId::kString},
      {ColumnEncoding::kLz, TypeId::kString},
      {ColumnEncoding::kRaw, TypeId::kInt64},
      {ColumnEncoding::kRunLength, TypeId::kInt64},
      {ColumnEncoding::kDelta, TypeId::kInt64},
      {ColumnEncoding::kBytedict, TypeId::kInt64},
      {ColumnEncoding::kMostly8, TypeId::kInt64},
      {ColumnEncoding::kMostly16, TypeId::kInt64},
      {ColumnEncoding::kMostly32, TypeId::kInt64},
  };
  for (const auto& [n, nulls] : headers) {
    Bytes raw;
    PutVarint64(&raw, n);
    PutVarint64(&raw, nulls);
    // A run of one "a" (RUNLENGTH) or a one-word dictionary, then zeros.
    raw.insert(raw.end(), {1, 1, 'a'});
    raw.insert(raw.end(), 13, 0);
    Bytes lz;
    Lz77Compress(raw, &lz);
    for (const auto& [e, type] : codecs) {
      auto decoded =
          DecodeColumn(e, type, e == ColumnEncoding::kLz ? lz : raw);
      ASSERT_FALSE(decoded.ok()) << ColumnEncodingName(e) << " n " << n;
      EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption)
          << ColumnEncodingName(e) << " n " << n << " nulls " << nulls << ": "
          << decoded.status();
    }
  }
}

std::string Hex(const Bytes& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  for (uint8_t b : bytes) {
    out += kDigits[b >> 4];
    out += kDigits[b & 15];
  }
  return out;
}

// The encoded bytes of fixed vectors, captured before VARCHAR lanes
// became offsets plus an arena: only decoding changed, so blocks in
// existing backups stay readable and stored sizes stay the same.
TEST(CodecTest, WireFormatIsUnchanged) {
  ColumnVector v(TypeId::kString);
  v.AppendString("");
  v.AppendString("ab");
  v.AppendString("ab");
  v.AppendNull();
  v.AppendString("abcdefghijklmnop");
  v.AppendString("the  quick fox ");
  v.AppendString(std::string("\x80\xff", 2));
  v.AppendString("ab");
  const std::pair<ColumnEncoding, const char*> golden[] = {
      {ColumnEncoding::kRaw,
       "0801080002616202616200106162636465666768696a6b6c6d6e6f700f7468652020"
       "717569636b20666f78200280ff026162"},
      {ColumnEncoding::kRunLength,
       "080108010002026162010001106162636465666768696a6b6c6d6e6f70010f746865"
       "2020717569636b20666f7820010280ff01026162"},
      {ColumnEncoding::kBytedict,
       "0801080500026162106162636465666768696a6b6c6d6e6f700f7468652020717569"
       "636b20666f78200280ff0001010002030401"},
      {ColumnEncoding::kText255,
       "08010807026162106162636465666768696a6b6c6d6e6f7003746865000571756963"
       "6b03666f780280ff000100010000010105020304050301060100"},
      {ColumnEncoding::kLz,
       "32320801080002616202616200106162636465666768696a6b6c6d6e6f700f746865"
       "2020717569636b20666f78200280ff0261620000"},
  };
  for (const auto& [e, hex] : golden) {
    Bytes out;
    ASSERT_TRUE(EncodeColumn(e, v, &out).ok());
    EXPECT_EQ(Hex(out), hex) << ColumnEncodingName(e);
    auto decoded = DecodeColumn(e, TypeId::kString, out);
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    ExpectEqualVectors(v, *decoded);
  }
  // BYTEDICT also keys numeric columns by their 8 raw bytes.
  ColumnVector ints(TypeId::kInt64);
  for (int64_t x : {5, -1, 5, 300}) ints.AppendInt(x);
  ints.AppendNull();
  ColumnVector doubles(TypeId::kDouble);
  for (double x : {1.5, -0.0, 1.5}) doubles.AppendDouble(x);
  const std::pair<const ColumnVector*, const char*> numeric[] = {
      {&ints,
       "0501100408050000000000000008ffffffffffffffff082c01000000000000080000"
       "0000000000000001000203"},
      {&doubles, "03000208000000000000f83f080000000000000080000100"},
  };
  for (const auto& [values, hex] : numeric) {
    Bytes out;
    ASSERT_TRUE(EncodeColumn(ColumnEncoding::kBytedict, *values, &out).ok());
    EXPECT_EQ(Hex(out), hex) << TypeName(values->type());
    auto decoded = DecodeColumn(ColumnEncoding::kBytedict, values->type(), out);
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    ExpectEqualVectors(*values, *decoded);
  }
}

// ---------------------------------------------------------------------------
// LZ77.
// ---------------------------------------------------------------------------

TEST(Lz77Test, RoundTripRandom) {
  Rng rng(3);
  for (size_t size : {0u, 1u, 3u, 100u, 10000u}) {
    Bytes input(size);
    for (auto& b : input) b = static_cast<uint8_t>(rng.Next());
    Bytes compressed;
    Lz77Compress(input, &compressed);
    auto out = Lz77Decompress(compressed);
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(*out, input);
  }
}

TEST(Lz77Test, CompressesRepetitiveData) {
  Bytes input;
  for (int i = 0; i < 1000; ++i) {
    const char* phrase = "abcdefgh12345678";
    input.insert(input.end(), phrase, phrase + 16);
  }
  Bytes compressed;
  Lz77Compress(input, &compressed);
  EXPECT_LT(compressed.size() * 20, input.size());
  auto out = Lz77Decompress(compressed);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, input);
}

TEST(Lz77Test, OverlappingMatches) {
  // "aaaa..." forces overlapping copy semantics.
  Bytes input(5000, 'a');
  Bytes compressed;
  Lz77Compress(input, &compressed);
  EXPECT_LT(compressed.size(), 200u);
  auto out = Lz77Decompress(compressed);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, input);
}

TEST(Lz77Test, RejectsCorruptStream) {
  Bytes input(1000, 'x');
  Bytes compressed;
  Lz77Compress(input, &compressed);
  Bytes truncated(compressed.begin(), compressed.begin() + 3);
  EXPECT_FALSE(Lz77Decompress(truncated).ok());
  Bytes empty;
  EXPECT_FALSE(Lz77Decompress(empty).ok());
}

// ---------------------------------------------------------------------------
// Analyzer: the automatic COMPUPDATE knob must pick sensible encodings.
// ---------------------------------------------------------------------------

TEST(AnalyzerTest, ConstantColumnPicksRunLength) {
  ColumnVector v = Generate(Shape::kConstant, TypeId::kInt64, 4000, 1);
  auto r = AnalyzeColumn(v);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->encoding, ColumnEncoding::kRunLength);
  EXPECT_GT(r->ratio(), 100.0);
}

TEST(AnalyzerTest, SortedIntsPickDelta) {
  ColumnVector v = Generate(Shape::kSortedInts, TypeId::kInt64, 4000, 1);
  auto r = AnalyzeColumn(v);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->encoding, ColumnEncoding::kDelta);
}

TEST(AnalyzerTest, SmallIntsPickNarrowStorage) {
  ColumnVector v = Generate(Shape::kSmallInts, TypeId::kInt32, 4000, 1);
  auto r = AnalyzeColumn(v);
  ASSERT_TRUE(r.ok());
  // Mostly8 and bytedict are both reasonable; either must beat raw by ~4x+.
  EXPECT_GT(r->ratio(), 3.0);
}

TEST(AnalyzerTest, RandomIntsStayRaw) {
  ColumnVector v = Generate(Shape::kUniformInts, TypeId::kInt64, 4000, 1);
  auto r = AnalyzeColumn(v);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->encoding, ColumnEncoding::kRaw);
}

TEST(AnalyzerTest, LowCardinalityStringsPickDictionary) {
  ColumnVector v = Generate(Shape::kLowCardStrings, TypeId::kString, 4000, 1);
  auto r = AnalyzeColumn(v);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->encoding == ColumnEncoding::kBytedict ||
              r->encoding == ColumnEncoding::kText255 ||
              r->encoding == ColumnEncoding::kLz);
  EXPECT_GT(r->ratio(), 3.0);
}

TEST(AnalyzerTest, EmptySampleRejected) {
  ColumnVector v(TypeId::kInt64);
  EXPECT_FALSE(AnalyzeColumn(v).ok());
}

TEST(AnalyzerTest, SampleIsBounded) {
  // A large column must not blow up analysis: only sample_rows are used.
  ColumnVector v = Generate(Shape::kSortedInts, TypeId::kInt64, 100000, 1);
  AnalyzerOptions opts;
  opts.sample_rows = 512;
  auto r = AnalyzeColumn(v, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_LE(r->raw_bytes, 512u * 8 + 16);
}

TEST(AnalyzerTest, ChosenEncodingAlwaysRoundTrips) {
  // Property: whatever the analyzer picks must decode to the input.
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    for (Shape shape : {Shape::kSortedInts, Shape::kSmallIntsWithOutliers,
                        Shape::kRuns, Shape::kWithNulls}) {
      ColumnVector v = Generate(shape, TypeId::kInt64, 3000, seed);
      auto r = AnalyzeColumn(v);
      ASSERT_TRUE(r.ok());
      Bytes out;
      ASSERT_TRUE(EncodeColumn(r->encoding, v, &out).ok());
      auto decoded = DecodeColumn(r->encoding, TypeId::kInt64, out);
      ASSERT_TRUE(decoded.ok());
      ExpectEqualVectors(v, *decoded);
    }
  }
}

}  // namespace
}  // namespace sdw::compress
