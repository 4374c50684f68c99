#include <algorithm>
#include <cstring>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "compress/codec.h"
#include "compress/lz77.h"
#include "common/logging.h"

namespace sdw::compress {

namespace {

// ---------------------------------------------------------------------------
// Shared header: row count, null count, optional packed null bitmap.
// Value payloads always cover all n positions (nulls hold placeholders),
// which keeps every codec oblivious to nullability.
// ---------------------------------------------------------------------------

void EncodeHeader(const ColumnVector& values, Bytes* out) {
  const size_t n = values.size();
  PutVarint64(out, n);
  PutVarint64(out, values.null_count());
  if (values.null_count() > 0) {
    Bytes bitmap((n + 7) / 8, 0);
    for (size_t i = 0; i < n; ++i) {
      if (values.IsNull(i)) bitmap[i / 8] |= static_cast<uint8_t>(1u << (i % 8));
    }
    out->insert(out->end(), bitmap.begin(), bitmap.end());
  }
}

struct Header {
  size_t n = 0;
  size_t null_count = 0;
  Bytes bitmap;  // empty when null_count == 0

  bool IsNull(size_t i) const {
    if (null_count == 0) return false;
    return (bitmap[i / 8] >> (i % 8)) & 1;
  }
};

Status DecodeHeader(const Bytes& data, size_t* pos, Header* h) {
  uint64_t n = 0;
  uint64_t nulls = 0;
  if (!GetVarint64(data, pos, &n) || !GetVarint64(data, pos, &nulls)) {
    return Status::Corruption("block header truncated");
  }
  if (nulls > n) {
    return Status::Corruption("block header has more nulls than rows");
  }
  h->n = n;
  h->null_count = nulls;
  if (nulls > 0) {
    // n / 8 rounded up without n + 7, which wraps for a corrupt n.
    const size_t bitmap_bytes = n / 8 + (n % 8 != 0 ? 1 : 0);
    if (bitmap_bytes > data.size() - *pos) {
      return Status::Corruption("null bitmap truncated");
    }
    h->bitmap.assign(data.begin() + *pos, data.begin() + *pos + bitmap_bytes);
    *pos += bitmap_bytes;
  }
  return Status::OK();
}

// Rebuilds a ColumnVector from decoded lanes + the null bitmap.
template <typename AppendValue>
ColumnVector Assemble(TypeId type, const Header& h, AppendValue&& append) {
  ColumnVector out(type);
  out.Reserve(h.n);
  for (size_t i = 0; i < h.n; ++i) {
    if (h.IsNull(i)) {
      out.AppendNull();
    } else {
      append(&out, i);
    }
  }
  return out;
}

// Lane-moving fast paths for the common null-free case.
ColumnVector AssembleInts(TypeId type, const Header& h,
                          std::vector<int64_t> lane) {
  if (h.null_count == 0) {
    return ColumnVector::TakeInts(type, std::move(lane));
  }
  return Assemble(type, h, [&](ColumnVector* out, size_t i) {
    out->AppendInt(lane[i]);
  });
}

ColumnVector AssembleDoubles(const Header& h, std::vector<double> lane) {
  if (h.null_count == 0) {
    return ColumnVector::TakeDoubles(std::move(lane));
  }
  return Assemble(TypeId::kDouble, h, [&](ColumnVector* out, size_t i) {
    out->AppendDouble(lane[i]);
  });
}

// Appends decoded VARCHAR value i straight into the lane, or NULL where
// the header's bitmap says so (the NULL's placeholder is read and dropped).
void AppendStringAt(ColumnVector* out, const Header& h, size_t i,
                    std::string_view value) {
  if (h.IsNull(i)) {
    out->AppendNull();
  } else {
    out->AppendString(value);
  }
}

inline uint64_t DoubleBits(double d) {
  uint64_t bits;
  __builtin_memcpy(&bits, &d, sizeof(bits));
  return bits;
}
inline double BitsDouble(uint64_t bits) {
  double d;
  __builtin_memcpy(&d, &bits, sizeof(d));
  return d;
}

// ---------------------------------------------------------------------------
// RAW: fixed-width ints/doubles, length-prefixed strings.
// ---------------------------------------------------------------------------

class RawCodec : public Codec {
 public:
  ColumnEncoding encoding() const override { return ColumnEncoding::kRaw; }
  bool Supports(TypeId type) const override { return true; }

  Status Encode(const ColumnVector& values, Bytes* out) const override {
    EncodeHeader(values, out);
    switch (values.type()) {
      case TypeId::kDouble:
        for (double d : values.doubles()) PutFixed64(out, DoubleBits(d));
        break;
      case TypeId::kString:
        for (size_t i = 0; i < values.size(); ++i) {
          PutLengthPrefixed(out, values.StringAt(i));
        }
        break;
      default:
        for (int64_t v : values.ints()) {
          PutFixed64(out, static_cast<uint64_t>(v));
        }
        break;
    }
    return Status::OK();
  }

  Result<ColumnVector> Decode(const Bytes& data, TypeId type) const override {
    size_t pos = 0;
    Header h;
    SDW_RETURN_IF_ERROR(DecodeHeader(data, &pos, &h));
    if (type == TypeId::kString) {
      // Each value takes at least its one-byte length, and its bytes are
      // at most what is left.
      if (h.n > data.size() - pos) {
        return Status::Corruption("raw string truncated");
      }
      ColumnVector out(type);
      out.Reserve(h.n, data.size() - pos - h.n);
      for (size_t i = 0; i < h.n; ++i) {
        std::string_view value;
        if (!GetLengthPrefixedView(data, &pos, &value)) {
          return Status::Corruption("raw string truncated");
        }
        AppendStringAt(&out, h, i, value);
      }
      return out;
    }
    if (h.n > (data.size() - pos) / 8) {
      return Status::Corruption("raw payload truncated");
    }
    if (type == TypeId::kDouble) {
      std::vector<double> lane(h.n);
      for (size_t i = 0; i < h.n; ++i) {
        lane[i] = BitsDouble(GetFixed64(data.data() + pos + 8 * i));
      }
      return AssembleDoubles(h, std::move(lane));
    }
    std::vector<int64_t> lane(h.n);
    for (size_t i = 0; i < h.n; ++i) {
      lane[i] = static_cast<int64_t>(GetFixed64(data.data() + pos + 8 * i));
    }
    return AssembleInts(type, h, std::move(lane));
  }
};

// ---------------------------------------------------------------------------
// RUNLENGTH: (value, run length) pairs; works for every type.
// ---------------------------------------------------------------------------

class RunLengthCodec : public Codec {
 public:
  ColumnEncoding encoding() const override {
    return ColumnEncoding::kRunLength;
  }
  bool Supports(TypeId type) const override { return true; }

  Status Encode(const ColumnVector& values, Bytes* out) const override {
    EncodeHeader(values, out);
    const size_t n = values.size();
    size_t i = 0;
    while (i < n) {
      size_t run = 1;
      while (i + run < n && SameValue(values, i, i + run)) ++run;
      PutVarint64(out, run);
      PutValue(values, i, out);
      i += run;
    }
    return Status::OK();
  }

  Result<ColumnVector> Decode(const Bytes& data, TypeId type) const override {
    size_t pos = 0;
    Header h;
    SDW_RETURN_IF_ERROR(DecodeHeader(data, &pos, &h));
    // Runs may span NULL positions, whose placeholders are dropped: a
    // VARCHAR run goes straight into the lane value by value, other types
    // fill a full lane first.
    ColumnVector strings(type);
    std::vector<int64_t> int_lane;
    std::vector<double> dbl_lane;
    size_t produced = 0;
    while (produced < h.n) {
      uint64_t run = 0;
      if (!GetVarint64(data, &pos, &run) || run == 0 ||
          run > h.n - produced) {
        return Status::Corruption("rle run truncated");
      }
      if (type == TypeId::kString) {
        std::string_view value;
        if (!GetLengthPrefixedView(data, &pos, &value)) {
          return Status::Corruption("rle string truncated");
        }
        for (size_t i = produced; i < produced + run; ++i) {
          AppendStringAt(&strings, h, i, value);
        }
      } else {
        uint64_t raw = 0;
        if (!GetVarint64(data, &pos, &raw)) {
          return Status::Corruption("rle value truncated");
        }
        if (type == TypeId::kDouble) {
          dbl_lane.insert(dbl_lane.end(), run, BitsDouble(raw));
        } else {
          int_lane.insert(int_lane.end(), run, ZigZagDecode(raw));
        }
      }
      produced += run;
    }
    if (type == TypeId::kString) return strings;
    if (type == TypeId::kDouble) {
      return AssembleDoubles(h, std::move(dbl_lane));
    }
    return AssembleInts(type, h, std::move(int_lane));
  }

 private:
  static bool SameValue(const ColumnVector& v, size_t a, size_t b) {
    switch (v.type()) {
      case TypeId::kDouble:
        return DoubleBits(v.doubles()[a]) == DoubleBits(v.doubles()[b]);
      case TypeId::kString:
        return v.StringAt(a) == v.StringAt(b);
      default:
        return v.ints()[a] == v.ints()[b];
    }
  }
  static void PutValue(const ColumnVector& v, size_t i, Bytes* out) {
    switch (v.type()) {
      case TypeId::kDouble:
        PutVarint64(out, DoubleBits(v.doubles()[i]));
        break;
      case TypeId::kString:
        PutLengthPrefixed(out, v.StringAt(i));
        break;
      default:
        PutVarint64(out, ZigZagEncode(v.ints()[i]));
        break;
    }
  }
};

// ---------------------------------------------------------------------------
// DELTA: first value + zigzag varint deltas. Integer-like lanes only;
// excellent for timestamps and monotonically assigned ids.
// ---------------------------------------------------------------------------

class DeltaCodec : public Codec {
 public:
  ColumnEncoding encoding() const override { return ColumnEncoding::kDelta; }
  bool Supports(TypeId type) const override { return IsIntegerLike(type); }

  Status Encode(const ColumnVector& values, Bytes* out) const override {
    if (!Supports(values.type())) {
      return Status::NotSupported("delta requires an integer-like column");
    }
    EncodeHeader(values, out);
    int64_t prev = 0;
    for (int64_t v : values.ints()) {
      // Differences wrap in unsigned space so INT64_MIN/MAX round-trip
      // without signed overflow.
      const uint64_t delta =
          static_cast<uint64_t>(v) - static_cast<uint64_t>(prev);
      PutVarint64(out, ZigZagEncode(static_cast<int64_t>(delta)));
      prev = v;
    }
    return Status::OK();
  }

  Result<ColumnVector> Decode(const Bytes& data, TypeId type) const override {
    size_t pos = 0;
    Header h;
    SDW_RETURN_IF_ERROR(DecodeHeader(data, &pos, &h));
    // Each value takes at least its one-byte varint.
    if (h.n > data.size() - pos) {
      return Status::Corruption("delta truncated");
    }
    std::vector<int64_t> lane(h.n);
    int64_t prev = 0;
    for (size_t i = 0; i < h.n; ++i) {
      uint64_t raw = 0;
      if (!GetVarint64(data, &pos, &raw)) {
        return Status::Corruption("delta truncated");
      }
      prev = static_cast<int64_t>(static_cast<uint64_t>(prev) +
                                  static_cast<uint64_t>(ZigZagDecode(raw)));
      lane[i] = prev;
    }
    return AssembleInts(type, h, std::move(lane));
  }
};

// ---------------------------------------------------------------------------
// BYTEDICT: per-block dictionary of up to 255 distinct values, 1-byte
// codes, escape byte 0xFF followed by an inline value for overflow.
// ---------------------------------------------------------------------------

class BytedictCodec : public Codec {
 public:
  ColumnEncoding encoding() const override {
    return ColumnEncoding::kBytedict;
  }
  bool Supports(TypeId type) const override { return true; }

  Status Encode(const ColumnVector& values, Bytes* out) const override {
    EncodeHeader(values, out);
    const size_t n = values.size();
    // Build dictionary in first-appearance order, capped at 255 entries.
    std::map<std::string, uint8_t, std::less<>> dict;
    std::vector<std::string> dict_order;
    std::vector<uint8_t> codes(n);
    std::vector<size_t> escapes;
    char scratch[8];
    for (size_t i = 0; i < n; ++i) {
      const std::string_view key = KeyAt(values, i, scratch);
      auto it = dict.find(key);
      if (it != dict.end()) {
        codes[i] = it->second;
      } else if (dict.size() < 255) {
        uint8_t code = static_cast<uint8_t>(dict.size());
        dict.emplace(key, code);
        dict_order.emplace_back(key);
        codes[i] = code;
      } else {
        codes[i] = 0xFF;
        escapes.push_back(i);
      }
    }
    PutVarint64(out, dict_order.size());
    for (const auto& key : dict_order) PutLengthPrefixed(out, key);
    out->insert(out->end(), codes.begin(), codes.end());
    for (size_t idx : escapes) {
      PutLengthPrefixed(out, KeyAt(values, idx, scratch));
    }
    return Status::OK();
  }

  // The dictionary and escapes are read as views into `data`: a VARCHAR
  // value is copied once, into the output lane, and a numeric one is read
  // as its 8 raw bytes.
  Result<ColumnVector> Decode(const Bytes& data, TypeId type) const override {
    size_t pos = 0;
    Header h;
    SDW_RETURN_IF_ERROR(DecodeHeader(data, &pos, &h));
    uint64_t dict_size = 0;
    if (!GetVarint64(data, &pos, &dict_size) || dict_size > 255) {
      return Status::Corruption("bytedict: bad dictionary size");
    }
    std::string_view dict[255];
    for (uint64_t d = 0; d < dict_size; ++d) {
      if (!ReadKey(data, &pos, type, &dict[d])) {
        return Status::Corruption("bytedict: dictionary truncated");
      }
    }
    if (h.n > data.size() - pos) {
      return Status::Corruption("bytedict: codes truncated");
    }
    const uint8_t* codes = data.data() + pos;
    pos += h.n;
    // Check every code and read the escapes, which follow the codes in
    // row order, before writing a value.
    std::vector<std::string_view> escapes;
    size_t string_bytes = 0;
    for (size_t i = 0; i < h.n; ++i) {
      if (codes[i] == 0xFF) {
        escapes.emplace_back();
        if (!ReadKey(data, &pos, type, &escapes.back())) {
          return Status::Corruption("bytedict: escape truncated");
        }
        string_bytes += escapes.back().size();
      } else if (codes[i] >= dict_size) {
        return Status::Corruption("bytedict: code out of range");
      } else {
        string_bytes += dict[codes[i]].size();
      }
    }
    size_t next_escape = 0;
    auto value_at = [&](size_t i) {
      return codes[i] == 0xFF ? escapes[next_escape++] : dict[codes[i]];
    };
    if (type == TypeId::kString) {
      ColumnVector out(type);
      out.AppendStrings(
          h.n, string_bytes, [&h](size_t i) { return h.IsNull(i); }, value_at);
      return out;
    }
    std::vector<int64_t> lane(h.n);
    for (size_t i = 0; i < h.n; ++i) {
      std::memcpy(&lane[i], value_at(i).data(), 8);
    }
    if (type != TypeId::kDouble) return AssembleInts(type, h, std::move(lane));
    std::vector<double> doubles(h.n);
    for (size_t i = 0; i < h.n; ++i) {
      doubles[i] = BitsDouble(static_cast<uint64_t>(lane[i]));
    }
    return AssembleDoubles(h, std::move(doubles));
  }

 private:
  // Values are keyed by their wire form: 8 raw bytes for numerics (kept
  // in `scratch`), the string itself for VARCHAR.
  static std::string_view KeyAt(const ColumnVector& v, size_t i,
                                char (&scratch)[8]) {
    switch (v.type()) {
      case TypeId::kString:
        return v.StringAt(i);
      case TypeId::kDouble:
        std::memcpy(scratch, &v.doubles()[i], 8);
        return {scratch, 8};
      default:
        std::memcpy(scratch, &v.ints()[i], 8);
        return {scratch, 8};
    }
  }
  // Reads one length-prefixed key; a numeric key must be 8 bytes.
  static bool ReadKey(const Bytes& data, size_t* pos, TypeId type,
                      std::string_view* out) {
    return GetLengthPrefixedView(data, pos, out) &&
           (type == TypeId::kString || out->size() == 8);
  }
};

// ---------------------------------------------------------------------------
// MOSTLY8/16/32: frame-of-reference narrow storage with an exception
// list for out-of-range values. Integer-like lanes only.
// ---------------------------------------------------------------------------

template <int kWidthBytes>
class MostlyCodec : public Codec {
 public:
  ColumnEncoding encoding() const override {
    if constexpr (kWidthBytes == 1) return ColumnEncoding::kMostly8;
    if constexpr (kWidthBytes == 2) return ColumnEncoding::kMostly16;
    return ColumnEncoding::kMostly32;
  }
  bool Supports(TypeId type) const override { return IsIntegerLike(type); }

  Status Encode(const ColumnVector& values, Bytes* out) const override {
    if (!Supports(values.type())) {
      return Status::NotSupported("mostlyN requires an integer-like column");
    }
    EncodeHeader(values, out);
    constexpr int64_t kLo = Min();
    constexpr int64_t kHi = Max();
    Bytes narrow;
    narrow.reserve(values.size() * kWidthBytes);
    std::vector<std::pair<size_t, int64_t>> exceptions;
    const auto& lane = values.ints();
    for (size_t i = 0; i < lane.size(); ++i) {
      int64_t v = lane[i];
      // kLo itself is the in-band exception marker.
      if (v > kLo && v <= kHi) {
        AppendNarrow(&narrow, v);
      } else {
        AppendNarrow(&narrow, kLo);
        exceptions.emplace_back(i, v);
      }
    }
    out->insert(out->end(), narrow.begin(), narrow.end());
    PutVarint64(out, exceptions.size());
    for (const auto& [idx, v] : exceptions) {
      PutVarint64(out, idx);
      PutVarint64(out, ZigZagEncode(v));
    }
    return Status::OK();
  }

  Result<ColumnVector> Decode(const Bytes& data, TypeId type) const override {
    size_t pos = 0;
    Header h;
    SDW_RETURN_IF_ERROR(DecodeHeader(data, &pos, &h));
    if (h.n > (data.size() - pos) / kWidthBytes) {
      return Status::Corruption("mostlyN narrow lane truncated");
    }
    std::vector<int64_t> lane(h.n);
    for (size_t i = 0; i < h.n; ++i) {
      lane[i] = ReadNarrow(data.data() + pos + i * kWidthBytes);
    }
    pos += h.n * kWidthBytes;
    uint64_t num_exceptions = 0;
    if (!GetVarint64(data, &pos, &num_exceptions)) {
      return Status::Corruption("mostlyN exception count truncated");
    }
    for (uint64_t e = 0; e < num_exceptions; ++e) {
      uint64_t idx = 0;
      uint64_t raw = 0;
      if (!GetVarint64(data, &pos, &idx) || !GetVarint64(data, &pos, &raw) ||
          idx >= h.n) {
        return Status::Corruption("mostlyN exception truncated");
      }
      lane[idx] = ZigZagDecode(raw);
    }
    return AssembleInts(type, h, std::move(lane));
  }

 private:
  static constexpr int64_t Min() {
    return -(int64_t{1} << (8 * kWidthBytes - 1));
  }
  static constexpr int64_t Max() {
    return (int64_t{1} << (8 * kWidthBytes - 1)) - 1;
  }
  static void AppendNarrow(Bytes* out, int64_t v) {
    uint64_t u = static_cast<uint64_t>(v);
    for (int b = 0; b < kWidthBytes; ++b) {
      out->push_back(static_cast<uint8_t>(u >> (8 * b)));
    }
  }
  static int64_t ReadNarrow(const uint8_t* p) {
    uint64_t u = 0;
    for (int b = 0; b < kWidthBytes; ++b) {
      u |= static_cast<uint64_t>(p[b]) << (8 * b);
    }
    // Sign-extend from kWidthBytes.
    const int shift = 64 - 8 * kWidthBytes;
    return static_cast<int64_t>(u << shift) >> shift;
  }
};

// ---------------------------------------------------------------------------
// LZ: generic byte compressor applied to the RAW wire form.
// ---------------------------------------------------------------------------

class LzCodec : public Codec {
 public:
  ColumnEncoding encoding() const override { return ColumnEncoding::kLz; }
  bool Supports(TypeId type) const override { return true; }

  Status Encode(const ColumnVector& values, Bytes* out) const override {
    Bytes raw;
    SDW_RETURN_IF_ERROR(GetCodec(ColumnEncoding::kRaw)->Encode(values, &raw));
    Lz77Compress(raw, out);
    return Status::OK();
  }

  Result<ColumnVector> Decode(const Bytes& data, TypeId type) const override {
    auto raw = Lz77Decompress(data);
    if (!raw.ok()) return raw.status();
    return GetCodec(ColumnEncoding::kRaw)->Decode(*raw, type);
  }
};

// ---------------------------------------------------------------------------
// TEXT255: word-level dictionary for VARCHAR. Each string becomes a
// sequence of word codes; up to 255 dictionary words per block, escape
// 0xFF + literal word for overflow.
// ---------------------------------------------------------------------------

class Text255Codec : public Codec {
 public:
  ColumnEncoding encoding() const override { return ColumnEncoding::kText255; }
  bool Supports(TypeId type) const override { return type == TypeId::kString; }

  // A value is split at every space, so "a  b " is the four words "a",
  // "", "b" and "", and the empty string is zero words.
  Status Encode(const ColumnVector& values, Bytes* out) const override {
    if (values.type() != TypeId::kString) {
      return Status::NotSupported("text255 requires a VARCHAR column");
    }
    EncodeHeader(values, out);
    std::map<std::string, uint8_t, std::less<>> dict;
    std::vector<std::string> dict_order;
    Bytes body;
    for (size_t i = 0; i < values.size(); ++i) {
      const std::string_view s = values.StringAt(i);
      const size_t words =
          s.empty() ? 0 : std::count(s.begin(), s.end(), ' ') + 1;
      PutVarint64(&body, words);
      size_t start = 0;
      for (size_t w = 0; w < words; ++w) {
        const size_t space = std::min(s.find(' ', start), s.size());
        const std::string_view word = s.substr(start, space - start);
        start = space + 1;
        auto it = dict.find(word);
        if (it != dict.end()) {
          body.push_back(it->second);
        } else if (dict.size() < 255) {
          uint8_t code = static_cast<uint8_t>(dict.size());
          dict.emplace(word, code);
          dict_order.emplace_back(word);
          body.push_back(code);
        } else {
          body.push_back(0xFF);
          PutLengthPrefixed(&body, word);
        }
      }
    }
    PutVarint64(out, dict_order.size());
    for (const auto& w : dict_order) PutLengthPrefixed(out, w);
    out->insert(out->end(), body.begin(), body.end());
    return Status::OK();
  }

  // Words are read as views into `data` and joined in one buffer reused
  // for every value, which is then copied into the lane.
  Result<ColumnVector> Decode(const Bytes& data, TypeId type) const override {
    size_t pos = 0;
    Header h;
    SDW_RETURN_IF_ERROR(DecodeHeader(data, &pos, &h));
    uint64_t dict_size = 0;
    if (!GetVarint64(data, &pos, &dict_size) || dict_size > 255) {
      return Status::Corruption("text255: bad dictionary size");
    }
    std::string_view dict[255];
    for (uint64_t d = 0; d < dict_size; ++d) {
      if (!GetLengthPrefixedView(data, &pos, &dict[d])) {
        return Status::Corruption("text255: dictionary truncated");
      }
    }
    // Each value takes at least its one-byte word count.
    if (h.n > data.size() - pos) {
      return Status::Corruption("text255: word count truncated");
    }
    ColumnVector out(type);
    out.Reserve(h.n);
    std::string value;
    for (size_t i = 0; i < h.n; ++i) {
      uint64_t word_count = 0;
      if (!GetVarint64(data, &pos, &word_count)) {
        return Status::Corruption("text255: word count truncated");
      }
      value.clear();
      for (uint64_t w = 0; w < word_count; ++w) {
        if (pos >= data.size()) {
          return Status::Corruption("text255: codes truncated");
        }
        uint8_t code = data[pos++];
        if (w > 0) value += ' ';
        std::string_view word;
        if (code == 0xFF) {
          if (!GetLengthPrefixedView(data, &pos, &word)) {
            return Status::Corruption("text255: escape truncated");
          }
        } else if (code >= dict_size) {
          return Status::Corruption("text255: code out of range");
        } else {
          word = dict[code];
        }
        value += word;
      }
      AppendStringAt(&out, h, i, value);
    }
    return out;
  }
};

}  // namespace

const Codec* GetCodec(ColumnEncoding encoding) {
  static const RawCodec& raw = *new RawCodec();
  static const RunLengthCodec& rle = *new RunLengthCodec();
  static const DeltaCodec& delta = *new DeltaCodec();
  static const BytedictCodec& bytedict = *new BytedictCodec();
  static const MostlyCodec<1>& mostly8 = *new MostlyCodec<1>();
  static const MostlyCodec<2>& mostly16 = *new MostlyCodec<2>();
  static const MostlyCodec<4>& mostly32 = *new MostlyCodec<4>();
  static const LzCodec& lz = *new LzCodec();
  static const Text255Codec& text255 = *new Text255Codec();
  switch (encoding) {
    case ColumnEncoding::kRaw:
      return &raw;
    case ColumnEncoding::kRunLength:
      return &rle;
    case ColumnEncoding::kDelta:
      return &delta;
    case ColumnEncoding::kBytedict:
      return &bytedict;
    case ColumnEncoding::kMostly8:
      return &mostly8;
    case ColumnEncoding::kMostly16:
      return &mostly16;
    case ColumnEncoding::kMostly32:
      return &mostly32;
    case ColumnEncoding::kLz:
      return &lz;
    case ColumnEncoding::kText255:
      return &text255;
    case ColumnEncoding::kAuto:
      return nullptr;
  }
  return nullptr;
}

Status EncodeColumn(ColumnEncoding encoding, const ColumnVector& values,
                    Bytes* out) {
  const Codec* codec = GetCodec(encoding);
  if (codec == nullptr) {
    return Status::InvalidArgument("no codec for encoding");
  }
  if (!codec->Supports(values.type())) {
    return Status::NotSupported(std::string(ColumnEncodingName(encoding)) +
                                " does not support " +
                                TypeName(values.type()));
  }
  return codec->Encode(values, out);
}

Result<ColumnVector> DecodeColumn(ColumnEncoding encoding, TypeId type,
                                  const Bytes& data) {
  const Codec* codec = GetCodec(encoding);
  if (codec == nullptr) {
    return Status::InvalidArgument("no codec for encoding");
  }
  return codec->Decode(data, type);
}

}  // namespace sdw::compress
