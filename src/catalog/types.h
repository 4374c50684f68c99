#ifndef SDW_CATALOG_TYPES_H_
#define SDW_CATALOG_TYPES_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace sdw {

/// SQL value types supported by the engine. Dates are stored as int32
/// days since epoch; booleans as 0/1. All integer-like types share the
/// int64 storage lane inside Datum/ColumnVector.
enum class TypeId : uint8_t {
  kBool = 0,
  kInt32 = 1,
  kInt64 = 2,
  kDouble = 3,
  kDate = 4,
  kString = 5,
};

/// "BIGINT", "VARCHAR", ... SQL-ish display name.
const char* TypeName(TypeId type);

/// True for types whose values live in the int64 lane.
inline bool IsIntegerLike(TypeId t) {
  return t == TypeId::kBool || t == TypeId::kInt32 || t == TypeId::kInt64 ||
         t == TypeId::kDate;
}

/// OK when the int64 lane of integer-like `type` holds `value` as
/// ColumnVector::DatumAt reads it back: any value for BIGINT, an int32
/// for INTEGER and DATE, 0 or 1 for BOOLEAN. kInvalidArgument otherwise.
inline Status CheckIntLaneValue(TypeId type, int64_t value) {
  const bool narrow = type == TypeId::kInt32 || type == TypeId::kDate;
  if ((type == TypeId::kBool && value != 0 && value != 1) ||
      (narrow && value != static_cast<int32_t>(value))) {
    return Status::InvalidArgument("value " + std::to_string(value) +
                                   " out of range for " + TypeName(type));
  }
  return Status::OK();
}

/// The one order of DOUBLE values: -0.0 equals 0.0, and NaN equals NaN
/// and sorts above every other double (PostgreSQL's rule), so the order
/// is total. Returns -1, 0 or 1.
inline int CompareDoubles(double a, double b) {
  if (a < b) return -1;
  if (a > b) return 1;
  if (a == b) return 0;
  const bool a_nan = a != a;  // at least one side is NaN
  const bool b_nan = b != b;
  return a_nan == b_nan ? 0 : (a_nan ? 1 : -1);
}

/// A single (possibly NULL) typed value. Datum is a value type used at
/// the API boundary (rows in/out, literals, stats); bulk execution uses
/// ColumnVector lanes directly.
class Datum {
 public:
  /// NULL of unspecified type (binds to any column).
  Datum() : type_(TypeId::kInt64), is_null_(true) {}

  static Datum Null() { return Datum(); }
  static Datum Bool(bool v) { return Datum(TypeId::kBool, v ? 1 : 0); }
  static Datum Int32(int32_t v) { return Datum(TypeId::kInt32, v); }
  static Datum Int64(int64_t v) { return Datum(TypeId::kInt64, v); }
  static Datum Date(int32_t days) { return Datum(TypeId::kDate, days); }
  static Datum Double(double v) {
    Datum d(TypeId::kDouble, 0);
    d.double_ = v;
    return d;
  }
  static Datum String(std::string v) {
    Datum d(TypeId::kString, 0);
    d.string_ = std::move(v);
    return d;
  }

  TypeId type() const { return type_; }
  bool is_null() const { return is_null_; }

  int64_t int_value() const { return int_; }
  double double_value() const { return double_; }
  const std::string& string_value() const { return string_; }

  /// Numeric view: int lanes widened, doubles as-is. Not valid for strings.
  double AsDouble() const {
    return type_ == TypeId::kDouble ? double_ : static_cast<double>(int_);
  }

  /// Total order: NULLs first, then by value (doubles by
  /// CompareDoubles; an integer against a double compares as doubles).
  /// Comparing a string with a non-string is a programming error.
  int Compare(const Datum& other) const;

  bool operator==(const Datum& other) const { return Compare(other) == 0; }
  bool operator<(const Datum& other) const { return Compare(other) < 0; }

  /// Hash consistent with operator== (used for hash distribution/joins).
  uint64_t Hash() const;
  /// What Hash() returns for NULL.
  static constexpr uint64_t kNullHash = 0x6e756c6cull;  // "null"

  /// SQL-ish rendering ("NULL", "42", "'abc'", "3.14").
  std::string ToString() const;

 private:
  Datum(TypeId type, int64_t v) : type_(type), is_null_(false), int_(v) {}

  TypeId type_;
  bool is_null_;
  int64_t int_ = 0;
  double double_ = 0.0;
  std::string string_;
};

/// A row at the API boundary.
using Row = std::vector<Datum>;

/// A typed column of values with a null bitmap, the unit of vectorized
/// execution and of block encoding. Integer-like types share the int64
/// lane; doubles have their own lane. A VARCHAR column is one byte arena
/// plus 64-bit offsets: value i is arena()[offsets()[i], offsets()[i + 1])
/// and a NULL is a zero-length value (DESIGN.md 4n).
class ColumnVector {
 public:
  explicit ColumnVector(TypeId type) : type_(type) {
    if (type == TypeId::kString) offsets_.push_back(0);
  }

  /// Wraps an already-built lane without copying (codec decode fast
  /// paths, lane kernels). `nulls` is one flag per value; empty means
  /// null-free.
  static ColumnVector TakeInts(TypeId type, std::vector<int64_t> lane,
                               std::vector<uint8_t> nulls = {});
  static ColumnVector TakeDoubles(std::vector<double> lane);

  TypeId type() const { return type_; }
  size_t size() const { return nulls_.size(); }
  bool has_nulls() const { return null_count_ > 0; }
  size_t null_count() const { return null_count_; }

  /// Reserves room for `n` values and, for VARCHAR, `string_bytes` bytes
  /// of arena.
  void Reserve(size_t n, size_t string_bytes = 0);

  void AppendInt(int64_t v) {
    ints_.push_back(v);
    nulls_.push_back(0);
  }
  void AppendDouble(double v) {
    doubles_.push_back(v);
    nulls_.push_back(0);
  }
  void AppendString(std::string_view v) {
    StartOffsets();
    arena_.insert(arena_.end(), v.begin(), v.end());
    offsets_.push_back(arena_.size());
    nulls_.push_back(0);
  }
  void AppendNull();

  /// Appends `n` VARCHAR values with each lane sized once: value i is
  /// value_at(i), called once per i in order, or NULL where is_null(i).
  /// `max_bytes` bounds the total size of the non-NULL values.
  template <typename NullAt, typename ValueAt>
  void AppendStrings(size_t n, size_t max_bytes, NullAt is_null,
                     ValueAt value_at);

  /// Appends a Datum, checking its type and its domain (CheckIntLaneValue).
  Status AppendDatum(const Datum& d);

  bool IsNull(size_t i) const { return nulls_[i] != 0; }
  int64_t IntAt(size_t i) const { return ints_[i]; }
  double DoubleAt(size_t i) const { return doubles_[i]; }
  /// Value i of a VARCHAR column; valid until the vector is next
  /// modified, moved or destroyed.
  std::string_view StringAt(size_t i) const {
    return {arena_.data() + offsets_[i], offsets_[i + 1] - offsets_[i]};
  }

  /// Value at i as a Datum (NULL-aware).
  Datum DatumAt(size_t i) const;

  /// DatumAt(a).Compare(DatumAt(b)), read from the lanes: NULLs first,
  /// doubles by CompareDoubles, VARCHAR by bytes.
  int Compare(size_t a, size_t b) const;

  /// Direct lane access for tight loops and encoders. A VARCHAR column's
  /// offsets hold size() + 1 entries once it has a value.
  const std::vector<int64_t>& ints() const { return ints_; }
  const std::vector<double>& doubles() const { return doubles_; }
  const std::vector<uint64_t>& offsets() const { return offsets_; }
  const std::vector<char>& arena() const { return arena_; }
  const std::vector<uint8_t>& nulls() const { return nulls_; }

  /// Appends rows [begin, end) of other (same type) to this vector.
  Status AppendRange(const ColumnVector& other, size_t begin, size_t end);

  /// Appends the selected rows of other (same type) in index order —
  /// the tight lane-wise copy the vectorized Filter relies on.
  Status AppendSelected(const ColumnVector& other,
                        const std::vector<uint32_t>& indices);

 private:
  /// Restores the leading zero offset a moved-from VARCHAR vector lost.
  void StartOffsets() {
    if (offsets_.empty()) offsets_.push_back(0);
  }
  /// Grows the arena to `size` bytes and returns where the new bytes go.
  char* GrowArena(size_t size) {
    const size_t at = arena_.size();
    arena_.resize(size);
    return arena_.data() + at;
  }

  TypeId type_;
  std::vector<int64_t> ints_;
  std::vector<double> doubles_;
  std::vector<uint64_t> offsets_;
  std::vector<char> arena_;
  std::vector<uint8_t> nulls_;
  size_t null_count_ = 0;
};

template <typename NullAt, typename ValueAt>
void ColumnVector::AppendStrings(size_t n, size_t max_bytes, NullAt is_null,
                                 ValueAt value_at) {
  StartOffsets();
  const size_t base = nulls_.size();
  offsets_.resize(base + 1 + n);
  nulls_.resize(base + n);
  const size_t arena_start = arena_.size();
  char* dst = GrowArena(arena_start + max_bytes);
  const char* const begin = arena_.data();
  uint64_t* offsets = offsets_.data() + base + 1;
  uint8_t* nulls = nulls_.data() + base;
  for (size_t i = 0; i < n; ++i) {
    const std::string_view v = value_at(i);
    if (is_null(i)) {
      nulls[i] = 1;
      ++null_count_;
    } else if (!v.empty()) {  // an empty view's data() may be null
      std::memcpy(dst, v.data(), v.size());
      dst += v.size();
    }
    offsets[i] = static_cast<uint64_t>(dst - begin);
  }
  arena_.resize(static_cast<size_t>(dst - begin));
}

}  // namespace sdw

#endif  // SDW_CATALOG_TYPES_H_
