#include "catalog/types.h"

#include <cstdio>
#include <cstring>

#include "common/hash.h"
#include "common/logging.h"

namespace sdw {

const char* TypeName(TypeId type) {
  switch (type) {
    case TypeId::kBool:
      return "BOOLEAN";
    case TypeId::kInt32:
      return "INTEGER";
    case TypeId::kInt64:
      return "BIGINT";
    case TypeId::kDouble:
      return "DOUBLE PRECISION";
    case TypeId::kDate:
      return "DATE";
    case TypeId::kString:
      return "VARCHAR";
  }
  return "?";
}

int Datum::Compare(const Datum& other) const {
  if (is_null_ && other.is_null_) return 0;
  if (is_null_) return -1;
  if (other.is_null_) return 1;
  if (type_ == TypeId::kString || other.type_ == TypeId::kString) {
    SDW_DCHECK(type_ == other.type_) << "comparing string with non-string";
    return string_.compare(other.string_);
  }
  if (type_ == TypeId::kDouble || other.type_ == TypeId::kDouble) {
    return CompareDoubles(AsDouble(), other.AsDouble());
  }
  return int_ < other.int_ ? -1 : (int_ > other.int_ ? 1 : 0);
}

uint64_t Datum::Hash() const {
  if (is_null_) return kNullHash;
  switch (type_) {
    case TypeId::kString:
      return Hash64(std::string_view(string_));
    case TypeId::kDouble: {
      // Normalize -0.0 and every NaN so equal doubles hash equally.
      double d = double_ == 0.0 ? 0.0 : double_;
      if (d != d) d = __builtin_nan("");
      uint64_t bits;
      static_assert(sizeof(bits) == sizeof(d));
      __builtin_memcpy(&bits, &d, sizeof(bits));
      return Hash64(bits);
    }
    default:
      return Hash64(static_cast<uint64_t>(int_));
  }
}

std::string Datum::ToString() const {
  if (is_null_) return "NULL";
  char buf[32];
  switch (type_) {
    case TypeId::kBool:
      return int_ ? "true" : "false";
    case TypeId::kDouble:
      std::snprintf(buf, sizeof(buf), "%g", double_);
      return buf;
    case TypeId::kString:
      return "'" + string_ + "'";
    default:
      std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(int_));
      return buf;
  }
}

void ColumnVector::Reserve(size_t n, size_t string_bytes) {
  nulls_.reserve(n);
  if (type_ == TypeId::kDouble) {
    doubles_.reserve(n);
  } else if (type_ == TypeId::kString) {
    offsets_.reserve(n + 1);
    arena_.reserve(string_bytes);
  } else {
    ints_.reserve(n);
  }
}

void ColumnVector::AppendNull() {
  if (type_ == TypeId::kDouble) {
    doubles_.push_back(0.0);
  } else if (type_ == TypeId::kString) {
    StartOffsets();
    offsets_.push_back(arena_.size());
  } else {
    ints_.push_back(0);
  }
  nulls_.push_back(1);
  ++null_count_;
}

Status ColumnVector::AppendDatum(const Datum& d) {
  if (d.is_null()) {
    AppendNull();
    return Status::OK();
  }
  switch (type_) {
    case TypeId::kDouble:
      if (d.type() == TypeId::kString) {
        return Status::InvalidArgument("string datum into double column");
      }
      AppendDouble(d.AsDouble());
      return Status::OK();
    case TypeId::kString:
      if (d.type() != TypeId::kString) {
        return Status::InvalidArgument("non-string datum into string column");
      }
      AppendString(d.string_value());
      return Status::OK();
    default:
      if (!IsIntegerLike(d.type())) {
        return Status::InvalidArgument("non-integer datum into integer column");
      }
      SDW_RETURN_IF_ERROR(CheckIntLaneValue(type_, d.int_value()));
      AppendInt(d.int_value());
      return Status::OK();
  }
}

Datum ColumnVector::DatumAt(size_t i) const {
  if (IsNull(i)) return Datum::Null();
  switch (type_) {
    case TypeId::kBool:
      return Datum::Bool(ints_[i] != 0);
    case TypeId::kInt32:
      return Datum::Int32(static_cast<int32_t>(ints_[i]));
    case TypeId::kInt64:
      return Datum::Int64(ints_[i]);
    case TypeId::kDate:
      return Datum::Date(static_cast<int32_t>(ints_[i]));
    case TypeId::kDouble:
      return Datum::Double(doubles_[i]);
    case TypeId::kString:
      return Datum::String(std::string(StringAt(i)));
  }
  return Datum::Null();
}

int ColumnVector::Compare(size_t a, size_t b) const {
  if (IsNull(a) || IsNull(b)) return IsNull(b) - IsNull(a);
  switch (type_) {
    case TypeId::kString:
      return StringAt(a).compare(StringAt(b));
    case TypeId::kDouble:
      return CompareDoubles(doubles_[a], doubles_[b]);
    default:
      return (ints_[a] > ints_[b]) - (ints_[a] < ints_[b]);
  }
}

Status ColumnVector::AppendRange(const ColumnVector& other, size_t begin,
                                 size_t end) {
  if (other.type_ != type_) {
    return Status::InvalidArgument("AppendRange across types");
  }
  if (end > other.size() || begin > end) {
    return Status::OutOfRange("AppendRange bounds");
  }
  if (begin == end) return Status::OK();
  // Bulk lane copies (hot path for scans and exchanges).
  if (type_ == TypeId::kDouble) {
    doubles_.insert(doubles_.end(), other.doubles_.begin() + begin,
                    other.doubles_.begin() + end);
  } else if (type_ == TypeId::kString) {
    // One copy of the bytes, then the offsets shifted to this arena.
    StartOffsets();
    const uint64_t* from = other.offsets_.data();
    const uint64_t shift = arena_.size() - from[begin];  // modulo 2^64
    const uint64_t bytes = from[end] - from[begin];
    if (bytes > 0) {  // an empty arena's data() may be null
      std::memcpy(GrowArena(arena_.size() + bytes),
                  other.arena_.data() + from[begin], bytes);
    }
    const size_t base = offsets_.size();
    offsets_.resize(base + (end - begin));
    uint64_t* to = offsets_.data() + base;
    for (size_t i = begin; i < end; ++i) *to++ = from[i + 1] + shift;
  } else {
    ints_.insert(ints_.end(), other.ints_.begin() + begin,
                 other.ints_.begin() + end);
  }
  nulls_.insert(nulls_.end(), other.nulls_.begin() + begin,
                other.nulls_.begin() + end);
  if (other.null_count_ > 0) {
    for (size_t i = begin; i < end; ++i) null_count_ += other.nulls_[i];
  }
  return Status::OK();
}

ColumnVector ColumnVector::TakeInts(TypeId type, std::vector<int64_t> lane,
                                   std::vector<uint8_t> nulls) {
  ColumnVector v(type);
  if (nulls.empty()) {
    v.nulls_.assign(lane.size(), 0);
  } else {
    for (uint8_t null : nulls) v.null_count_ += null != 0 ? 1 : 0;
    v.nulls_ = std::move(nulls);
  }
  v.ints_ = std::move(lane);
  return v;
}

ColumnVector ColumnVector::TakeDoubles(std::vector<double> lane) {
  ColumnVector v(TypeId::kDouble);
  v.nulls_.assign(lane.size(), 0);
  v.doubles_ = std::move(lane);
  return v;
}

Status ColumnVector::AppendSelected(const ColumnVector& other,
                                    const std::vector<uint32_t>& indices) {
  if (other.type_ != type_) {
    return Status::InvalidArgument("AppendSelected across types");
  }
  const size_t base = nulls_.size();
  nulls_.resize(base + indices.size());
  if (type_ == TypeId::kDouble) {
    doubles_.resize(base + indices.size());
    for (size_t i = 0; i < indices.size(); ++i) {
      doubles_[base + i] = other.doubles_[indices[i]];
      nulls_[base + i] = other.nulls_[indices[i]];
    }
  } else if (type_ == TypeId::kString) {
    // The offsets first, which size the arena; then each value's bytes.
    StartOffsets();
    const uint64_t* from = other.offsets_.data();
    offsets_.resize(base + 1 + indices.size());
    uint64_t* to = offsets_.data() + base + 1;
    uint64_t end = arena_.size();
    for (size_t i = 0; i < indices.size(); ++i) {
      end += from[indices[i] + 1] - from[indices[i]];
      to[i] = end;
      nulls_[base + i] = other.nulls_[indices[i]];
    }
    if (end > arena_.size()) {  // else no bytes, and data() may be null
      char* dst = GrowArena(end);
      const char* src = other.arena_.data();
      for (uint32_t idx : indices) {
        const uint64_t len = from[idx + 1] - from[idx];
        std::memcpy(dst, src + from[idx], len);
        dst += len;
      }
    }
  } else {
    ints_.resize(base + indices.size());
    for (size_t i = 0; i < indices.size(); ++i) {
      ints_[base + i] = other.ints_[indices[i]];
      nulls_[base + i] = other.nulls_[indices[i]];
    }
  }
  if (other.null_count_ > 0) {
    for (size_t i = 0; i < indices.size(); ++i) {
      null_count_ += nulls_[base + i];
    }
  }
  return Status::OK();
}

}  // namespace sdw
