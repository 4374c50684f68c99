#include "exec/hash_table.h"

#include <algorithm>
#include <cstring>
#include <string_view>
#include <type_traits>

#include "common/hash.h"
#include "exec/hll.h"

namespace sdw::exec {

namespace {

uint64_t DoubleBits(double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

/// Maps -0.0's bits to 0.0's and every NaN's to one quiet NaN's, so
/// doubles equal under CompareDoubles have equal keys and hashes.
uint64_t NormalizedBits(uint64_t bits) {
  constexpr uint64_t kExponent = 0x7ff0000000000000ull;
  if (bits << 1 == 0) return 0;
  if ((bits & ~(1ull << 63)) > kExponent) return DoubleBits(__builtin_nan(""));
  return bits;
}

const uint8_t* NullsOf(const ColumnVector& col) {
  return col.has_nulls() ? col.nulls().data() : nullptr;
}

/// Calls fold(i, Datum::Hash of value i) for every row of `col`.
template <typename Fold>
void ForEachHash(const ColumnVector& col, Fold fold) {
  const size_t n = col.size();
  const uint8_t* nulls = NullsOf(col);
  auto is_null = [nulls](size_t i) { return nulls != nullptr && nulls[i]; };
  switch (col.type()) {
    case TypeId::kDouble: {
      const double* v = col.doubles().data();
      for (size_t i = 0; i < n; ++i) {
        fold(i, is_null(i) ? Datum::kNullHash
                           : Hash64(NormalizedBits(DoubleBits(v[i]))));
      }
      break;
    }
    case TypeId::kString: {
      for (size_t i = 0; i < n; ++i) {
        fold(i, is_null(i) ? Datum::kNullHash : Hash64(col.StringAt(i)));
      }
      break;
    }
    default: {
      const int64_t* v = col.ints().data();
      for (size_t i = 0; i < n; ++i) {
        fold(i, is_null(i) ? Datum::kNullHash
                           : Hash64(static_cast<uint64_t>(v[i])));
      }
      break;
    }
  }
}

}  // namespace

void HashColumn(const ColumnVector& col, std::vector<uint64_t>* out) {
  out->resize(col.size());
  uint64_t* h = out->data();
  ForEachHash(col, [h](size_t i, uint64_t v) { h[i] = v; });
}

void HashRows(const Batch& batch, const std::vector<int>& keys,
              std::vector<uint64_t>* out) {
  out->resize(batch.num_rows());
  uint64_t* h = out->data();
  if (keys.empty()) {
    std::fill(out->begin(), out->end(), kRowHashSeed);
    return;
  }
  ForEachHash(batch.columns[keys[0]], [h](size_t i, uint64_t v) {
    h[i] = HashCombine(kRowHashSeed, v);
  });
  for (size_t k = 1; k < keys.size(); ++k) {
    ForEachHash(batch.columns[keys[k]],
                [h](size_t i, uint64_t v) { h[i] = HashCombine(h[i], v); });
  }
}

// ---------------------------------------------------------------------------
// KeyTable
// ---------------------------------------------------------------------------

KeyTable::KeyTable(const std::vector<TypeId>& types) {
  lanes_.reserve(types.size());
  for (TypeId type : types) lanes_.push_back(Lane{KindOf(type), {}, {}, {}});
}

KeyTable::Kind KeyTable::KindOf(TypeId type) {
  switch (type) {
    case TypeId::kDouble:
      return Kind::kDouble;
    case TypeId::kString:
      return Kind::kString;
    default:
      return Kind::kInt;
  }
}

std::string_view KeyTable::StringAt(const Lane& lane, uint32_t id) const {
  return {arena_.data() + lane.words[id], lane.sizes[id]};
}

bool KeyTable::Equal(const Columns& cols, size_t row, uint32_t id) const {
  for (size_t c = 0; c < lanes_.size(); ++c) {
    const Lane& lane = lanes_[c];
    const ColumnVector& col = *cols[c];
    const bool null = col.IsNull(row);
    if (null != (lane.nulls[id] != 0)) return false;
    if (null) continue;
    switch (lane.kind) {
      case Kind::kInt:
        if (lane.words[id] != static_cast<uint64_t>(col.IntAt(row))) {
          return false;
        }
        break;
      case Kind::kDouble:
        if (NormalizedBits(lane.words[id]) !=
            NormalizedBits(DoubleBits(col.DoubleAt(row)))) {
          return false;
        }
        break;
      case Kind::kString:
        if (StringAt(lane, id) != col.StringAt(row)) return false;
        break;
    }
  }
  return true;
}

uint32_t KeyTable::Add(const Columns& cols, size_t row, uint64_t hash,
                       size_t pos) {
  const auto id = static_cast<uint32_t>(size_++);
  for (size_t c = 0; c < lanes_.size(); ++c) {
    Lane& lane = lanes_[c];
    const ColumnVector& col = *cols[c];
    const bool null = col.IsNull(row);
    lane.nulls.push_back(null ? 1 : 0);
    uint64_t word = 0;
    if (lane.kind == Kind::kString) {
      const std::string_view s = null ? std::string_view() : col.StringAt(row);
      word = arena_.size();
      lane.sizes.push_back(static_cast<uint32_t>(s.size()));
      arena_.append(s);
    } else if (!null) {
      word = lane.kind == Kind::kDouble ? DoubleBits(col.DoubleAt(row))
                                        : static_cast<uint64_t>(col.IntAt(row));
    }
    lane.words.push_back(word);
  }
  hashes_.push_back(hash);
  slots_[pos] = Slot{static_cast<uint32_t>(hash >> 32), id};
  if (size_ * 4 > slots_.size()) Grow();
  return id;
}

void KeyTable::Grow() {
  slots_.assign(slots_.size() * 2, Slot{});
  mask_ = slots_.size() - 1;
  for (uint32_t id = 0; id < size_; ++id) {
    size_t pos = hashes_[id] & mask_;
    while (slots_[pos].id != kNoId) pos = (pos + 1) & mask_;
    slots_[pos] = Slot{static_cast<uint32_t>(hashes_[id] >> 32), id};
  }
}

template <typename Eq>
size_t KeyTable::SlotOf(uint64_t hash, Eq eq) const {
  const auto tag = static_cast<uint32_t>(hash >> 32);
  size_t pos = hash & mask_;
  while (slots_[pos].id != kNoId &&
         (slots_[pos].tag != tag || !eq(slots_[pos].id))) {
    pos = (pos + 1) & mask_;
  }
  return pos;
}

template <typename Fn>
void KeyTable::WithEqual(const Columns& cols, Fn fn) const {
  // One integer or VARCHAR key (the common join and GROUP BY shapes)
  // compares straight from the lanes; other shapes loop over columns.
  const Lane& lane = lanes_[0];
  const uint8_t* nulls = NullsOf(*cols[0]);
  if (lanes_.size() == 1 && lane.kind == Kind::kInt) {
    const int64_t* v = cols[0]->ints().data();
    fn([&lane, v, nulls](size_t row, uint32_t id) {
      const bool null = nulls != nullptr && nulls[row] != 0;
      return lane.nulls[id] == (null ? 1 : 0) &&
             (null || lane.words[id] == static_cast<uint64_t>(v[row]));
    });
  } else if (lanes_.size() == 1 && lane.kind == Kind::kString) {
    const ColumnVector* v = cols[0];
    fn([this, &lane, v, nulls](size_t row, uint32_t id) {
      const bool null = nulls != nullptr && nulls[row] != 0;
      return lane.nulls[id] == (null ? 1 : 0) &&
             (null || StringAt(lane, id) == v->StringAt(row));
    });
  } else {
    fn([this, &cols](size_t row, uint32_t id) {
      return Equal(cols, row, id);
    });
  }
}

void KeyTable::Insert(const Batch& batch, const std::vector<int>& keys,
                      const uint64_t* hashes, uint32_t* ids) {
  const size_t n = batch.num_rows();
  if (lanes_.empty()) {  // global aggregate: one group
    if (n > 0) size_ = 1;
    std::fill(ids, ids + n, 0u);
    return;
  }
  Columns cols;
  for (int k : keys) cols.push_back(&batch.columns[k]);
  WithEqual(cols, [&](auto equal) {
    for (size_t i = 0; i < n; ++i) {
      const size_t pos =
          SlotOf(hashes[i], [&](uint32_t id) { return equal(i, id); });
      ids[i] = slots_[pos].id != kNoId ? slots_[pos].id
                                       : Add(cols, i, hashes[i], pos);
    }
  });
}

void KeyTable::Find(const Batch& batch, const std::vector<int>& keys,
                    const uint64_t* hashes, uint32_t* ids) const {
  const size_t n = batch.num_rows();
  if (lanes_.empty()) {  // no key columns: every row has the one key
    std::fill(ids, ids + n, size_ > 0 ? 0u : kNoId);
    return;
  }
  // Keys of different lane kinds (say VARCHAR against BIGINT) never
  // compare equal.
  bool comparable = size_ > 0;
  Columns cols;
  for (size_t c = 0; c < keys.size() && comparable; ++c) {
    cols.push_back(&batch.columns[keys[c]]);
    comparable = KindOf(cols.back()->type()) == lanes_[c].kind;
  }
  if (!comparable) {
    std::fill(ids, ids + n, kNoId);
    return;
  }
  WithEqual(cols, [&](auto equal) {
    for (size_t i = 0; i < n; ++i) {
      const bool null = std::any_of(cols.begin(), cols.end(),
                                    [i](auto* col) { return col->IsNull(i); });
      ids[i] = null ? kNoId
                    : slots_[SlotOf(hashes[i], [&](uint32_t id) {
                        return equal(i, id);
                      })].id;
    }
  });
}

void KeyTable::AppendKeys(size_t k, ColumnVector* out) const {
  const Lane& lane = lanes_[k];
  out->Reserve(out->size() + size_);
  for (uint32_t id = 0; id < size_; ++id) {
    if (lane.nulls[id] != 0) {
      out->AppendNull();
      continue;
    }
    switch (lane.kind) {
      case Kind::kInt:
        out->AppendInt(static_cast<int64_t>(lane.words[id]));
        break;
      case Kind::kDouble: {
        double d;
        std::memcpy(&d, &lane.words[id], sizeof(d));
        out->AppendDouble(d);
        break;
      }
      case Kind::kString:
        out->AppendString(StringAt(lane, id));
        break;
    }
  }
}

// ---------------------------------------------------------------------------
// Typed aggregate states
// ---------------------------------------------------------------------------

namespace {

/// Reads value i of a lane holding T: an int64 or a double, or a view
/// of a VARCHAR value for T = std::string.
template <typename T>
auto ValuesOf(const ColumnVector& col) {
  if constexpr (std::is_same_v<T, int64_t>) {
    return [v = col.ints().data()](size_t i) { return v[i]; };
  } else if constexpr (std::is_same_v<T, double>) {
    return [v = col.doubles().data()](size_t i) { return v[i]; };
  } else {
    return [&col](size_t i) { return col.StringAt(i); };
  }
}

void AppendValue(ColumnVector* out, int64_t v) { out->AppendInt(v); }
void AppendValue(ColumnVector* out, double v) { out->AppendDouble(v); }
void AppendValue(ColumnVector* out, const std::string& v) {
  out->AppendString(v);
}

class CountStates final : public AggStates {
 public:
  void Resize(size_t groups) override { counts_.resize(groups, 0); }

  Status Update(const ColumnVector* input, const uint32_t* ids,
                size_t n) override {
    const uint8_t* nulls = input == nullptr ? nullptr : NullsOf(*input);
    for (size_t i = 0; i < n; ++i) {
      counts_[ids[i]] += nulls == nullptr || nulls[i] == 0 ? 1 : 0;
    }
    return Status::OK();
  }

  Status UpdateSingleGroup(const ColumnVector* input, size_t n) override {
    counts_[0] += static_cast<int64_t>(
        n - (input == nullptr ? 0 : input->null_count()));
    return Status::OK();
  }

  // Partial counts add up.
  Status Merge(const ColumnVector& partial, const uint32_t* ids) override {
    const int64_t* v = partial.ints().data();
    const uint8_t* nulls = NullsOf(partial);
    for (size_t i = 0; i < partial.size(); ++i) {
      if (nulls == nullptr || nulls[i] == 0) counts_[ids[i]] += v[i];
    }
    return Status::OK();
  }

  void Finalize(bool, ColumnVector* out) const override {
    for (int64_t c : counts_) out->AppendInt(c);
  }

 private:
  std::vector<int64_t> counts_;
};

/// SUM from zero: int64 additions are overflow-checked, doubles add in
/// row order per group and are never reassociated.
struct SumFold {
  static bool Apply(bool, int64_t v, int64_t* acc) {
    return !__builtin_add_overflow(*acc, v, acc);
  }
  static bool Apply(bool, double v, double* acc) {
    *acc += v;
    return true;
  }
};

/// MIN (kMax false) or MAX; on ties the first value seen stays.
/// Doubles order by CompareDoubles, so NaN is the largest value. A
/// VARCHAR state owns its bytes and is compared with a view of the input.
template <bool kMax>
struct ExtremeFold {
  template <typename A, typename B>
  static bool Less(const A& a, const B& b) {
    if constexpr (std::is_same_v<A, double>) {
      return CompareDoubles(a, b) < 0;
    } else {
      return a < b;
    }
  }
  template <typename V, typename T>
  static bool Apply(bool has, const V& v, T* acc) {
    if (!has || (kMax ? Less(*acc, v) : Less(v, *acc))) *acc = v;
    return true;
  }
};

/// SUM, MIN or MAX over one value lane: a value and a has-value flag per
/// group. A partial folds like an input value, so Merge is Update.
template <typename T, typename Fold>
class FoldStates final : public AggStates {
 public:
  void Resize(size_t groups) override {
    values_.resize(groups);
    has_.resize(groups, 0);
  }

  Status Update(const ColumnVector* input, const uint32_t* ids,
                size_t n) override {
    return FoldRows(*input, n, [ids](size_t i) { return ids[i]; });
  }

  Status UpdateSingleGroup(const ColumnVector* input, size_t n) override {
    return FoldRows(*input, n, [](size_t) { return 0u; });
  }

  Status Merge(const ColumnVector& partial, const uint32_t* ids) override {
    return Update(&partial, ids, partial.size());
  }

  void Finalize(bool, ColumnVector* out) const override {
    for (size_t g = 0; g < values_.size(); ++g) {
      if (has_[g] != 0) {
        AppendValue(out, values_[g]);
      } else {
        out->AppendNull();
      }
    }
  }

 private:
  /// Folds input rows [0, n) into groups group_of(i).
  template <typename GroupOf>
  Status FoldRows(const ColumnVector& input, size_t n, GroupOf group_of) {
    const auto value = ValuesOf<T>(input);
    const uint8_t* nulls = NullsOf(input);
    for (size_t i = 0; i < n; ++i) {
      if (nulls != nullptr && nulls[i] != 0) continue;
      const uint32_t g = group_of(i);
      if (!Fold::Apply(has_[g] != 0, value(i), &values_[g])) {
        return Status::OutOfRange("integer SUM overflows BIGINT");
      }
      has_[g] = 1;
    }
    return Status::OK();
  }

  std::vector<T> values_;
  std::vector<uint8_t> has_;
};

/// APPROXIMATE COUNT(DISTINCT): one HyperLogLog per group, allocated on
/// its first value. Partials travel as serialized sketches.
class ApproxDistinctStates final : public AggStates {
 public:
  void Resize(size_t groups) override { sketches_.resize(groups); }

  Status Update(const ColumnVector* input, const uint32_t* ids,
                size_t n) override {
    AddRows(*input, n, [ids](size_t i) { return ids[i]; });
    return Status::OK();
  }

  Status UpdateSingleGroup(const ColumnVector* input, size_t n) override {
    AddRows(*input, n, [](size_t) { return 0u; });
    return Status::OK();
  }

  Status Merge(const ColumnVector& partial, const uint32_t* ids) override {
    for (size_t i = 0; i < partial.size(); ++i) {
      if (partial.IsNull(i)) continue;
      SDW_ASSIGN_OR_RETURN(HyperLogLog sketch,
                           HyperLogLog::Deserialize(partial.StringAt(i)));
      SDW_RETURN_IF_ERROR(Sketch(ids[i])->Merge(sketch));
    }
    return Status::OK();
  }

  void Finalize(bool partial, ColumnVector* out) const override {
    for (const auto& sketch : sketches_) {
      if (partial) {
        out->AppendString(sketch ? sketch->Serialize()
                                 : HyperLogLog().Serialize());
      } else {
        out->AppendInt(sketch ? static_cast<int64_t>(sketch->Estimate()) : 0);
      }
    }
  }

 private:
  HyperLogLog* Sketch(uint32_t g) {
    if (!sketches_[g]) sketches_[g] = std::make_unique<HyperLogLog>();
    return sketches_[g].get();
  }

  /// Adds the non-NULL values of input rows [0, n) to groups group_of(i).
  template <typename GroupOf>
  void AddRows(const ColumnVector& input, size_t n, GroupOf group_of) {
    HashColumn(input, &hashes_);
    const uint8_t* nulls = NullsOf(input);
    for (size_t i = 0; i < n; ++i) {
      if (nulls == nullptr || nulls[i] == 0) {
        Sketch(group_of(i))->Add(hashes_[i]);
      }
    }
  }

  std::vector<std::unique_ptr<HyperLogLog>> sketches_;
  std::vector<uint64_t> hashes_;
};

template <typename S>
std::unique_ptr<AggStates> Make() {
  return std::make_unique<S>();
}

template <typename Fold>
std::unique_ptr<AggStates> MakeExtreme(TypeId type) {
  switch (type) {
    case TypeId::kDouble:
      return Make<FoldStates<double, Fold>>();
    case TypeId::kString:
      return Make<FoldStates<std::string, Fold>>();
    default:
      return Make<FoldStates<int64_t, Fold>>();
  }
}

}  // namespace

Result<std::unique_ptr<AggStates>> MakeAggStates(AggFn fn, TypeId type) {
  switch (fn) {
    case AggFn::kCount:
      return Make<CountStates>();
    case AggFn::kSum:
      if (type == TypeId::kString) {
        return Status::InvalidArgument("SUM over VARCHAR");
      }
      return type == TypeId::kDouble ? Make<FoldStates<double, SumFold>>()
                                     : Make<FoldStates<int64_t, SumFold>>();
    case AggFn::kMin:
      return MakeExtreme<ExtremeFold<false>>(type);
    case AggFn::kMax:
      return MakeExtreme<ExtremeFold<true>>(type);
    case AggFn::kApproxDistinct:
      return Make<ApproxDistinctStates>();
  }
  return Status::InvalidArgument("unknown aggregate");
}

}  // namespace sdw::exec
