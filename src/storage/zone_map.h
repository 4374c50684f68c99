#ifndef SDW_STORAGE_ZONE_MAP_H_
#define SDW_STORAGE_ZONE_MAP_H_

#include "catalog/types.h"

namespace sdw::storage {

/// Per-block min/max metadata kept in memory (paper §6: "column-block
/// skipping based on value-ranges stored in memory"; the technique of
/// Moerkotte's Small Materialized Aggregates). A range predicate that
/// cannot overlap [min, max] skips the block without any IO.
class ZoneMap {
 public:
  ZoneMap() = default;

  /// Folds one value into the zone. NULLs are tracked separately.
  void Update(const Datum& value) {
    if (value.is_null()) {
      has_nulls_ = true;
      return;
    }
    if (!has_values_) {
      min_ = value;
      max_ = value;
      has_values_ = true;
      return;
    }
    if (value < min_) min_ = value;
    if (max_ < value) max_ = value;
  }

  /// Folds a whole column vector: its extremes are found on the lanes,
  /// and only they become Datums.
  void UpdateAll(const ColumnVector& values) {
    const size_t none = values.size();
    size_t lo = none;
    size_t hi = none;
    for (size_t i = 0; i < values.size(); ++i) {
      if (values.IsNull(i)) {
        has_nulls_ = true;
        continue;
      }
      if (lo == none || values.Compare(i, lo) < 0) lo = i;
      if (hi == none || values.Compare(hi, i) < 0) hi = i;
    }
    if (lo == none) return;
    Update(values.DatumAt(lo));
    Update(values.DatumAt(hi));
  }

  /// True if some row in this block may satisfy lo <= value <= hi.
  /// A NULL bound is unbounded on that side. NULL rows never match a
  /// range predicate, so a block of pure NULLs is always skippable.
  bool MayOverlap(const Datum& lo, const Datum& hi) const {
    if (!has_values_) return false;
    if (!hi.is_null() && hi < min_) return false;
    if (!lo.is_null() && max_ < lo) return false;
    return true;
  }

  /// True if some row may equal the value.
  bool MayContain(const Datum& value) const {
    return MayOverlap(value, value);
  }

  bool has_values() const { return has_values_; }
  bool has_nulls() const { return has_nulls_; }
  const Datum& min() const { return min_; }
  const Datum& max() const { return max_; }

 private:
  bool has_values_ = false;
  bool has_nulls_ = false;
  Datum min_;
  Datum max_;
};

}  // namespace sdw::storage

#endif  // SDW_STORAGE_ZONE_MAP_H_
