#ifndef SDW_EXEC_BATCH_H_
#define SDW_EXEC_BATCH_H_

#include <vector>

#include "catalog/types.h"
#include "common/result.h"

namespace sdw::exec {

/// The unit of vectorized execution: a set of equal-length column
/// vectors. A batch with no columns still has rows: a scan that projects
/// no column (a bare COUNT(*)) emits only row counts.
struct Batch {
  std::vector<ColumnVector> columns;
  /// The row count when `columns` is empty; ignored otherwise.
  size_t rows = 0;

  size_t num_rows() const {
    return columns.empty() ? rows : columns[0].size();
  }
  size_t num_columns() const { return columns.size(); }

  std::vector<TypeId> Types() const {
    std::vector<TypeId> types;
    types.reserve(columns.size());
    for (const auto& c : columns) types.push_back(c.type());
    return types;
  }

  /// One row as datums (API-boundary use only).
  Row RowAt(size_t i) const {
    Row row;
    row.reserve(columns.size());
    for (const auto& c : columns) row.push_back(c.DatumAt(i));
    return row;
  }
};

/// Builds an empty batch with the given column types.
inline Batch MakeBatch(const std::vector<TypeId>& types) {
  Batch b;
  b.columns.reserve(types.size());
  for (TypeId t : types) b.columns.emplace_back(t);
  return b;
}

}  // namespace sdw::exec

#endif  // SDW_EXEC_BATCH_H_
