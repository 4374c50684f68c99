#ifndef SDW_LOAD_FORMATS_H_
#define SDW_LOAD_FORMATS_H_

#include <string>
#include <vector>

#include "catalog/schema.h"
#include "catalog/types.h"
#include "common/result.h"

namespace sdw::load {

/// Parses CSV text into column vectors matching the schema. Rows end at
/// "\n" or "\r\n"; fields are comma-separated; an empty field or \N is
/// NULL; double-quoted fields may contain commas and doubled quotes. A
/// numeric field must be one whole number that fits its column's type;
/// anything else is InvalidArgument naming the line and the column.
Result<std::vector<ColumnVector>> ParseCsv(const std::string& text,
                                           const TableSchema& schema);

/// Renders column vectors as CSV (the inverse, used by tests and data
/// generators).
std::string FormatCsv(const std::vector<ColumnVector>& columns);

/// Parses newline-delimited JSON objects (one per row) into column
/// vectors; fields bind to schema columns by name, absent fields are
/// NULL (COPY "directly supports ingestion of JSON data", §2.1).
Result<std::vector<ColumnVector>> ParseJsonLines(const std::string& text,
                                                 const TableSchema& schema);

/// Parses one flat JSON object into (field, value) pairs in appearance
/// order. Shared by COPY and schema inference.
Result<std::vector<std::pair<std::string, Datum>>> ParseJsonObject(
    const std::string& line);

}  // namespace sdw::load

#endif  // SDW_LOAD_FORMATS_H_
