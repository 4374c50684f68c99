#include "load/formats.h"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <string_view>

namespace sdw::load {

namespace {

/// Parses one CSV field into `column`. A number must be the whole field
/// and fit its type: "12x", " 12", "2.5abc" and "99999999999999999999"
/// are errors, never a silently truncated value. `field` views the CSV
/// text, so the character after it ends any number strtod/strtoll read.
Status AppendField(ColumnVector* column, TypeId type, std::string_view field,
                   bool was_quoted) {
  if (!was_quoted && (field.empty() || field == "\\N")) {
    column->AppendNull();
    return Status::OK();
  }
  // strtod and strtoll skip leading white space; a number may not.
  const bool padded =
      !field.empty() && std::isspace(static_cast<unsigned char>(field[0]));
  const char* const field_end = field.data() + field.size();
  switch (type) {
    case TypeId::kString:
      column->AppendString(field);
      return Status::OK();
    case TypeId::kDouble: {
      char* end = nullptr;
      errno = 0;
      double v = std::strtod(field.data(), &end);
      if (padded || end == field.data() || end != field_end) {
        return Status::InvalidArgument("bad double '" + std::string(field) +
                                       "'");
      }
      if (errno == ERANGE) {
        return Status::InvalidArgument("double out of range '" +
                                       std::string(field) + "'");
      }
      column->AppendDouble(v);
      return Status::OK();
    }
    case TypeId::kBool:
      if (field == "true" || field == "t" || field == "1") {
        column->AppendInt(1);
      } else if (field == "false" || field == "f" || field == "0") {
        column->AppendInt(0);
      } else {
        return Status::InvalidArgument("bad boolean '" + std::string(field) +
                                       "'");
      }
      return Status::OK();
    default: {
      char* end = nullptr;
      errno = 0;
      long long v = std::strtoll(field.data(), &end, 10);
      if (padded || end == field.data() || end != field_end) {
        return Status::InvalidArgument("bad integer '" + std::string(field) +
                                       "'");
      }
      const bool narrow = type == TypeId::kInt32 || type == TypeId::kDate;
      if (errno == ERANGE || (narrow && v != static_cast<int32_t>(v))) {
        return Status::InvalidArgument("integer out of range '" +
                                       std::string(field) + "'");
      }
      column->AppendInt(v);
      return Status::OK();
    }
  }
}

}  // namespace

Result<std::vector<ColumnVector>> ParseCsv(const std::string& text,
                                           const TableSchema& schema) {
  std::vector<ColumnVector> columns;
  for (const ColumnDef& col : schema.columns()) {
    columns.emplace_back(col.type);
  }
  size_t i = 0;
  const size_t n = text.size();
  size_t line = 1;
  std::string unquoted;
  // A line ends at "\n" or "\r\n": a CRLF file loads like its LF twin,
  // with no '\r' left in the last field.
  auto at_line_end = [&](size_t at) {
    return text[at] == '\n' ||
           (text[at] == '\r' && at + 1 < n && text[at + 1] == '\n');
  };
  auto skip_line_end = [&] {
    i += text[i] == '\r' ? 2 : 1;
    ++line;
  };
  while (i < n) {
    if (at_line_end(i)) {  // skip blank lines
      skip_line_end();
      continue;
    }
    size_t field_index = 0;
    while (true) {
      if (field_index >= columns.size()) {
        return Status::InvalidArgument("too many fields at line " +
                                       std::to_string(line));
      }
      // A field is a view of the text; only a quoted field holding a
      // doubled quote is rewritten, into `unquoted`.
      std::string_view field;
      bool quoted = false;
      const size_t start = i + (i < n && text[i] == '"' ? 1 : 0);
      if (start > i) {
        quoted = true;
        bool doubled = false;
        for (i = start; i < n; ++i) {
          if (text[i] != '"') continue;
          if (i + 1 >= n || text[i + 1] != '"') break;
          doubled = true;
          ++i;
        }
        field = std::string_view(text).substr(start, i - start);
        if (i < n) ++i;  // the closing quote
        if (doubled) {
          unquoted.clear();
          for (size_t j = 0; j < field.size(); ++j) {
            unquoted.push_back(field[j]);
            if (field[j] == '"') ++j;
          }
          field = unquoted;
        }
      } else {
        while (i < n && text[i] != ',' && !at_line_end(i)) ++i;
        field = std::string_view(text).substr(start, i - start);
      }
      const ColumnDef& def = schema.column(field_index);
      Status parsed =
          AppendField(&columns[field_index], def.type, field, quoted);
      if (!parsed.ok()) {
        return Status::InvalidArgument(parsed.message() + " at line " +
                                       std::to_string(line) + ", column '" +
                                       def.name + "'");
      }
      ++field_index;
      if (i < n && text[i] == ',') {
        ++i;
        continue;
      }
      break;
    }
    if (field_index != columns.size()) {
      return Status::InvalidArgument("too few fields at line " +
                                     std::to_string(line));
    }
    if (i < n) {
      if (!at_line_end(i)) {
        return Status::InvalidArgument("malformed row at line " +
                                       std::to_string(line));
      }
      skip_line_end();
    }
  }
  return columns;
}

std::string FormatCsv(const std::vector<ColumnVector>& columns) {
  std::string out;
  const size_t rows = columns.empty() ? 0 : columns[0].size();
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < columns.size(); ++c) {
      if (c > 0) out.push_back(',');
      const ColumnVector& col = columns[c];
      if (col.IsNull(r)) {
        out += "\\N";
        continue;
      }
      switch (col.type()) {
        case TypeId::kString: {
          const std::string_view s = col.StringAt(r);
          if (s.empty() || s.find_first_of(",\"\n") != s.npos) {
            out.push_back('"');
            for (char ch : s) {
              if (ch == '"') out.push_back('"');
              out.push_back(ch);
            }
            out.push_back('"');
          } else {
            out += s;
          }
          break;
        }
        case TypeId::kDouble: {
          char buf[32];
          std::snprintf(buf, sizeof(buf), "%.17g", col.DoubleAt(r));
          out += buf;
          break;
        }
        case TypeId::kBool:
          out += col.IntAt(r) ? "true" : "false";
          break;
        default:
          out += std::to_string(col.IntAt(r));
          break;
      }
    }
    out.push_back('\n');
  }
  return out;
}

namespace {

/// Minimal JSON value scanner for flat objects of scalars.
struct JsonParser {
  const std::string& text;
  size_t pos = 0;

  void SkipWs() {
    while (pos < text.size() &&
           std::isspace(static_cast<unsigned char>(text[pos])) &&
           text[pos] != '\n') {
      ++pos;
    }
  }

  Result<std::string> ParseString() {
    if (text[pos] != '"') return Status::InvalidArgument("expected '\"'");
    ++pos;
    std::string out;
    while (pos < text.size() && text[pos] != '"') {
      if (text[pos] == '\\' && pos + 1 < text.size()) {
        ++pos;
        switch (text[pos]) {
          case 'n':
            out.push_back('\n');
            break;
          case 't':
            out.push_back('\t');
            break;
          default:
            out.push_back(text[pos]);
            break;
        }
        ++pos;
        continue;
      }
      out.push_back(text[pos++]);
    }
    if (pos >= text.size()) return Status::InvalidArgument("unterminated string");
    ++pos;
    return out;
  }
};

}  // namespace

Result<std::vector<std::pair<std::string, Datum>>> ParseJsonObject(
    const std::string& line) {
  std::vector<std::pair<std::string, Datum>> fields;
  JsonParser p{line};
  p.SkipWs();
  if (p.pos >= line.size() || line[p.pos] != '{') {
    return Status::InvalidArgument("expected JSON object");
  }
  ++p.pos;
  p.SkipWs();
  if (p.pos < line.size() && line[p.pos] == '}') {
    ++p.pos;
    return fields;
  }
  while (true) {
    p.SkipWs();
    SDW_ASSIGN_OR_RETURN(std::string key, p.ParseString());
    p.SkipWs();
    if (p.pos >= line.size() || line[p.pos] != ':') {
      return Status::InvalidArgument("expected ':' in JSON object");
    }
    ++p.pos;
    p.SkipWs();
    Datum value;
    if (p.pos < line.size() && line[p.pos] == '"') {
      SDW_ASSIGN_OR_RETURN(std::string s, p.ParseString());
      value = Datum::String(std::move(s));
    } else if (line.compare(p.pos, 4, "null") == 0) {
      value = Datum::Null();
      p.pos += 4;
    } else if (line.compare(p.pos, 4, "true") == 0) {
      value = Datum::Bool(true);
      p.pos += 4;
    } else if (line.compare(p.pos, 5, "false") == 0) {
      value = Datum::Bool(false);
      p.pos += 5;
    } else {
      char* endp = nullptr;
      const char* begin = line.c_str() + p.pos;
      double d = std::strtod(begin, &endp);
      if (endp == begin) {
        return Status::InvalidArgument("bad JSON value");
      }
      // Integral numbers within BIGINT become int64 so they bind to int
      // columns; larger ones stay doubles, which an int column rejects.
      if (d >= -0x1p63 && d < 0x1p63 &&
          d == static_cast<double>(static_cast<int64_t>(d)) &&
          std::string(begin, static_cast<const char*>(endp)).find('.') ==
              std::string::npos) {
        value = Datum::Int64(static_cast<int64_t>(d));
      } else {
        value = Datum::Double(d);
      }
      p.pos += endp - begin;
    }
    fields.emplace_back(std::move(key), std::move(value));
    p.SkipWs();
    if (p.pos < line.size() && line[p.pos] == ',') {
      ++p.pos;
      continue;
    }
    if (p.pos < line.size() && line[p.pos] == '}') {
      ++p.pos;
      break;
    }
    return Status::InvalidArgument("malformed JSON object");
  }
  return fields;
}

Result<std::vector<ColumnVector>> ParseJsonLines(const std::string& text,
                                                 const TableSchema& schema) {
  std::vector<ColumnVector> columns;
  for (const ColumnDef& col : schema.columns()) {
    columns.emplace_back(col.type);
  }
  size_t start = 0;
  size_t line_no = 1;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    std::string line = text.substr(start, end - start);
    start = end + 1;
    // Skip blank lines.
    if (line.find_first_not_of(" \t\r") == std::string::npos) {
      ++line_no;
      continue;
    }
    auto parsed = ParseJsonObject(line);
    if (!parsed.ok()) {
      return Status::InvalidArgument(parsed.status().message() + " at line " +
                                     std::to_string(line_no));
    }
    // Emit one full row (absent fields NULL, unknown fields ignored).
    std::vector<bool> present(columns.size(), false);
    std::vector<Datum> values(columns.size());
    for (auto& [key, value] : *parsed) {
      auto idx = schema.FindColumn(key);
      if (idx.ok()) {
        present[*idx] = true;
        values[*idx] = std::move(value);
      }
    }
    for (size_t c = 0; c < columns.size(); ++c) {
      if (!present[c]) {
        columns[c].AppendNull();
        continue;
      }
      Status appended = columns[c].AppendDatum(values[c]);
      if (!appended.ok()) {
        return Status::InvalidArgument(
            appended.message() + " at line " + std::to_string(line_no) +
            ", column '" + schema.column(c).name + "'");
      }
    }
    ++line_no;
  }
  return columns;
}

}  // namespace sdw::load
