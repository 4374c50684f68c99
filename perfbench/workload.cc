#include "workload.h"

#include <cstdio>

namespace whbench {

FactRows GenerateFact(uint64_t seed, size_t rows) {
  Rng rng(seed);
  FactRows t;
  t.grp.resize(rows);
  t.v.resize(rows);
  t.dim_id.resize(rows);
  t.region.resize(rows);
  for (size_t i = 0; i < rows; ++i) {
    t.grp[i] = static_cast<int64_t>(rng.Uniform(kGroups));
    t.v[i] = static_cast<int64_t>(rng.Uniform(kValueRange));
    t.dim_id[i] = static_cast<int64_t>(rng.Uniform(kDimRows));
    t.region[i] = static_cast<uint8_t>(rng.Uniform(kRegions));
  }
  return t;
}

DimRows GenerateDim(uint64_t seed) {
  Rng rng(seed);
  DimRows d;
  d.cat.resize(kDimRows);
  for (uint8_t& c : d.cat) c = static_cast<uint8_t>(rng.Uniform(kCategories));
  return d;
}

std::vector<std::string> FactCsv(const FactRows& t, int files) {
  std::vector<std::string> out(static_cast<size_t>(files));
  std::vector<std::string> regions;
  for (int r = 0; r < kRegions; ++r) regions.push_back(RegionName(r));
  const size_t per_file = (t.size() + files - 1) / files;
  for (size_t i = 0; i < t.size(); ++i) {
    std::string& csv = out[i / per_file];
    csv += std::to_string(i);
    csv += ',';
    csv += std::to_string(t.grp[i]);
    csv += ',';
    csv += regions[t.region[i]];
    csv += ',';
    csv += std::to_string(t.v[i]);
    csv += ',';
    csv += std::to_string(t.dim_id[i]);
    csv += '\n';
  }
  return out;
}

std::string DimCsv(const DimRows& d) {
  std::string csv;
  for (size_t i = 0; i < d.size(); ++i) {
    csv += std::to_string(i) + ',' + CategoryName(d.cat[i]) + '\n';
  }
  return csv;
}

std::string FactDdl(const std::string& table) {
  return "CREATE TABLE " + table +
         " (id BIGINT, grp BIGINT, region VARCHAR, v BIGINT, dim_id BIGINT)"
         " DISTKEY(id) SORTKEY(id)";
}

std::string DimDdl() {
  return "CREATE TABLE dim (id BIGINT, cat VARCHAR) DISTSTYLE EVEN";
}

namespace {

constexpr char kScheme[] = "s3://";

sdw::Status CheckPrefix(const std::string& uri_prefix) {
  if (uri_prefix.rfind(kScheme, 0) != 0 || uri_prefix.back() != '/') {
    return sdw::Status::InvalidArgument(
        "fixture prefix must be s3://... ending in '/': " + uri_prefix);
  }
  return sdw::Status::OK();
}

}  // namespace

sdw::Result<std::string> CopySql(const std::string& table,
                                 const std::string& uri_prefix) {
  SDW_RETURN_IF_ERROR(CheckPrefix(uri_prefix));
  return "COPY " + table + " FROM '" + uri_prefix + "' FORMAT CSV";
}

sdw::Status StageFiles(sdw::warehouse::Warehouse* warehouse,
                       const std::string& uri_prefix,
                       const std::vector<std::string>& files) {
  SDW_RETURN_IF_ERROR(CheckPrefix(uri_prefix));
  const std::string key_prefix = uri_prefix.substr(sizeof(kScheme) - 1);
  sdw::backup::S3Region* region = warehouse->s3()->region(kRegion);
  for (size_t f = 0; f < files.size(); ++f) {
    char part[32];
    std::snprintf(part, sizeof part, "part-%03zu", f);
    SDW_RETURN_IF_ERROR(region->PutObject(
        key_prefix + part, sdw::Bytes(files[f].begin(), files[f].end())));
  }
  return sdw::Status::OK();
}

Query RandomQuery(Shape shape, size_t rows, Rng* rng, bool plain_count) {
  const auto n = static_cast<uint64_t>(rows);
  Query q;
  q.shape = shape;
  switch (shape) {
    case Shape::kPoint:
      q.lo = static_cast<int64_t>(rng->Uniform(n));
      break;
    case Shape::kCount:
      q.unfiltered = plain_count;
      if (!plain_count) q.lo = static_cast<int64_t>(rng->Uniform(n));
      break;
    case Shape::kGroup:
    case Shape::kStringGroup:
    case Shape::kJoin:
      q.lo = 1000 + static_cast<int64_t>(rng->Uniform(3000));
      break;
    case Shape::kMinMax:
      q.lo = static_cast<int64_t>(rng->Uniform(n - n / 4));
      q.hi = q.lo + static_cast<int64_t>(n / 4) - 1;
      break;
  }
  return q;
}

std::string RenderBatch(const sdw::exec::Batch& batch) {
  std::string out;
  for (size_t r = 0; r < batch.num_rows(); ++r) {
    if (r > 0) out += '\n';
    for (size_t c = 0; c < batch.columns.size(); ++c) {
      if (c > 0) out += '|';
      const sdw::ColumnVector& col = batch.columns[c];
      if (col.IsNull(r)) {
        out += "NULL";
      } else if (col.type() == sdw::TypeId::kString) {
        out += col.StringAt(r);
      } else if (col.type() == sdw::TypeId::kDouble) {
        out += "<double>";  // the benchmark's statements are integer-only
      } else {
        out += std::to_string(col.IntAt(r));
      }
    }
  }
  return out;
}

sdw::warehouse::WarehouseOptions BenchOptions(bool result_cache,
                                              bool segment_cache) {
  sdw::warehouse::WarehouseOptions options;
  options.region = kRegion;
  options.cluster.num_nodes = 2;
  options.cluster.slices_per_node = 2;
  options.cluster.storage.max_rows_per_block = 16384;
  options.cache.enable_result_cache = result_cache;
  options.cache.enable_segment_cache = segment_cache;
  return options;
}

}  // namespace whbench
