#include "load/copy.h"

#include <memory>
#include <optional>

#include "common/thread_pool.h"
#include "compress/analyzer.h"
#include "load/formats.h"
#include "obs/registry.h"

namespace sdw::load {

namespace {

/// Splits "s3://bucket/prefix" into (bucket-as-region-key, prefix).
/// The simulator treats the bucket name as the object-store namespace
/// within the executor's default region.
Result<std::pair<std::string, std::string>> ParseS3Uri(
    const std::string& uri) {
  const std::string scheme = "s3://";
  if (uri.compare(0, scheme.size(), scheme) != 0) {
    return Status::InvalidArgument("COPY source must be an s3:// URI");
  }
  const std::string rest = uri.substr(scheme.size());
  const size_t slash = rest.find('/');
  if (slash == std::string::npos) {
    return Status::InvalidArgument("s3 URI needs a bucket and prefix");
  }
  return std::make_pair(rest.substr(0, slash), rest.substr(slash + 1));
}

}  // namespace

Status CopyExecutor::MaybeRunAnalyzer(const std::string& table,
                                      const std::vector<ColumnVector>& sample,
                                      CopyStats* stats) {
  SDW_ASSIGN_OR_RETURN(uint64_t existing, cluster_->TotalRows(table));
  if (existing > 0) return Status::OK();  // first load only
  SDW_ASSIGN_OR_RETURN(TableSchema schema,
                       cluster_->catalog()->GetTable(table));
  bool changed = false;
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    if (schema.column(c).encoding != ColumnEncoding::kAuto) continue;
    if (sample[c].size() == 0) continue;
    SDW_ASSIGN_OR_RETURN(compress::AnalysisResult analysis,
                         compress::AnalyzeColumn(sample[c]));
    schema.SetColumnEncoding(c, analysis.encoding);
    changed = true;
    stats->chosen_encodings[schema.column(c).name] = analysis.encoding;
    // Propagate to every shard so appended blocks use the encoding.
    for (int s = 0; s < cluster_->total_slices(); ++s) {
      SDW_ASSIGN_OR_RETURN(storage::TableShard * shard,
                           cluster_->shard(s, table));
      shard->SetColumnEncoding(c, analysis.encoding);
    }
  }
  if (changed) {
    SDW_RETURN_IF_ERROR(cluster_->catalog()->UpdateTable(table, schema));
  }
  return Status::OK();
}

Result<CopyStats> CopyExecutor::CopyFromPayloads(
    const std::string& table, const std::vector<std::string>& payloads,
    const CopyOptions& options) {
  CopyStats stats;
  SDW_ASSIGN_OR_RETURN(TableSchema schema, cluster_->catalog()->GetTable(table));

  // Parse every file in parallel on the slice pool ("COPY is
  // parallelized across slices, with each slice reading data in
  // parallel", §2.1); each task owns one slot. Distribution stays in
  // file order below so the load is byte-identical to a serial run.
  std::unique_ptr<common::ThreadPool> own_pool;
  common::ThreadPool* pool = cluster_->pool();
  if (options.pool_size >= 0) {
    own_pool = std::make_unique<common::ThreadPool>(options.pool_size);
    pool = own_pool.get();
  }
  std::vector<std::optional<Result<std::vector<ColumnVector>>>> parsed(
      payloads.size());
  SDW_RETURN_IF_ERROR(pool->ParallelFor(
      static_cast<int>(payloads.size()), [&](int i) -> Status {
        parsed[i].emplace(options.format == CopyFormat::kCsv
                              ? ParseCsv(payloads[i], schema)
                              : ParseJsonLines(payloads[i], schema));
        return Status::OK();
      }));

  // A malformed file fails the whole COPY before any row is inserted.
  for (const auto& file : parsed) SDW_RETURN_IF_ERROR(file->status());

  cluster::StagedWrite own(cluster_);
  cluster::StagedWrite* staging =
      options.staging != nullptr ? options.staging : &own;
  bool analyzer_ran = false;
  for (size_t f = 0; f < payloads.size(); ++f) {
    ++stats.files;
    stats.input_bytes += payloads[f].size();
    const std::vector<ColumnVector>& columns = **parsed[f];
    if (columns.empty() || columns[0].size() == 0) continue;
    if (options.compupdate && !analyzer_ran) {
      SDW_RETURN_IF_ERROR(MaybeRunAnalyzer(table, columns, &stats));
      analyzer_ran = true;
    }
    SDW_RETURN_IF_ERROR(cluster_->InsertRows(table, columns, staging));
    stats.rows_loaded += columns[0].size();
    if (options.progress != nullptr) {
      options.progress->AddRowsScanned(columns[0].size());
    }
  }
  if (staging == &own) {
    SDW_RETURN_IF_ERROR(cluster_->CommitStaged(&own));
    if (stats.rows_loaded > 0) SDW_RETURN_IF_ERROR(cluster_->Analyze(table));
  }
  static obs::Counter* rows_loaded =
      obs::Registry::Global().counter("sdw_copy_rows_loaded");
  static obs::Counter* files_loaded =
      obs::Registry::Global().counter("sdw_copy_files");
  rows_loaded->Add(stats.rows_loaded);
  files_loaded->Add(stats.files);
  // Slice-parallel ingest: every slice chews its share of the input.
  stats.modeled_seconds =
      static_cast<double>(stats.input_bytes) /
      (cost_model_.slice_ingest_bytes_per_sec * cluster_->total_slices());
  return stats;
}

Result<CopyStats> CopyExecutor::CopyFromUri(const std::string& table,
                                            const std::string& uri,
                                            const CopyOptions& options) {
  SDW_ASSIGN_OR_RETURN(auto bucket_prefix, ParseS3Uri(uri));
  backup::S3Region* region = s3_->region(default_region_);
  const std::string full_prefix = bucket_prefix.first + "/" +
                                  bucket_prefix.second;
  // Transient S3 unavailability degrades to latency, not error: each
  // fetch gets a bounded retry budget with backoff (§2.1 — loads run
  // for hours; one throttled GET must not fail the COPY).
  common::Retry retry(options.retry);
  std::vector<std::string> payloads;
  const std::vector<std::string> keys = region->ListPrefix(full_prefix);
  for (const std::string& key : keys) {
    SDW_ASSIGN_OR_RETURN(
        Bytes data, retry.Call<Bytes>([&] { return region->GetObject(key); }));
    payloads.emplace_back(reinterpret_cast<const char*>(data.data()),
                          data.size());
  }
  if (payloads.empty()) {
    return Status::NotFound("no objects under '" + uri + "'");
  }
  SDW_ASSIGN_OR_RETURN(CopyStats stats,
                       CopyFromPayloads(table, payloads, options));
  stats.s3_retry_attempts =
      retry.attempts() - static_cast<int>(keys.size());
  stats.retry_backoff_seconds = retry.backoff_seconds();
  stats.modeled_seconds += retry.backoff_seconds();
  return stats;
}

}  // namespace sdw::load
