#ifndef SDW_LOAD_COPY_H_
#define SDW_LOAD_COPY_H_

#include <map>
#include <string>
#include <vector>

#include "backup/s3sim.h"
#include "catalog/schema.h"
#include "cluster/cluster.h"
#include "cluster/cost_model.h"
#include "common/result.h"
#include "common/retry.h"
#include "obs/profiler.h"

namespace sdw::load {

/// COPY input format.
enum class CopyFormat { kCsv, kJson };

struct CopyOptions {
  CopyFormat format = CopyFormat::kCsv;
  /// Run the sampling compression analyzer on first load ("by default,
  /// compression scheme and optimizer statistics are updated with
  /// load", §2.1; the statistics always are, see `staging`).
  bool compupdate = true;
  /// Per-file parse parallelism: -1 uses the cluster's shared pool, 0
  /// parses serially, >0 uses a private pool of that size. Rows are
  /// distributed (and the analyzer sampled) in file order either way,
  /// so loads are byte-identical across settings.
  int pool_size = -1;
  /// Bounded retry for object fetches: transient S3 unavailability
  /// degrades to latency (folded into modeled_seconds) instead of a
  /// failed load; an outage longer than the budget still surfaces as
  /// kUnavailable.
  common::RetryPolicy retry;
  /// Every file's run stages into one StagedWrite, so the whole COPY
  /// installs at once (readers see all files or none). When set, the
  /// caller commits it and runs ANALYZE (the warehouse logs in between);
  /// null, the executor stages into its own, commits, then analyzes.
  cluster::StagedWrite* staging = nullptr;
  /// Live progress counters for stv_inflight: rows_scanned counts rows
  /// loaded so far (a COPY "scans" its input). Null when unwatched.
  obs::QueryProgress* progress = nullptr;
};

struct CopyStats {
  uint64_t rows_loaded = 0;
  uint64_t input_bytes = 0;
  int files = 0;
  /// Encodings the analyzer chose, by column name (empty if compupdate
  /// was off or the table already had data).
  std::map<std::string, ColumnEncoding> chosen_encodings;
  /// Modeled wall clock: files parse slice-parallel (§2.1: "COPY is
  /// parallelized across slices, with each slice reading data in
  /// parallel, distributing as needed, and sorting locally").
  double modeled_seconds = 0;
  /// Object-fetch attempts beyond the first (transient S3 faults that
  /// were retried away) and the virtual backoff they cost.
  int s3_retry_attempts = 0;
  double retry_backoff_seconds = 0;
};

/// Executes the Redshift-style COPY: reads objects from the simulated
/// object store (or inline payloads), parses, auto-assigns column
/// encodings on first load, distributes rows across slices and sorts
/// each slice's run, stages every run, and (unless the caller owns the
/// staging) commits them at once and refreshes statistics.
class CopyExecutor {
 public:
  CopyExecutor(cluster::Cluster* cluster, backup::S3* s3,
               std::string default_region = "us-east-1",
               cluster::CostModel cost_model = {})
      : cluster_(cluster),
        s3_(s3),
        default_region_(std::move(default_region)),
        cost_model_(cost_model) {}

  /// COPY table FROM 's3://bucket/prefix': every object under the
  /// prefix is one input file.
  Result<CopyStats> CopyFromUri(const std::string& table,
                                const std::string& uri,
                                const CopyOptions& options = {});

  /// COPY from in-memory payloads (the SSH/EMR-style source).
  Result<CopyStats> CopyFromPayloads(const std::string& table,
                                     const std::vector<std::string>& payloads,
                                     const CopyOptions& options = {});

 private:
  Status MaybeRunAnalyzer(const std::string& table,
                          const std::vector<ColumnVector>& sample,
                          CopyStats* stats);

  cluster::Cluster* cluster_;
  backup::S3* s3_;
  std::string default_region_;
  cluster::CostModel cost_model_;
};

}  // namespace sdw::load

#endif  // SDW_LOAD_COPY_H_
