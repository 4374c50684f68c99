#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

// Seeded inputs of the warehouse benchmark and the glue between them
// and the engine: generated rows become CSV fixtures and SQL text, and
// the engine's result batches become the text the oracle renders.

#include <cstdint>
#include <string>
#include <vector>

#include "exec/batch.h"
#include "oracle.h"
#include "warehouse/warehouse.h"

namespace whbench {

inline constexpr char kRegion[] = "us-east-1";

/// Fact-shaped rows: grp, v, dim_id uniform over their domains, region
/// uniform over kRegions names.
FactRows GenerateFact(uint64_t seed, size_t rows);
DimRows GenerateDim(uint64_t seed);

/// CSV fixtures. A fact table splits into `files` parts of contiguous
/// ids, so each COPY file is one sorted run of the `id` sort key.
std::vector<std::string> FactCsv(const FactRows& table, int files);
std::string DimCsv(const DimRows& dim);

std::string FactDdl(const std::string& table);
std::string DimDdl();

/// COPY of every object under an s3:// prefix. COPY matches object keys
/// as raw string prefixes ('s3://x/b1' also loads b10 and b11), so a
/// prefix that does not end in '/' is refused.
sdw::Result<std::string> CopySql(const std::string& table,
                                 const std::string& uri_prefix);

/// Stages `files` as objects under `uri_prefix` (which must end in
/// '/') in the warehouse's object store.
sdw::Status StageFiles(sdw::warehouse::Warehouse* warehouse,
                       const std::string& uri_prefix,
                       const std::vector<std::string>& files);

/// Seeded literals for one statement of `shape` over a fact-shaped
/// table of `rows` rows. `plain_count` makes kCount an unfiltered
/// COUNT(*) (the ad-hoc scan baseline).
Query RandomQuery(Shape shape, size_t rows, Rng* rng, bool plain_count);

/// Renders a result batch the way OracleAnswer does.
std::string RenderBatch(const sdw::exec::Batch& batch);

/// The cluster every workload runs on: 2 nodes x 2 slices, 16K-row
/// blocks. Result and segment caches as given.
sdw::warehouse::WarehouseOptions BenchOptions(bool result_cache,
                                              bool segment_cache);

}  // namespace whbench

#endif  // PERFBENCH_WORKLOAD_H_
