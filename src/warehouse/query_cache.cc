#include "warehouse/query_cache.h"

#include "common/logging.h"

namespace sdw::warehouse {

CacheMetrics MakeCacheMetrics(const std::string& prefix) {
  obs::Registry& registry = obs::Registry::Global();
  CacheMetrics metrics;
  metrics.hits = registry.counter(prefix + "_hits");
  metrics.misses = registry.counter(prefix + "_misses");
  metrics.insertions = registry.counter(prefix + "_insertions");
  metrics.evictions = registry.counter(prefix + "_evictions");
  metrics.invalidations = registry.counter("sdw_cache_invalidations");
  return metrics;
}

exec::Batch CloneBatch(const exec::Batch& batch) {
  exec::Batch out = exec::MakeBatch(batch.Types());
  for (size_t c = 0; c < batch.columns.size(); ++c) {
    SDW_CHECK_OK(out.columns[c].AppendRange(batch.columns[c], 0,
                                            batch.columns[c].size()));
  }
  return out;
}

}  // namespace sdw::warehouse
