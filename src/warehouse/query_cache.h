#ifndef SDW_WAREHOUSE_QUERY_CACHE_H_
#define SDW_WAREHOUSE_QUERY_CACHE_H_

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_annotations.h"
#include "exec/batch.h"
#include "obs/registry.h"
#include "plan/physical.h"

namespace sdw::warehouse {

/// What a cached value was computed from: the warehouse's data-plane
/// generation (restore, resize and recovery each swap in a cluster whose
/// commit stamps start over) and, per table read, the highest MVCC commit
/// stamp among its shard heads (0: no such table). Every install draws a
/// fresh stamp, so an entry matches again only while no table it read
/// has installed anything since — a failed write installs nothing and
/// leaves it valid.
struct CacheKey {
  uint64_t generation = 0;
  std::vector<std::pair<std::string, uint64_t>> stamps;

  bool operator==(const CacheKey&) const = default;
};

struct CacheConfig {
  /// Reuse lowered plans for repeated query shapes, skipping planning
  /// and the per-query compile_seconds charge (§2.1's compilation cost
  /// amortized across the repeat-heavy dashboard workloads of
  /// PAPERS.md's Redbench).
  bool enable_segment_cache = true;
  size_t segment_cache_entries = 128;
  /// Serve byte-identical repeat queries straight from memory without
  /// occupying a WLM slot.
  bool enable_result_cache = true;
  size_t result_cache_entries = 128;
};

/// The standard counter set of one cache instance.
struct CacheMetrics {
  obs::Counter* hits = nullptr;
  obs::Counter* misses = nullptr;
  obs::Counter* insertions = nullptr;
  obs::Counter* evictions = nullptr;
  /// Stale entries dropped by a lookup (sdw_cache_invalidations, shared
  /// by every cache).
  obs::Counter* invalidations = nullptr;
};

/// Registers hits/misses/insertions/evictions counters under `prefix`,
/// which must follow the repo metric naming rule (sdw_<module>_<name>,
/// enforced by tools/lint.py on the literal at the call site), e.g.
/// MakeCacheMetrics("sdw_cache_result") -> sdw_cache_result_hits, ...,
/// plus the shared invalidations counter.
CacheMetrics MakeCacheMetrics(const std::string& prefix);

/// Deep copy of a batch (cached results must not alias caller rows).
exec::Batch CloneBatch(const exec::Batch& batch);

/// A bounded, internally synchronized LRU map from plan fingerprint to
/// a cached value. Lookups compare the full canonical text (a 64-bit
/// fingerprint is a bucket key, not an equality proof) and the key the
/// value was computed under; a key mismatch is a miss and the stale
/// entry is dropped on the spot.
template <typename V>
class LruQueryCache {
 public:
  LruQueryCache(size_t capacity, CacheMetrics metrics)
      : capacity_(capacity < 1 ? 1 : capacity), metrics_(metrics) {}

  /// The cache's registry counters, shared by every cache with the same
  /// prefix in the process.
  const CacheMetrics& metrics() const { return metrics_; }

  /// Hits over lookups of this cache alone since it was built (0 before
  /// the first lookup); stv_gauge_history reads it.
  double hit_rate() const SDW_EXCLUDES(mu_) {
    common::MutexLock lock(mu_);
    const uint64_t lookups = hits_ + misses_;
    return lookups > 0 ? static_cast<double>(hits_) / lookups : 0.0;
  }

  /// Sets `*dropped_stale` (if given) when the statement was cached
  /// under an older key — the miss is a write-driven invalidation.
  std::shared_ptr<const V> Lookup(uint64_t fingerprint,
                                  const std::string& canonical_text,
                                  const CacheKey& key,
                                  bool* dropped_stale = nullptr)
      SDW_EXCLUDES(mu_) {
    common::MutexLock lock(mu_);
    auto it = entries_.find(fingerprint);
    if (it == entries_.end() || it->second.canonical_text != canonical_text) {
      ++misses_;
      metrics_.misses->Add();
      return nullptr;
    }
    if (it->second.key != key) {
      // Invalidated since insertion: unservable forever (commit stamps
      // and generations are never reused), so reclaim the entry eagerly.
      lru_.erase(it->second.lru_pos);
      entries_.erase(it);
      ++misses_;
      metrics_.misses->Add();
      metrics_.invalidations->Add();
      if (dropped_stale != nullptr) *dropped_stale = true;
      return nullptr;
    }
    ++it->second.hits;
    lru_.splice(lru_.end(), lru_, it->second.lru_pos);
    ++hits_;
    metrics_.hits->Add();
    return it->second.value;
  }

  void Insert(uint64_t fingerprint, std::string canonical_text, CacheKey key,
              std::shared_ptr<const V> value) SDW_EXCLUDES(mu_) {
    common::MutexLock lock(mu_);
    auto it = entries_.find(fingerprint);
    if (it != entries_.end()) {
      // Same shape recomputed (or a hash collision): newest wins.
      lru_.splice(lru_.end(), lru_, it->second.lru_pos);
      it->second.canonical_text = std::move(canonical_text);
      it->second.key = std::move(key);
      it->second.value = std::move(value);
      it->second.hits = 0;
      metrics_.insertions->Add();
      return;
    }
    while (entries_.size() >= capacity_) {
      entries_.erase(lru_.front());
      lru_.pop_front();
      metrics_.evictions->Add();
    }
    Entry entry;
    entry.canonical_text = std::move(canonical_text);
    entry.key = std::move(key);
    entry.value = std::move(value);
    entry.lru_pos = lru_.insert(lru_.end(), fingerprint);
    entries_.emplace(fingerprint, std::move(entry));
    metrics_.insertions->Add();
  }

  /// One entry as surfaced through stv_cache.
  struct EntryView {
    uint64_t fingerprint = 0;
    std::string canonical_text;
    CacheKey key;
    uint64_t hits = 0;
    std::shared_ptr<const V> value;
  };

  /// All live entries ordered by fingerprint (deterministic for a
  /// deterministic workload, independent of insertion order).
  std::vector<EntryView> Entries() const SDW_EXCLUDES(mu_) {
    common::MutexLock lock(mu_);
    std::vector<EntryView> out;
    out.reserve(entries_.size());
    for (const auto& [fp, entry] : entries_) {
      out.push_back({fp, entry.canonical_text, entry.key, entry.hits,
                     entry.value});
    }
    return out;
  }

  size_t size() const SDW_EXCLUDES(mu_) {
    common::MutexLock lock(mu_);
    return entries_.size();
  }

 private:
  struct Entry {
    std::string canonical_text;
    CacheKey key;
    std::shared_ptr<const V> value;
    uint64_t hits = 0;
    std::list<uint64_t>::iterator lru_pos;
  };

  const size_t capacity_;
  CacheMetrics metrics_;
  mutable common::Mutex mu_{common::LockRank::kQueryCache};
  /// Least recently used at the front. std::map keeps Entries() ordered.
  std::list<uint64_t> lru_ SDW_GUARDED_BY(mu_);
  std::map<uint64_t, Entry> entries_ SDW_GUARDED_BY(mu_);
  uint64_t hits_ SDW_GUARDED_BY(mu_) = 0;
  uint64_t misses_ SDW_GUARDED_BY(mu_) = 0;
};

/// A finished SELECT held by the result cache.
struct CachedResult {
  exec::Batch rows;
  std::vector<std::string> column_names;
};

using SegmentCache = LruQueryCache<plan::PhysicalQuery>;
using ResultCache = LruQueryCache<CachedResult>;

}  // namespace sdw::warehouse

#endif  // SDW_WAREHOUSE_QUERY_CACHE_H_
