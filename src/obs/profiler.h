#ifndef SDW_OBS_PROFILER_H_
#define SDW_OBS_PROFILER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_annotations.h"

namespace sdw::obs {

// ---------------------------------------------------------------------------
// stl_scan: per-scan-operator telemetry.
// ---------------------------------------------------------------------------

/// One scan operator's telemetry as recorded in stl_scan. Every field is
/// derived from immutable version metadata (block boundaries, zone maps)
/// and deterministic row counts, never from decode-cache state or wall
/// time, so serial and pooled runs log byte-identical rows.
struct ScanRecord {
  int scan_id = 0;
  int query_id = 0;
  std::string table;
  /// Where in the plan the scan ran: "probe" or "build".
  std::string site;
  /// Canonical text of the pushed-down range predicates plus any
  /// residual filter, e.g. "k >= 3 and k <= 9, filter(v > 100)".
  /// Empty for a full unfiltered scan.
  std::string predicates;
  uint64_t rows_scanned = 0;   // rows decoded (before the filter)
  uint64_t rows_out = 0;       // rows surviving the filter
  uint64_t blocks_read = 0;    // blocks overlapping a candidate range
  uint64_t blocks_skipped = 0; // blocks pruned by zone maps
  uint64_t bytes_decoded = 0;  // encoded bytes of the blocks read

  size_t history_bytes() const {
    return sizeof(*this) + table.size() + site.size() + predicates.size();
  }
  void set_history_id(uint64_t id) { scan_id = static_cast<int>(id); }
};

// ---------------------------------------------------------------------------
// stv_inflight: live in-flight query state.
// ---------------------------------------------------------------------------

enum class QueryPhase : int { kQueued = 0, kPlan = 1, kExec = 2, kFinalize = 3 };

const char* QueryPhaseName(QueryPhase phase);

/// Lock-free progress counters for one in-flight statement. Pipeline
/// operators bump these from pool workers with relaxed atomics; a
/// concurrent stv_inflight reader snapshots them without taking any
/// lock the execution path holds.
class QueryProgress {
 public:
  void set_phase(QueryPhase phase);
  QueryPhase phase() const {
    return static_cast<QueryPhase>(phase_.load(std::memory_order_relaxed));
  }

  void set_queued_seconds(double s) {
    queued_seconds_.store(s, std::memory_order_relaxed);
  }
  double queued_seconds() const {
    return queued_seconds_.load(std::memory_order_relaxed);
  }

  void AddRowsScanned(uint64_t n) {
    rows_scanned_.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t rows_scanned() const {
    return rows_scanned_.load(std::memory_order_relaxed);
  }

  void set_slices_total(int n) {
    slices_total_.store(n, std::memory_order_relaxed);
  }
  void SliceDone() { slices_done_.fetch_add(1, std::memory_order_relaxed); }
  int slices_done() const {
    return slices_done_.load(std::memory_order_relaxed);
  }
  int slices_total() const {
    return slices_total_.load(std::memory_order_relaxed);
  }

  /// Real seconds since the statement left the admission queue; 0 while
  /// still queued. Measured, not virtual — stv_inflight is a live
  /// operational view, not part of the deterministic history.
  double exec_seconds() const;

 private:
  std::atomic<int> phase_{static_cast<int>(QueryPhase::kQueued)};
  std::atomic<uint64_t> rows_scanned_{0};
  std::atomic<int> slices_done_{0};
  std::atomic<int> slices_total_{0};
  std::atomic<double> queued_seconds_{0.0};
  std::atomic<int64_t> exec_start_ns_{-1};
};

/// One stv_inflight row.
struct InflightEntry {
  int inflight_id = 0;
  int session_id = 0;
  std::string statement;
  std::string phase;
  uint64_t rows_scanned = 0;
  int slices_done = 0;
  int slices_total = 0;
  double queued_seconds = 0;
  double exec_seconds = 0;
};

/// Registry of statements currently inside the front door. A statement
/// registers on entry and holds the returned RAII Ticket for its whole
/// lifetime; the destructor removes the entry, so stv_inflight only ever
/// shows genuinely live work.
class InflightRegistry {
 public:
  class Ticket {
   public:
    Ticket() = default;
    Ticket(Ticket&& other) noexcept { *this = std::move(other); }
    Ticket& operator=(Ticket&& other) noexcept;
    Ticket(const Ticket&) = delete;
    Ticket& operator=(const Ticket&) = delete;
    ~Ticket() { Release(); }

    /// Valid until the ticket is destroyed; null for a default ticket.
    QueryProgress* progress() const { return progress_; }
    explicit operator bool() const { return owner_ != nullptr; }

   private:
    friend class InflightRegistry;
    void Release();
    InflightRegistry* owner_ = nullptr;
    int id_ = 0;
    QueryProgress* progress_ = nullptr;
  };

  Ticket Register(int session_id, const std::string& statement)
      SDW_EXCLUDES(mu_);
  std::vector<InflightEntry> Snapshot() const SDW_EXCLUDES(mu_);

 private:
  struct Slot {
    int id = 0;
    int session_id = 0;
    std::string statement;
    std::unique_ptr<QueryProgress> progress;  // stable address for Ticket
  };

  void Unregister(int id) SDW_EXCLUDES(mu_);

  mutable common::Mutex mu_{common::LockRank::kInflightRegistry};
  int next_id_ SDW_GUARDED_BY(mu_) = 1;
  std::vector<Slot> slots_ SDW_GUARDED_BY(mu_);
};

// ---------------------------------------------------------------------------
// stv_gauge_history: periodic gauge samples from the health sweep.
// ---------------------------------------------------------------------------

/// One gauge sample, taken by RunHealthSweep on the virtual clock.
/// The wlm_* fields aggregate over every queue; `queues` breaks the
/// same occupancy down per WLM queue (declaration order, "sqa" last)
/// so stv_gauge_history can chart the fleet per class.
struct GaugeSample {
  int seq = 0;
  uint64_t tick = 0;
  int wlm_queued = 0;
  int wlm_running = 0;
  int wlm_max_in_flight = 0;
  /// Hits over lookups of this warehouse's own caches since it started.
  double result_cache_hit_rate = 0;
  double segment_cache_hit_rate = 0;
  uint64_t gc_backlog = 0;       // MVCC versions awaiting collection
  uint64_t degraded_blocks = 0;  // replicated blocks down to one copy
  struct QueueGauge {
    std::string name;
    int slots = 0;
    int queued = 0;
    int running = 0;
    int max_in_flight = 0;
  };
  std::vector<QueueGauge> queues;

  size_t history_bytes() const {
    size_t bytes = sizeof(*this);
    for (const QueueGauge& q : queues) bytes += sizeof(q) + q.name.size();
    return bytes;
  }
  void set_history_id(uint64_t id) { seq = static_cast<int>(id); }
};

}  // namespace sdw::obs

#endif  // SDW_OBS_PROFILER_H_
