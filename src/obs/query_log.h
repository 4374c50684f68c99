#ifndef SDW_OBS_QUERY_LOG_H_
#define SDW_OBS_QUERY_LOG_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "obs/history.h"
#include "obs/trace.h"

namespace sdw::obs {

/// One finished query as recorded in stl_query. Ticks come from the
/// owning warehouse's virtual clock (starts at 0 per warehouse), so two
/// warehouses running the same workload log identical histories.
struct QueryRecord {
  int query_id = 0;
  std::string sql_text;
  std::string status;  // "success" | "error"
  uint64_t start_tick = 0;
  uint64_t end_tick = 0;
  uint64_t result_rows = 0;
  /// Measured admission wait vs execution time (the stl_query timing
  /// split). Real seconds, not virtual ticks — they never feed the
  /// deterministic byte-identity comparisons.
  double queue_seconds = 0;
  double exec_seconds = 0;
  /// The MVCC snapshot the query read: "table@version ..." for every
  /// pinned table, empty for non-SELECT statements and cache hits that
  /// never pinned one.
  std::string snapshot;
  SpanCounters counters;
  /// The query's stl_span rows; null for a cache hit or a failed query.
  /// They leave the history with the record.
  std::shared_ptr<Trace> trace;

  uint64_t elapsed() const { return end_tick - start_tick; }
  /// The record's charge, its span tree included. Query ids are
  /// reserved when the query starts, so the history assigns none.
  size_t history_bytes() const;
};

/// Per-warehouse history of executed queries plus the warehouse's
/// virtual clock. Thread-safe: a warehouse may serve concurrent
/// Execute() calls.
class QueryLog {
 public:
  /// Reserves a query id and the query's start tick.
  struct Started {
    int query_id;
    uint64_t start_tick;
  };
  Started StartQuery();

  /// Records a finished query: assigns virtual times to its trace
  /// (if any), advances the warehouse clock past the query's end, and
  /// appends the record. Returns the query's end tick (callers stamp
  /// follow-on records like alerts with it).
  uint64_t FinishQuery(QueryRecord record);

  const History<QueryRecord>& history() const { return history_; }
  uint64_t now() const { return clock_.load(); }

 private:
  std::atomic<int> next_query_id_{1};
  std::atomic<uint64_t> clock_{0};
  History<QueryRecord> history_;
};

/// One health/control-plane event as recorded in stl_health_events,
/// appended by the warehouse's health sweep, recovery and the control
/// plane. The history numbers it: `event_id` from 1, `tick` from 0.
struct HealthEvent {
  int event_id = 0;
  uint64_t tick = 0;
  std::string source;  // "host_manager" | "control_plane" | "sweep"
  std::string kind;    // "restart" | "replace" | "rereplicate" | ...
  int node = -1;
  double value = 0;
  std::string detail;

  size_t history_bytes() const {
    return sizeof(*this) + source.size() + kind.size() + detail.size();
  }
  void set_history_id(uint64_t id) {
    event_id = static_cast<int>(id);
    tick = id - 1;
  }
};

}  // namespace sdw::obs

#endif  // SDW_OBS_QUERY_LOG_H_
