#ifndef SDW_OBS_ALERTS_H_
#define SDW_OBS_ALERTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "obs/profiler.h"

namespace sdw::obs {

/// One stl_alert_event_log row: a performance-advisor finding, in the
/// spirit of Redshift's alert event log. `evidence` is the number the
/// rule tripped on (blocks read, masked reads, queue seconds, ...) and
/// `action` is the suggested remediation.
struct AlertEvent {
  int alert_id = 0;
  /// Query that fired the alert, or -1 for sweep-time threshold rules.
  int query_id = -1;
  uint64_t tick = 0;
  std::string rule;
  std::string table;  // empty when the rule is not table-specific
  double evidence = 0;
  std::string detail;
  std::string action;

  size_t history_bytes() const {
    return sizeof(*this) + rule.size() + table.size() + detail.size() +
           action.size();
  }
  void set_history_id(uint64_t id) { alert_id = static_cast<int>(id); }
};

/// Everything the per-query rules look at, gathered at query finish.
/// Only deterministic inputs (scan telemetry, virtual ticks) decide
/// whether the deterministic rules fire; the queue-wait rule is the one
/// exception and is driven by measured seconds, with a floor high
/// enough that uncontended runs never trip it.
struct QueryAlertInputs {
  int query_id = 0;
  uint64_t tick = 0;  // the query's end tick
  std::vector<ScanRecord> scans;
  uint64_t masked_reads = 0;
  double queue_seconds = 0;
  double exec_seconds = 0;
  /// True when the result-cache lookup found this statement's entry but
  /// dropped it as stale — a repeat that a write invalidated.
  bool repeat_cache_miss = false;
};

/// Evaluates the per-query rules. Rules, in evaluation order:
///  - selective-filter-no-skip: a predicated scan kept <=1/20 of the
///    rows it decoded yet zone maps skipped zero of >=4 blocks — the
///    sort key does not cover the filter column.
///  - masked-read-dominated: replica-masked reads were >=half of the
///    blocks the query read; it is running on degraded copies.
///  - queue-wait-exceeds-exec: admission wait exceeded execution time
///    (and was >50ms) — concurrency, not the query, is the bottleneck.
///  - result-cache-repeat-miss: a repeated statement found its result-
///    cache entry invalidated by a write.
std::vector<AlertEvent> EvaluateQueryAlerts(const QueryAlertInputs& in);

/// Sweep-time threshold rules over one gauge sample.
struct SweepAlertInputs {
  uint64_t tick = 0;
  GaugeSample sample;
  int wlm_slots = 0;        // concurrency slots configured
  uint64_t gc_threshold = 0;  // health_gc_threshold; 0 disables the rule
};

/// Evaluates the sweep rules: wlm-queue-backlog (queue depth reached the
/// slot count), replication-degraded (blocks down to one copy), and
/// gc-backlog (pending MVCC garbage at or past the sweep threshold).
std::vector<AlertEvent> EvaluateSweepAlerts(const SweepAlertInputs& in);

}  // namespace sdw::obs

#endif  // SDW_OBS_ALERTS_H_
