#include "obs/alerts.h"

#include <cstdarg>
#include <cstdio>

namespace sdw::obs {

namespace {

std::string Fmt(const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  return buf;
}

}  // namespace

std::vector<AlertEvent> EvaluateQueryAlerts(const QueryAlertInputs& in) {
  std::vector<AlertEvent> out;
  uint64_t total_blocks_read = 0;
  for (const ScanRecord& scan : in.scans) {
    total_blocks_read += scan.blocks_read;
    // A filter selective enough to matter (kept <=1/20 of >=100 decoded
    // rows) that zone maps did nothing for (skipped 0 of >=4 blocks):
    // the table's sort order does not serve this predicate.
    if (!scan.predicates.empty() && scan.rows_scanned >= 100 &&
        scan.rows_out * 20 <= scan.rows_scanned && scan.blocks_skipped == 0 &&
        scan.blocks_read >= 4) {
      AlertEvent e;
      e.query_id = in.query_id;
      e.tick = in.tick;
      e.rule = "selective-filter-no-skip";
      e.table = scan.table;
      e.evidence = static_cast<double>(scan.blocks_read);
      e.detail = Fmt("scan kept %llu of %llu rows but zone maps skipped 0 of "
                     "%llu blocks (%s)",
                     static_cast<unsigned long long>(scan.rows_out),
                     static_cast<unsigned long long>(scan.rows_scanned),
                     static_cast<unsigned long long>(scan.blocks_read),
                     scan.predicates.c_str());
      e.action = "add a sort key on the filtered column so zone maps can "
                 "skip blocks";
      out.push_back(std::move(e));
    }
  }
  if (in.masked_reads > 0 && in.masked_reads * 2 >= total_blocks_read) {
    AlertEvent e;
    e.query_id = in.query_id;
    e.tick = in.tick;
    e.rule = "masked-read-dominated";
    e.evidence = static_cast<double>(in.masked_reads);
    e.detail = Fmt("%llu of %llu block reads were served from replica "
                   "fallbacks",
                   static_cast<unsigned long long>(in.masked_reads),
                   static_cast<unsigned long long>(total_blocks_read));
    e.action = "run a health sweep to restart failed nodes and re-replicate "
               "degraded blocks";
    out.push_back(std::move(e));
  }
  if (in.queue_seconds > in.exec_seconds && in.queue_seconds > 0.05) {
    AlertEvent e;
    e.query_id = in.query_id;
    e.tick = in.tick;
    e.rule = "queue-wait-exceeds-exec";
    e.evidence = in.queue_seconds;
    e.detail = Fmt("queued %.3fs vs %.3fs executing", in.queue_seconds,
                   in.exec_seconds);
    e.action = "add WLM concurrency slots or route the queue to a burst "
               "cluster";
    out.push_back(std::move(e));
  }
  if (in.repeat_cache_miss) {
    AlertEvent e;
    e.query_id = in.query_id;
    e.tick = in.tick;
    e.rule = "result-cache-repeat-miss";
    e.evidence = 1;
    e.detail = "repeated statement found its result-cache entry stale";
    e.action = "check for write-driven invalidation churn on the tables this "
               "statement reads";
    out.push_back(std::move(e));
  }
  return out;
}

std::vector<AlertEvent> EvaluateSweepAlerts(const SweepAlertInputs& in) {
  std::vector<AlertEvent> out;
  const GaugeSample& s = in.sample;
  if (in.wlm_slots > 0 && s.wlm_queued >= in.wlm_slots) {
    AlertEvent e;
    e.tick = in.tick;
    e.rule = "wlm-queue-backlog";
    e.evidence = static_cast<double>(s.wlm_queued);
    e.detail = Fmt("%d statements queued against %d slots (%d running)",
                   s.wlm_queued, in.wlm_slots, s.wlm_running);
    e.action = "add WLM concurrency slots or route the queue to a burst "
               "cluster";
    out.push_back(std::move(e));
  }
  if (s.degraded_blocks > 0) {
    AlertEvent e;
    e.tick = in.tick;
    e.rule = "replication-degraded";
    e.evidence = static_cast<double>(s.degraded_blocks);
    e.detail = Fmt("%llu replicated blocks are down to a single copy",
                   static_cast<unsigned long long>(s.degraded_blocks));
    e.action = "re-replication is in progress; investigate the failed nodes";
    out.push_back(std::move(e));
  }
  if (in.gc_threshold > 0 && s.gc_backlog >= in.gc_threshold) {
    AlertEvent e;
    e.tick = in.tick;
    e.rule = "gc-backlog";
    e.evidence = static_cast<double>(s.gc_backlog);
    e.detail = Fmt("%llu MVCC versions pending collection (threshold %llu)",
                   static_cast<unsigned long long>(s.gc_backlog),
                   static_cast<unsigned long long>(in.gc_threshold));
    e.action = "sweep-triggered VACUUM will collect once readers unpin";
    out.push_back(std::move(e));
  }
  return out;
}

}  // namespace sdw::obs
