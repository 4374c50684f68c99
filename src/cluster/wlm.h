#ifndef SDW_CLUSTER_WLM_H_
#define SDW_CLUSTER_WLM_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/thread_annotations.h"
#include "obs/history.h"
#include "sim/engine.h"
#include "sim/stopwatch.h"

namespace sdw::cluster {

/// One named WLM queue: a slice of the warehouse's concurrency slots
/// plus the classifier rules that route statements into it. Queues are
/// matched in declaration order (DESIGN.md §4k).
struct WlmQueueConfig {
  std::string name = "default";
  /// Share of WlmConfig::concurrency_slots owned by this queue.
  int slots = 1;
  /// Classifier rules: a statement lands here when its session's user
  /// group, or its query class ("select", "copy", "insert", "vacuum",
  /// "ddl"), matches. Query-class rules beat user-group rules.
  std::vector<std::string> user_groups;
  std::vector<std::string> query_classes;
  /// When a waiter's queue timeout elapses here, re-enqueue it at the
  /// tail of the named queue instead of cancelling. Empty cancels with
  /// DeadlineExceeded (the pre-multi-queue behavior).
  std::string hop_on_timeout;
  /// Per-queue wait bound; <= 0 inherits WlmConfig::queue_timeout_seconds.
  double queue_timeout_seconds = 0;
};

/// Workload-management knobs. The slot count is the one genuinely
/// "dusty" engine knob the paper's philosophy leaves in place: a
/// default that works (5 concurrent queries), adjustable by the rare
/// customer who needs it (§4: resources must be "distributed across
/// many concurrent queries").
struct WlmConfig {
  /// Queries executing concurrently across all named queues; the rest
  /// queue FIFO per queue.
  int concurrency_slots = 5;
  /// Memory divides evenly across slots, so more slots slow each query
  /// down: effective service time = base * (1 + penalty * (slots - 1)).
  /// This models the spill/partition cost of smaller per-slot memory.
  double per_slot_memory_penalty = 0.04;
  /// Real seconds a statement may wait in one queue before it hops (if
  /// the queue names a hop target) or is cancelled with
  /// DeadlineExceeded; <= 0 waits forever.
  double queue_timeout_seconds = 60.0;
  /// Named queues sharing concurrency_slots. Empty keeps the classic
  /// single "default" queue owning every slot. SanitizeWlmConfig
  /// guarantees a catch-all "default" queue exists and that the
  /// per-queue shares sum to <= concurrency_slots.
  std::vector<WlmQueueConfig> queues;
  /// Short-query acceleration: statements whose cost-model estimate is
  /// at most sqa_max_estimated_seconds are admitted through a dedicated
  /// fast lane ("sqa", sqa_slots wide, in addition to
  /// concurrency_slots) so dashboard queries never wait behind ETL.
  bool enable_sqa = false;
  int sqa_slots = 1;
  double sqa_max_estimated_seconds = 0.25;
  /// A short-lane statement still executing after this many real
  /// seconds was misestimated: its slot accounting demotes to its
  /// classified home queue (oversubscribing it rather than blocking)
  /// so the fast lane frees for genuinely short queries.
  double sqa_demote_exec_seconds = 1.0;
};

/// Returns `config` with out-of-range knobs clamped to workable values
/// (a misconfigured warehouse degrades to a 1-slot queue instead of
/// crashing the endpoint). Queue invariants enforced: every share
/// clamps to >= 1; a catch-all "default" queue is appended when the
/// list is non-empty but names none; shares summing past
/// concurrency_slots grow the total (never silently starve a named
/// queue); self- or dangling hop targets are cleared.
WlmConfig SanitizeWlmConfig(WlmConfig config);

/// Everything the classifier and the short-query fast lane need to
/// route one statement. The zero value (unknown group/class, negative
/// estimate) routes to the default queue with no SQA eligibility —
/// exactly the classic single-queue behavior.
struct AdmitRequest {
  int session_id = 0;
  std::string user_group;
  /// "select", "copy", "insert", "vacuum", "ddl" — derived from the
  /// statement kind by the warehouse front door.
  std::string query_class;
  /// Cost-model estimate of execution seconds; < 0 means unknown and
  /// is never SQA-eligible.
  double estimated_seconds = -1;
  std::string statement;
};

/// Live admission control: the thread-safe front door of a warehouse.
/// Statements are classified into named queues (query-class rules
/// first, then user-group rules, then the "default" queue); each queue
/// admits strictly FIFO within its slot share. A queued caller whose
/// per-queue timeout elapses hops to the queue's hop target (tail of
/// the target's FIFO, accrued wait preserved) or, with no target, is
/// cancelled with DeadlineExceeded. Short-query acceleration routes
/// cheap statements through a dedicated fast lane and demotes
/// misestimated overstayers back to their home queue. Completed
/// statements are recorded in a bounded history surfaced through the
/// stl_wlm system table.
class AdmissionController {
 public:
  explicit AdmissionController(WlmConfig config);

  /// RAII occupancy of one slot: releasing is destruction. Move-only.
  class Slot {
   public:
    Slot() = default;
    Slot(Slot&& other) noexcept { *this = std::move(other); }
    Slot& operator=(Slot&& other) noexcept {
      if (this != &other) {
        ReleaseNow();
        controller_ = other.controller_;
        ticket_ = other.ticket_;
        queued_seconds_ = other.queued_seconds_;
        queue_ = std::move(other.queue_);
        hops_ = other.hops_;
        other.controller_ = nullptr;
      }
      return *this;
    }
    ~Slot() { ReleaseNow(); }

    /// Real seconds this statement waited before admission, summed
    /// across every queue it visited.
    double queued_seconds() const { return queued_seconds_; }
    /// Queue that finally admitted it ("sqa" for the fast lane).
    const std::string& queue() const { return queue_; }
    /// Timeout hops endured before admission.
    int hops() const { return hops_; }

   private:
    friend class AdmissionController;
    void ReleaseNow() {
      if (controller_ != nullptr) controller_->Release(ticket_);
      controller_ = nullptr;
    }
    AdmissionController* controller_ = nullptr;
    uint64_t ticket_ = 0;
    double queued_seconds_ = 0;
    std::string queue_;
    int hops_ = 0;
  };

  /// Classic front door: default request (default queue, no SQA).
  Result<Slot> Admit() SDW_EXCLUDES(mu_);

  /// One row of stl_wlm. `state` is "run" (executed), "error"
  /// (admitted but failed), "timeout" (cancelled in the queue) or
  /// "result_cache" (served from the result cache, no slot occupied).
  struct Report {
    uint64_t seq = 0;  // assigned by Record: 1, 2, ... in record order
    int session_id = 0;
    std::string state;
    /// Queue the statement was finally admitted from ("sqa" for the
    /// fast lane, "none" when no slot was occupied).
    std::string queue;
    std::string statement;
    double queued_seconds = 0;
    double exec_seconds = 0;
    /// Timeout hops endured while queued.
    int hops = 0;

    size_t history_bytes() const {
      return sizeof(*this) + state.size() + queue.size() + statement.size();
    }
    void set_history_id(uint64_t id) { seq = id; }
  };

  /// Blocks until this caller reaches the head of its classified
  /// queue's FIFO with a slot free, hopping queues on timeout where
  /// configured. On cancellation, `timeout_report` (when non-null) is
  /// filled with the accrued wait across every queue visited — hopping
  /// must never launder queued_seconds out of stl_wlm.
  Result<Slot> Admit(const AdmitRequest& request,
                     Report* timeout_report = nullptr) SDW_EXCLUDES(mu_);

  /// Appends a completed-statement report to the history (assigns
  /// `seq`; the oldest rows drop past obs::kHistoryBytes). Takes no
  /// admission lock.
  void Record(Report report) { reports_.Append(std::move(report)); }

  /// The kept reports, oldest first: stl_wlm.
  const obs::History<Report>& report_history() const { return reports_; }
  /// A copy of the kept reports, oldest first.
  std::vector<Report> reports() const;

  /// Statements currently holding a slot / waiting, over all queues.
  int running() const SDW_EXCLUDES(mu_);
  size_t queued() const SDW_EXCLUDES(mu_);
  /// High-water mark of concurrently running statements — the bench's
  /// proof that the slot limit binds.
  int max_in_flight() const SDW_EXCLUDES(mu_);
  /// Statements admitted / cancelled in the queue since construction.
  uint64_t admitted() const SDW_EXCLUDES(mu_);
  uint64_t timeouts() const SDW_EXCLUDES(mu_);
  /// Timeout hops taken / fast-lane overstayers demoted since
  /// construction.
  uint64_t hops() const SDW_EXCLUDES(mu_);
  uint64_t sqa_demotions() const SDW_EXCLUDES(mu_);

  /// Point-in-time occupancy of one queue, for stv_gauge_history.
  struct QueueStats {
    std::string name;
    int slots = 0;
    int running = 0;
    size_t queued = 0;
    int max_in_flight = 0;
    uint64_t admitted = 0;
    uint64_t timeouts = 0;
    uint64_t hops_out = 0;
  };
  /// One entry per configured queue in declaration order, the "sqa"
  /// fast lane last when enabled.
  std::vector<QueueStats> queue_stats() const SDW_EXCLUDES(mu_);

  const WlmConfig& config() const { return config_; }

 private:
  struct QueueState {
    WlmQueueConfig config;
    std::deque<uint64_t> fifo;
    int running = 0;
    int max_in_flight = 0;
    uint64_t admitted = 0;
    uint64_t timeouts = 0;
    uint64_t hops_out = 0;
  };
  /// Slot accounting for an admitted statement; `queue` changes when a
  /// fast-lane overstayer demotes to `home`.
  struct RunningEntry {
    int queue = 0;
    int home = 0;
    sim::Stopwatch exec_timer;
  };

  void Release(uint64_t ticket) SDW_EXCLUDES(mu_);
  int ClassifyLocked(const AdmitRequest& request) const SDW_REQUIRES(mu_);
  int HopTargetLocked(int queue_index, int home) const SDW_REQUIRES(mu_);
  double QueueTimeoutLocked(int queue_index) const SDW_REQUIRES(mu_);
  void DemoteOverstayersLocked() SDW_REQUIRES(mu_);

  const WlmConfig config_;
  mutable common::Mutex mu_{common::LockRank::kWlmAdmission};
  common::CondVar slot_free_;
  /// Index of the "sqa" fast lane in queues_, -1 when SQA is off. Set
  /// once in the constructor, immutable after.
  int sqa_index_ = -1;
  uint64_t next_ticket_ SDW_GUARDED_BY(mu_) = 0;
  std::vector<QueueState> queues_ SDW_GUARDED_BY(mu_);
  std::unordered_map<uint64_t, RunningEntry> running_entries_
      SDW_GUARDED_BY(mu_);
  int running_ SDW_GUARDED_BY(mu_) = 0;
  int max_in_flight_ SDW_GUARDED_BY(mu_) = 0;
  uint64_t admitted_ SDW_GUARDED_BY(mu_) = 0;
  uint64_t timeouts_ SDW_GUARDED_BY(mu_) = 0;
  uint64_t hops_ SDW_GUARDED_BY(mu_) = 0;
  uint64_t sqa_demotions_ SDW_GUARDED_BY(mu_) = 0;
  obs::History<Report> reports_;
};

/// Admission control for concurrent queries, simulated on the
/// discrete-event engine. Used by tests and the WLM ablation bench to
/// show the throughput/latency tradeoff behind the default.
class WorkloadManager {
 public:
  WorkloadManager(sim::Engine* engine, WlmConfig config);

  struct QueryReport {
    double submitted_at = 0;
    double queued_seconds = 0;
    double exec_seconds = 0;
    double finished_at = 0;

    size_t history_bytes() const { return sizeof(*this); }
  };

  /// Submits a query whose un-contended execution takes `service_seconds`.
  /// `done` fires (on the sim clock) when it completes.
  void Submit(double service_seconds,
              std::function<void(const QueryReport&)> done = nullptr);

  /// Queries currently executing / waiting.
  int running() const { return running_; }
  size_t queued() const { return queue_.size(); }

  /// The most recent completed-query reports (the newest
  /// obs::kHistoryBytes of them), in completion order.
  obs::History<QueryReport>::Rows reports() const {
    return reports_.Snapshot();
  }

 private:
  void Admit();

  struct Pending {
    double service_seconds = 0;
    double submitted_at = 0;
    std::function<void(const QueryReport&)> done;
  };

  sim::Engine* engine_;
  WlmConfig config_;
  int running_ = 0;
  std::vector<Pending> queue_;
  obs::History<QueryReport> reports_;
};

}  // namespace sdw::cluster

#endif  // SDW_CLUSTER_WLM_H_
