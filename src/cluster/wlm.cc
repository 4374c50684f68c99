#include "cluster/wlm.h"

#include <algorithm>
#include <chrono>

#include "common/logging.h"
#include "obs/registry.h"
#include "sim/stopwatch.h"

namespace sdw::cluster {
namespace {

/// Wait-slice while the SQA fast lane is enabled: waiters wake at this
/// cadence to demote overstayers even when no slot is released.
constexpr double kDemotePollSeconds = 0.005;

bool Contains(const std::vector<std::string>& haystack,
              const std::string& needle) {
  return std::find(haystack.begin(), haystack.end(), needle) != haystack.end();
}

}  // namespace

WlmConfig SanitizeWlmConfig(WlmConfig config) {
  if (config.concurrency_slots < 1) {
    SDW_LOG(Warning) << "WLM concurrency_slots=" << config.concurrency_slots
                     << " is not serviceable; clamping to 1";
    config.concurrency_slots = 1;
  }
  int share_sum = 0;
  bool has_default = false;
  for (WlmQueueConfig& queue : config.queues) {
    if (queue.name.empty()) queue.name = "default";
    if (queue.slots < 1) {
      SDW_LOG(Warning) << "WLM queue '" << queue.name
                       << "' share=" << queue.slots
                       << " is not serviceable; clamping to 1";
      queue.slots = 1;
    }
    if (queue.queue_timeout_seconds < 0) queue.queue_timeout_seconds = 0;
    share_sum += queue.slots;
    has_default = has_default || queue.name == "default";
  }
  if (!config.queues.empty()) {
    if (!has_default) {
      // Every statement must classify somewhere: append the catch-all.
      WlmQueueConfig fallback;
      fallback.name = "default";
      fallback.slots = std::max(1, config.concurrency_slots - share_sum);
      share_sum += fallback.slots;
      config.queues.push_back(std::move(fallback));
    }
    if (share_sum > config.concurrency_slots) {
      SDW_LOG(Warning) << "WLM queue shares sum to " << share_sum
                       << " > concurrency_slots=" << config.concurrency_slots
                       << "; growing the total so no queue starves";
      config.concurrency_slots = share_sum;
    }
    for (WlmQueueConfig& queue : config.queues) {
      if (queue.hop_on_timeout.empty()) continue;
      const bool dangling =
          queue.hop_on_timeout == queue.name ||
          std::none_of(config.queues.begin(), config.queues.end(),
                       [&queue](const WlmQueueConfig& other) {
                         return other.name == queue.hop_on_timeout;
                       });
      if (dangling) {
        SDW_LOG(Warning) << "WLM queue '" << queue.name << "' hop target '"
                         << queue.hop_on_timeout
                         << "' is self or unknown; clearing (timeouts cancel)";
        queue.hop_on_timeout.clear();
      }
    }
  }
  if (config.enable_sqa) {
    if (config.sqa_slots < 1) {
      SDW_LOG(Warning) << "WLM sqa_slots=" << config.sqa_slots
                       << " is not serviceable; clamping to 1";
      config.sqa_slots = 1;
    }
    if (config.sqa_max_estimated_seconds <= 0) {
      config.sqa_max_estimated_seconds = 0.25;
    }
    if (config.sqa_demote_exec_seconds <= 0) {
      config.sqa_demote_exec_seconds = 1.0;
    }
  }
  return config;
}

AdmissionController::AdmissionController(WlmConfig config)
    : config_(SanitizeWlmConfig(std::move(config))) {
  if (config_.queues.empty()) {
    QueueState classic;
    classic.config.name = "default";
    classic.config.slots = config_.concurrency_slots;
    queues_.push_back(std::move(classic));
  } else {
    for (const WlmQueueConfig& queue : config_.queues) {
      QueueState state;
      state.config = queue;
      queues_.push_back(std::move(state));
    }
  }
  if (config_.enable_sqa) {
    QueueState fast_lane;
    fast_lane.config.name = "sqa";
    fast_lane.config.slots = config_.sqa_slots;
    sqa_index_ = static_cast<int>(queues_.size());
    queues_.push_back(std::move(fast_lane));
  }
}

Result<AdmissionController::Slot> AdmissionController::Admit() {
  return Admit(AdmitRequest{}, nullptr);
}

int AdmissionController::ClassifyLocked(const AdmitRequest& request) const {
  const int named = sqa_index_ >= 0 ? sqa_index_ : static_cast<int>(queues_.size());
  // Query-class rules are the more specific signal: they win over
  // user-group rules regardless of queue order (DESIGN.md §4k).
  if (!request.query_class.empty()) {
    for (int i = 0; i < named; ++i) {
      if (Contains(queues_[i].config.query_classes, request.query_class)) {
        return i;
      }
    }
  }
  if (!request.user_group.empty()) {
    for (int i = 0; i < named; ++i) {
      if (Contains(queues_[i].config.user_groups, request.user_group)) {
        return i;
      }
    }
  }
  for (int i = 0; i < named; ++i) {
    if (queues_[i].config.name == "default") return i;
  }
  return 0;  // unreachable after SanitizeWlmConfig, but stay total
}

int AdmissionController::HopTargetLocked(int queue_index, int home) const {
  // A fast-lane waiter that times out always falls back to its home
  // queue — SQA must never cancel a query its estimate attracted.
  if (queue_index == sqa_index_) return home;
  const std::string& target = queues_[queue_index].config.hop_on_timeout;
  if (target.empty()) return -1;
  const int named = sqa_index_ >= 0 ? sqa_index_ : static_cast<int>(queues_.size());
  for (int i = 0; i < named; ++i) {
    if (i != queue_index && queues_[i].config.name == target) return i;
  }
  return -1;
}

double AdmissionController::QueueTimeoutLocked(int queue_index) const {
  const double per_queue = queues_[queue_index].config.queue_timeout_seconds;
  return per_queue > 0 ? per_queue : config_.queue_timeout_seconds;
}

void AdmissionController::DemoteOverstayersLocked() {
  if (sqa_index_ < 0) return;
  static obs::Counter* demotions_metric =
      obs::Registry::Global().counter("sdw_wlm_sqa_demotions");
  for (auto& [ticket, entry] : running_entries_) {
    if (entry.queue != sqa_index_) continue;
    if (entry.exec_timer.Seconds() < config_.sqa_demote_exec_seconds) continue;
    // Misestimated short query: move its slot accounting to its home
    // queue — oversubscribing the home rather than blocking a runner —
    // so the fast lane frees for genuinely short statements.
    --queues_[sqa_index_].running;
    ++queues_[entry.home].running;
    entry.queue = entry.home;
    ++sqa_demotions_;
    demotions_metric->Add();
  }
}

Result<AdmissionController::Slot> AdmissionController::Admit(
    const AdmitRequest& request, Report* timeout_report) {
  static obs::Counter* admitted_metric =
      obs::Registry::Global().counter("sdw_wlm_admitted");
  static obs::Counter* timeouts_metric =
      obs::Registry::Global().counter("sdw_wlm_timeouts");
  static obs::Counter* hops_metric =
      obs::Registry::Global().counter("sdw_wlm_hops");
  sim::Stopwatch wait_timer;
  sim::Stopwatch queue_timer;  // residence in the current queue only
  common::MutexLock lock(mu_);
  const uint64_t ticket = next_ticket_++;
  const int home = ClassifyLocked(request);
  const bool sqa_eligible =
      sqa_index_ >= 0 && request.estimated_seconds >= 0 &&
      request.estimated_seconds <= config_.sqa_max_estimated_seconds;
  int queue_index = sqa_eligible ? sqa_index_ : home;
  int hops = 0;
  queues_[queue_index].fifo.push_back(ticket);
  auto at_head_with_free_slot = [this, &queue_index,
                                 ticket]() SDW_REQUIRES(mu_) {
    const QueueState& queue = queues_[queue_index];
    return queue.running < queue.config.slots && !queue.fifo.empty() &&
           queue.fifo.front() == ticket;
  };
  for (;;) {
    DemoteOverstayersLocked();
    if (at_head_with_free_slot()) break;
    const double timeout = QueueTimeoutLocked(queue_index);
    if (timeout > 0) {
      const double remaining = timeout - queue_timer.Seconds();
      if (remaining <= 0) {
        QueueState& queue = queues_[queue_index];
        queue.fifo.erase(
            std::find(queue.fifo.begin(), queue.fifo.end(), ticket));
        const int hop_to = HopTargetLocked(queue_index, home);
        if (hop_to >= 0) {
          ++queue.hops_out;
          ++hops_;
          ++hops;
          hops_metric->Add();
          queue_index = hop_to;
          queues_[queue_index].fifo.push_back(ticket);  // tail: FIFO order
          queue_timer.Restart();
          // Our departure may have promoted the old queue's next waiter.
          slot_free_.NotifyAll();
          continue;
        }
        ++queue.timeouts;
        ++timeouts_;
        timeouts_metric->Add();
        slot_free_.NotifyAll();
        if (timeout_report != nullptr) {
          timeout_report->session_id = request.session_id;
          timeout_report->state = "timeout";
          timeout_report->queue = queue.config.name;
          timeout_report->statement = request.statement;
          // The wait accrued across *every* queue visited, not just the
          // final residence — hopping must not launder queued_seconds.
          timeout_report->queued_seconds = wait_timer.Seconds();
          timeout_report->hops = hops;
        }
        return Status::DeadlineExceeded(
            "cancelled after " + std::to_string(wait_timer.Seconds()) +
            "s in the WLM queue '" + queue.config.name + "' (" +
            std::to_string(hops) + " hops)");
      }
      // Bounded slices while SQA is on so overstayer demotion runs even
      // when no slot is released.
      const double slice =
          sqa_index_ >= 0 ? std::min(remaining, kDemotePollSeconds) : remaining;
      slot_free_.WaitFor(mu_, std::chrono::duration<double>(slice),
                         at_head_with_free_slot);
    } else if (sqa_index_ >= 0) {
      slot_free_.WaitFor(mu_, std::chrono::duration<double>(kDemotePollSeconds),
                         at_head_with_free_slot);
    } else {
      slot_free_.Wait(mu_, at_head_with_free_slot);
    }
  }
  QueueState& queue = queues_[queue_index];
  queue.fifo.pop_front();
  ++queue.running;
  queue.max_in_flight = std::max(queue.max_in_flight, queue.running);
  ++queue.admitted;
  ++running_;
  max_in_flight_ = std::max(max_in_flight_, running_);
  ++admitted_;
  admitted_metric->Add();
  RunningEntry entry;
  entry.queue = queue_index;
  entry.home = home;
  running_entries_.emplace(ticket, std::move(entry));
  // A new head may be admissible if slots remain.
  slot_free_.NotifyAll();
  Slot slot;
  slot.controller_ = this;
  slot.ticket_ = ticket;
  slot.queued_seconds_ = wait_timer.Seconds();
  slot.queue_ = queue.config.name;
  slot.hops_ = hops;
  return slot;
}

void AdmissionController::Release(uint64_t ticket) {
  {
    common::MutexLock lock(mu_);
    auto it = running_entries_.find(ticket);
    if (it != running_entries_.end()) {
      --queues_[it->second.queue].running;
      running_entries_.erase(it);
      --running_;
    }
  }
  slot_free_.NotifyAll();
}

std::vector<AdmissionController::Report> AdmissionController::reports() const {
  const auto rows = reports_.Snapshot();
  std::vector<Report> out;
  out.reserve(rows.size());
  for (const auto& report : rows) out.push_back(*report);
  return out;
}

int AdmissionController::running() const {
  common::MutexLock lock(mu_);
  return running_;
}

size_t AdmissionController::queued() const {
  common::MutexLock lock(mu_);
  size_t total = 0;
  for (const QueueState& queue : queues_) total += queue.fifo.size();
  return total;
}

int AdmissionController::max_in_flight() const {
  common::MutexLock lock(mu_);
  return max_in_flight_;
}

uint64_t AdmissionController::admitted() const {
  common::MutexLock lock(mu_);
  return admitted_;
}

uint64_t AdmissionController::timeouts() const {
  common::MutexLock lock(mu_);
  return timeouts_;
}

uint64_t AdmissionController::hops() const {
  common::MutexLock lock(mu_);
  return hops_;
}

uint64_t AdmissionController::sqa_demotions() const {
  common::MutexLock lock(mu_);
  return sqa_demotions_;
}

std::vector<AdmissionController::QueueStats> AdmissionController::queue_stats()
    const {
  common::MutexLock lock(mu_);
  std::vector<QueueStats> stats;
  stats.reserve(queues_.size());
  for (const QueueState& queue : queues_) {
    QueueStats entry;
    entry.name = queue.config.name;
    entry.slots = queue.config.slots;
    entry.running = queue.running;
    entry.queued = queue.fifo.size();
    entry.max_in_flight = queue.max_in_flight;
    entry.admitted = queue.admitted;
    entry.timeouts = queue.timeouts;
    entry.hops_out = queue.hops_out;
    stats.push_back(std::move(entry));
  }
  return stats;
}

WorkloadManager::WorkloadManager(sim::Engine* engine, WlmConfig config)
    : engine_(engine), config_(SanitizeWlmConfig(std::move(config))) {}

void WorkloadManager::Submit(double service_seconds,
                             std::function<void(const QueryReport&)> done) {
  queue_.push_back({service_seconds, engine_->Now(), std::move(done)});
  Admit();
}

void WorkloadManager::Admit() {
  while (running_ < config_.concurrency_slots && !queue_.empty()) {
    Pending next = std::move(queue_.front());
    queue_.erase(queue_.begin());
    ++running_;
    // Smaller per-slot memory share slows each query down.
    const double effective =
        next.service_seconds *
        (1.0 + config_.per_slot_memory_penalty *
                   (config_.concurrency_slots - 1));
    const double start = engine_->Now();
    engine_->Schedule(effective, [this, next = std::move(next), start,
                                  effective] {
      QueryReport report;
      report.submitted_at = next.submitted_at;
      report.queued_seconds = start - next.submitted_at;
      report.exec_seconds = effective;
      report.finished_at = engine_->Now();
      reports_.Append(report);
      if (next.done) next.done(report);
      --running_;
      Admit();
    });
  }
}

}  // namespace sdw::cluster
