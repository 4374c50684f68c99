#include "obs/profiler.h"

#include "sim/stopwatch.h"

namespace sdw::obs {

const char* QueryPhaseName(QueryPhase phase) {
  switch (phase) {
    case QueryPhase::kQueued:
      return "queued";
    case QueryPhase::kPlan:
      return "plan";
    case QueryPhase::kExec:
      return "exec";
    case QueryPhase::kFinalize:
      return "finalize";
  }
  return "unknown";
}

void QueryProgress::set_phase(QueryPhase phase) {
  if (phase != QueryPhase::kQueued) {
    int64_t expected = -1;
    exec_start_ns_.compare_exchange_strong(expected, sim::MonotonicNanos(),
                                           std::memory_order_relaxed);
  }
  phase_.store(static_cast<int>(phase), std::memory_order_relaxed);
}

double QueryProgress::exec_seconds() const {
  int64_t start = exec_start_ns_.load(std::memory_order_relaxed);
  if (start < 0) return 0;
  return static_cast<double>(sim::MonotonicNanos() - start) * 1e-9;
}

InflightRegistry::Ticket& InflightRegistry::Ticket::operator=(
    Ticket&& other) noexcept {
  if (this != &other) {
    Release();
    owner_ = other.owner_;
    id_ = other.id_;
    progress_ = other.progress_;
    other.owner_ = nullptr;
    other.id_ = 0;
    other.progress_ = nullptr;
  }
  return *this;
}

void InflightRegistry::Ticket::Release() {
  if (owner_ != nullptr) {
    owner_->Unregister(id_);
    owner_ = nullptr;
    progress_ = nullptr;
  }
}

InflightRegistry::Ticket InflightRegistry::Register(
    int session_id, const std::string& statement) {
  common::MutexLock lock(mu_);
  Slot slot;
  slot.id = next_id_++;
  slot.session_id = session_id;
  slot.statement = statement;
  slot.progress = std::make_unique<QueryProgress>();
  Ticket ticket;
  ticket.owner_ = this;
  ticket.id_ = slot.id;
  ticket.progress_ = slot.progress.get();
  slots_.push_back(std::move(slot));
  return ticket;
}

void InflightRegistry::Unregister(int id) {
  common::MutexLock lock(mu_);
  for (auto it = slots_.begin(); it != slots_.end(); ++it) {
    if (it->id == id) {
      slots_.erase(it);
      return;
    }
  }
}

std::vector<InflightEntry> InflightRegistry::Snapshot() const {
  common::MutexLock lock(mu_);
  std::vector<InflightEntry> out;
  out.reserve(slots_.size());
  for (const Slot& slot : slots_) {
    InflightEntry e;
    e.inflight_id = slot.id;
    e.session_id = slot.session_id;
    e.statement = slot.statement;
    e.phase = QueryPhaseName(slot.progress->phase());
    e.rows_scanned = slot.progress->rows_scanned();
    e.slices_done = slot.progress->slices_done();
    e.slices_total = slot.progress->slices_total();
    e.queued_seconds = slot.progress->queued_seconds();
    e.exec_seconds = slot.progress->exec_seconds();
    out.push_back(std::move(e));
  }
  return out;
}

}  // namespace sdw::obs
