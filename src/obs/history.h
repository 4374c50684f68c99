#ifndef SDW_OBS_HISTORY_H_
#define SDW_OBS_HISTORY_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <utility>
#include <vector>

#include "common/thread_annotations.h"

namespace sdw::obs {

/// The bytes one history keeps. Every system-table history (stl_query
/// with its stl_span trees, stl_health_events, stl_scan,
/// stl_alert_event_log, stv_gauge_history, stl_wlm) drops its oldest
/// rows once their charges add up to more than this, the way Redshift
/// keeps a bounded STL window (DESIGN.md §4e).
inline constexpr size_t kHistoryBytes = size_t{4} << 20;

/// A bounded, thread-safe history of immutable rows in append order.
///
/// A row type supplies two members:
///  - `size_t history_bytes() const`: the row's charge against
///    kHistoryBytes, computed from its contents (its size plus string
///    sizes and span counts, never allocator capacities), so two runs
///    that append the same rows drop the same rows;
///  - optionally `void set_history_id(uint64_t id)`: stores the row's
///    id. Ids count from 1 in append order and keep counting across
///    evictions.
///
/// Rows are frozen into `shared_ptr<const Row>` when appended, and
/// Snapshot() copies only those pointers under the lock: a reader never
/// deep-copies the history while appenders wait, and a snapshot is
/// unchanged by later appends and evictions. No other lock is taken
/// while a history's lock is held, so every history shares one rank
/// (kHistory); equal ranks may not nest, so the lock-rank validator
/// proves it.
template <typename Row>
class History {
 public:
  using Rows = std::vector<std::shared_ptr<const Row>>;

  /// Appends `row` as the newest row, then drops the oldest rows until
  /// the total charge is back within kHistoryBytes (a row larger than
  /// the bound drops too).
  void Append(Row row) SDW_EXCLUDES(mu_) {
    Rows dropped;  // destroyed after the lock is released
    common::MutexLock lock(mu_);
    PushLocked(std::move(row));
    EvictLocked(&dropped);
  }

  /// Appends `rows` in order as one step, so they get consecutive ids.
  void Append(std::vector<Row> rows) SDW_EXCLUDES(mu_) {
    Rows dropped;
    common::MutexLock lock(mu_);
    for (Row& row : rows) PushLocked(std::move(row));
    EvictLocked(&dropped);
  }

  /// The kept rows, oldest first.
  Rows Snapshot() const SDW_EXCLUDES(mu_) {
    common::MutexLock lock(mu_);
    Rows rows;
    rows.reserve(ring_.size());
    for (const Slot& slot : ring_) rows.push_back(slot.row);
    return rows;
  }

  /// The summed charge of the kept rows; never above kHistoryBytes
  /// once an append returns.
  size_t bytes() const SDW_EXCLUDES(mu_) {
    common::MutexLock lock(mu_);
    return bytes_;
  }

 private:
  struct Slot {
    std::shared_ptr<const Row> row;
    size_t bytes = 0;
  };

  void PushLocked(Row row) SDW_REQUIRES(mu_) {
    const uint64_t id = next_id_++;
    if constexpr (requires { row.set_history_id(id); }) {
      row.set_history_id(id);
    }
    const size_t bytes = row.history_bytes();
    bytes_ += bytes;
    ring_.push_back({std::make_shared<const Row>(std::move(row)), bytes});
  }

  void EvictLocked(Rows* dropped) SDW_REQUIRES(mu_) {
    while (bytes_ > kHistoryBytes) {
      bytes_ -= ring_.front().bytes;
      dropped->push_back(std::move(ring_.front().row));
      ring_.pop_front();
    }
  }

  mutable common::Mutex mu_{common::LockRank::kHistory};
  uint64_t next_id_ SDW_GUARDED_BY(mu_) = 1;
  size_t bytes_ SDW_GUARDED_BY(mu_) = 0;
  std::deque<Slot> ring_ SDW_GUARDED_BY(mu_);
};

}  // namespace sdw::obs

#endif  // SDW_OBS_HISTORY_H_
