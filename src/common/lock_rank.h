#ifndef SDW_COMMON_LOCK_RANK_H_
#define SDW_COMMON_LOCK_RANK_H_

#include <string>

namespace sdw::common {

/// The lock hierarchy of the concurrent core, as ranks. A thread may
/// only acquire a mutex whose rank is strictly greater than every rank
/// it already holds, so any cycle in the dynamic acquisition order is
/// impossible by construction. Lower rank = acquired earlier (outer);
/// the leaves of the hierarchy carry the highest ranks.
///
/// The authoritative table — one row per mutex member in src/, with its
/// module and acquired-before edges — lives in DESIGN.md §4f and is
/// linted against this enum by tools/lint.py (rule `lock-rank-doc`):
/// every enumerator added here must gain a DESIGN.md row, so code and
/// doc cannot drift apart.
///
/// Gaps between values are deliberate: new locks slot in between
/// existing layers without renumbering the table.
enum class LockRank : int {
  /// Exempt from ordering checks (test-local mutexes, or locks outside
  /// the concurrent core). Never use for a mutex in src/.
  kUnranked = 0,

  // ---- client side (outside the warehouse entirely) ----
  kWorkloadReplay = 50,  // workload::Replayer dispatch queue mutex

  // ---- warehouse front door (outermost) ----
  kWarehouseWriter = 100,  // Warehouse::writer_mu_
  kWarehouseData = 150,    // Warehouse::data_mu_
  kQueryCache = 210,       // LruQueryCache::mu_ (segment/result caches)
  kCatalog = 250,          // Catalog::mu_

  // ---- data plane ----
  kShardDecodeCache = 300,  // TableShard::cache_mu_ (held across store Get)
  kClusterRouting = 350,    // Cluster::mu_
  kComputeNode = 400,       // ComputeNode::mu_
  kShardHead = 450,         // TableShard::head_mu_
  kReplication = 500,       // ReplicationManager::mu_
  kBlockStore = 550,        // BlockStore::mu_

  // ---- durability / backup / security ----
  kCommitLog = 580,   // durability::CommitLog::mu_ (held across S3 ops)
  kS3Directory = 600,  // backup::S3::mu_ (region map)
  kS3Region = 610,     // backup::S3Region::mu_
  kKeychain = 620,     // security::KeyHierarchy::mu_

  // ---- serving-side bookkeeping (taken under any warehouse lock) ----
  kWlmAdmission = 700,      // cluster::AdmissionController::mu_
  kHistory = 710,           // obs::History<Row>::mu_ (every history)
  kInflightRegistry = 735,  // obs::InflightRegistry::mu_

  // ---- leaves ----
  kPoolJoin = 790,         // ThreadPool::ParallelFor per-call JoinState::mu
  kThreadPool = 800,       // common::ThreadPool::mu_
  kFaultInjector = 850,    // chaos::FaultInjector::mu_ (point directory)
  kFaultPoint = 860,       // chaos::FaultPoint::mu_
  kCrashController = 870,  // chaos::CrashController::mu_
  kMetricsRegistry = 900,  // obs::Registry::mu_ (registration under any lock)
};

/// Stable name for reports and the DESIGN.md lint ("kWarehouseWriter").
const char* LockRankName(LockRank rank);

/// Runtime lock-rank validation. Off by default (the hooks cost one
/// relaxed atomic load per lock op); enabled process-wide either
/// programmatically or by setting SDW_LOCK_RANK_CHECKS=1 in the
/// environment (how the sanitizer CI legs turn it on suite-wide).
void EnableLockRankChecks(bool enabled);
bool LockRankChecksEnabled();

/// What the validator reports on an out-of-order acquisition: the two
/// ranks plus a rendered report containing both acquisition stacks.
struct LockRankViolation {
  LockRank acquired = LockRank::kUnranked;
  LockRank held = LockRank::kUnranked;
  /// Human-readable report: the inversion, the acquiring stack and the
  /// stack that acquired the already-held lock.
  std::string report;
};

/// Violation sink. The default handler writes the report to stderr and
/// aborts (a rank inversion is a latent deadlock — same severity as a
/// failed SDW_CHECK); tests install a capturing handler to assert on
/// the report instead of dying. Returns the previous handler.
using LockRankViolationHandler = void (*)(const LockRankViolation&);
LockRankViolationHandler SetLockRankViolationHandler(
    LockRankViolationHandler handler);

namespace internal {

/// Called by Mutex/SharedMutex before blocking on the underlying lock:
/// checks `rank` against every rank this thread already holds and
/// records the acquisition (with a captured backtrace) on the
/// per-thread stack. `check_order` is false for try_lock successes —
/// a non-blocking acquire cannot deadlock, but must still be recorded
/// so later blocking acquires see it.
void OnLockAcquire(const void* mutex, LockRank rank, bool check_order);

/// Called on unlock; removes the most recent matching record. Tolerant
/// of missing entries (checks enabled while locks were already held).
void OnLockRelease(const void* mutex, LockRank rank);

/// Number of ranked locks the calling thread currently holds (tests).
int HeldRankedLocks();

}  // namespace internal

}  // namespace sdw::common

#endif  // SDW_COMMON_LOCK_RANK_H_
