#include "common/lock_rank.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <vector>

#if defined(__has_include)
#if __has_include(<execinfo.h>)
#include <execinfo.h>
#define SDW_LOCK_RANK_HAVE_BACKTRACE 1
#endif
#endif

namespace sdw::common {

namespace {

std::atomic<bool> g_checks_enabled{[] {
  const char* env = std::getenv("SDW_LOCK_RANK_CHECKS");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}()};

std::atomic<LockRankViolationHandler> g_handler{nullptr};

constexpr int kMaxFrames = 24;

/// One ranked lock the thread currently holds, with the stack that
/// acquired it so a violation report can show both sides.
struct HeldLock {
  const void* mutex = nullptr;
  LockRank rank = LockRank::kUnranked;
  void* frames[kMaxFrames];
  int num_frames = 0;
};

/// The per-thread stack of held ranked locks. A plain vector: depth is
/// bounded by the hierarchy (< 16 in practice) and only the owning
/// thread ever touches it.
thread_local std::vector<HeldLock> t_held;

void CaptureStack(HeldLock* held) {
#if SDW_LOCK_RANK_HAVE_BACKTRACE
  held->num_frames = backtrace(held->frames, kMaxFrames);
#else
  held->num_frames = 0;
#endif
}

void AppendStack(std::ostringstream* out, void* const* frames,
                 int num_frames) {
#if SDW_LOCK_RANK_HAVE_BACKTRACE
  if (num_frames <= 0) {
    *out << "    (no stack captured)\n";
    return;
  }
  char** symbols = backtrace_symbols(frames, num_frames);
  for (int i = 0; i < num_frames; ++i) {
    *out << "    #" << i << ' '
         << (symbols != nullptr ? symbols[i] : "(unknown)") << '\n';
  }
  free(symbols);  // backtrace_symbols mallocs one block
#else
  (void)frames;
  (void)num_frames;
  *out << "    (backtrace unavailable on this platform)\n";
#endif
}

void DefaultHandler(const LockRankViolation& violation) {
  std::fputs(violation.report.c_str(), stderr);
  std::fflush(stderr);
  std::abort();
}

}  // namespace

const char* LockRankName(LockRank rank) {
  switch (rank) {
    case LockRank::kUnranked: return "kUnranked";
    case LockRank::kWorkloadReplay: return "kWorkloadReplay";
    case LockRank::kWarehouseWriter: return "kWarehouseWriter";
    case LockRank::kWarehouseData: return "kWarehouseData";
    case LockRank::kQueryCache: return "kQueryCache";
    case LockRank::kCatalog: return "kCatalog";
    case LockRank::kShardDecodeCache: return "kShardDecodeCache";
    case LockRank::kClusterRouting: return "kClusterRouting";
    case LockRank::kComputeNode: return "kComputeNode";
    case LockRank::kShardHead: return "kShardHead";
    case LockRank::kReplication: return "kReplication";
    case LockRank::kBlockStore: return "kBlockStore";
    case LockRank::kCommitLog: return "kCommitLog";
    case LockRank::kS3Directory: return "kS3Directory";
    case LockRank::kS3Region: return "kS3Region";
    case LockRank::kKeychain: return "kKeychain";
    case LockRank::kWlmAdmission: return "kWlmAdmission";
    case LockRank::kHistory: return "kHistory";
    case LockRank::kInflightRegistry: return "kInflightRegistry";
    case LockRank::kPoolJoin: return "kPoolJoin";
    case LockRank::kThreadPool: return "kThreadPool";
    case LockRank::kFaultInjector: return "kFaultInjector";
    case LockRank::kFaultPoint: return "kFaultPoint";
    case LockRank::kCrashController: return "kCrashController";
    case LockRank::kMetricsRegistry: return "kMetricsRegistry";
  }
  return "(unknown rank)";
}

void EnableLockRankChecks(bool enabled) {
  g_checks_enabled.store(enabled, std::memory_order_relaxed);
}

bool LockRankChecksEnabled() {
  return g_checks_enabled.load(std::memory_order_relaxed);
}

LockRankViolationHandler SetLockRankViolationHandler(
    LockRankViolationHandler handler) {
  return g_handler.exchange(handler, std::memory_order_acq_rel);
}

namespace internal {

void OnLockAcquire(const void* mutex, LockRank rank, bool check_order) {
  if (rank == LockRank::kUnranked) return;
  if (!LockRankChecksEnabled()) return;
  const HeldLock* blocking = nullptr;
  if (check_order) {
    for (const HeldLock& held : t_held) {
      // Strict ordering: equal ranks never nest either (two locks of
      // the same layer held together is an ABBA hazard between
      // instances — e.g. two BlockStores).
      if (held.rank >= rank &&
          (blocking == nullptr || held.rank >= blocking->rank)) {
        blocking = &held;
      }
    }
  }
  if (blocking != nullptr) {
    LockRankViolation violation;
    violation.acquired = rank;
    violation.held = blocking->rank;
    std::ostringstream report;
    report << "lock-rank violation: acquiring " << LockRankName(rank) << " ("
           << static_cast<int>(rank) << ") at " << mutex << " while holding "
           << LockRankName(blocking->rank) << " ("
           << static_cast<int>(blocking->rank) << ") at " << blocking->mutex
           << "\n  stack acquiring " << LockRankName(rank) << ":\n";
    HeldLock here;
    CaptureStack(&here);
    AppendStack(&report, here.frames, here.num_frames);
    report << "  stack that acquired the held " << LockRankName(blocking->rank)
           << ":\n";
    AppendStack(&report, blocking->frames, blocking->num_frames);
    violation.report = report.str();
    LockRankViolationHandler handler =
        g_handler.load(std::memory_order_acquire);
    (handler != nullptr ? handler : DefaultHandler)(violation);
    // A non-aborting handler (report mode) falls through: the
    // acquisition is still recorded so one inversion doesn't cascade
    // into bogus release mismatches.
  }
  HeldLock held;
  held.mutex = mutex;
  held.rank = rank;
  CaptureStack(&held);
  t_held.push_back(held);
}

void OnLockRelease(const void* mutex, LockRank rank) {
  if (rank == LockRank::kUnranked) return;
  if (t_held.empty()) return;  // checks were enabled mid-hold
  // Usually the top of the stack (RAII scopes unwind in order); search
  // backwards for out-of-order manual unlocks and CondVar relocks.
  for (auto it = t_held.rbegin(); it != t_held.rend(); ++it) {
    if (it->mutex == mutex) {
      t_held.erase(std::next(it).base());
      return;
    }
  }
}

int HeldRankedLocks() { return static_cast<int>(t_held.size()); }

}  // namespace internal

}  // namespace sdw::common
