// Negative fixtures for tools/lint.py: every line tagged with
// lint:expect(<rule>) MUST trip that rule, and nothing else may fire.
// `python3 tools/lint.py --check-fixtures` (registered as the
// lint_fixtures ctest) fails if the linter ever stops catching these.
// This file is never compiled.

#include <chrono>
#include <thread>

#include "common/logging.h"
#include "common/thread_annotations.h"
#include "obs/registry.h"

namespace sdw::fixtures {

double WallClockLeak() {
  auto t0 = std::chrono::steady_clock::now();  // lint:expect(wall-clock)
  auto wall = std::chrono::system_clock::now();  // lint:expect(wall-clock)
  (void)wall;
  int noise = rand();  // lint:expect(wall-clock)
  (void)noise;
  return std::chrono::duration<double>(t0.time_since_epoch()).count();
}

void NakedThread() {
  std::thread worker([] {});  // lint:expect(naked-thread)
  worker.join();
  // Qualified statics are fine: no thread is spawned.
  (void)std::thread::hardware_concurrency();
}

class Chatty {
 public:
  void LogWhileLocked() {
    common::MutexLock lock(mu_);
    SDW_LOG(Info) << "under the lock";  // lint:expect(log-under-lock)
    ++value_;
  }

  void LogAfterUnlock() {
    int copy;
    {
      common::MutexLock lock(mu_);
      copy = ++value_;
    }
    SDW_LOG(Info) << "after release: " << copy;  // fine: lock released
  }

 private:
  common::Mutex mu_;
  int value_ SDW_GUARDED_BY(mu_) = 0;
};

void BadMetricNames() {
  // Dotted legacy name.
  obs::Registry::Global().counter("query.count");  // lint:expect(metric-name)
  // Missing the sdw_ prefix.
  obs::Registry::Global().counter("pool_tasks");  // lint:expect(metric-name)
  // Prefix alone is not enough: a module segment is required.
  obs::Registry::Global().gauge("sdw_depth");  // lint:expect(metric-name)
  // Well-formed, and the call wraps lines like real call sites do.
  obs::Registry::Global().counter(
      "sdw_fixture_good_name");
}

void BadCachePrefixes() {
  // MakeCacheMetrics prefixes expand into <prefix>_hits etc., so they
  // obey the same naming rule as direct Registry calls.
  warehouse::MakeCacheMetrics("segcache");  // lint:expect(metric-name)
  warehouse::MakeCacheMetrics("sdw_cache_result");  // fine: two segments
}

class RogueS3Writer {
 public:
  // Mutating S3 objects outside src/backup/ + src/durability/ can
  // clobber the recovery chain or strand objects that commit-log
  // truncation and backup GC never learn about.
  void Scribble(backup::S3Region* region) {
    region->PutObject("simpledw/wal/rogue", {});  // lint:expect(s3-writes)
    region->DeleteObject("simpledw/wal/00000001");  // lint:expect(s3-writes)
  }

  void ScribbleByValue(backup::S3Region& region) {
    region.PutObject("simpledw/backup/rogue", {});  // lint:expect(s3-writes)
  }
};

}  // namespace sdw::fixtures
