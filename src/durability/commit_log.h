#ifndef SDW_DURABILITY_COMMIT_LOG_H_
#define SDW_DURABILITY_COMMIT_LOG_H_

#include <cstdint>
#include <string>
#include <vector>

#include "backup/s3sim.h"
#include "common/bytes.h"
#include "common/fault_injector.h"
#include "common/result.h"
#include "common/retry.h"
#include "common/thread_annotations.h"

namespace sdw::durability {

/// Crash-site names along the warehouse commit path, in order. The
/// commit log append is the durability point: a statement that crashed
/// before (or inside) its append is atomically absent after recovery;
/// one that crashed anywhere after it is fully present.
inline constexpr char kCrashPreLog[] = "commit:pre-log";
inline constexpr char kCrashTornAppend[] = "commit:torn-log-append";
inline constexpr char kCrashPostLogPreInstall[] = "commit:post-log-pre-install";
inline constexpr char kCrashMidInstall[] = "commit:mid-install";
inline constexpr char kCrashPreAck[] = "commit:post-install-pre-ack";

/// All instrumented sites, for crash-at-every-point sweeps.
inline constexpr const char* kAllCrashSites[] = {
    kCrashPreLog, kCrashTornAppend, kCrashPostLogPreInstall, kCrashMidInstall,
    kCrashPreAck};

/// One durable commit. Statements are logged logically (the SQL text):
/// replay re-executes them through the normal front door, which is
/// deterministic because the writer path is serialized and every
/// placement decision (round-robin cursors, sorts, encodings) is a pure
/// function of table state + statement.
struct LogRecord {
  enum class Kind : uint8_t {
    /// One auto-committed SQL statement.
    kStatement = 0,
    /// A multi-statement transaction, committed as one atomic batch.
    kTransaction = 1,
    /// A cluster resize to `resize_nodes` nodes.
    kResize = 2,
    /// A restore-in-place of snapshot `restore_snapshot_id`.
    kRestore = 3,
  };

  uint64_t lsn = 0;
  Kind kind = Kind::kStatement;
  int session_id = 0;
  std::vector<std::string> statements;
  int resize_nodes = 0;
  uint64_t restore_snapshot_id = 0;
};

/// Wire round-trip. The serialized form ends in a CRC32C trailer;
/// deserialization rejects torn or bit-flipped records as kCorruption —
/// what recovery truncates the tail at.
void SerializeLogRecord(const LogRecord& record, Bytes* out);
Result<LogRecord> DeserializeLogRecord(const Bytes& data);

/// The S3-backed commit log of one warehouse: an LSN-dense sequence of
/// checksummed records under `<cluster_id>/wal/`, plus two metadata
/// objects — `wal-meta/truncated` (highest LSN ever truncated through,
/// so an empty log still knows its next LSN) and `wal-meta/base` (the
/// snapshot id recovery restores before replaying the tail; read — not
/// written — by BackupManager's delete/age guards).
///
/// The latest snapshot plus the log records after its manifest
/// watermark form a complete recovery chain: §2.2-2.3's "S3 is the
/// durability story", extended from block granularity to commits.
///
/// Appends are serialized by the caller (the warehouse's writer_mu_);
/// the internal lock only makes the cached cursor safe against
/// concurrent readers of last_lsn().
class CommitLog {
 public:
  CommitLog(backup::S3* s3, std::string region, std::string cluster_id);

  CommitLog(const CommitLog&) = delete;
  CommitLog& operator=(const CommitLog&) = delete;

  /// Appends `record` as the next LSN and returns it. With a crash
  /// controller armed at kCrashTornAppend, writes only half the record
  /// and goes down — the torn tail recovery must truncate.
  Result<uint64_t> Append(LogRecord record) SDW_EXCLUDES(mu_);

  struct Tail {
    std::vector<LogRecord> records;
    /// First unreadable LSN (torn/corrupt/missing mid-sequence);
    /// 0 when the tail ended cleanly.
    uint64_t torn_lsn = 0;
  };
  /// Reads every record with lsn > after_lsn, stopping (and reporting
  /// torn_lsn) at the first record that fails its checksum.
  Result<Tail> ReadTail(uint64_t after_lsn) SDW_EXCLUDES(mu_);

  /// Deletes records with lsn <= `lsn` (a fresh snapshot absorbed
  /// them) and advances the truncation marker.
  Status TruncateThrough(uint64_t lsn) SDW_EXCLUDES(mu_);

  /// Deletes records with lsn >= `lsn` (a torn tail); the next append
  /// reuses the slot.
  Status TruncateFrom(uint64_t lsn) SDW_EXCLUDES(mu_);

  /// Highest LSN appended (0 when the log is empty), derived from the
  /// surviving objects on first use — a fresh process sees the crashed
  /// one's log.
  Result<uint64_t> LastLsn() SDW_EXCLUDES(mu_);

  /// The recovery-base snapshot pointer (0 = none yet).
  Status SetRecoveryBase(uint64_t snapshot_id);
  Result<uint64_t> GetRecoveryBase();

  /// Wires crash injection into the append path (torn-append site).
  void set_crash_controller(chaos::CrashController* crash) {
    crash_ = crash;
  }

  std::string RecordKey(uint64_t lsn) const;
  std::string TruncatedKey() const;
  std::string RecoveryBaseKey() const;

 private:
  /// Derives next_lsn_ from the surviving wal/ objects + truncation
  /// marker (idempotent; called by every public op).
  Status EnsureLoaded() SDW_REQUIRES(mu_);

  backup::S3* s3_;
  std::string region_;
  std::string cluster_id_;
  /// Bounded retry for every S3 call (the backup paths' contract:
  /// transient S3 faults degrade to modeled latency).
  const common::RetryPolicy retry_policy_{};
  chaos::CrashController* crash_ = nullptr;

  mutable common::Mutex mu_{common::LockRank::kCommitLog};
  bool loaded_ SDW_GUARDED_BY(mu_) = false;
  uint64_t next_lsn_ SDW_GUARDED_BY(mu_) = 1;
  uint64_t truncated_through_ SDW_GUARDED_BY(mu_) = 0;
};

}  // namespace sdw::durability

#endif  // SDW_DURABILITY_COMMIT_LOG_H_
