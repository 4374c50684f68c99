#ifndef SDW_STORAGE_BLOCK_STORE_H_
#define SDW_STORAGE_BLOCK_STORE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "common/bytes.h"
#include "common/fault_injector.h"
#include "common/result.h"
#include "common/thread_annotations.h"

namespace sdw::storage {

/// Identifies one immutable data block within a BlockStore.
using BlockId = uint64_t;

/// The local block device of one node: immutable, checksummed,
/// fixed-maximum-size blocks (paper §2.1: "each column ... is encoded in
/// a chain of one or more fixed size data blocks"). Blocks are
/// write-once; updates happen by appending new blocks and dropping old
/// ones, which is what makes incremental S3 backup and replication
/// block-level operations.
class BlockStore {
 public:
  /// Called on a read miss (media failure / not yet restored). If it
  /// returns bytes, the block is "page-faulted" back into the store —
  /// the streaming-restore path of §2.3 and the replica-masking path
  /// of §2.1.
  using FaultHandler = std::function<Result<Bytes>(BlockId)>;

  /// Called after every successful Put with the *stored* (transformed)
  /// bytes — the hook synchronous replication hangs off of. Runs
  /// outside the store lock. PutRaw (replica copies, restores) does
  /// not notify, so replication never re-replicates its own writes.
  using PutObserver = std::function<void(BlockId, const Bytes& stored)>;

  /// Optional at-rest transforms (the §3.2 encryption checkbox): the
  /// write transform runs before bytes hit the device, the read
  /// transform after they are fetched. Checksums, replication, backup
  /// and page-faulting all operate on the transformed (stored) bytes,
  /// so backups are automatically encrypted too.
  using TransformFn = std::function<Result<Bytes>(BlockId, Bytes)>;

  BlockStore() = default;
  BlockStore(const BlockStore&) = delete;
  BlockStore& operator=(const BlockStore&) = delete;

  /// Reserves a fresh block id. Ids are unique across every BlockStore
  /// in the process so replication and S3 backup can key replicas of
  /// the same block identically on different devices.
  [[nodiscard]] static BlockId Allocate();

  /// Stores a block. Fails if the id is already present (blocks are
  /// immutable).
  Status Put(BlockId id, Bytes data) SDW_EXCLUDES(mu_);

  /// Stores already-transformed bytes (a replica copy or a restored
  /// block): no write transform, no put observer.
  Status PutRaw(BlockId id, Bytes stored) SDW_EXCLUDES(mu_);

  /// Reads and checksum-verifies a block. On a miss, consults the fault
  /// handler; on checksum mismatch the bad copy is dropped and the
  /// fault handler gets a chance to mask the failure from a replica.
  /// Without a handler, misses return Unavailable and bad checksums
  /// Corruption. Concurrent faults of one block share a single fetch.
  Result<Bytes> Get(BlockId id) SDW_EXCLUDES(mu_);

  /// Raw stored bytes, bypassing the read transform (backup uploads and
  /// at-rest inspection). Same miss/fault semantics as Get.
  Result<Bytes> GetRaw(BlockId id) SDW_EXCLUDES(mu_);

  /// Resident-only raw read: never consults the fault handler or the
  /// chaos point. This is what replication peers use to serve masked
  /// reads — a miss here must not recurse into *their* fault handlers.
  Result<Bytes> GetStored(BlockId id) SDW_EXCLUDES(mu_);

  /// Removes a block (e.g., superseded after vacuum or re-replication).
  Status Delete(BlockId id) SDW_EXCLUDES(mu_);

  bool Contains(BlockId id) const SDW_EXCLUDES(mu_) {
    common::MutexLock lock(mu_);
    return blocks_.count(id) > 0;
  }

  /// All ids currently resident, ascending.
  std::vector<BlockId> ListIds() const SDW_EXCLUDES(mu_);

  /// Hook setters. Safe to call while readers/writers are in flight:
  /// installation happens under the store lock and operations copy the
  /// hook out before invoking it, so an in-flight operation either sees
  /// the old hook or the new one, never a torn std::function.
  void set_fault_handler(FaultHandler handler) SDW_EXCLUDES(mu_) {
    common::MutexLock lock(mu_);
    fault_handler_ = std::move(handler);
  }

  void set_put_observer(PutObserver observer) SDW_EXCLUDES(mu_) {
    common::MutexLock lock(mu_);
    put_observer_ = std::move(observer);
  }

  void set_write_transform(TransformFn transform) SDW_EXCLUDES(mu_) {
    common::MutexLock lock(mu_);
    write_transform_ = std::move(transform);
  }
  void set_read_transform(TransformFn transform) SDW_EXCLUDES(mu_) {
    common::MutexLock lock(mu_);
    read_transform_ = std::move(transform);
  }

  // --- fault injection (chaos tests & durability benches) ---

  /// Injects scripted faults into the read path: a firing point makes
  /// the read behave as a local media failure (even for resident
  /// blocks), exercising the replica/S3 masking chain end to end.
  void set_read_fault(chaos::FaultPoint* point) SDW_EXCLUDES(mu_) {
    common::MutexLock lock(mu_);
    read_fault_ = point;
  }

  /// Injects scripted faults into Put/PutRaw (device write failures —
  /// how tests script "the secondary copy failed to land").
  void set_write_fault(chaos::FaultPoint* point) SDW_EXCLUDES(mu_) {
    common::MutexLock lock(mu_);
    write_fault_ = point;
  }

  /// Simulates media loss of one block (data gone, id forgotten).
  void DropForTest(BlockId id) SDW_EXCLUDES(mu_);

  /// Flips one payload byte without updating the checksum.
  void CorruptForTest(BlockId id) SDW_EXCLUDES(mu_);

  // --- accounting ---
  uint64_t num_blocks() const SDW_EXCLUDES(mu_) {
    common::MutexLock lock(mu_);
    return blocks_.size();
  }
  uint64_t total_bytes() const SDW_EXCLUDES(mu_) {
    common::MutexLock lock(mu_);
    return total_bytes_;
  }
  /// Fault-ins this store has led (reads and read bytes are counted
  /// process-wide by sdw_storage_block_reads / _read_bytes).
  uint64_t faults() const { return faults_.load(std::memory_order_relaxed); }

 private:
  struct Stored {
    Bytes data;
    uint32_t crc = 0;
    /// Set after the first successful checksum so hot blocks are not
    /// re-hashed on every read.
    bool verified = false;
  };

  /// One fault-in in flight per block id: the first thread to miss
  /// fetches through the fault handler, racing threads wait on the
  /// shared slot. Keeps the fault count deterministic under
  /// concurrency and fetches each block at most once. Members are
  /// guarded by the owning store's mu_ (not annotatable from a nested
  /// struct; the cv waits on mu_ itself).
  struct Inflight {
    common::CondVar cv;
    bool done = false;
    Result<Bytes> result{Status::Unavailable("fault-in pending")};
  };

  Status StoreLocked(BlockId id, Bytes data, uint32_t crc, bool verified)
      SDW_REQUIRES(mu_);

  /// One node's slices scan through the same device concurrently, so
  /// the block map (and the verified-flag mutation inside it) sits
  /// behind a lock; the fault counter is a relaxed atomic. The fault
  /// handler and the put observer are invoked outside the lock — both
  /// may reach other BlockStores, and holding our lock across that
  /// would order locks between stores (ABBA deadlock). Operations copy
  /// the hook out under the lock first, so setters stay race-free.
  mutable common::Mutex mu_{common::LockRank::kBlockStore};
  std::map<BlockId, Stored> blocks_ SDW_GUARDED_BY(mu_);
  std::map<BlockId, std::shared_ptr<Inflight>> inflight_ SDW_GUARDED_BY(mu_);
  uint64_t total_bytes_ SDW_GUARDED_BY(mu_) = 0;
  std::atomic<uint64_t> faults_{0};
  FaultHandler fault_handler_ SDW_GUARDED_BY(mu_);
  PutObserver put_observer_ SDW_GUARDED_BY(mu_);
  TransformFn write_transform_ SDW_GUARDED_BY(mu_);
  TransformFn read_transform_ SDW_GUARDED_BY(mu_);
  chaos::FaultPoint* read_fault_ SDW_GUARDED_BY(mu_) = nullptr;
  chaos::FaultPoint* write_fault_ SDW_GUARDED_BY(mu_) = nullptr;
};

}  // namespace sdw::storage

#endif  // SDW_STORAGE_BLOCK_STORE_H_
