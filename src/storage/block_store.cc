#include "storage/block_store.h"

#include "common/hash.h"
#include "obs/registry.h"

namespace sdw::storage {

namespace {

// Registry handles cached once; Add() is a relaxed fetch_add.
obs::Counter* ReadsMetric() {
  static obs::Counter* c =
      obs::Registry::Global().counter("sdw_storage_block_reads");
  return c;
}
obs::Counter* ReadBytesMetric() {
  static obs::Counter* c =
      obs::Registry::Global().counter("sdw_storage_block_read_bytes");
  return c;
}
obs::Counter* FaultsMetric() {
  static obs::Counter* c =
      obs::Registry::Global().counter("sdw_storage_block_faults");
  return c;
}
obs::Counter* WritesMetric() {
  static obs::Counter* c =
      obs::Registry::Global().counter("sdw_storage_blocks_written");
  return c;
}

}  // namespace

BlockId BlockStore::Allocate() {
  static std::atomic<uint64_t> next_id{1};
  return next_id.fetch_add(1, std::memory_order_relaxed);
}

Status BlockStore::StoreLocked(BlockId id, Bytes data, uint32_t crc,
                               bool verified) {
  if (blocks_.count(id)) {
    return Status::AlreadyExists("block " + std::to_string(id) +
                                 " already stored (blocks are immutable)");
  }
  Stored stored;
  stored.crc = crc;
  stored.verified = verified;
  total_bytes_ += data.size();
  stored.data = std::move(data);
  blocks_[id] = std::move(stored);
  WritesMetric()->Add();
  return Status::OK();
}

Status BlockStore::Put(BlockId id, Bytes data) {
  // Copy the hooks out under the lock; they are invoked unlocked below
  // (the observer reaches *other* stores — holding our lock across
  // that would order locks between stores, an ABBA deadlock).
  TransformFn transform;
  PutObserver observer;
  chaos::FaultPoint* write_fault;
  {
    common::MutexLock lock(mu_);
    transform = write_transform_;
    observer = put_observer_;
    write_fault = write_fault_;
  }
  if (transform) {
    SDW_ASSIGN_OR_RETURN(data, transform(id, std::move(data)));
  }
  if (write_fault != nullptr) {
    SDW_RETURN_IF_ERROR(write_fault->OnCall());
  }
  const uint32_t crc = Crc32c(data.data(), data.size());
  Bytes for_observer;
  if (observer) for_observer = data;
  {
    common::MutexLock lock(mu_);
    SDW_RETURN_IF_ERROR(StoreLocked(id, std::move(data), crc,
                                    /*verified=*/false));
  }
  // The observer (synchronous replication) writes the secondary copy on
  // a *different* store; it must run unlocked or concurrent cross-node
  // puts would order locks between stores.
  if (observer) observer(id, for_observer);
  return Status::OK();
}

Status BlockStore::PutRaw(BlockId id, Bytes stored) {
  chaos::FaultPoint* write_fault;
  {
    common::MutexLock lock(mu_);
    write_fault = write_fault_;
  }
  if (write_fault != nullptr) {
    SDW_RETURN_IF_ERROR(write_fault->OnCall());
  }
  const uint32_t crc = Crc32c(stored.data(), stored.size());
  common::MutexLock lock(mu_);
  return StoreLocked(id, std::move(stored), crc, /*verified=*/false);
}

Result<Bytes> BlockStore::GetRaw(BlockId id) {
  ReadsMetric()->Add();
  // Chaos first: a firing read point turns this call into a local media
  // failure even if the block is resident, so masking is exercised end
  // to end. The point is copied out and called unlocked — armed
  // triggers reach back into the system.
  chaos::FaultPoint* read_fault;
  {
    common::MutexLock lock(mu_);
    read_fault = read_fault_;
  }
  Status miss = Status::OK();
  if (read_fault != nullptr) miss = read_fault->OnCall();

  std::shared_ptr<Inflight> flight;
  bool leader = false;
  FaultHandler handler;
  {
    common::MutexLock lock(mu_);
    if (miss.ok()) {
      auto it = blocks_.find(id);
      if (it != blocks_.end()) {
        Stored& stored = it->second;
        if (stored.verified ||
            Crc32c(stored.data.data(), stored.data.size()) == stored.crc) {
          stored.verified = true;
          ReadBytesMetric()->Add(stored.data.size());
          return stored.data;
        }
        // A checksum mismatch is a media failure: drop the bad copy and
        // fall through to the fault path so a replica can mask it.
        miss = Status::Corruption("block " + std::to_string(id) +
                                  " failed checksum");
        total_bytes_ -= stored.data.size();
        blocks_.erase(it);
      } else {
        miss = Status::Unavailable("block " + std::to_string(id) +
                                   " not on local storage");
      }
    }
    if (!fault_handler_) return miss;
    handler = fault_handler_;
    // Single-flight: racing faults of the same block share one fetch.
    auto fit = inflight_.find(id);
    if (fit != inflight_.end()) {
      flight = fit->second;
    } else {
      flight = std::make_shared<Inflight>();
      inflight_[id] = flight;
      leader = true;
    }
    if (!leader) {
      flight->cv.Wait(mu_, [&] { return flight->done; });
      return flight->result;
    }
  }
  // Leader: fault the block in. The handler runs unlocked — it may
  // reach replica stores or S3, which route through other locks.
  faults_.fetch_add(1, std::memory_order_relaxed);
  FaultsMetric()->Add();
  Result<Bytes> fetched = handler(id);
  {
    common::MutexLock lock(mu_);
    if (fetched.ok()) {
      const Bytes& data = *fetched;
      ReadBytesMetric()->Add(data.size());
      // Page the block back in (stored form) for future reads.
      if (!blocks_.count(id)) {
        const uint32_t crc = Crc32c(data.data(), data.size());
        (void)StoreLocked(id, data, crc, /*verified=*/true);
      }
    }
    flight->result = fetched;
    flight->done = true;
    inflight_.erase(id);
  }
  flight->cv.NotifyAll();
  return fetched;
}

Result<Bytes> BlockStore::GetStored(BlockId id) {
  common::MutexLock lock(mu_);
  auto it = blocks_.find(id);
  if (it == blocks_.end()) {
    return Status::Unavailable("block " + std::to_string(id) +
                               " not resident");
  }
  Stored& stored = it->second;
  if (!stored.verified) {
    if (Crc32c(stored.data.data(), stored.data.size()) != stored.crc) {
      return Status::Corruption("block " + std::to_string(id) +
                                " failed checksum");
    }
    stored.verified = true;
  }
  return stored.data;
}

Result<Bytes> BlockStore::Get(BlockId id) {
  SDW_ASSIGN_OR_RETURN(Bytes data, GetRaw(id));
  TransformFn transform;
  {
    common::MutexLock lock(mu_);
    transform = read_transform_;
  }
  if (transform) {
    return transform(id, std::move(data));
  }
  return data;
}

Status BlockStore::Delete(BlockId id) {
  common::MutexLock lock(mu_);
  auto it = blocks_.find(id);
  if (it == blocks_.end()) {
    return Status::NotFound("block " + std::to_string(id));
  }
  total_bytes_ -= it->second.data.size();
  blocks_.erase(it);
  return Status::OK();
}

std::vector<BlockId> BlockStore::ListIds() const {
  common::MutexLock lock(mu_);
  std::vector<BlockId> ids;
  ids.reserve(blocks_.size());
  for (const auto& [id, _] : blocks_) ids.push_back(id);
  return ids;
}

void BlockStore::DropForTest(BlockId id) {
  common::MutexLock lock(mu_);
  auto it = blocks_.find(id);
  if (it != blocks_.end()) {
    total_bytes_ -= it->second.data.size();
    blocks_.erase(it);
  }
}

void BlockStore::CorruptForTest(BlockId id) {
  common::MutexLock lock(mu_);
  auto it = blocks_.find(id);
  if (it != blocks_.end() && !it->second.data.empty()) {
    it->second.data[it->second.data.size() / 2] ^= 0x40;
    it->second.verified = false;  // force re-verification on next read
  }
}

}  // namespace sdw::storage
