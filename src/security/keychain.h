#ifndef SDW_SECURITY_KEYCHAIN_H_
#define SDW_SECURITY_KEYCHAIN_H_

#include <map>
#include <memory>
#include <string>

#include "common/random.h"
#include "common/result.h"
#include "common/thread_annotations.h"
#include "security/chacha20.h"
#include "storage/block_store.h"

namespace sdw::security {

/// Source of the master key: ours ("stored by us off-network") or the
/// customer's HSM (§3.2).
class MasterKeyProvider {
 public:
  virtual ~MasterKeyProvider() = default;
  virtual Result<Key256> GetMasterKey() = 0;
  virtual std::string name() const = 0;
};

/// The service-managed master key.
class ServiceKeyProvider : public MasterKeyProvider {
 public:
  explicit ServiceKeyProvider(uint64_t seed);
  Result<Key256> GetMasterKey() override;
  std::string name() const override { return "service-managed"; }

  /// Rotating the service master (keeps a new key; old wraps must be
  /// re-wrapped via KeyHierarchy::RotateMasterKey).
  void Rotate(uint64_t seed);

 private:
  Key256 key_;
};

/// An HSM that can be taken offline (fault injection / repudiation).
class HsmKeyProvider : public MasterKeyProvider {
 public:
  explicit HsmKeyProvider(uint64_t seed);
  Result<Key256> GetMasterKey() override;
  std::string name() const override { return "hsm"; }
  void set_available(bool available) { available_ = available; }

 private:
  Key256 key_;
  bool available_ = true;
};

/// The three-level key hierarchy of §3.2: per-block keys (prevent
/// cross-block injection) wrapped by a cluster key (prevents
/// cross-cluster injection) wrapped by the master key. Rotation
/// re-encrypts keys, never data; repudiation = losing the keys.
///
/// Thread-safe: with MVCC snapshot reads, concurrent SELECTs decrypt
/// blocks while a COPY encrypts new ones, so all hierarchy state is
/// guarded by an internal mutex. Rotation must observe a stable key
/// map, so one mutex over the whole hierarchy keeps the invariants
/// simple; block payloads are small enough that holding it across the
/// ChaCha pass is not a contention concern in this model.
class KeyHierarchy {
 public:
  /// Creates a hierarchy with a fresh cluster key wrapped by the
  /// provider's master key.
  static Result<KeyHierarchy> Create(MasterKeyProvider* provider,
                                     uint64_t seed = 1);

  /// Movable so Create can return by value. Moves happen before the
  /// hierarchy is published to other threads; the moved-from object
  /// must not be used again.
  KeyHierarchy(KeyHierarchy&& other) noexcept SDW_NO_THREAD_SAFETY_ANALYSIS;
  KeyHierarchy& operator=(KeyHierarchy&& other) noexcept
      SDW_NO_THREAD_SAFETY_ANALYSIS;

  /// Encrypts a block: generates its block key, wraps it with the
  /// cluster key, returns ciphertext (wrapped key is kept internally).
  Result<Bytes> EncryptBlock(storage::BlockId id, Bytes plaintext);

  /// Decrypts a block: unwraps its key via cluster+master keys.
  Result<Bytes> DecryptBlock(storage::BlockId id, Bytes ciphertext);

  /// Re-wraps every block key with a fresh cluster key. Cost is
  /// proportional to the number of block keys, not data bytes.
  Status RotateClusterKey();

  /// Re-wraps the cluster key after the master key changed.
  Status RotateMasterKey(MasterKeyProvider* new_provider);

  /// Cryptographic erasure: drops the wrapped cluster key, making every
  /// block permanently undecryptable.
  void Repudiate();

  /// True once Repudiate ran. Decoded blocks and cached results outlive
  /// the keys in memory, so the warehouse front door checks this too.
  bool repudiated() const SDW_EXCLUDES(mu_) {
    common::MutexLock lock(mu_);
    return repudiated_;
  }

  /// What every decryption fails with after Repudiate.
  static Status RepudiatedStatus() {
    return Status::FailedPrecondition("cluster keys repudiated");
  }

  size_t num_block_keys() const SDW_EXCLUDES(mu_) {
    common::MutexLock lock(mu_);
    return wrapped_block_keys_.size();
  }
  uint64_t rewrap_operations() const SDW_EXCLUDES(mu_) {
    common::MutexLock lock(mu_);
    return rewrap_operations_;
  }

 private:
  KeyHierarchy(MasterKeyProvider* provider, uint64_t seed);

  Result<Key256> UnwrapClusterKey() SDW_REQUIRES(mu_);
  Key256 GenerateKey() SDW_REQUIRES(mu_);

  mutable common::Mutex mu_{common::LockRank::kKeychain};
  MasterKeyProvider* provider_ SDW_GUARDED_BY(mu_);
  Rng rng_ SDW_GUARDED_BY(mu_);
  bool repudiated_ SDW_GUARDED_BY(mu_) = false;
  /// Cluster key encrypted under the master key.
  Bytes wrapped_cluster_key_ SDW_GUARDED_BY(mu_);
  Nonce96 cluster_key_nonce_ SDW_GUARDED_BY(mu_);
  /// Block keys encrypted under the cluster key.
  struct WrappedKey {
    Bytes wrapped;
    Nonce96 nonce;
  };
  std::map<storage::BlockId, WrappedKey> wrapped_block_keys_
      SDW_GUARDED_BY(mu_);
  uint64_t rewrap_operations_ SDW_GUARDED_BY(mu_) = 0;
};

}  // namespace sdw::security

#endif  // SDW_SECURITY_KEYCHAIN_H_
