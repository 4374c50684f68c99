#include "security/keychain.h"

namespace sdw::security {

namespace {

Key256 KeyFromRng(Rng* rng) {
  Key256 key;
  for (size_t i = 0; i < key.size(); i += 8) {
    uint64_t word = rng->Next();
    for (size_t b = 0; b < 8; ++b) {
      key[i + b] = static_cast<uint8_t>(word >> (8 * b));
    }
  }
  return key;
}

Nonce96 NonceFromRng(Rng* rng) {
  Nonce96 nonce;
  uint64_t a = rng->Next();
  uint32_t b = static_cast<uint32_t>(rng->Next());
  for (size_t i = 0; i < 8; ++i) nonce[i] = static_cast<uint8_t>(a >> (8 * i));
  for (size_t i = 0; i < 4; ++i) {
    nonce[8 + i] = static_cast<uint8_t>(b >> (8 * i));
  }
  return nonce;
}

Bytes WrapKey(const Key256& kek, const Nonce96& nonce, const Key256& key) {
  Bytes wrapped(key.begin(), key.end());
  ChaCha20Xor(kek, nonce, 0, &wrapped);
  return wrapped;
}

Result<Key256> UnwrapKey(const Key256& kek, const Nonce96& nonce,
                         const Bytes& wrapped) {
  if (wrapped.size() != 32) {
    return Status::Corruption("wrapped key has wrong size");
  }
  Bytes plain = wrapped;
  ChaCha20Xor(kek, nonce, 0, &plain);
  Key256 key;
  std::copy(plain.begin(), plain.end(), key.begin());
  return key;
}

}  // namespace

ServiceKeyProvider::ServiceKeyProvider(uint64_t seed) {
  Rng rng(seed);
  key_ = KeyFromRng(&rng);
}

Result<Key256> ServiceKeyProvider::GetMasterKey() { return key_; }

void ServiceKeyProvider::Rotate(uint64_t seed) {
  Rng rng(seed);
  key_ = KeyFromRng(&rng);
}

HsmKeyProvider::HsmKeyProvider(uint64_t seed) {
  Rng rng(seed);
  key_ = KeyFromRng(&rng);
}

Result<Key256> HsmKeyProvider::GetMasterKey() {
  if (!available_) return Status::Unavailable("HSM unreachable");
  return key_;
}

KeyHierarchy::KeyHierarchy(MasterKeyProvider* provider, uint64_t seed)
    : provider_(provider), rng_(seed) {}

KeyHierarchy::KeyHierarchy(KeyHierarchy&& other) noexcept
    : provider_(other.provider_),
      rng_(other.rng_),
      repudiated_(other.repudiated_),
      wrapped_cluster_key_(std::move(other.wrapped_cluster_key_)),
      cluster_key_nonce_(other.cluster_key_nonce_),
      wrapped_block_keys_(std::move(other.wrapped_block_keys_)),
      rewrap_operations_(other.rewrap_operations_) {}

KeyHierarchy& KeyHierarchy::operator=(KeyHierarchy&& other) noexcept {
  provider_ = other.provider_;
  rng_ = other.rng_;
  repudiated_ = other.repudiated_;
  wrapped_cluster_key_ = std::move(other.wrapped_cluster_key_);
  cluster_key_nonce_ = other.cluster_key_nonce_;
  wrapped_block_keys_ = std::move(other.wrapped_block_keys_);
  rewrap_operations_ = other.rewrap_operations_;
  return *this;
}

Result<KeyHierarchy> KeyHierarchy::Create(MasterKeyProvider* provider,
                                          uint64_t seed) {
  KeyHierarchy hierarchy(provider, seed);
  SDW_ASSIGN_OR_RETURN(Key256 master, provider->GetMasterKey());
  {
    common::MutexLock lock(hierarchy.mu_);
    Key256 cluster_key = hierarchy.GenerateKey();
    hierarchy.cluster_key_nonce_ = NonceFromRng(&hierarchy.rng_);
    hierarchy.wrapped_cluster_key_ =
        WrapKey(master, hierarchy.cluster_key_nonce_, cluster_key);
  }
  return hierarchy;
}

Key256 KeyHierarchy::GenerateKey() { return KeyFromRng(&rng_); }

Result<Key256> KeyHierarchy::UnwrapClusterKey() {
  if (repudiated_) return RepudiatedStatus();
  SDW_ASSIGN_OR_RETURN(Key256 master, provider_->GetMasterKey());
  return UnwrapKey(master, cluster_key_nonce_, wrapped_cluster_key_);
}

Result<Bytes> KeyHierarchy::EncryptBlock(storage::BlockId id,
                                         Bytes plaintext) {
  common::MutexLock lock(mu_);
  if (wrapped_block_keys_.count(id)) {
    return Status::AlreadyExists("block already has a key");
  }
  SDW_ASSIGN_OR_RETURN(Key256 cluster_key, UnwrapClusterKey());
  Key256 block_key = GenerateKey();
  WrappedKey wrapped;
  wrapped.nonce = NonceFromRng(&rng_);
  wrapped.wrapped = WrapKey(cluster_key, wrapped.nonce, block_key);
  // Data nonce: derived from the block id, distinct from the wrap nonce.
  Nonce96 data_nonce{};
  for (int i = 0; i < 8; ++i) {
    data_nonce[i] = static_cast<uint8_t>(id >> (8 * i));
  }
  data_nonce[11] = 0xd4;
  ChaCha20Xor(block_key, data_nonce, 1, &plaintext);
  wrapped_block_keys_[id] = std::move(wrapped);
  return plaintext;
}

Result<Bytes> KeyHierarchy::DecryptBlock(storage::BlockId id,
                                         Bytes ciphertext) {
  common::MutexLock lock(mu_);
  auto it = wrapped_block_keys_.find(id);
  if (it == wrapped_block_keys_.end()) {
    return Status::NotFound("no key for block " + std::to_string(id));
  }
  SDW_ASSIGN_OR_RETURN(Key256 cluster_key, UnwrapClusterKey());
  SDW_ASSIGN_OR_RETURN(
      Key256 block_key,
      UnwrapKey(cluster_key, it->second.nonce, it->second.wrapped));
  Nonce96 data_nonce{};
  for (int i = 0; i < 8; ++i) {
    data_nonce[i] = static_cast<uint8_t>(id >> (8 * i));
  }
  data_nonce[11] = 0xd4;
  ChaCha20Xor(block_key, data_nonce, 1, &ciphertext);
  return ciphertext;
}

Status KeyHierarchy::RotateClusterKey() {
  common::MutexLock lock(mu_);
  SDW_ASSIGN_OR_RETURN(Key256 old_cluster_key, UnwrapClusterKey());
  Key256 new_cluster_key = GenerateKey();
  for (auto& [id, wrapped] : wrapped_block_keys_) {
    SDW_ASSIGN_OR_RETURN(
        Key256 block_key,
        UnwrapKey(old_cluster_key, wrapped.nonce, wrapped.wrapped));
    wrapped.nonce = NonceFromRng(&rng_);
    wrapped.wrapped = WrapKey(new_cluster_key, wrapped.nonce, block_key);
    ++rewrap_operations_;
  }
  SDW_ASSIGN_OR_RETURN(Key256 master, provider_->GetMasterKey());
  cluster_key_nonce_ = NonceFromRng(&rng_);
  wrapped_cluster_key_ = WrapKey(master, cluster_key_nonce_, new_cluster_key);
  ++rewrap_operations_;
  return Status::OK();
}

Status KeyHierarchy::RotateMasterKey(MasterKeyProvider* new_provider) {
  common::MutexLock lock(mu_);
  SDW_ASSIGN_OR_RETURN(Key256 cluster_key, UnwrapClusterKey());
  SDW_ASSIGN_OR_RETURN(Key256 new_master, new_provider->GetMasterKey());
  cluster_key_nonce_ = NonceFromRng(&rng_);
  wrapped_cluster_key_ = WrapKey(new_master, cluster_key_nonce_, cluster_key);
  provider_ = new_provider;
  ++rewrap_operations_;
  return Status::OK();
}

void KeyHierarchy::Repudiate() {
  common::MutexLock lock(mu_);
  repudiated_ = true;
  wrapped_cluster_key_.clear();
}

}  // namespace sdw::security
