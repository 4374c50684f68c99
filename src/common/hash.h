#ifndef SDW_COMMON_HASH_H_
#define SDW_COMMON_HASH_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace sdw {

/// CRC32C (Castagnoli) over a byte range; used as the block checksum,
/// matching the storage-engine convention of RocksDB/Redshift blocks.
uint32_t Crc32c(const void* data, size_t n);

/// 64-bit mix hash (splitmix64 finalizer). Fast, good avalanche; used for
/// hash distribution of rows across slices and for hash-join tables.
/// Inline: the batch hash kernels call it once per value.
inline uint64_t Hash64(uint64_t value) {
  uint64_t z = value + 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// FNV-1a based string hash finished with the 64-bit mixer.
inline uint64_t Hash64(std::string_view value) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : value) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return Hash64(h);
}

/// Combines two hashes (boost::hash_combine style, 64-bit constants).
inline uint64_t HashCombine(uint64_t a, uint64_t b) {
  return a ^ (b + 0x9e3779b97f4a7c15ull + (a << 12) + (a >> 4));
}

}  // namespace sdw

#endif  // SDW_COMMON_HASH_H_
