#ifndef SDW_COMMON_BYTES_H_
#define SDW_COMMON_BYTES_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

namespace sdw {

/// Raw byte buffer used by encodings, blocks and the object store.
using Bytes = std::vector<uint8_t>;

/// Little-endian fixed-width append/read helpers plus LEB128 varints.
/// These are free functions (not a stream class) so encoders can mix
/// direct buffer writes with helper calls.

inline void PutFixed32(Bytes* dst, uint32_t v) {
  uint8_t buf[4];
  std::memcpy(buf, &v, 4);
  dst->insert(dst->end(), buf, buf + 4);
}

inline void PutFixed64(Bytes* dst, uint64_t v) {
  uint8_t buf[8];
  std::memcpy(buf, &v, 8);
  dst->insert(dst->end(), buf, buf + 8);
}

inline uint32_t GetFixed32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

inline uint64_t GetFixed64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

/// Appends v as a LEB128 varint (1-10 bytes).
void PutVarint64(Bytes* dst, uint64_t v);

/// Reads a varint at *pos, advancing *pos. Returns false on truncation.
bool GetVarint64(const Bytes& src, size_t* pos, uint64_t* out);

/// ZigZag transform so small negative numbers stay small as varints.
inline uint64_t ZigZagEncode(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}
inline int64_t ZigZagDecode(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

/// Appends a length-prefixed string.
void PutLengthPrefixed(Bytes* dst, std::string_view s);

/// Reads a length-prefixed string at *pos as a view into `src`. Returns
/// false on truncation.
bool GetLengthPrefixedView(const Bytes& src, size_t* pos,
                           std::string_view* out);

/// Reads a length-prefixed string at *pos. Returns false on truncation.
bool GetLengthPrefixed(const Bytes& src, size_t* pos, std::string* out);

}  // namespace sdw

#endif  // SDW_COMMON_BYTES_H_
