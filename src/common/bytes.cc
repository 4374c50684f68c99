#include "common/bytes.h"

namespace sdw {

void PutVarint64(Bytes* dst, uint64_t v) {
  while (v >= 0x80) {
    dst->push_back(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  dst->push_back(static_cast<uint8_t>(v));
}

bool GetVarint64(const Bytes& src, size_t* pos, uint64_t* out) {
  uint64_t result = 0;
  int shift = 0;
  while (*pos < src.size() && shift <= 63) {
    uint8_t byte = src[*pos];
    ++(*pos);
    result |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      *out = result;
      return true;
    }
    shift += 7;
  }
  return false;
}

void PutLengthPrefixed(Bytes* dst, std::string_view s) {
  PutVarint64(dst, s.size());
  dst->insert(dst->end(), s.begin(), s.end());
}

bool GetLengthPrefixedView(const Bytes& src, size_t* pos,
                           std::string_view* out) {
  uint64_t len = 0;
  // GetVarint64 leaves *pos <= src.size(), so the subtraction cannot wrap
  // (and a huge length cannot wrap *pos + len past the check).
  if (!GetVarint64(src, pos, &len) || len > src.size() - *pos) return false;
  *out = {reinterpret_cast<const char*>(src.data()) + *pos, len};
  *pos += len;
  return true;
}

bool GetLengthPrefixed(const Bytes& src, size_t* pos, std::string* out) {
  std::string_view view;
  if (!GetLengthPrefixedView(src, pos, &view)) return false;
  out->assign(view);
  return true;
}

}  // namespace sdw
