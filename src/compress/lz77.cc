#include "compress/lz77.h"

#include <algorithm>
#include <cstring>
#include <vector>

namespace sdw::compress {

namespace {
constexpr size_t kWindow = 64 * 1024;
constexpr size_t kMinMatch = 4;
constexpr size_t kMaxMatch = 255 + kMinMatch;
constexpr uint32_t kHashBits = 15;

inline uint32_t HashQuad(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return (v * 2654435761u) >> (32 - kHashBits);
}
}  // namespace

void Lz77Compress(const Bytes& input, Bytes* out) {
  PutVarint64(out, input.size());
  if (input.empty()) return;

  std::vector<int64_t> head(1u << kHashBits, -1);
  const uint8_t* data = input.data();
  const size_t n = input.size();

  size_t literal_start = 0;
  size_t i = 0;
  auto flush_literals = [&](size_t end) {
    PutVarint64(out, end - literal_start);
    out->insert(out->end(), data + literal_start, data + end);
  };

  while (i < n) {
    size_t best_len = 0;
    size_t best_dist = 0;
    if (i + kMinMatch <= n) {
      uint32_t h = HashQuad(data + i);
      int64_t cand = head[h];
      if (cand >= 0 && i - static_cast<size_t>(cand) <= kWindow) {
        const size_t dist = i - static_cast<size_t>(cand);
        size_t len = 0;
        const size_t max_len = std::min(kMaxMatch, n - i);
        while (len < max_len && data[cand + len] == data[i + len]) ++len;
        if (len >= kMinMatch) {
          best_len = len;
          best_dist = dist;
        }
      }
      head[h] = static_cast<int64_t>(i);
    }
    if (best_len > 0) {
      flush_literals(i);
      PutVarint64(out, best_len);
      PutVarint64(out, best_dist);
      // Index positions inside the match so later data can find them.
      const size_t match_end = i + best_len;
      for (size_t j = i + 1; j + kMinMatch <= n && j < match_end; ++j) {
        head[HashQuad(data + j)] = static_cast<int64_t>(j);
      }
      i = match_end;
      literal_start = i;
    } else {
      ++i;
    }
  }
  if (literal_start < n || literal_start == n) {
    flush_literals(n);
    PutVarint64(out, 0);  // terminating "no match"
    PutVarint64(out, 0);
  }
}

Result<Bytes> Lz77Decompress(const Bytes& input) {
  size_t pos = 0;
  uint64_t expected = 0;
  if (!GetVarint64(input, &pos, &expected)) {
    return Status::Corruption("lz77: truncated header");
  }
  Bytes out;
  // A damaged header may claim any size: reserve no more than a large
  // block needs, and let the checks below stop the stream.
  out.reserve(std::min<uint64_t>(expected, uint64_t{1} << 24));
  while (out.size() < expected) {
    uint64_t lit_len = 0;
    if (!GetVarint64(input, &pos, &lit_len)) {
      return Status::Corruption("lz77: truncated literal length");
    }
    // GetVarint64 leaves pos <= input.size(), so no subtraction wraps.
    if (lit_len > input.size() - pos || lit_len > expected - out.size()) {
      return Status::Corruption("lz77: literal overrun");
    }
    out.insert(out.end(), input.begin() + pos, input.begin() + pos + lit_len);
    pos += lit_len;
    if (out.size() == expected) break;
    uint64_t match_len = 0;
    uint64_t dist = 0;
    if (!GetVarint64(input, &pos, &match_len) ||
        !GetVarint64(input, &pos, &dist)) {
      return Status::Corruption("lz77: truncated match");
    }
    if (match_len == 0) continue;
    if (dist == 0 || dist > out.size() || match_len > expected - out.size()) {
      return Status::Corruption("lz77: bad match");
    }
    size_t src = out.size() - dist;
    for (uint64_t k = 0; k < match_len; ++k) {
      out.push_back(out[src + k]);  // overlapping copies are valid
    }
  }
  return out;
}

}  // namespace sdw::compress
