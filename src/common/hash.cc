#include "common/hash.h"

#include <cstring>

namespace sdw {

namespace {

// Slicing-by-8 CRC32C tables (polynomial 0x82f63b78), generated at
// first use. Table k folds a byte that is k positions ahead.
struct Crc32cTables {
  uint32_t table[8][256];
  Crc32cTables() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int j = 0; j < 8; ++j) {
        crc = (crc >> 1) ^ ((crc & 1) ? 0x82f63b78u : 0);
      }
      table[0][i] = crc;
    }
    for (int k = 1; k < 8; ++k) {
      for (uint32_t i = 0; i < 256; ++i) {
        table[k][i] =
            (table[k - 1][i] >> 8) ^ table[0][table[k - 1][i] & 0xff];
      }
    }
  }
};

const Crc32cTables& GetCrcTables() {
  static const Crc32cTables& t = *new Crc32cTables();
  return t;
}

}  // namespace

uint32_t Crc32c(const void* data, size_t n) {
  const auto* p = static_cast<const uint8_t*>(data);
  const Crc32cTables& t = GetCrcTables();
  uint32_t crc = 0xffffffffu;
  // 8 bytes per iteration through the sliced tables.
  while (n >= 8) {
    uint32_t low;
    uint32_t high;
    std::memcpy(&low, p, 4);
    std::memcpy(&high, p + 4, 4);
    low ^= crc;
    crc = t.table[7][low & 0xff] ^ t.table[6][(low >> 8) & 0xff] ^
          t.table[5][(low >> 16) & 0xff] ^ t.table[4][low >> 24] ^
          t.table[3][high & 0xff] ^ t.table[2][(high >> 8) & 0xff] ^
          t.table[1][(high >> 16) & 0xff] ^ t.table[0][high >> 24];
    p += 8;
    n -= 8;
  }
  while (n-- > 0) {
    crc = (crc >> 8) ^ t.table[0][(crc ^ *p++) & 0xff];
  }
  return crc ^ 0xffffffffu;
}

}  // namespace sdw
