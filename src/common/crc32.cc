#include "common/crc32.h"

#include <array>

namespace msq {

namespace {

constexpr uint32_t kPoly = 0xedb88320u;

// Slicing-by-8 (Kounavis & Berry): kTables[0] is the classic bytewise
// table; kTables[j][i] is the CRC of byte i followed by j zero bytes, so
// eight table lookups fold eight input bytes at once. Same polynomial and
// bit order as the bytewise loop, hence bit-identical results for every
// length, alignment and seed.
using CrcTables = std::array<std::array<uint32_t, 256>, 8>;

constexpr CrcTables MakeTables() {
  CrcTables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? (kPoly ^ (c >> 1)) : (c >> 1);
    }
    t[0][i] = c;
  }
  for (size_t j = 1; j < t.size(); ++j) {
    for (uint32_t i = 0; i < 256; ++i) {
      t[j][i] = (t[j - 1][i] >> 8) ^ t[0][t[j - 1][i] & 0xffu];
    }
  }
  return t;
}

constexpr CrcTables kTables = MakeTables();

// Little-endian 32-bit load, independent of host byte order and alignment
// (compiles to one unaligned load on little-endian targets).
inline uint32_t LoadLe32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

}  // namespace

uint32_t Crc32(const void* data, size_t len, uint32_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint32_t c = seed ^ 0xffffffffu;
  for (; len >= 8; p += 8, len -= 8) {
    const uint32_t lo = c ^ LoadLe32(p);
    const uint32_t hi = LoadLe32(p + 4);
    c = kTables[7][lo & 0xffu] ^ kTables[6][(lo >> 8) & 0xffu] ^
        kTables[5][(lo >> 16) & 0xffu] ^ kTables[4][lo >> 24] ^
        kTables[3][hi & 0xffu] ^ kTables[2][(hi >> 8) & 0xffu] ^
        kTables[1][(hi >> 16) & 0xffu] ^ kTables[0][hi >> 24];
  }
  for (; len > 0; ++p, --len) {
    c = kTables[0][(c ^ *p) & 0xffu] ^ (c >> 8);
  }
  return c ^ 0xffffffffu;
}

}  // namespace msq
