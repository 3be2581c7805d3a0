#include "common/crc32c.h"

#include <atomic>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define TDB_CRC32C_X86 1
#include <nmmintrin.h>
#endif

namespace tdb {

namespace {

constexpr uint32_t kPoly = 0x82F63B78;  // Castagnoli, reflected.

// tables[k][b]: the CRC of byte b followed by k zero bytes.
struct Tables {
  uint32_t t[8][256];
  Tables() {
    for (uint32_t b = 0; b < 256; b++) {
      uint32_t crc = b;
      for (int bit = 0; bit < 8; bit++) {
        crc = (crc >> 1) ^ ((crc & 1) ? kPoly : 0);
      }
      t[0][b] = crc;
    }
    for (uint32_t b = 0; b < 256; b++) {
      for (int k = 1; k < 8; k++) {
        t[k][b] = (t[k - 1][b] >> 8) ^ t[0][t[k - 1][b] & 0xFF];
      }
    }
  }
};

const Tables& Table() {
  static const Tables tables;
  return tables;
}

// Slicing-by-8 over the raw (pre-inverted) register.
uint32_t PortableExtend(uint32_t crc, const uint8_t* p, size_t n) {
  const Tables& tb = Table();
  while (n >= 8) {
    uint64_t word;
    std::memcpy(&word, p, 8);
    word ^= crc;  // Little-endian: the low 4 bytes meet the register.
    crc = tb.t[7][word & 0xFF] ^ tb.t[6][(word >> 8) & 0xFF] ^
          tb.t[5][(word >> 16) & 0xFF] ^ tb.t[4][(word >> 24) & 0xFF] ^
          tb.t[3][(word >> 32) & 0xFF] ^ tb.t[2][(word >> 40) & 0xFF] ^
          tb.t[1][(word >> 48) & 0xFF] ^ tb.t[0][word >> 56];
    p += 8;
    n -= 8;
  }
  while (n-- > 0) crc = (crc >> 8) ^ tb.t[0][(crc ^ *p++) & 0xFF];
  return crc;
}

#if defined(TDB_CRC32C_X86)
__attribute__((target("sse4.2"))) uint32_t HardwareExtend(uint32_t crc,
                                                          const uint8_t* p,
                                                          size_t n) {
  uint64_t c = crc;
  while (n >= 8) {
    uint64_t word;
    std::memcpy(&word, p, 8);
    c = _mm_crc32_u64(c, word);
    p += 8;
    n -= 8;
  }
  uint32_t c32 = static_cast<uint32_t>(c);
  while (n-- > 0) c32 = _mm_crc32_u8(c32, *p++);
  return c32;
}
#endif

bool DetectSse42() {
#if defined(TDB_CRC32C_X86)
  return __builtin_cpu_supports("sse4.2");
#else
  return false;
#endif
}

std::atomic<bool>& AccelFlag() {
  static std::atomic<bool> enabled{DetectSse42()};
  return enabled;
}

}  // namespace

uint32_t Crc32cExtend(uint32_t crc, const uint8_t* data, size_t n) {
  crc = ~crc;
#if defined(TDB_CRC32C_X86)
  if (AccelFlag().load(std::memory_order_relaxed)) {
    return ~HardwareExtend(crc, data, n);
  }
#endif
  return ~PortableExtend(crc, data, n);
}

void SetCrc32cAccelForTesting(bool enabled) {
  AccelFlag().store(enabled && DetectSse42(), std::memory_order_relaxed);
}

}  // namespace tdb
