#ifndef TDB_COMMON_CRC32C_H_
#define TDB_COMMON_CRC32C_H_

#include <cstddef>
#include <cstdint>

#include "common/slice.h"

namespace tdb {

/// CRC-32C (Castagnoli, reflected polynomial 0x82F63B78), the checksum of
/// log-format-v2 record frames. Detects torn and garbled bytes; it is not
/// a defence against an attacker, who can recompute it (the record hashes
/// and commit MACs are).
///
/// Runs on the SSE4.2 crc32 instruction when the CPU has it, chosen at run
/// time by cpuid, and on a portable slicing-by-8 table otherwise. Both give
/// the same value for the same input.

/// Extends `crc` (the value returned for the bytes before `data`, 0 for
/// none) over `data`: Crc32cExtend(Crc32c(a), b) == Crc32c(a ‖ b).
uint32_t Crc32cExtend(uint32_t crc, const uint8_t* data, size_t n);

inline uint32_t Crc32c(Slice data) {
  return Crc32cExtend(0, data.data(), data.size());
}

/// Forces the portable table (false) or restores hardware dispatch (true,
/// still masked by cpuid), so tests run both paths on one machine.
void SetCrc32cAccelForTesting(bool enabled);

}  // namespace tdb

#endif  // TDB_COMMON_CRC32C_H_
