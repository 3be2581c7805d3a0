#ifndef TDB_CRYPTO_DRBG_H_
#define TDB_CRYPTO_DRBG_H_

#include <cstdint>

#include "common/slice.h"
#include "crypto/hash.h"

namespace tdb::crypto {

/// Deterministic random bit generator: SHA-256 in counter mode over a seed.
/// Supplies the stored IVs of backup archives. Deterministic from its seed, which keeps crash/
/// recovery tests reproducible; a production deployment would seed it from
/// the platform entropy source at boot.
class CtrDrbg {
 public:
  explicit CtrDrbg(Slice seed);

  /// Fills `out` with n pseudo-random bytes.
  void Generate(uint8_t* out, size_t n);
  Buffer Generate(size_t n);

 private:
  Digest seed_;
  uint64_t counter_ = 0;
};

}  // namespace tdb::crypto

#endif  // TDB_CRYPTO_DRBG_H_
