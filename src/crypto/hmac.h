#ifndef TDB_CRYPTO_HMAC_H_
#define TDB_CRYPTO_HMAC_H_

#include <variant>

#include "crypto/hash.h"
#include "crypto/sha1.h"
#include "crypto/sha256.h"

namespace tdb::crypto {

/// HMAC (RFC 2104) over either hash. The chunk store MACs its anchor record
/// with HMAC(secret key) so an attacker without the secret store cannot
/// forge a valid anchor.
class Hmac {
 public:
  Hmac(HashKind kind, Slice key);

  void Reset();
  void Update(Slice data);
  Digest Finish();

  /// One-shot convenience.
  static Digest Mac(HashKind kind, Slice key, Slice data);

 private:
  // The hasher of `kind`, held by value: a MAC costs no heap allocation.
  using AnyHasher = std::variant<Sha1, Sha256>;
  static AnyHasher MakeHasher(HashKind kind);

  uint8_t ipad_[64];
  uint8_t opad_[64];
  AnyHasher inner_;
};

}  // namespace tdb::crypto

#endif  // TDB_CRYPTO_HMAC_H_
