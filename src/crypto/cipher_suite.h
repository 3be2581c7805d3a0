#ifndef TDB_CRYPTO_CIPHER_SUITE_H_
#define TDB_CRYPTO_CIPHER_SUITE_H_

#include <memory>

#include "common/result.h"
#include "common/slice.h"
#include "crypto/block_cipher.h"
#include "crypto/drbg.h"
#include "crypto/hash.h"
#include "crypto/hmac.h"

namespace tdb::crypto {

/// Security configuration of a TDB instance. The paper's three measured
/// configurations map to:
///   - "TDB"    : enabled = false (no hashing, no encryption, no counter)
///   - "TDB-S"  : enabled, kSha1 + kDes3 (the paper's choice)
///   - modern   : enabled, kSha256 + kAes128
struct SecurityConfig {
  bool enabled = true;
  HashKind hash = HashKind::kSha1;
  CipherKind cipher = CipherKind::kDes3;

  static SecurityConfig Disabled() { return {.enabled = false}; }
  static SecurityConfig PaperTdbS() {
    return {.enabled = true, .hash = HashKind::kSha1,
            .cipher = CipherKind::kDes3};
  }
  static SecurityConfig Modern() {
    return {.enabled = true, .hash = HashKind::kSha256,
            .cipher = CipherKind::kAes128};
  }
};

/// Bundles the hash, MAC and cipher operations the chunk store needs,
/// with encryption and MAC keys derived from the master secret held in the
/// secret store. When security is disabled, sealing is a pass-through and
/// hashes are empty (the paper's plain-TDB configuration, which still
/// detects *accidental* corruption via log checksums but offers no defense
/// against an intelligent attacker).
///
/// THREAD SAFETY: after construction, every const member (HashData, Mac,
/// Open, SealWithIv, SealedSize, hash_size) is safe to call concurrently —
/// the key schedules are immutable and each call keeps its working state
/// on the stack. Only Seal()/NextIv()/ReseedIv() mutate (they advance or
/// reseed the IV generator) and need external serialization. The chunk
/// store's parallel commit pipeline relies on this split: IVs are drawn
/// serially in submission order, then SealWithIv/HashData fan out across
/// threads, producing output bit-identical to the serial path.
class CipherSuite {
 public:
  /// `master_secret` comes from the SecretStore; `iv_seed` seeds the IV
  /// generator (pass varying bytes in production, a constant in tests).
  CipherSuite(const SecurityConfig& config, Slice master_secret,
              Slice iv_seed);

  bool enabled() const { return config_.enabled; }
  const SecurityConfig& config() const { return config_; }

  /// Bytes of hash stored per location-map entry (0 when disabled).
  size_t hash_size() const;

  /// One-way hash of chunk/record contents for the Merkle tree. Empty
  /// digest when disabled.
  Digest HashData(Slice data) const;
  /// HashData of `prefix` followed by `data`.
  Digest HashData(Slice prefix, Slice data) const;

  /// Keyed MAC for the anchor record. Falls back to an (unkeyed) digest of
  /// nothing when disabled — the anchor then carries only a checksum.
  Digest Mac(Slice data) const;

  /// Encrypts `plain` into IV || ciphertext (pass-through when disabled).
  /// Equivalent to SealWithIv(plain, NextIv()).
  Buffer Seal(Slice plain);

  /// Bytes of IV per sealed chunk: one cipher block, 0 when encryption is
  /// off. At most kMaxIvSize.
  size_t iv_size() const;
  static constexpr size_t kMaxIvSize = 16;

  /// Draws the next IV into `out` (iv_size() bytes; nothing when
  /// encryption is off). Mutates the generator — serialize calls, and draw
  /// in a deterministic order if reproducible output matters.
  void NextIv(uint8_t* out);

  /// Mixes `material` into the IV generator's seed (see CtrDrbg::Reseed).
  /// A store reopening an existing log passes state no earlier session
  /// sealed under, so it never draws an IV a previous session drew.
  void ReseedIv(Slice material);

  /// Seals under a caller-supplied IV of exactly one cipher block (ignored
  /// and pass-through when encryption is off) into one buffer: the IV,
  /// then the ciphertext encrypted in place. Const and safe to call from
  /// multiple threads concurrently.
  Buffer SealWithIv(Slice plain, Slice iv) const;

  /// Whether SealStealing pads a plaintext of `plain_size` bytes: with
  /// encryption on, a plaintext of at most one block has nothing to steal
  /// from and keeps PKCS#7 padding.
  bool PadsWhenStealing(size_t plain_size) const;

  /// Seals like SealWithIv, except that a plaintext longer than one block
  /// is encrypted with CBC ciphertext stealing (CS3), so the ciphertext is
  /// as long as the plaintext. Log format v2 seals every record this way
  /// and records PadsWhenStealing in the record's flags, since the sealed
  /// length alone cannot tell a padded block from a stolen pair.
  Buffer SealStealing(Slice plain, Slice iv) const;

  /// Inverse of Seal. Corruption on malformed input.
  Result<Buffer> Open(Slice sealed) const;
  /// Inverse of SealStealing: `padded` is what PadsWhenStealing said.
  Result<Buffer> Open(Slice sealed, bool padded) const;

  /// Size Seal() will produce for `plain_size` input bytes.
  size_t SealedSize(size_t plain_size) const;

 private:
  SecurityConfig config_;
  Buffer mac_key_;
  std::unique_ptr<BlockCipher> cipher_;
  std::unique_ptr<CtrDrbg> iv_gen_;
};

}  // namespace tdb::crypto

#endif  // TDB_CRYPTO_CIPHER_SUITE_H_
