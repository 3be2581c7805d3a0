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
/// Two ways to seal:
///  - SealNumbered (log format v3, the chunk store): the caller names a
///    seal number s, and the IV is E_k'(s) under an IV key k' derived
///    from the master secret and `iv_seed` (NIST SP 800-38A, Appendix C,
///    first method). Only varint(s) is stored. The caller keeps every s
///    unique for its k'.
///  - Seal (backup archives, and the v1/v2 log records the upgrade reads):
///    a stored IV drawn from a DRBG, in front of the ciphertext.
///
/// THREAD SAFETY: after construction, every const member (HashData, Mac,
/// SealNumbered, Open*, SealStealing, SealedSize, hash_size)
/// is safe to call concurrently: the key schedules are immutable and each
/// call keeps its working state on the stack. Only Seal() mutates (it
/// advances the IV generator) and needs external serialization.
class CipherSuite {
 public:
  /// `master_secret` comes from the SecretStore; `iv_seed` salts the IV
  /// key k' of SealNumbered and seeds Seal's IV generator (stores that
  /// share a master secret pass distinct seeds).
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

  /// Seals `plain` under seal number `seal` into varint(seal) ‖
  /// ciphertext: CBC with ciphertext stealing (CS3) above one block, so
  /// the ciphertext is as long as the plaintext, and PKCS#7 padding up to
  /// one block (PadsWhenStealing). Pass-through when encryption is off.
  Buffer SealNumbered(Slice plain, uint64_t seal) const;
  /// Inverse of SealNumbered: `padded` is what PadsWhenStealing said.
  /// Corruption on malformed input.
  Result<Buffer> OpenNumbered(Slice sealed, bool padded) const;
  /// Bytes in front of a SealNumbered ciphertext: the seal number's varint
  /// (0 when encryption is off).
  size_t SealNumberSize(uint64_t seal) const;

  /// A fingerprint of k' (0 when encryption is off): two suites derive the
  /// same IVs from the same seal numbers iff their ids are equal.
  uint64_t seal_key_id() const { return seal_key_id_; }

  /// Test seam: when set, every SealNumbered call reports (seal_key_id(),
  /// seal) to `observer`, on the sealing thread, before it encrypts.
  using SealObserver = void (*)(uint64_t key_id, uint64_t seal);
  static void SetSealObserver(SealObserver observer);

  /// Encrypts `plain` into IV || ciphertext under a fresh IV from the
  /// generator (pass-through when disabled).
  Buffer Seal(Slice plain);

  /// Bytes of one cipher block: a stored IV, 0 when encryption is off. At
  /// most kMaxIvSize.
  size_t iv_size() const;
  static constexpr size_t kMaxIvSize = 16;

  /// Whether a plaintext of `plain_size` bytes is sealed with PKCS#7
  /// padding rather than ciphertext stealing: with encryption on, a
  /// plaintext of at most one block has nothing to steal from.
  bool PadsWhenStealing(size_t plain_size) const;

  /// Seals under a caller-supplied IV of exactly one cipher block into
  /// IV || ciphertext, as log format v2 stored it: PKCS#7 padding up to
  /// one block, CBC ciphertext stealing (CS3) above it. The sealed length alone cannot tell a padded block from a
  /// stolen pair, so the caller records PadsWhenStealing.
  Buffer SealStealing(Slice plain, Slice iv) const;

  /// Inverse of Seal. Corruption on malformed input.
  Result<Buffer> Open(Slice sealed) const;
  /// Inverse of SealStealing: `padded` is what PadsWhenStealing said.
  Result<Buffer> Open(Slice sealed, bool padded) const;

  /// Size Seal() will produce for `plain_size` input bytes.
  size_t SealedSize(size_t plain_size) const;

 private:
  // The IV of seal number `seal`: E_k'(seal, zero-padded to a block).
  void SealIv(uint64_t seal, uint8_t* iv) const;
  // Seals under `iv` (one cipher block) into IV || padded ciphertext.
  Buffer SealWithIv(Slice plain, Slice iv) const;

  SecurityConfig config_;
  Buffer mac_key_;
  std::unique_ptr<BlockCipher> cipher_;
  std::unique_ptr<BlockCipher> iv_cipher_;  // Keyed with k'.
  uint64_t seal_key_id_ = 0;
  std::unique_ptr<CtrDrbg> iv_gen_;
};

}  // namespace tdb::crypto

#endif  // TDB_CRYPTO_CIPHER_SUITE_H_
