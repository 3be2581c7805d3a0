#ifndef TDB_CRYPTO_CBC_H_
#define TDB_CRYPTO_CBC_H_

#include "common/result.h"
#include "common/slice.h"
#include "common/status.h"
#include "crypto/block_cipher.h"

namespace tdb::crypto {

/// CBC mode with PKCS#7 padding over any BlockCipher. The padding is what
/// produces the per-chunk "padding for block encryption" storage overhead
/// the paper measures for TDB-S.

/// Ciphertext length for a plaintext of `plain_size` bytes (padded up to the
/// next whole block, IV not included).
size_t CbcCiphertextSize(const BlockCipher& cipher, size_t plain_size);

/// Encrypts `plain` under `iv` (must be one block). Output = padded
/// ciphertext; the caller stores the IV alongside.
Buffer CbcEncrypt(const BlockCipher& cipher, Slice iv, Slice plain);

/// CbcEncrypt into caller memory: writes CbcCiphertextSize(cipher,
/// plain.size()) bytes at `out`, which must not overlap `plain`. Only the
/// final, padded block is staged (on the stack); the plaintext is not
/// copied.
void CbcEncryptTo(const BlockCipher& cipher, Slice iv, Slice plain,
                  uint8_t* out);

/// Decrypts and strips padding. Returns Corruption on malformed input or
/// bad padding (which, combined with the Merkle check above it, surfaces
/// tampering).
Result<Buffer> CbcDecrypt(const BlockCipher& cipher, Slice iv, Slice cipher_text);

/// CBC with ciphertext stealing, variant CS3 (NIST SP 800-38A Addendum):
/// the ciphertext is exactly as long as the plaintext, which must be
/// longer than one block (shorter plaintexts have nothing to steal from).
/// The last two ciphertext blocks are always swapped, and the final one is
/// cut to the length of the plaintext's last partial (or whole) block.
void CbcCs3EncryptTo(const BlockCipher& cipher, Slice iv, Slice plain,
                     uint8_t* out);

/// Inverse of CbcCs3EncryptTo. Corruption if `cipher_text` is not longer
/// than one block.
Result<Buffer> CbcCs3Decrypt(const BlockCipher& cipher, Slice iv,
                             Slice cipher_text);

}  // namespace tdb::crypto

#endif  // TDB_CRYPTO_CBC_H_
