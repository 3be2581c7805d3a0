#include "crypto/cbc.h"

#include <cstring>

#include "common/check.h"

namespace tdb::crypto {

namespace {

// CBC over whole blocks, through the cipher's batch kernel when it has one.
void CbcEncryptWhole(const BlockCipher& cipher, const uint8_t* iv,
                     const uint8_t* in, size_t n_blocks, uint8_t* out) {
  if (n_blocks == 0 || cipher.CbcEncryptBlocks(iv, in, n_blocks, out)) return;
  const size_t block = cipher.block_size();
  const uint8_t* chain = iv;
  for (size_t b = 0; b < n_blocks; b++) {
    uint8_t x[32];
    for (size_t i = 0; i < block; i++) x[i] = in[b * block + i] ^ chain[i];
    cipher.EncryptBlock(x, out + b * block);
    chain = out + b * block;
  }
}

void CbcDecryptWhole(const BlockCipher& cipher, const uint8_t* iv,
                     const uint8_t* in, size_t n_blocks, uint8_t* out) {
  if (n_blocks == 0 || cipher.CbcDecryptBlocks(iv, in, n_blocks, out)) return;
  const size_t block = cipher.block_size();
  const uint8_t* chain = iv;
  for (size_t b = 0; b < n_blocks; b++) {
    cipher.DecryptBlock(in + b * block, out + b * block);
    for (size_t i = 0; i < block; i++) out[b * block + i] ^= chain[i];
    chain = in + b * block;
  }
}

}  // namespace

size_t CbcCiphertextSize(const BlockCipher& cipher, size_t plain_size) {
  size_t block = cipher.block_size();
  return (plain_size / block + 1) * block;  // PKCS#7 always adds >= 1 byte.
}

Buffer CbcEncrypt(const BlockCipher& cipher, Slice iv, Slice plain) {
  Buffer out(CbcCiphertextSize(cipher, plain.size()));
  CbcEncryptTo(cipher, iv, plain, out.data());
  return out;
}

void CbcEncryptTo(const BlockCipher& cipher, Slice iv, Slice plain,
                  uint8_t* out) {
  const size_t block = cipher.block_size();
  TDB_CHECK(iv.size() == block, "IV must be one cipher block");
  TDB_CHECK(block <= 32, "cipher block too large");

  // The whole blocks of `plain` are encrypted where they lie; the last
  // block is the plaintext's tail plus its PKCS#7 pad.
  const size_t full = plain.size() / block;
  const size_t tail = plain.size() - full * block;
  const size_t pad = block - tail;
  uint8_t last[32];
  if (tail > 0) std::memcpy(last, plain.data() + full * block, tail);
  std::memset(last + tail, static_cast<int>(pad), pad);
  CbcEncryptWhole(cipher, iv.data(), plain.data(), full, out);
  const uint8_t* chain = full == 0 ? iv.data() : out + (full - 1) * block;
  CbcEncryptWhole(cipher, chain, last, 1, out + full * block);
}

void CbcCs3EncryptTo(const BlockCipher& cipher, Slice iv, Slice plain,
                     uint8_t* out) {
  const size_t block = cipher.block_size();
  TDB_CHECK(iv.size() == block, "IV must be one cipher block");
  TDB_CHECK(block <= 32, "cipher block too large");
  TDB_CHECK(plain.size() > block, "ciphertext stealing needs > one block");
  // n blocks in all; the last holds d bytes (1..block).
  const size_t n = (plain.size() + block - 1) / block;
  const size_t d = plain.size() - (n - 1) * block;
  // C1..C(n-1) by plain CBC; C(n-1) is kept aside, since its slot takes
  // Cn and only its first d bytes are sent, after Cn.
  CbcEncryptWhole(cipher, iv.data(), plain.data(), n - 1, out);
  uint8_t prev[32];
  std::memcpy(prev, out + (n - 2) * block, block);
  uint8_t last[32] = {};
  std::memcpy(last, plain.data() + (n - 1) * block, d);  // Zero padded.
  CbcEncryptWhole(cipher, prev, last, 1, out + (n - 2) * block);
  std::memcpy(out + (n - 1) * block, prev, d);
}

Result<Buffer> CbcCs3Decrypt(const BlockCipher& cipher, Slice iv,
                             Slice cipher_text) {
  const size_t block = cipher.block_size();
  TDB_CHECK(iv.size() == block, "IV must be one cipher block");
  if (cipher_text.size() <= block) {
    return Status::Corruption("stolen ciphertext not longer than a block");
  }
  const size_t n = (cipher_text.size() + block - 1) / block;
  const size_t d = cipher_text.size() - (n - 1) * block;
  const uint8_t* cn = cipher_text.data() + (n - 2) * block;
  const uint8_t* stolen = cipher_text.data() + (n - 1) * block;
  Buffer out(cipher_text.size());
  // D(Cn) = (Pn ‖ 0) ^ C(n-1): its first d bytes give Pn against the sent
  // part of C(n-1), its other bytes are the rest of C(n-1).
  uint8_t z[32];
  cipher.DecryptBlock(cn, z);
  uint8_t prev[32];
  std::memcpy(prev, stolen, d);
  std::memcpy(prev + d, z + d, block - d);
  for (size_t i = 0; i < d; i++) out[(n - 1) * block + i] = z[i] ^ stolen[i];
  CbcDecryptWhole(cipher, iv.data(), cipher_text.data(), n - 2, out.data());
  const uint8_t* chain =
      n == 2 ? iv.data() : cipher_text.data() + (n - 3) * block;
  CbcDecryptWhole(cipher, chain, prev, 1, out.data() + (n - 2) * block);
  return out;
}

Result<Buffer> CbcDecrypt(const BlockCipher& cipher, Slice iv,
                          Slice cipher_text) {
  const size_t block = cipher.block_size();
  TDB_CHECK(iv.size() == block, "IV must be one cipher block");
  if (cipher_text.size() == 0 || cipher_text.size() % block != 0) {
    return Status::Corruption("ciphertext not block-aligned");
  }

  Buffer out(cipher_text.size());
  CbcDecryptWhole(cipher, iv.data(), cipher_text.data(),
                  cipher_text.size() / block, out.data());

  uint8_t pad = out.back();
  if (pad == 0 || pad > block || pad > out.size()) {
    return Status::Corruption("bad CBC padding");
  }
  for (size_t i = out.size() - pad; i < out.size(); i++) {
    if (out[i] != pad) return Status::Corruption("bad CBC padding");
  }
  out.resize(out.size() - pad);
  return out;
}

}  // namespace tdb::crypto
