#include "crypto/cbc.h"

#include <cstring>

#include "common/check.h"

namespace tdb::crypto {

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
  uint8_t* last_out = out + full * block;

  if (full == 0 || cipher.CbcEncryptBlocks(iv.data(), plain.data(), full,
                                            out)) {
    const uint8_t* chain = full == 0 ? iv.data() : last_out - block;
    if (cipher.CbcEncryptBlocks(chain, last, 1, last_out)) return;
  }
  // Per-block path (no batch kernel): the same chaining, block by block.
  uint8_t chain[32];
  std::memcpy(chain, iv.data(), block);
  for (size_t b = 0; b <= full; b++) {
    const uint8_t* in = b < full ? plain.data() + b * block : last;
    uint8_t x[32];
    for (size_t i = 0; i < block; i++) x[i] = in[i] ^ chain[i];
    cipher.EncryptBlock(x, out + b * block);
    std::memcpy(chain, out + b * block, block);
  }
}

Result<Buffer> CbcDecrypt(const BlockCipher& cipher, Slice iv,
                          Slice cipher_text) {
  const size_t block = cipher.block_size();
  TDB_CHECK(iv.size() == block, "IV must be one cipher block");
  if (cipher_text.size() == 0 || cipher_text.size() % block != 0) {
    return Status::Corruption("ciphertext not block-aligned");
  }

  Buffer out(cipher_text.size());
  if (!cipher.CbcDecryptBlocks(iv.data(), cipher_text.data(),
                               cipher_text.size() / block, out.data())) {
    uint8_t chain[32];
    std::memcpy(chain, iv.data(), block);
    for (size_t off = 0; off < cipher_text.size(); off += block) {
      cipher.DecryptBlock(cipher_text.data() + off, out.data() + off);
      for (size_t i = 0; i < block; i++) out[off + i] ^= chain[i];
      std::memcpy(chain, cipher_text.data() + off, block);
    }
  }

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
