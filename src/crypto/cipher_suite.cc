#include "crypto/cipher_suite.h"

#include <cstring>

#include "common/check.h"
#include "crypto/cbc.h"

namespace tdb::crypto {

namespace {

// Derives a purpose-specific subkey from the master secret so the cipher
// key and the MAC key are independent.
Buffer DeriveKey(Slice master, const char* purpose, size_t size) {
  Buffer out;
  uint8_t block_index = 0;
  while (out.size() < size) {
    Buffer label;
    label.insert(label.end(), purpose,
                 purpose + std::strlen(purpose));
    label.push_back(block_index++);
    Digest d = Hmac::Mac(HashKind::kSha256, master, label);
    out.insert(out.end(), d.data(), d.data() + d.size());
  }
  out.resize(size);
  return out;
}

}  // namespace

CipherSuite::CipherSuite(const SecurityConfig& config, Slice master_secret,
                         Slice iv_seed)
    : config_(config) {
  if (!config_.enabled) return;
  TDB_CHECK(master_secret.size() > 0, "secure mode requires a master secret");
  mac_key_ = DeriveKey(master_secret, "tdb-mac", 32);
  if (config_.cipher != CipherKind::kNone) {
    Buffer enc_key = DeriveKey(master_secret, "tdb-enc",
                               CipherKeySize(config_.cipher));
    cipher_ = NewBlockCipher(config_.cipher, enc_key);
  }
  Buffer seed = DeriveKey(master_secret, "tdb-iv", 32);
  seed.insert(seed.end(), iv_seed.data(), iv_seed.data() + iv_seed.size());
  iv_gen_ = std::make_unique<CtrDrbg>(seed);
}

size_t CipherSuite::hash_size() const {
  return config_.enabled ? DigestSize(config_.hash) : 0;
}

Digest CipherSuite::HashData(Slice data) const {
  if (!config_.enabled) return Digest();
  return Hash(config_.hash, data);
}

Digest CipherSuite::HashData(Slice prefix, Slice data) const {
  if (!config_.enabled) return Digest();
  return Hash(config_.hash, prefix, data);
}

Digest CipherSuite::Mac(Slice data) const {
  if (!config_.enabled) return Digest();
  return Hmac::Mac(config_.hash, mac_key_, data);
}

Buffer CipherSuite::Seal(Slice plain) {
  if (!config_.enabled || cipher_ == nullptr) return plain.ToBuffer();
  uint8_t iv[kMaxIvSize];
  NextIv(iv);
  return SealWithIv(plain, Slice(iv, iv_size()));
}

size_t CipherSuite::iv_size() const {
  if (!config_.enabled || cipher_ == nullptr) return 0;
  return cipher_->block_size();
}

void CipherSuite::NextIv(uint8_t* out) {
  if (!config_.enabled || cipher_ == nullptr) return;
  iv_gen_->Generate(out, cipher_->block_size());
}

void CipherSuite::ReseedIv(Slice material) {
  if (iv_gen_ != nullptr) iv_gen_->Reseed(material);
}

Buffer CipherSuite::SealWithIv(Slice plain, Slice iv) const {
  if (!config_.enabled || cipher_ == nullptr) return plain.ToBuffer();
  TDB_CHECK(iv.size() == cipher_->block_size(),
            "IV must be exactly one cipher block");
  Buffer out(SealedSize(plain.size()));
  std::memcpy(out.data(), iv.data(), iv.size());
  CbcEncryptTo(*cipher_, iv, plain, out.data() + iv.size());
  return out;
}

bool CipherSuite::PadsWhenStealing(size_t plain_size) const {
  return iv_size() > 0 && plain_size <= iv_size();
}

Buffer CipherSuite::SealStealing(Slice plain, Slice iv) const {
  if (iv_size() == 0 || PadsWhenStealing(plain.size())) {
    return SealWithIv(plain, iv);
  }
  TDB_CHECK(iv.size() == cipher_->block_size(),
            "IV must be exactly one cipher block");
  Buffer out(iv.size() + plain.size());
  std::memcpy(out.data(), iv.data(), iv.size());
  CbcCs3EncryptTo(*cipher_, iv, plain, out.data() + iv.size());
  return out;
}

Result<Buffer> CipherSuite::Open(Slice sealed) const {
  return Open(sealed, /*padded=*/true);
}

Result<Buffer> CipherSuite::Open(Slice sealed, bool padded) const {
  if (!config_.enabled || cipher_ == nullptr) return sealed.ToBuffer();
  size_t block = cipher_->block_size();
  if (sealed.size() < 2 * block) {
    return Status::Corruption("sealed chunk shorter than IV + one block");
  }
  Slice iv(sealed.data(), block);
  Slice cipher_text(sealed.data() + block, sealed.size() - block);
  return padded ? CbcDecrypt(*cipher_, iv, cipher_text)
                : CbcCs3Decrypt(*cipher_, iv, cipher_text);
}

size_t CipherSuite::SealedSize(size_t plain_size) const {
  if (!config_.enabled || cipher_ == nullptr) return plain_size;
  return cipher_->block_size() + CbcCiphertextSize(*cipher_, plain_size);
}

}  // namespace tdb::crypto
