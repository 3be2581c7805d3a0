#include "crypto/cipher_suite.h"

#include <atomic>
#include <cstring>

#include "common/check.h"
#include "common/coding.h"
#include "crypto/cbc.h"

namespace tdb::crypto {

namespace {

// Derives a purpose-specific subkey from the master secret so the cipher
// key, the IV key and the MAC key are independent.
Buffer DeriveKey(Slice master, Slice purpose, size_t size) {
  Buffer out;
  uint8_t block_index = 0;
  while (out.size() < size) {
    Buffer label = purpose.ToBuffer();
    label.push_back(block_index++);
    Digest d = Hmac::Mac(HashKind::kSha256, master, label);
    out.insert(out.end(), d.data(), d.data() + d.size());
  }
  out.resize(size);
  return out;
}

std::atomic<CipherSuite::SealObserver> g_seal_observer{nullptr};

}  // namespace

CipherSuite::CipherSuite(const SecurityConfig& config, Slice master_secret,
                         Slice iv_seed)
    : config_(config) {
  if (!config_.enabled) return;
  TDB_CHECK(master_secret.size() > 0, "secure mode requires a master secret");
  mac_key_ = DeriveKey(master_secret, Slice("tdb-mac"), 32);
  if (config_.cipher != CipherKind::kNone) {
    const size_t key_size = CipherKeySize(config_.cipher);
    cipher_ = NewBlockCipher(config_.cipher,
                             DeriveKey(master_secret, Slice("tdb-enc"),
                                       key_size));
    Buffer purpose = Slice("tdb-seal-iv:").ToBuffer();
    purpose.insert(purpose.end(), iv_seed.data(),
                   iv_seed.data() + iv_seed.size());
    const Buffer iv_key = DeriveKey(master_secret, purpose, key_size);
    iv_cipher_ = NewBlockCipher(config_.cipher, iv_key);
    seal_key_id_ =
        DecodeFixed64(Hash(HashKind::kSha256, iv_key).data());
  }
  Buffer seed = DeriveKey(master_secret, Slice("tdb-iv"), 32);
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

void CipherSuite::SetSealObserver(SealObserver observer) {
  g_seal_observer.store(observer);
}

void CipherSuite::SealIv(uint64_t seal, uint8_t* iv) const {
  uint8_t block[kMaxIvSize] = {};
  for (int i = 0; i < 8; i++) block[i] = static_cast<uint8_t>(seal >> (8 * i));
  iv_cipher_->EncryptBlock(block, iv);
}

size_t CipherSuite::SealNumberSize(uint64_t seal) const {
  return iv_size() == 0 ? 0 : VarintLength(seal);
}

Buffer CipherSuite::SealNumbered(Slice plain, uint64_t seal) const {
  if (iv_size() == 0) return plain.ToBuffer();
  if (SealObserver observer = g_seal_observer.load()) {
    observer(seal_key_id_, seal);
  }
  uint8_t iv[kMaxIvSize];
  SealIv(seal, iv);
  const bool padded = PadsWhenStealing(plain.size());
  Buffer out;
  out.reserve(VarintLength(seal) + CbcCiphertextSize(*cipher_, plain.size()));
  PutVarint64(&out, seal);
  const size_t head = out.size();
  out.resize(head + (padded ? CbcCiphertextSize(*cipher_, plain.size())
                            : plain.size()));
  const Slice iv_slice(iv, cipher_->block_size());
  if (padded) {
    CbcEncryptTo(*cipher_, iv_slice, plain, out.data() + head);
  } else {
    CbcCs3EncryptTo(*cipher_, iv_slice, plain, out.data() + head);
  }
  return out;
}

Result<Buffer> CipherSuite::OpenNumbered(Slice sealed, bool padded) const {
  if (iv_size() == 0) return sealed.ToBuffer();
  Decoder dec(sealed);
  uint64_t seal;
  if (!dec.GetVarint64(&seal).ok()) {
    return Status::Corruption("truncated seal number");
  }
  const size_t head = sealed.size() - dec.remaining();
  const Slice cipher_text(sealed.data() + head, dec.remaining());
  if (cipher_text.size() < cipher_->block_size()) {
    return Status::Corruption("sealed chunk shorter than one block");
  }
  uint8_t iv[kMaxIvSize];
  SealIv(seal, iv);
  const Slice iv_slice(iv, cipher_->block_size());
  return padded ? CbcDecrypt(*cipher_, iv_slice, cipher_text)
                : CbcCs3Decrypt(*cipher_, iv_slice, cipher_text);
}

Buffer CipherSuite::Seal(Slice plain) {
  if (iv_size() == 0) return plain.ToBuffer();
  uint8_t iv[kMaxIvSize];
  iv_gen_->Generate(iv, cipher_->block_size());
  return SealWithIv(plain, Slice(iv, iv_size()));
}

size_t CipherSuite::iv_size() const {
  if (!config_.enabled || cipher_ == nullptr) return 0;
  return cipher_->block_size();
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
