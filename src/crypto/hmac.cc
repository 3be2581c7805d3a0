#include "crypto/hmac.h"

#include <cstring>

namespace tdb::crypto {

namespace {
constexpr size_t kBlockSize = 64;  // SHA-1 and SHA-256 share a 64B block.
}  // namespace

Hmac::AnyHasher Hmac::MakeHasher(HashKind kind) {
  if (kind == HashKind::kSha1) return AnyHasher(std::in_place_type<Sha1>);
  return AnyHasher(std::in_place_type<Sha256>);
}

Hmac::Hmac(HashKind kind, Slice key)
    : inner_(MakeHasher(kind)) {
  uint8_t key_block[kBlockSize] = {0};
  if (key.size() > kBlockSize) {
    Digest d = Hash(kind, key);
    std::memcpy(key_block, d.data(), d.size());
  } else {
    std::memcpy(key_block, key.data(), key.size());
  }
  for (size_t i = 0; i < kBlockSize; i++) {
    ipad_[i] = key_block[i] ^ 0x36;
    opad_[i] = key_block[i] ^ 0x5c;
  }
  Reset();
}

void Hmac::Reset() {
  std::visit(
      [this](auto& h) {
        h.Reset();
        h.Update(Slice(ipad_, kBlockSize));
      },
      inner_);
}

void Hmac::Update(Slice data) {
  std::visit([data](auto& h) { h.Update(data); }, inner_);
}

Digest Hmac::Finish() {
  return std::visit(
      [this](auto& inner) {
        Digest inner_digest = inner.Finish();
        std::remove_reference_t<decltype(inner)> outer;
        outer.Update(Slice(opad_, kBlockSize));
        outer.Update(inner_digest.AsSlice());
        return outer.Finish();
      },
      inner_);
}

Digest Hmac::Mac(HashKind kind, Slice key, Slice data) {
  Hmac mac(kind, key);
  mac.Update(data);
  return mac.Finish();
}

}  // namespace tdb::crypto
