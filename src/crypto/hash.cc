#include "crypto/hash.h"

#include <cstring>

#include "common/check.h"
#include "common/coding.h"
#include "crypto/sha1.h"
#include "crypto/sha256.h"

namespace tdb::crypto {

Digest::Digest(const uint8_t* data, size_t size) : size_(size) {
  TDB_CHECK(size <= kMaxSize);
  bytes_.fill(0);
  if (size > 0) std::memcpy(bytes_.data(), data, size);
}

std::string Digest::ToHex() const { return tdb::ToHex(AsSlice()); }

size_t DigestSize(HashKind kind) {
  return kind == HashKind::kSha1 ? Sha1::kDigestSize : Sha256::kDigestSize;
}

Digest Hash(HashKind kind, Slice data) { return Hash(kind, Slice(), data); }

Digest Hash(HashKind kind, Slice prefix, Slice data) {
  // Hashers live on the stack: this runs once per sealed chunk.
  if (kind == HashKind::kSha1) {
    Sha1 hasher;
    hasher.Update(prefix);
    hasher.Update(data);
    return hasher.Finish();
  }
  TDB_CHECK(kind == HashKind::kSha256, "unknown HashKind");
  Sha256 hasher;
  hasher.Update(prefix);
  hasher.Update(data);
  return hasher.Finish();
}

}  // namespace tdb::crypto
