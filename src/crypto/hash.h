#ifndef TDB_CRYPTO_HASH_H_
#define TDB_CRYPTO_HASH_H_

#include <array>
#include <cstdint>
#include <string>

#include "common/slice.h"

namespace tdb::crypto {

/// One-way hash functions available to the chunk store. The paper's
/// evaluation uses SHA-1; SHA-256 is provided as the modern alternative.
enum class HashKind : uint8_t {
  kSha1 = 1,
  kSha256 = 2,
};

/// Fixed-capacity digest value (20 bytes for SHA-1, 32 for SHA-256).
class Digest {
 public:
  static constexpr size_t kMaxSize = 32;

  Digest() : size_(0) { bytes_.fill(0); }
  Digest(const uint8_t* data, size_t size);

  const uint8_t* data() const { return bytes_.data(); }
  size_t size() const { return size_; }
  Slice AsSlice() const { return Slice(bytes_.data(), size_); }
  std::string ToHex() const;

  friend bool operator==(const Digest& a, const Digest& b) {
    return a.size_ == b.size_ && a.bytes_ == b.bytes_;
  }
  friend bool operator!=(const Digest& a, const Digest& b) {
    return !(a == b);
  }

 private:
  std::array<uint8_t, kMaxSize> bytes_;
  size_t size_;
};

/// Incremental hash computation: Update any number of times, then Finish.
/// A Hasher is single-use after Finish unless Reset is called.
class Hasher {
 public:
  virtual ~Hasher() = default;

  virtual void Reset() = 0;
  virtual void Update(Slice data) = 0;
  virtual Digest Finish() = 0;
  virtual size_t digest_size() const = 0;
};

/// Digest size in bytes for `kind` (20 or 32).
size_t DigestSize(HashKind kind);

/// One-shot convenience.
Digest Hash(HashKind kind, Slice data);
/// The hash of `prefix` followed by `data`, without joining them.
Digest Hash(HashKind kind, Slice prefix, Slice data);

}  // namespace tdb::crypto

#endif  // TDB_CRYPTO_HASH_H_
