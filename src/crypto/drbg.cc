#include "crypto/drbg.h"

#include <cstring>

#include "crypto/sha256.h"

namespace tdb::crypto {

CtrDrbg::CtrDrbg(Slice seed) { seed_ = Hash(HashKind::kSha256, seed); }

void CtrDrbg::Generate(uint8_t* out, size_t n) {
  // Block input: seed || little-endian counter, built on the stack.
  uint8_t input[Sha256::kDigestSize + 8];
  std::memcpy(input, seed_.data(), Sha256::kDigestSize);
  while (n > 0) {
    uint64_t counter = counter_++;
    for (int i = 0; i < 8; i++) {
      input[Sha256::kDigestSize + i] = static_cast<uint8_t>(counter >> (8 * i));
    }
    Sha256 hasher;
    hasher.Update(Slice(input, sizeof(input)));
    Digest block = hasher.Finish();
    size_t take = std::min(n, block.size());
    std::memcpy(out, block.data(), take);
    out += take;
    n -= take;
  }
}

Buffer CtrDrbg::Generate(size_t n) {
  Buffer out(n);
  Generate(out.data(), n);
  return out;
}

}  // namespace tdb::crypto
