#include "workload/workload.h"

#include "common/coding.h"
#include "common/random.h"

namespace tdb::workload {

Buffer ValuePayload(uint64_t seed, uint32_t size) {
  Random rng(seed);
  Buffer payload;
  rng.Fill(&payload, size);
  const size_t half = payload.size() / 2;
  for (size_t i = half; i < payload.size(); i++) {
    payload[i] = payload[i - half];
  }
  return payload;
}

Buffer KeyedImage(uint64_t key, const Buffer& bytes) {
  Buffer image;
  image.reserve(8 + bytes.size());
  PutFixed64(&image, key);
  image.insert(image.end(), bytes.begin(), bytes.end());
  return image;
}

}  // namespace tdb::workload
