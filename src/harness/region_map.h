#ifndef TDB_HARNESS_REGION_MAP_H_
#define TDB_HARNESS_REGION_MAP_H_

#include <cstdint>
#include <string>
#include <vector>

#include "platform/mem_store.h"

namespace tdb::harness {

/// The four structural region classes of an on-store database image; the
/// tamper sweep corrupts representatives of every instance of each class.
enum class RegionClass : uint8_t {
  kAnchorSlot = 0,    // anchor-0 / anchor-1 slot files (the trust root).
  kLogStructure = 1,  // Segment headers, record headers, commit manifests.
  kChunkPayload = 2,  // Sealed data-record payloads.
  kLocationMap = 3,   // Sealed map-node record payloads (the Merkle tree).
};

inline constexpr int kRegionClasses = 4;

const char* RegionClassName(RegionClass cls);

/// One contiguous byte range of a store file with a single classification.
struct TamperRegion {
  std::string file;
  uint64_t offset = 0;
  uint64_t length = 0;
  RegionClass cls = RegionClass::kLogStructure;
};

/// Walks a crash-consistent store image and classifies every byte of the
/// anchor slots and segment files by parsing the log structure. Bytes the
/// parse cannot reach (e.g. a torn tail) are classified kLogStructure. A
/// v3 record's payload is two regions of its record's class: the seal
/// number in front (encryption is on in every image the harness builds),
/// then the ciphertext.
std::vector<TamperRegion> ClassifyImage(
    const platform::MemUntrustedStore::Image& image);

/// The payload of every record of every segment file of `image` (up to a
/// file's first unparsable record). With encryption on, each v3 payload —
/// data, map node or commit manifest — starts with the seal number it was
/// sealed under (a v1/v2 payload with the IV itself).
std::vector<Slice> RecordPayloads(
    const platform::MemUntrustedStore::Image& image);

}  // namespace tdb::harness

#endif  // TDB_HARNESS_REGION_MAP_H_
