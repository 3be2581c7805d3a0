#include "harness/region_map.h"

#include "chunk/log_format.h"
#include "chunk/types.h"
#include "common/coding.h"

namespace tdb::harness {

const char* RegionClassName(RegionClass cls) {
  switch (cls) {
    case RegionClass::kAnchorSlot:
      return "anchor-slot";
    case RegionClass::kLogStructure:
      return "log-structure";
    case RegionClass::kChunkPayload:
      return "chunk-payload";
    case RegionClass::kLocationMap:
      return "location-map";
  }
  return "unknown";
}

namespace {

bool HasPrefix(const std::string& name, const char* prefix) {
  return name.rfind(prefix, 0) == 0;
}

// Calls `fn(offset, header_size, view, version)` for each record of a
// segment file, in log order, parsed in the format `version` its header
// names; returns the offset where parsing stopped (the file size unless
// the file ends in a torn or garbage tail, or its header is unreadable).
template <typename Fn>
uint64_t ForEachRecord(const Buffer& bytes, Fn fn) {
  uint64_t pos = std::min<uint64_t>(chunk::kSegmentHeaderSize, bytes.size());
  uint32_t id;
  chunk::LogVersion version;
  if (!chunk::DecodeSegmentHeader(bytes, &id, &version).ok()) return pos;
  while (pos < bytes.size()) {
    chunk::RecordView view;
    if (!chunk::ParseRecord(Slice(bytes.data() + pos, bytes.size() - pos),
                            &view, version)
             .ok()) {
      break;
    }
    fn(pos, view.record_size - view.payload.size(), view, version);
    pos += view.record_size;
  }
  return pos;
}

// Bytes of the seal number in front of a v3 payload (0 if it has none).
uint64_t SealNumberBytes(Slice payload) {
  Decoder dec(payload);
  uint64_t seal;
  if (!dec.GetVarint64(&seal).ok()) return 0;
  return payload.size() - dec.remaining();
}

// A file's name without a directory-style shard prefix ("s0/seg-000001",
// see PrefixedStore): the per-file structure is an unmodified chunk-store
// log either way.
std::string BaseName(const std::string& name) {
  const size_t slash = name.rfind('/');
  return slash == std::string::npos ? name : name.substr(slash + 1);
}

void ClassifySegment(const std::string& name, const Buffer& bytes,
                     std::vector<TamperRegion>* out) {
  uint64_t size = bytes.size();
  uint64_t header = std::min<uint64_t>(chunk::kSegmentHeaderSize, size);
  if (header > 0) {
    out->push_back({name, 0, header, RegionClass::kLogStructure});
  }
  const uint64_t end = ForEachRecord(
      bytes, [&](uint64_t pos, uint64_t frame, const chunk::RecordView& view,
                 chunk::LogVersion version) {
        out->push_back({name, pos, frame, RegionClass::kLogStructure});
        if (view.payload.size() == 0) return;
        RegionClass cls = RegionClass::kLogStructure;  // Commit manifests.
        if (view.type == chunk::RecordType::kData) {
          cls = RegionClass::kChunkPayload;
        } else if (view.type == chunk::RecordType::kMapNode) {
          cls = RegionClass::kLocationMap;
        }
        // The seal number is a site of its own: a flip there changes the
        // record's IV, not its ciphertext.
        uint64_t at = pos + frame;
        const uint64_t seal = version == chunk::LogVersion::kV3
                                  ? SealNumberBytes(view.payload)
                                  : 0;
        if (seal > 0 && seal < view.payload.size()) {
          out->push_back({name, at, seal, cls});
          at += seal;
        }
        out->push_back({name, at, pos + frame + view.payload.size() - at, cls});
      });
  if (end < size) {
    // Unreachable tail (torn or trailing garbage): structural bytes.
    out->push_back({name, end, size - end, RegionClass::kLogStructure});
  }
}

}  // namespace

std::vector<TamperRegion> ClassifyImage(
    const platform::MemUntrustedStore::Image& image) {
  std::vector<TamperRegion> regions;
  for (const auto& [name, bytes] : image) {
    if (bytes.empty()) continue;
    // Classify by basename; regions keep the full name so tamper repros
    // stay unambiguous.
    const std::string base = BaseName(name);
    if (HasPrefix(base, "anchor-")) {
      regions.push_back({name, 0, bytes.size(), RegionClass::kAnchorSlot});
    } else if (HasPrefix(base, "seg-")) {
      ClassifySegment(name, bytes, &regions);
    }
  }
  return regions;
}

std::vector<Slice> RecordPayloads(
    const platform::MemUntrustedStore::Image& image) {
  std::vector<Slice> payloads;
  for (const auto& [name, bytes] : image) {
    if (!HasPrefix(BaseName(name), "seg-")) continue;
    ForEachRecord(bytes, [&](uint64_t, uint64_t,
                             const chunk::RecordView& view,
                             chunk::LogVersion) {
      payloads.push_back(view.payload);
    });
  }
  return payloads;
}

}  // namespace tdb::harness
