#include "harness/region_map.h"

#include "chunk/log_format.h"
#include "chunk/types.h"

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

// Calls `fn(offset, header_size, view)` for each record of a segment
// file, in log order, parsed in the format its header names; returns the
// offset where parsing stopped (the file size unless the file ends in a
// torn or garbage tail, or its header is unreadable).
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
    fn(pos, view.record_size - view.payload.size(), view);
    pos += view.record_size;
  }
  return pos;
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
  const uint64_t end = ForEachRecord(bytes, [&](uint64_t pos, uint64_t frame,
                                                const chunk::RecordView& view) {
    out->push_back({name, pos, frame, RegionClass::kLogStructure});
    if (view.payload.size() > 0) {
      RegionClass cls = RegionClass::kLogStructure;  // Commit manifests.
      if (view.type == chunk::RecordType::kData) {
        cls = RegionClass::kChunkPayload;
      } else if (view.type == chunk::RecordType::kMapNode) {
        cls = RegionClass::kLocationMap;
      }
      out->push_back({name, pos + frame, view.payload.size(), cls});
    }
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
                             const chunk::RecordView& view) {
      payloads.push_back(view.payload);
    });
  }
  return payloads;
}

}  // namespace tdb::harness
