#include "chunk/anchor.h"

#include <tuple>

#include "chunk/location_map.h"
#include "common/crc32c.h"

namespace tdb::chunk {

namespace {

constexpr uint32_t kAnchorMagicV1 = 0x54424148;  // "HABT" on disk.
constexpr uint32_t kAnchorMagicV2 = 0x32414254;  // "TBA2" on disk.
constexpr uint32_t kAnchorMagic = 0x33414254;    // "TBA3" on disk.
const char* SlotName(int slot) { return slot == 0 ? "anchor-0" : "anchor-1"; }

}  // namespace

Buffer AnchorManager::Encode(const AnchorState& state,
                             const crypto::CipherSuite& suite) {
  Buffer payload;
  PutFixed32(&payload, kAnchorMagic);
  PutVarint64(&payload, state.counter);
  PutVarint64(&payload, state.seq);
  PutVarint64(&payload, state.next_chunk_id);
  payload.push_back(state.has_root ? 1 : 0);
  if (state.has_root) {
    PutLocation(&payload, state.root_loc);
    PutDigest(&payload, state.root_hash);
  }
  PutDigest(&payload, state.ckpt_mac);
  PutVarint32(&payload, state.scan_segment);
  PutVarint32(&payload, state.scan_offset);
  PutVarint32(&payload, state.map_fanout);
  PutVarint64(&payload, state.seal_limit);
  PutLengthPrefixed(&payload, Slice(state.iv_seed));
  payload.push_back(state.legacy_segments ? 1 : 0);

  crypto::Digest mac = suite.Mac(payload);
  Buffer out;
  PutFixed32(&out, static_cast<uint32_t>(payload.size()));
  out.insert(out.end(), payload.begin(), payload.end());
  PutFixed32(&out, Crc32c(payload));
  PutDigest(&out, mac);
  return out;
}

Result<AnchorState> AnchorManager::Decode(Slice data,
                                          const crypto::CipherSuite& suite,
                                          size_t entry_hash_size) {
  Decoder outer(data);
  uint32_t payload_len;
  TDB_RETURN_IF_ERROR(outer.GetFixed32(&payload_len));
  Slice payload;
  TDB_RETURN_IF_ERROR(outer.GetBytes(payload_len, &payload));
  uint32_t cksum;
  TDB_RETURN_IF_ERROR(outer.GetFixed32(&cksum));
  // The magic, first in the payload, picks the checksum to check.
  const bool v1 =
      payload.size() >= 4 && DecodeFixed32(payload.data()) == kAnchorMagicV1;
  if ((v1 ? Checksum32(payload) : Crc32c(payload)) != cksum) {
    return Status::Corruption("anchor checksum mismatch");
  }
  crypto::Digest mac;
  TDB_RETURN_IF_ERROR(GetDigest(&outer, suite.hash_size(), &mac));
  if (suite.enabled() && mac != suite.Mac(payload)) {
    return Status::TamperDetected("anchor MAC invalid");
  }

  AnchorState state;
  Decoder dec(payload);
  uint32_t magic;
  TDB_RETURN_IF_ERROR(dec.GetFixed32(&magic));
  if (magic != kAnchorMagic && magic != kAnchorMagicV2 &&
      magic != kAnchorMagicV1) {
    return Status::Corruption("bad anchor magic");
  }
  TDB_RETURN_IF_ERROR(dec.GetVarint64(&state.counter));
  TDB_RETURN_IF_ERROR(dec.GetVarint64(&state.seq));
  TDB_RETURN_IF_ERROR(dec.GetVarint64(&state.next_chunk_id));
  Slice has_root;
  TDB_RETURN_IF_ERROR(dec.GetBytes(1, &has_root));
  state.has_root = has_root[0] != 0;
  if (state.has_root) {
    TDB_RETURN_IF_ERROR(GetLocation(&dec, &state.root_loc));
    TDB_RETURN_IF_ERROR(GetDigest(&dec, entry_hash_size, &state.root_hash));
  }
  TDB_RETURN_IF_ERROR(GetDigest(&dec, suite.hash_size(), &state.ckpt_mac));
  TDB_RETURN_IF_ERROR(dec.GetVarint32(&state.scan_segment));
  TDB_RETURN_IF_ERROR(dec.GetVarint32(&state.scan_offset));
  state.legacy_segments = true;
  if (magic == kAnchorMagicV1) return state;
  TDB_RETURN_IF_ERROR(dec.GetVarint32(&state.map_fanout));
  // Without security the anchor carries only a CRC, so the fanout is
  // checked before a map is built with it.
  if (state.map_fanout < LocationMap::kMinFanout ||
      state.map_fanout > LocationMap::kMaxFanout) {
    return Status::Corruption("bad anchor map fanout");
  }
  if (magic == kAnchorMagicV2) return state;  // Its v1/v2 boundary is unused.
  TDB_RETURN_IF_ERROR(dec.GetVarint64(&state.seal_limit));
  Slice iv_seed;
  TDB_RETURN_IF_ERROR(dec.GetLengthPrefixed(&iv_seed));
  state.iv_seed = iv_seed.ToString();
  Slice legacy;
  TDB_RETURN_IF_ERROR(dec.GetBytes(1, &legacy));
  if (legacy[0] > 1) return Status::Corruption("bad anchor legacy flag");
  state.legacy_segments = legacy[0] != 0;
  if (!dec.done()) return Status::Corruption("trailing anchor bytes");
  return state;
}

Result<AnchorState> AnchorManager::Load() const {
  bool any_slot = false;
  bool any_valid = false;
  Status first_error = Status::OK();
  AnchorState best;
  int best_slot = -1;
  for (int slot = 0; slot < 2; slot++) {
    const std::string name = SlotName(slot);
    if (!store_->Exists(name)) continue;
    any_slot = true;
    auto size = store_->Size(name);
    if (!size.ok()) continue;
    Buffer bytes;
    Status read = store_->Read(name, 0, static_cast<size_t>(*size), &bytes);
    if (!read.ok()) continue;
    auto decoded = Decode(bytes, *suite_, entry_hash_size_);
    if (!decoded.ok()) {
      if (first_error.ok()) first_error = decoded.status();
      continue;
    }
    if (!any_valid ||
        std::tie(decoded->counter, decoded->seq, decoded->seal_limit) >
            std::tie(best.counter, best.seq, best.seal_limit)) {
      best = *decoded;
      best_slot = slot;
      any_valid = true;
    }
  }
  if (!any_slot) return Status::NotFound("no anchor (fresh store)");
  if (!any_valid) {
    return first_error.ok()
               ? Status::TamperDetected("no valid anchor slot")
               : first_error;
  }
  // Alternate away from the newest slot so it is never the one torn.
  const_cast<AnchorManager*>(this)->next_slot_ = 1 - best_slot;
  return best;
}

Status AnchorManager::Write(const AnchorState& state) {
  const std::string name = SlotName(next_slot_);
  next_slot_ = 1 - next_slot_;
  Buffer bytes = Encode(state, *suite_);
  if (!store_->Exists(name)) {
    TDB_RETURN_IF_ERROR(store_->Create(name, /*overwrite=*/false));
  }
  // Shrink first so a stale longer anchor can never leave valid trailing
  // bytes, then write and sync.
  TDB_RETURN_IF_ERROR(store_->Truncate(name, 0));
  TDB_RETURN_IF_ERROR(store_->Write(name, 0, bytes));
  return store_->Sync(name);
}

}  // namespace tdb::chunk
