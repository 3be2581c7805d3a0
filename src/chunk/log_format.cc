#include "chunk/log_format.h"

namespace tdb::chunk {

Buffer EncodeSegmentHeader(uint32_t segment_id) {
  Buffer out;
  PutFixed32(&out, kSegmentMagic);
  PutFixed32(&out, segment_id);
  return out;
}

Status DecodeSegmentHeader(Slice data, uint32_t* segment_id) {
  Decoder dec(data);
  uint32_t magic;
  TDB_RETURN_IF_ERROR(dec.GetFixed32(&magic));
  if (magic != kSegmentMagic) return Status::Corruption("bad segment magic");
  return dec.GetFixed32(segment_id);
}

void AppendRecord(Buffer* dst, RecordType type, Slice payload) {
  dst->push_back(static_cast<uint8_t>(type));
  PutFixed32(dst, static_cast<uint32_t>(payload.size()));
  PutFixed32(dst, Checksum32(payload));
  dst->insert(dst->end(), payload.data(), payload.data() + payload.size());
}

Status ParseRecord(Slice input, RecordView* out) {
  if (input.size() < kRecordHeaderSize) {
    return Status::Corruption("truncated record header");
  }
  uint8_t type = input[0];
  if (type < static_cast<uint8_t>(RecordType::kData) ||
      type > static_cast<uint8_t>(RecordType::kCommit)) {
    return Status::Corruption("bad record type");
  }
  uint32_t len = DecodeFixed32(input.data() + 1);
  uint32_t cksum = DecodeFixed32(input.data() + 5);
  if (input.size() < kRecordHeaderSize + len) {
    return Status::Corruption("truncated record payload");
  }
  Slice payload(input.data() + kRecordHeaderSize, len);
  if (Checksum32(payload) != cksum) {
    return Status::Corruption("record checksum mismatch");
  }
  out->type = static_cast<RecordType>(type);
  out->payload = payload;
  out->record_size = kRecordHeaderSize + len;
  return Status::OK();
}

void PutLocation(Buffer* dst, const Location& loc) {
  PutVarint32(dst, loc.segment);
  PutVarint32(dst, loc.offset);
  PutVarint32(dst, loc.length);
}

Status GetLocation(Decoder* dec, Location* loc) {
  TDB_RETURN_IF_ERROR(dec->GetVarint32(&loc->segment));
  TDB_RETURN_IF_ERROR(dec->GetVarint32(&loc->offset));
  return dec->GetVarint32(&loc->length);
}

void PutDigest(Buffer* dst, const crypto::Digest& digest) {
  dst->insert(dst->end(), digest.data(), digest.data() + digest.size());
}

Status GetDigest(Decoder* dec, size_t hash_size, crypto::Digest* digest) {
  if (hash_size == 0) {
    *digest = crypto::Digest();
    return Status::OK();
  }
  Slice bytes;
  TDB_RETURN_IF_ERROR(dec->GetBytes(hash_size, &bytes));
  *digest = crypto::Digest(bytes.data(), bytes.size());
  return Status::OK();
}

Buffer EncodeManifest(const CommitManifest& manifest) {
  // Room for the worst case: 10-byte varints, 15-byte locations and
  // full-width digests, so the encoding never reallocates.
  constexpr size_t kDigest = crypto::Digest::kMaxSize;
  Buffer out;
  out.reserve(3 * 10 + 1 + kDigest + 2 * 5 +
              manifest.writes.size() * (10 + 15 + kDigest + 1) +
              manifest.deallocs.size() * 10 + 1 + 15 + kDigest);
  PutVarint64(&out, manifest.seq);
  out.push_back(manifest.flags);
  PutVarint64(&out, manifest.next_chunk_id);
  PutVarint64(&out, manifest.counter);
  PutDigest(&out, manifest.prev_mac);

  PutVarint32(&out, static_cast<uint32_t>(manifest.writes.size()));
  for (const ManifestWrite& w : manifest.writes) {
    PutVarint64(&out, w.cid);
    PutLocation(&out, w.loc);
    PutDigest(&out, w.hash);
    out.push_back(w.flags);
  }
  PutVarint32(&out, static_cast<uint32_t>(manifest.deallocs.size()));
  for (ChunkId cid : manifest.deallocs) PutVarint64(&out, cid);

  out.push_back(manifest.has_root ? 1 : 0);
  if (manifest.has_root) {
    PutLocation(&out, manifest.root_loc);
    PutDigest(&out, manifest.root_hash);
  }
  return out;
}

Status DecodeManifest(Slice data, size_t mac_size, size_t entry_hash_size,
                      CommitManifest* out) {
  Decoder dec(data);
  TDB_RETURN_IF_ERROR(dec.GetVarint64(&out->seq));
  Slice flags;
  TDB_RETURN_IF_ERROR(dec.GetBytes(1, &flags));
  out->flags = flags[0];
  TDB_RETURN_IF_ERROR(dec.GetVarint64(&out->next_chunk_id));
  TDB_RETURN_IF_ERROR(dec.GetVarint64(&out->counter));
  // prev_mac: the MAC digest size equals the suite hash size.
  TDB_RETURN_IF_ERROR(GetDigest(&dec, mac_size, &out->prev_mac));

  uint32_t n_writes;
  TDB_RETURN_IF_ERROR(dec.GetVarint32(&n_writes));
  if (n_writes > (1u << 24)) return Status::Corruption("absurd write count");
  out->writes.clear();
  out->writes.reserve(n_writes);
  for (uint32_t i = 0; i < n_writes; i++) {
    ManifestWrite w;
    TDB_RETURN_IF_ERROR(dec.GetVarint64(&w.cid));
    TDB_RETURN_IF_ERROR(GetLocation(&dec, &w.loc));
    TDB_RETURN_IF_ERROR(GetDigest(&dec, entry_hash_size, &w.hash));
    Slice wflags;
    TDB_RETURN_IF_ERROR(dec.GetBytes(1, &wflags));
    if (wflags[0] > kEntryCompressed) {
      return Status::Corruption("bad manifest write flags");
    }
    w.flags = wflags[0];
    out->writes.push_back(w);
  }

  uint32_t n_deallocs;
  TDB_RETURN_IF_ERROR(dec.GetVarint32(&n_deallocs));
  if (n_deallocs > (1u << 24)) {
    return Status::Corruption("absurd dealloc count");
  }
  out->deallocs.clear();
  out->deallocs.reserve(n_deallocs);
  for (uint32_t i = 0; i < n_deallocs; i++) {
    ChunkId cid;
    TDB_RETURN_IF_ERROR(dec.GetVarint64(&cid));
    out->deallocs.push_back(cid);
  }

  Slice has_root;
  TDB_RETURN_IF_ERROR(dec.GetBytes(1, &has_root));
  out->has_root = has_root[0] != 0;
  if (out->has_root) {
    TDB_RETURN_IF_ERROR(GetLocation(&dec, &out->root_loc));
    TDB_RETURN_IF_ERROR(GetDigest(&dec, entry_hash_size, &out->root_hash));
  }
  if (!dec.done()) return Status::Corruption("trailing manifest bytes");
  return Status::OK();
}

}  // namespace tdb::chunk
