#include "chunk/log_format.h"

#include "common/crc32c.h"

namespace tdb::chunk {

namespace {

// Flags a v2/v3 type byte may carry for each record type: only data records
// are ever compressed.
uint8_t AllowedFlags(RecordType type) {
  return type == RecordType::kData ? (kEntryCompressed | kEntryPadded)
                                   : kEntryPadded;
}

// Zigzag coding of a chunk-id delta (taken mod 2^64), so small steps
// either way make short varints.
uint64_t ZigZag(uint64_t delta) {
  return (delta << 1) ^ (0 - (delta >> 63));
}

uint64_t UnZigZag(uint64_t v) { return (v >> 1) ^ (0 - (v & 1)); }

}  // namespace

Buffer EncodeSegmentHeader(uint32_t segment_id) {
  Buffer out;
  PutFixed32(&out, kSegmentMagic);
  PutFixed32(&out, segment_id);
  return out;
}

Status DecodeSegmentHeader(Slice data, uint32_t* segment_id,
                           LogVersion* version) {
  Decoder dec(data);
  uint32_t magic;
  TDB_RETURN_IF_ERROR(dec.GetFixed32(&magic));
  LogVersion v;
  switch (magic) {
    case kSegmentMagic:
      v = LogVersion::kV3;
      break;
    case kSegmentMagicV2:
      v = LogVersion::kV2;
      break;
    case kSegmentMagicV1:
      v = LogVersion::kV1;
      break;
    default:
      return Status::Corruption("bad segment magic");
  }
  if (version != nullptr) *version = v;
  return dec.GetFixed32(segment_id);
}

size_t RecordHeaderSize(LogVersion version, size_t payload_len) {
  return version == LogVersion::kV1 ? kRecordHeaderSizeV1
                                    : 1 + VarintLength(payload_len) + 4;
}

size_t RecordHashPrefix(LogVersion version, uint8_t type_byte,
                        uint8_t* prefix) {
  switch (version) {
    case LogVersion::kV1:
      return 0;
    case LogVersion::kV2:
      prefix[0] = type_byte;
      return 1;
    case LogVersion::kV3:
      break;
  }
  prefix[0] = kV3HashTag;
  prefix[1] = type_byte;
  return 2;
}

Buffer CommitMacInput(LogVersion version, const crypto::Digest& prev,
                      uint8_t type_byte, Slice sealed_manifest,
                      size_t n_records) {
  Buffer input;
  input.reserve(prev.size() + 2 + sealed_manifest.size() +
                n_records * crypto::Digest::kMaxSize);
  PutDigest(&input, prev);
  uint8_t prefix[2];
  input.insert(input.end(), prefix,
               prefix + RecordHashPrefix(version, type_byte, prefix));
  input.insert(input.end(), sealed_manifest.data(),
               sealed_manifest.data() + sealed_manifest.size());
  return input;
}

void AppendRecord(Buffer* dst, RecordType type, uint8_t flags,
                  Slice payload) {
  const size_t start = dst->size();
  dst->push_back(RecordTypeByte(type, flags));
  PutVarint32(dst, static_cast<uint32_t>(payload.size()));
  uint32_t crc = Crc32cExtend(0, dst->data() + start, dst->size() - start);
  crc = Crc32cExtend(crc, payload.data(), payload.size());
  PutFixed32(dst, crc);
  dst->insert(dst->end(), payload.data(), payload.data() + payload.size());
}

namespace {

Status ParseRecordV1(Slice input, RecordView* out) {
  if (input.size() < kRecordHeaderSizeV1) {
    return Status::Corruption("truncated record header");
  }
  uint8_t type = input[0];
  if (type < static_cast<uint8_t>(RecordType::kData) ||
      type > static_cast<uint8_t>(RecordType::kCommit)) {
    return Status::Corruption("bad record type");
  }
  uint32_t len = DecodeFixed32(input.data() + 1);
  uint32_t cksum = DecodeFixed32(input.data() + 5);
  if (input.size() - kRecordHeaderSizeV1 < len) {
    return Status::Corruption("truncated record payload");
  }
  Slice payload(input.data() + kRecordHeaderSizeV1, len);
  if (Checksum32(payload) != cksum) {
    return Status::Corruption("record checksum mismatch");
  }
  out->type = static_cast<RecordType>(type);
  out->flags = 0;
  out->payload = payload;
  out->record_size = kRecordHeaderSizeV1 + len;
  return Status::OK();
}

}  // namespace

Status ParseRecord(Slice input, RecordView* out, LogVersion version) {
  if (version == LogVersion::kV1) return ParseRecordV1(input, out);
  Decoder dec(input);
  Slice type_byte;
  if (!dec.GetBytes(1, &type_byte).ok()) {
    return Status::Corruption("truncated record header");
  }
  const uint8_t kind = type_byte[0] & 0x0F;
  const uint8_t flags = type_byte[0] >> 4;
  if (kind < static_cast<uint8_t>(RecordType::kData) ||
      kind > static_cast<uint8_t>(RecordType::kCommit) ||
      (flags & ~AllowedFlags(static_cast<RecordType>(kind))) != 0) {
    return Status::Corruption("bad record type");
  }
  uint32_t len;
  uint32_t crc;
  if (!dec.GetVarint32(&len).ok() || !dec.GetFixed32(&crc).ok()) {
    return Status::Corruption("truncated record header");
  }
  const size_t header = input.size() - dec.remaining();
  // Only the shortest length varint is accepted: a record's location and
  // live bytes are sized by RecordHeaderSize, and neither its hash nor a
  // commit MAC covers the length bytes, so padding them must not parse.
  if (header != RecordHeaderSize(LogVersion::kV3, len)) {
    return Status::Corruption("non-canonical record length");
  }
  if (dec.remaining() < len) {
    return Status::Corruption("truncated record payload");
  }
  Slice payload(input.data() + header, len);
  uint32_t actual = Crc32cExtend(0, input.data(), header - 4);
  if (Crc32cExtend(actual, payload.data(), len) != crc) {
    return Status::Corruption("record checksum mismatch");
  }
  out->type = static_cast<RecordType>(kind);
  out->flags = flags;
  out->payload = payload;
  out->record_size = header + len;
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
  // Room for the worst case (10-byte varints and a full-width root
  // digest), so the encoding never reallocates.
  Buffer out;
  out.reserve(4 * 10 + 1 + 2 * 5 + manifest.records.size() * 10 +
              manifest.deallocs.size() * 10 + 1 + 15 +
              crypto::Digest::kMaxSize);
  PutVarint64(&out, manifest.seq);
  out.push_back(manifest.flags);
  PutVarint64(&out, manifest.next_chunk_id);
  PutVarint64(&out, manifest.counter);

  // Each record is its id's zigzag delta from the previous record's id.
  // A zero delta escapes: a second 0 repeats the previous id, and k > 0
  // skips k dead records.
  PutVarint32(&out, static_cast<uint32_t>(manifest.records.size()));
  ChunkId prev = 0;
  for (size_t i = 0; i < manifest.records.size();) {
    const ChunkId cid = manifest.records[i];
    if (cid == kInvalidChunkId) {
      uint32_t run = 0;
      while (i < manifest.records.size() &&
             manifest.records[i] == kInvalidChunkId) {
        run++;
        i++;
      }
      out.push_back(0);
      PutVarint32(&out, run);
      continue;
    }
    if (cid == prev) {
      out.push_back(0);
      out.push_back(0);
    } else {
      PutVarint64(&out, ZigZag(cid - prev));
    }
    prev = cid;
    i++;
  }
  PutVarint32(&out, static_cast<uint32_t>(manifest.deallocs.size()));
  prev = 0;
  for (ChunkId cid : manifest.deallocs) {
    PutVarint64(&out, ZigZag(cid - prev));
    prev = cid;
  }

  out.push_back(manifest.has_root ? 1 : 0);
  if (manifest.has_root) {
    PutLocation(&out, manifest.root_loc);
    PutDigest(&out, manifest.root_hash);
  }
  return out;
}

Status DecodeManifest(Slice data, size_t entry_hash_size,
                      CommitManifest* out) {
  Decoder dec(data);
  TDB_RETURN_IF_ERROR(dec.GetVarint64(&out->seq));
  Slice flags;
  TDB_RETURN_IF_ERROR(dec.GetBytes(1, &flags));
  out->flags = flags[0];
  TDB_RETURN_IF_ERROR(dec.GetVarint64(&out->next_chunk_id));
  TDB_RETURN_IF_ERROR(dec.GetVarint64(&out->counter));

  uint32_t n_records;
  TDB_RETURN_IF_ERROR(dec.GetVarint32(&n_records));
  if (n_records > (1u << 24)) return Status::Corruption("absurd record count");
  out->records.clear();
  out->records.reserve(n_records);
  ChunkId prev = 0;
  while (out->records.size() < n_records) {
    uint64_t delta;
    TDB_RETURN_IF_ERROR(dec.GetVarint64(&delta));
    if (delta != 0) {
      prev += UnZigZag(delta);
      if (prev == kInvalidChunkId) {
        return Status::Corruption("manifest record of chunk 0");
      }
      out->records.push_back(prev);
      continue;
    }
    uint32_t run;
    TDB_RETURN_IF_ERROR(dec.GetVarint32(&run));
    if (run == 0) {
      if (prev == kInvalidChunkId) {
        return Status::Corruption("manifest repeats no record");
      }
      out->records.push_back(prev);
    } else if (run > n_records - out->records.size()) {
      return Status::Corruption("manifest skips past its records");
    } else {
      out->records.insert(out->records.end(), run, kInvalidChunkId);
    }
  }

  uint32_t n_deallocs;
  TDB_RETURN_IF_ERROR(dec.GetVarint32(&n_deallocs));
  if (n_deallocs > (1u << 24)) {
    return Status::Corruption("absurd dealloc count");
  }
  out->deallocs.clear();
  out->deallocs.reserve(n_deallocs);
  prev = 0;
  for (uint32_t i = 0; i < n_deallocs; i++) {
    uint64_t delta;
    TDB_RETURN_IF_ERROR(dec.GetVarint64(&delta));
    prev += UnZigZag(delta);
    out->deallocs.push_back(prev);
  }

  Slice has_root;
  TDB_RETURN_IF_ERROR(dec.GetBytes(1, &has_root));
  if (has_root[0] > 1) return Status::Corruption("bad manifest root flag");
  out->has_root = has_root[0] != 0;
  if (out->has_root) {
    TDB_RETURN_IF_ERROR(GetLocation(&dec, &out->root_loc));
    TDB_RETURN_IF_ERROR(GetDigest(&dec, entry_hash_size, &out->root_hash));
  }
  if (!dec.done()) return Status::Corruption("trailing manifest bytes");
  return Status::OK();
}

Status DecodeManifestV1(Slice data, size_t mac_size, size_t entry_hash_size,
                        CommitManifestV1* out) {
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
