#ifndef TDB_CHUNK_LOG_FORMAT_H_
#define TDB_CHUNK_LOG_FORMAT_H_

#include <string>
#include <vector>

#include "common/coding.h"
#include "common/result.h"
#include "chunk/types.h"
#include "crypto/hash.h"

namespace tdb::chunk {

/// On-disk layout
/// --------------
/// The log is a set of segment files "seg-<id>" in the untrusted store.
/// Each starts with an 8-byte header (magic, segment id), followed by
/// records appended in commit order. The magic gives the segment's log
/// format. New segments are always v3. Segments of the older formats are
/// read only by recovery and by the upgrade at open, which re-seals their
/// live records into v3 segments and then drops them (DESIGN.md, "Log
/// format v3 and upgrade at open").
///
/// v3 (magic "TLG3", at least two bits from every older magic):
///
///   record := type(1) | payload_len(varint32) | crc32c(fixed32) | payload
///   type   := RecordType (bits 0-3) | EntryFlags << 4
///   payload:= varint(s) | ciphertext        (encryption on)
///          |  plaintext                     (encryption off)
///
/// The CRC-32C covers the type byte, the length and the payload; it
/// detects torn writes at the tail. The length varint must be the
/// shortest one (no hash or MAC covers it). `s` is the record's seal
/// number: a store-wide 64-bit count, never reused under one IV key k',
/// and the IV is E_k'(s) (CipherSuite::SealNumbered). A lease in the
/// anchor keeps s unique across crashes (AnchorState::seal_limit). The
/// flags say how the payload was sealed: kEntryPadded for PKCS#7 padding
/// (a plaintext of at most one cipher block), ciphertext stealing
/// otherwise; kEntryCompressed for a compressed data plaintext. A
/// record's hash is H('3' ‖ type ‖ payload) (V3HashPrefix), so it covers
/// the flags and the seal number, and the map entry or commit MAC that
/// holds it authenticates both.
///
/// A commit manifest lists only the chunk ids of the data records
/// appended since the previous manifest, in log order (zigzag-delta coded,
/// with a skip marker for dead records a failed batch left behind).
/// Recovery takes their locations from its scan of the log and recomputes
/// their hashes, and the manifest's MAC binds them:
///
///   mac := MAC(prev_mac ‖ '3' ‖ type ‖ sealed manifest ‖ H(r1) ‖ … ‖ H(rn))
///
/// over every data record r1..rn since the previous manifest, dead ones
/// included. prev_mac is not stored: recovery verifies the chain in order
/// from the checkpoint's MAC in the anchor. Deallocations and the
/// checkpoint's map root stay explicit. The leading '3' (0x33) equals no
/// valid type byte, so no v2 hash or MAC input is ever a v3 one.
///
/// v2 (magic "TLB2") had the same frames and manifests, but stored a
/// cipher block of IV in front of each ciphertext, and hashed and MACed
/// without the '3'. v1 (magic "GLBT" on disk): record := type(1) |
/// payload_len(fixed32) | FNV-1a(fixed32) | payload, every payload PKCS#7
/// padded under a stored IV, record hashes over the payload alone, and
/// manifests listing each write's location, hash and flags plus prev_mac
/// (CommitManifestV1).
///
/// MALICIOUS modification is detected one level up in every format:
/// data/map payloads are hashed into the location map (the Merkle tree),
/// and commit manifests carry a MAC chained through the anchor.

constexpr uint32_t kSegmentMagicV1 = 0x54424C47;
constexpr uint32_t kSegmentMagicV2 = 0x32424C54;  // "TLB2" on disk.
constexpr uint32_t kSegmentMagic = 0x33474C54;    // "TLG3" on disk.
constexpr size_t kSegmentHeaderSize = 8;          // magic + segment id
constexpr size_t kRecordHeaderSizeV1 = 9;         // type + len + cksum

enum class LogVersion : uint8_t { kV1 = 1, kV2 = 2, kV3 = 3 };

/// Serialized header of a new (v3) segment.
Buffer EncodeSegmentHeader(uint32_t segment_id);
/// Decodes a v1, v2 or v3 header; `version` may be null.
Status DecodeSegmentHeader(Slice data, uint32_t* segment_id,
                           LogVersion* version = nullptr);

/// A v2/v3 frame's type byte.
inline uint8_t RecordTypeByte(RecordType type, uint8_t flags) {
  return static_cast<uint8_t>(static_cast<uint8_t>(type) | flags << 4);
}

/// The first byte of every v3 record-hash and commit-MAC input.
constexpr uint8_t kV3HashTag = '3';

/// Writes the bytes a record hash of format `version` covers in front of
/// the payload to `prefix` (room for 2) and returns how many: none (v1),
/// the type byte (v2), or kV3HashTag and the type byte (v3).
size_t RecordHashPrefix(LogVersion version, uint8_t type_byte,
                        uint8_t* prefix);

/// The MAC input of a v2 or v3 commit record with type byte `type_byte`
/// up to its record hashes, which the caller appends (see the layout
/// above): prev_mac ‖ ['3' ‖] type ‖ sealed manifest. Room is reserved
/// for `n_records` hashes.
Buffer CommitMacInput(LogVersion version, const crypto::Digest& prev,
                      uint8_t type_byte, Slice sealed_manifest,
                      size_t n_records);

/// Header bytes in front of a payload of `payload_len` bytes (v2 and v3
/// frames are the same).
size_t RecordHeaderSize(LogVersion version, size_t payload_len);

/// Appends a v3 record (header + payload) to *dst.
void AppendRecord(Buffer* dst, RecordType type, uint8_t flags, Slice payload);

/// Parsed record view (payload aliases the input buffer).
struct RecordView {
  RecordType type;
  uint8_t flags = 0;  // EntryFlags from a v2/v3 type byte; 0 in v1.
  Slice payload;
  size_t record_size;  // Header + payload bytes consumed.
};

/// Parses the record of format `version` starting at the head of `input`.
/// Corruption if the header is malformed, the payload is truncated, or
/// the checksum fails.
Status ParseRecord(Slice input, RecordView* out,
                   LogVersion version = LogVersion::kV3);

/// A commit manifest (v2 and v3): the metadata a commit appends after its
/// data records. Sealed and MACed (see the layout above), so recovery can
/// authenticate the residual log against the anchor.
struct CommitManifest {
  uint64_t seq = 0;
  uint8_t flags = 0;
  uint64_t next_chunk_id = 1;
  /// One-way counter value as of this commit (durable commits bump it
  /// first). Recovery compares the last durable commit's value with the
  /// hardware counter to detect replayed/truncated logs (§3).
  uint64_t counter = 0;
  /// One entry per data record appended since the previous manifest, in
  /// log order: the chunk id it writes, or kInvalidChunkId for a dead
  /// record, which recovery skips. Later records of one id win.
  std::vector<ChunkId> records;
  /// Applied after the records.
  std::vector<ChunkId> deallocs;
  // Checkpoint commits carry the location-map root.
  bool has_root = false;
  Location root_loc;
  crypto::Digest root_hash;

  bool durable() const { return flags & kCommitDurable; }
  bool checkpoint() const { return flags & kCommitCheckpoint; }
};

/// `entry_hash_size` frames the root hash (truncated, see
/// ChunkStore::kMapHashBytes).
Buffer EncodeManifest(const CommitManifest& manifest);
Status DecodeManifest(Slice data, size_t entry_hash_size,
                      CommitManifest* out);

/// One chunk write inside a v1 commit manifest.
struct ManifestWrite {
  ChunkId cid;
  Location loc;
  crypto::Digest hash;  // Hash of the sealed payload; empty if security off.
  uint8_t flags = 0;    // EntryFlags; authenticated by the manifest MAC.
};

/// A v1 commit manifest, read from v1 segments by recovery only. Besides
/// the writes it carries prev_mac, the MAC of the commit before it.
struct CommitManifestV1 {
  uint64_t seq = 0;
  uint8_t flags = 0;
  uint64_t next_chunk_id = 1;
  uint64_t counter = 0;
  crypto::Digest prev_mac;
  std::vector<ManifestWrite> writes;
  std::vector<ChunkId> deallocs;
  bool has_root = false;
  Location root_loc;
  crypto::Digest root_hash;
};

/// `mac_size` frames prev_mac (the full keyed-MAC width) and
/// `entry_hash_size` frames per-write and root hashes.
Status DecodeManifestV1(Slice data, size_t mac_size, size_t entry_hash_size,
                        CommitManifestV1* out);

/// Helpers shared by the map and manifest codecs.
void PutLocation(Buffer* dst, const Location& loc);
Status GetLocation(Decoder* dec, Location* loc);
void PutDigest(Buffer* dst, const crypto::Digest& digest);
Status GetDigest(Decoder* dec, size_t hash_size, crypto::Digest* digest);

}  // namespace tdb::chunk

#endif  // TDB_CHUNK_LOG_FORMAT_H_
