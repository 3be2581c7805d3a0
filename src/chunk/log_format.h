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
/// format. New segments are always v2; v1 segments are only read, until
/// the cleaner moves their live records into v2 segments.
///
/// v2 (magic "TLB2"):
///
///   record := type(1) | payload_len(varint32) | crc32c(fixed32) | payload
///   type   := RecordType (bits 0-3) | EntryFlags << 4
///
/// The CRC-32C covers the type byte, the length and the payload; it
/// detects torn writes at the tail. The length varint must be the
/// shortest one (no hash or MAC covers it). The flags say how the payload was
/// sealed: kEntryPadded for PKCS#7 padding (a plaintext of at most one
/// cipher block, or a record relocated from a v1 segment), ciphertext
/// stealing otherwise; kEntryCompressed for a compressed data plaintext.
/// A v2 record's hash covers its type byte and payload, so the flags are
/// authenticated wherever the hash is: in the location map for data and
/// map-node records, and through the commit MAC at recovery.
///
/// A v2 commit manifest lists only the chunk ids of the data records
/// appended since the previous manifest, in log order (zigzag-delta coded,
/// with a skip marker for dead records a failed batch left behind).
/// Recovery takes their locations from its scan of the log and recomputes
/// their hashes, and the manifest's MAC binds them:
///
///   mac := MAC(prev_mac ‖ type ‖ sealed manifest ‖ H(r1) ‖ … ‖ H(rn))
///
/// over every data record r1..rn since the previous manifest, dead ones
/// included. prev_mac is not stored: recovery verifies the chain in order
/// from the checkpoint's MAC in the anchor. Deallocations and the
/// checkpoint's map root stay explicit.
///
/// v1 (magic "GLBT" on disk): record := type(1) | payload_len(fixed32) |
/// FNV-1a(fixed32) | payload, every payload PKCS#7 padded, record hashes
/// over the payload alone, and manifests listing each write's location,
/// hash and flags plus prev_mac (CommitManifestV1).
///
/// MALICIOUS modification is detected one level up in both formats:
/// data/map payloads are hashed into the location map (the Merkle tree),
/// and commit manifests carry a MAC chained through the anchor.

constexpr uint32_t kSegmentMagicV1 = 0x54424C47;
constexpr uint32_t kSegmentMagic = 0x32424C54;  // "TLB2" on disk.
constexpr size_t kSegmentHeaderSize = 8;         // magic + segment id
constexpr size_t kRecordHeaderSizeV1 = 9;        // type + len + cksum

enum class LogVersion : uint8_t { kV1 = 1, kV2 = 2 };

/// Serialized header of a new (v2) segment.
Buffer EncodeSegmentHeader(uint32_t segment_id);
/// Decodes a v1 or v2 header; `version` may be null.
Status DecodeSegmentHeader(Slice data, uint32_t* segment_id,
                           LogVersion* version = nullptr);

/// A v2 frame's type byte.
inline uint8_t RecordTypeByte(RecordType type, uint8_t flags) {
  return static_cast<uint8_t>(static_cast<uint8_t>(type) | flags << 4);
}

/// Header bytes in front of a payload of `payload_len` bytes.
size_t RecordHeaderSize(LogVersion version, size_t payload_len);

/// Appends a v2 record (header + payload) to *dst.
void AppendRecord(Buffer* dst, RecordType type, uint8_t flags, Slice payload);

/// Parsed record view (payload aliases the input buffer).
struct RecordView {
  RecordType type;
  uint8_t flags = 0;  // EntryFlags from a v2 type byte; 0 in v1.
  Slice payload;
  size_t record_size;  // Header + payload bytes consumed.
};

/// Parses the record of format `version` starting at the head of `input`.
/// Corruption if the header is malformed, the payload is truncated, or
/// the checksum fails.
Status ParseRecord(Slice input, RecordView* out,
                   LogVersion version = LogVersion::kV2);

/// A v2 commit manifest: the metadata a commit appends after its data
/// records. Sealed and MACed (see the layout above), so recovery can
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

/// A v1 commit manifest, read from v1 segments only. Besides the writes
/// it carries prev_mac, the MAC of the commit before it.
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
