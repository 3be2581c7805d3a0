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
/// Each starts with a fixed header, followed by records appended in commit
/// order:
///
///   record := type(1) | payload_len(fixed32) | payload_cksum(fixed32)
///             | payload
///
/// The checksum is a non-cryptographic FNV-1a over the payload; it detects
/// torn writes at the tail. MALICIOUS modification is detected one level
/// up: data/map payloads are hashed into the location map (the Merkle
/// tree), and commit manifests carry an HMAC chained through the anchor.

constexpr uint32_t kSegmentMagic = 0x54424C47;  // "TDBL"(ish)
constexpr size_t kSegmentHeaderSize = 8;        // magic + segment id
constexpr size_t kRecordHeaderSize = 9;         // type + len + cksum

/// Serialized segment file header.
Buffer EncodeSegmentHeader(uint32_t segment_id);
Status DecodeSegmentHeader(Slice data, uint32_t* segment_id);

/// Appends a record (header + payload) to *dst and reports the payload
/// length for Location bookkeeping.
void AppendRecord(Buffer* dst, RecordType type, Slice payload);

/// Parsed record view (payload aliases the input buffer).
struct RecordView {
  RecordType type;
  Slice payload;
  size_t record_size;  // Header + payload bytes consumed.
};

/// Parses the record starting at the head of `input`. Corruption if the
/// header is malformed, the payload is truncated, or the checksum fails.
Status ParseRecord(Slice input, RecordView* out);

/// One chunk write inside a commit manifest.
struct ManifestWrite {
  ChunkId cid;
  Location loc;
  crypto::Digest hash;  // Hash of the sealed payload; empty if security off.
  uint8_t flags = 0;    // EntryFlags; authenticated by the manifest MAC.
};

/// The commit manifest: the metadata a commit appends after its data
/// records. MACed and hash-chained (prev_mac) so recovery can authenticate
/// the residual log against the anchor.
struct CommitManifest {
  uint64_t seq = 0;
  uint8_t flags = 0;
  uint64_t next_chunk_id = 1;
  /// One-way counter value as of this commit (durable commits bump it
  /// first). Recovery compares the last durable commit's value with the
  /// hardware counter to detect replayed/truncated logs (§3).
  uint64_t counter = 0;
  crypto::Digest prev_mac;
  std::vector<ManifestWrite> writes;
  std::vector<ChunkId> deallocs;
  // Checkpoint commits carry the location-map root.
  bool has_root = false;
  Location root_loc;
  crypto::Digest root_hash;

  bool durable() const { return flags & kCommitDurable; }
  bool checkpoint() const { return flags & kCommitCheckpoint; }
};

/// Digest fields self-describe their width on encode. On decode,
/// `mac_size` frames prev_mac (the full keyed-MAC width) and
/// `entry_hash_size` frames per-write and root hashes (truncated, see
/// ChunkStore::kMapHashBytes).
Buffer EncodeManifest(const CommitManifest& manifest);
Status DecodeManifest(Slice data, size_t mac_size, size_t entry_hash_size,
                      CommitManifest* out);

/// Helpers shared by the map and manifest codecs.
void PutLocation(Buffer* dst, const Location& loc);
Status GetLocation(Decoder* dec, Location* loc);
void PutDigest(Buffer* dst, const crypto::Digest& digest);
Status GetDigest(Decoder* dec, size_t hash_size, crypto::Digest* digest);

}  // namespace tdb::chunk

#endif  // TDB_CHUNK_LOG_FORMAT_H_
