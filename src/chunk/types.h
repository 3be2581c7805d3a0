#ifndef TDB_CHUNK_TYPES_H_
#define TDB_CHUNK_TYPES_H_

#include <cstdint>

#include "crypto/cipher_suite.h"

namespace tdb::chunk {

/// Name of a chunk. Ids are allocated monotonically and never reused
/// (a deviation from the paper, which reuses ids; monotonic ids make replay
/// reasoning simpler and cost 8 bytes each).
using ChunkId = uint64_t;

constexpr ChunkId kInvalidChunkId = 0;  // Valid ids start at 1.

/// Physical position of a log record: which segment file, the byte offset
/// of the record header within it, and the payload length.
struct Location {
  uint32_t segment = 0;
  uint32_t offset = 0;
  uint32_t length = 0;  // Payload bytes (record header not included).

  friend bool operator==(const Location& a, const Location& b) {
    return a.segment == b.segment && a.offset == b.offset &&
           a.length == b.length;
  }
};

/// Log record types.
enum class RecordType : uint8_t {
  kData = 1,     // Sealed chunk contents.
  kMapNode = 2,  // Sealed location-map node (written at checkpoints).
  kCommit = 3,   // Sealed commit manifest + MAC; ends a commit.
};

/// Commit flags carried in the manifest.
enum CommitFlags : uint8_t {
  kCommitDurable = 1 << 0,
  kCommitCheckpoint = 1 << 1,
  kCommitClean = 1 << 2,  // Produced by the log cleaner (relocations only).
};

/// Per-record flags, carried (authenticated) in the map-node encoding and
/// in a record's type byte (see log_format.h). Describes how the sealed
/// record payload was produced from the chunk plaintext.
enum EntryFlags : uint8_t {
  kEntryCompressed = 1 << 0,  // Payload is LzCompress(plaintext).
  // Sealed with PKCS#7 padding rather than ciphertext stealing: a
  // plaintext of at most one cipher block. (Log format v1 padded every
  // record without it; only the upgrade at open reads those.)
  kEntryPadded = 1 << 1,
};
constexpr uint8_t kEntryFlagsMask = kEntryCompressed | kEntryPadded;

}  // namespace tdb::chunk

#endif  // TDB_CHUNK_TYPES_H_
