#ifndef TDB_CHUNK_ANCHOR_H_
#define TDB_CHUNK_ANCHOR_H_

#include <string>

#include "chunk/log_format.h"
#include "chunk/types.h"
#include "common/result.h"
#include "crypto/cipher_suite.h"
#include "platform/untrusted_store.h"

namespace tdb::chunk {

/// The anchor is the paper's "hash value along with the current value of
/// the one-way counter, signed with the secret key and stored at a known
/// location in the untrusted store" (§3). It is the single trust root:
/// everything else is authenticated transitively — the checkpointed map
/// root via its hash, the residual log via the MAC chain, freshness via the
/// one-way counter value.
struct AnchorState {
  uint64_t counter = 0;         // One-way counter at last durable commit.
  uint64_t seq = 0;             // Seq of last durable commit.
  uint64_t next_chunk_id = 1;   // Allocation high-water mark.
  bool has_root = false;        // False only before the first checkpoint.
  Location root_loc;            // Location-map root at last checkpoint.
  crypto::Digest root_hash;
  crypto::Digest ckpt_mac;      // MAC of the checkpoint commit record.
  uint32_t scan_segment = 0;    // Residual-log scan start (after ckpt).
  uint32_t scan_offset = 0;
  // Fanout of the location map. Recorded from log format v2 on; a v1
  // anchor decodes it as 0.
  uint32_t map_fanout = 0;
  // The seal-number lease: no record may be sealed under a seal number at
  // or above it until an anchor with a higher limit is durable, so a
  // number a crashed session may have used is never used again. 0 in a
  // v1/v2 anchor, whose sessions stored their IVs.
  uint64_t seal_limit = 0;
  // The iv_seed the IV key k' of the seal numbers is derived from: the
  // image's wins over the options' at open. Empty in a v1/v2 anchor.
  std::string iv_seed;
  // Segments of log format v1/v2 may remain: the upgrade at open has not
  // finished. Always true for a v1/v2 anchor.
  bool legacy_segments = false;
};

/// Anchors are written in the v3 encoding (CRC-32C framing, the fields
/// above); v1 anchors (FNV-1a framing, no fanout) and v2 anchors (no seal
/// lease) are still read.
///
/// Reads/writes the anchor using two alternating slots so a crash can tear
/// at most the slot being written; recovery picks the valid slot with the
/// highest (counter, seq, seal_limit): a write that only raises the lease
/// keeps the counter and seq.
class AnchorManager {
 public:
  /// `entry_hash_size` frames the (possibly truncated) root hash.
  AnchorManager(platform::UntrustedStore* store,
                const crypto::CipherSuite* suite, size_t entry_hash_size)
      : store_(store), suite_(suite), entry_hash_size_(entry_hash_size) {}

  /// NotFound if no valid anchor exists (fresh store); TamperDetected if
  /// slots exist but none validates.
  Result<AnchorState> Load() const;

  /// Writes `state` to the next slot and syncs it.
  Status Write(const AnchorState& state);

  static Buffer Encode(const AnchorState& state,
                       const crypto::CipherSuite& suite);
  static Result<AnchorState> Decode(Slice data,
                                    const crypto::CipherSuite& suite,
                                    size_t entry_hash_size);

 private:
  platform::UntrustedStore* store_;
  const crypto::CipherSuite* suite_;
  size_t entry_hash_size_;
  int next_slot_ = 0;
};

}  // namespace tdb::chunk

#endif  // TDB_CHUNK_ANCHOR_H_
