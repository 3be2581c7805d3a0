#ifndef TDB_CHUNK_CHUNK_CACHE_H_
#define TDB_CHUNK_CHUNK_CACHE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "chunk/types.h"
#include "common/lru_list.h"
#include "common/metrics.h"
#include "common/slice.h"

namespace tdb::chunk {

/// Why a validated-plaintext entry left the cache. Every mutation site is
/// tagged, and each cause has its own eviction counter, so hit-ratio math
/// covers erasures on deallocation and failed commits too.
enum class EvictCause {
  kCapacity = 0,      // LRU pressure in EvictToFit.
  kDealloc = 1,       // Chunk deallocated by a committed batch.
  kFailedCommit = 2,  // Batch failed/rolled back; ids dropped defensively.
  kRelocation = 3,    // Cleaner relocation. Structurally zero by design:
                      // relocation moves sealed bytes verbatim (same id,
                      // same plaintext), so entries survive; the counter
                      // exists to prove that claim in live stats.
};

/// Byte-budgeted LRU cache of validated plaintext chunk payloads.
///
/// Every entry holds bytes that already passed the full read validation
/// (Merkle hash check + decryption) or that the store itself just sealed
/// and committed, so serving a hit skips untrusted-store I/O, record
/// parsing, hashing, and decryption entirely. The cache lives in trusted
/// memory; holding decrypted bytes here does not change the threat model,
/// which only covers state behind the UntrustedStore interface.
///
/// Keyed by ChunkId and always reflecting the LAST COMMITTED state of the
/// chunk: the owning ChunkStore write-throughs commits, erases
/// deallocations, and never populates it from snapshot reads (which may
/// see older versions). Cleaner relocation moves sealed bytes verbatim —
/// same id, same plaintext — so cached entries stay valid across Clean.
///
/// Thread-safe behind an internal mutex that is never held across I/O, so
/// cache-hit reads never queue behind an in-flight commit sync (the
/// group-commit read-path requirement). The mutex only covers the map/LRU
/// manipulation and the payload copy-out.
///
/// The LRU list is intrusive (links in the entries, which never move
/// inside the hash map), and a write-through Put over a cached chunk
/// reuses its entry — and its payload buffer unless that buffer was ever
/// handed out by GetShared — so the commit path's write-through allocates
/// nothing in steady state.
class ChunkCache {
 public:
  /// `capacity_bytes` = 0 disables the cache (all ops become no-ops).
  explicit ChunkCache(size_t capacity_bytes) : capacity_(capacity_bytes) {}

  /// Counts evictions into `evictions[cause]` and mirrors occupancy into
  /// `bytes_used`, registry instruments that are the cache's only tally
  /// (all may be null). Call before concurrent use; the owning ChunkStore
  /// does so in its constructor.
  void AttachMetrics(common::Counter* evictions[4],
                     common::Gauge* bytes_used);

  bool enabled() const { return capacity_ > 0; }

  /// The version bound that admits every entry (current-state reads).
  static constexpr uint64_t kAnyVersion = UINT64_MAX;

  /// Versioned hit: copies the cached payload into `*out`, refreshes the
  /// LRU position and returns true when the entry's commit version is
  /// <= `max_version`; returns false otherwise. Because entries always
  /// track a chunk's LAST committed state (commits write through,
  /// deallocations erase), an entry whose version predates a pinned view
  /// is exactly the state that view observes — so view reads can serve
  /// from cache without consulting the location map. Current-state reads
  /// pass kAnyVersion. The copy-out (instead of a pointer into the cache)
  /// is what makes concurrent readers safe against eviction/replacement.
  bool Get(ChunkId cid, uint64_t max_version, Buffer* out);

  /// Zero-copy versioned hit: same admission rule as Get, but hands back
  /// shared ownership of the cached payload instead of copying it —
  /// nullptr on a miss. A payload once handed out is never modified
  /// (replacement then allocates a new one), so a returned handle stays
  /// valid bytes even if the entry is evicted or replaced a nanosecond
  /// later. This is the snapshot-read fast path: per-hit cost drops to one
  /// map lookup + one refcount bump, no allocation.
  std::shared_ptr<const Buffer> GetShared(ChunkId cid, uint64_t max_version);

  /// Inserts or replaces the entry for `cid`, evicting LRU entries to fit.
  /// Payloads that alone exceed the budget are not cached (but still
  /// replace — i.e. erase — any stale entry under the same id).
  /// `version` is the store's commit version at insertion; it gates the
  /// getters.
  void Put(ChunkId cid, Slice data, uint64_t version);

  /// Drops the entry for `cid` if present, attributing the eviction to
  /// `cause` (only counted when an entry was actually present).
  void Erase(ChunkId cid, EvictCause cause);

  /// Drops everything.
  void Clear();

 private:
  // Per-entry bookkeeping overhead charged against the budget, so millions
  // of tiny chunks cannot blow past the nominal byte cap.
  static constexpr size_t kEntryOverhead = 64;

  struct Entry {
    ChunkId cid = kInvalidChunkId;
    // Shared so GetShared can hand out the payload without copying;
    // rewritten in place only while `handed_out` is false.
    std::shared_ptr<Buffer> data;
    bool handed_out = false;
    uint64_t version = 0;
    // LRU links; `newer` points toward the most recently used end.
    Entry* newer = nullptr;
    Entry* older = nullptr;
  };

  size_t Charge(const Buffer& data) const {
    return data.size() + kEntryOverhead;
  }
  void EvictToFit(size_t incoming_charge);      // Requires mu_.
  bool EraseLocked(ChunkId cid);                // Requires mu_.
  void CountEvictionLocked(EvictCause cause);   // Requires mu_.
  void MirrorSizeLocked();                      // Requires mu_.

  mutable std::mutex mu_;
  std::unordered_map<ChunkId, Entry> entries_;
  common::LruList<Entry> lru_;  // Every entry, by recency of use.
  size_t capacity_;
  size_t size_ = 0;
  common::Counter* evict_metrics_[4] = {nullptr, nullptr, nullptr, nullptr};
  common::Gauge* bytes_used_metric_ = nullptr;
};

}  // namespace tdb::chunk

#endif  // TDB_CHUNK_CHUNK_CACHE_H_
