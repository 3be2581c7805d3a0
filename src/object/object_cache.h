#ifndef TDB_OBJECT_OBJECT_CACHE_H_
#define TDB_OBJECT_OBJECT_CACHE_H_

#include <memory>
#include <unordered_map>

#include "common/lru_list.h"
#include "common/metrics.h"
#include "object/object.h"

namespace tdb::object {

/// In-memory cache of unpickled objects, indexed by object id (§4.2.2).
/// Objects here are "ready for direct access by the application: decrypted,
/// validated, unpickled, and type checked". Entries are exempt from
/// eviction while pinned (live Refs) or dirty (no-steal: modified objects
/// stay cached until their transaction commits, §4.2.2). Only evictable
/// entries — clean and unpinned — sit on the LRU list, ordered by their
/// last use while evictable: a clean insert, a hit, the last unpin, or
/// the commit that cleaned them. Eviction pops the LRU tail, so it costs
/// O(entries evicted) however many objects open transactions hold. The
/// list is intrusive (links in the entries, which never move inside the
/// hash map), so pins, unpins and dirty flips allocate nothing.
///
/// Not thread-safe; the object store's state mutex serializes access.
class ObjectCache {
 public:
  explicit ObjectCache(size_t capacity_bytes)
      : capacity_(capacity_bytes) {}

  /// Counts hits, misses and evictions into registry instruments, the
  /// cache's only tally, and mirrors occupancy into `bytes_used` (all may
  /// be null).
  void AttachMetrics(common::Counter* hits, common::Counter* misses,
                     common::Counter* evictions, common::Gauge* bytes_used);

  /// Inserts (or replaces) the cached instance for `oid`. With a non-null
  /// `pin_generation` the entry starts pinned once (see Acquire) and its
  /// generation is stored there.
  Object* Put(ObjectId oid, std::unique_ptr<Object> object, bool dirty,
              uint64_t* pin_generation = nullptr);

  /// Returns the cached instance or nullptr. A hit is counted and, if the
  /// entry is evictable, moves it to the MRU end.
  Object* Get(ObjectId oid);

  /// Pins the cached instance for a Ref, marking it dirty first when
  /// `dirty` — one probe. A hit is counted; a miss returns
  /// nullptr and pins nothing.
  ///
  /// Pinned entries cannot be evicted. Acquire stores the entry's
  /// generation (stamped at Put); Unpin releases only if the entry still
  /// has that generation. An abort can Erase a pinned entry and a later
  /// fetch re-Put the same oid — a stale Ref's release must not steal the
  /// replacement entry's pin.
  Object* Acquire(ObjectId oid, bool dirty, uint64_t* pin_generation);
  /// One more pin on the entry of that `generation` (a copied Ref); no-op
  /// if the entry is gone or was replaced.
  void Repin(ObjectId oid, uint64_t generation);
  void Unpin(ObjectId oid, uint64_t generation);

  bool Contains(ObjectId oid) const { return entries_.count(oid) > 0; }

  /// Marks an entry dirty (pinned by the no-steal policy) or clean.
  void SetDirty(ObjectId oid, bool dirty);
  bool IsDirty(ObjectId oid) const;

  /// Drops an entry regardless of state (transaction abort path). Pins are
  /// forgotten — callers must not touch the object afterwards.
  void Erase(ObjectId oid);

  /// Evicts from the LRU tail until within capacity (or nothing is
  /// evictable).
  void EnforceCapacity();

  size_t size_bytes() const { return size_; }
  size_t entry_count() const { return entries_.size(); }
  void CountMiss() {
    if (misses_metric_ != nullptr) misses_metric_->Increment();
  }

 private:
  struct Entry {
    ObjectId oid = kInvalidObjectId;
    std::unique_ptr<Object> object;
    size_t charge = 0;
    int pins = 0;
    uint64_t generation = 0;
    bool dirty = false;
    // LRU links, valid only while evictable(): exactly those entries are
    // on the list. `newer` points toward the MRU end.
    Entry* newer = nullptr;
    Entry* older = nullptr;

    bool evictable() const { return pins == 0 && !dirty; }
  };

  void CountHit() {
    if (hits_metric_ != nullptr) hits_metric_->Increment();
  }
  // Puts the entry on (at the MRU end) or takes it off the LRU list when
  // a state change flipped evictable(); `was_evictable` is its value
  // before the change.
  void Relink(Entry& entry, bool was_evictable);
  void MirrorSize() {
    if (bytes_used_metric_ != nullptr) {
      bytes_used_metric_->Set(static_cast<int64_t>(size_));
    }
  }

  std::unordered_map<ObjectId, Entry> entries_;
  uint64_t next_generation_ = 0;
  common::LruList<Entry> lru_;  // Exactly the evictable entries.
  size_t capacity_;
  size_t size_ = 0;
  common::Counter* hits_metric_ = nullptr;
  common::Counter* misses_metric_ = nullptr;
  common::Counter* evictions_metric_ = nullptr;
  common::Gauge* bytes_used_metric_ = nullptr;
};

}  // namespace tdb::object

#endif  // TDB_OBJECT_OBJECT_CACHE_H_
