#include "object/object_cache.h"

#include "common/check.h"

namespace tdb::object {

void ObjectCache::AttachMetrics(common::Counter* hits,
                                common::Counter* misses,
                                common::Counter* evictions,
                                common::Gauge* bytes_used) {
  hits_metric_ = hits;
  misses_metric_ = misses;
  evictions_metric_ = evictions;
  bytes_used_metric_ = bytes_used;
}

Object* ObjectCache::Put(ObjectId oid, std::unique_ptr<Object> object,
                         bool dirty, uint64_t* pin_generation) {
  auto [it, inserted] = entries_.try_emplace(oid);
  Entry& entry = it->second;
  if (!inserted) {
    // Replacement: the old instance's pins are forgotten, as by Erase.
    size_ -= entry.charge;
    if (entry.evictable()) lru_.Remove(entry);
  }
  entry.oid = oid;
  entry.charge = object->ApproxSize() + 64;  // Entry bookkeeping overhead.
  entry.generation = ++next_generation_;
  entry.object = std::move(object);
  entry.dirty = dirty;
  entry.pins = pin_generation != nullptr ? 1 : 0;
  if (pin_generation != nullptr) *pin_generation = entry.generation;
  Relink(entry, /*was_evictable=*/false);
  size_ += entry.charge;
  MirrorSize();
  return entry.object.get();
}

Object* ObjectCache::Get(ObjectId oid) {
  auto it = entries_.find(oid);
  if (it == entries_.end()) return nullptr;
  CountHit();
  Entry& entry = it->second;
  if (entry.evictable()) lru_.Touch(entry);
  return entry.object.get();
}

Object* ObjectCache::Acquire(ObjectId oid, bool dirty,
                             uint64_t* pin_generation) {
  auto it = entries_.find(oid);
  if (it == entries_.end()) return nullptr;
  CountHit();
  Entry& entry = it->second;
  const bool was_evictable = entry.evictable();
  if (dirty) entry.dirty = true;
  entry.pins++;
  Relink(entry, was_evictable);
  *pin_generation = entry.generation;
  return entry.object.get();
}

void ObjectCache::Repin(ObjectId oid, uint64_t generation) {
  auto it = entries_.find(oid);
  if (it == entries_.end() || it->second.generation != generation) return;
  Entry& entry = it->second;
  const bool was_evictable = entry.evictable();
  entry.pins++;
  Relink(entry, was_evictable);
}

void ObjectCache::Unpin(ObjectId oid, uint64_t generation) {
  auto it = entries_.find(oid);
  if (it == entries_.end()) return;  // Erased by an abort; nothing to do.
  Entry& entry = it->second;
  if (entry.generation != generation) {
    // Erased by an abort, then re-fetched: the pinned entry is gone and
    // this release must not touch its replacement's pin count.
    return;
  }
  TDB_DCHECK(entry.pins > 0);
  if (entry.pins == 0) return;
  entry.pins--;
  Relink(entry, /*was_evictable=*/false);
}

void ObjectCache::SetDirty(ObjectId oid, bool dirty) {
  auto it = entries_.find(oid);
  TDB_CHECK(it != entries_.end(), "dirty mark of uncached object");
  Entry& entry = it->second;
  const bool was_evictable = entry.evictable();
  entry.dirty = dirty;
  Relink(entry, was_evictable);
}

bool ObjectCache::IsDirty(ObjectId oid) const {
  auto it = entries_.find(oid);
  return it != entries_.end() && it->second.dirty;
}

void ObjectCache::Erase(ObjectId oid) {
  auto it = entries_.find(oid);
  if (it == entries_.end()) return;
  Entry& entry = it->second;
  size_ -= entry.charge;
  if (entry.evictable()) lru_.Remove(entry);
  entries_.erase(it);
  MirrorSize();
}

void ObjectCache::Relink(Entry& entry, bool was_evictable) {
  const bool evictable = entry.evictable();
  if (evictable == was_evictable) return;
  if (evictable) {
    lru_.PushNewest(entry);
  } else {
    lru_.Remove(entry);
  }
}

void ObjectCache::EnforceCapacity() {
  if (size_ <= capacity_) return;
  while (size_ > capacity_ && lru_.oldest() != nullptr) {
    Entry& victim = *lru_.oldest();
    lru_.Remove(victim);
    size_ -= victim.charge;
    entries_.erase(victim.oid);
    if (evictions_metric_ != nullptr) evictions_metric_->Increment();
  }
  MirrorSize();
}

}  // namespace tdb::object
