#include "chunk/chunk_cache.h"

namespace tdb::chunk {

void ChunkCache::AttachMetrics(common::Counter* evictions[4],
                               common::Gauge* bytes_used) {
  std::lock_guard<std::mutex> lock(mu_);
  for (int i = 0; i < 4; i++) evict_metrics_[i] = evictions[i];
  bytes_used_metric_ = bytes_used;
}

bool ChunkCache::Get(ChunkId cid, uint64_t max_version, Buffer* out) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(cid);
  if (it == entries_.end() || it->second.version > max_version) return false;
  lru_.Touch(it->second);
  *out = *it->second.data;
  return true;
}

std::shared_ptr<const Buffer> ChunkCache::GetShared(ChunkId cid,
                                                    uint64_t max_version) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(cid);
  if (it == entries_.end() || it->second.version > max_version) {
    return nullptr;
  }
  lru_.Touch(it->second);
  it->second.handed_out = true;
  return it->second.data;
}

void ChunkCache::Put(ChunkId cid, Slice data, uint64_t version) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mu_);
  // Replace-or-erase: a stale entry under this id must never survive, even
  // when the new payload itself is too large to cache. Replacement is not
  // an eviction — the entry's chunk is still cached (or superseded), so it
  // does not distort the hit-ratio denominators.
  const size_t charge = data.size() + kEntryOverhead;
  if (charge > capacity_) {
    EraseLocked(cid);
    MirrorSizeLocked();
    return;
  }
  auto [it, inserted] = entries_.try_emplace(cid);
  Entry& entry = it->second;
  if (!inserted) {
    // Take the entry off the list while making room, so it is not its own
    // eviction victim.
    size_ -= Charge(*entry.data);
    lru_.Remove(entry);
  }
  EvictToFit(charge);
  entry.cid = cid;
  // A payload no reader was ever given is only touched under mu_: rewrite
  // it in place. One that was handed out stays as the readers saw it.
  if (entry.data != nullptr && !entry.handed_out) {
    entry.data->assign(data.data(), data.data() + data.size());
  } else {
    entry.data = std::make_shared<Buffer>(data.data(),
                                          data.data() + data.size());
    entry.handed_out = false;
  }
  entry.version = version;
  lru_.PushNewest(entry);
  size_ += charge;
  MirrorSizeLocked();
}

void ChunkCache::Erase(ChunkId cid, EvictCause cause) {
  std::lock_guard<std::mutex> lock(mu_);
  if (EraseLocked(cid)) {
    CountEvictionLocked(cause);
    MirrorSizeLocked();
  }
}

bool ChunkCache::EraseLocked(ChunkId cid) {
  auto it = entries_.find(cid);
  if (it == entries_.end()) return false;
  size_ -= Charge(*it->second.data);
  lru_.Remove(it->second);
  entries_.erase(it);
  return true;
}

void ChunkCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
  lru_.Clear();
  size_ = 0;
  MirrorSizeLocked();
}

void ChunkCache::EvictToFit(size_t incoming_charge) {
  while (size_ + incoming_charge > capacity_ && lru_.oldest() != nullptr) {
    Entry& victim = *lru_.oldest();
    lru_.Remove(victim);
    size_ -= Charge(*victim.data);
    entries_.erase(victim.cid);
    CountEvictionLocked(EvictCause::kCapacity);
  }
}

void ChunkCache::CountEvictionLocked(EvictCause cause) {
  common::Counter* c = evict_metrics_[static_cast<int>(cause)];
  if (c != nullptr) c->Increment();
}

void ChunkCache::MirrorSizeLocked() {
  if (bytes_used_metric_ != nullptr) {
    bytes_used_metric_->Set(static_cast<int64_t>(size_));
  }
}

}  // namespace tdb::chunk
