#include "baseline/pager.h"

#include "common/check.h"
#include "common/coding.h"

namespace tdb::baseline {

Buffer NodePage::Serialize() const {
  Buffer out;
  out.push_back(leaf ? 1 : 0);
  PutVarint32(&out, static_cast<uint32_t>(keys.size()));
  for (size_t i = 0; i < keys.size(); i++) {
    PutLengthPrefixed(&out, keys[i]);
    if (leaf) PutLengthPrefixed(&out, values[i]);
  }
  if (!leaf) {
    for (uint32_t child : children) PutVarint32(&out, child);
  }
  TDB_CHECK(out.size() <= Pager::kPageSize, "page overflow");
  out.resize(Pager::kPageSize, 0);
  return out;
}

Status NodePage::Parse(Slice data) {
  Decoder dec(data);
  Slice leaf_byte;
  TDB_RETURN_IF_ERROR(dec.GetBytes(1, &leaf_byte));
  leaf = leaf_byte[0] != 0;
  uint32_t n;
  TDB_RETURN_IF_ERROR(dec.GetVarint32(&n));
  if (n > Pager::kPageSize) return Status::Corruption("bad page entry count");
  keys.clear();
  values.clear();
  children.clear();
  keys.reserve(n);
  for (uint32_t i = 0; i < n; i++) {
    Slice key;
    TDB_RETURN_IF_ERROR(dec.GetLengthPrefixed(&key));
    keys.push_back(key.ToBuffer());
    if (leaf) {
      Slice value;
      TDB_RETURN_IF_ERROR(dec.GetLengthPrefixed(&value));
      values.push_back(value.ToBuffer());
    }
  }
  if (!leaf) {
    children.resize(n + 1);
    for (uint32_t i = 0; i <= n; i++) {
      TDB_RETURN_IF_ERROR(dec.GetVarint32(&children[i]));
    }
  }
  return Status::OK();
}

size_t NodePage::ByteSize() const {
  size_t size = 8;
  for (size_t i = 0; i < keys.size(); i++) {
    size += keys[i].size() + 5;
    if (leaf) size += values[i].size() + 5;
  }
  size += children.size() * 5;
  return size;
}

Pager::Pager(platform::UntrustedStore* store, std::string file,
             size_t cache_pages)
    : store_(store), file_(std::move(file)), cache_pages_(cache_pages) {}

void Pager::Reset(uint32_t next_page_id) {
  Clear();
  next_page_id_ = next_page_id;
}

void Pager::Clear() {
  cache_.clear();
  lru_.clear();
  dirty_count_ = 0;
}

void Pager::Touch(uint32_t page_id, Entry& entry) {
  lru_.erase(entry.lru_pos);
  lru_.push_front(page_id);
  entry.lru_pos = lru_.begin();
}

Result<NodePage*> Pager::Get(uint32_t page_id) {
  auto it = cache_.find(page_id);
  if (it != cache_.end()) {
    Touch(page_id, it->second);
    return it->second.page.get();
  }
  Buffer raw;
  TDB_RETURN_IF_ERROR(store_->Read(
      file_, static_cast<uint64_t>(page_id) * kPageSize, kPageSize, &raw));
  auto page = std::make_unique<NodePage>();
  TDB_RETURN_IF_ERROR(page->Parse(raw));
  Entry entry;
  entry.page = std::move(page);
  lru_.push_front(page_id);
  entry.lru_pos = lru_.begin();
  NodePage* raw_ptr = entry.page.get();
  cache_.emplace(page_id, std::move(entry));
  EvictCleanIfNeeded();
  return raw_ptr;
}

Result<NodePage*> Pager::GetWritable(uint32_t page_id) {
  TDB_ASSIGN_OR_RETURN(NodePage * page, Get(page_id));
  Entry& entry = cache_.at(page_id);
  if (!entry.dirty) {
    entry.dirty = true;
    dirty_count_++;
  }
  return page;
}

Result<uint32_t> Pager::Allocate(NodePage** out) {
  uint32_t page_id = next_page_id_++;
  Entry entry;
  entry.page = std::make_unique<NodePage>();
  entry.dirty = true;
  dirty_count_++;
  lru_.push_front(page_id);
  entry.lru_pos = lru_.begin();
  *out = entry.page.get();
  cache_.emplace(page_id, std::move(entry));
  return page_id;
}

Status Pager::FlushAll(bool sync) {
  for (auto& [page_id, entry] : cache_) {
    if (!entry.dirty) continue;
    Buffer raw = entry.page->Serialize();
    TDB_RETURN_IF_ERROR(store_->Write(
        file_, static_cast<uint64_t>(page_id) * kPageSize, raw));
    entry.dirty = false;
  }
  dirty_count_ = 0;
  if (sync) TDB_RETURN_IF_ERROR(store_->Sync(file_));
  EvictCleanIfNeeded();
  return Status::OK();
}

void Pager::EvictCleanIfNeeded() {
  auto it = lru_.end();
  while (cache_.size() > cache_pages_ && it != lru_.begin()) {
    --it;
    // Never evict the MRU entry: callers hold a raw pointer to the page
    // they just fetched.
    if (it == lru_.begin()) break;
    auto entry_it = cache_.find(*it);
    if (entry_it->second.dirty) continue;
    cache_.erase(entry_it);
    it = lru_.erase(it);
  }
}

}  // namespace tdb::baseline
