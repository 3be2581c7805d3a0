#ifndef TDB_BASELINE_PAGER_H_
#define TDB_BASELINE_PAGER_H_

#include <list>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "platform/untrusted_store.h"

namespace tdb::baseline {

/// A parsed B-tree page of the baseline engine. Leaves hold (key, value)
/// byte-string pairs; internal nodes hold separator keys and child page
/// ids (children.size() == keys.size() + 1).
struct NodePage {
  bool leaf = true;
  std::vector<Buffer> keys;
  std::vector<Buffer> values;          // Leaf only.
  std::vector<uint32_t> children;      // Internal only.

  Buffer Serialize() const;
  Status Parse(Slice data);
  /// Serialized byte size (kept <= page size by splits).
  size_t ByteSize() const;
};

/// Page file + buffer pool for the baseline engine: fixed-size pages,
/// LRU cache of parsed nodes, update-in-place writes. This is the
/// conventional storage model the paper contrasts with TDB's log
/// structure: pages are written back where they live, and a write-ahead
/// log provides crash atomicity.
class Pager {
 public:
  static constexpr size_t kPageSize = 4096;
  /// Page ids start at 1; page 0 is the database meta page, managed by
  /// BaselineDb directly.
  Pager(platform::UntrustedStore* store, std::string file,
        size_t cache_pages);

  /// `next_page_id` restores the allocation high-water mark (from meta).
  void Reset(uint32_t next_page_id);

  Result<NodePage*> Get(uint32_t page_id);
  /// Like Get but marks the page dirty.
  Result<NodePage*> GetWritable(uint32_t page_id);
  /// Allocates a fresh (dirty, empty) page.
  Result<uint32_t> Allocate(NodePage** out);

  /// Writes every dirty page in place and syncs the data file (the
  /// checkpoint barrier; also forced when the pool fills with dirty
  /// pages). Clean pages become evictable again.
  Status FlushAll(bool sync);

  /// True when dirty pages exceed the pool budget and a barrier is needed
  /// before more work (the pool never steals dirty pages).
  bool NeedsBarrier() const { return dirty_count_ > cache_pages_; }

  uint32_t next_page_id() const { return next_page_id_; }

  /// Drops the whole cache (recovery restart).
  void Clear();

 private:
  struct Entry {
    std::unique_ptr<NodePage> page;
    bool dirty = false;
    std::list<uint32_t>::iterator lru_pos;
  };

  void Touch(uint32_t page_id, Entry& entry);
  void EvictCleanIfNeeded();

  platform::UntrustedStore* store_;
  std::string file_;
  size_t cache_pages_;
  uint32_t next_page_id_ = 1;
  std::map<uint32_t, Entry> cache_;
  std::list<uint32_t> lru_;
  size_t dirty_count_ = 0;
};

}  // namespace tdb::baseline

#endif  // TDB_BASELINE_PAGER_H_
