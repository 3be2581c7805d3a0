#ifndef TDB_COMMON_LRU_LIST_H_
#define TDB_COMMON_LRU_LIST_H_

namespace tdb::common {

/// Intrusive recency list for cache entries that never move in memory
/// (e.g. the values of an std::unordered_map, whose nodes keep their
/// addresses). `Entry` provides `Entry* newer` and `Entry* older`, both
/// null while the entry is off the list. Linking and unlinking allocate
/// nothing. Not thread-safe; the owning cache serializes access.
template <typename Entry>
class LruList {
 public:
  /// The least recently used entry, or nullptr when the list is empty.
  Entry* oldest() const { return oldest_; }

  /// Links an entry that is off the list at the most recently used end.
  void PushNewest(Entry& entry) {
    entry.newer = nullptr;
    entry.older = newest_;
    if (newest_ != nullptr) newest_->newer = &entry;
    newest_ = &entry;
    if (oldest_ == nullptr) oldest_ = &entry;
  }

  /// Unlinks an entry that is on the list.
  void Remove(Entry& entry) {
    (entry.newer != nullptr ? entry.newer->older : newest_) = entry.older;
    (entry.older != nullptr ? entry.older->newer : oldest_) = entry.newer;
    entry.newer = entry.older = nullptr;
  }

  /// Moves an entry that is on the list to the most recently used end.
  void Touch(Entry& entry) {
    if (newest_ == &entry) return;
    Remove(entry);
    PushNewest(entry);
  }

  /// Forgets every entry (their links are left as they are).
  void Clear() { newest_ = oldest_ = nullptr; }

 private:
  Entry* newest_ = nullptr;
  Entry* oldest_ = nullptr;
};

}  // namespace tdb::common

#endif  // TDB_COMMON_LRU_LIST_H_
