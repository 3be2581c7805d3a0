#ifndef TDB_COLLECTION_INDEX_NODES_H_
#define TDB_COLLECTION_INDEX_NODES_H_

#include <vector>

#include "collection/indexer.h"
#include "common/result.h"
#include "object/class_registry.h"
#include "object/object.h"

namespace tdb::object {
class Transaction;
}  // namespace tdb::object

namespace tdb::collection {

/// Class ids below this value are reserved for TDB-internal persistent
/// classes (collection metadata and index meta-objects). Applications must
/// register their classes at kReservedClassIdLimit or above.
constexpr object::ClassId kReservedClassIdLimit = 32;

constexpr object::ClassId kCollectionClassId = 2;
constexpr object::ClassId kDirectoryClassId = 3;
constexpr object::ClassId kBTreeNodeClassId = 4;
constexpr object::ClassId kHashDirectoryClassId = 5;
constexpr object::ClassId kHashBucketClassId = 6;
constexpr object::ClassId kListNodeClassId = 7;
constexpr object::ClassId kHashDirPageClassId = 8;

/// One (pickled key, object id) pair as stored in index meta-objects.
/// The key bytes are held in a std::string so that short keys (every
/// built-in scalar key) live inside the entry: unpickling a bucket or a
/// node does not allocate once per entry.
struct IndexEntry {
  std::string key;
  object::ObjectId oid = object::kInvalidObjectId;
};

/// B+-tree node (§5.2.4). Leaves hold (key, oid) entries sorted by
/// (key, oid); internal nodes hold separator entries and child node ids.
/// Index meta-objects are ordinary persistent objects, so they are locked,
/// cached, logged, encrypted and hashed like everything else — which is
/// precisely how TDB protects index meta-data from tampering (§1).
class BTreeNode final : public object::Object {
 public:
  object::ClassId class_id() const override { return kBTreeNodeClassId; }
  void Pickle(object::Pickler* pickler) const override;
  Status UnpickleFrom(object::Unpickler* unpickler) override;
  size_t ApproxSize() const override;

  bool leaf = true;
  std::vector<IndexEntry> entries;  // Leaf data or internal separators.
  std::vector<object::ObjectId> children;  // Internal: entries.size() + 1.
};

/// Linear-hashing directory root (Larson [20]). The bucket table is paged
/// (HashDirPage) so that a split — which grows the table by one bucket —
/// rewrites only this small root and one page, never the whole table.
class HashDirectory final : public object::Object {
 public:
  object::ClassId class_id() const override { return kHashDirectoryClassId; }
  void Pickle(object::Pickler* pickler) const override;
  Status UnpickleFrom(object::Unpickler* unpickler) override;
  size_t ApproxSize() const override {
    return sizeof(*this) + pages.size() * sizeof(object::ObjectId);
  }

  uint32_t round = 0;
  uint32_t split = 0;
  uint32_t n_buckets = 0;
  std::vector<object::ObjectId> pages;
};

/// One fixed-capacity page of the bucket table.
class HashDirPage final : public object::Object {
 public:
  object::ClassId class_id() const override { return kHashDirPageClassId; }
  void Pickle(object::Pickler* pickler) const override;
  Status UnpickleFrom(object::Unpickler* unpickler) override;
  size_t ApproxSize() const override {
    return sizeof(*this) + buckets.size() * sizeof(object::ObjectId);
  }

  std::vector<object::ObjectId> buckets;
};

/// One hash bucket.
class HashBucket final : public object::Object {
 public:
  object::ClassId class_id() const override { return kHashBucketClassId; }
  void Pickle(object::Pickler* pickler) const override;
  Status UnpickleFrom(object::Unpickler* unpickler) override;
  size_t ApproxSize() const override;

  std::vector<IndexEntry> entries;
};

/// Node of a list index: a chain of entry blocks.
class ListNode final : public object::Object {
 public:
  object::ClassId class_id() const override { return kListNodeClassId; }
  void Pickle(object::Pickler* pickler) const override;
  Status UnpickleFrom(object::Unpickler* unpickler) override;
  size_t ApproxSize() const override;

  std::vector<IndexEntry> entries;
  object::ObjectId next = object::kInvalidObjectId;
};

/// Registers every internal class with `registry` (done by the collection
/// store at open).
Status RegisterIndexNodeClasses(object::ClassRegistry* registry);

// --- Shared key helpers -----------------------------------------------

/// Unpickles a stored key through the indexer's key factory.
Result<std::unique_ptr<GenericKey>> UnpickleKey(const GenericIndexer& indexer,
                                                Slice pickled);

/// Compares a stored (pickled) key against a live key of the index's key
/// class, decoding in place (GenericKey::ComparePickled).
Result<int> ComparePickled(Slice a, const GenericKey& b);

// --- The index contract -----------------------------------------------

/// The five entry points every index kind (BTreeIndex, HashIndex,
/// ListIndex) exports as static members:
///
///   create(txn) -> root          an empty index; the root id is stable.
///   insert(txn, indexer, root, key, oid)
///                                adds the entry. Uniqueness is not checked
///                                here: the collection store checks it.
///   remove(txn, root, key, oid)  NotFound if the entry is absent.
///   lookup(txn, root, min, max, out)
///                                appends the oids with min <= key <= max.
///                                Null bounds are open, so (null, null) is a
///                                scan and equal bounds an exact match. The
///                                hash kind serves only those two and returns
///                                NotSupported for any other bounds.
///   destroy(txn, root)           removes every node of the index.
struct IndexOps {
  Result<object::ObjectId> (*create)(object::Transaction* txn);
  Status (*insert)(object::Transaction* txn, const GenericIndexer& indexer,
                   object::ObjectId root, const GenericKey& key,
                   object::ObjectId oid);
  Status (*remove)(object::Transaction* txn, object::ObjectId root,
                   const GenericKey& key, object::ObjectId oid);
  Status (*lookup)(object::Transaction* txn, object::ObjectId root,
                   const GenericKey* min, const GenericKey* max,
                   std::vector<object::ObjectId>* out);
  Status (*destroy)(object::Transaction* txn, object::ObjectId root);
  bool ranges;  // Serves Collection::Query(min, max).
};

/// The entry points of `kind`, one of the IndexKind enumerators, from the
/// one table indexed by IndexKind (collection.cc).
const IndexOps& IndexOpsFor(IndexKind kind);

}  // namespace tdb::collection

#endif  // TDB_COLLECTION_INDEX_NODES_H_
