#ifndef TDB_COLLECTION_HASH_INDEX_H_
#define TDB_COLLECTION_HASH_INDEX_H_

#include <vector>

#include "collection/index_nodes.h"
#include "object/object_store.h"

namespace tdb::collection {

/// Dynamic hash table index using Larson's linear hashing [20]: the table
/// grows one bucket at a time (splitting the bucket at the split pointer,
/// triggered by bucket overflow), so no global rehash ever happens.
/// The bucket table is paged, so one insert dirties at most a bucket plus —
/// when a split fires — the small root and one table page. Supports scan
/// and exact-match; range queries need an ordered index (B-tree). The
/// directory object's id is the index root and is stable.
class HashIndex {
 public:
  static constexpr uint32_t kInitialBuckets = 4;
  static constexpr size_t kSplitThreshold = 12;  // Bucket overflow trigger.
  static constexpr size_t kBucketsPerPage = 128;

  // The five-operation index contract (index_nodes.h). Insert takes the
  // indexer to rehash the entries of a bucket it splits.
  static Result<object::ObjectId> Create(object::Transaction* txn);
  static Status Insert(object::Transaction* txn,
                       const GenericIndexer& indexer, object::ObjectId root,
                       const GenericKey& key, object::ObjectId oid);
  static Status Remove(object::Transaction* txn, object::ObjectId root,
                       const GenericKey& key, object::ObjectId oid);
  /// A scan (null bounds) or an exact match (equal bounds); NotSupported
  /// for any other bounds.
  static Status Lookup(object::Transaction* txn, object::ObjectId root,
                       const GenericKey* min, const GenericKey* max,
                       std::vector<object::ObjectId>* out);
  static Status Destroy(object::Transaction* txn, object::ObjectId root);
};

}  // namespace tdb::collection

#endif  // TDB_COLLECTION_HASH_INDEX_H_
