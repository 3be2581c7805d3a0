#ifndef TDB_COLLECTION_LIST_INDEX_H_
#define TDB_COLLECTION_LIST_INDEX_H_

#include <vector>

#include "collection/index_nodes.h"
#include "object/object_store.h"

namespace tdb::collection {

/// List index (§5.2.4): a chain of entry blocks with no ordering. The
/// cheapest index when only scans matter; exact-match and range queries
/// are a linear walk, and an insert only appends to the head block. The
/// head node's id is the index root and is stable.
class ListIndex {
 public:
  static constexpr size_t kBlockEntries = 64;

  // The five-operation index contract (index_nodes.h).
  static Result<object::ObjectId> Create(object::Transaction* txn);
  static Status Insert(object::Transaction* txn,
                       const GenericIndexer& indexer, object::ObjectId root,
                       const GenericKey& key, object::ObjectId oid);
  static Status Remove(object::Transaction* txn, object::ObjectId root,
                       const GenericKey& key, object::ObjectId oid);
  static Status Lookup(object::Transaction* txn, object::ObjectId root,
                       const GenericKey* min, const GenericKey* max,
                       std::vector<object::ObjectId>* out);
  static Status Destroy(object::Transaction* txn, object::ObjectId root);
};

}  // namespace tdb::collection

#endif  // TDB_COLLECTION_LIST_INDEX_H_
