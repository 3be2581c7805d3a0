#ifndef TDB_COLLECTION_BTREE_INDEX_H_
#define TDB_COLLECTION_BTREE_INDEX_H_

#include <vector>

#include "collection/index_nodes.h"
#include "object/object_store.h"

namespace tdb::collection {

/// B+-tree index over (key, object id) entries (§5.2.4). All data entries
/// live in leaves; internal nodes hold routing separators. Entries are
/// totally ordered by (key, oid), which makes non-unique indexes
/// deterministic and removal exact. The root node's object id is stable
/// for the life of the index.
///
/// All nodes are persistent objects accessed through the caller's
/// transaction, so index updates commit or roll back atomically with the
/// data they index — malicious tampering with an index is detected exactly
/// like tampering with data (§1).
class BTreeIndex {
 public:
  /// Minimum degree t: internal nodes have t..2t children; nodes hold
  /// t-1..2t-1 entries (root exempt from the minimum).
  static constexpr size_t kMinDegree = 8;
  static constexpr size_t kMaxEntries = 2 * kMinDegree - 1;

  // The five-operation index contract (index_nodes.h).
  static Result<object::ObjectId> Create(object::Transaction* txn);
  static Status Insert(object::Transaction* txn,
                       const GenericIndexer& indexer, object::ObjectId root,
                       const GenericKey& key, object::ObjectId oid);
  static Status Remove(object::Transaction* txn, object::ObjectId root,
                       const GenericKey& key, object::ObjectId oid);
  /// In (key, oid) order.
  static Status Lookup(object::Transaction* txn, object::ObjectId root,
                       const GenericKey* min, const GenericKey* max,
                       std::vector<object::ObjectId>* out);
  static Status Destroy(object::Transaction* txn, object::ObjectId root);

  /// Test hook: validates tree invariants (ordering, fill factors, depth).
  static Status Validate(object::Transaction* txn,
                         const GenericIndexer& indexer,
                         object::ObjectId root);
};

}  // namespace tdb::collection

#endif  // TDB_COLLECTION_BTREE_INDEX_H_
