#ifndef TDB_COLLECTION_COLLECTION_H_
#define TDB_COLLECTION_COLLECTION_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "collection/index_nodes.h"
#include "collection/indexer.h"
#include "collection/key.h"
#include "object/object_store.h"

namespace tdb::collection {

class CTransaction;
class CollectionStore;
class Iterator;

/// Persistent descriptor of one index on a collection.
struct IndexDesc {
  std::string name;
  IndexKind kind = IndexKind::kBTree;
  bool unique = false;
  bool immutable_keys = false;  // §5.2.3 snapshot-skipping declaration.
  object::ObjectId root = object::kInvalidObjectId;
};

/// A collection: a set of objects sharing one or more automatically
/// maintained indexes (§5.1.1). Collections are themselves persistent
/// objects; mutating methods require the collection opened writable
/// (obtained from CTransaction::CreateCollection / WriteCollection).
///
/// Objects in a collection must inherit from the collection's schema class
/// — enforced at runtime through the indexers' type checks (§5.2.1). An
/// object should belong to at most one collection (§5.1.1; not enforced).
///
/// When the underlying ObjectStore sits on a shard::ShardedChunkStore,
/// collection members and index nodes may land on different shards; a
/// CTransaction's commit is still all-or-nothing because the object
/// layer's single write batch rides the router's MAC-chained 2PC
/// (DESIGN.md, "Sharding & cross-shard commit" — object transactions
/// over shards). Nothing here is shard-aware.
class Collection final : public object::Object {
 public:
  Collection() = default;

  object::ClassId class_id() const override { return kCollectionClassId; }
  void Pickle(object::Pickler* pickler) const override;
  Status UnpickleFrom(object::Unpickler* unpickler) override;
  size_t ApproxSize() const override;

  const std::string& name() const { return name_; }
  object::ObjectId id() const { return self_oid_; }
  size_t index_count() const { return indexes_.size(); }
  const std::vector<IndexDesc>& indexes() const { return indexes_; }

  /// Creates a new index described by `indexer` and back-fills it with
  /// every object already in the collection (§5.1.2). UniqueViolation if a
  /// unique index would cover duplicate keys. Fails while iterators are
  /// open on this collection. A failed call leaves the collection as it
  /// was.
  Status CreateIndex(CTransaction* t, std::shared_ptr<GenericIndexer> indexer);

  /// Drops an index. InvalidArgument if it is the collection's only index.
  Status RemoveIndex(CTransaction* t, const GenericIndexer& indexer);

  /// Inserts `object` into the collection (and all its indexes). Returns
  /// the new object id. UniqueViolation if any unique index would get a
  /// duplicate key; TypeMismatch if the object is not a schema instance.
  Result<object::ObjectId> Insert(CTransaction* t,
                                  std::unique_ptr<object::Object> object);

  /// Queries (§5.1.2, Figure 6): scan, exact-match, range. The returned
  /// iterator is *insensitive* (§5.2.2): it enumerates the result set as
  /// of query time and hides the transaction's own updates until Close.
  Result<std::unique_ptr<Iterator>> Query(CTransaction* t,
                                          const GenericIndexer& indexer) const;
  Result<std::unique_ptr<Iterator>> Query(CTransaction* t,
                                          const GenericIndexer& indexer,
                                          const GenericKey& match) const;
  Result<std::unique_ptr<Iterator>> Query(CTransaction* t,
                                          const GenericIndexer& indexer,
                                          const GenericKey* min,
                                          const GenericKey* max) const;

  /// Removes every object whose `indexer` key lies in [min, max] (null =
  /// unbounded), deleting the objects and maintaining all indexes — the
  /// retention primitive for time-ordered collections: the freed chunks
  /// feed the cleaner. `removed` (optional) reports how many objects were
  /// deleted. Subject to the single-open-iterator constraint of §5.2.2.
  Status RemoveRange(CTransaction* t, const GenericIndexer& indexer,
                     const GenericKey* min, const GenericKey* max,
                     size_t* removed = nullptr);

 private:
  friend class CTransaction;
  friend class Iterator;

  // Looks up the descriptor matching `indexer` (by name, validating that
  // organization and uniqueness agree).
  Result<const IndexDesc*> FindIndex(const GenericIndexer& indexer) const;
  // Builds the index `ix` describes and back-fills it with the members.
  Result<IndexDesc> BuildIndex(CTransaction* t, const GenericIndexer& ix) const;

  std::string name_;
  object::ObjectId self_oid_ = object::kInvalidObjectId;
  std::vector<IndexDesc> indexes_;
};

/// Unidirectional, insensitive iterator over a query result (§5.2.2).
/// Dereferencing writable marks the object for deferred index maintenance;
/// all index updates happen at Close(), which reports UniqueViolation and
/// the list of ejected objects if the transaction's updates created
/// duplicate keys in unique indexes (§5.2.3).
class Iterator {
 public:
  ~Iterator();
  Iterator(const Iterator&) = delete;
  Iterator& operator=(const Iterator&) = delete;

  bool end() const { return pos_ >= result_.size(); }
  /// Advances to the next object (iterators are unidirectional).
  void Next() {
    if (!end()) pos_++;
  }
  object::ObjectId current() const;

  /// Dereferences the current object read-only.
  template <typename T>
  Result<object::ReadonlyRef<T>> Read();

  /// Dereferences the current object writable. Requires that no other
  /// iterator is open on the same collection (constraint 2 of §5.2.2).
  /// A pre-update snapshot of every indexed key is taken before the
  /// reference is returned (§5.2.3).
  template <typename T>
  Result<object::WritableRef<T>> Write();

  /// Deletes the currently enumerated object from the collection (applied
  /// at Close, like all index maintenance).
  Status RemoveCurrent();

  /// Applies deferred index maintenance. Returns UniqueViolation if any
  /// update created a duplicate key in a unique index; the violating
  /// objects are removed from the collection's indexes and listed in
  /// ejected() so the application can re-integrate them. Idempotent.
  Status Close();

  const std::vector<object::ObjectId>& ejected() const { return ejected_; }

 private:
  friend class Collection;

  struct TouchedObject {
    object::ObjectId oid;
    // Pickled pre-update key under each index, in index_descs_ order
    // (left empty for immutable-key indexes, §5.2.3).
    std::vector<Buffer> pre_keys;
    bool removed = false;
  };

  Iterator(CTransaction* ct, const Collection& collection,
           std::vector<object::ObjectId> result);

  // Captures the pre-update key snapshot for `oid` if not yet recorded.
  Status SnapshotKeys(object::ObjectId oid);
  // The first touched_ entry whose oid is not below `oid`.
  std::vector<TouchedObject>::iterator TouchedAt(object::ObjectId oid);
  Status CheckWritable() const;
  Result<object::ObjectId> CurrentChecked() const;

  CTransaction* ct_;
  std::string collection_name_;
  object::ObjectId coll_oid_;
  std::vector<IndexDesc> index_descs_;  // Frozen at query time.
  std::vector<object::ObjectId> result_;
  size_t pos_ = 0;
  bool closed_ = false;
  std::vector<TouchedObject> touched_;  // Ascending by oid.
  std::vector<object::ObjectId> ejected_;
};

/// Transaction facade for collection applications (§5.1.2, Figure 5).
/// Unlike the object store's Transaction, it does not expose direct object
/// creation/update/deletion — writable references to collection objects
/// come only from iterators (constraint 1 of §5.2.2).
class CTransaction {
 public:
  explicit CTransaction(CollectionStore* store);
  ~CTransaction();
  CTransaction(const CTransaction&) = delete;
  CTransaction& operator=(const CTransaction&) = delete;

  /// Creates a new named collection with a single index. The indexer is
  /// retained by the collection store for index maintenance.
  Result<object::WritableRef<Collection>> CreateCollection(
      const std::string& name, std::shared_ptr<GenericIndexer> indexer);

  Result<object::ReadonlyRef<Collection>> ReadCollection(
      const std::string& name);
  Result<object::WritableRef<Collection>> WriteCollection(
      const std::string& name);

  /// Removes a named collection along with all objects in it.
  Status RemoveCollection(const std::string& name);

  /// Names of all collections in the database.
  Result<std::vector<std::string>> ListCollections();

  /// Commits/aborts. Commit fails while iterators are open (their deferred
  /// index maintenance has not been applied yet). The indexer registry
  /// follows the outcome: indexers of removed indexes and collections are
  /// unregistered when the transaction commits, and indexers it registered
  /// by creating them are unregistered when it does not.
  Status Commit(bool durable = true);
  Status Abort();
  bool active() const { return txn_.active(); }

  CollectionStore* store() { return store_; }
  /// The underlying object-store transaction (used by index code; also an
  /// escape hatch for mixed object/collection applications).
  object::Transaction* txn() { return &txn_; }

 private:
  friend class Collection;
  friend class Iterator;

  using IndexerName = std::pair<std::string, std::string>;

  // Open iterators on the collection `coll` (an entry is made on first
  // use; a transaction touches few collections).
  int& OpenIterators(object::ObjectId coll);

  // Registers `indexer` for `collection`. A name it adds stays registered
  // only if this transaction commits.
  Status RegisterIndexer(const std::string& collection,
                         std::shared_ptr<GenericIndexer> indexer);
  // Unregisters `name` at once if this transaction registered it (a
  // create that failed after registering).
  void UnregisterAdded(const IndexerName& name);
  // Applies the registry changes of a transaction that ended: the
  // removals if it committed, the undoing of its additions if not.
  void SettleIndexers(bool committed);

  CollectionStore* store_;
  object::Transaction txn_;
  std::vector<std::pair<object::ObjectId, int>> open_iterators_;
  std::vector<IndexerName> added_indexers_;
  // Names of removed indexes and collections, unregistered at commit.
  std::vector<IndexerName> removed_indexers_;
};

/// The collection store (§5): keyed access to collections of objects over
/// the object store. Holds the live indexer registry (extractor functions
/// cannot be persisted, so applications re-register indexers after
/// restart — passing them to CreateCollection/CreateIndex/Query registers
/// them automatically).
class CollectionStore {
 public:
  /// Registers TDB's internal persistent classes and loads (or creates)
  /// the collection directory.
  static Result<std::unique_ptr<CollectionStore>> Open(
      object::ObjectStore* objects);

  /// Makes `indexer` available for maintenance of the like-named index of
  /// `collection_name`. Idempotent for equal (name, kind, uniqueness);
  /// InvalidArgument for another kind, uniqueness or key mutability under
  /// a registered name, or a kind IndexKind does not name. A registration
  /// made here lasts until a committed transaction removes the index or
  /// its collection.
  Status RegisterIndexer(const std::string& collection_name,
                         std::shared_ptr<GenericIndexer> indexer) {
    return AddIndexer(collection_name, std::move(indexer), nullptr);
  }

  /// The registered indexer for (collection, index); NotFound if absent.
  Result<const GenericIndexer*> FindIndexer(const std::string& collection_name,
                                            const std::string& index_name) const;

  object::ObjectStore* object_store() { return objects_; }
  object::ObjectId directory_oid() const { return directory_oid_; }

 private:
  friend class CTransaction;

  explicit CollectionStore(object::ObjectStore* objects)
      : objects_(objects) {}

  // RegisterIndexer; `*added` (if given) tells whether the name was new.
  Status AddIndexer(const std::string& collection_name,
                    std::shared_ptr<GenericIndexer> indexer, bool* added);

  object::ObjectStore* objects_;
  object::ObjectId directory_oid_ = object::kInvalidObjectId;
  std::map<std::pair<std::string, std::string>,
           std::shared_ptr<GenericIndexer>>
      indexers_;
};

// ---------------------------------------------------------------------------
// Template implementations.

template <typename T>
Result<object::ReadonlyRef<T>> Iterator::Read() {
  TDB_ASSIGN_OR_RETURN(object::ObjectId oid, CurrentChecked());
  return ct_->txn()->OpenReadonly<T>(oid);
}

template <typename T>
Result<object::WritableRef<T>> Iterator::Write() {
  TDB_ASSIGN_OR_RETURN(object::ObjectId oid, CurrentChecked());
  TDB_RETURN_IF_ERROR(CheckWritable());
  TDB_RETURN_IF_ERROR(SnapshotKeys(oid));
  return ct_->txn()->OpenWritable<T>(oid);
}

}  // namespace tdb::collection

#endif  // TDB_COLLECTION_COLLECTION_H_
