#include "collection/collection.h"

#include <algorithm>
#include <iterator>

#include "collection/btree_index.h"
#include "collection/hash_index.h"
#include "collection/list_index.h"
#include "common/check.h"

namespace tdb::collection {

namespace {

using object::ObjectId;
using object::ReadonlyRef;
using object::Transaction;
using object::WritableRef;

constexpr char kDirectoryRootName[] = "tdb.collections";
// Pickle buffers for keys start with room for a typical key.
constexpr size_t kKeyReserve = 16;

/// Persistent name -> collection-oid map (one per database).
class CollectionDirectory final : public object::Object {
 public:
  object::ClassId class_id() const override { return kDirectoryClassId; }
  void Pickle(object::Pickler* pickler) const override {
    pickler->PutUint64(collections.size());
    for (const auto& [name, oid] : collections) {
      pickler->PutString(name);
      pickler->PutUint64(oid);
    }
  }
  Status UnpickleFrom(object::Unpickler* unpickler) override {
    uint64_t n;
    TDB_RETURN_IF_ERROR(unpickler->GetUint64(&n));
    collections.clear();
    for (uint64_t i = 0; i < n; i++) {
      std::string name;
      uint64_t oid;
      TDB_RETURN_IF_ERROR(unpickler->GetString(&name));
      TDB_RETURN_IF_ERROR(unpickler->GetUint64(&oid));
      collections[name] = oid;
    }
    return Status::OK();
  }
  size_t ApproxSize() const override {
    return sizeof(*this) + collections.size() * 48;
  }

  std::map<std::string, ObjectId> collections;
};

// --- Index-kind dispatch ---------------------------------------------

template <typename Kind>
constexpr IndexOps OpsOf(bool ranges) {
  return {Kind::Create, Kind::Insert, Kind::Remove, Kind::Lookup,
          Kind::Destroy, ranges};
}

// Indexed by IndexKind - 1: the one place that tells the kinds apart.
constexpr IndexOps kIndexOps[] = {
    OpsOf<BTreeIndex>(true),  // kBTree
    OpsOf<HashIndex>(false),  // kHashTable
    OpsOf<ListIndex>(true),   // kList
};

// Whether an IndexKind value has an entry in kIndexOps. Descriptors hold
// only such kinds: CollectionStore::RegisterIndexer refuses an indexer of
// any other kind (and an index is built only after its indexer is
// registered), Collection::UnpickleFrom a stored one.
bool KnownKind(uint32_t kind) {
  return kind >= 1 && kind <= std::size(kIndexOps);
}

Status Lookup(Transaction* txn, const IndexDesc& desc, const GenericKey* min,
              const GenericKey* max, std::vector<ObjectId>* out) {
  return IndexOpsFor(desc.kind).lookup(txn, desc.root, min, max, out);
}

Status Scan(Transaction* txn, const IndexDesc& desc,
            std::vector<ObjectId>* out) {
  return Lookup(txn, desc, nullptr, nullptr, out);
}

Status Match(Transaction* txn, const IndexDesc& desc, const GenericKey& key,
             std::vector<ObjectId>* out) {
  return Lookup(txn, desc, &key, &key, out);
}

Result<bool> ContainsKey(Transaction* txn, const IndexDesc& desc,
                         const GenericKey& key) {
  std::vector<ObjectId> oids;
  TDB_RETURN_IF_ERROR(Match(txn, desc, key, &oids));
  return !oids.empty();
}

// The collection store's one uniqueness check (§5.1.2): UniqueViolation if
// `desc` is unique and already holds `key`. Callers run it before they
// insert the entry.
Status CheckUnique(Transaction* txn, const IndexDesc& desc,
                   const GenericKey& key) {
  if (!desc.unique) return Status::OK();
  TDB_ASSIGN_OR_RETURN(bool present, ContainsKey(txn, desc, key));
  if (!present) return Status::OK();
  return Status::UniqueViolation("duplicate key in unique index '" +
                                 desc.name + "'");
}

Status IndexInsert(Transaction* txn, const GenericIndexer& indexer,
                   const IndexDesc& desc, const GenericKey& key,
                   ObjectId oid) {
  return IndexOpsFor(desc.kind).insert(txn, indexer, desc.root, key, oid);
}

// NotFound (the entry is already gone) counts as removed.
Status IndexRemove(Transaction* txn, const IndexDesc& desc,
                   const GenericKey& key, ObjectId oid) {
  Status removed = IndexOpsFor(desc.kind).remove(txn, desc.root, key, oid);
  return removed.IsNotFound() ? Status::OK() : removed;
}

Status IndexDestroy(Transaction* txn, const IndexDesc& desc) {
  return IndexOpsFor(desc.kind).destroy(txn, desc.root);
}

// Describes the registered `indexer`'s index and creates its (empty)
// structure.
Result<IndexDesc> NewIndex(Transaction* txn, const GenericIndexer& indexer) {
  IndexDesc desc;
  desc.name = indexer.name();
  desc.kind = indexer.kind();
  desc.unique = indexer.unique();
  desc.immutable_keys = indexer.immutable_keys();
  TDB_ASSIGN_OR_RETURN(desc.root, IndexOpsFor(desc.kind).create(txn));
  return desc;
}

}  // namespace

const IndexOps& IndexOpsFor(IndexKind kind) {
  return kIndexOps[static_cast<size_t>(kind) - 1];
}

// ---------------------------------------------------------------------------
// Collection persistence

void Collection::Pickle(object::Pickler* pickler) const {
  pickler->PutString(name_);
  pickler->PutUint64(self_oid_);
  pickler->PutUint64(indexes_.size());
  for (const IndexDesc& desc : indexes_) {
    pickler->PutString(desc.name);
    pickler->PutUint32(static_cast<uint32_t>(desc.kind));
    pickler->PutBool(desc.unique);
    pickler->PutBool(desc.immutable_keys);
    pickler->PutUint64(desc.root);
  }
}

Status Collection::UnpickleFrom(object::Unpickler* unpickler) {
  TDB_RETURN_IF_ERROR(unpickler->GetString(&name_));
  TDB_RETURN_IF_ERROR(unpickler->GetUint64(&self_oid_));
  uint64_t n;
  TDB_RETURN_IF_ERROR(unpickler->GetUint64(&n));
  if (n > 1024) return Status::Corruption("absurd index count");
  indexes_.clear();
  indexes_.resize(n);
  for (uint64_t i = 0; i < n; i++) {
    TDB_RETURN_IF_ERROR(unpickler->GetString(&indexes_[i].name));
    uint32_t kind;
    TDB_RETURN_IF_ERROR(unpickler->GetUint32(&kind));
    if (!KnownKind(kind)) return Status::Corruption("bad index kind");
    indexes_[i].kind = static_cast<IndexKind>(kind);
    TDB_RETURN_IF_ERROR(unpickler->GetBool(&indexes_[i].unique));
    TDB_RETURN_IF_ERROR(unpickler->GetBool(&indexes_[i].immutable_keys));
    TDB_RETURN_IF_ERROR(unpickler->GetUint64(&indexes_[i].root));
  }
  return Status::OK();
}

size_t Collection::ApproxSize() const {
  return sizeof(*this) + indexes_.size() * 64 + name_.size();
}

Result<const IndexDesc*> Collection::FindIndex(
    const GenericIndexer& indexer) const {
  for (const IndexDesc& desc : indexes_) {
    if (desc.name != indexer.name()) continue;
    if (desc.kind != indexer.kind() || desc.unique != indexer.unique() ||
        desc.immutable_keys != indexer.immutable_keys()) {
      return Status::InvalidArgument("indexer '" + indexer.name() +
                                     "' does not match the stored index");
    }
    return &desc;
  }
  return Status::NotFound("no index named '" + indexer.name() + "'");
}

// ---------------------------------------------------------------------------
// Collection operations

Status Collection::CreateIndex(CTransaction* t,
                               std::shared_ptr<GenericIndexer> indexer) {
  if (indexer == nullptr) return Status::InvalidArgument("null indexer");
  if (t->OpenIterators(self_oid_) > 0) {
    return Status::InvalidArgument(
        "cannot create an index while iterators are open");
  }
  for (const IndexDesc& desc : indexes_) {
    if (desc.name == indexer->name()) {
      return Status::AlreadyExists("index '" + desc.name + "' exists");
    }
  }
  // Register before anything is built, so a refused registration leaves
  // the collection as it was; a failed build takes the registration back.
  TDB_RETURN_IF_ERROR(t->RegisterIndexer(name_, indexer));
  Result<IndexDesc> desc = BuildIndex(t, *indexer);
  if (!desc.ok()) {
    t->UnregisterAdded({name_, indexer->name()});
    return desc.status();
  }
  indexes_.push_back(std::move(desc).value());
  return Status::OK();
}

Result<IndexDesc> Collection::BuildIndex(CTransaction* t,
                                         const GenericIndexer& ix) const {
  TDB_ASSIGN_OR_RETURN(IndexDesc desc, NewIndex(t->txn(), ix));

  // Back-fill from the existing objects (via the first index).
  std::vector<ObjectId> members;
  if (!indexes_.empty()) {
    TDB_RETURN_IF_ERROR(Scan(t->txn(), indexes_[0], &members));
  }
  for (ObjectId oid : members) {
    TDB_ASSIGN_OR_RETURN(ReadonlyRef<object::Object> obj,
                         t->txn()->OpenReadonly<object::Object>(oid));
    TDB_ASSIGN_OR_RETURN(std::unique_ptr<GenericKey> key, ix.ExtractKey(*obj));
    Status inserted = CheckUnique(t->txn(), desc, *key);
    if (inserted.ok()) {
      inserted = IndexInsert(t->txn(), ix, desc, *key, oid);
    }
    if (!inserted.ok()) {
      // §5.1.2: creating a unique index over duplicate keys raises an
      // exception; tear the partial index down.
      IndexDestroy(t->txn(), desc).ok();
      return inserted;
    }
  }
  return desc;
}

Status Collection::RemoveIndex(CTransaction* t,
                               const GenericIndexer& indexer) {
  if (t->OpenIterators(self_oid_) > 0) {
    return Status::InvalidArgument(
        "cannot remove an index while iterators are open");
  }
  if (indexes_.size() == 1) {
    return Status::InvalidArgument(
        "a collection must keep at least one index");
  }
  TDB_ASSIGN_OR_RETURN(const IndexDesc* desc, FindIndex(indexer));
  TDB_RETURN_IF_ERROR(IndexDestroy(t->txn(), *desc));
  t->removed_indexers_.push_back({name_, desc->name});
  for (auto it = indexes_.begin(); it != indexes_.end(); ++it) {
    if (it->name == desc->name) {
      indexes_.erase(it);
      break;
    }
  }
  return Status::OK();
}

Result<ObjectId> Collection::Insert(CTransaction* t,
                                    std::unique_ptr<object::Object> object) {
  if (object == nullptr) return Status::InvalidArgument("null object");
  // Resolve all indexers and extract all keys up front (this also performs
  // the schema-class runtime check).
  std::vector<const GenericIndexer*> indexers;
  std::vector<std::unique_ptr<GenericKey>> keys;
  for (const IndexDesc& desc : indexes_) {
    TDB_ASSIGN_OR_RETURN(const GenericIndexer* indexer,
                         t->store()->FindIndexer(name_, desc.name));
    TDB_ASSIGN_OR_RETURN(std::unique_ptr<GenericKey> key,
                         indexer->ExtractKey(*object));
    indexers.push_back(indexer);
    keys.push_back(std::move(key));
  }
  // Uniqueness pre-check so a violation mutates nothing (§5.1.2).
  for (size_t i = 0; i < indexes_.size(); i++) {
    TDB_RETURN_IF_ERROR(CheckUnique(t->txn(), indexes_[i], *keys[i]));
  }
  TDB_ASSIGN_OR_RETURN(ObjectId oid, t->txn()->Insert(std::move(object)));
  for (size_t i = 0; i < indexes_.size(); i++) {
    TDB_RETURN_IF_ERROR(
        IndexInsert(t->txn(), *indexers[i], indexes_[i], *keys[i], oid));
  }
  return oid;
}

Result<std::unique_ptr<Iterator>> Collection::Query(
    CTransaction* t, const GenericIndexer& indexer) const {
  TDB_ASSIGN_OR_RETURN(const IndexDesc* desc, FindIndex(indexer));
  std::vector<ObjectId> result;
  TDB_RETURN_IF_ERROR(Scan(t->txn(), *desc, &result));
  return std::unique_ptr<Iterator>(new Iterator(t, *this, std::move(result)));
}

Result<std::unique_ptr<Iterator>> Collection::Query(
    CTransaction* t, const GenericIndexer& indexer,
    const GenericKey& match) const {
  TDB_ASSIGN_OR_RETURN(const IndexDesc* desc, FindIndex(indexer));
  if (!indexer.IsKeyInstance(match)) {
    return Status::TypeMismatch("query key is not of the index key class");
  }
  std::vector<ObjectId> result;
  TDB_RETURN_IF_ERROR(Match(t->txn(), *desc, match, &result));
  return std::unique_ptr<Iterator>(new Iterator(t, *this, std::move(result)));
}

Result<std::unique_ptr<Iterator>> Collection::Query(
    CTransaction* t, const GenericIndexer& indexer, const GenericKey* min,
    const GenericKey* max) const {
  TDB_ASSIGN_OR_RETURN(const IndexDesc* desc, FindIndex(indexer));
  if ((min != nullptr && !indexer.IsKeyInstance(*min)) ||
      (max != nullptr && !indexer.IsKeyInstance(*max))) {
    return Status::TypeMismatch("query key is not of the index key class");
  }
  if (!IndexOpsFor(desc->kind).ranges) {
    return Status::NotSupported(
        "range queries require an ordered index (B-tree or list)");
  }
  std::vector<ObjectId> result;
  TDB_RETURN_IF_ERROR(Lookup(t->txn(), *desc, min, max, &result));
  return std::unique_ptr<Iterator>(new Iterator(t, *this, std::move(result)));
}

Status Collection::RemoveRange(CTransaction* t, const GenericIndexer& indexer,
                               const GenericKey* min, const GenericKey* max,
                               size_t* removed) {
  TDB_ASSIGN_OR_RETURN(std::unique_ptr<Iterator> it,
                       Query(t, indexer, min, max));
  size_t count = 0;
  Status status;
  for (; status.ok() && !it->end(); it->Next()) {
    status = it->RemoveCurrent();
    if (status.ok()) count++;
  }
  Status closed = it->Close();
  if (status.ok()) status = closed;
  if (removed != nullptr) *removed = count;
  return status;
}

// ---------------------------------------------------------------------------
// Iterator

Iterator::Iterator(CTransaction* ct, const Collection& collection,
                   std::vector<ObjectId> result)
    : ct_(ct),
      collection_name_(collection.name()),
      coll_oid_(collection.id()),
      index_descs_(collection.indexes()),
      result_(std::move(result)) {
  ct_->OpenIterators(coll_oid_)++;
}

Iterator::~Iterator() {
  // Applying maintenance here (with status discarded) would hide
  // uniqueness violations; but leaving indexes unmaintained is worse.
  Close().ok();
}

object::ObjectId Iterator::current() const {
  TDB_CHECK(!end(), "iterator dereferenced past the end");
  return result_[pos_];
}

Result<ObjectId> Iterator::CurrentChecked() const {
  if (closed_) return Status::InvalidArgument("iterator closed");
  if (end()) return Status::InvalidArgument("iterator at end");
  return result_[pos_];
}

Status Iterator::CheckWritable() const {
  if (ct_->OpenIterators(coll_oid_) != 1) {
    return Status::InvalidArgument(
        "writable dereference with multiple open iterators on the "
        "collection (§5.2.2 constraint)");
  }
  return Status::OK();
}

std::vector<Iterator::TouchedObject>::iterator Iterator::TouchedAt(
    ObjectId oid) {
  return std::lower_bound(
      touched_.begin(), touched_.end(), oid,
      [](const TouchedObject& t, ObjectId id) { return t.oid < id; });
}

Status Iterator::SnapshotKeys(ObjectId oid) {
  auto pos = TouchedAt(oid);
  if (pos != touched_.end() && pos->oid == oid) {
    return Status::OK();  // Snapshot already taken.
  }
  TouchedObject& touched =
      *touched_.insert(pos, TouchedObject{oid, {}, false});
  touched.pre_keys.resize(index_descs_.size());
  TDB_ASSIGN_OR_RETURN(ReadonlyRef<object::Object> obj,
                       ct_->txn()->OpenReadonly<object::Object>(oid));
  for (size_t i = 0; i < index_descs_.size(); i++) {
    // §5.2.3: keys declared immutable are not snapshotted — the space
    // saving the paper describes.
    if (index_descs_[i].immutable_keys) continue;
    TDB_ASSIGN_OR_RETURN(
        const GenericIndexer* indexer,
        ct_->store()->FindIndexer(collection_name_, index_descs_[i].name));
    object::Pickler key(kKeyReserve);
    TDB_RETURN_IF_ERROR(indexer->PickleKeyOf(*obj, &key));
    touched.pre_keys[i] = key.Take();
  }
  return Status::OK();
}

Status Iterator::RemoveCurrent() {
  TDB_ASSIGN_OR_RETURN(ObjectId oid, CurrentChecked());
  TDB_RETURN_IF_ERROR(CheckWritable());
  TDB_RETURN_IF_ERROR(SnapshotKeys(oid));
  TouchedAt(oid)->removed = true;  // SnapshotKeys made the entry.
  return Status::OK();
}

Status Iterator::Close() {
  if (closed_) return Status::OK();
  closed_ = true;
  ct_->OpenIterators(coll_oid_)--;
  if (!ct_->active()) return Status::OK();  // Nothing to maintain.
  if (touched_.empty()) return Status::OK();

  // Resolve the indexers once.
  std::vector<const GenericIndexer*> indexers;
  indexers.reserve(index_descs_.size());
  for (const IndexDesc& desc : index_descs_) {
    TDB_ASSIGN_OR_RETURN(
        const GenericIndexer* indexer,
        ct_->store()->FindIndexer(collection_name_, desc.name));
    indexers.push_back(indexer);
  }

  Status violation = Status::OK();
  // Holds each post-update key while it is compared with the snapshot.
  object::Pickler post(kKeyReserve);
  for (TouchedObject& info : touched_) {
    const ObjectId oid = info.oid;
    if (info.removed) {
      for (size_t i = 0; i < index_descs_.size(); i++) {
        std::unique_ptr<GenericKey> pre;
        if (index_descs_[i].immutable_keys) {
          // No snapshot was taken: the (unchanged) key is recomputed from
          // the cached object.
          TDB_ASSIGN_OR_RETURN(ReadonlyRef<object::Object> doomed,
                               ct_->txn()->OpenReadonly<object::Object>(oid));
          TDB_ASSIGN_OR_RETURN(pre, indexers[i]->ExtractKey(*doomed));
        } else {
          TDB_ASSIGN_OR_RETURN(pre,
                               UnpickleKey(*indexers[i], info.pre_keys[i]));
        }
        TDB_RETURN_IF_ERROR(
            IndexRemove(ct_->txn(), index_descs_[i], *pre, oid));
      }
      TDB_RETURN_IF_ERROR(ct_->txn()->Remove(oid));
      continue;
    }

    // Updated object: compute post-update keys from the cached version
    // (§5.2.3) and redo only the indexes whose key changed.
    TDB_ASSIGN_OR_RETURN(ReadonlyRef<object::Object> obj,
                         ct_->txn()->OpenReadonly<object::Object>(oid));
    // Whether index i's pickled key changed (false for immutable keys).
    auto key_changed = [&](size_t i) -> Result<bool> {
      if (index_descs_[i].immutable_keys) return false;  // §5.2.3: no redo.
      post.Clear();
      TDB_RETURN_IF_ERROR(indexers[i]->PickleKeyOf(*obj, &post));
      return Slice(post.buffer()) != Slice(info.pre_keys[i]);
    };
    Status eject_status = Status::OK();
    size_t failed_index = 0;
    for (size_t i = 0; i < index_descs_.size(); i++) {
      TDB_ASSIGN_OR_RETURN(bool changed, key_changed(i));
      if (!changed) continue;
      TDB_ASSIGN_OR_RETURN(std::unique_ptr<GenericKey> post_key,
                           indexers[i]->ExtractKey(*obj));
      TDB_ASSIGN_OR_RETURN(std::unique_ptr<GenericKey> pre,
                           UnpickleKey(*indexers[i], info.pre_keys[i]));
      TDB_RETURN_IF_ERROR(IndexRemove(ct_->txn(), index_descs_[i], *pre, oid));
      Status unique = CheckUnique(ct_->txn(), index_descs_[i], *post_key);
      if (unique.IsUniqueViolation()) {
        eject_status = unique;
        failed_index = i;
        break;
      }
      TDB_RETURN_IF_ERROR(unique);
      TDB_RETURN_IF_ERROR(IndexInsert(ct_->txn(), *indexers[i],
                                      index_descs_[i], *post_key, oid));
    }

    if (!eject_status.ok()) {
      // §5.2.3: the update created a duplicate key in a unique index. The
      // object is removed from the collection (all indexes) and reported
      // so the application can re-integrate it. Indexes before the failed
      // one whose key changed were switched to the post-update key.
      for (size_t i = 0; i < index_descs_.size(); i++) {
        if (i == failed_index) continue;  // Pre removed, post not inserted.
        std::unique_ptr<GenericKey> key;
        TDB_ASSIGN_OR_RETURN(bool changed, key_changed(i));
        if (index_descs_[i].immutable_keys || (i < failed_index && changed)) {
          TDB_ASSIGN_OR_RETURN(key, indexers[i]->ExtractKey(*obj));
        } else {
          TDB_ASSIGN_OR_RETURN(key,
                               UnpickleKey(*indexers[i], info.pre_keys[i]));
        }
        TDB_RETURN_IF_ERROR(
            IndexRemove(ct_->txn(), index_descs_[i], *key, oid));
      }
      ejected_.push_back(oid);
      violation = eject_status;
    }
  }
  return violation;
}

// ---------------------------------------------------------------------------
// CTransaction

CTransaction::CTransaction(CollectionStore* store)
    : store_(store), txn_(store->object_store()) {}

CTransaction::~CTransaction() {
  if (txn_.active()) Abort().ok();
}

Result<WritableRef<Collection>> CTransaction::CreateCollection(
    const std::string& name, std::shared_ptr<GenericIndexer> indexer) {
  if (indexer == nullptr) return Status::InvalidArgument("null indexer");
  TDB_ASSIGN_OR_RETURN(
      WritableRef<CollectionDirectory> directory,
      txn_.OpenWritable<CollectionDirectory>(store_->directory_oid()));
  if (directory->collections.count(name)) {
    return Status::AlreadyExists("collection '" + name + "' exists");
  }
  // Register before anything is built, so a refused registration leaves
  // the directory as it was; a failed build takes the registration back.
  TDB_RETURN_IF_ERROR(RegisterIndexer(name, indexer));
  auto build = [&]() -> Result<WritableRef<Collection>> {
    auto collection = std::make_unique<Collection>();
    collection->name_ = name;
    TDB_ASSIGN_OR_RETURN(ObjectId oid, txn_.Insert(std::move(collection)));
    TDB_ASSIGN_OR_RETURN(WritableRef<Collection> ref,
                         txn_.OpenWritable<Collection>(oid));
    ref->self_oid_ = oid;
    TDB_ASSIGN_OR_RETURN(IndexDesc desc, NewIndex(&txn_, *indexer));
    ref->indexes_.push_back(std::move(desc));
    directory->collections[name] = oid;
    return ref;
  };
  Result<WritableRef<Collection>> ref = build();
  if (!ref.ok()) UnregisterAdded({name, indexer->name()});
  return ref;
}

Result<ReadonlyRef<Collection>> CTransaction::ReadCollection(
    const std::string& name) {
  TDB_ASSIGN_OR_RETURN(
      ReadonlyRef<CollectionDirectory> directory,
      txn_.OpenReadonly<CollectionDirectory>(store_->directory_oid()));
  auto it = directory->collections.find(name);
  if (it == directory->collections.end()) {
    return Status::NotFound("no collection named '" + name + "'");
  }
  return txn_.OpenReadonly<Collection>(it->second);
}

Result<WritableRef<Collection>> CTransaction::WriteCollection(
    const std::string& name) {
  TDB_ASSIGN_OR_RETURN(
      ReadonlyRef<CollectionDirectory> directory,
      txn_.OpenReadonly<CollectionDirectory>(store_->directory_oid()));
  auto it = directory->collections.find(name);
  if (it == directory->collections.end()) {
    return Status::NotFound("no collection named '" + name + "'");
  }
  return txn_.OpenWritable<Collection>(it->second);
}

Status CTransaction::RemoveCollection(const std::string& name) {
  TDB_ASSIGN_OR_RETURN(
      WritableRef<CollectionDirectory> directory,
      txn_.OpenWritable<CollectionDirectory>(store_->directory_oid()));
  auto it = directory->collections.find(name);
  if (it == directory->collections.end()) {
    return Status::NotFound("no collection named '" + name + "'");
  }
  ObjectId coll_oid = it->second;
  if (OpenIterators(coll_oid) > 0) {
    return Status::InvalidArgument(
        "cannot remove a collection while iterators are open");
  }
  TDB_ASSIGN_OR_RETURN(WritableRef<Collection> collection,
                       txn_.OpenWritable<Collection>(coll_oid));
  // Remove every member object (enumerated via the first index)...
  std::vector<ObjectId> members;
  TDB_RETURN_IF_ERROR(Scan(&txn_, collection->indexes_[0], &members));
  for (ObjectId oid : members) {
    TDB_RETURN_IF_ERROR(txn_.Remove(oid));
  }
  // ...then the index structures and the collection itself.
  for (const IndexDesc& desc : collection->indexes_) {
    TDB_RETURN_IF_ERROR(IndexDestroy(&txn_, desc));
    removed_indexers_.push_back({name, desc.name});
  }
  TDB_RETURN_IF_ERROR(txn_.Remove(coll_oid));
  directory->collections.erase(it);
  return Status::OK();
}

Result<std::vector<std::string>> CTransaction::ListCollections() {
  TDB_ASSIGN_OR_RETURN(
      ReadonlyRef<CollectionDirectory> directory,
      txn_.OpenReadonly<CollectionDirectory>(store_->directory_oid()));
  std::vector<std::string> names;
  names.reserve(directory->collections.size());
  for (const auto& [name, _] : directory->collections) {
    names.push_back(name);
  }
  return names;
}

int& CTransaction::OpenIterators(ObjectId coll) {
  for (auto& [id, count] : open_iterators_) {
    if (id == coll) return count;
  }
  if (open_iterators_.empty()) open_iterators_.reserve(4);
  return open_iterators_.emplace_back(coll, 0).second;
}

Status CTransaction::Commit(bool durable) {
  for (const auto& [coll, count] : open_iterators_) {
    if (count > 0) {
      return Status::InvalidArgument(
          "cannot commit with open iterators (close them first)");
    }
  }
  Status committed = txn_.Commit(durable);
  if (committed.ok() || !txn_.active()) SettleIndexers(committed.ok());
  return committed;
}

Status CTransaction::Abort() {
  Status aborted = txn_.Abort();
  SettleIndexers(false);
  return aborted;
}

Status CTransaction::RegisterIndexer(const std::string& collection,
                                     std::shared_ptr<GenericIndexer> indexer) {
  IndexerName name{collection, indexer->name()};
  bool added = false;
  TDB_RETURN_IF_ERROR(
      store_->AddIndexer(collection, std::move(indexer), &added));
  // Re-created after a removal in this transaction: it stays registered.
  std::erase(removed_indexers_, name);
  if (added) added_indexers_.push_back(std::move(name));
  return Status::OK();
}

void CTransaction::UnregisterAdded(const IndexerName& name) {
  if (std::erase(added_indexers_, name) > 0) store_->indexers_.erase(name);
}

void CTransaction::SettleIndexers(bool committed) {
  for (const IndexerName& name :
       committed ? removed_indexers_ : added_indexers_) {
    store_->indexers_.erase(name);
  }
  added_indexers_.clear();
  removed_indexers_.clear();
}

// ---------------------------------------------------------------------------
// CollectionStore

Result<std::unique_ptr<CollectionStore>> CollectionStore::Open(
    object::ObjectStore* objects) {
  std::unique_ptr<CollectionStore> store(new CollectionStore(objects));
  object::ClassRegistry& registry = objects->registry();
  if (!registry.IsRegistered(kCollectionClassId)) {
    TDB_RETURN_IF_ERROR(registry.Register<Collection>(kCollectionClassId));
    TDB_RETURN_IF_ERROR(
        registry.Register<CollectionDirectory>(kDirectoryClassId));
    TDB_RETURN_IF_ERROR(RegisterIndexNodeClasses(&registry));
  }
  TDB_ASSIGN_OR_RETURN(ObjectId directory,
                       objects->GetNamedRoot(kDirectoryRootName));
  if (directory == object::kInvalidObjectId) {
    object::Transaction txn(objects);
    TDB_ASSIGN_OR_RETURN(directory,
                         txn.Insert(std::make_unique<CollectionDirectory>()));
    TDB_RETURN_IF_ERROR(txn.Commit(true));
    TDB_RETURN_IF_ERROR(objects->SetNamedRoot(kDirectoryRootName, directory));
  }
  store->directory_oid_ = directory;
  return store;
}

Status CollectionStore::AddIndexer(const std::string& collection_name,
                                   std::shared_ptr<GenericIndexer> indexer,
                                   bool* added) {
  if (indexer == nullptr) return Status::InvalidArgument("null indexer");
  if (!KnownKind(static_cast<uint32_t>(indexer->kind()))) {
    return Status::InvalidArgument("unknown index kind");
  }
  auto key = std::make_pair(collection_name, indexer->name());
  auto it = indexers_.find(key);
  if (it != indexers_.end()) {
    if (it->second->kind() != indexer->kind() ||
        it->second->unique() != indexer->unique() ||
        it->second->immutable_keys() != indexer->immutable_keys()) {
      return Status::InvalidArgument(
          "conflicting indexer registration for '" + indexer->name() + "'");
    }
    it->second = std::move(indexer);  // Refresh the extractor binding.
    if (added != nullptr) *added = false;
    return Status::OK();
  }
  indexers_.emplace(std::move(key), std::move(indexer));
  if (added != nullptr) *added = true;
  return Status::OK();
}

Result<const GenericIndexer*> CollectionStore::FindIndexer(
    const std::string& collection_name, const std::string& index_name) const {
  auto it = indexers_.find(std::make_pair(collection_name, index_name));
  if (it == indexers_.end()) {
    return Status::NotFound("indexer '" + index_name +
                            "' not registered for collection '" +
                            collection_name +
                            "' (re-register indexers after restart)");
  }
  return it->second.get();
}

}  // namespace tdb::collection
