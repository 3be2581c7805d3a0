#include "collection/index_nodes.h"

namespace tdb::collection {

namespace {

void PickleEntries(object::Pickler* pickler,
                   const std::vector<IndexEntry>& entries) {
  pickler->PutUint64(entries.size());
  for (const IndexEntry& entry : entries) {
    pickler->PutBytes(Slice(entry.key));
    pickler->PutUint64(entry.oid);
  }
}

Status UnpickleEntries(object::Unpickler* unpickler,
                       std::vector<IndexEntry>* entries) {
  uint64_t n;
  TDB_RETURN_IF_ERROR(unpickler->GetUint64(&n));
  if (n > (1u << 24)) return Status::Corruption("absurd entry count");
  entries->clear();
  entries->resize(n);
  for (uint64_t i = 0; i < n; i++) {
    TDB_RETURN_IF_ERROR(unpickler->GetString(&(*entries)[i].key));
    TDB_RETURN_IF_ERROR(unpickler->GetUint64(&(*entries)[i].oid));
  }
  return Status::OK();
}

// Object-cache charge of one entry besides its key bytes: a fixed figure
// (what a 32-byte entry plus 8 bytes came to), so how much of an index the
// cache holds does not depend on the entry's in-memory layout.
constexpr size_t kEntryCharge = 40;

size_t EntriesSize(const std::vector<IndexEntry>& entries) {
  size_t size = entries.size() * kEntryCharge;
  for (const IndexEntry& entry : entries) size += entry.key.size();
  return size;
}

}  // namespace

void BTreeNode::Pickle(object::Pickler* pickler) const {
  pickler->PutBool(leaf);
  PickleEntries(pickler, entries);
  pickler->PutUint64(children.size());
  for (object::ObjectId child : children) pickler->PutUint64(child);
}

Status BTreeNode::UnpickleFrom(object::Unpickler* unpickler) {
  TDB_RETURN_IF_ERROR(unpickler->GetBool(&leaf));
  TDB_RETURN_IF_ERROR(UnpickleEntries(unpickler, &entries));
  uint64_t n;
  TDB_RETURN_IF_ERROR(unpickler->GetUint64(&n));
  if (n > (1u << 20)) return Status::Corruption("absurd child count");
  children.resize(n);
  for (uint64_t i = 0; i < n; i++) {
    TDB_RETURN_IF_ERROR(unpickler->GetUint64(&children[i]));
  }
  return Status::OK();
}

size_t BTreeNode::ApproxSize() const {
  return sizeof(*this) + EntriesSize(entries) +
         children.size() * sizeof(object::ObjectId);
}

void HashDirectory::Pickle(object::Pickler* pickler) const {
  pickler->PutUint32(round);
  pickler->PutUint32(split);
  pickler->PutUint32(n_buckets);
  pickler->PutUint64(pages.size());
  for (object::ObjectId page : pages) pickler->PutUint64(page);
}

Status HashDirectory::UnpickleFrom(object::Unpickler* unpickler) {
  TDB_RETURN_IF_ERROR(unpickler->GetUint32(&round));
  TDB_RETURN_IF_ERROR(unpickler->GetUint32(&split));
  TDB_RETURN_IF_ERROR(unpickler->GetUint32(&n_buckets));
  uint64_t n;
  TDB_RETURN_IF_ERROR(unpickler->GetUint64(&n));
  if (n > (1u << 24)) return Status::Corruption("absurd page count");
  pages.resize(n);
  for (uint64_t i = 0; i < n; i++) {
    TDB_RETURN_IF_ERROR(unpickler->GetUint64(&pages[i]));
  }
  return Status::OK();
}

void HashDirPage::Pickle(object::Pickler* pickler) const {
  pickler->PutUint64(buckets.size());
  for (object::ObjectId bucket : buckets) pickler->PutUint64(bucket);
}

Status HashDirPage::UnpickleFrom(object::Unpickler* unpickler) {
  uint64_t n;
  TDB_RETURN_IF_ERROR(unpickler->GetUint64(&n));
  if (n > (1u << 20)) return Status::Corruption("absurd bucket count");
  buckets.resize(n);
  for (uint64_t i = 0; i < n; i++) {
    TDB_RETURN_IF_ERROR(unpickler->GetUint64(&buckets[i]));
  }
  return Status::OK();
}

void HashBucket::Pickle(object::Pickler* pickler) const {
  PickleEntries(pickler, entries);
}

Status HashBucket::UnpickleFrom(object::Unpickler* unpickler) {
  return UnpickleEntries(unpickler, &entries);
}

size_t HashBucket::ApproxSize() const {
  return sizeof(*this) + EntriesSize(entries);
}

void ListNode::Pickle(object::Pickler* pickler) const {
  PickleEntries(pickler, entries);
  pickler->PutUint64(next);
}

Status ListNode::UnpickleFrom(object::Unpickler* unpickler) {
  TDB_RETURN_IF_ERROR(UnpickleEntries(unpickler, &entries));
  return unpickler->GetUint64(&next);
}

size_t ListNode::ApproxSize() const {
  return sizeof(*this) + EntriesSize(entries);
}

Status RegisterIndexNodeClasses(object::ClassRegistry* registry) {
  TDB_RETURN_IF_ERROR(registry->Register<BTreeNode>(kBTreeNodeClassId));
  TDB_RETURN_IF_ERROR(
      registry->Register<HashDirectory>(kHashDirectoryClassId));
  TDB_RETURN_IF_ERROR(registry->Register<HashBucket>(kHashBucketClassId));
  TDB_RETURN_IF_ERROR(registry->Register<HashDirPage>(kHashDirPageClassId));
  return registry->Register<ListNode>(kListNodeClassId);
}

Result<std::unique_ptr<GenericKey>> UnpickleKey(const GenericIndexer& indexer,
                                                Slice pickled) {
  std::unique_ptr<GenericKey> key = indexer.NewKey();
  object::Unpickler unpickler{pickled};
  TDB_RETURN_IF_ERROR(key->UnpickleFrom(&unpickler));
  return key;
}

Result<int> ComparePickled(Slice a, const GenericKey& b) {
  object::Unpickler unpickler{a};
  return b.ComparePickled(&unpickler);
}

}  // namespace tdb::collection
