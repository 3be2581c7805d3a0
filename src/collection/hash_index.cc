#include "collection/hash_index.h"

#include "common/check.h"

namespace tdb::collection {

namespace {

using object::ObjectId;
using object::ReadonlyRef;
using object::Transaction;
using object::WritableRef;

// Larson linear-hashing bucket address with the table at (round, split).
size_t BucketFor(uint64_t hash, uint32_t round, uint32_t split) {
  uint64_t base = static_cast<uint64_t>(HashIndex::kInitialBuckets) << round;
  uint64_t idx = hash % base;
  if (idx < split) idx = hash % (base << 1);
  return static_cast<size_t>(idx);
}

Result<uint64_t> HashEntry(const GenericIndexer& indexer,
                           const IndexEntry& entry) {
  TDB_ASSIGN_OR_RETURN(std::unique_ptr<GenericKey> key,
                       UnpickleKey(indexer, Slice(entry.key)));
  return key->Hash();
}

// Resolves bucket index -> bucket object id through the paged table.
Result<ObjectId> BucketOid(Transaction* txn, const HashDirectory& dir,
                           size_t index) {
  size_t page_idx = index / HashIndex::kBucketsPerPage;
  size_t slot = index % HashIndex::kBucketsPerPage;
  TDB_ASSIGN_OR_RETURN(ReadonlyRef<HashDirPage> page,
                       txn->OpenReadonly<HashDirPage>(dir.pages[page_idx]));
  return page->buckets[slot];
}

// Appends a fresh bucket to the table, growing it by one page if needed.
Status AppendBucket(Transaction* txn, WritableRef<HashDirectory>& dir,
                    ObjectId bucket) {
  if (dir->n_buckets % HashIndex::kBucketsPerPage == 0) {
    auto page = std::make_unique<HashDirPage>();
    page->buckets.push_back(bucket);
    TDB_ASSIGN_OR_RETURN(ObjectId page_oid, txn->Insert(std::move(page)));
    dir->pages.push_back(page_oid);
  } else {
    TDB_ASSIGN_OR_RETURN(WritableRef<HashDirPage> page,
                         txn->OpenWritable<HashDirPage>(dir->pages.back()));
    page->buckets.push_back(bucket);
  }
  dir->n_buckets++;
  return Status::OK();
}

// Splits the bucket at the split pointer (controlled splitting: triggered
// by bucket overflow, §Larson). Rewrites only the root, one table page,
// and the two buckets involved.
Status SplitOne(Transaction* txn, const GenericIndexer& indexer,
                WritableRef<HashDirectory>& dir) {
  const uint32_t old_index = dir->split;
  TDB_ASSIGN_OR_RETURN(ObjectId new_bucket_id,
                       txn->Insert(std::make_unique<HashBucket>()));
  TDB_RETURN_IF_ERROR(AppendBucket(txn, dir, new_bucket_id));

  // Advance the split pointer (and round) before redistributing so
  // BucketFor routes with the post-split geometry.
  dir->split++;
  uint64_t base = static_cast<uint64_t>(HashIndex::kInitialBuckets)
                  << dir->round;
  if (dir->split == base) {
    dir->round++;
    dir->split = 0;
  }

  TDB_ASSIGN_OR_RETURN(ObjectId old_bucket_id,
                       BucketOid(txn, *dir, old_index));
  TDB_ASSIGN_OR_RETURN(WritableRef<HashBucket> old_bucket,
                       txn->OpenWritable<HashBucket>(old_bucket_id));
  TDB_ASSIGN_OR_RETURN(WritableRef<HashBucket> new_bucket,
                       txn->OpenWritable<HashBucket>(new_bucket_id));
  std::vector<IndexEntry> keep;
  for (IndexEntry& entry : old_bucket->entries) {
    TDB_ASSIGN_OR_RETURN(uint64_t h, HashEntry(indexer, entry));
    if (BucketFor(h, dir->round, dir->split) == old_index) {
      keep.push_back(std::move(entry));
    } else {
      new_bucket->entries.push_back(std::move(entry));
    }
  }
  old_bucket->entries = std::move(keep);
  return Status::OK();
}

}  // namespace

Result<ObjectId> HashIndex::Create(Transaction* txn) {
  auto dir = std::make_unique<HashDirectory>();
  auto page = std::make_unique<HashDirPage>();
  for (uint32_t i = 0; i < kInitialBuckets; i++) {
    TDB_ASSIGN_OR_RETURN(ObjectId bucket,
                         txn->Insert(std::make_unique<HashBucket>()));
    page->buckets.push_back(bucket);
  }
  TDB_ASSIGN_OR_RETURN(ObjectId page_oid, txn->Insert(std::move(page)));
  dir->pages.push_back(page_oid);
  dir->n_buckets = kInitialBuckets;
  return txn->Insert(std::move(dir));
}

Status HashIndex::Insert(Transaction* txn, const GenericIndexer& indexer,
                         ObjectId root, const GenericKey& key, ObjectId oid) {
  // Read-only root access on the fast path: the directory is rewritten
  // only when a split happens.
  uint32_t round, split;
  size_t idx;
  ObjectId bucket_oid;
  {
    TDB_ASSIGN_OR_RETURN(ReadonlyRef<HashDirectory> dir,
                         txn->OpenReadonly<HashDirectory>(root));
    round = dir->round;
    split = dir->split;
    idx = BucketFor(key.Hash(), round, split);
    TDB_ASSIGN_OR_RETURN(bucket_oid, BucketOid(txn, *dir, idx));
  }
  TDB_ASSIGN_OR_RETURN(WritableRef<HashBucket> bucket,
                       txn->OpenWritable<HashBucket>(bucket_oid));
  IndexEntry entry;
  entry.key = Slice(PickleKey(key)).ToString();
  entry.oid = oid;
  bucket->entries.push_back(std::move(entry));

  if (bucket->entries.size() > kSplitThreshold) {
    TDB_ASSIGN_OR_RETURN(WritableRef<HashDirectory> dir,
                         txn->OpenWritable<HashDirectory>(root));
    TDB_RETURN_IF_ERROR(SplitOne(txn, indexer, dir));
  }
  return Status::OK();
}

Status HashIndex::Remove(Transaction* txn, ObjectId root,
                         const GenericKey& key, ObjectId oid) {
  ObjectId bucket_oid;
  {
    TDB_ASSIGN_OR_RETURN(ReadonlyRef<HashDirectory> dir,
                         txn->OpenReadonly<HashDirectory>(root));
    size_t idx = BucketFor(key.Hash(), dir->round, dir->split);
    TDB_ASSIGN_OR_RETURN(bucket_oid, BucketOid(txn, *dir, idx));
  }
  TDB_ASSIGN_OR_RETURN(WritableRef<HashBucket> bucket,
                       txn->OpenWritable<HashBucket>(bucket_oid));
  for (size_t i = 0; i < bucket->entries.size(); i++) {
    if (bucket->entries[i].oid != oid) continue;
    TDB_ASSIGN_OR_RETURN(int cmp,
                         ComparePickled(Slice(bucket->entries[i].key), key));
    if (cmp == 0) {
      bucket->entries.erase(bucket->entries.begin() + i);
      return Status::OK();
    }
  }
  return Status::NotFound("index entry not found");
}

Status HashIndex::Lookup(Transaction* txn, ObjectId root,
                         const GenericKey* min, const GenericKey* max,
                         std::vector<ObjectId>* out) {
  const bool scan = min == nullptr && max == nullptr;
  if (!scan && (min == nullptr || max == nullptr || min->Compare(*max) != 0)) {
    return Status::NotSupported(
        "range queries require an ordered index (B-tree or list)");
  }
  TDB_ASSIGN_OR_RETURN(ReadonlyRef<HashDirectory> dir,
                       txn->OpenReadonly<HashDirectory>(root));
  // A scan reads every bucket; a match only the one its key hashes to.
  size_t first = 0, end = dir->n_buckets;
  if (!scan) {
    first = BucketFor(min->Hash(), dir->round, dir->split);
    end = first + 1;
  }
  for (size_t i = first; i < end; i++) {
    TDB_ASSIGN_OR_RETURN(ObjectId bucket_oid, BucketOid(txn, *dir, i));
    TDB_ASSIGN_OR_RETURN(ReadonlyRef<HashBucket> bucket,
                         txn->OpenReadonly<HashBucket>(bucket_oid));
    for (const IndexEntry& entry : bucket->entries) {
      if (!scan) {
        TDB_ASSIGN_OR_RETURN(int cmp, ComparePickled(Slice(entry.key), *min));
        if (cmp != 0) continue;
      }
      out->push_back(entry.oid);
    }
  }
  return Status::OK();
}

Status HashIndex::Destroy(Transaction* txn, ObjectId root) {
  std::vector<ObjectId> pages;
  std::vector<ObjectId> buckets;
  {
    TDB_ASSIGN_OR_RETURN(ReadonlyRef<HashDirectory> dir,
                         txn->OpenReadonly<HashDirectory>(root));
    pages = dir->pages;
    for (uint32_t i = 0; i < dir->n_buckets; i++) {
      TDB_ASSIGN_OR_RETURN(ObjectId bucket,
                           BucketOid(txn, *dir, i));
      buckets.push_back(bucket);
    }
  }
  for (ObjectId bucket : buckets) TDB_RETURN_IF_ERROR(txn->Remove(bucket));
  for (ObjectId page : pages) TDB_RETURN_IF_ERROR(txn->Remove(page));
  return txn->Remove(root);
}

}  // namespace tdb::collection
