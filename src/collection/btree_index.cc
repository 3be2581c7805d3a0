#include "collection/btree_index.h"

#include "common/check.h"

namespace tdb::collection {

namespace {

using object::ObjectId;
using object::ReadonlyRef;
using object::Transaction;
using object::WritableRef;

constexpr size_t kT = BTreeIndex::kMinDegree;

// <0, 0, >0 as the stored entry orders before, at or after (key, oid).
Result<int> CompareEntry(const IndexEntry& entry, const GenericKey& key,
                         ObjectId oid) {
  TDB_ASSIGN_OR_RETURN(int cmp, ComparePickled(Slice(entry.key), key));
  if (cmp != 0) return cmp;
  return entry.oid < oid ? -1 : (entry.oid > oid ? 1 : 0);
}

// The number of entries ordered before (key, oid): its leaf position. With
// `or_equal`, entries equal to it count too: the child slot to descend.
Result<size_t> Search(const std::vector<IndexEntry>& entries,
                      const GenericKey& key, ObjectId oid, bool or_equal) {
  size_t lo = 0, hi = entries.size();
  while (lo < hi) {
    size_t mid = (lo + hi) / 2;
    TDB_ASSIGN_OR_RETURN(int cmp, CompareEntry(entries[mid], key, oid));
    if (cmp < 0 || (or_equal && cmp == 0)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

// Splits the full child at `idx` of `parent`, inserting a new separator.
Status SplitChild(Transaction* txn, WritableRef<BTreeNode>& parent,
                  size_t idx) {
  TDB_ASSIGN_OR_RETURN(WritableRef<BTreeNode> child,
                       txn->OpenWritable<BTreeNode>(parent->children[idx]));
  TDB_CHECK(child->entries.size() == BTreeIndex::kMaxEntries);
  auto right = std::make_unique<BTreeNode>();
  right->leaf = child->leaf;
  IndexEntry separator;
  if (child->leaf) {
    // B+ leaf split: the separator is a *copy* of the right half's first
    // entry; data stays in leaves.
    right->entries.assign(child->entries.begin() + kT, child->entries.end());
    child->entries.resize(kT);
    separator = right->entries.front();
  } else {
    separator = child->entries[kT - 1];
    right->entries.assign(child->entries.begin() + kT, child->entries.end());
    right->children.assign(child->children.begin() + kT,
                           child->children.end());
    child->entries.resize(kT - 1);
    child->children.resize(kT);
  }
  TDB_ASSIGN_OR_RETURN(ObjectId right_id, txn->Insert(std::move(right)));
  parent->entries.insert(parent->entries.begin() + idx, separator);
  parent->children.insert(parent->children.begin() + idx + 1, right_id);
  return Status::OK();
}

Status InsertIntoLeaf(WritableRef<BTreeNode>& leaf, const GenericKey& key,
                      const Buffer& key_bytes, ObjectId oid) {
  TDB_ASSIGN_OR_RETURN(size_t pos, Search(leaf->entries, key, oid, false));
  IndexEntry entry;
  entry.key = Slice(key_bytes).ToString();
  entry.oid = oid;
  leaf->entries.insert(leaf->entries.begin() + pos, std::move(entry));
  return Status::OK();
}

// Slow path: writable descend with preemptive splits.
Status InsertFull(Transaction* txn, ObjectId root, const GenericKey& key,
                  const Buffer& key_bytes, ObjectId oid) {
  TDB_ASSIGN_OR_RETURN(WritableRef<BTreeNode> node,
                       txn->OpenWritable<BTreeNode>(root));
  if (node->entries.size() == BTreeIndex::kMaxEntries) {
    // Grow in height, keeping the root's object id stable: move the root's
    // contents into a fresh child and split it.
    auto moved = std::make_unique<BTreeNode>();
    moved->leaf = node->leaf;
    moved->entries = std::move(node->entries);
    moved->children = std::move(node->children);
    TDB_ASSIGN_OR_RETURN(ObjectId moved_id, txn->Insert(std::move(moved)));
    node->leaf = false;
    node->entries.clear();
    node->children = {moved_id};
    TDB_RETURN_IF_ERROR(SplitChild(txn, node, 0));
  }
  while (!node->leaf) {
    TDB_ASSIGN_OR_RETURN(size_t idx, Search(node->entries, key, oid, true));
    {
      TDB_ASSIGN_OR_RETURN(ReadonlyRef<BTreeNode> peek,
                           txn->OpenReadonly<BTreeNode>(node->children[idx]));
      if (peek->entries.size() == BTreeIndex::kMaxEntries) {
        TDB_RETURN_IF_ERROR(SplitChild(txn, node, idx));
        TDB_ASSIGN_OR_RETURN(idx, Search(node->entries, key, oid, true));
      }
    }
    TDB_ASSIGN_OR_RETURN(WritableRef<BTreeNode> child,
                         txn->OpenWritable<BTreeNode>(node->children[idx]));
    node = child;
  }
  return InsertIntoLeaf(node, key, key_bytes, oid);
}

// Rebalances the (t-1)-entry child at `idx` so it can be descended into.
// Returns the index of the child to descend afterwards.
Result<size_t> EnsureChildFill(Transaction* txn,
                               WritableRef<BTreeNode>& parent, size_t idx) {
  TDB_ASSIGN_OR_RETURN(WritableRef<BTreeNode> child,
                       txn->OpenWritable<BTreeNode>(parent->children[idx]));
  // Try borrowing from the left sibling.
  if (idx > 0) {
    TDB_ASSIGN_OR_RETURN(
        WritableRef<BTreeNode> left,
        txn->OpenWritable<BTreeNode>(parent->children[idx - 1]));
    if (left->entries.size() >= kT) {
      if (child->leaf) {
        child->entries.insert(child->entries.begin(), left->entries.back());
        left->entries.pop_back();
        parent->entries[idx - 1] = child->entries.front();
      } else {
        child->entries.insert(child->entries.begin(),
                              parent->entries[idx - 1]);
        parent->entries[idx - 1] = left->entries.back();
        left->entries.pop_back();
        child->children.insert(child->children.begin(),
                               left->children.back());
        left->children.pop_back();
      }
      return idx;
    }
  }
  // Try borrowing from the right sibling.
  if (idx + 1 < parent->children.size()) {
    TDB_ASSIGN_OR_RETURN(
        WritableRef<BTreeNode> right,
        txn->OpenWritable<BTreeNode>(parent->children[idx + 1]));
    if (right->entries.size() >= kT) {
      if (child->leaf) {
        child->entries.push_back(right->entries.front());
        right->entries.erase(right->entries.begin());
        parent->entries[idx] = right->entries.front();
      } else {
        child->entries.push_back(parent->entries[idx]);
        parent->entries[idx] = right->entries.front();
        right->entries.erase(right->entries.begin());
        child->children.push_back(right->children.front());
        right->children.erase(right->children.begin());
      }
      return idx;
    }
  }
  // Merge with a sibling.
  if (idx > 0) {
    // Merge child into the left sibling.
    TDB_ASSIGN_OR_RETURN(
        WritableRef<BTreeNode> left,
        txn->OpenWritable<BTreeNode>(parent->children[idx - 1]));
    if (!child->leaf) left->entries.push_back(parent->entries[idx - 1]);
    left->entries.insert(left->entries.end(), child->entries.begin(),
                         child->entries.end());
    left->children.insert(left->children.end(), child->children.begin(),
                          child->children.end());
    ObjectId child_id = parent->children[idx];
    parent->entries.erase(parent->entries.begin() + idx - 1);
    parent->children.erase(parent->children.begin() + idx);
    TDB_RETURN_IF_ERROR(txn->Remove(child_id));
    return idx - 1;
  }
  // Merge the right sibling into child.
  TDB_ASSIGN_OR_RETURN(
      WritableRef<BTreeNode> right,
      txn->OpenWritable<BTreeNode>(parent->children[idx + 1]));
  if (!child->leaf) child->entries.push_back(parent->entries[idx]);
  child->entries.insert(child->entries.end(), right->entries.begin(),
                        right->entries.end());
  child->children.insert(child->children.end(), right->children.begin(),
                         right->children.end());
  ObjectId right_id = parent->children[idx + 1];
  parent->entries.erase(parent->entries.begin() + idx);
  parent->children.erase(parent->children.begin() + idx + 1);
  TDB_RETURN_IF_ERROR(txn->Remove(right_id));
  return idx;
}

Status RemoveFromLeaf(WritableRef<BTreeNode>& leaf, const GenericKey& key,
                      ObjectId oid) {
  TDB_ASSIGN_OR_RETURN(size_t pos, Search(leaf->entries, key, oid, false));
  if (pos >= leaf->entries.size()) {
    return Status::NotFound("index entry not found");
  }
  TDB_ASSIGN_OR_RETURN(int cmp, CompareEntry(leaf->entries[pos], key, oid));
  if (cmp != 0) return Status::NotFound("index entry not found");
  leaf->entries.erase(leaf->entries.begin() + pos);
  return Status::OK();
}

// Slow path: writable descend with preemptive rebalancing.
Status RemoveFull(Transaction* txn, ObjectId root, const GenericKey& key,
                  ObjectId oid) {
  TDB_ASSIGN_OR_RETURN(WritableRef<BTreeNode> node,
                       txn->OpenWritable<BTreeNode>(root));
  bool at_root = true;
  for (;;) {
    if (node->leaf) return RemoveFromLeaf(node, key, oid);
    TDB_ASSIGN_OR_RETURN(size_t idx, Search(node->entries, key, oid, true));
    {
      TDB_ASSIGN_OR_RETURN(ReadonlyRef<BTreeNode> peek,
                           txn->OpenReadonly<BTreeNode>(node->children[idx]));
      if (peek->entries.size() <= kT - 1) {
        TDB_ASSIGN_OR_RETURN(idx, EnsureChildFill(txn, node, idx));
      }
    }
    if (at_root && node->entries.empty() && node->children.size() == 1) {
      // Collapse the root into its only child, keeping the root id stable.
      ObjectId only = node->children[0];
      TDB_ASSIGN_OR_RETURN(WritableRef<BTreeNode> child,
                           txn->OpenWritable<BTreeNode>(only));
      node->leaf = child->leaf;
      node->entries = child->entries;
      node->children = child->children;
      TDB_RETURN_IF_ERROR(txn->Remove(only));
      continue;
    }
    TDB_ASSIGN_OR_RETURN(WritableRef<BTreeNode> child,
                         txn->OpenWritable<BTreeNode>(node->children[idx]));
    node = child;
    at_root = false;
  }
}

Status RangeRec(Transaction* txn, ObjectId node_id, const GenericKey* min,
                const GenericKey* max, std::vector<ObjectId>* out) {
  TDB_ASSIGN_OR_RETURN(ReadonlyRef<BTreeNode> node,
                       txn->OpenReadonly<BTreeNode>(node_id));
  if (node->leaf) {
    for (const IndexEntry& entry : node->entries) {
      if (min != nullptr) {
        TDB_ASSIGN_OR_RETURN(int cmp,
                             ComparePickled(Slice(entry.key), *min));
        if (cmp < 0) continue;
      }
      if (max != nullptr) {
        TDB_ASSIGN_OR_RETURN(int cmp,
                             ComparePickled(Slice(entry.key), *max));
        if (cmp > 0) break;  // Entries are sorted: nothing further matches.
      }
      out->push_back(entry.oid);
    }
    return Status::OK();
  }
  for (size_t i = 0; i < node->children.size(); i++) {
    // Child i may contain keys in [sep[i-1].key, sep[i].key].
    if (min != nullptr && i < node->entries.size()) {
      TDB_ASSIGN_OR_RETURN(int cmp,
                           ComparePickled(Slice(node->entries[i].key), *min));
      if (cmp < 0) continue;  // Entire child below the range.
    }
    if (max != nullptr && i > 0) {
      TDB_ASSIGN_OR_RETURN(
          int cmp, ComparePickled(Slice(node->entries[i - 1].key), *max));
      if (cmp > 0) break;  // This child and all further ones above range.
    }
    TDB_RETURN_IF_ERROR(RangeRec(txn, node->children[i], min, max, out));
  }
  return Status::OK();
}

Status ValidateRec(Transaction* txn, const GenericIndexer& indexer,
                   ObjectId node_id, bool is_root, int* leaf_depth,
                   int depth) {
  TDB_ASSIGN_OR_RETURN(ReadonlyRef<BTreeNode> node,
                       txn->OpenReadonly<BTreeNode>(node_id));
  if (!is_root && node->entries.size() < kT - 1) {
    return Status::Corruption("btree node underflow");
  }
  if (node->entries.size() > BTreeIndex::kMaxEntries) {
    return Status::Corruption("btree node overflow");
  }
  // Stored against stored: each entry's key is unpickled to compare its
  // predecessor with it.
  for (size_t i = 1; i < node->entries.size(); i++) {
    TDB_ASSIGN_OR_RETURN(std::unique_ptr<GenericKey> key,
                         UnpickleKey(indexer, Slice(node->entries[i].key)));
    TDB_ASSIGN_OR_RETURN(int cmp, CompareEntry(node->entries[i - 1], *key,
                                               node->entries[i].oid));
    if (cmp >= 0) return Status::Corruption("btree entries out of order");
  }
  if (node->leaf) {
    if (!node->children.empty()) {
      return Status::Corruption("leaf with children");
    }
    if (*leaf_depth == -1) *leaf_depth = depth;
    if (*leaf_depth != depth) {
      return Status::Corruption("leaves at different depths");
    }
    return Status::OK();
  }
  if (node->children.size() != node->entries.size() + 1) {
    return Status::Corruption("internal child count mismatch");
  }
  for (ObjectId child : node->children) {
    TDB_RETURN_IF_ERROR(
        ValidateRec(txn, indexer, child, false, leaf_depth, depth + 1));
  }
  return Status::OK();
}

}  // namespace

Result<ObjectId> BTreeIndex::Create(Transaction* txn) {
  return txn->Insert(std::make_unique<BTreeNode>());
}

Status BTreeIndex::Insert(Transaction* txn, const GenericIndexer& /*indexer*/,
                          ObjectId root, const GenericKey& key, ObjectId oid) {
  Buffer key_bytes = PickleKey(key);

  // Fast path: if the target leaf has room, only the leaf is dirtied.
  ObjectId node_id = root;
  for (;;) {
    TDB_ASSIGN_OR_RETURN(ReadonlyRef<BTreeNode> node,
                         txn->OpenReadonly<BTreeNode>(node_id));
    if (node->leaf) {
      if (node->entries.size() < kMaxEntries) {
        TDB_ASSIGN_OR_RETURN(WritableRef<BTreeNode> leaf,
                             txn->OpenWritable<BTreeNode>(node_id));
        return InsertIntoLeaf(leaf, key, key_bytes, oid);
      }
      break;  // Full leaf: take the splitting path.
    }
    TDB_ASSIGN_OR_RETURN(size_t idx, Search(node->entries, key, oid, true));
    node_id = node->children[idx];
  }
  return InsertFull(txn, root, key, key_bytes, oid);
}

Status BTreeIndex::Remove(Transaction* txn, ObjectId root,
                          const GenericKey& key, ObjectId oid) {
  // Fast path: leaf stays above the minimum (or is the root).
  ObjectId node_id = root;
  for (;;) {
    TDB_ASSIGN_OR_RETURN(ReadonlyRef<BTreeNode> node,
                         txn->OpenReadonly<BTreeNode>(node_id));
    if (node->leaf) {
      if (node_id == root || node->entries.size() > kT - 1) {
        TDB_ASSIGN_OR_RETURN(WritableRef<BTreeNode> leaf,
                             txn->OpenWritable<BTreeNode>(node_id));
        return RemoveFromLeaf(leaf, key, oid);
      }
      break;  // Would underflow: take the rebalancing path.
    }
    TDB_ASSIGN_OR_RETURN(size_t idx, Search(node->entries, key, oid, true));
    node_id = node->children[idx];
  }
  return RemoveFull(txn, root, key, oid);
}

Status BTreeIndex::Lookup(Transaction* txn, ObjectId root,
                          const GenericKey* min, const GenericKey* max,
                          std::vector<ObjectId>* out) {
  return RangeRec(txn, root, min, max, out);
}

Status BTreeIndex::Destroy(Transaction* txn, ObjectId root) {
  std::vector<ObjectId> children;
  {
    TDB_ASSIGN_OR_RETURN(ReadonlyRef<BTreeNode> node,
                         txn->OpenReadonly<BTreeNode>(root));
    children = node->children;
  }
  for (ObjectId child : children) {
    TDB_RETURN_IF_ERROR(Destroy(txn, child));
  }
  return txn->Remove(root);
}

Status BTreeIndex::Validate(Transaction* txn, const GenericIndexer& indexer,
                            ObjectId root) {
  int leaf_depth = -1;
  return ValidateRec(txn, indexer, root, true, &leaf_depth, 0);
}

}  // namespace tdb::collection
