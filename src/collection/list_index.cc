#include "collection/list_index.h"

namespace tdb::collection {

namespace {

using object::ObjectId;
using object::ReadonlyRef;
using object::Transaction;
using object::WritableRef;

}  // namespace

Result<ObjectId> ListIndex::Create(Transaction* txn) {
  return txn->Insert(std::make_unique<ListNode>());
}

Status ListIndex::Insert(Transaction* txn, const GenericIndexer& /*indexer*/,
                         ObjectId root, const GenericKey& key, ObjectId oid) {
  TDB_ASSIGN_OR_RETURN(WritableRef<ListNode> head,
                       txn->OpenWritable<ListNode>(root));
  if (head->entries.size() >= kBlockEntries) {
    // Spill the head's entries into a new block so the head id stays
    // stable and inserts stay O(1).
    auto spill = std::make_unique<ListNode>();
    spill->entries = std::move(head->entries);
    spill->next = head->next;
    TDB_ASSIGN_OR_RETURN(ObjectId spill_id, txn->Insert(std::move(spill)));
    head->entries.clear();
    head->next = spill_id;
  }
  IndexEntry entry;
  entry.key = Slice(PickleKey(key)).ToString();
  entry.oid = oid;
  head->entries.push_back(std::move(entry));
  return Status::OK();
}

Status ListIndex::Remove(Transaction* txn, ObjectId root,
                         const GenericKey& key, ObjectId oid) {
  ObjectId node_id = root;
  while (node_id != object::kInvalidObjectId) {
    ObjectId next;
    {
      TDB_ASSIGN_OR_RETURN(ReadonlyRef<ListNode> peek,
                           txn->OpenReadonly<ListNode>(node_id));
      next = peek->next;
      bool found = false;
      for (const IndexEntry& entry : peek->entries) {
        if (entry.oid != oid) continue;
        TDB_ASSIGN_OR_RETURN(int cmp,
                             ComparePickled(Slice(entry.key), key));
        if (cmp == 0) {
          found = true;
          break;
        }
      }
      if (!found) {
        node_id = next;
        continue;
      }
    }
    TDB_ASSIGN_OR_RETURN(WritableRef<ListNode> node,
                         txn->OpenWritable<ListNode>(node_id));
    for (size_t i = 0; i < node->entries.size(); i++) {
      if (node->entries[i].oid != oid) continue;
      TDB_ASSIGN_OR_RETURN(int cmp,
                           ComparePickled(Slice(node->entries[i].key), key));
      if (cmp == 0) {
        node->entries.erase(node->entries.begin() + i);
        return Status::OK();
      }
    }
    node_id = next;
  }
  return Status::NotFound("index entry not found");
}

Status ListIndex::Lookup(Transaction* txn, ObjectId root,
                         const GenericKey* min, const GenericKey* max,
                         std::vector<ObjectId>* out) {
  ObjectId node_id = root;
  while (node_id != object::kInvalidObjectId) {
    TDB_ASSIGN_OR_RETURN(ReadonlyRef<ListNode> node,
                         txn->OpenReadonly<ListNode>(node_id));
    for (const IndexEntry& entry : node->entries) {
      if (min != nullptr) {
        TDB_ASSIGN_OR_RETURN(int cmp,
                             ComparePickled(Slice(entry.key), *min));
        if (cmp < 0) continue;
      }
      if (max != nullptr) {
        TDB_ASSIGN_OR_RETURN(int cmp,
                             ComparePickled(Slice(entry.key), *max));
        if (cmp > 0) continue;
      }
      out->push_back(entry.oid);
    }
    node_id = node->next;
  }
  return Status::OK();
}

Status ListIndex::Destroy(Transaction* txn, ObjectId root) {
  ObjectId node_id = root;
  while (node_id != object::kInvalidObjectId) {
    ObjectId next;
    {
      TDB_ASSIGN_OR_RETURN(ReadonlyRef<ListNode> node,
                           txn->OpenReadonly<ListNode>(node_id));
      next = node->next;
    }
    TDB_RETURN_IF_ERROR(txn->Remove(node_id));
    node_id = next;
  }
  return Status::OK();
}

}  // namespace tdb::collection
