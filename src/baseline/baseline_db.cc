#include "baseline/baseline_db.h"

#include <cstring>

#include "common/check.h"
#include "common/coding.h"

namespace tdb::baseline {

namespace {

constexpr char kDataFile[] = "bdb-data";
constexpr char kWalFile[] = "bdb-wal";
constexpr uint32_t kMetaMagic = 0x42444231;  // "BDB1"
// Split a page when its serialized size would exceed this.
constexpr size_t kSplitThreshold = Pager::kPageSize - 64;

int CompareBytes(Slice a, Slice b) {
  size_t common = std::min(a.size(), b.size());
  int c = common == 0 ? 0 : std::memcmp(a.data(), b.data(), common);
  if (c != 0) return c;
  if (a.size() < b.size()) return -1;
  if (a.size() > b.size()) return 1;
  return 0;
}

// First index with keys[i] >= key.
size_t LowerBound(const std::vector<Buffer>& keys, Slice key) {
  size_t lo = 0, hi = keys.size();
  while (lo < hi) {
    size_t mid = (lo + hi) / 2;
    if (CompareBytes(keys[mid], key) < 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

// Child slot: the number of separators <= key.
size_t Route(const std::vector<Buffer>& keys, Slice key) {
  size_t lo = 0, hi = keys.size();
  while (lo < hi) {
    size_t mid = (lo + hi) / 2;
    if (CompareBytes(keys[mid], key) <= 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace

BaselineDb::BaselineDb(platform::UntrustedStore* store,
                       const Options& options)
    : store_(store),
      options_(options),
      pager_(store, kDataFile, options.cache_bytes / Pager::kPageSize),
      wal_(store, kWalFile) {}

Result<std::unique_ptr<BaselineDb>> BaselineDb::Open(
    platform::UntrustedStore* store, const Options& options) {
  std::unique_ptr<BaselineDb> db(new BaselineDb(store, options));
  if (store->Exists(kDataFile)) {
    TDB_RETURN_IF_ERROR(db->Recover());
  } else {
    TDB_RETURN_IF_ERROR(db->Bootstrap());
  }
  return db;
}

Status BaselineDb::Bootstrap() {
  TDB_RETURN_IF_ERROR(store_->Create(kDataFile, false));
  pager_.Reset(1);
  TDB_RETURN_IF_ERROR(WriteMeta(options_.sync_commits));
  return wal_.Open(0);
}

Status BaselineDb::Recover() {
  // Meta page (page 0) reflects the last barrier.
  Buffer meta;
  TDB_RETURN_IF_ERROR(store_->Read(kDataFile, 0, Pager::kPageSize, &meta));
  Decoder dec{Slice(meta)};
  uint32_t magic, next_page, next_tree, n_trees;
  TDB_RETURN_IF_ERROR(dec.GetFixed32(&magic));
  if (magic != kMetaMagic) return Status::Corruption("bad baseline meta");
  TDB_RETURN_IF_ERROR(dec.GetVarint32(&next_page));
  TDB_RETURN_IF_ERROR(dec.GetVarint32(&next_tree));
  TDB_RETURN_IF_ERROR(dec.GetVarint32(&n_trees));
  trees_.clear();
  roots_.clear();
  for (uint32_t i = 0; i < n_trees; i++) {
    Slice name;
    uint32_t tree_id, root;
    TDB_RETURN_IF_ERROR(dec.GetLengthPrefixed(&name));
    TDB_RETURN_IF_ERROR(dec.GetVarint32(&tree_id));
    TDB_RETURN_IF_ERROR(dec.GetVarint32(&root));
    trees_[name.ToString()] = tree_id;
    roots_[tree_id] = root;
  }
  pager_.Reset(next_page);
  next_tree_id_ = next_tree;

  // Replay committed operations after the last barrier.
  std::vector<WalRecord> all;
  TDB_ASSIGN_OR_RETURN(uint64_t intact_end,
                       ScanWal(store_, kWalFile, [&](const WalRecord& r) {
                         all.push_back(r);
                         return Status::OK();
                       }));
  size_t start = 0;
  for (size_t i = 0; i < all.size(); i++) {
    if (all[i].type == WalRecordType::kBarrier) start = i + 1;
  }
  std::vector<WalRecord> txn_ops;
  for (size_t i = start; i < all.size(); i++) {
    const WalRecord& record = all[i];
    if (record.type == WalRecordType::kCommit) {
      for (const WalRecord& op : txn_ops) {
        TDB_RETURN_IF_ERROR(ApplyOp(op));
      }
      txn_ops.clear();
    } else if (record.type != WalRecordType::kBarrier) {
      txn_ops.push_back(record);
    }
  }
  // Uncommitted trailing ops are discarded; torn bytes are truncated.
  return wal_.Open(intact_end);
}

Status BaselineDb::WriteMeta(bool sync) {
  Buffer meta;
  PutFixed32(&meta, kMetaMagic);
  PutVarint32(&meta, pager_.next_page_id());
  PutVarint32(&meta, next_tree_id_);
  PutVarint32(&meta, static_cast<uint32_t>(trees_.size()));
  for (const auto& [name, tree_id] : trees_) {
    PutLengthPrefixed(&meta, Slice(name));
    PutVarint32(&meta, tree_id);
    PutVarint32(&meta, roots_.at(tree_id));
  }
  TDB_CHECK(meta.size() <= Pager::kPageSize, "meta page overflow");
  meta.resize(Pager::kPageSize, 0);
  TDB_RETURN_IF_ERROR(store_->Write(kDataFile, 0, meta));
  if (sync) TDB_RETURN_IF_ERROR(store_->Sync(kDataFile));
  return Status::OK();
}

Status BaselineDb::Barrier() {
  TDB_RETURN_IF_ERROR(pager_.FlushAll(options_.sync_commits));
  TDB_RETURN_IF_ERROR(WriteMeta(options_.sync_commits));
  TDB_RETURN_IF_ERROR(wal_.Barrier(options_.sync_commits));
  return Status::OK();
}

Status BaselineDb::Checkpoint() {
  TDB_RETURN_IF_ERROR(pager_.FlushAll(options_.sync_commits));
  TDB_RETURN_IF_ERROR(WriteMeta(options_.sync_commits));
  TDB_RETURN_IF_ERROR(store_->Truncate(kWalFile, 0));
  return wal_.Open(0);
}

Status BaselineDb::Close() {
  if (txn_active_) return Status::InvalidArgument("transaction active");
  return Barrier();
}

Result<uint64_t> BaselineDb::TotalFileBytes() const {
  TDB_ASSIGN_OR_RETURN(uint64_t data, store_->Size(kDataFile));
  uint64_t wal = 0;
  if (store_->Exists(kWalFile)) {
    TDB_ASSIGN_OR_RETURN(wal, store_->Size(kWalFile));
  }
  return data + wal;
}

// ---------------------------------------------------------------------------
// Trees

Result<BaselineDb::TreeId> BaselineDb::CreateTree(const std::string& name) {
  if (txn_active_) {
    return Status::InvalidArgument("cannot create trees inside a txn");
  }
  if (trees_.count(name)) return Status::AlreadyExists("tree " + name);
  WalRecord record;
  record.type = WalRecordType::kCreateTree;
  record.key = Slice(name).ToBuffer();
  wal_.Add(record);
  TDB_RETURN_IF_ERROR(wal_.Commit(options_.sync_commits));
  TDB_RETURN_IF_ERROR(DoCreateTree(name));
  return trees_.at(name);
}

Status BaselineDb::DoCreateTree(const std::string& name) {
  NodePage* root_page = nullptr;
  TDB_ASSIGN_OR_RETURN(uint32_t root, pager_.Allocate(&root_page));
  root_page->leaf = true;
  TreeId tree_id = next_tree_id_++;
  trees_[name] = tree_id;
  roots_[tree_id] = root;
  return Status::OK();
}

Result<BaselineDb::TreeId> BaselineDb::OpenTree(
    const std::string& name) const {
  auto it = trees_.find(name);
  if (it == trees_.end()) return Status::NotFound("no tree " + name);
  return it->second;
}

Status BaselineDb::ApplyOp(const WalRecord& op) {
  switch (op.type) {
    case WalRecordType::kCreateTree: {
      std::string name = Slice(op.key).ToString();
      if (trees_.count(name)) return Status::OK();  // Replay idempotence.
      return DoCreateTree(name);
    }
    case WalRecordType::kPut: {
      auto it = roots_.find(op.tree_id);
      if (it == roots_.end()) return Status::Corruption("op on missing tree");
      return TreePut(it->second, op.key, op.value);
    }
    case WalRecordType::kDelete: {
      auto it = roots_.find(op.tree_id);
      if (it == roots_.end()) return Status::Corruption("op on missing tree");
      Status s = TreeDelete(it->second, op.key);
      return s.IsNotFound() ? Status::OK() : s;
    }
    default:
      return Status::Corruption("unexpected op in transaction");
  }
}

// ---------------------------------------------------------------------------
// Page B-tree

Result<std::optional<BaselineDb::SplitResult>> BaselineDb::InsertRec(
    uint32_t page_id, Slice key, Slice value) {
  TDB_ASSIGN_OR_RETURN(NodePage * node, pager_.GetWritable(page_id));
  if (node->leaf) {
    size_t pos = LowerBound(node->keys, key);
    if (pos < node->keys.size() && CompareBytes(node->keys[pos], key) == 0) {
      node->values[pos] = value.ToBuffer();
    } else {
      node->keys.insert(node->keys.begin() + pos, key.ToBuffer());
      node->values.insert(node->values.begin() + pos, value.ToBuffer());
    }
    if (node->ByteSize() <= kSplitThreshold) return std::optional<SplitResult>();
    // Leaf split: upper half moves right; separator = right's first key.
    size_t mid = node->keys.size() / 2;
    NodePage* right = nullptr;
    TDB_ASSIGN_OR_RETURN(uint32_t right_id, pager_.Allocate(&right));
    // Re-fetch: Allocate may have evicted nothing (dirty pages pinned),
    // but the cache map can rehash — re-resolve the pointer to be safe.
    TDB_ASSIGN_OR_RETURN(node, pager_.GetWritable(page_id));
    right->leaf = true;
    right->keys.assign(node->keys.begin() + mid, node->keys.end());
    right->values.assign(node->values.begin() + mid, node->values.end());
    node->keys.resize(mid);
    node->values.resize(mid);
    SplitResult split;
    split.separator = right->keys.front();
    split.right = right_id;
    return std::optional<SplitResult>(split);
  }

  size_t slot = Route(node->keys, key);
  uint32_t child = node->children[slot];
  TDB_ASSIGN_OR_RETURN(std::optional<SplitResult> child_split,
                       InsertRec(child, key, value));
  if (!child_split.has_value()) return std::optional<SplitResult>();
  TDB_ASSIGN_OR_RETURN(node, pager_.GetWritable(page_id));  // Re-resolve.
  node->keys.insert(node->keys.begin() + slot, child_split->separator);
  node->children.insert(node->children.begin() + slot + 1,
                        child_split->right);
  if (node->ByteSize() <= kSplitThreshold) return std::optional<SplitResult>();
  // Internal split: median separator moves up.
  size_t mid = node->keys.size() / 2;
  SplitResult split;
  split.separator = node->keys[mid];
  NodePage* right = nullptr;
  TDB_ASSIGN_OR_RETURN(split.right, pager_.Allocate(&right));
  TDB_ASSIGN_OR_RETURN(node, pager_.GetWritable(page_id));
  right->leaf = false;
  right->keys.assign(node->keys.begin() + mid + 1, node->keys.end());
  right->children.assign(node->children.begin() + mid + 1,
                         node->children.end());
  node->keys.resize(mid);
  node->children.resize(mid + 1);
  return std::optional<SplitResult>(split);
}

Status BaselineDb::TreePut(uint32_t root, Slice key, Slice value) {
  if (key.size() + value.size() > Pager::kPageSize / 4) {
    return Status::InvalidArgument("record too large for baseline engine");
  }
  TDB_ASSIGN_OR_RETURN(std::optional<SplitResult> split,
                       InsertRec(root, key, value));
  if (!split.has_value()) return Status::OK();
  // Root split, keeping the root page id stable: move the root's contents
  // into a fresh left page.
  TDB_ASSIGN_OR_RETURN(NodePage * root_page, pager_.GetWritable(root));
  NodePage* left = nullptr;
  TDB_ASSIGN_OR_RETURN(uint32_t left_id, pager_.Allocate(&left));
  TDB_ASSIGN_OR_RETURN(root_page, pager_.GetWritable(root));
  left->leaf = root_page->leaf;
  left->keys = std::move(root_page->keys);
  left->values = std::move(root_page->values);
  left->children = std::move(root_page->children);
  root_page->leaf = false;
  root_page->keys = {split->separator};
  root_page->values.clear();
  root_page->children = {left_id, split->right};
  return Status::OK();
}

Status BaselineDb::TreeDelete(uint32_t root, Slice key) {
  uint32_t page_id = root;
  for (;;) {
    TDB_ASSIGN_OR_RETURN(NodePage * node, pager_.Get(page_id));
    if (node->leaf) {
      size_t pos = LowerBound(node->keys, key);
      if (pos >= node->keys.size() ||
          CompareBytes(node->keys[pos], key) != 0) {
        return Status::NotFound("key not found");
      }
      TDB_ASSIGN_OR_RETURN(node, pager_.GetWritable(page_id));
      node->keys.erase(node->keys.begin() + pos);
      node->values.erase(node->values.begin() + pos);
      // Lazy deletion: no page merging (fine for the baseline's role).
      return Status::OK();
    }
    page_id = node->children[Route(node->keys, key)];
  }
}

Result<std::optional<Buffer>> BaselineDb::TreeGet(uint32_t root, Slice key) {
  uint32_t page_id = root;
  for (;;) {
    TDB_ASSIGN_OR_RETURN(NodePage * node, pager_.Get(page_id));
    if (node->leaf) {
      size_t pos = LowerBound(node->keys, key);
      if (pos >= node->keys.size() ||
          CompareBytes(node->keys[pos], key) != 0) {
        return std::optional<Buffer>();
      }
      return std::optional<Buffer>(node->values[pos]);
    }
    page_id = node->children[Route(node->keys, key)];
  }
}

// ---------------------------------------------------------------------------
// Transactions

BaselineDb::Txn::Txn(BaselineDb* db) : db_(db) {
  if (!db_->txn_active_) {
    db_->txn_active_ = true;
    active_ = true;
  }
}

BaselineDb::Txn::~Txn() {
  if (active_) Abort().ok();
}

Result<Buffer> BaselineDb::Txn::Get(TreeId tree, Slice key) {
  if (!active_) return Status::TransactionInvalid("transaction not active");
  auto pending = pending_.find({tree, key.ToBuffer()});
  if (pending != pending_.end()) {
    if (!pending->second.has_value()) return Status::NotFound("deleted");
    return *pending->second;
  }
  auto root = db_->roots_.find(tree);
  if (root == db_->roots_.end()) return Status::NotFound("no such tree");
  TDB_ASSIGN_OR_RETURN(std::optional<Buffer> value,
                       db_->TreeGet(root->second, key));
  if (!value.has_value()) return Status::NotFound("key not found");
  return *value;
}

Status BaselineDb::Txn::Put(TreeId tree, Slice key, Slice value) {
  if (!active_) return Status::TransactionInvalid("transaction not active");
  if (!db_->roots_.count(tree)) return Status::NotFound("no such tree");
  WalRecord record;
  record.type = WalRecordType::kPut;
  record.tree_id = tree;
  record.key = key.ToBuffer();
  record.value = value.ToBuffer();
  pending_[{tree, record.key}] = record.value;
  ops_.push_back(std::move(record));
  return Status::OK();
}

Status BaselineDb::Txn::Delete(TreeId tree, Slice key) {
  if (!active_) return Status::TransactionInvalid("transaction not active");
  if (!db_->roots_.count(tree)) return Status::NotFound("no such tree");
  WalRecord record;
  record.type = WalRecordType::kDelete;
  record.tree_id = tree;
  record.key = key.ToBuffer();
  pending_[{tree, record.key}] = std::nullopt;
  ops_.push_back(std::move(record));
  return Status::OK();
}

Status BaselineDb::Txn::Commit() {
  if (!active_) return Status::TransactionInvalid("transaction not active");
  for (const WalRecord& op : ops_) db_->wal_.Add(op);
  TDB_RETURN_IF_ERROR(db_->wal_.Commit(db_->options_.sync_commits));
  for (const WalRecord& op : ops_) {
    TDB_RETURN_IF_ERROR(db_->ApplyOp(op));
  }
  active_ = false;
  db_->txn_active_ = false;
  if (db_->pager_.NeedsBarrier()) {
    TDB_RETURN_IF_ERROR(db_->Barrier());
  }
  return Status::OK();
}

Status BaselineDb::Txn::Abort() {
  if (!active_) return Status::TransactionInvalid("transaction not active");
  ops_.clear();
  pending_.clear();
  active_ = false;
  db_->txn_active_ = false;
  return Status::OK();
}

}  // namespace tdb::baseline
