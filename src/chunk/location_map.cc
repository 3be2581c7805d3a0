#include "chunk/location_map.h"

#include <algorithm>
#include <limits>

#include "common/check.h"

namespace tdb::chunk {

namespace {

// Entries compare equal when they provably name identical content: by hash
// when the secure suite is on, by location otherwise (a relocated-but-
// unchanged chunk then looks "changed", which only makes incremental
// backups conservatively larger).
bool EntryEqual(const MapEntry& a, const MapEntry& b) {
  if (a.hash.size() > 0 || b.hash.size() > 0) return a.hash == b.hash;
  return a.loc == b.loc;
}

std::shared_ptr<MapNode> NewNode(uint32_t level, uint64_t index,
                                 uint32_t fanout) {
  auto node = std::make_shared<MapNode>();
  node->level = level;
  node->index = index;
  node->entries.resize(fanout);
  if (level > 0) node->children.resize(fanout);
  return node;
}

}  // namespace

LocationMap::LocationMap(uint32_t fanout) : fanout_(fanout) {
  TDB_CHECK(fanout >= kMinFanout && fanout <= kMaxFanout,
            "map fanout out of range");
  root_ = NewNode(0, 0, fanout_);
}

void LocationMap::ResetToRoot(std::shared_ptr<MapNode> root) {
  TDB_CHECK(root != nullptr);
  root_ = std::move(root);
  pruned_.clear();
}

uint64_t LocationMap::Span(uint32_t level) const {
  uint64_t span = fanout_;
  for (uint32_t l = 0; l < level; l++) {
    // fanout^(level+1) can exceed 2^64 (e.g. fanout 8 at level 21, which
    // the reserved router-chunk ids above 2^63 require). Saturate: a node
    // whose true span overflows uint64 covers every possible ChunkId, and
    // Covers() treats the saturated value accordingly.
    if (span > std::numeric_limits<uint64_t>::max() / fanout_) {
      return std::numeric_limits<uint64_t>::max();
    }
    span *= fanout_;
  }
  return span;
}

bool LocationMap::Covers(uint32_t level, ChunkId cid) const {
  const uint64_t span = Span(level);
  return span == std::numeric_limits<uint64_t>::max() || cid < span;
}

void LocationMap::GrowTo(ChunkId cid) {
  while (!Covers(root_->level, cid)) {
    auto new_root = NewNode(root_->level + 1, 0, fanout_);
    new_root->children[0] = root_;
    new_root->entries[0].present = true;
    if (root_->has_persisted) {
      new_root->entries[0].loc = root_->persisted_loc;
      new_root->entries[0].hash = root_->persisted_hash;
    }
    new_root->dirty = true;
    root_ = std::move(new_root);
  }
}

std::shared_ptr<MapNode> LocationMap::EnsureWritable(
    std::shared_ptr<MapNode>& slot) {
  if (slot.use_count() == 1) return slot;
  // Shared with a snapshot: clone (entries and child pointers are copied,
  // grandchildren stay shared until they are themselves written).
  auto clone = std::make_shared<MapNode>(*slot);
  slot = clone;
  return clone;
}

Result<std::shared_ptr<MapNode>> LocationMap::Child(
    const std::shared_ptr<MapNode>& node, uint32_t slot, bool create,
    const NodeLoader& loader) const {
  TDB_DCHECK(node->level > 0);
  if (node->children[slot] != nullptr) return node->children[slot];
  const MapEntry& entry = node->entries[slot];
  uint64_t child_index = node->index * fanout_ + slot;
  if (entry.present) {
    // Persisted but not loaded.
    TDB_ASSIGN_OR_RETURN(
        std::shared_ptr<MapNode> child,
        loader(node->level - 1, child_index, entry.loc, entry.hash));
    node->children[slot] = child;
    return child;
  }
  if (!create) return std::shared_ptr<MapNode>(nullptr);
  auto child = NewNode(node->level - 1, child_index, fanout_);
  child->dirty = true;
  node->children[slot] = child;
  node->entries[slot].present = true;
  return child;
}

Result<std::optional<MapEntry>> LocationMap::Get(ChunkId cid,
                                                 const NodeLoader& loader) {
  return GetAt(root_, cid, loader);
}

Result<std::optional<MapEntry>> LocationMap::GetAt(
    const std::shared_ptr<MapNode>& root, ChunkId cid,
    const NodeLoader& loader) const {
  if (!Covers(root->level, cid)) return std::optional<MapEntry>();
  std::shared_ptr<MapNode> node = root;
  while (node->level > 0) {
    uint64_t child_span = Span(node->level - 1);
    uint32_t slot = static_cast<uint32_t>((cid / child_span) % fanout_);
    if (!node->entries[slot].present) return std::optional<MapEntry>();
    TDB_ASSIGN_OR_RETURN(std::shared_ptr<MapNode> child,
                         Child(node, slot, /*create=*/false, loader));
    node = child;
  }
  const MapEntry& entry = node->entries[cid % fanout_];
  if (!entry.present) return std::optional<MapEntry>();
  return std::optional<MapEntry>(entry);
}

Status LocationMap::GetSorted(
    const std::vector<ChunkId>& cids, const NodeLoader& loader,
    const std::function<void(ChunkId, const MapEntry&)>& fn) {
  const MapNode* leaf = nullptr;
  ChunkId leaf_base = 0;  // First id `leaf` covers.
  for (ChunkId cid : cids) {
    if (leaf == nullptr || cid - leaf_base >= fanout_) {
      leaf = nullptr;
      if (!Covers(root_->level, cid)) continue;
      const std::shared_ptr<MapNode>* node = &root_;
      while ((*node)->level > 0) {
        const uint64_t child_span = Span((*node)->level - 1);
        const auto slot = static_cast<uint32_t>((cid / child_span) % fanout_);
        if (!(*node)->entries[slot].present) break;
        if ((*node)->children[slot] == nullptr) {
          TDB_RETURN_IF_ERROR(
              Child(*node, slot, /*create=*/false, loader).status());
        }
        node = &(*node)->children[slot];
      }
      if ((*node)->level > 0) continue;  // No leaf covers `cid`.
      leaf = node->get();
      leaf_base = cid - cid % fanout_;
    }
    const MapEntry& entry = leaf->entries[cid - leaf_base];
    if (entry.present) fn(cid, entry);
  }
  return Status::OK();
}

Result<std::optional<MapEntry>> LocationMap::Put(ChunkId cid,
                                                 const MapEntry& entry,
                                                 const NodeLoader& loader) {
  GrowTo(cid);
  std::shared_ptr<MapNode>* slot_ptr = &root_;
  while (true) {
    std::shared_ptr<MapNode> node = EnsureWritable(*slot_ptr);
    node->dirty = true;
    if (node->level == 0) {
      MapEntry& leaf = node->entries[cid % fanout_];
      std::optional<MapEntry> old;
      if (leaf.present) old = leaf;
      leaf = entry;
      leaf.present = true;
      return old;
    }
    uint64_t child_span = Span(node->level - 1);
    uint32_t slot = static_cast<uint32_t>((cid / child_span) % fanout_);
    TDB_ASSIGN_OR_RETURN(std::shared_ptr<MapNode> child,
                         Child(node, slot, /*create=*/true, loader));
    (void)child;  // Re-borrow through the slot for COW.
    slot_ptr = &node->children[slot];
  }
}

Result<std::optional<MapEntry>> LocationMap::Remove(ChunkId cid,
                                                    const NodeLoader& loader) {
  // Probe first so a miss does not dirty the path.
  TDB_ASSIGN_OR_RETURN(std::optional<MapEntry> existing, Get(cid, loader));
  if (!existing.has_value()) return std::optional<MapEntry>();

  // The writable internal nodes of the path, each with the slot below it.
  std::vector<std::pair<MapNode*, uint32_t>> path;
  std::shared_ptr<MapNode>* slot_ptr = &root_;
  while (true) {
    std::shared_ptr<MapNode> node = EnsureWritable(*slot_ptr);
    node->dirty = true;
    if (node->level == 0) {
      node->entries[cid % fanout_] = MapEntry();
      break;
    }
    uint64_t child_span = Span(node->level - 1);
    uint32_t slot = static_cast<uint32_t>((cid / child_span) % fanout_);
    TDB_ASSIGN_OR_RETURN(std::shared_ptr<MapNode> child,
                         Child(node, slot, /*create=*/false, loader));
    TDB_CHECK(child != nullptr, "map path vanished during Remove");
    path.emplace_back(node.get(), slot);
    slot_ptr = &node->children[slot];
  }
  // Prune bottom-up. Each parent on the path is already writable, so a
  // snapshot sharing the old nodes keeps its subtree intact.
  MapNode* node = slot_ptr->get();
  for (size_t i = path.size(); i-- > 0;) {
    if (std::any_of(node->entries.begin(), node->entries.end(),
                    [](const MapEntry& e) { return e.present; })) {
      break;
    }
    if (node->has_persisted) {
      pruned_.emplace_back(node->persisted_loc, node->persisted_size);
    }
    auto [parent, slot] = path[i];
    parent->entries[slot] = MapEntry();
    parent->children[slot] = nullptr;  // Frees `node` unless shared.
    node = parent;
  }
  return existing;
}

Result<NodeWriteResult> LocationMap::WriteDirty(
    const NodeWriter& writer,
    const std::function<void(const Location&, uint32_t)>& obsolete) {
  TDB_ASSIGN_OR_RETURN(NodeWriteResult root,
                       WriteDirtyRec(root_, writer, obsolete));
  for (const auto& [loc, size] : pruned_) obsolete(loc, size);
  pruned_.clear();
  return root;
}

Result<NodeWriteResult> LocationMap::WriteDirtyRec(
    const std::shared_ptr<MapNode>& node, const NodeWriter& writer,
    const std::function<void(const Location&, uint32_t)>& obsolete) {
  if (!node->dirty && node->has_persisted) {
    return NodeWriteResult{node->persisted_loc, node->persisted_hash,
                           node->persisted_size};
  }
  if (node->level > 0) {
    for (uint32_t i = 0; i < fanout_; i++) {
      const std::shared_ptr<MapNode>& child = node->children[i];
      if (child == nullptr) continue;  // Unloaded children are clean.
      if (!child->dirty && child->has_persisted) continue;
      TDB_ASSIGN_OR_RETURN(NodeWriteResult res,
                           WriteDirtyRec(child, writer, obsolete));
      node->entries[i].present = true;
      node->entries[i].loc = res.loc;
      node->entries[i].hash = res.hash;
    }
  }
  Buffer bytes = EncodeNode(*node);
  TDB_ASSIGN_OR_RETURN(NodeWriteResult res, writer(bytes));
  if (node->has_persisted) obsolete(node->persisted_loc, node->persisted_size);
  node->has_persisted = true;
  node->persisted_loc = res.loc;
  node->persisted_hash = res.hash;
  node->persisted_size = res.record_size;
  node->dirty = false;
  return res;
}

Status LocationMap::ForEach(
    const std::shared_ptr<MapNode>& root, const NodeLoader& loader,
    const std::function<Status(ChunkId, const MapEntry&)>& fn) const {
  if (root->level == 0) {
    for (uint32_t i = 0; i < fanout_; i++) {
      if (!root->entries[i].present) continue;
      TDB_RETURN_IF_ERROR(fn(root->index * fanout_ + i, root->entries[i]));
    }
    return Status::OK();
  }
  for (uint32_t i = 0; i < fanout_; i++) {
    if (!root->entries[i].present) continue;
    TDB_ASSIGN_OR_RETURN(std::shared_ptr<MapNode> child,
                         Child(root, i, /*create=*/false, loader));
    TDB_RETURN_IF_ERROR(ForEach(child, loader, fn));
  }
  return Status::OK();
}

Status LocationMap::ForEachNode(
    const std::shared_ptr<MapNode>& root, const NodeLoader& loader,
    const std::function<void(const MapNode&)>& fn) const {
  fn(*root);
  if (root->level == 0) return Status::OK();
  for (uint32_t i = 0; i < fanout_; i++) {
    if (!root->entries[i].present) continue;
    TDB_ASSIGN_OR_RETURN(std::shared_ptr<MapNode> child,
                         Child(root, i, /*create=*/false, loader));
    TDB_RETURN_IF_ERROR(ForEachNode(child, loader, fn));
  }
  return Status::OK();
}

namespace {

// Wraps `node` in synthetic parents until it sits at `level`, so two roots
// of different heights can be diffed slot-by-slot.
std::shared_ptr<MapNode> RaiseToLevel(std::shared_ptr<MapNode> node,
                                      uint32_t level, uint32_t fanout) {
  while (node->level < level) {
    auto wrapper = std::make_shared<MapNode>();
    wrapper->level = node->level + 1;
    wrapper->index = 0;
    wrapper->entries.resize(fanout);
    wrapper->children.resize(fanout);
    wrapper->entries[0].present = true;
    if (node->has_persisted) {
      wrapper->entries[0].loc = node->persisted_loc;
      wrapper->entries[0].hash = node->persisted_hash;
    }
    wrapper->children[0] = node;
    node = wrapper;
  }
  return node;
}

}  // namespace

Status LocationMap::Diff(
    const std::shared_ptr<MapNode>& base, const std::shared_ptr<MapNode>& delta,
    const NodeLoader& loader,
    const std::function<Status(ChunkId, DiffKind, const MapEntry&)>& fn)
    const {
  uint32_t level = std::max(base->level, delta->level);
  std::shared_ptr<MapNode> a = RaiseToLevel(base, level, fanout_);
  std::shared_ptr<MapNode> b = RaiseToLevel(delta, level, fanout_);

  // Recursive lambda over same-shaped node pairs (either may be null).
  std::function<Status(const std::shared_ptr<MapNode>&,
                       const std::shared_ptr<MapNode>&, uint32_t, uint64_t)>
      rec = [&](const std::shared_ptr<MapNode>& na,
                const std::shared_ptr<MapNode>& nb, uint32_t lvl,
                uint64_t index) -> Status {
    static const MapEntry kAbsent;
    for (uint32_t i = 0; i < fanout_; i++) {
      const MapEntry& ea = na ? na->entries[i] : kAbsent;
      const MapEntry& eb = nb ? nb->entries[i] : kAbsent;
      if (!ea.present && !eb.present) continue;
      if (lvl == 0) {
        ChunkId cid = index * fanout_ + i;
        if (!ea.present) {
          TDB_RETURN_IF_ERROR(fn(cid, DiffKind::kAdded, eb));
        } else if (!eb.present) {
          TDB_RETURN_IF_ERROR(fn(cid, DiffKind::kRemoved, ea));
        } else if (!EntryEqual(ea, eb)) {
          TDB_RETURN_IF_ERROR(fn(cid, DiffKind::kChanged, eb));
        }
        continue;
      }
      // Internal: identical persisted subtrees are skipped wholesale —
      // this is what makes incremental backups cheap (§3.2.1).
      if (ea.present && eb.present && EntryEqual(ea, eb)) continue;
      std::shared_ptr<MapNode> ca, cb;
      if (ea.present) {
        TDB_ASSIGN_OR_RETURN(ca, Child(na, i, /*create=*/false, loader));
      }
      if (eb.present) {
        TDB_ASSIGN_OR_RETURN(cb, Child(nb, i, /*create=*/false, loader));
      }
      TDB_RETURN_IF_ERROR(rec(ca, cb, lvl - 1, index * fanout_ + i));
    }
    return Status::OK();
  };
  return rec(a, b, level, 0);
}

Buffer LocationMap::EncodeNode(const MapNode& node) {
  Buffer out;
  PutVarint32(&out, node.level);
  PutVarint64(&out, node.index);
  for (const MapEntry& entry : node.entries) {
    // Presence byte doubles as the flag carrier: 0 = absent, else bit 0
    // set (present) with EntryFlags shifted into bits 1+. A plain present
    // entry still encodes as 1, so pre-flag images decode unchanged.
    out.push_back(entry.present
                      ? static_cast<uint8_t>(1 | (entry.flags << 1))
                      : 0);
    if (entry.present) {
      PutLocation(&out, entry.loc);
      PutDigest(&out, entry.hash);
    }
  }
  return out;
}

Result<std::shared_ptr<MapNode>> LocationMap::DecodeNode(Slice data,
                                                         uint32_t fanout,
                                                         size_t hash_size) {
  Decoder dec(data);
  auto node = std::make_shared<MapNode>();
  TDB_RETURN_IF_ERROR(dec.GetVarint32(&node->level));
  TDB_RETURN_IF_ERROR(dec.GetVarint64(&node->index));
  node->entries.resize(fanout);
  if (node->level > 0) node->children.resize(fanout);
  for (uint32_t i = 0; i < fanout; i++) {
    Slice present;
    TDB_RETURN_IF_ERROR(dec.GetBytes(1, &present));
    if (present[0] == 0) continue;
    if ((present[0] & 1) == 0 || (present[0] >> 1) > kEntryFlagsMask) {
      return Status::Corruption("bad map entry flags");
    }
    node->entries[i].present = true;
    node->entries[i].flags = static_cast<uint8_t>(present[0] >> 1);
    TDB_RETURN_IF_ERROR(GetLocation(&dec, &node->entries[i].loc));
    TDB_RETURN_IF_ERROR(GetDigest(&dec, hash_size, &node->entries[i].hash));
  }
  if (!dec.done()) return Status::Corruption("trailing map node bytes");
  return node;
}

}  // namespace tdb::chunk
