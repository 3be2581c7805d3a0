#ifndef TDB_CHUNK_LOCATION_MAP_H_
#define TDB_CHUNK_LOCATION_MAP_H_

#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "chunk/log_format.h"
#include "chunk/types.h"
#include "common/result.h"

namespace tdb::chunk {

/// One slot of a map node. In a leaf it names a data chunk's log record;
/// in an internal node it names the persisted child map node. Either way it
/// carries the child's one-way hash — this is how the Merkle tree is
/// embedded in the location map (§3.2.1 of the paper): validating a chunk
/// read validates a root-to-leaf hash path.
struct MapEntry {
  bool present = false;
  uint8_t flags = 0;  // EntryFlags; authenticated via the node encoding.
  Location loc;
  crypto::Digest hash;
};

/// A node of the location map tree. Nodes are copy-on-write: snapshots
/// share subtrees with the live map, and mutation clones shared nodes along
/// the root-to-leaf path.
struct MapNode {
  uint32_t level = 0;   // 0 = leaf.
  uint64_t index = 0;   // Node index within its level.
  std::vector<MapEntry> entries;
  std::vector<std::shared_ptr<MapNode>> children;  // Internal nodes only.
  bool dirty = false;          // Needs rewriting at the next checkpoint.
  bool has_persisted = false;  // A log record exists for this version.
  Location persisted_loc;
  crypto::Digest persisted_hash;
  uint32_t persisted_size = 0;  // Full record size, for space accounting.
};

/// Loads a map node from the log given its location and expected hash
/// (validating both), or fails with Corruption/TamperDetected.
using NodeLoader = std::function<Result<std::shared_ptr<MapNode>>(
    uint32_t level, uint64_t index, const Location& loc,
    const crypto::Digest& hash)>;

/// Writes a serialized map node to the log tail; returns its Location,
/// payload hash, and total record size.
struct NodeWriteResult {
  Location loc;
  crypto::Digest hash;
  uint32_t record_size;
};
using NodeWriter = std::function<Result<NodeWriteResult>(Slice node_bytes)>;

/// Change kinds reported by Diff.
enum class DiffKind { kAdded, kRemoved, kChanged };

/// The hierarchical location map: ChunkId -> (Location, hash), organized as
/// a radix tree of map chunks so it scales to large chunk counts and so the
/// Merkle hash tree rides along for free. Not thread-safe; the chunk store
/// serializes access.
class LocationMap {
 public:
  /// Fanouts a map may have; a fanout read from an image outside this
  /// range is corrupt.
  static constexpr uint32_t kMinFanout = 2;
  static constexpr uint32_t kMaxFanout = 4096;

  explicit LocationMap(uint32_t fanout);

  /// Starts from a persisted root (recovery path).
  void ResetToRoot(std::shared_ptr<MapNode> root);

  const std::shared_ptr<MapNode>& root() const { return root_; }

  /// Looks up a chunk. nullopt if not mapped.
  Result<std::optional<MapEntry>> Get(ChunkId cid, const NodeLoader& loader);

  /// Looks up within an arbitrary (e.g., snapshot) root.
  Result<std::optional<MapEntry>> GetAt(const std::shared_ptr<MapNode>& root,
                                        ChunkId cid,
                                        const NodeLoader& loader) const;

  /// Looks up every id of `cids` (ascending) in one pass and calls
  /// `fn(cid, entry)` for the mapped ones, in order. Ids that share a leaf
  /// reuse it; a new leaf is reached by descending from the root through
  /// raw pointers, without shared_ptr copies.
  Status GetSorted(const std::vector<ChunkId>& cids, const NodeLoader& loader,
                   const std::function<void(ChunkId, const MapEntry&)>& fn);

  /// Inserts or replaces a mapping. If the entry replaces an older one, the
  /// old entry is returned so the caller can de-account its log record.
  Result<std::optional<MapEntry>> Put(ChunkId cid, const MapEntry& entry,
                                      const NodeLoader& loader);

  /// Removes a mapping; returns the removed entry (nullopt if absent). A
  /// node left without entries is dropped from its parent, up the path
  /// (never the root), so ids written once and freed do not grow the map.
  Result<std::optional<MapEntry>> Remove(ChunkId cid,
                                         const NodeLoader& loader);

  /// Serializes every dirty node bottom-up through `writer` (the paper's
  /// checkpoint: "modified state is written opportunistically"). Returns
  /// the root's location/hash for the checkpoint commit. Old persisted node
  /// records are reported through `obsolete` for space de-accounting, and
  /// so are the records of nodes pruned since the last WriteDirty: until
  /// this checkpoint the anchored root still references them.
  Result<NodeWriteResult> WriteDirty(
      const NodeWriter& writer,
      const std::function<void(const Location&, uint32_t)>& obsolete);

  bool HasDirtyNodes() const { return root_ != nullptr && root_->dirty; }

  /// Persisted records of pruned nodes that the next WriteDirty obsoletes
  /// (location, full record size).
  const std::vector<std::pair<Location, uint32_t>>& pruned_records() const {
    return pruned_;
  }

  /// Visits every present leaf entry under `root` in ascending cid order.
  Status ForEach(
      const std::shared_ptr<MapNode>& root, const NodeLoader& loader,
      const std::function<Status(ChunkId, const MapEntry&)>& fn) const;

  /// Visits every map node under `root` (loading all of them). Used to
  /// rebuild segment space accounting at open.
  Status ForEachNode(
      const std::shared_ptr<MapNode>& root, const NodeLoader& loader,
      const std::function<void(const MapNode&)>& fn) const;

  /// Structural diff `base` -> `delta` for incremental backups. Subtrees
  /// with equal hashes are skipped without loading. `fn(cid, kind, entry)`
  /// receives the delta-side entry (or the base-side one for kRemoved).
  Status Diff(const std::shared_ptr<MapNode>& base,
              const std::shared_ptr<MapNode>& delta, const NodeLoader& loader,
              const std::function<Status(ChunkId, DiffKind, const MapEntry&)>&
                  fn) const;

  /// (De)serialization of a single node.
  static Buffer EncodeNode(const MapNode& node);
  static Result<std::shared_ptr<MapNode>> DecodeNode(Slice data,
                                                     uint32_t fanout,
                                                     size_t hash_size);

  uint32_t fanout() const { return fanout_; }

 private:
  // Number of chunk ids a node at `level` covers, saturated to
  // UINT64_MAX when the true span overflows uint64.
  uint64_t Span(uint32_t level) const;
  // Whether a node at `level` covers `cid` (overflow-safe).
  bool Covers(uint32_t level, ChunkId cid) const;
  // Grows the tree with new roots until `cid` is in range.
  void GrowTo(ChunkId cid);
  // Clones `node` if shared with a snapshot (COW). Returns writable node.
  std::shared_ptr<MapNode> EnsureWritable(std::shared_ptr<MapNode>& slot);
  // Returns (loading if necessary) child `slot` of `node`; creates it when
  // `create` and absent. Returns nullptr if absent and !create.
  Result<std::shared_ptr<MapNode>> Child(const std::shared_ptr<MapNode>& node,
                                         uint32_t slot, bool create,
                                         const NodeLoader& loader) const;

  Result<NodeWriteResult> WriteDirtyRec(
      const std::shared_ptr<MapNode>& node, const NodeWriter& writer,
      const std::function<void(const Location&, uint32_t)>& obsolete);

  uint32_t fanout_;
  std::shared_ptr<MapNode> root_;
  std::vector<std::pair<Location, uint32_t>> pruned_;
};

}  // namespace tdb::chunk

#endif  // TDB_CHUNK_LOCATION_MAP_H_
