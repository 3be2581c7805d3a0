#ifndef TDB_BASELINE_BASELINE_DB_H_
#define TDB_BASELINE_BASELINE_DB_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "baseline/pager.h"
#include "baseline/wal.h"
#include "common/result.h"
#include "platform/untrusted_store.h"

namespace tdb::baseline {

/// BaselineDb: an architectural stand-in for Berkeley DB (§7), the
/// comparator in the paper's evaluation. A conventional embedded keyed
/// store: update-in-place B-trees over fixed-size pages, a buffer pool,
/// and a write-ahead log that is fsynced at commit and grows until an
/// explicit checkpoint. Like Berkeley DB's data model, each tree maps
/// unique, immutable byte-string keys to byte-string values — no typed
/// objects, no automatic index maintenance, no protection against
/// malicious tampering (all the things TDB adds).
///
/// Crash atomicity: logical WAL records + commit markers; recovery replays
/// committed operations since the last flush barrier. Pages are never
/// stolen dirty; when the pool fills, a barrier (flush-all + marker) runs.
///
/// Single-writer: one transaction at a time (the paper's TPC-B driver is
/// single-threaded).
class BaselineDb {
 public:
  using TreeId = uint32_t;

  struct Options {
    /// Buffer pool budget; the paper's evaluation uses 4 MB (§7.2).
    size_t cache_bytes = 4 * 1024 * 1024;
    /// Fsync the log at commit (the paper's WRITE_THROUGH setting).
    bool sync_commits = true;
  };

  /// Opens (creating or recovering) the database in `store` using files
  /// "bdb-data" and "bdb-wal".
  static Result<std::unique_ptr<BaselineDb>> Open(
      platform::UntrustedStore* store, const Options& options);

  Result<TreeId> CreateTree(const std::string& name);
  Result<TreeId> OpenTree(const std::string& name) const;

  /// One transaction; operations are buffered and logged/applied at
  /// Commit (abort is therefore trivial).
  class Txn {
   public:
    explicit Txn(BaselineDb* db);
    ~Txn();
    Txn(const Txn&) = delete;
    Txn& operator=(const Txn&) = delete;

    /// Reads through the transaction's own pending writes.
    Result<Buffer> Get(TreeId tree, Slice key);
    Status Put(TreeId tree, Slice key, Slice value);
    Status Delete(TreeId tree, Slice key);
    Status Commit();
    Status Abort();
    bool active() const { return active_; }

   private:
    friend class BaselineDb;
    BaselineDb* db_;
    bool active_ = false;
    std::vector<WalRecord> ops_;
    // (tree, key) -> pending value (nullopt = deleted).
    std::map<std::pair<TreeId, Buffer>, std::optional<Buffer>> pending_;
  };

  /// Flushes all pages and truncates the log. The paper's Berkeley DB runs
  /// never checkpoint during the benchmark (§7.4) — neither do ours unless
  /// this is called.
  Status Checkpoint();

  Status Close();

  /// Data file + log file size — the paper's "database size" (Fig. 11).
  Result<uint64_t> TotalFileBytes() const;

 private:
  BaselineDb(platform::UntrustedStore* store, const Options& options);

  Status Bootstrap();
  Status Recover();
  Status WriteMeta(bool sync);
  Status Barrier();

  // Applies a committed logical operation to the trees.
  Status ApplyOp(const WalRecord& op);
  Status DoCreateTree(const std::string& name);

  // B-tree ops (root page ids are stable).
  struct SplitResult {
    Buffer separator;
    uint32_t right;
  };
  Result<std::optional<SplitResult>> InsertRec(uint32_t page_id, Slice key,
                                               Slice value);
  Status TreePut(uint32_t root, Slice key, Slice value);
  Status TreeDelete(uint32_t root, Slice key);
  Result<std::optional<Buffer>> TreeGet(uint32_t root, Slice key);

  platform::UntrustedStore* store_;
  Options options_;
  Pager pager_;
  WalWriter wal_;
  std::map<std::string, TreeId> trees_;
  std::map<TreeId, uint32_t> roots_;
  TreeId next_tree_id_ = 1;
  bool txn_active_ = false;
};

}  // namespace tdb::baseline

#endif  // TDB_BASELINE_BASELINE_DB_H_
