#ifndef TDB_SHARD_SHARDED_CHUNK_STORE_H_
#define TDB_SHARD_SHARDED_CHUNK_STORE_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "chunk/chunk_store.h"
#include "common/metrics.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "crypto/hash.h"
#include "platform/one_way_counter.h"
#include "platform/secret_store.h"
#include "platform/untrusted_store.h"

namespace tdb::shard {

/// The backing devices of one shard. Each shard is a fully independent
/// ChunkStore: its own segmented log, anchor pair, one-way counter,
/// cache, cleaner, and group-commit window. Counters and secret stores
/// may be shared between shards or distinct; the 2PC record-chain key is
/// derived from backend 0's secret.
struct ShardBackend {
  platform::UntrustedStore* store = nullptr;
  platform::SecretStore* secrets = nullptr;
  platform::OneWayCounter* counter = nullptr;
};

/// Router-level tallies on top of the per-shard ChunkStoreStats.
struct RouterStats {
  uint64_t single_shard_commits = 0;  // Commits routed without coordination.
  uint64_t cross_shard_commits = 0;   // Two-phase commits fully applied.
  uint64_t cross_shard_aborts = 0;    // 2PC aborted during prepare.
  uint64_t cross_shard_commit_failures = 0;  // Decision-phase apply failed.
  uint64_t durability_upgrades = 0;   // Nondurable commits upgraded by 2PC.
  uint64_t recovered_commits = 0;     // In-doubt txns resolved commit at open.
  uint64_t recovered_aborts = 0;      // In-doubt txns resolved abort at open.
  uint64_t decisions_live = 0;        // Decision records kept, all shards.
  uint64_t decisions_dropped = 0;     // Decision records garbage-collected.
};

/// Routes the single-store chunk API across N independent ChunkStores.
///
/// Routing: chunk id `cid` lives on shard `cid % N`. Ids are allocated by
/// a router-level counter, so consecutive allocations round-robin the
/// shards. Ids with the top bit set are reserved for router-internal
/// records (per-shard config, 2PC staging and decision chunks) and are
/// rejected at the public API.
///
/// Commit semantics:
///  - A batch touching ONE shard commits on that shard with zero
///    cross-shard coordination — independent logs, counters, and group
///    windows scale durable commits across cores.
///  - A batch touching MULTIPLE shards runs a two-phase commit.
///    - Prepare: the batch's per-shard ops are serialized into a staging
///      chunk and durably committed on each participant (MAC'd,
///      hash-chained, and counter-stamped by the shard's own log
///      machinery — a torn or replayed prepare is just a torn/replayed
///      shard commit). The prepares run concurrently across txn_pool_.
///    - Ack point: the commit is acknowledged once EVERY prepare is
///      durable. That is safe because the durable prepares already decide
///      the transaction: recovery commits any transaction whose prepare
///      survived on every participant (the "durable votes are the
///      decision" rule of parallel commits and Cornus). A decision record
///      adds no durability; it only spares recovery a redo from staging.
///    - Commit decision: each participant applies {real ops, a decision
///      record, staging dealloc} as ONE nondurable shard batch that rides
///      that shard's next flush (a later prepare, a durable single-shard
///      commit, a checkpoint). Losing it in a crash — or to an attacker
///      truncating the log — loses nothing: its shard's staging survives
///      and recovery redoes it. These in-memory appends run inline in
///      ascending shard order.
///    - Abort decision: written durably on every participant that
///      prepared. A failed prepare's buffered staging may still reach the
///      log later, and only a durable abort elsewhere keeps recovery from
///      treating "every participant resolved" as a commit.
///    Multi-shard commits are always durable (prepares must persist);
///    nondurable requests are upgraded.
///  - Decision records carry an HMAC over their fields plus the previous
///    decision's MAC on that shard, forming a per-shard decision chain in
///    append order, keyed separately from the chunk layer, so a forged,
///    reordered or resurrected coordinator decision — even one written
///    through legitimate chunk commits — fails verification at recovery.
///  - Decision-record GC. Shard k's record for transaction T is dropped
///    once T's decision is known durable on every participant that
///    received one: after that no staging for T remains anywhere, so
///    recovery never consults T's records. The router learns that shard
///    k is durable up to its latest decision when a prepare or abort on k
///    is acknowledged (both are durable and come later in k's log, under
///    txn_mu_) and on Checkpoint. Drops ride k's own next decision batch
///    and always remove the longest qualifying PREFIX of k's chain, at
///    least kDecisionDropBatch records at a time, and the same batch
///    rewrites k's chain-base record {highest dropped txn, MAC of the last
///    dropped decision}, MAC'd with the router key.
///    Recovery starts the chain walk from the base (or from the zero
///    digest when there is none, as in images written before GC), and
///    rejects staging at or below the base's txn — a replayed staging
///    chunk whose decisions were dropped. A shard whose prepare or
///    decision failed keeps its chain from that point until reopen: the
///    failed batch may still reach its log, and its staging links to the
///    chain position of that moment. If one participant stops taking part
///    in 2PC, a chain growing past kMaxLiveDecisions flushes the lagging
///    shards once, so no chain grows without bound.
///  - Why one txn_mu_: each shard's chain is linear, so prepares and
///    decisions on a shard must not interleave across transactions, and
///    the composite PinView must never see half a transaction. With the
///    decision phase now an in-memory append, txn_mu_ is held for ~one
///    flush, and per-shard chain locks measured no faster (EXPERIMENTS.md).
///  - A durable commit covers earlier nondurable commits ON THE SAME
///    SHARDS only; an empty durable batch syncs every shard.
///
/// Recovery (Open): after each shard self-recovers, the router scans the
/// reserved id range, verifies the decision chains, chain bases and
/// prepare MACs, and resolves in-doubt transactions deterministically: a
/// transaction whose prepare survived on EVERY participant (or with a
/// commit decision on any) and with no abort decision is redone from its
/// staged batches; any other is aborted and its staging deallocated. Both
/// outcomes append chained decision records durably.
///
/// Cross-shard read consistency: PinView serializes against the 2PC
/// apply phase, so a pinned composite view never observes half of a
/// multi-shard transaction. Plain Read()s are per-chunk and may observe a
/// cross-shard transaction's shards at different times, exactly like
/// independent stores.
///
/// With N == 1 the router is a strict pass-through: no config record, no
/// reserved-range writes — the shard's on-disk image is bit-identical to
/// a plain ChunkStore's.
class ShardedChunkStore final : public chunk::ChunkStoreInterface {
 public:
  /// `options` applies to every shard; `options.metrics` (or a fresh
  /// registry) is shared across shards with per-shard "shard<k>." metric
  /// prefixes. At most 64 shards. Reopening an existing sharded image
  /// with a different shard count — or with shard backends permuted —
  /// fails with InvalidArgument.
  static Result<std::unique_ptr<ShardedChunkStore>> Open(
      const std::vector<ShardBackend>& backends,
      const chunk::ChunkStoreOptions& options);

  ~ShardedChunkStore() override;
  ShardedChunkStore(const ShardedChunkStore&) = delete;
  ShardedChunkStore& operator=(const ShardedChunkStore&) = delete;

  chunk::ChunkId AllocateChunkId() override;
  Result<Buffer> Read(chunk::ChunkId cid) override;
  Status Commit(const chunk::WriteBatch& batch, bool durable) override;
  Result<chunk::CommitHandle> CommitBuffered(const chunk::WriteBatch& batch,
                                             bool durable) override;
  Status WaitDurable(chunk::CommitHandle& handle) override;
  Status Write(chunk::ChunkId cid, Slice data, bool durable) override;
  Status Deallocate(chunk::ChunkId cid, bool durable) override;
  Status Checkpoint() override;
  Status Clean(int max_segments) override;
  /// Scrubs every shard concurrently (one thread per shard); failures are
  /// reported for the lowest failing shard index.
  Status VerifyIntegrity(uint64_t* chunks_checked) override;
  Result<std::shared_ptr<chunk::Snapshot>> PinView() override;
  Result<Buffer> ReadAtView(const chunk::Snapshot& view,
                            chunk::ChunkId cid) override;
  Result<std::shared_ptr<const Buffer>> ReadAtViewShared(
      const chunk::Snapshot& view, chunk::ChunkId cid) override;
  Result<std::vector<Buffer>> ReadManyAtView(
      const chunk::Snapshot& view,
      const std::vector<chunk::ChunkId>& cids) override;

  /// Aggregate across shards: counters and gauges sum; the group-size
  /// high-water mark is the max of the per-shard maxima (a group never
  /// spans shards, so summing would overstate it).
  chunk::ChunkStoreStats Stats() const override;
  const std::shared_ptr<common::MetricsRegistry>& metrics() const override {
    return metrics_;
  }
  uint64_t next_chunk_id() const override;
  Status Close() override;

  int shard_count() const { return static_cast<int>(shards_.size()); }
  int ShardOf(chunk::ChunkId cid) const {
    return static_cast<int>(cid % shards_.size());
  }
  /// Direct access to one shard (tests, tools; bypasses routing guards).
  chunk::ChunkStore* shard(int k) { return shards_[k].get(); }
  /// Per-shard breakdown of the Stats() aggregate.
  chunk::ChunkStoreStats ShardStats(int k) const {
    return shards_[k]->Stats();
  }
  RouterStats router_stats() const;

  /// Reserved-id helpers (exposed for tests and the harness).
  static bool IsRouterChunk(chunk::ChunkId cid);
  static chunk::ChunkId StagingCid(uint64_t txn_id);
  static chunk::ChunkId DecisionCid(uint64_t txn_id);
  static chunk::ChunkId ChainBaseCid();

  /// GC drops a shard's decision records this many at a time: every drop
  /// rewrites the shard's chain base, and one base record per decision
  /// would cost more log bytes than the records it frees.
  static constexpr size_t kDecisionDropBatch = 16;
  /// A shard's decision chain may hold this many records before the
  /// coordinator flushes the shards whose durability it has not yet
  /// learned (see "Decision-record GC" above).
  static constexpr size_t kMaxLiveDecisions = 64;

 private:
  struct PrepareRecord {
    uint64_t txn_id = 0;
    uint32_t shard_index = 0;
    uint64_t participants = 0;  // Bitmask over shard indexes.
    chunk::WriteBatch ops;
    crypto::Digest prev_mac;
    crypto::Digest mac;
  };
  struct DecisionRecord {
    uint64_t txn_id = 0;
    uint32_t shard_index = 0;
    uint64_t participants = 0;
    bool commit = false;
    crypto::Digest prepare_mac;
    crypto::Digest prev_mac;
    crypto::Digest mac;
  };

  ShardedChunkStore() = default;

  // Record codecs. Encode returns the payload and fills *mac with the
  // record's own MAC (empty when security is disabled).
  Buffer EncodePrepare(uint64_t txn_id, uint64_t participants,
                       uint32_t shard_index, const chunk::WriteBatch& ops,
                       const crypto::Digest& prev_mac,
                       crypto::Digest* mac) const;
  Buffer EncodeDecision(uint64_t txn_id, uint64_t participants,
                        uint32_t shard_index, bool commit,
                        const crypto::Digest& prepare_mac,
                        const crypto::Digest& prev_mac,
                        crypto::Digest* mac) const;
  Status DecodePrepare(Slice payload, PrepareRecord* out) const;
  Status DecodeDecision(Slice payload, DecisionRecord* out) const;
  crypto::Digest MacOf(Slice mac_input) const;

  // Requires txn_mu_. The two-phase commit driver; `parts` maps shard
  // index -> that shard's sub-batch. Phase 1 fans the durable prepares out
  // across txn_pool_ (participants touch disjoint shards); the commit
  // decisions are in-memory appends applied inline in ascending shard
  // order. txn_mu_ stays held for the whole transaction: each shard's
  // decision chain is linear, so a second coordinator interleaving its
  // decisions between this txn's prepare (which embeds the chain end) and
  // its decision would break the chain linkage recovery verifies.
  Status CommitCrossShardLocked(const std::map<int, chunk::WriteBatch>& parts,
                                bool durable);
  // Requires txn_mu_. Commits {decision record, staging dealloc} (plus
  // `ops` when committing) on shard `k` — durably or not — together with
  // the drop of k's droppable chain prefix and the rewritten chain base,
  // and advances k's chain.
  Status ApplyDecisionLocked(int k, uint64_t txn_id, uint64_t participants,
                             bool commit, const chunk::WriteBatch* ops,
                             const crypto::Digest& prepare_mac, bool durable);
  // Requires txn_mu_. Every decision appended on shard k up to seq
  // `through` is durable (a later durable commit on k was acknowledged):
  // clears k from those transactions' unsettled masks.
  void MarkDurableLocked(int k, uint64_t through);
  // Requires txn_mu_. Flushes every shard holding decisions whose
  // durability the router has not learned, once some chain outgrows
  // kMaxLiveDecisions because one of its transactions' participants has
  // gone quiet.
  void BoundChainsLocked();

  Buffer EncodeChainBase(uint32_t shard_index, uint64_t through_txn,
                         const crypto::Digest& chain_mac) const;
  Status DecodeChainBase(Slice payload, uint32_t shard_index,
                         uint64_t* through_txn,
                         crypto::Digest* chain_mac) const;

  // Open-time helpers (single-threaded: before the store is published).
  Status CheckConfig();
  Status RecoverCrossShard();
  void AuditTxn(const char* kind, const std::string& location,
                const std::string& message);

  std::vector<std::unique_ptr<chunk::ChunkStore>> shards_;
  std::shared_ptr<common::MetricsRegistry> metrics_;
  crypto::HashKind mac_hash_ = crypto::HashKind::kSha256;
  Buffer mac_key_;  // Empty when security is disabled (no MACs/chains).

  std::atomic<uint64_t> next_id_{1};  // App chunk ids (N > 1 only).

  // One kept decision record of a shard's chain.
  struct ChainEntry {
    uint64_t txn_id = 0;
    uint64_t seq = 0;  // 1-based append position on the shard, this session.
    crypto::Digest mac;
  };
  // A shard's decision chain: the kept records in append order, hanging
  // off the chain base (the last dropped record), plus what the router
  // knows about their durability.
  struct ShardChain {
    std::deque<ChainEntry> live;
    crypto::Digest end;           // Last kept record's MAC, else base_mac.
    uint64_t base_through = 0;    // Highest txn id ever dropped here.
    crypto::Digest base_mac;      // MAC of the last dropped record.
    uint64_t appended = 0;        // Seq of the newest record.
    uint64_t durable = 0;         // Every seq <= durable is on disk.
    // GC never drops a record past this seq: set at a failed prepare or
    // decision batch on the shard, kept until reopen.
    uint64_t fence = UINT64_MAX;
  };

  // Serializes cross-shard transactions and composite PinView against the
  // 2PC apply window. Single-shard commits and reads never take it.
  mutable std::mutex txn_mu_;
  uint64_t next_txn_id_ = 1;        // Requires txn_mu_.
  std::vector<ShardChain> chains_;  // Requires txn_mu_.
  // Requires txn_mu_. Transactions with a decision record not yet known
  // durable on some participant -> the mask of those participants. A
  // transaction absent here is settled: its records may be dropped.
  std::map<uint64_t, uint64_t> unsettled_;

  // Coordinator fan-out pool (N > 1 only); 0 workers when
  // txn_coordinator_threads <= 1, in which case ParallelFor degenerates to
  // an in-order serial loop on the caller.
  std::unique_ptr<ThreadPool> txn_pool_;

  common::Counter* single_commits_ = nullptr;
  common::Counter* cross_commits_ = nullptr;
  common::Counter* cross_aborts_ = nullptr;
  common::Counter* cross_commit_failures_ = nullptr;
  common::Counter* upgrades_ = nullptr;
  common::Counter* recovered_commits_ = nullptr;
  common::Counter* recovered_aborts_ = nullptr;
  common::Counter* decisions_dropped_ = nullptr;
  common::Gauge* decisions_live_ = nullptr;

  // Health-monitor inputs: >0 while a 2PC prepare/decision window is open
  // (requires txn_mu_), with the monotonic time it opened. A wedged or
  // leaked window shows up as an aged txn_inflight violation.
  common::Gauge* txn_inflight_ = nullptr;
  common::Gauge* txn_inflight_since_us_ = nullptr;

  // Per-shard span names ("shard<k>.2pc.prepare" / ".decision"), interned
  // once at Open so TraceEvents referencing them can never dangle.
  std::vector<const char*> prepare_span_names_;
  std::vector<const char*> decision_span_names_;
};

}  // namespace tdb::shard

#endif  // TDB_SHARD_SHARDED_CHUNK_STORE_H_
