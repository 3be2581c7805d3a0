#ifndef TDB_CHUNK_CHUNK_STORE_H_
#define TDB_CHUNK_CHUNK_STORE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "chunk/anchor.h"
#include "chunk/chunk_cache.h"
#include "chunk/location_map.h"
#include "chunk/log_format.h"
#include "chunk/types.h"
#include "common/metrics.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "crypto/cipher_suite.h"
#include "platform/one_way_counter.h"
#include "platform/secret_store.h"
#include "platform/untrusted_store.h"

namespace tdb::shard {
class ShardedChunkStore;  // Friend of CommitHandle/Snapshot (src/shard).
}  // namespace tdb::shard

namespace tdb::chunk {

/// What handing a commit's seals to the crypto pool costs the committer:
/// waking the workers and joining them in ThreadPool::ParallelFor. A
/// 4-worker pool took 18-35 us for 2-16 near-empty items on a 4-vCPU x86
/// VM. A commit seals inline until its inline time passes this, then fans
/// the rest out if they are worth another dispatch at the inline rate so
/// far (the ski-rental rule). A batch whose seals take less than one
/// dispatch never pays one, and a batch that would be cheaper pooled loses
/// at most one dispatch plus one write's seal, whatever the cipher suite
/// and write sizes. BM_ChunkBatchCommit's crypto_threads 0 vs 4 rows show
/// both sides.
inline constexpr std::chrono::microseconds kSealDispatchCost{35};

/// Tuning and security knobs for a chunk store instance.
struct ChunkStoreOptions {
  /// Security suite: SecurityConfig::Disabled() is the paper's "TDB"
  /// configuration, PaperTdbS() (SHA-1 + 3DES) is "TDB-S".
  crypto::SecurityConfig security = crypto::SecurityConfig::PaperTdbS();

  /// Nominal segment size; the unit of cleaning and space reclamation.
  uint32_t segment_size = 64 * 1024;

  /// Fanout of the location-map radix tree.
  uint32_t map_fanout = 64;

  /// Maximum fraction of the log occupied by live data before the cleaner
  /// kicks in (the paper's "database utilization"; default 60%, §7.3).
  double max_utilization = 0.6;

  /// Residual-log bytes that trigger an automatic checkpoint.
  uint64_t checkpoint_interval_bytes = 8 << 20;

  /// Bytes of one-way hash stored per location-map entry. Truncating to 12
  /// (96 bits) matches the paper's per-chunk overhead (§7.4) and shrinks
  /// checkpoints substantially; 0 means the full digest.
  uint32_t map_hash_bytes = 12;

  /// Upper bound on segments cleaned as a side effect of one commit,
  /// bounding per-commit cleaning latency (§3.2.1).
  int max_clean_segments_per_commit = 4;

  bool create_if_missing = true;

  /// Extra entropy mixed into the encryption-IV generator. A reopened
  /// store also reseeds the generator from its recovered log tail, so a
  /// constant seed does not repeat IVs across sessions; the shard router
  /// gives each of several shards its own seed.
  std::string iv_seed = "tdb-iv";

  /// Compress-before-encrypt: each chunk plaintext is run through the
  /// built-in LZ codec before sealing and stored compressed when that is
  /// actually smaller. The choice is recorded per chunk in EntryFlags —
  /// authenticated via both the map-node encoding and the MACed commit
  /// manifests — so mixed and pre-compression images stay readable either
  /// way. Off by default: sealed output is then byte-identical to older
  /// stores. Compression happens before encryption by necessity: sealed
  /// bytes are indistinguishable from random and do not compress.
  bool compression = false;

  /// Byte budget for the validated-plaintext chunk cache: decrypted,
  /// hash-checked payloads served straight from trusted memory on re-read,
  /// skipping untrusted-store I/O, hashing, and decryption. 0 disables the
  /// cache (every read revalidates — the pre-cache behavior). View reads
  /// are served from it too, gated by commit version; only their misses
  /// skip filling it. See DESIGN.md "Chunk cache & crypto pipeline".
  size_t cache_bytes = 4 * 1024 * 1024;

  /// Worker threads for the commit-path crypto pipeline (sealing + hashing
  /// of independent staged writes) and for VerifyIntegrity validation.
  /// 0 or 1 runs fully serial on the caller (the pre-pipeline behavior).
  /// A commit seals its writes inline until that has taken about as long
  /// as one pool dispatch, and fans only the rest out, so small commits
  /// never pay the hand-off. Sealed output is bit-identical regardless of
  /// thread count: IVs are drawn serially in submission order first.
  int crypto_threads = 4;

  /// Sharded router only: worker threads for the cross-shard 2PC
  /// coordinator. Phase-1 prepares target disjoint shards, so they fan
  /// out across this pool and a multi-shard commit costs
  /// ~max-of-participants instead of sum (the commit decisions are
  /// in-memory appends, applied inline). 0 or 1 drives the prepares
  /// serially on the caller in ascending shard order — the fault harness
  /// relies on that for a deterministic global write index, so keep it 0
  /// wherever crash points are enumerated by write count. The on-disk
  /// image is identical either way.
  int txn_coordinator_threads = 4;

  // Ignored (group commit is the only path); drop at next benchmark change.
  bool group_commit = false;

  /// Leader accumulation window, microseconds. Every commit buffers into
  /// the open commit group (see ChunkStore::CommitBuffered), and the
  /// durable committer that elects itself group leader first waits up to
  /// this long — releasing the store mutex — so concurrent committers can
  /// buffer into its group before it seals. This is the classic
  /// group-commit delay (cf. MySQL binlog_group_commit_sync_delay,
  /// PostgreSQL commit_delay): without it, on a fast device each flush
  /// finishes before the next committer arrives, every commit leads a
  /// solo group, and nothing is amortized. 0 (default) seals immediately.
  /// Single-committer latency grows by up to the window when nonzero, so
  /// pair it with group_commit_target_commits sized to the expected
  /// concurrency.
  uint32_t group_commit_window_us = 0;

  /// Seal early once this many commits (the leader's own included) have
  /// buffered into the group, without waiting out the rest of the window
  /// (cf. MySQL binlog_group_commit_sync_no_delay_count). 0 means always
  /// wait the full window. Ignored when group_commit_window_us is 0.
  uint32_t group_commit_target_commits = 0;

  /// Metrics registry the store records into (counters, gauges, latency
  /// histograms, and the security audit trail). Null (default) gives the
  /// store a private registry, preserving the per-store semantics of
  /// Stats(); pass a shared registry to aggregate several stores (or to
  /// keep the audit trail reachable when Open itself fails, as the tamper
  /// harness does). The object/collection/backup layers register on the
  /// owning chunk store's registry via ChunkStore::metrics().
  std::shared_ptr<common::MetricsRegistry> metrics;

  /// Prefix prepended to every metric name this store registers (counters,
  /// gauges, histograms) and to audit-event locations. Empty (default)
  /// keeps the unprefixed "chunk.*" names. A sharded deployment passes
  /// "shard<k>." per shard over ONE shared registry, so `tdbstat --json`
  /// attributes load per shard while Stats() — which reads the bound
  /// instruments, not names — keeps working unchanged.
  std::string metric_prefix;
};

/// Counters exposed for tests, benchmarks, and the utilization experiment.
/// Returned by value from ChunkStore::Stats() as a coherent-enough
/// snapshot of the store's internal atomic counters (individual fields are
/// exact; cross-field invariants may be mid-update under concurrency).
struct ChunkStoreStats {
  uint64_t live_bytes = 0;      // Bytes of live records (data + map).
  uint64_t total_bytes = 0;     // Bytes across all segment files.
  uint64_t segments = 0;
  uint64_t live_chunks = 0;
  uint64_t commits = 0;         // Sealed commit manifests (log truth).
  uint64_t durable_commits = 0; // Acked durable commits (incl. internal).
  uint64_t checkpoints = 0;
  uint64_t cleaned_segments = 0;
  uint64_t relocated_records = 0;
  uint64_t relocated_bytes = 0;
  uint64_t bytes_appended = 0;  // Total log bytes written since open.
  // Breakdown of appended payload bytes by record type.
  uint64_t data_bytes = 0;
  uint64_t map_bytes = 0;
  uint64_t commit_bytes = 0;
  // Validated-plaintext chunk cache (only moves when cache_bytes > 0).
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;    // Reads that fell through to validation.
  uint64_t cache_evictions = 0;  // All causes (see breakdown below).
  uint64_t cache_bytes_used = 0;
  // Evictions by cause. `cache_evictions` is their sum; before the cause
  // breakdown it silently missed every non-capacity erasure (deallocations
  // and failed/aborted commits), overstating the effective hit ratio.
  uint64_t cache_evictions_capacity = 0;
  uint64_t cache_evictions_dealloc = 0;
  uint64_t cache_evictions_failed_commit = 0;
  uint64_t cache_evictions_relocation = 0;  // Zero by design; see cache.
  // Commit-path crypto pipeline.
  uint64_t sealed_bytes = 0;           // Plaintext bytes sealed by commits.
  uint64_t parallel_sealed_bytes = 0;  // Subset sealed via the worker pool.
  // Group commit. A lone durable committer leads a group of one, so
  // grouped_commits > commit_groups only when commits shared a flush.
  uint64_t commit_groups = 0;          // Flushes that acked a committer.
  uint64_t grouped_commits = 0;        // Durable commits acked by a flush.
  uint64_t max_commits_per_group = 0;  // Largest single group flush.
  uint64_t log_syncs = 0;              // Sync rounds issued to the store.
  uint64_t counter_bumps = 0;          // One-way counter increments.
  // Compress-before-encrypt codec (only moves when options.compression).
  uint64_t compress_attempts = 0;   // Writes run through the compressor.
  uint64_t compressed_chunks = 0;   // Writes actually stored compressed.
  uint64_t compress_bytes_in = 0;   // Plaintext bytes of compressed writes.
  uint64_t compress_bytes_out = 0;  // Stored bytes of compressed writes.
  // Pinned read views (lock-free snapshot read path).
  uint64_t views_pinned = 0;

  double utilization() const {
    return total_bytes == 0 ? 0.0
                            : static_cast<double>(live_bytes) / total_bytes;
  }
  /// Mean durable commits acked per sync round (1.0 without grouping).
  double commits_per_sync() const {
    return log_syncs == 0
               ? 0.0
               : static_cast<double>(durable_commits) / log_syncs;
  }
  /// Syncs (and, with security enabled, counter bumps) amortized away
  /// relative to the one-sync-per-durable-commit baseline.
  uint64_t syncs_saved() const {
    return durable_commits > log_syncs ? durable_commits - log_syncs : 0;
  }
  uint64_t counter_bumps_saved() const {
    return durable_commits > counter_bumps ? durable_commits - counter_bumps
                                           : 0;
  }
};

/// A group of chunk operations committed atomically (§3.1: "several
/// operations can be grouped into a single commit operation that is atomic
/// with respect to crashes"). Later operations on the same chunk id
/// supersede earlier ones.
class WriteBatch {
 public:
  void Write(ChunkId cid, Slice data);
  /// Takes `data` without copying it.
  void Write(ChunkId cid, Buffer&& data);
  void Deallocate(ChunkId cid);
  /// Room for `n` operations (avoids regrowth while a batch is built).
  void Reserve(size_t n) { ops_.reserve(n); }
  bool empty() const { return ops_.empty(); }
  size_t size() const { return ops_.size(); }
  void Clear() { ops_.clear(); }

 private:
  friend class ChunkStore;
  friend class tdb::shard::ShardedChunkStore;  // Splits batches per shard.
  struct Op {
    bool is_write;
    ChunkId cid;
    Buffer data;
  };
  std::vector<Op> ops_;
};

namespace internal {

/// Completion state of one buffered durable commit; the "per-group future"
/// a committer blocks on. Guarded by the owning store's commit mutex.
struct CommitTicket {
  bool done = false;
  /// True for a durable commit: the ticket waits in the open commit group
  /// and its durability is produced by whichever waiter leads the flush.
  /// WaitDurable uses this to trace the leader/follower handoff
  /// deterministically.
  bool durable = false;
  Status result;
  /// Routing tag for layered stores: ShardedChunkStore stamps the owning
  /// shard index before the handle escapes, so its WaitDurable can
  /// delegate without a side table. -1 for plain single-store handles.
  int route = -1;
  /// Committer's trace context, captured at CommitBuffered. The group
  /// leader mirrors its flush/sync spans into this context so a follower's
  /// trace shows the leader work that actually made it durable (invalid
  /// when tracing is off).
  common::TraceContext trace;
};

}  // namespace internal

/// Handle returned by ChunkStore::CommitBuffered. For a durable commit it
/// is the pending durability future; for a nondurable one it is already
/// complete. Pass to ChunkStore::WaitDurable to obtain the final Status
/// (and run deferred maintenance). Movable and copyable; all copies share
/// the same completion state.
class CommitHandle {
 public:
  CommitHandle() = default;
  bool valid() const { return ticket_ != nullptr; }

 private:
  friend class ChunkStore;
  friend class tdb::shard::ShardedChunkStore;
  std::shared_ptr<internal::CommitTicket> ticket_;
};

/// An immutable view of the database at a durable point in time, produced
/// by copy-on-write of the location map (§3.2.1). Cheap to hold; cleaning
/// is paused while any snapshot is alive so its records stay readable.
class Snapshot {
 public:
  uint64_t seq() const { return seq_; }
  /// Commit version at capture; gates versioned chunk-cache hits in
  /// ReadAtView.
  uint64_t version() const { return version_; }

 private:
  friend class ChunkStore;
  friend class tdb::shard::ShardedChunkStore;
  std::shared_ptr<MapNode> root_;
  uint64_t seq_ = 0;
  uint64_t version_ = 0;
  /// Sharded composite view: per-shard sub-views, indexed by shard. Empty
  /// for views pinned on a plain ChunkStore (root_ is then the real COW
  /// root). A composite view has a null root_ and delegates per chunk.
  std::vector<std::shared_ptr<Snapshot>> parts_;
};

/// The store surface the layers above the chunk store (object store,
/// collection, benches) program against. ChunkStore implements it
/// directly; ShardedChunkStore (src/shard) routes it across N independent
/// ChunkStores, so `ObjectStore`/`Collection` run on either unchanged.
/// Methods carry the contracts documented on ChunkStore below.
class ChunkStoreInterface {
 public:
  virtual ~ChunkStoreInterface() = default;

  virtual ChunkId AllocateChunkId() = 0;
  virtual Result<Buffer> Read(ChunkId cid) = 0;
  /// CommitBuffered + WaitDurable.
  virtual Status Commit(const WriteBatch& batch, bool durable);
  virtual Result<CommitHandle> CommitBuffered(const WriteBatch& batch,
                                              bool durable) = 0;
  virtual Status WaitDurable(CommitHandle& handle) = 0;
  virtual Status Write(ChunkId cid, Slice data, bool durable);
  virtual Status Deallocate(ChunkId cid, bool durable);
  virtual Status Checkpoint() = 0;
  virtual Status Clean(int max_segments) = 0;
  virtual Status VerifyIntegrity(uint64_t* chunks_checked) = 0;
  virtual Result<std::shared_ptr<Snapshot>> PinView() = 0;
  /// A copy of ReadAtViewShared's payload.
  virtual Result<Buffer> ReadAtView(const Snapshot& view, ChunkId cid);
  virtual Result<std::shared_ptr<const Buffer>> ReadAtViewShared(
      const Snapshot& view, ChunkId cid) = 0;
  virtual Result<std::vector<Buffer>> ReadManyAtView(
      const Snapshot& view, const std::vector<ChunkId>& cids) = 0;
  virtual ChunkStoreStats Stats() const = 0;
  virtual const std::shared_ptr<common::MetricsRegistry>& metrics()
      const = 0;
  /// Next id AllocateChunkId would hand out; 1 means a virgin store (the
  /// object store keys its bootstrap on this).
  virtual uint64_t next_chunk_id() const = 0;
  virtual Status Close() = 0;
};

/// The trusted chunk store (§3): log-structured storage of encrypted,
/// hash-validated, variable-sized chunks over an untrusted store.
///
/// Guarantees under the threat model (attacker controls the untrusted
/// store, cannot read the secret store or decrement the one-way counter):
///  - secrecy: all persisted payloads are encrypted;
///  - tamper detection: any modification of data, metadata, or the log is
///    detected on read/recovery (Merkle tree + MACed commit chain/anchor);
///  - replay detection: restoring a stale image is detected via the
///    one-way counter;
///  - atomicity: a WriteBatch commits entirely or not at all across
///    crashes; nondurable commits never survive a crash unless followed by
///    a durable commit.
///
/// Thread-safe: a single commit mutex guards all mutable state, with two
/// deliberate carve-outs for concurrency:
///  - cache-hit Reads take only the chunk cache's internal lock (never the
///    commit mutex), so hot reads never queue behind an in-flight commit
///    or group sync;
///  - a group leader's Sync + counter bump run OUTSIDE the commit mutex,
///    so followers keep buffering (and readers keep reading) while the
///    flush is in flight.
/// Batch sealing (the crypto pipeline) also runs outside the commit mutex
/// on the committer's own thread; the cipher suite's IV generator is the
/// only serialized crypto step.
class ChunkStore : public ChunkStoreInterface {
 public:
  static Result<std::unique_ptr<ChunkStore>> Open(
      platform::UntrustedStore* store, platform::SecretStore* secrets,
      platform::OneWayCounter* counter, const ChunkStoreOptions& options);

  ~ChunkStore() override;
  ChunkStore(const ChunkStore&) = delete;
  ChunkStore& operator=(const ChunkStore&) = delete;

  /// Returns a fresh, unallocated chunk id (§3.1 allocateChunkId).
  ChunkId AllocateChunkId() override { return next_chunk_id_.fetch_add(1); }

  /// Returns the last committed state of `cid`; NotFound if never written
  /// or deallocated; TamperDetected if validation fails.
  Result<Buffer> Read(ChunkId cid) override;

  /// Atomically applies `batch`. If `durable`, the commit (and every
  /// earlier nondurable commit) survives crashes once this returns OK.
  /// CommitBuffered + WaitDurable, timed (Write/Deallocate included).
  Status Commit(const WriteBatch& batch, bool durable) override;

  /// Two-stage group commit (§5/§7 cost model: the per-commit Sync and
  /// one-way counter bump bound durable-commit throughput). Stage 1:
  /// validates, seals, and buffers `batch` into the open commit group —
  /// once this returns OK the batch is in the log buffer and applied to
  /// the in-memory map, so its serialization order is fixed and callers
  /// (e.g. the object store) may release transaction locks early. No
  /// commit record is written yet. Errors here are per-batch: a failed
  /// batch never poisons other buffered commits. Stage 2 (WaitDurable):
  /// for a durable commit, blocks until a group flush covering the batch
  /// completes — the first waiter becomes the leader and seals the whole
  /// group under ONE merged manifest (one log write, one MAC, one chain
  /// link), then performs one Sync + one counter bump for every committer
  /// in it — and returns the durability verdict; durability is acked ONLY
  /// here, after sync + bump (§4.1). A lone committer leads a group of
  /// one, which writes exactly what a per-commit protocol would. A
  /// nondurable commit's handle is already complete: it rides the next
  /// flush. WaitDurable also runs deferred checkpoint/cleaning
  /// maintenance, so it should be called exactly once per successful
  /// CommitBuffered.
  Result<CommitHandle> CommitBuffered(const WriteBatch& batch,
                                      bool durable) override;
  Status WaitDurable(CommitHandle& handle) override;

  /// Writes dirty location-map nodes and the anchor (durable). Normally
  /// automatic; exposed for idle-time maintenance. The checkpoint's
  /// manifest absorbs all buffered commits and completes any pending
  /// durability tickets.
  Status Checkpoint() override;

  /// Idle-time cleaning: reclaims up to `max_segments` low-utilization
  /// segments. No-op while snapshots are alive.
  Status Clean(int max_segments) override;

  /// Integrity scrub: walks the whole location map and validates every
  /// live chunk's record (checksum, Merkle hash, decryption). Returns the
  /// first failure — the offline analogue of the per-read validation, for
  /// idle-time or post-restore checks. `chunks_checked` may be null.
  /// Runs against a pinned view: the commit mutex is held only to collect
  /// the live entries and then per fetch batch, so readers and committers
  /// proceed while validation — fanned out across the crypto pool when
  /// crypto_threads > 1, inline otherwise, bit-identical either way —
  /// runs outside the lock.
  Status VerifyIntegrity(uint64_t* chunks_checked) override;

  /// Snapshots (§3.2.1, used by the backup store): checkpoint + pin in one
  /// mutex hold, so the snapshot is fully persisted. Read it like any view.
  Result<std::shared_ptr<Snapshot>> CreateSnapshot();

  /// Pins a read view of the CURRENT applied state: like CreateSnapshot
  /// but without the checkpoint (no log writes, no sync — just a brief
  /// mutex hold to capture the COW map root and commit version). Views
  /// register like snapshots, so the cleaner pauses while any is alive and
  /// their records stay readable. This is the MVCC read-transaction
  /// anchor: readers at a view never block on, and are never blocked by,
  /// writers.
  Result<std::shared_ptr<Snapshot>> PinView() override;

  /// Validated read at a pinned view. Serves from the plaintext cache when
  /// the cached entry's commit version is <= the view's (taking only the
  /// cache lock); otherwise walks the view's map root and fetches the raw
  /// record under the commit mutex, then runs the expensive validation —
  /// Merkle hash check, decryption, decompression — OUTSIDE it, so
  /// concurrent view readers serialize only on I/O, not on crypto. A hit
  /// hands back shared ownership of the cached payload (no allocation, no
  /// memcpy): the ReadTransaction hot path.
  Result<std::shared_ptr<const Buffer>> ReadAtViewShared(
      const Snapshot& view, ChunkId cid) override;

  /// Batched view read: all cache misses fetch their raw records under ONE
  /// commit-mutex acquisition, then validation fans out across the crypto
  /// pool (the same core as VerifyIntegrity). On failure, returns the
  /// error of the lowest failing index; on success out[i] is the payload
  /// of cids[i].
  Result<std::vector<Buffer>> ReadManyAtView(
      const Snapshot& view, const std::vector<ChunkId>& cids) override;
  Status ForEachChunkAt(
      const Snapshot& snap,
      const std::function<Status(ChunkId, const MapEntry&)>& fn);
  Status DiffSnapshots(
      const Snapshot& base, const Snapshot& delta,
      const std::function<Status(ChunkId, DiffKind, const MapEntry&)>& fn);

  /// Operation counters, including cache and group-commit metrics.
  /// Returns a snapshot by value; safe to call concurrently with readers
  /// and committers.
  ChunkStoreStats Stats() const override;

  /// The registry backing Stats(): latency histograms, the security audit
  /// trail, and every counter above, by name. Shared with the layers built
  /// on this store (object/collection/backup) so one snapshot covers the
  /// whole database instance.
  const std::shared_ptr<common::MetricsRegistry>& metrics() const override {
    return metrics_;
  }

  const ChunkStoreOptions& options() const { return options_; }
  uint64_t next_chunk_id() const override { return next_chunk_id_.load(); }

  /// Flushes a final checkpoint. The destructor calls this best-effort.
  Status Close() override;

 private:
  friend class tdb::shard::ShardedChunkStore;  // Reads shards via ReadManyAt.

  struct SegInfo {
    uint64_t total = 0;     // Bytes in the segment file.
    uint64_t live = 0;      // Bytes of live records (data + map).
    uint64_t live_map = 0;  // Bytes of live map-node records. Segments
                            // holding live map nodes are not cleanable
                            // until a checkpoint relocates those nodes.
    // Segment summary (as in LFS): the ids of the data records appended
    // here, live or not, so the cleaner finds a victim's live records
    // without walking the map.
    std::vector<ChunkId> cids;
  };

  /// Registry-backed instruments, resolved once at construction so hot
  /// paths touch only the wait-free instruments themselves (the old
  /// per-field AtomicStats atomics, migrated onto the metrics registry;
  /// Stats() reads them back as the compatibility accessor). Quantities
  /// that move both ways or get rebuilt are gauges; monotonic tallies are
  /// sharded counters.
  struct Instruments {
    common::Gauge* live_bytes = nullptr;
    common::Gauge* total_bytes = nullptr;
    common::Gauge* segments = nullptr;
    common::Gauge* live_chunks = nullptr;
    common::Counter* commits = nullptr;
    common::Counter* durable_commits = nullptr;
    common::Counter* checkpoints = nullptr;
    common::Counter* cleaned_segments = nullptr;
    common::Counter* relocated_records = nullptr;
    common::Counter* relocated_bytes = nullptr;
    common::Gauge* summary_bytes = nullptr;
    common::Counter* bytes_appended = nullptr;
    common::Counter* data_bytes = nullptr;
    common::Counter* map_bytes = nullptr;
    common::Counter* commit_bytes = nullptr;
    common::Counter* cache_hits = nullptr;
    common::Counter* cache_misses = nullptr;
    common::Counter* cache_evictions[4] = {};  // Indexed by EvictCause.
    common::Gauge* cache_bytes_used = nullptr;
    common::Counter* sealed_bytes = nullptr;
    common::Counter* parallel_sealed_bytes = nullptr;
    common::Counter* commit_groups = nullptr;
    common::Counter* grouped_commits = nullptr;
    common::Gauge* max_commits_per_group = nullptr;
    common::Counter* log_syncs = nullptr;
    common::Counter* counter_bumps = nullptr;
    common::Counter* compress_attempts = nullptr;
    common::Counter* compressed_chunks = nullptr;
    common::Counter* compress_bytes_in = nullptr;
    common::Counter* compress_bytes_out = nullptr;
    common::Counter* views_pinned = nullptr;
    // Latency histograms (recording gated by the registry's timing flag).
    common::Histogram* read_latency_us = nullptr;
    common::Histogram* seal_latency_us = nullptr;
    common::Histogram* sync_latency_us = nullptr;
    common::Histogram* counter_bump_latency_us = nullptr;
    common::Histogram* group_flush_latency_us = nullptr;
    common::Histogram* commit_latency_us = nullptr;
    common::Histogram* verify_latency_us = nullptr;
    common::Histogram* clean_us = nullptr;
    common::Histogram* checkpoint_us = nullptr;
    // Read-path stage breakdown (cache misses only; a hit skips all three).
    common::Histogram* read_verify_us = nullptr;
    common::Histogram* read_decrypt_us = nullptr;
    common::Histogram* read_decompress_us = nullptr;
    // Recovery (set once per Open that replays a residual log).
    common::Gauge* recovery_time_us = nullptr;
    common::Gauge* recovery_commits_replayed = nullptr;
    common::Gauge* recovery_chunks_replayed = nullptr;
    common::Counter* verified_chunks = nullptr;
  };

  ChunkStore(platform::UntrustedStore* store,
             platform::OneWayCounter* counter,
             const ChunkStoreOptions& options, crypto::CipherSuite suite);

  // --- open/recovery (single-threaded: before the store is published) ---
  Status Bootstrap();            // Fresh store: first segment + checkpoint.
  Status Recover();              // Anchor + residual log replay.
  Status RebuildAccounting();    // Full map walk -> live bytes, summaries.

  // --- log tail (all require mu_) ---
  static std::string SegmentName(uint32_t id);
  Status OpenFreshSegment();     // Rolls the tail to a new segment file.
  // Appends a record to the tail (rolling segments as needed); returns its
  // location. AppendVerbatim appends a whole record (header included)
  // read back from the log, which frames and checksums it the same way.
  Result<Location> Append(RecordType type, Slice payload);
  Result<Location> AppendVerbatim(Slice record);
  // Rolls to a fresh segment unless a record of `record_size` fits the
  // tail; returns the location the record will have.
  Result<Location> ReserveTail(RecordType type, uint64_t record_size);
  Status FlushTail();

  // --- records (require mu_: may read the unflushed tail buffer) ---
  // I/O + structural checks only: reads the record at `loc`, verifying
  // type and payload length against the location map but NOT the hash —
  // callers validate (possibly on another thread) before trusting it.
  // Records still sitting in the tail buffer (buffered group commits) are
  // served from memory.
  // With `whole_record` the result keeps the record header (for verbatim
  // relocation); otherwise it is the payload alone.
  Result<Buffer> FetchRawRecord(const Location& loc, RecordType expected,
                                bool whole_record = false);
  Result<Buffer> ReadRawRecord(const Location& loc, RecordType expected,
                               const crypto::Digest& expected_hash,
                               bool whole_record = false);
  // Hash-checks, decrypts, and (if entry.flags says so) decompresses a
  // fetched data record. Pure crypto on local state — safe OUTSIDE mu_ and
  // called concurrently by FetchAndValidate's pool workers.
  Result<Buffer> ValidateSealed(const MapEntry& entry, Buffer sealed);
  // The one map-node loader (MakeLoader wraps it for child loads). A null
  // `level` is the checkpointed root, whose record gives its level.
  Result<std::shared_ptr<MapNode>> LoadMapNode(const uint32_t* level,
                                               uint64_t index,
                                               const Location& loc,
                                               const crypto::Digest& hash);
  NodeLoader MakeLoader();

  // --- the read path ---
  // Takes cids[i]'s validated plaintext; may run on pool workers.
  using Deliver = std::function<void(size_t i, Buffer plain)>;
  // THE fetch-and-validate core under every read and the scrub: looks
  // `cids` up at `*root` and fetches their records under ONE mu_ hold. A
  // null `root` is the current map, validated and cached under mu_ (a fill
  // after unlocking could overwrite a newer commit's write-through); a
  // view's records are validated after it, on the crypto pool when there
  // are several. Returns the failure of the lowest failing index, stored
  // in *failed (cids.size() if none).
  Status FetchAndValidate(const std::shared_ptr<MapNode>* root,
                          std::span<const ChunkId> cids,
                          const Deliver& deliver, size_t* failed);
  // Version-gated cache copies, then the core for the misses.
  Status ReadManyAt(const Snapshot& view, const std::vector<ChunkId>& cids,
                    const Deliver& deliver, size_t* failed);
  // Requires mu_. Registers a view of the current map; cleaning pauses
  // while it lives.
  std::shared_ptr<Snapshot> PinViewLocked();

  // --- commit machinery ---
  // A write whose payload is already sealed (the cleaner relocates sealed
  // bytes verbatim, so relocation neither decrypts nor changes hashes).
  struct StagedWrite {
    ChunkId cid;
    Buffer sealed;
    crypto::Digest hash;
    uint8_t flags = 0;  // EntryFlags describing `sealed`'s payload.
    // A relocation's `sealed` is the whole log record, header included,
    // as read back from the victim segment; it is appended verbatim.
    bool framed = false;
    // A commit's plaintext, in the caller's WriteBatch (valid for the
    // CommitBuffered call); feeds the cache write-through. Null for
    // relocations.
    const Buffer* plain = nullptr;
    // The IV drawn for this write, in batch order, before sealing.
    uint8_t iv[crypto::CipherSuite::kMaxIvSize] = {};
  };
  // A batch after normalization + sealing, ready to buffer.
  struct PreparedBatch {
    std::vector<StagedWrite> writes;
    std::vector<ChunkId> deallocs;
  };
  // One buffered-but-unsealed operation of the open commit group.
  struct PendingOp {
    bool is_write;
    ChunkId cid;
    Location loc;         // is_write only.
    crypto::Digest hash;  // is_write only.
    uint8_t flags = 0;    // is_write only (EntryFlags).
  };
  struct SealResult {
    uint64_t counter_target = 0;  // Sealed counter value (durable only).
    bool bump_counter = false;
    crypto::Digest mac;
  };

  // Normalize + seal OUTSIDE mu_ (crypto pipeline; only the IV draw is
  // serialized). Per-batch: a failure here touches no shared state.
  Status PrepareBatch(const WriteBatch& batch, PreparedBatch* out);
  // Requires mu_. Appends the batch's data records, applies them to the
  // map/accounting/cache and extends the open group. On failure the
  // batch's partial application is rolled back so groupmates are unharmed.
  Status BufferBatchLocked(const PreparedBatch& prep);
  // Requires mu_. Seals every buffered op (plus `new_root`, if any) into
  // ONE merged manifest: one log write, one MAC, one chain link, one
  // counter target. With an empty group this still writes a manifest (an
  // empty durable commit is a pure sync point).
  Result<SealResult> SealGroupLocked(uint8_t flags,
                                     const NodeWriteResult* new_root);
  // Requires mu_, no other flush in flight. THE durable commit: seals the
  // open group (with `new_root` for a checkpoint, which then also records
  // the root and writes the anchor), syncs the dirty files, bumps the
  // counter, frees pending segments and completes the group's tickets.
  // With `lock` it releases mu_ across the sync + bump (see the comment
  // inside on who passes one).
  Status FlushGroupLocked(uint8_t flags, const NodeWriteResult* new_root,
                          std::unique_lock<std::mutex>* lock);
  // Requires mu_, group claimed. The leader's accumulation window: waits
  // (releasing mu_) until the early-seal target is met or the window ends.
  void AwaitGroupWindowLocked(std::unique_lock<std::mutex>& lock);
  // Requires mu_. Blocks until no leader flush is in flight; durable-seal
  // paths that run under the lock (checkpoint, cleaning) must wait so two
  // flushes never interleave their counter bumps.
  void AwaitGroupIdleLocked(std::unique_lock<std::mutex>& lock);
  // Requires mu_. Completes `tickets` with `status` and wakes waiters.
  void CompleteTicketsLocked(
      std::vector<std::shared_ptr<internal::CommitTicket>>* tickets,
      const Status& status);
  // Takes mu_: deferred auto-checkpoint + cleaning after a commit.
  Status RunMaintenance();

  // Cheap precheck mirroring MaybeCheckpointLocked/MaybeCleanLocked
  // trigger conditions, so RunMaintenance can bail before serializing
  // against an in-flight group flush (or its accumulation window) when no
  // maintenance is owed.
  bool MaintenanceDueLocked();

  Status WriteAnchor();
  Status CheckpointLocked();
  Status MaybeCheckpointLocked();

  // --- cleaning (require mu_) ---
  Status MaybeCleanLocked();
  // Lowest-live data-only segments behind the scan position; stops when
  // projected size reaches `target` (0 = no target) or `max_segments`.
  std::vector<uint32_t> CleanCandidates(uint64_t target, int max_segments);
  // Checkpoints iff that would unlock >= one segment of parked garbage.
  // Also marks live map nodes in low-yield segments dirty first, so the
  // checkpoint relocates them and unpins those segments for cleaning.
  Status UnlockGarbageWithCheckpoint();
  // Marks map nodes persisted in `victims` (and their ancestors) dirty.
  Result<bool> DirtyMapNodesIn(const std::set<uint32_t>& victims);
  Status CleanSegments(const std::vector<uint32_t>& victims);
  Status FreePendingSegments();
  size_t ActiveSnapshots();

  void AccountLive(uint32_t segment, int64_t delta, bool is_map = false);
  // Adds a data record of `cid` to `segment`'s summary.
  void NoteSummary(uint32_t segment, ChunkId cid);

  // Hash of a sealed record as stored in the map (possibly truncated).
  crypto::Digest EntryHash(Slice sealed) const;
  size_t entry_hash_size() const;

  // Seals with a serially-drawn IV. IV draws are the only mutating
  // cipher-suite calls; iv_mu_ serializes them (PrepareBatch draws a
  // batch's IVs under it, then seals unlocked).
  Buffer SealSerialIv(Slice plain);

  // Worker pool for the commit/verify crypto pipeline; created on first
  // use (thread-safely), nullptr when options_.crypto_threads <= 1.
  ThreadPool* CryptoPool();
  static void AtomicMax(std::atomic<uint64_t>& counter, uint64_t value);

  // Resolves every instrument in m_ against metrics_ (constructor only).
  void BindInstruments();
  // Records a security audit event (tamper/replay/counter detections).
  void AuditDetect(const char* kind, int region, const std::string& location,
                   const std::string& message);
  static std::string LocationString(const Location& loc);

  platform::UntrustedStore* store_;
  platform::OneWayCounter* counter_;
  ChunkStoreOptions options_;
  crypto::CipherSuite suite_;
  AnchorManager anchor_mgr_;
  LocationMap map_;

  std::atomic<bool> open_{false};
  std::atomic<uint64_t> next_chunk_id_{1};

  // --- All state below requires mu_ unless noted. ---
  mutable std::mutex mu_;  // The commit mutex.
  uint64_t seq_ = 0;
  // Monotone count of applied (buffered or sealed) commits. Unlike seq_ it
  // advances for every applied batch — group-mode buffered commits mutate
  // the map without bumping seq_ — so it versions the in-memory state for
  // the versioned chunk cache and pinned views. Not persisted; resets with
  // the (equally empty) cache at open.
  uint64_t commit_version_ = 0;
  uint64_t counter_value_ = 0;  // Cached one-way counter value.
  crypto::Digest chain_mac_;  // MAC of the most recent commit record.
  // Checkpoint state mirrored into the anchor.
  crypto::Digest ckpt_mac_;
  bool has_root_ = false;
  Location root_loc_;
  crypto::Digest root_hash_;
  uint32_t scan_segment_ = 0;
  uint32_t scan_offset_ = 0;
  uint64_t residual_bytes_ = 0;

  // Tail segment.
  uint32_t cur_segment_ = 0;
  uint64_t cur_offset_ = 0;  // Flushed bytes in the tail file.
  Buffer tail_buf_;
  uint32_t next_segment_id_ = 1;

  std::map<uint32_t, SegInfo> segments_;
  // Files written since their last sync, and the set a flush is syncing
  // (kept as a member so its capacity survives between flushes).
  std::vector<std::string> dirty_files_;
  std::vector<std::string> syncing_files_;
  std::vector<uint32_t> pending_free_;  // Freed at next durable commit.
  std::vector<std::weak_ptr<Snapshot>> snapshots_;

  bool in_maintenance_ = false;  // Guards checkpoint/clean reentrancy.

  // Open commit group: buffered ops awaiting the next merged manifest, and
  // the durable committers waiting on its flush.
  std::vector<PendingOp> group_ops_;
  std::vector<std::shared_ptr<internal::CommitTicket>> group_tickets_;
  // The tickets the in-flight flush completes (swapped with
  // group_tickets_, so neither vector reallocates per commit).
  std::vector<std::shared_ptr<internal::CommitTicket>> flush_tickets_;
  bool group_flushing_ = false;  // A leader's sync is in flight.
  std::condition_variable group_cv_;

  std::shared_ptr<common::MetricsRegistry> metrics_;  // Never null.
  Instruments m_;  // Wait-free instruments: no lock required.

  // Validated-plaintext cache: holds only bytes that already passed
  // Merkle + decryption validation, keyed by the chunk's last committed
  // state. Internally locked; see DESIGN.md for invalidation rules.
  ChunkCache cache_;

  std::mutex iv_mu_;  // Serializes CipherSuite::Seal/NextIv (DRBG state).
  std::once_flag crypto_pool_once_;
  std::unique_ptr<ThreadPool> crypto_pool_;
};

}  // namespace tdb::chunk

#endif  // TDB_CHUNK_CHUNK_STORE_H_
