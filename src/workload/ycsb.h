#ifndef TDB_WORKLOAD_YCSB_H_
#define TDB_WORKLOAD_YCSB_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "collection/collection.h"
#include "common/metrics.h"
#include "common/random.h"
#include "object/object_store.h"
#include "workload/key_chooser.h"
#include "workload/workload.h"

namespace tdb::workload {

/// The six core YCSB workload mixes:
///   A  50% read / 50% update, zipfian          (session store)
///   B  95% read /  5% update, zipfian          (photo tagging)
///   C 100% read, zipfian                       (profile cache)
///   D  95% read /  5% insert, latest           (status updates)
///   E  95% scan /  5% insert, zipfian          (threaded conversations)
///   F  50% read / 50% read-modify-write, zipfian (user database)
/// A-D and F run over the object store (point access by object id through
/// a persistent key directory); E runs over a B-tree collection, whose
/// ordered index serves the range scans.
enum class Mix : uint8_t { kA, kB, kC, kD, kE, kF };
inline constexpr int kMixCount = 6;

const char* MixName(Mix mix);          // "A".."F"
Mix MixFromIndex(uint64_t index);      // index % 6 -> Mix

enum class OpKind : uint8_t { kRead, kUpdate, kInsert, kScan,
                              kReadModifyWrite };

struct YcsbSpec {
  Mix mix = Mix::kA;
  uint64_t records = 100;     // Records loaded before the run.
  uint64_t ops = 100;         // Operations per Run() stream.
  uint32_t value_bytes = 128;
  uint32_t max_scan_len = 16;  // E: records enumerated per scan.
  double theta = ZipfianChooser::kDefaultTheta;
  uint64_t seed = 1;
  double p_durable = 0.25;    // Chance a mutating transaction is durable.
  /// Insert headroom beyond `records` (D/E grow the keyspace). 0 = `ops`.
  /// When exhausted, insert ops degrade to reads (counted, never fails).
  uint64_t max_inserts = 0;
};

/// The benchmark record: an immutable logical key plus a mutable value.
using YcsbRecord = KeyedRecord<0x59435352>;  // "YCSR"

/// Key -> object-id directory for the object-store mixes. Each insert
/// appends its (key, oid) pair in the same transaction as the record, so
/// the mapping is crash-atomic with the record; entry order is commit
/// order, not key order (concurrent inserts may finish out of order).
using YcsbDirectory = KeyDirectory<0x59434449>;  // "YCDI"

/// Registers YcsbRecord and YcsbDirectory (call once per fresh store).
Status RegisterYcsbClasses(object::ObjectStore* os);

/// Executes a YCSB mix against an open store stack. Thread-safe: distinct
/// streams may Run() concurrently (the bench mode); a single stream run
/// with a CommitHook is fully deterministic (the harness/test mode — the
/// hook is keyed by LOGICAL RECORD KEY for every mix).
///
/// Per-op latency lands in the store registry's histograms
/// `workload.<mix>.{read,update,insert,scan,rmw}_us`, with counters
/// `workload.<mix>.ops`, `.retries` (lock-timeout retries) and
/// `.insert_skips` (inserts degraded to reads after headroom ran out).
class YcsbDriver {
 public:
  /// `collections` is required for mix E, ignored otherwise. `create`
  /// loads `spec.records` seed records in one durable transaction;
  /// `create=false` attaches to an existing (possibly crash-recovered)
  /// table, which may legitimately be absent (an empty table).
  static Result<std::unique_ptr<YcsbDriver>> Open(
      object::ObjectStore* objects,
      collection::CollectionStore* collections, const YcsbSpec& spec,
      bool create, CommitHook* hook = nullptr);

  ~YcsbDriver();  // Out of line: Stream is private and incomplete here.

  /// Runs spec.ops operations of stream `stream` (deterministic per
  /// (spec.seed, stream)).
  Status Run(uint64_t stream, CommitHook* hook = nullptr);

  /// Runs `count` operations, resuming where the stream's previous
  /// RunOps/Run left off (benchmark batching).
  Status RunOps(uint64_t stream, uint64_t count, CommitHook* hook = nullptr);

  /// Scans the committed table into logical-key -> record image (the same
  /// keying the CommitHook sees).
  Status Scan(std::map<uint64_t, Buffer>* out);

  uint64_t live_records() const {
    return live_.load(std::memory_order_acquire);
  }
  const YcsbSpec& spec() const { return spec_; }

 private:
  struct Stream;

  YcsbDriver(object::ObjectStore* objects,
             collection::CollectionStore* collections, const YcsbSpec& spec);

  Status Load(CommitHook* hook);
  Status Attach();
  Status RunOne(Stream* stream, CommitHook* hook);
  Status DoRead(Stream* stream, uint64_t key);
  Status DoUpdate(Stream* stream, uint64_t key, CommitHook* hook);
  Status DoInsert(Stream* stream, CommitHook* hook, bool* out_of_room);
  Status DoScan(Stream* stream, uint64_t start_key);
  Status DoRmw(Stream* stream, uint64_t key, CommitHook* hook);
  OpKind PickOp(Stream* stream) const;
  uint64_t PickKey(Stream* stream) const;
  Stream* GetStream(uint64_t stream_id);
  object::ObjectId OidForKey(uint64_t key) const;
  bool use_collection() const { return spec_.mix == Mix::kE; }

  object::ObjectStore* objects_;
  collection::CollectionStore* collections_;
  const YcsbSpec spec_;
  const uint64_t capacity_;

  // Key -> oid table (object-store mixes). Entries [0, live_) are
  // published: written under mutex_, then live_ advances with a release
  // store, so lock-free readers see initialized slots.
  std::vector<object::ObjectId> oids_;
  std::atomic<uint64_t> live_{0};
  uint64_t reserved_ = 0;  // Next key to hand to an insert. Under mutex_.
  std::mutex mutex_;
  object::ObjectId directory_oid_ = object::kInvalidObjectId;

  std::shared_ptr<collection::GenericIndexer> indexer_;

  // Per-stream state, created on first use.
  std::map<uint64_t, std::unique_ptr<Stream>> streams_;
  std::mutex streams_mutex_;

  // Instruments (resolved once against the store's registry).
  common::MetricsRegistry* registry_ = nullptr;
  common::Histogram* read_us_ = nullptr;
  common::Histogram* update_us_ = nullptr;
  common::Histogram* insert_us_ = nullptr;
  common::Histogram* scan_us_ = nullptr;
  common::Histogram* rmw_us_ = nullptr;
  common::Counter* ops_ = nullptr;
  common::Counter* retries_ = nullptr;
  common::Counter* insert_skips_ = nullptr;
};

}  // namespace tdb::workload

#endif  // TDB_WORKLOAD_YCSB_H_
