#ifndef TDB_OBJECT_OBJECT_STORE_H_
#define TDB_OBJECT_OBJECT_STORE_H_

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <unordered_map>
#include <mutex>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "chunk/chunk_store.h"
#include "common/result.h"
#include "object/class_registry.h"
#include "object/lock_manager.h"
#include "object/object.h"
#include "object/object_cache.h"

namespace tdb::object {

class ObjectStore;
class Transaction;
class ReadTransaction;

namespace internal {

/// The objects a transaction wrote, inserted or removed, each with its
/// flags, in one flat vector: ids are appended as first touched and
/// sorted on demand. Commit visits them in ascending id order, which
/// fixes the order of the commit's writes and deallocations in the log.
class TxnObjects {
 public:
  enum Flag : uint8_t {
    kWritten = 1,   // Opened writable (incl. inserted).
    kInserted = 2,
    kRemoved = 4,
  };
  struct Entry {
    ObjectId oid;
    uint8_t flags;
  };

  bool Has(ObjectId oid, uint8_t flag) const {
    const Entry* e = Find(oid);
    return e != nullptr && (e->flags & flag) != 0;
  }
  void Add(ObjectId oid, uint8_t flag);
  /// Every entry, in ascending id order.
  const std::vector<Entry>& Sorted();

 private:
  // Sorts the unsorted tail into the sorted prefix.
  void Merge();
  const Entry* Find(ObjectId oid) const;
  Entry* Find(ObjectId oid) {
    return const_cast<Entry*>(std::as_const(*this).Find(oid));
  }

  std::vector<Entry> entries_;
  size_t sorted_ = 0;  // entries_[0, sorted_) is sorted by id.
};

/// Shared bookkeeping of one transaction. Refs hold a shared_ptr to it so
/// use-after-end is a *checked* error rather than undefined behavior.
struct TxnState {
  TxnId id = 0;
  bool active = false;
  // Guarded by the store's state mutex:
  TxnObjects objects;
  // A lock wait expired during this transaction (the timeout that "breaks
  // potential deadlocks", §4.1). When the application then aborts, the
  // abort is attributed to deadlock avoidance in the store stats.
  bool hit_lock_timeout = false;
};

/// A Ref's pin on its object-cache entry: {store, oid, generation}, no
/// heap. Copying pins the entry once more (under the store's state
/// mutex), moving hands the pin over, and destruction releases it — and
/// only the entry generation that was pinned, so a stale copy never
/// unpins an entry re-fetched after an abort. An empty Pin (Refs of read
/// transactions) does nothing.
class Pin {
 public:
  Pin() = default;
  /// Adopts a pin already taken on `oid`'s entry of that `generation`.
  Pin(ObjectStore* store, ObjectId oid, uint64_t generation)
      : store_(store), oid_(oid), generation_(generation) {}
  Pin(const Pin& other);
  Pin(Pin&& other) noexcept
      : store_(std::exchange(other.store_, nullptr)), oid_(other.oid_),
        generation_(other.generation_) {}
  Pin& operator=(const Pin& other) {
    if (this != &other) *this = Pin(other);
    return *this;
  }
  Pin& operator=(Pin&& other) noexcept {
    if (this != &other) {
      Release();
      store_ = std::exchange(other.store_, nullptr);
      oid_ = other.oid_;
      generation_ = other.generation_;
    }
    return *this;
  }
  ~Pin() { Release(); }

 private:
  void Release();

  ObjectStore* store_ = nullptr;
  ObjectId oid_ = kInvalidObjectId;
  uint64_t generation_ = 0;
};

/// The TypeMismatch of a typed open whose object `oid` is not of the
/// requested class. Out of line, so the typed opens stay a cast.
Status NotOfRequestedClass(ObjectId oid);

}  // namespace internal

/// Options for the object store.
struct ObjectStoreOptions {
  /// Budget for the object cache. The paper's evaluation uses 4 MB (§7.2).
  ///
  /// Sizing note: an object-cache miss is no longer a full validated chunk
  /// read. The chunk store keeps its own validated-plaintext cache
  /// (ChunkStoreOptions::cache_bytes), so a miss here typically costs one
  /// chunk-cache lookup plus unpickling — untrusted-store I/O, hashing,
  /// and decryption are skipped for chunks hot at that layer. Deployments
  /// that sized this budget defensively to avoid re-validation can run
  /// tighter and lean on the (cheaper, type-erased) chunk-layer cache.
  size_t cache_capacity_bytes = 4 * 1024 * 1024;

  /// How long lock acquisition waits before reporting LockTimeout ("thus
  /// breaking potential deadlocks", §4.1). Tunable by the application.
  std::chrono::milliseconds lock_timeout{500};

  /// §4.2.3: "the application may even switch off locking to avoid the
  /// locking overhead in the absence of concurrent transactions."
  bool locking_enabled = true;
};

/// Smart pointer to a read-only view of a persistent object (§4.1).
/// Valid only until its transaction commits or aborts; later dereferences
/// are checked runtime errors. Copyable; each copy holds its own pin on
/// the cache entry, which stays pinned until the last copy is gone.
template <typename T>
class ReadonlyRef {
 public:
  ReadonlyRef() = default;

  /// Implicit up-cast ReadonlyRef<Derived> -> ReadonlyRef<Base>.
  template <typename U,
            typename = std::enable_if_t<std::is_base_of_v<T, U> &&
                                        !std::is_same_v<T, U>>>
  ReadonlyRef(const ReadonlyRef<U>& other)  // NOLINT(runtime/explicit)
      : state_(other.state_), oid_(other.oid_), ptr_(other.ptr_),
        pin_(other.pin_) {}

  const T& operator*() const { return *Access(); }
  const T* operator->() const { return Access(); }

  ObjectId id() const { return oid_; }
  bool valid() const { return state_ != nullptr && state_->active; }

 private:
  friend class ObjectStore;
  friend class Transaction;
  friend class ReadTransaction;
  template <typename>
  friend class ReadonlyRef;
  template <typename>
  friend class WritableRef;  // For WritableRef<T>::AsReadonly().
  template <typename To, typename From>
  friend Result<ReadonlyRef<To>> ref_cast(const ReadonlyRef<From>& from);

  ReadonlyRef(std::shared_ptr<internal::TxnState> state, ObjectId oid,
              const T* ptr, internal::Pin pin)
      : state_(std::move(state)), oid_(oid), ptr_(ptr),
        pin_(std::move(pin)) {}

  const T* Access() const {
    TDB_CHECK(valid(), "Ref dereferenced outside its transaction");
    return ptr_;
  }

  std::shared_ptr<internal::TxnState> state_;
  ObjectId oid_ = kInvalidObjectId;
  const T* ptr_ = nullptr;
  internal::Pin pin_;  // Releases the cache entry's pin.
};

/// Smart pointer to a writable view of a persistent object. The referenced
/// object is dirty in the cache and pinned until transaction end
/// (no-steal, §4.2.2).
template <typename T>
class WritableRef {
 public:
  WritableRef() = default;

  template <typename U,
            typename = std::enable_if_t<std::is_base_of_v<T, U> &&
                                        !std::is_same_v<T, U>>>
  WritableRef(const WritableRef<U>& other)  // NOLINT(runtime/explicit)
      : state_(other.state_), oid_(other.oid_), ptr_(other.ptr_),
        pin_(other.pin_) {}

  T& operator*() const { return *Access(); }
  T* operator->() const { return Access(); }

  ObjectId id() const { return oid_; }
  bool valid() const { return state_ != nullptr && state_->active; }

  /// Read-only view of the same object.
  ReadonlyRef<T> AsReadonly() const {
    return ReadonlyRef<T>(state_, oid_, ptr_, pin_);
  }

 private:
  friend class ObjectStore;
  friend class Transaction;
  template <typename>
  friend class WritableRef;
  template <typename To, typename From>
  friend Result<WritableRef<To>> ref_cast(const WritableRef<From>& from);

  WritableRef(std::shared_ptr<internal::TxnState> state, ObjectId oid, T* ptr,
              internal::Pin pin)
      : state_(std::move(state)), oid_(oid), ptr_(ptr),
        pin_(std::move(pin)) {}

  T* Access() const {
    TDB_CHECK(valid(), "Ref dereferenced outside its transaction");
    return ptr_;
  }

  std::shared_ptr<internal::TxnState> state_;
  ObjectId oid_ = kInvalidObjectId;
  T* ptr_ = nullptr;
  internal::Pin pin_;
};

/// Checked down-cast between Ref types (the paper's copy-construction of
/// Ref<MyObject> from Ref<Object> with a runtime subtype check).
template <typename To, typename From>
Result<ReadonlyRef<To>> ref_cast(const ReadonlyRef<From>& from) {
  const To* typed = dynamic_cast<const To*>(from.ptr_);
  if (from.ptr_ != nullptr && typed == nullptr) {
    return Status::TypeMismatch("object is not of the requested class");
  }
  return ReadonlyRef<To>(from.state_, from.oid_, typed, from.pin_);
}

template <typename To, typename From>
Result<WritableRef<To>> ref_cast(const WritableRef<From>& from) {
  To* typed = dynamic_cast<To*>(from.ptr_);
  if (from.ptr_ != nullptr && typed == nullptr) {
    return Status::TypeMismatch("object is not of the requested class");
  }
  return WritableRef<To>(from.state_, from.oid_, typed, from.pin_);
}

/// A transaction over the object store (§4.1, Figure 3). Each transaction
/// executes atomically with respect to concurrent transactions (strict
/// 2PL) and crashes (chunk-store commits). Create on the stack; an active
/// transaction aborts in its destructor.
class Transaction {
 public:
  explicit Transaction(ObjectStore* store);
  ~Transaction();
  Transaction(const Transaction&) = delete;
  Transaction& operator=(const Transaction&) = delete;

  /// Inserts `object` for persistent storage; returns its new id. The
  /// store takes ownership.
  Result<ObjectId> Insert(std::unique_ptr<Object> object);

  /// Opens the named object read-only (shared lock) / read-write
  /// (exclusive lock; the object is marked dirty and committed at commit).
  /// TypeMismatch if the stored object is not a T. LockTimeout on deadlock.
  template <typename T>
  Result<ReadonlyRef<T>> OpenReadonly(ObjectId oid);
  template <typename T>
  Result<WritableRef<T>> OpenWritable(ObjectId oid);

  /// Removes the named object and frees its storage at commit.
  Status Remove(ObjectId oid);

  /// Commits inserted/written/removed objects. Iff `durable`, the commit
  /// (and all previous nondurable commits) survives crashes. Invalidates
  /// this Transaction and all Refs it produced.
  Status Commit(bool durable = true);

  /// Undoes all changes made during the transaction.
  Status Abort();

  bool active() const { return state_ != nullptr && state_->active; }
  TxnId id() const { return state_ ? state_->id : 0; }

 private:
  friend class ObjectStore;

  // The untyped open under OpenReadonly/OpenWritable: checks that the
  // transaction is active, then locks, fetches and pins the object, and
  // hands back the pin.
  Result<Object*> OpenUntyped(ObjectId oid, bool writable, internal::Pin* pin);

  ObjectStore* store_;
  std::shared_ptr<internal::TxnState> state_;
};

/// A read-only transaction with MVCC snapshot semantics — the lock-free
/// alternative to Transaction for pure readers. At construction it pins a
/// chunk-store view (a COW map root + commit version; no checkpoint, no
/// log I/O) and serves every read from that consistent state:
///
///  - ZERO LockManager traffic and zero state-mutex acquisitions — the
///    read path touches only the chunk layer, so readers never block
///    writers and writers never block readers (no lock waits, no timeout
///    aborts for read-only work);
///  - a consistent snapshot: concurrent commits are invisible, unlike a
///    locking reader that observes states committed between its opens;
///  - the shared object cache is BYPASSED: its instances may be dirty
///    with uncommitted writes (no-steal) or newer than the view.
///    Unpickled objects are transaction-private and live until End().
///
/// Single-threaded like Transaction; concurrent ReadTransactions on their
/// own threads share no mutable state, which is what the read-scan
/// benchmark exercises. While any is active the chunk-store cleaner
/// pauses, so keep read transactions short-lived (the §4.1 guidance for
/// ordinary transactions applies unchanged).
class ReadTransaction {
 public:
  /// Pins the view. If the underlying chunk store is closed the
  /// transaction starts inactive and every Open fails.
  explicit ReadTransaction(ObjectStore* store);
  ~ReadTransaction();
  ReadTransaction(const ReadTransaction&) = delete;
  ReadTransaction& operator=(const ReadTransaction&) = delete;

  /// Opens an object at the pinned view. TypeMismatch if the stored
  /// object is not a T; NotFound if absent at the view (even if inserted
  /// later). Repeated opens return the same private instance.
  template <typename T>
  Result<ReadonlyRef<T>> Open(ObjectId oid);

  /// Batched warm-up: fetches all not-yet-opened objects through the
  /// chunk store's batched view read (one commit-mutex hold for the raw
  /// records, pooled validation) and unpickles them into the transaction.
  /// Open() afterwards is a pure map lookup.
  Status Prefetch(const std::vector<ObjectId>& oids);

  /// Opens an object at the pinned view WITHOUT memoizing it: ownership
  /// of the freshly unpickled instance transfers to the caller and the
  /// transaction retains nothing. This keeps long streaming scans (e.g.
  /// reading a multi-chunk large object part by part) at O(1) transaction
  /// memory, where Open() would retain every part until End(). An oid
  /// previously seen by Open() is re-read rather than stolen, so existing
  /// refs stay valid.
  template <typename T>
  Result<std::unique_ptr<T>> Take(ObjectId oid);

  /// Releases the pinned view and invalidates all refs. Idempotent; the
  /// destructor calls it.
  void End();

  bool active() const { return state_ != nullptr && state_->active; }
  /// Chunk-store commit seq of the pinned view.
  uint64_t snapshot_seq() const { return view_ ? view_->seq() : 0; }

 private:
  // The untyped opens under Open/Take; both check that the transaction is
  // active. Chunk read at the view + unpickle, memoized in objects_:
  Result<const Object*> OpenInternal(ObjectId oid);
  Result<const Object*> UnpickleInto(ObjectId oid, Slice data);
  // Chunk read at the view + unpickle, ownership to the caller.
  Result<std::unique_ptr<Object>> TakeInternal(ObjectId oid);
  // The view read under both: the shared cache payload of `oid`.
  Result<std::shared_ptr<const Buffer>> ReadRecord(ObjectId oid);

  ObjectStore* store_;
  std::shared_ptr<internal::TxnState> state_;
  std::shared_ptr<chunk::Snapshot> view_;
  std::unordered_map<ObjectId, std::unique_ptr<Object>> objects_;  // Txn-private.
};

/// Every object-store, object-cache and lock-manager statistic, named once
/// (see TDB_METRIC_POINTER in common/metrics.h for the entry shapes).
#define TDB_OBJECT_STORE_METRICS(STAT, INSTRUMENT)                     \
  STAT(Counter, txns_begun, "txn.begin")                               \
  STAT(Counter, read_txns_begun, "txn.read_begin")                     \
  STAT(Counter, commits, "txn.commits")                                \
  STAT(Counter, durable_commits, "txn.durable_commits")                \
  STAT(Counter, aborts, "txn.aborts")                                  \
  STAT(Counter, deadlock_aborts, "txn.deadlock_aborts")                \
  STAT(Counter, lock_acquisitions, "txn.lock_acquisitions")            \
  STAT(Counter, lock_waits, "txn.lock_waits")                          \
  STAT(Counter, lock_timeouts, "txn.lock_timeouts")                    \
  STAT(Counter, pickle_bytes, "object.pickle_bytes")                   \
  STAT(Counter, cache_hits, "object.cache.hits")                       \
  STAT(Counter, cache_misses, "object.cache.misses")                   \
  STAT(Counter, cache_evictions, "object.cache.evictions")             \
  INSTRUMENT(Gauge, cache_bytes_used, "object.cache.bytes_used")       \
  INSTRUMENT(Histogram, commit_latency_us, "txn.commit.latency_us")    \
  INSTRUMENT(Histogram, lock_wait_us, "txn.lock_wait_us")              \
  INSTRUMENT(Histogram, unpickle_us, "object.unpickle_us")

/// Transaction/locking tallies, read back from their instruments in
/// TDB_OBJECT_STORE_METRICS by ObjectStore::Stats().
struct ObjectStoreStats {
  uint64_t txns_begun = 0;
  uint64_t read_txns_begun = 0;  // Lock-free ReadTransactions pinned.
  uint64_t commits = 0;          // Successful CommitTxn calls.
  uint64_t durable_commits = 0;  // Subset acked only after the group flush.
  uint64_t aborts = 0;
  // Aborts of transactions that previously hit a lock timeout — the
  // deadlock-avoidance path: the timeout breaks the deadlock, the
  // application gives up and rolls back.
  uint64_t deadlock_aborts = 0;
  uint64_t lock_acquisitions = 0;  // Granted locks (0 delta for read txns).
  uint64_t lock_waits = 0;     // Lock calls that blocked.
  uint64_t lock_timeouts = 0;  // Waits that expired (possible deadlock).
  uint64_t pickle_bytes = 0;   // Serialized object bytes handed to commits.
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_evictions = 0;
};

/// The object store (§4): type-safe, transactional storage of named C++
/// objects over the trusted chunk store. One object per chunk; object id ==
/// chunk id (§4.2.1).
///
/// Thread-safe: a single state mutex guards all structures; blocked lock
/// waits release it (§4.2.3). Individual Transaction objects are
/// single-threaded. Commits use the chunk store's two-stage group-commit
/// API: transaction locks are released as soon as the write batch is in
/// the chunk store's log buffer, and the committer then waits for the
/// covering group flush outside the state mutex — so concurrent durable
/// committers share one log sync and one counter bump instead of
/// serializing behind each other's I/O. Buffering itself also happens outside the state
/// mutex (serialization is carried by the transaction's 2PL locks, held
/// until buffering succeeds), which matters most over the sharded router:
/// a transaction whose batch spans shards runs a full synchronous 2PC
/// inside CommitBuffered, and only that transaction — not the whole
/// store — waits out the coordination window.
///
/// Over a shard::ShardedChunkStore, a transaction whose objects live on
/// different shards (object id == chunk id, placed at cid % N) commits
/// atomically through the router's MAC-chained 2PC; crash recovery
/// either redoes it on every participant shard or aborts it on all.
class ObjectStore {
 public:
  /// The chunk store must outlive the object store and must not be used
  /// directly while the object store owns it logically (the object store
  /// reserves chunk id 1 for its root-registry header). Any
  /// ChunkStoreInterface works: a plain ChunkStore or the sharded router
  /// (shard::ShardedChunkStore) behave identically here.
  static Result<std::unique_ptr<ObjectStore>> Open(
      chunk::ChunkStoreInterface* chunks,
      const ObjectStoreOptions& options = {});

  /// Class registration must precede reading any object of that class.
  ClassRegistry& registry() { return registry_; }

  /// The registered root object id, or kInvalidObjectId if none (§4.1:
  /// "the application can register a 'root' object id").
  Result<ObjectId> GetRoot();
  Status SetRoot(ObjectId oid);

  /// Additional named persistent roots. The collection store anchors its
  /// directory here; applications may register their own names too.
  /// Returns kInvalidObjectId when `name` is unset.
  Result<ObjectId> GetNamedRoot(const std::string& name);
  Status SetNamedRoot(const std::string& name, ObjectId oid);

  size_t cache_size_bytes() const { return cache_.size_bytes(); }
  chunk::ChunkStoreInterface* chunk_store() { return chunks_; }

  /// Transaction/locking tallies (see ObjectStoreStats). Reads the
  /// registry instruments; safe to call concurrently with transactions.
  ObjectStoreStats Stats() const;

  /// The registry shared with the underlying chunk store — one snapshot
  /// covers chunk, object, collection, and backup instruments.
  const std::shared_ptr<common::MetricsRegistry>& metrics() const {
    return chunks_->metrics();
  }

 private:
  friend class Transaction;
  friend class ReadTransaction;

  ObjectStore(chunk::ChunkStoreInterface* chunks,
              const ObjectStoreOptions& options);

  std::shared_ptr<internal::TxnState> BeginTxn();

  // Core of Open*(): lock, fetch into cache, pin; returns the cached
  // instance and hands back the pin, taken under the same mutex hold as
  // the lookup. The templated wrappers down-cast.
  Result<Object*> OpenInternal(internal::TxnState& txn, ObjectId oid,
                               bool writable, internal::Pin* pin);
  Result<ObjectId> InsertInternal(internal::TxnState& txn,
                                  std::unique_ptr<Object> object);
  Status RemoveInternal(internal::TxnState& txn, ObjectId oid);
  // The next id of `cls`'s block; a used-up block is replaced by the rest
  // of the next map leaf. Requires mutex_.
  ObjectId NextId(ClassId cls);
  Status CommitTxn(internal::TxnState& txn, bool durable);
  Status AbortTxn(internal::TxnState& txn);

  // Reads and unpickles a committed object, counting a cache miss (no
  // locking). Requires the state mutex.
  Result<std::unique_ptr<Object>> Fetch(ObjectId oid);
  // The one unpickle (class id, then the registered class's decoder),
  // timed into object.unpickle_us. The registry is read-only after
  // start-up registration, so read transactions call it concurrently.
  Result<std::unique_ptr<Object>> Unpickle(Slice data) const;

  // internal::Pin's copy and release: pin or unpin the entry of `oid`,
  // only while it still has `generation`. Take the state mutex.
  friend class internal::Pin;
  void Repin(ObjectId oid, uint64_t generation);
  void Unpin(ObjectId oid, uint64_t generation);

  // Registry-backed instruments, bound once at construction (against the
  // chunk store's registry) so transaction paths touch only the wait-free
  // instruments.
  struct Instruments {
    TDB_OBJECT_STORE_METRICS(TDB_METRIC_POINTER, TDB_METRIC_POINTER)
  };

  chunk::ChunkStoreInterface* chunks_;
  ObjectStoreOptions options_;
  ClassRegistry registry_;
  Instruments m_;

  std::mutex mutex_;  // The "state mutex" of §4.2.3.
  LockManager locks_;
  ObjectCache cache_;
  std::atomic<TxnId> next_txn_id_{1};
  ObjectId header_cid_ = kInvalidObjectId;
  ObjectId root_oid_ = kInvalidObjectId;
  std::map<std::string, ObjectId> named_roots_;
  // Each class's current id block [next, end), held in memory only: a
  // reopen abandons what is left of it.
  struct IdBlock {
    ObjectId next = 0;
    ObjectId end = 0;
  };
  std::unordered_map<ClassId, IdBlock> id_blocks_;

  // Serializes and durably writes the header chunk. Requires mutex_.
  Status WriteHeader();
};

// ---------------------------------------------------------------------------
// Template implementations.

template <typename T>
Result<ReadonlyRef<T>> Transaction::OpenReadonly(ObjectId oid) {
  internal::Pin pin;
  TDB_ASSIGN_OR_RETURN(Object* obj, OpenUntyped(oid, false, &pin));
  const T* typed = dynamic_cast<const T*>(obj);
  // `pin` unpins on return: a failed down-cast must not leak the pin.
  if (typed == nullptr) return internal::NotOfRequestedClass(oid);
  return ReadonlyRef<T>(state_, oid, typed, std::move(pin));
}

template <typename T>
Result<WritableRef<T>> Transaction::OpenWritable(ObjectId oid) {
  internal::Pin pin;
  TDB_ASSIGN_OR_RETURN(Object* obj, OpenUntyped(oid, true, &pin));
  T* typed = dynamic_cast<T*>(obj);
  if (typed == nullptr) return internal::NotOfRequestedClass(oid);
  return WritableRef<T>(state_, oid, typed, std::move(pin));
}

template <typename T>
Result<ReadonlyRef<T>> ReadTransaction::Open(ObjectId oid) {
  TDB_ASSIGN_OR_RETURN(const Object* obj, OpenInternal(oid));
  const T* typed = dynamic_cast<const T*>(obj);
  if (typed == nullptr) return internal::NotOfRequestedClass(oid);
  // No cache pin: the instance is transaction-private and owned by
  // objects_, which outlives every ref (refs die when state_->active
  // flips at End()).
  return ReadonlyRef<T>(state_, oid, typed, internal::Pin());
}

template <typename T>
Result<std::unique_ptr<T>> ReadTransaction::Take(ObjectId oid) {
  TDB_ASSIGN_OR_RETURN(std::unique_ptr<Object> obj, TakeInternal(oid));
  if (dynamic_cast<T*>(obj.get()) == nullptr) {
    return internal::NotOfRequestedClass(oid);
  }
  return std::unique_ptr<T>(static_cast<T*>(obj.release()));
}

}  // namespace tdb::object

#endif  // TDB_OBJECT_OBJECT_STORE_H_
