#include "object/object_store.h"

#include <algorithm>

#include "common/trace.h"

namespace tdb::object {

namespace {
constexpr uint32_t kHeaderMagic = 0x54445242;  // "TDRB" — root registry.
// Entries a transaction's object list starts with room for (a TPC-B
// transaction touches about eight), and the unsorted tail it tolerates
// before merging it into the sorted prefix.
constexpr size_t kTxnObjectsReserve = 16;
constexpr size_t kTxnObjectsTail = 32;
// Pickle buffers start with room for a typical object, so pickling one
// does not regrow the buffer byte by byte.
constexpr size_t kPickleReserve = 256;
// Ids a class takes at a time: one location-map leaf at the default
// fanout, so a leaf holds the objects of one class (DESIGN.md, "Object id
// layout").
constexpr ObjectId kIdBlock = chunk::kDefaultMapFanout;
}  // namespace

// ---------------------------------------------------------------------------
// internal::TxnObjects, internal::Pin

namespace internal {

const TxnObjects::Entry* TxnObjects::Find(ObjectId oid) const {
  auto less = [](const Entry& e, ObjectId id) { return e.oid < id; };
  auto sorted_end = entries_.begin() + static_cast<ptrdiff_t>(sorted_);
  auto it = std::lower_bound(entries_.begin(), sorted_end, oid, less);
  if (it != sorted_end && it->oid == oid) return &*it;
  for (auto t = sorted_end; t != entries_.end(); ++t) {
    if (t->oid == oid) return &*t;
  }
  return nullptr;
}

void TxnObjects::Add(ObjectId oid, uint8_t flag) {
  if (Entry* e = Find(oid)) {
    e->flags |= flag;
    return;
  }
  if (entries_.empty()) entries_.reserve(kTxnObjectsReserve);
  entries_.push_back(Entry{oid, flag});
  if (entries_.size() - sorted_ > kTxnObjectsTail) Merge();
}

void TxnObjects::Merge() {
  auto by_id = [](const Entry& a, const Entry& b) { return a.oid < b.oid; };
  auto mid = entries_.begin() + static_cast<ptrdiff_t>(sorted_);
  std::sort(mid, entries_.end(), by_id);
  std::inplace_merge(entries_.begin(), mid, entries_.end(), by_id);
  sorted_ = entries_.size();
}

const std::vector<TxnObjects::Entry>& TxnObjects::Sorted() {
  if (sorted_ != entries_.size()) Merge();
  return entries_;
}

Pin::Pin(const Pin& other)
    : store_(other.store_), oid_(other.oid_),
      generation_(other.generation_) {
  if (store_ != nullptr) store_->Repin(oid_, generation_);
}

void Pin::Release() {
  if (store_ != nullptr) store_->Unpin(oid_, generation_);
  store_ = nullptr;
}

Status NotOfRequestedClass(ObjectId oid) {
  return Status::TypeMismatch("object " + std::to_string(oid) +
                              " is not of the requested class");
}

}  // namespace internal

// ---------------------------------------------------------------------------
// Transaction

Transaction::Transaction(ObjectStore* store) : store_(store) {
  state_ = store->BeginTxn();
}

Transaction::~Transaction() {
  if (active()) Abort().ok();
}

Result<ObjectId> Transaction::Insert(std::unique_ptr<Object> object) {
  if (!active()) return Status::TransactionInvalid("transaction ended");
  if (object == nullptr) return Status::InvalidArgument("null object");
  return store_->InsertInternal(*state_, std::move(object));
}

Result<Object*> Transaction::OpenUntyped(ObjectId oid, bool writable,
                                         internal::Pin* pin) {
  if (!active()) return Status::TransactionInvalid("transaction ended");
  return store_->OpenInternal(*state_, oid, writable, pin);
}

Status Transaction::Remove(ObjectId oid) {
  if (!active()) return Status::TransactionInvalid("transaction ended");
  return store_->RemoveInternal(*state_, oid);
}

Status Transaction::Commit(bool durable) {
  if (!active()) return Status::TransactionInvalid("transaction ended");
  return store_->CommitTxn(*state_, durable);
}

Status Transaction::Abort() {
  if (!active()) return Status::TransactionInvalid("transaction ended");
  return store_->AbortTxn(*state_);
}

// ---------------------------------------------------------------------------
// ReadTransaction

ReadTransaction::ReadTransaction(ObjectStore* store) : store_(store) {
  // Pinning the view is the ONLY store interaction: no LockManager call,
  // no state-mutex acquisition, here or on any later Open/Prefetch.
  auto view = store->chunks_->PinView();
  if (!view.ok()) return;  // Store closed: stay inactive, every Open fails.
  view_ = std::move(view).value();
  state_ = std::make_shared<internal::TxnState>();
  state_->id = store->next_txn_id_.fetch_add(1);
  state_->active = true;
  store->m_.read_txns_begun->Increment();
}

ReadTransaction::~ReadTransaction() { End(); }

void ReadTransaction::End() {
  if (state_ != nullptr) state_->active = false;
  // Dropping the shared_ptr unpins the chunk-store view (the cleaner's
  // snapshot registry holds weak_ptrs) and releases any unpersisted map
  // nodes the view kept alive.
  view_.reset();
  objects_.clear();
}

Result<std::shared_ptr<const Buffer>> ReadTransaction::ReadRecord(
    ObjectId oid) {
  if (oid == kInvalidObjectId || oid == store_->header_cid_) {
    return Status::InvalidArgument("invalid object id");
  }
  // Zero-copy at steady state: a warm-cache hit is one lookup plus a
  // refcount bump; the bytes are unpickled straight out of the cache's
  // immutable payload.
  return store_->chunks_->ReadAtViewShared(*view_, oid);
}

Result<const Object*> ReadTransaction::OpenInternal(ObjectId oid) {
  if (!active()) return Status::TransactionInvalid("read transaction ended");
  auto it = objects_.find(oid);
  if (it != objects_.end()) return it->second.get();
  TDB_ASSIGN_OR_RETURN(std::shared_ptr<const Buffer> data, ReadRecord(oid));
  return UnpickleInto(oid, Slice(*data));
}

Result<const Object*> ReadTransaction::UnpickleInto(ObjectId oid, Slice data) {
  TDB_ASSIGN_OR_RETURN(std::unique_ptr<Object> object,
                       store_->Unpickle(data));
  const Object* raw = object.get();
  objects_[oid] = std::move(object);
  return raw;
}

Result<std::unique_ptr<Object>> ReadTransaction::TakeInternal(ObjectId oid) {
  if (!active()) return Status::TransactionInvalid("read transaction ended");
  TDB_ASSIGN_OR_RETURN(std::shared_ptr<const Buffer> data, ReadRecord(oid));
  return store_->Unpickle(Slice(*data));
}

Status ReadTransaction::Prefetch(const std::vector<ObjectId>& oids) {
  if (!active()) return Status::TransactionInvalid("read transaction ended");
  std::vector<ObjectId> missing;
  missing.reserve(oids.size());
  for (ObjectId oid : oids) {
    if (oid == kInvalidObjectId || oid == store_->header_cid_) {
      return Status::InvalidArgument("invalid object id");
    }
    if (objects_.find(oid) == objects_.end()) missing.push_back(oid);
  }
  if (missing.empty()) return Status::OK();
  TDB_ASSIGN_OR_RETURN(std::vector<Buffer> records,
                       store_->chunks_->ReadManyAtView(*view_, missing));
  for (size_t i = 0; i < missing.size(); i++) {
    TDB_RETURN_IF_ERROR(
        UnpickleInto(missing[i], Slice(records[i])).status());
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// ObjectStore

ObjectStore::ObjectStore(chunk::ChunkStoreInterface* chunks,
                         const ObjectStoreOptions& options)
    : chunks_(chunks),
      options_(options),
      cache_(options.cache_capacity_bytes) {
  common::MetricsRegistry* r = chunks_->metrics().get();
#define TDB_BIND(kind, member, name) m_.member = r->Get##kind(name);
  TDB_OBJECT_STORE_METRICS(TDB_BIND, TDB_BIND)
#undef TDB_BIND
  cache_.AttachMetrics(m_.cache_hits, m_.cache_misses, m_.cache_evictions,
                       m_.cache_bytes_used);
  locks_.AttachMetrics(m_.lock_acquisitions, m_.lock_waits, m_.lock_timeouts,
                       m_.lock_wait_us);
}

ObjectStoreStats ObjectStore::Stats() const {
  ObjectStoreStats s;
#define TDB_READ(kind, member, name) \
  s.member = static_cast<uint64_t>(m_.member->value());
  TDB_OBJECT_STORE_METRICS(TDB_READ, TDB_METRIC_NONE)
#undef TDB_READ
  return s;
}

Result<std::unique_ptr<ObjectStore>> ObjectStore::Open(
    chunk::ChunkStoreInterface* chunks, const ObjectStoreOptions& options) {
  std::unique_ptr<ObjectStore> store(new ObjectStore(chunks, options));
  if (chunks->next_chunk_id() == 1) {
    // Virgin chunk store: claim chunk 1 as the object-store header.
    store->header_cid_ = chunks->AllocateChunkId();
    if (store->header_cid_ != 1) {
      return Status::InvalidArgument(
          "object store requires a virgin or object-store-managed chunk "
          "store");
    }
    TDB_RETURN_IF_ERROR(store->WriteHeader());
  } else {
    store->header_cid_ = 1;
    TDB_ASSIGN_OR_RETURN(Buffer header, chunks->Read(store->header_cid_));
    Unpickler unpickler{Slice(header)};
    uint32_t magic;
    uint64_t root;
    TDB_RETURN_IF_ERROR(unpickler.GetUint32(&magic));
    TDB_RETURN_IF_ERROR(unpickler.GetUint64(&root));
    if (magic != kHeaderMagic) {
      return Status::Corruption("chunk 1 is not an object-store header");
    }
    store->root_oid_ = root;
    uint64_t n_named;
    TDB_RETURN_IF_ERROR(unpickler.GetUint64(&n_named));
    for (uint64_t i = 0; i < n_named; i++) {
      std::string name;
      uint64_t oid;
      TDB_RETURN_IF_ERROR(unpickler.GetString(&name));
      TDB_RETURN_IF_ERROR(unpickler.GetUint64(&oid));
      store->named_roots_[name] = oid;
    }
  }
  return store;
}

Status ObjectStore::WriteHeader() {
  Pickler pickler;
  pickler.PutUint32(kHeaderMagic);
  pickler.PutUint64(root_oid_);
  pickler.PutUint64(named_roots_.size());
  for (const auto& [name, oid] : named_roots_) {
    pickler.PutString(name);
    pickler.PutUint64(oid);
  }
  return chunks_->Write(header_cid_, pickler.buffer(), true);
}

Result<ObjectId> ObjectStore::GetRoot() {
  std::lock_guard<std::mutex> lock(mutex_);
  return root_oid_;
}

Status ObjectStore::SetRoot(ObjectId oid) {
  std::lock_guard<std::mutex> lock(mutex_);
  ObjectId previous = root_oid_;
  root_oid_ = oid;
  Status s = WriteHeader();
  if (!s.ok()) root_oid_ = previous;
  return s;
}

Result<ObjectId> ObjectStore::GetNamedRoot(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = named_roots_.find(name);
  return it == named_roots_.end() ? kInvalidObjectId : it->second;
}

Status ObjectStore::SetNamedRoot(const std::string& name, ObjectId oid) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = named_roots_.find(name);
  std::optional<ObjectId> previous;
  if (it != named_roots_.end()) previous = it->second;
  named_roots_[name] = oid;
  Status s = WriteHeader();
  if (!s.ok()) {
    if (previous.has_value()) {
      named_roots_[name] = *previous;
    } else {
      named_roots_.erase(name);
    }
  }
  return s;
}

std::shared_ptr<internal::TxnState> ObjectStore::BeginTxn() {
  auto state = std::make_shared<internal::TxnState>();
  state->id = next_txn_id_.fetch_add(1);
  state->active = true;
  m_.txns_begun->Increment();
  return state;
}

Result<std::unique_ptr<Object>> ObjectStore::Fetch(ObjectId oid) {
  TDB_ASSIGN_OR_RETURN(Buffer data, chunks_->Read(oid));
  cache_.CountMiss();
  return Unpickle(Slice(data));
}

Result<std::unique_ptr<Object>> ObjectStore::Unpickle(Slice data) const {
  common::ScopedTimer timer(chunks_->metrics().get(), m_.unpickle_us);
  Unpickler unpickler{data};
  uint32_t class_id;
  TDB_RETURN_IF_ERROR(unpickler.GetUint32(&class_id));
  return registry_.Unpickle(class_id, &unpickler);
}

Result<Object*> ObjectStore::OpenInternal(internal::TxnState& txn,
                                          ObjectId oid, bool writable,
                                          internal::Pin* pin) {
  if (oid == kInvalidObjectId || oid == header_cid_) {
    return Status::InvalidArgument("invalid object id");
  }
  std::unique_lock<std::mutex> lock(mutex_);
  if (txn.objects.Has(oid, internal::TxnObjects::kRemoved)) {
    return Status::NotFound("object removed in this transaction");
  }
  if (options_.locking_enabled) {
    Status locked =
        locks_.Lock(txn.id, oid, writable, lock, options_.lock_timeout);
    if (!locked.ok()) {
      if (locked.IsLockTimeout()) txn.hit_lock_timeout = true;
      return locked;
    }
  }
  // Pin (and, for a write, dirty) the entry in the same probe that finds
  // it, and record its generation under the same mutex hold, so the
  // generation the pin releases is the generation that was pinned (an
  // abort may Erase + re-Put this oid the moment the mutex drops).
  uint64_t pin_generation = 0;
  Object* obj = cache_.Acquire(oid, writable, &pin_generation);
  if (obj == nullptr) {
    TDB_ASSIGN_OR_RETURN(std::unique_ptr<Object> fetched, Fetch(oid));
    obj = cache_.Put(oid, std::move(fetched), writable, &pin_generation);
  }
  if (writable) txn.objects.Add(oid, internal::TxnObjects::kWritten);
  *pin = internal::Pin(this, oid, pin_generation);
  cache_.EnforceCapacity();
  return obj;
}

void ObjectStore::Repin(ObjectId oid, uint64_t generation) {
  std::lock_guard<std::mutex> lock(mutex_);
  cache_.Repin(oid, generation);
}

void ObjectStore::Unpin(ObjectId oid, uint64_t generation) {
  std::lock_guard<std::mutex> lock(mutex_);
  cache_.Unpin(oid, generation);
}

Result<ObjectId> ObjectStore::InsertInternal(internal::TxnState& txn,
                                             std::unique_ptr<Object> object) {
  std::unique_lock<std::mutex> lock(mutex_);
  if (!registry_.IsRegistered(object->class_id())) {
    return Status::InvalidArgument("class " +
                                   std::to_string(object->class_id()) +
                                   " not registered");
  }
  ObjectId oid = NextId(object->class_id());
  if (options_.locking_enabled) {
    // A fresh id is uncontended; the lock still must be recorded so it is
    // held until transaction end.
    Status locked = locks_.Lock(txn.id, oid, /*exclusive=*/true, lock,
                                options_.lock_timeout);
    if (!locked.ok()) {
      if (locked.IsLockTimeout()) txn.hit_lock_timeout = true;
      return locked;
    }
  }
  cache_.Put(oid, std::move(object), /*dirty=*/true);
  txn.objects.Add(oid, internal::TxnObjects::kWritten |
                           internal::TxnObjects::kInserted);
  return oid;
}

ObjectId ObjectStore::NextId(ClassId cls) {
  IdBlock& block = id_blocks_[cls];
  if (block.next == block.end) {
    // Claim the rest of the leaf the next id falls in: all of it once
    // every class allocates in blocks, its tail after open.
    const ObjectId first = chunks_->AllocateChunkId();
    const ObjectId end = first - first % kIdBlock + kIdBlock;
    for (ObjectId id = first + 1; id < end; id++) chunks_->AllocateChunkId();
    block = {first, end};
  }
  return block.next++;
}

Status ObjectStore::RemoveInternal(internal::TxnState& txn, ObjectId oid) {
  if (oid == kInvalidObjectId || oid == header_cid_) {
    return Status::InvalidArgument("invalid object id");
  }
  std::unique_lock<std::mutex> lock(mutex_);
  if (txn.objects.Has(oid, internal::TxnObjects::kRemoved)) {
    return Status::NotFound("object already removed in this transaction");
  }
  if (options_.locking_enabled) {
    Status locked = locks_.Lock(txn.id, oid, /*exclusive=*/true, lock,
                                options_.lock_timeout);
    if (!locked.ok()) {
      if (locked.IsLockTimeout()) txn.hit_lock_timeout = true;
      return locked;
    }
  }
  // The object must exist: in cache (possibly inserted by this txn) or in
  // the chunk store.
  if (!cache_.Contains(oid)) {
    Status exists = chunks_->Read(oid).status();
    if (!exists.ok()) return exists;
  }
  txn.objects.Add(oid, internal::TxnObjects::kRemoved);
  return Status::OK();
}

Status ObjectStore::CommitTxn(internal::TxnState& txn, bool durable) {
  common::TraceSpan span("txn.commit");
  common::ScopedTimer timer(chunks_->metrics().get(), m_.commit_latency_us);
  std::unique_lock<std::mutex> lock(mutex_);

  using internal::TxnObjects;
  const std::vector<TxnObjects::Entry>& objects = txn.objects.Sorted();
  chunk::WriteBatch batch;
  batch.Reserve(objects.size());
  int64_t pickled = 0;
  for (const TxnObjects::Entry& e : objects) {
    if ((e.flags & TxnObjects::kWritten) == 0 ||
        (e.flags & TxnObjects::kRemoved) != 0) {
      continue;
    }
    Object* obj = cache_.Get(e.oid);
    TDB_CHECK(obj != nullptr, "dirty object missing from cache");
    Pickler pickler(kPickleReserve);
    pickler.PutUint32(obj->class_id());
    obj->Pickle(&pickler);
    pickled += static_cast<int64_t>(pickler.buffer().size());
    batch.Write(e.oid, pickler.Take());
  }
  for (const TxnObjects::Entry& e : objects) {
    // Objects inserted and removed within this txn never reached the
    // chunk store; there is nothing to deallocate.
    if ((e.flags & TxnObjects::kRemoved) != 0 &&
        (e.flags & TxnObjects::kInserted) == 0) {
      batch.Deallocate(e.oid);
    }
  }

  chunk::CommitHandle handle;
  if (!batch.empty() || durable) {
    // Stage 1: buffer the batch into the chunk store's commit group,
    // OUTSIDE the store mutex. The chunk layer is internally thread-safe,
    // and over a sharded router a multi-shard batch runs its entire
    // synchronous 2PC (several durable shard syncs) inside CommitBuffered —
    // holding mutex_ across that would stall every unrelated transaction
    // on this store for the whole coordination window. Serialization is
    // carried by the 2PL locks instead: they are still held here and are
    // released only after buffering succeeds, so a conflicting transaction
    // cannot buffer ahead of this one. (The transaction's pickled state
    // can't change meanwhile: its objects are exclusively locked and
    // pinned, so the cache will neither mutate nor evict them.)
    //
    // Once buffering succeeds the serialization order is fixed (the writes
    // are in the log buffer and the in-memory map), so the locks CAN be
    // released before waiting on durability — early lock release.
    // Conflicting transactions that then read this data are serialized
    // after it; they cannot ack durably before it because their own
    // durable commit waits on the same (or a later) group flush. §4.1's
    // contract is preserved: the caller is acked only after WaitDurable,
    // i.e. after the covering sync + counter bump.
    lock.unlock();
    auto buffered = chunks_->CommitBuffered(batch, durable);
    if (!buffered.ok()) {
      // The transaction cannot be partially applied; roll it back so the
      // caller sees a clean failure.
      AbortTxn(txn).ok();
      return buffered.status();
    }
    handle = std::move(buffered).value();
    lock.lock();
  }

  for (const TxnObjects::Entry& e : objects) {
    if ((e.flags & TxnObjects::kRemoved) != 0) {
      cache_.Erase(e.oid);
    } else if ((e.flags & TxnObjects::kWritten) != 0) {
      cache_.SetDirty(e.oid, false);
    }
  }

  txn.active = false;
  locks_.ReleaseAll(txn.id);
  cache_.EnforceCapacity();
  m_.commits->Increment();
  if (durable) m_.durable_commits->Increment();
  if (pickled > 0) m_.pickle_bytes->Add(pickled);
  lock.unlock();

  // Stage 2, outside the state mutex: block on the group flush (or, for a
  // nondurable commit, just run deferred chunk-store maintenance). Other
  // transactions proceed against this store meanwhile. On durability
  // failure the transaction is already torn down locally; the error is a
  // faithful "not durable" report (never a silent acceptance). The
  // deviation from strict 2PL-until-ack is documented in DESIGN.md.
  if (handle.valid()) {
    // Traced separately from txn.commit so the causal tree splits "doing
    // the transaction's own work" from "waiting for the group to sync"
    // (the wait's children are the follower-wait / mirrored leader spans
    // recorded by the chunk layer).
    common::TraceSpan wait_span("txn.durable_wait");
    TDB_RETURN_IF_ERROR(chunks_->WaitDurable(handle));
  }
  return Status::OK();
}

Status ObjectStore::AbortTxn(internal::TxnState& txn) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!txn.active) return Status::TransactionInvalid("transaction ended");
  // Evict instances the transaction dirtied; the committed state will be
  // re-fetched from the chunk store on next access (§4.2.3).
  for (const internal::TxnObjects::Entry& e : txn.objects.Sorted()) {
    if ((e.flags & internal::TxnObjects::kWritten) != 0) cache_.Erase(e.oid);
  }
  txn.active = false;
  locks_.ReleaseAll(txn.id);
  m_.aborts->Increment();
  if (txn.hit_lock_timeout) m_.deadlock_aborts->Increment();
  return Status::OK();
}

}  // namespace tdb::object
