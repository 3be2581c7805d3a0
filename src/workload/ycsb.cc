#include "workload/ycsb.h"

#include <algorithm>
#include <string>
#include <utility>

#include "collection/indexer.h"
#include "collection/key.h"
#include "common/check.h"

namespace tdb::workload {

namespace {

constexpr const char* kCollectionName = "ycsb";
constexpr const char* kIndexName = "by-key";
constexpr const char* kDirectoryRoot = "ycsb-dir";
constexpr int kMaxRetries = 1000;

std::shared_ptr<collection::GenericIndexer> MakeYcsbIndexer() {
  return std::make_shared<
      collection::Indexer<YcsbRecord, collection::IntKey>>(
      kIndexName, collection::Uniqueness::kUnique,
      collection::IndexKind::kBTree,
      [](const YcsbRecord& rec) {
        return collection::IntKey(static_cast<int64_t>(rec.key()));
      },
      collection::KeyMutability::kImmutable);
}

}  // namespace

const char* MixName(Mix mix) {
  switch (mix) {
    case Mix::kA: return "A";
    case Mix::kB: return "B";
    case Mix::kC: return "C";
    case Mix::kD: return "D";
    case Mix::kE: return "E";
    case Mix::kF: return "F";
  }
  return "?";
}

Mix MixFromIndex(uint64_t index) {
  return static_cast<Mix>(index % kMixCount);
}

Status RegisterYcsbClasses(object::ObjectStore* os) {
  TDB_RETURN_IF_ERROR(
      os->registry().Register<YcsbRecord>(YcsbRecord::kClassId));
  return os->registry().Register<YcsbDirectory>(YcsbDirectory::kClassId);
}

// ---------------------------------------------------------------------------
// YcsbDriver

struct YcsbDriver::Stream {
  Random rng;
  ScrambledZipfianChooser zipf;
  LatestChooser latest;

  Stream(uint64_t seed, uint64_t n, double theta)
      : rng(seed), zipf(n, theta), latest(n, theta) {}
};

YcsbDriver::~YcsbDriver() = default;

YcsbDriver::YcsbDriver(object::ObjectStore* objects,
                       collection::CollectionStore* collections,
                       const YcsbSpec& spec)
    : objects_(objects),
      collections_(collections),
      spec_(spec),
      capacity_(spec.records +
                (spec.max_inserts != 0 ? spec.max_inserts : spec.ops)) {
  oids_.assign(capacity_, object::kInvalidObjectId);
  registry_ = objects_->metrics().get();
  const std::string prefix = std::string("workload.") + MixName(spec_.mix);
  read_us_ = registry_->GetHistogram(prefix + ".read_us");
  update_us_ = registry_->GetHistogram(prefix + ".update_us");
  insert_us_ = registry_->GetHistogram(prefix + ".insert_us");
  scan_us_ = registry_->GetHistogram(prefix + ".scan_us");
  rmw_us_ = registry_->GetHistogram(prefix + ".rmw_us");
  ops_ = registry_->GetCounter(prefix + ".ops");
  retries_ = registry_->GetCounter(prefix + ".retries");
  insert_skips_ = registry_->GetCounter(prefix + ".insert_skips");
}

Result<std::unique_ptr<YcsbDriver>> YcsbDriver::Open(
    object::ObjectStore* objects, collection::CollectionStore* collections,
    const YcsbSpec& spec, bool create, CommitHook* hook) {
  if (spec.mix == Mix::kE && collections == nullptr) {
    return Status::InvalidArgument("mix E needs a collection store");
  }
  std::unique_ptr<YcsbDriver> driver(
      new YcsbDriver(objects, collections, spec));
  if (driver->use_collection()) {
    driver->indexer_ = MakeYcsbIndexer();
    TDB_RETURN_IF_ERROR(
        collections->RegisterIndexer(kCollectionName, driver->indexer_));
  }
  if (create) {
    TDB_RETURN_IF_ERROR(driver->Load(hook));
  } else {
    TDB_RETURN_IF_ERROR(driver->Attach());
  }
  return driver;
}

Status YcsbDriver::Load(CommitHook* hook) {
  Random rng(spec_.seed * 0x9E3779B97F4A7C15ull + 1);
  if (hook != nullptr) hook->BeginCommit();
  Status status;
  if (use_collection()) {
    collection::CTransaction ct(collections_);
    Result<object::WritableRef<collection::Collection>> coll =
        ct.CreateCollection(kCollectionName, indexer_);
    if (!coll.ok()) {
      if (hook != nullptr) hook->EndCommit(false, true);
      return coll.status();
    }
    for (uint64_t key = 0; key < spec_.records; key++) {
      Buffer payload = ValuePayload(rng.Next(), spec_.value_bytes);
      Result<object::ObjectId> inserted = coll.value()->Insert(
          &ct, std::make_unique<YcsbRecord>(key, payload));
      if (!inserted.ok()) {
        if (hook != nullptr) hook->EndCommit(false, true);
        return inserted.status();
      }
      oids_[key] = inserted.value();
      if (hook != nullptr) {
        hook->PendingWrite(key, KeyedImage(key, payload));
      }
    }
    status = ct.Commit(true);
  } else {
    object::Transaction txn(objects_);
    auto directory = std::make_unique<YcsbDirectory>();
    for (uint64_t key = 0; key < spec_.records; key++) {
      Buffer payload = ValuePayload(rng.Next(), spec_.value_bytes);
      Result<object::ObjectId> inserted =
          txn.Insert(std::make_unique<YcsbRecord>(key, payload));
      if (!inserted.ok()) {
        if (hook != nullptr) hook->EndCommit(false, true);
        return inserted.status();
      }
      oids_[key] = inserted.value();
      directory->Append(key, inserted.value());
      if (hook != nullptr) {
        hook->PendingWrite(key, KeyedImage(key, payload));
      }
    }
    Result<object::ObjectId> dir = txn.Insert(std::move(directory));
    if (!dir.ok()) {
      if (hook != nullptr) hook->EndCommit(false, true);
      return dir.status();
    }
    directory_oid_ = dir.value();
    // Anchor the directory BEFORE the commit: if the root write survives a
    // crash but the commit does not, the root points at a missing object
    // and Attach/Scan correctly see an empty table (boundary 0).
    Status anchored = objects_->SetNamedRoot(kDirectoryRoot, directory_oid_);
    if (!anchored.ok()) {
      if (hook != nullptr) hook->EndCommit(false, true);
      return anchored;
    }
    status = txn.Commit(true);
  }
  if (hook != nullptr) hook->EndCommit(status.ok(), true);
  TDB_RETURN_IF_ERROR(status);
  reserved_ = spec_.records;
  live_.store(spec_.records, std::memory_order_release);
  return Status::OK();
}

Status YcsbDriver::Attach() {
  if (use_collection()) {
    std::map<uint64_t, Buffer> state;
    TDB_RETURN_IF_ERROR(Scan(&state));
    uint64_t count = state.size();
    reserved_ = count;
    live_.store(count, std::memory_order_release);
    return Status::OK();
  }
  TDB_ASSIGN_OR_RETURN(object::ObjectId dir_oid,
                       objects_->GetNamedRoot(kDirectoryRoot));
  if (dir_oid == object::kInvalidObjectId) return Status::OK();  // Empty.
  object::ReadTransaction txn(objects_);
  Result<std::unique_ptr<YcsbDirectory>> directory =
      txn.Take<YcsbDirectory>(dir_oid);
  if (!directory.ok()) {
    // Root anchored but the directory commit never landed: empty table.
    if (directory.status().IsNotFound()) return Status::OK();
    return directory.status();
  }
  directory_oid_ = dir_oid;
  uint64_t contiguous = 0;
  for (const YcsbDirectory::Entry& entry : directory.value()->entries()) {
    if (entry.key >= capacity_) {
      return Status::Corruption("directory key beyond driver capacity");
    }
    oids_[entry.key] = entry.oid;
  }
  while (contiguous < capacity_ &&
         oids_[contiguous] != object::kInvalidObjectId) {
    contiguous++;
  }
  reserved_ = contiguous;
  live_.store(contiguous, std::memory_order_release);
  return Status::OK();
}

object::ObjectId YcsbDriver::OidForKey(uint64_t key) const {
  TDB_DCHECK(key < capacity_, "key out of range");
  return oids_[key];
}

YcsbDriver::Stream* YcsbDriver::GetStream(uint64_t stream_id) {
  std::lock_guard<std::mutex> lock(streams_mutex_);
  auto it = streams_.find(stream_id);
  if (it != streams_.end()) return it->second.get();
  uint64_t n = std::max<uint64_t>(1, live_.load(std::memory_order_acquire));
  auto stream = std::make_unique<Stream>(
      spec_.seed * 0x2545F4914F6CDD1Dull + stream_id * 0x9E3779B9ull + 17, n,
      spec_.theta);
  Stream* raw = stream.get();
  streams_[stream_id] = std::move(stream);
  return raw;
}

OpKind YcsbDriver::PickOp(Stream* stream) const {
  const uint64_t u = stream->rng.Uniform(100);
  switch (spec_.mix) {
    case Mix::kA: return u < 50 ? OpKind::kRead : OpKind::kUpdate;
    case Mix::kB: return u < 95 ? OpKind::kRead : OpKind::kUpdate;
    case Mix::kC: return OpKind::kRead;
    case Mix::kD: return u < 95 ? OpKind::kRead : OpKind::kInsert;
    case Mix::kE: return u < 95 ? OpKind::kScan : OpKind::kInsert;
    case Mix::kF: return u < 50 ? OpKind::kRead : OpKind::kReadModifyWrite;
  }
  return OpKind::kRead;
}

uint64_t YcsbDriver::PickKey(Stream* stream) const {
  const uint64_t live = live_.load(std::memory_order_acquire);
  if (spec_.mix == Mix::kD) {
    stream->latest.Grow(live);
    return stream->latest.Next(&stream->rng, live);
  }
  stream->zipf.Grow(live);
  uint64_t key = stream->zipf.Next(&stream->rng);
  return key < live ? key : key % live;
}

Status YcsbDriver::Run(uint64_t stream, CommitHook* hook) {
  return RunOps(stream, spec_.ops, hook);
}

Status YcsbDriver::RunOps(uint64_t stream_id, uint64_t count,
                          CommitHook* hook) {
  Stream* stream = GetStream(stream_id);
  for (uint64_t i = 0; i < count; i++) {
    TDB_RETURN_IF_ERROR(RunOne(stream, hook));
  }
  return Status::OK();
}

Status YcsbDriver::RunOne(Stream* stream, CommitHook* hook) {
  ops_->Increment();
  OpKind op = PickOp(stream);
  const uint64_t live = live_.load(std::memory_order_acquire);
  if (live == 0 && op != OpKind::kInsert) {
    // Nothing to read yet: only inserts are meaningful.
    if (spec_.mix != Mix::kD && spec_.mix != Mix::kE) return Status::OK();
    op = OpKind::kInsert;
  }
  switch (op) {
    case OpKind::kRead: {
      common::ScopedTimer timer(registry_, read_us_);
      return DoRead(stream, PickKey(stream));
    }
    case OpKind::kUpdate: {
      common::ScopedTimer timer(registry_, update_us_);
      return DoUpdate(stream, PickKey(stream), hook);
    }
    case OpKind::kInsert: {
      bool out_of_room = false;
      {
        common::ScopedTimer timer(registry_, insert_us_);
        TDB_RETURN_IF_ERROR(DoInsert(stream, hook, &out_of_room));
      }
      if (out_of_room) {
        insert_skips_->Increment();
        if (live_.load(std::memory_order_acquire) == 0) return Status::OK();
        if (use_collection()) {
          common::ScopedTimer timer(registry_, scan_us_);
          return DoScan(stream, PickKey(stream));
        }
        common::ScopedTimer timer(registry_, read_us_);
        return DoRead(stream, PickKey(stream));
      }
      return Status::OK();
    }
    case OpKind::kScan: {
      common::ScopedTimer timer(registry_, scan_us_);
      return DoScan(stream, PickKey(stream));
    }
    case OpKind::kReadModifyWrite: {
      common::ScopedTimer timer(registry_, rmw_us_);
      return DoRmw(stream, PickKey(stream), hook);
    }
  }
  return Status::OK();
}

Status YcsbDriver::DoRead(Stream* stream, uint64_t key) {
  (void)stream;
  object::ReadTransaction txn(objects_);
  TDB_ASSIGN_OR_RETURN(object::ReadonlyRef<YcsbRecord> rec,
                       txn.Open<YcsbRecord>(OidForKey(key)));
  if (rec->key() != key) {
    return Status::Corruption("record key mismatch: directory says " +
                              std::to_string(key) + ", record says " +
                              std::to_string(rec->key()));
  }
  return Status::OK();
}

Status YcsbDriver::DoUpdate(Stream* stream, uint64_t key, CommitHook* hook) {
  const uint64_t payload_seed = stream->rng.Next();
  const bool durable = stream->rng.Bernoulli(spec_.p_durable);
  Buffer payload = ValuePayload(payload_seed, spec_.value_bytes);
  for (int attempt = 0; attempt < kMaxRetries; attempt++) {
    if (hook != nullptr) hook->BeginCommit();
    object::Transaction txn(objects_);
    Result<object::WritableRef<YcsbRecord>> rec =
        txn.OpenWritable<YcsbRecord>(OidForKey(key));
    Status status = rec.ok() ? Status::OK() : rec.status();
    if (status.ok()) {
      rec.value()->set_bytes(payload);
      if (hook != nullptr) {
        hook->PendingWrite(key, KeyedImage(key, payload));
      }
      status = txn.Commit(durable);
    }
    if (hook != nullptr) hook->EndCommit(status.ok(), durable);
    if (status.IsLockTimeout()) {
      retries_->Increment();
      continue;
    }
    return status;
  }
  return Status::LockTimeout("update retries exhausted");
}

Status YcsbDriver::DoInsert(Stream* stream, CommitHook* hook,
                            bool* out_of_room) {
  uint64_t key = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (reserved_ >= capacity_) {
      *out_of_room = true;
      return Status::OK();
    }
    key = reserved_++;
  }
  const uint64_t payload_seed = stream->rng.Next();
  const bool durable = stream->rng.Bernoulli(spec_.p_durable);
  Buffer payload = ValuePayload(payload_seed, spec_.value_bytes);
  for (int attempt = 0; attempt < kMaxRetries; attempt++) {
    if (hook != nullptr) hook->BeginCommit();
    Status status;
    object::ObjectId oid = object::kInvalidObjectId;
    if (use_collection()) {
      collection::CTransaction ct(collections_);
      Result<object::WritableRef<collection::Collection>> coll =
          ct.WriteCollection(kCollectionName);
      status = coll.ok() ? Status::OK() : coll.status();
      if (status.ok()) {
        Result<object::ObjectId> inserted = coll.value()->Insert(
            &ct, std::make_unique<YcsbRecord>(key, payload));
        status = inserted.ok() ? Status::OK() : inserted.status();
        if (status.ok()) {
          oid = inserted.value();
          if (hook != nullptr) {
            hook->PendingWrite(key, KeyedImage(key, payload));
          }
          status = ct.Commit(durable);
        }
      }
    } else {
      object::Transaction txn(objects_);
      Result<object::ObjectId> inserted =
          txn.Insert(std::make_unique<YcsbRecord>(key, payload));
      status = inserted.ok() ? Status::OK() : inserted.status();
      if (status.ok()) {
        Result<object::WritableRef<YcsbDirectory>> dir =
            txn.OpenWritable<YcsbDirectory>(directory_oid_);
        status = dir.ok() ? Status::OK() : dir.status();
        if (status.ok()) {
          oid = inserted.value();
          dir.value()->Append(key, oid);
          if (hook != nullptr) {
            hook->PendingWrite(key, KeyedImage(key, payload));
          }
          status = txn.Commit(durable);
        }
      }
    }
    if (hook != nullptr) hook->EndCommit(status.ok(), durable);
    if (status.IsLockTimeout()) {
      retries_->Increment();
      continue;
    }
    if (status.ok()) {
      std::lock_guard<std::mutex> lock(mutex_);
      oids_[key] = oid;
      uint64_t next = live_.load(std::memory_order_relaxed);
      while (next < capacity_ && oids_[next] != object::kInvalidObjectId) {
        next++;
      }
      live_.store(next, std::memory_order_release);
    }
    return status;
  }
  return Status::LockTimeout("insert retries exhausted");
}

Status YcsbDriver::DoScan(Stream* stream, uint64_t start_key) {
  const uint32_t scan_len =
      1 + static_cast<uint32_t>(stream->rng.Uniform(spec_.max_scan_len));
  for (int attempt = 0; attempt < kMaxRetries; attempt++) {
    collection::CTransaction ct(collections_);
    Result<object::ReadonlyRef<collection::Collection>> coll =
        ct.ReadCollection(kCollectionName);
    Status status = coll.ok() ? Status::OK() : coll.status();
    if (status.ok()) {
      collection::IntKey min(static_cast<int64_t>(start_key));
      Result<std::unique_ptr<collection::Iterator>> query =
          coll.value()->Query(&ct, *indexer_, &min, nullptr);
      status = query.ok() ? Status::OK() : query.status();
      if (status.ok()) {
        std::unique_ptr<collection::Iterator> it = std::move(query).value();
        int64_t last_key = -1;
        for (uint32_t i = 0; status.ok() && i < scan_len && !it->end();
             i++, it->Next()) {
          Result<object::ReadonlyRef<YcsbRecord>> rec = it->Read<YcsbRecord>();
          status = rec.ok() ? Status::OK() : rec.status();
          if (status.ok()) {
            int64_t key = static_cast<int64_t>(rec.value()->key());
            if (key < static_cast<int64_t>(start_key) || key <= last_key) {
              status = Status::Corruption(
                  "scan out of order: key " + std::to_string(key) +
                  " after " + std::to_string(last_key));
            }
            last_key = key;
          }
        }
        Status closed = it->Close();
        if (status.ok()) status = closed;
      }
    }
    Status aborted = ct.Abort();
    if (status.ok()) status = aborted;
    if (status.IsLockTimeout()) {
      retries_->Increment();
      continue;
    }
    return status;
  }
  return Status::LockTimeout("scan retries exhausted");
}

Status YcsbDriver::DoRmw(Stream* stream, uint64_t key, CommitHook* hook) {
  const uint64_t payload_seed = stream->rng.Next();
  const bool durable = stream->rng.Bernoulli(spec_.p_durable);
  for (int attempt = 0; attempt < kMaxRetries; attempt++) {
    if (hook != nullptr) hook->BeginCommit();
    object::Transaction txn(objects_);
    Result<object::WritableRef<YcsbRecord>> rec =
        txn.OpenWritable<YcsbRecord>(OidForKey(key));
    Status status = rec.ok() ? Status::OK() : rec.status();
    if (status.ok()) {
      // The "modify" derives from the read value, making this a true RMW
      // (still deterministic in single-stream runs: the old value is).
      const Buffer& old = rec.value()->bytes();
      const uint64_t mixed =
          payload_seed ^ (old.empty() ? 0 : FnvHash64(old[0] + old.size()));
      Buffer payload = ValuePayload(mixed, spec_.value_bytes);
      rec.value()->set_bytes(payload);
      if (hook != nullptr) {
        hook->PendingWrite(key, KeyedImage(key, payload));
      }
      status = txn.Commit(durable);
    }
    if (hook != nullptr) hook->EndCommit(status.ok(), durable);
    if (status.IsLockTimeout()) {
      retries_->Increment();
      continue;
    }
    return status;
  }
  return Status::LockTimeout("read-modify-write retries exhausted");
}

Status YcsbDriver::Scan(std::map<uint64_t, Buffer>* out) {
  out->clear();
  if (use_collection()) {
    collection::CTransaction ct(collections_);
    TDB_RETURN_IF_ERROR(ScanCollection<YcsbRecord>(
        &ct, kCollectionName, *indexer_,
        [](const YcsbRecord& rec) {
          return std::pair(rec.key(), KeyedImage(rec.key(), rec.bytes()));
        },
        out));
    return ct.Abort();
  }
  const uint64_t live = live_.load(std::memory_order_acquire);
  object::ReadTransaction txn(objects_);
  for (uint64_t key = 0; key < live; key++) {
    TDB_ASSIGN_OR_RETURN(object::ReadonlyRef<YcsbRecord> rec,
                         txn.Open<YcsbRecord>(oids_[key]));
    if (rec->key() != key) {
      return Status::Corruption("record key mismatch in scan at key " +
                                std::to_string(key));
    }
    (*out)[key] = KeyedImage(key, rec->bytes());
  }
  return Status::OK();
}

}  // namespace tdb::workload
