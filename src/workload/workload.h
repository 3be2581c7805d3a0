#ifndef TDB_WORKLOAD_WORKLOAD_H_
#define TDB_WORKLOAD_WORKLOAD_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "collection/collection.h"
#include "common/result.h"
#include "common/slice.h"
#include "object/object.h"

namespace tdb::workload {

/// Observer of a workload driver's commit attempts, mirroring the
/// StateOracle protocol of the crash harness without depending on it:
/// BeginCommit opens an attempt, Pending* describe its logical effects,
/// EndCommit seals it (`acked` = the store returned OK). Drivers call the
/// hook for EVERY commit attempt in deterministic order when run
/// single-threaded, so the harness can model boundary states exactly.
/// What `id` means is scenario-specific (documented per driver): an object
/// id for plain-object scenarios, a logical key for collection scenarios.
class CommitHook {
 public:
  virtual ~CommitHook() = default;
  virtual void BeginCommit() {}
  virtual void PendingWrite(uint64_t id, Buffer image) { (void)id; (void)image; }
  virtual void PendingRemove(uint64_t id) { (void)id; }
  virtual void EndCommit(bool acked, bool durable) { (void)acked; (void)durable; }
};

/// Deterministic, semi-compressible payload bytes: a seeded noise prefix
/// whose back half repeats the front half, so the LZ codec compresses it
/// without it being trivially constant (mirrors the harness SlotPayload
/// convention so codec-on runs store a mix of compressed and raw records).
Buffer ValuePayload(uint64_t seed, uint32_t size);

/// The oracle image of a keyed record: the key (8 bytes, little-endian)
/// and the payload in one buffer, so a key corruption is as detectable as
/// a payload corruption.
Buffer KeyedImage(uint64_t key, const Buffer& bytes);

/// A persistent record of an immutable logical key plus a mutable payload.
/// Each user picks its own class id, so the YCSB record, the time-series
/// point and the harness blob stay distinct classes in one store.
template <object::ClassId Id>
class KeyedRecord final : public object::Object {
 public:
  static constexpr object::ClassId kClassId = Id;

  KeyedRecord() = default;
  KeyedRecord(uint64_t key, Buffer bytes)
      : key_(key), bytes_(std::move(bytes)) {}

  object::ClassId class_id() const override { return kClassId; }
  void Pickle(object::Pickler* pickler) const override {
    pickler->PutUint64(key_);
    pickler->PutBytes(bytes_);
  }
  Status UnpickleFrom(object::Unpickler* unpickler) override {
    TDB_RETURN_IF_ERROR(unpickler->GetUint64(&key_));
    return unpickler->GetBytes(&bytes_);
  }
  size_t ApproxSize() const override { return 48 + bytes_.size(); }

  uint64_t key() const { return key_; }
  const Buffer& bytes() const { return bytes_; }
  void set_bytes(Buffer bytes) { bytes_ = std::move(bytes); }

 private:
  uint64_t key_ = 0;
  Buffer bytes_;
};

/// Key -> object-id directory, persisted so a reopened store (or the crash
/// harness's recovery pass) can enumerate what a driver wrote. Entries are
/// appended in commit order, in the transaction of the object they name.
template <object::ClassId Id>
class KeyDirectory final : public object::Object {
 public:
  static constexpr object::ClassId kClassId = Id;

  struct Entry {
    uint64_t key = 0;
    object::ObjectId oid = object::kInvalidObjectId;
  };

  object::ClassId class_id() const override { return kClassId; }
  void Pickle(object::Pickler* pickler) const override {
    pickler->PutUint32(static_cast<uint32_t>(entries_.size()));
    for (const Entry& entry : entries_) {
      pickler->PutUint64(entry.key);
      pickler->PutUint64(entry.oid);
    }
  }
  Status UnpickleFrom(object::Unpickler* unpickler) override {
    uint32_t count = 0;
    TDB_RETURN_IF_ERROR(unpickler->GetUint32(&count));
    entries_.assign(count, Entry{});
    for (Entry& entry : entries_) {
      TDB_RETURN_IF_ERROR(unpickler->GetUint64(&entry.key));
      TDB_RETURN_IF_ERROR(unpickler->GetUint64(&entry.oid));
    }
    return Status::OK();
  }
  size_t ApproxSize() const override {
    return 32 + entries_.size() * sizeof(Entry);
  }

  const std::vector<Entry>& entries() const { return entries_; }
  void Append(uint64_t key, object::ObjectId oid) {
    entries_.push_back(Entry{key, oid});
  }
  /// Replays the log in order into key -> oid; an entry with an invalid
  /// oid tombstones its key.
  std::map<uint64_t, object::ObjectId> Replay() const {
    std::map<uint64_t, object::ObjectId> live;
    for (const Entry& entry : entries_) {
      if (entry.oid == object::kInvalidObjectId) {
        live.erase(entry.key);
      } else {
        live[entry.key] = entry.oid;
      }
    }
    return live;
  }

 private:
  std::vector<Entry> entries_;
};

/// Reads collection `name` through `indexer` into `*out`, keyed and imaged
/// by `entry(record)` -> {key, image}. A collection that was never created
/// (a crash before its first commit) reads as empty; a key seen twice is
/// Corruption.
template <typename Record, typename Entry>
Status ScanCollection(collection::CTransaction* ct, const char* name,
                      const collection::GenericIndexer& indexer, Entry entry,
                      std::map<uint64_t, Buffer>* out) {
  auto coll = ct->ReadCollection(name);
  if (coll.status().IsNotFound()) return Status::OK();
  TDB_RETURN_IF_ERROR(coll.status());
  TDB_ASSIGN_OR_RETURN(auto it, coll.value()->Query(ct, indexer));
  for (; !it->end(); it->Next()) {
    TDB_ASSIGN_OR_RETURN(auto record, it->template Read<Record>());
    auto [key, image] = entry(*record);
    if (!out->emplace(key, std::move(image)).second) {
      return Status::Corruption(std::string("duplicate key ") +
                                std::to_string(key) + " in " + name);
    }
  }
  return it->Close();
}

}  // namespace tdb::workload

#endif  // TDB_WORKLOAD_WORKLOAD_H_
