// lookup and scan: the DRM rights-lookup and usage-history shapes over one
// single-client store on the write-through disk.
//
//  lookup  YCSB-B: 95% snapshot point reads (ReadTransaction), 5% durable
//          updates, scrambled-zipfian keys over records that fit both the
//          object cache and the chunk cache.
//  scan    YCSB-E: 95% range scans of 1..16 records from a scrambled-
//          zipfian start key over a B-tree collection (2PL reads), 5%
//          durable inserts of new keys. Caches are sized so the table still
//          fits after a full run's inserts.

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "collection/collection.h"
#include "common/coding.h"
#include "common/random.h"
#include "stack.h"
#include "tracer.h"
#include "workload.h"

namespace perfbench {
namespace {

using tdb::Result;
using tdb::Status;
namespace coll = tdb::collection;
namespace obj = tdb::object;

constexpr obj::ClassId kRecordClass = 0x50420002;
constexpr size_t kValueBytes = 128;

// A key plus a 128-byte value. The value's first 16 bytes stamp the key
// and version it was written for; the rest is derived from both, so the
// full read-back can compare every byte against the model.
class KvRecord final : public obj::Object {
 public:
  KvRecord() = default;
  KvRecord(uint64_t key, tdb::Buffer value)
      : key_(key), value_(std::move(value)) {}

  obj::ClassId class_id() const override { return kRecordClass; }
  void Pickle(obj::Pickler* p) const override {
    p->PutUint64(key_);
    p->PutBytes(value_);
  }
  Status UnpickleFrom(obj::Unpickler* u) override {
    TDB_RETURN_IF_ERROR(u->GetUint64(&key_));
    return u->GetBytes(&value_);
  }
  size_t ApproxSize() const override { return 48 + value_.size(); }

  uint64_t key_ = 0;
  tdb::Buffer value_;
};

tdb::Buffer MakeValue(uint64_t seed, uint64_t key, uint64_t version) {
  tdb::Buffer v;
  tdb::PutFixed64(&v, key);
  tdb::PutFixed64(&v, version);
  tdb::Random rng(seed ^ (key * 0x9E3779B97F4A7C15ull) ^ (version << 40));
  while (v.size() < kValueBytes) tdb::PutFixed64(&v, rng.Next());
  v.resize(kValueBytes);
  return v;
}

bool StampMatches(const tdb::Buffer& v, uint64_t key, uint64_t version) {
  return v.size() == kValueBytes && tdb::DecodeFixed64(v.data()) == key &&
         tdb::DecodeFixed64(v.data() + 8) == version;
}

// Scrambled zipfian over [0, n) with theta 0.99 (YCSB's default request
// distribution): Gray et al.'s inversion, ranks spread by an FNV hash.
class Zipf {
 public:
  explicit Zipf(uint64_t n) : n_(n) {
    for (uint64_t i = 1; i <= n; i++) zetan_ += 1.0 / std::pow(i, kTheta);
    const double zeta2 = 1.0 + 1.0 / std::pow(2.0, kTheta);
    alpha_ = 1.0 / (1.0 - kTheta);
    eta_ = (1.0 - std::pow(2.0 / n, 1.0 - kTheta)) / (1.0 - zeta2 / zetan_);
  }

  uint64_t Next(tdb::Random* rng) const {
    const double u = static_cast<double>(rng->Next() >> 11) / 9007199254740992.0;
    const double uz = u * zetan_;
    uint64_t rank;
    if (uz < 1.0) {
      rank = 0;
    } else if (uz < 1.0 + std::pow(0.5, kTheta)) {
      rank = 1;
    } else {
      rank = static_cast<uint64_t>(
          n_ * std::pow(eta_ * u - eta_ + 1.0, alpha_));
    }
    if (rank >= n_) rank = n_ - 1;
    // FNV-1a of the rank picks the key.
    uint64_t h = 0xcbf29ce484222325ull;
    for (int i = 0; i < 8; i++) {
      h ^= (rank >> (8 * i)) & 0xff;
      h *= 0x100000001b3ull;
    }
    return h % n_;
  }

 private:
  static constexpr double kTheta = 0.99;
  uint64_t n_;
  double zetan_ = 0;
  double alpha_ = 0;
  double eta_ = 0;
};

Status Register(obj::ObjectStore* os) {
  return os->registry().Register<KvRecord>(kRecordClass);
}

// State shared by both shapes: the device, the stack, the op generator
// and the model (the version last acknowledged for every key).
class KvWorkload : public Workload {
 public:
  KvWorkload(const Options& options, uint64_t records, size_t cache_bytes)
      : options_(options), records_(records), cache_bytes_(cache_bytes) {}

  DeviceCounters Device() const override { return device_->Counters(); }
  double LiveUserBytes() const override {
    return static_cast<double>(versions_.size()) * (8 + kValueBytes);
  }
  // The model is saved and put back with the image.
  void SaveImage() override {
    device_->SaveImage();
    saved_versions_ = versions_;
  }
  Status RestoreImage() override {
    TDB_RETURN_IF_ERROR(stack_->Close());
    device_->RestoreImage();
    versions_ = saved_versions_;
    return Status::OK();
  }
  tdb::chunk::ChunkStoreStats ChunkStats() const override {
    return stack_->chunks()->Stats();
  }
  obj::ObjectStoreStats ObjectStats() const override {
    return stack_->objects()->Stats();
  }

 protected:
  Status OpenFresh() {
    device_ = std::make_unique<SimDevice>(options_.trace);
    obj::ObjectStoreOptions oopts;
    oopts.cache_capacity_bytes = cache_bytes_;
    stack_ = std::make_unique<Stack>(device_.get(), options_.trace, oopts,
                                     cache_bytes_);
    TDB_RETURN_IF_ERROR(stack_->Open(Register));
    rng_ = std::make_unique<tdb::Random>(options_.seed);
    zipf_ = std::make_unique<Zipf>(records_);
    versions_.assign(records_, 0);
    return Status::OK();
  }

  tdb::Buffer Value(uint64_t key, uint64_t version) const {
    return MakeValue(options_.seed, key, version);
  }

  const Options options_;
  const uint64_t records_;
  const size_t cache_bytes_;
  std::unique_ptr<SimDevice> device_;
  std::unique_ptr<Stack> stack_;
  std::unique_ptr<tdb::Random> rng_;
  std::unique_ptr<Zipf> zipf_;
  std::vector<uint64_t> versions_;
  std::vector<uint64_t> saved_versions_;
};

class LookupWorkload final : public KvWorkload {
 public:
  explicit LookupWorkload(const Options& options)
      : KvWorkload(options, options.tiny ? 500 : 10000, 4 * 1024 * 1024) {}

  uint64_t warmup_ops() const override { return options_.tiny ? 500 : 20000; }
  uint64_t count_window_ops() const override {
    return options_.tiny ? 2000 : 2000000;
  }

  Status Setup() override {
    TDB_RETURN_IF_ERROR(OpenFresh());
    oids_.assign(records_, obj::kInvalidObjectId);
    for (uint64_t key = 0; key < records_;) {
      obj::Transaction txn(stack_->objects());
      const uint64_t end = std::min(records_, key + 1000);
      for (; key < end; key++) {
        Result<obj::ObjectId> oid =
            txn.Insert(std::make_unique<KvRecord>(key, Value(key, 0)));
        TDB_RETURN_IF_ERROR(oid.status());
        oids_[key] = *oid;
      }
      TDB_RETURN_IF_ERROR(txn.Commit(key == records_));
    }
    return Status::OK();
  }

  Status RunOp(int /*client*/, OpResult* out) override {
    const uint64_t key = zipf_->Next(rng_.get());
    if (rng_->Uniform(100) < 5) {
      out->write = true;
      return Update(key);
    }
    out->records = 1;
    return Read(key, Check::kStamp);
  }

  Status Reopen(bool check_model) override {
    TDB_RETURN_IF_ERROR(stack_->Close());
    TDB_RETURN_IF_ERROR(stack_->Open(Register));
    return Read(0, check_model ? Check::kStamp : Check::kKey);
  }

  Status Verify() override {
    for (uint64_t key = 0; key < records_; key++) {
      TDB_RETURN_IF_ERROR(Read(key, Check::kFull));
    }
    uint64_t checked = 0;
    return stack_->chunks()->VerifyIntegrity(&checked);
  }

 private:
  // What a read compares against the model: nothing beyond the key, the
  // value's version stamp, or every byte of the value.
  enum class Check { kKey, kStamp, kFull };

  Status Read(uint64_t key, Check check) {
    obj::ReadTransaction txn(stack_->objects());
    Result<obj::ReadonlyRef<KvRecord>> r = [&] {
      SpanScope span("object.open");
      return txn.Open<KvRecord>(oids_[key]);
    }();
    TDB_RETURN_IF_ERROR(r.status());
    bool ok = (*r)->key_ == key;
    if (check == Check::kStamp) {
      ok &= StampMatches((*r)->value_, key, versions_[key]);
    } else if (check == Check::kFull) {
      ok &= (*r)->value_ == Value(key, versions_[key]);
    }
    if (!ok) {
      return Status::Corruption("lookup: key " + std::to_string(key) +
                                " disagrees with the model");
    }
    return Status::OK();
  }

  Status Update(uint64_t key) {
    obj::Transaction txn(stack_->objects());
    Result<obj::WritableRef<KvRecord>> r = [&] {
      SpanScope span("object.open");
      return txn.OpenWritable<KvRecord>(oids_[key]);
    }();
    TDB_RETURN_IF_ERROR(r.status());
    (*r)->value_ = Value(key, versions_[key] + 1);
    {
      SpanScope span("object.commit");
      TDB_RETURN_IF_ERROR(txn.Commit(true));
    }
    versions_[key]++;
    return Status::OK();
  }

  std::vector<obj::ObjectId> oids_;
};

class ScanWorkload final : public KvWorkload {
 public:
  // Caches of 16 MiB hold the table after a full run's inserts.
  explicit ScanWorkload(const Options& options)
      : KvWorkload(options, options.tiny ? 500 : 10000, 16 * 1024 * 1024),
        indexer_(std::make_shared<coll::Indexer<KvRecord, coll::IntKey>>(
            "by-key", coll::Uniqueness::kUnique, coll::IndexKind::kBTree,
            [](const KvRecord& r) {
              return coll::IntKey(static_cast<int64_t>(r.key_));
            })) {}

  uint64_t warmup_ops() const override { return options_.tiny ? 200 : 5000; }
  uint64_t count_window_ops() const override {
    return options_.tiny ? 1000 : 400000;
  }

  Status Setup() override {
    TDB_RETURN_IF_ERROR(OpenFresh());
    {
      coll::CTransaction ddl(stack_->collections());
      {
        SpanScope span("collection.open");
        TDB_RETURN_IF_ERROR(
            ddl.CreateCollection(kCollection, indexer_).status());
      }
      TDB_RETURN_IF_ERROR(Commit(&ddl, false));
    }
    for (uint64_t key = 0; key < records_;) {
      coll::CTransaction load(stack_->collections());
      Result<obj::WritableRef<coll::Collection>> c = [&] {
        SpanScope span("collection.open");
        return load.WriteCollection(kCollection);
      }();
      TDB_RETURN_IF_ERROR(c.status());
      const uint64_t end = std::min(records_, key + 1000);
      for (; key < end; key++) {
        SpanScope span("collection.insert");
        TDB_RETURN_IF_ERROR(
            (*c)->Insert(&load, std::make_unique<KvRecord>(key, Value(key, 0)))
                .status());
      }
      TDB_RETURN_IF_ERROR(Commit(&load, key == records_));
    }
    return Status::OK();
  }

  Status RunOp(int /*client*/, OpResult* out) override {
    if (rng_->Uniform(100) < 5) {
      out->write = true;
      return Insert();
    }
    const uint64_t start = zipf_->Next(rng_.get());
    const uint64_t len = 1 + rng_->Uniform(16);
    return Scan(start, len, &out->records);
  }

  // Key 0 is never updated, so the probe read checks it even on an image.
  Status Reopen(bool /*check_model*/) override {
    TDB_RETURN_IF_ERROR(stack_->Close());
    TDB_RETURN_IF_ERROR(stack_->Open(Register));
    TDB_RETURN_IF_ERROR(
        stack_->collections()->RegisterIndexer(kCollection, indexer_));
    uint64_t records = 0;
    return Scan(0, 1, &records);
  }

  Status Verify() override {
    coll::CTransaction ct(stack_->collections());
    Result<obj::ReadonlyRef<coll::Collection>> c =
        ct.ReadCollection(kCollection);
    TDB_RETURN_IF_ERROR(c.status());
    Result<std::unique_ptr<coll::Iterator>> it = (*c)->Query(&ct, *indexer_);
    TDB_RETURN_IF_ERROR(it.status());
    uint64_t expect = 0;
    for (; !(*it)->end(); (*it)->Next(), expect++) {
      Result<obj::ReadonlyRef<KvRecord>> r = (*it)->Read<KvRecord>();
      TDB_RETURN_IF_ERROR(r.status());
      if (expect >= versions_.size() || (*r)->key_ != expect ||
          (*r)->value_ != Value(expect, versions_[expect])) {
        return Status::Corruption("scan: record " + std::to_string(expect) +
                                  " disagrees with the model");
      }
    }
    TDB_RETURN_IF_ERROR((*it)->Close());
    TDB_RETURN_IF_ERROR(ct.Commit(false));
    if (expect != versions_.size()) {
      return Status::Corruption("scan: the collection lost records");
    }
    uint64_t checked = 0;
    return stack_->chunks()->VerifyIntegrity(&checked);
  }

 private:
  static constexpr const char* kCollection = "usage";

  static Status Commit(coll::CTransaction* ct, bool durable) {
    SpanScope span("collection.commit");
    return ct->Commit(durable);
  }

  // Reads keys [start, start + len) that exist, checking order and stamps.
  Status Scan(uint64_t start, uint64_t len, uint64_t* records) {
    coll::CTransaction ct(stack_->collections());
    Result<obj::ReadonlyRef<coll::Collection>> c = [&] {
      SpanScope span("collection.open");
      return ct.ReadCollection(kCollection);
    }();
    TDB_RETURN_IF_ERROR(c.status());
    const coll::IntKey lo(static_cast<int64_t>(start));
    const coll::IntKey hi(static_cast<int64_t>(start + len - 1));
    Result<std::unique_ptr<coll::Iterator>> it = [&] {
      SpanScope span("collection.query");
      return (*c)->Query(&ct, *indexer_, &lo, &hi);
    }();
    TDB_RETURN_IF_ERROR(it.status());
    const uint64_t end = std::min<uint64_t>(start + len, versions_.size());
    uint64_t key = start;
    for (; !(*it)->end(); key++) {
      Result<obj::ReadonlyRef<KvRecord>> r = [&] {
        SpanScope span("collection.read");
        return (*it)->Read<KvRecord>();
      }();
      TDB_RETURN_IF_ERROR(r.status());
      if (key >= end || (*r)->key_ != key ||
          !StampMatches((*r)->value_, key, versions_[key])) {
        return Status::Corruption("scan: key " + std::to_string(key) +
                                  " disagrees with the model");
      }
      SpanScope span("collection.next");
      (*it)->Next();
    }
    if (key != end) {
      return Status::Corruption("scan: range returned too few records");
    }
    *records = end - start;
    {
      SpanScope span("collection.close");
      TDB_RETURN_IF_ERROR((*it)->Close());
    }
    return Commit(&ct, false);
  }

  Status Insert() {
    const uint64_t key = versions_.size();
    coll::CTransaction ct(stack_->collections());
    Result<obj::WritableRef<coll::Collection>> c = [&] {
      SpanScope span("collection.open");
      return ct.WriteCollection(kCollection);
    }();
    TDB_RETURN_IF_ERROR(c.status());
    {
      SpanScope span("collection.insert");
      TDB_RETURN_IF_ERROR(
          (*c)->Insert(&ct, std::make_unique<KvRecord>(key, Value(key, 0)))
              .status());
    }
    TDB_RETURN_IF_ERROR(Commit(&ct, true));
    versions_.push_back(0);
    return Status::OK();
  }

  std::shared_ptr<coll::GenericIndexer> indexer_;
};

}  // namespace

std::unique_ptr<Workload> MakeLookup(const Options& options) {
  return std::make_unique<LookupWorkload>(options);
}

std::unique_ptr<Workload> MakeScan(const Options& options) {
  return std::make_unique<ScanWorkload>(options);
}

}  // namespace perfbench
