// tpcb: the paper's §7.1 TPC-B at scale 1 (one tenth of Figure 9's sizes),
// one client, every transaction durable, on the write-through disk with
// the counter kept as a file. Every op is one TPC-B transaction; reads are
// timed in the audit after the run, a point query of every account.

#include <array>
#include <string>
#include <vector>

#include "collection/collection.h"
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

constexpr obj::ClassId kRecordClass = 0x50420001;
constexpr size_t kPadBytes = 80;  // 100-byte records with the id and balance.

class TpcbRecord final : public obj::Object {
 public:
  TpcbRecord() = default;
  TpcbRecord(int32_t id, int64_t balance)
      : id_(id), balance_(balance), pad_(kPadBytes, 0x20) {}

  obj::ClassId class_id() const override { return kRecordClass; }
  void Pickle(obj::Pickler* p) const override {
    p->PutInt32(id_);
    p->PutInt64(balance_);
    p->PutBytes(pad_);
  }
  Status UnpickleFrom(obj::Unpickler* u) override {
    TDB_RETURN_IF_ERROR(u->GetInt32(&id_));
    TDB_RETURN_IF_ERROR(u->GetInt64(&balance_));
    return u->GetBytes(&pad_);
  }
  size_t ApproxSize() const override { return sizeof(*this) + pad_.size(); }

  int32_t id_ = 0;
  int64_t balance_ = 0;
  tdb::Buffer pad_;
};

std::shared_ptr<coll::GenericIndexer> ById() {
  return std::make_shared<coll::Indexer<TpcbRecord, coll::IntKey>>(
      "by-id", coll::Uniqueness::kUnique, coll::IndexKind::kHashTable,
      [](const TpcbRecord& r) { return coll::IntKey(r.id_); });
}

enum Table { kAccount = 0, kTeller = 1, kBranch = 2, kHistory = 3 };
constexpr const char* kTables[] = {"account", "teller", "branch", "history"};

class TpcbWorkload final : public Workload {
 public:
  explicit TpcbWorkload(const Options& options)
      : options_(options),
        sizes_(options.tiny ? std::array<int, 4>{500, 20, 5, 1000}
                            : std::array<int, 4>{10000, 100, 10, 25200}),
        indexer_(ById()) {}

  int setup_reps() const override { return 3; }
  uint64_t warmup_ops() const override { return options_.tiny ? 500 : 20000; }
  uint64_t count_window_ops() const override {
    return options_.tiny ? 500 : 100000;
  }

  Status Setup() override {
    device_ = std::make_unique<SimDevice>(options_.trace);
    obj::ObjectStoreOptions oopts;
    // The paper's 4 MB cache at ten times these sizes, scaled down with
    // the data as in bench/workload/tpcb.cc.
    oopts.cache_capacity_bytes = 4 * 1024 * 1024 / 10;
    oopts.locking_enabled = false;  // Single client (§4.2.3 option).
    stack_ = std::make_unique<Stack>(device_.get(), options_.trace, oopts);
    TDB_RETURN_IF_ERROR(stack_->Open(Register));
    rng_ = std::make_unique<tdb::Random>(options_.seed);
    for (int t = 0; t < 4; t++) model_[t].assign(sizes_[t], 0);
    history_sum_ = 0;
    for (int t = 0; t < 4; t++) {
      coll::CTransaction ddl(stack_->collections());
      {
        SpanScope span("collection.open");
        TDB_RETURN_IF_ERROR(
            ddl.CreateCollection(kTables[t], indexer_).status());
      }
      TDB_RETURN_IF_ERROR(Commit(&ddl, false));
      // Populate in batches of 1000: nondurable between, durable at the end.
      int next_id = 0;
      while (next_id < sizes_[t]) {
        coll::CTransaction load(stack_->collections());
        Result<obj::WritableRef<coll::Collection>> c = WriteCollection(
            &load, kTables[t]);
        TDB_RETURN_IF_ERROR(c.status());
        const int end = std::min(sizes_[t], next_id + 1000);
        for (; next_id < end; next_id++) {
          SpanScope span("collection.insert");
          TDB_RETURN_IF_ERROR(
              (*c)->Insert(&load, std::make_unique<TpcbRecord>(next_id, 0))
                  .status());
        }
        TDB_RETURN_IF_ERROR(Commit(&load, next_id == sizes_[t]));
      }
    }
    next_history_id_ = sizes_[kHistory];
    audit_order_ = SeededOrder(sizes_[kAccount], ~options_.seed);
    return Status::OK();
  }

  Status RunOp(int /*client*/, OpResult* out) override {
    out->write = true;
    return Transaction();
  }

  uint64_t audit_reads() const override { return audit_order_.size(); }
  Status AuditRead(uint64_t i) override {
    return ReadAccount(audit_order_[i], true);
  }

  DeviceCounters Device() const override { return device_->Counters(); }
  double LiveUserBytes() const override {
    return 100.0 * (sizes_[kAccount] + sizes_[kTeller] + sizes_[kBranch] +
                    next_history_id_);
  }
  tdb::chunk::ChunkStoreStats ChunkStats() const override {
    return stack_->chunks()->Stats();
  }
  obj::ObjectStoreStats ObjectStats() const override {
    return stack_->objects()->Stats();
  }

  // The model is saved and put back with the image, so the audit reads of
  // the restored database are checked against it.
  void SaveImage() override {
    device_->SaveImage();
    saved_ = Model{model_, history_sum_, next_history_id_};
  }
  Status RestoreImage() override {
    TDB_RETURN_IF_ERROR(stack_->Close());
    device_->RestoreImage();
    model_ = saved_.balances;
    history_sum_ = saved_.history_sum;
    next_history_id_ = saved_.next_history_id;
    return Status::OK();
  }
  Status Reopen(bool check_model) override {
    TDB_RETURN_IF_ERROR(stack_->Close());
    TDB_RETURN_IF_ERROR(stack_->Open(Register));
    for (const char* table : kTables) {
      TDB_RETURN_IF_ERROR(
          stack_->collections()->RegisterIndexer(table, indexer_));
    }
    return ReadAccount(0, check_model);
  }

  Status Verify() override {
    coll::CTransaction ct(stack_->collections());
    std::array<int64_t, 4> sums = {0, 0, 0, 0};
    for (int t = 0; t < 4; t++) {
      Result<obj::ReadonlyRef<coll::Collection>> c =
          ct.ReadCollection(kTables[t]);
      TDB_RETURN_IF_ERROR(c.status());
      Result<std::unique_ptr<coll::Iterator>> it = (*c)->Query(&ct, *indexer_);
      TDB_RETURN_IF_ERROR(it.status());
      const int64_t expected_rows =
          t == kHistory ? next_history_id_ : sizes_[t];
      int64_t rows = 0;
      for (; !(*it)->end(); (*it)->Next(), rows++) {
        Result<obj::ReadonlyRef<TpcbRecord>> r = (*it)->Read<TpcbRecord>();
        TDB_RETURN_IF_ERROR(r.status());
        const int32_t id = (*r)->id_;
        sums[t] += (*r)->balance_;
        if (t != kHistory &&
            (id < 0 || id >= sizes_[t] || (*r)->balance_ != model_[t][id])) {
          return Status::Corruption(std::string("tpcb: ") + kTables[t] +
                                    " row " + std::to_string(id) +
                                    " disagrees with the model");
        }
      }
      TDB_RETURN_IF_ERROR((*it)->Close());
      if (rows != expected_rows) {
        return Status::Corruption(std::string("tpcb: ") + kTables[t] +
                                  " has " + std::to_string(rows) +
                                  " rows, expected " +
                                  std::to_string(expected_rows));
      }
    }
    TDB_RETURN_IF_ERROR(ct.Abort());
    if (sums[kAccount] != history_sum_ || sums[kTeller] != history_sum_ ||
        sums[kBranch] != history_sum_ || sums[kHistory] != history_sum_) {
      return Status::Corruption("tpcb: balances do not sum to the history");
    }
    uint64_t checked = 0;
    return stack_->chunks()->VerifyIntegrity(&checked);
  }

 private:
  static Status Register(obj::ObjectStore* os) {
    return os->registry().Register<TpcbRecord>(kRecordClass);
  }

  static Result<obj::WritableRef<coll::Collection>> WriteCollection(
      coll::CTransaction* ct, const char* name) {
    SpanScope span("collection.open");
    return ct->WriteCollection(name);
  }

  static Status Commit(coll::CTransaction* ct, bool durable) {
    SpanScope span("collection.commit");
    return ct->Commit(durable);
  }

  // One TPC-B transaction: update a random account, teller and branch by
  // the same delta and append a history row, then commit durably.
  Status Transaction() {
    coll::CTransaction txn(stack_->collections());
    const int64_t delta = static_cast<int64_t>(rng_->Uniform(1000)) - 500;
    std::array<int32_t, 3> ids = {0, 0, 0};
    for (int t = kAccount; t <= kBranch; t++) {
      const int32_t id = static_cast<int32_t>(rng_->Uniform(sizes_[t]));
      ids[t] = id;
      Result<obj::ReadonlyRef<coll::Collection>> c = [&] {
        SpanScope span("collection.open");
        return txn.ReadCollection(kTables[t]);
      }();
      TDB_RETURN_IF_ERROR(c.status());
      Result<std::unique_ptr<coll::Iterator>> it = [&] {
        SpanScope span("collection.query");
        return (*c)->Query(&txn, *indexer_, coll::IntKey(id));
      }();
      TDB_RETURN_IF_ERROR(it.status());
      Result<obj::WritableRef<TpcbRecord>> record = [&] {
        SpanScope span("collection.write");
        return (*it)->Write<TpcbRecord>();
      }();
      TDB_RETURN_IF_ERROR(record.status());
      (*record)->balance_ += delta;
      SpanScope span("collection.close");
      TDB_RETURN_IF_ERROR((*it)->Close());
    }
    Result<obj::WritableRef<coll::Collection>> history =
        WriteCollection(&txn, kTables[kHistory]);
    TDB_RETURN_IF_ERROR(history.status());
    {
      SpanScope span("collection.insert");
      TDB_RETURN_IF_ERROR(
          (*history)
              ->Insert(&txn,
                       std::make_unique<TpcbRecord>(next_history_id_, delta))
              .status());
    }
    TDB_RETURN_IF_ERROR(Commit(&txn, true));
    // The commit is acknowledged: fold it into the model.
    for (int t = kAccount; t <= kBranch; t++) model_[t][ids[t]] += delta;
    next_history_id_++;
    history_sum_ += delta;
    return Status::OK();
  }

  // Reads one account by id (and checks it against the model).
  Status ReadAccount(int32_t id, bool check_model) {
    coll::CTransaction txn(stack_->collections());
    Result<obj::ReadonlyRef<coll::Collection>> c = [&] {
      SpanScope span("collection.open");
      return txn.ReadCollection(kTables[kAccount]);
    }();
    TDB_RETURN_IF_ERROR(c.status());
    Result<std::unique_ptr<coll::Iterator>> it = [&] {
      SpanScope span("collection.query");
      return (*c)->Query(&txn, *indexer_, coll::IntKey(id));
    }();
    TDB_RETURN_IF_ERROR(it.status());
    if ((*it)->end()) return Status::NotFound("tpcb: account missing");
    Result<obj::ReadonlyRef<TpcbRecord>> r = [&] {
      SpanScope span("collection.read");
      return (*it)->Read<TpcbRecord>();
    }();
    TDB_RETURN_IF_ERROR(r.status());
    if ((*r)->id_ != id ||
        (check_model && (*r)->balance_ != model_[kAccount][id])) {
      return Status::Corruption("tpcb: read a stale balance");
    }
    {
      SpanScope span("collection.close");
      TDB_RETURN_IF_ERROR((*it)->Close());
    }
    return Commit(&txn, false);
  }

  const Options options_;
  const std::array<int, 4> sizes_;
  std::shared_ptr<coll::GenericIndexer> indexer_;
  std::unique_ptr<SimDevice> device_;
  std::unique_ptr<Stack> stack_;
  std::unique_ptr<tdb::Random> rng_;
  std::array<std::vector<int64_t>, 4> model_;
  int64_t history_sum_ = 0;
  int32_t next_history_id_ = 0;
  std::vector<int32_t> audit_order_;
  struct Model {
    std::array<std::vector<int64_t>, 4> balances;
    int64_t history_sum = 0;
    int32_t next_history_id = 0;
  } saved_;
};

}  // namespace

std::unique_ptr<Workload> MakeTpcb(const Options& options) {
  return std::make_unique<TpcbWorkload>(options);
}

}  // namespace perfbench
