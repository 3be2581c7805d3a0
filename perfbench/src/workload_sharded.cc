// sharded_commit: durable two-account transfers from four client threads
// over an ObjectStore on a 4-shard ShardedChunkStore with group commit on.
// Every shard has its own flush-on-sync device (1 ms per Sync, slept with
// the CPU free, as in bench/shard_throughput.cc) and its own in-memory
// one-way counter. One transfer in 8 spans two shards (shard = oid % 4).
// Reads are timed in the audit after the run, a snapshot read of every
// account.

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "layers.h"
#include "object/object_store.h"
#include "platform/mem_store.h"
#include "platform/one_way_counter.h"
#include "platform/secret_store.h"
#include "shard/sharded_chunk_store.h"
#include "tracer.h"
#include "workload.h"

namespace perfbench {
namespace {

using tdb::Result;
using tdb::Status;
namespace obj = tdb::object;

constexpr int kShards = 4;
constexpr int kClients = 4;
constexpr obj::ClassId kAccountClass = 0x50420003;
constexpr int64_t kInitialBalance = 1000;
constexpr auto kFlushLatency = std::chrono::microseconds(1000);

class Account final : public obj::Object {
 public:
  Account() = default;
  Account(int32_t id, int64_t balance)
      : id_(id), balance_(balance), pad_(80, 0x20) {}

  obj::ClassId class_id() const override { return kAccountClass; }
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

// Writes land in memory (the warm page cache); Sync blocks the caller for
// a fixed device-flush latency with the CPU free, so flushes on different
// shards' devices overlap.
class FlushOnSyncDevice final : public tdb::platform::UntrustedStore {
 public:
  Status Create(const std::string& name, bool overwrite) override {
    return base_.Create(name, overwrite);
  }
  Status Remove(const std::string& name) override { return base_.Remove(name); }
  bool Exists(const std::string& name) const override {
    return base_.Exists(name);
  }
  Status Read(const std::string& name, uint64_t offset, size_t n,
              tdb::Buffer* out) const override {
    return base_.Read(name, offset, n, out);
  }
  Status Write(const std::string& name, uint64_t offset,
               tdb::Slice data) override {
    return base_.Write(name, offset, data);
  }
  Result<uint64_t> Size(const std::string& name) const override {
    return base_.Size(name);
  }
  Status Truncate(const std::string& name, uint64_t size) override {
    return base_.Truncate(name, size);
  }
  Status Sync(const std::string& name) override {
    std::this_thread::sleep_for(kFlushLatency);
    flushes_.fetch_add(1, std::memory_order_relaxed);
    return base_.Sync(name);
  }
  std::vector<std::string> List() const override { return base_.List(); }

  tdb::platform::MemUntrustedStore::Image SaveImage() const {
    return base_.SnapshotImage();
  }
  void RestoreImage(tdb::platform::MemUntrustedStore::Image image) {
    base_.RestoreImage(std::move(image));
  }
  uint64_t flushes() const { return flushes_.load(); }
  uint64_t bytes_written() const { return base_.bytes_written(); }
  uint64_t total_bytes() const { return base_.TotalBytes(); }

 private:
  tdb::platform::MemUntrustedStore base_;
  std::atomic<uint64_t> flushes_{0};
};

Status Register(obj::ObjectStore* os) {
  return os->registry().Register<Account>(kAccountClass);
}

class ShardedWorkload final : public Workload {
 public:
  explicit ShardedWorkload(const Options& options)
      : options_(options), accounts_(options.tiny ? 64 : 10000) {
    (void)secrets_.Provision(tdb::Slice("perfbench-secret")).ok();
  }

  int clients() const override { return kClients; }
  uint64_t warmup_ops() const override { return options_.tiny ? 20 : 1000; }
  uint64_t count_window_ops() const override { return 0; }
  bool device_in_wall() const override { return true; }
  bool has_shards() const override { return true; }
  uint64_t lock_retries() const override { return lock_retries_.load(); }
  uint64_t audit_reads() const override { return audit_order_.size(); }

  Status AuditRead(uint64_t i) override {
    const int a = audit_order_[i];
    obj::ReadTransaction txn(objects_.get());
    Result<obj::ReadonlyRef<Account>> r = txn.Open<Account>(oids_[a]);
    TDB_RETURN_IF_ERROR(r.status());
    if ((*r)->id_ != a || (*r)->balance_ != model_[a].load()) {
      return Status::Corruption("sharded_commit: audit of account " +
                                std::to_string(a));
    }
    return Status::OK();
  }

  Status Setup() override {
    for (int k = 0; k < kShards; k++) {
      devices_.push_back(std::make_unique<FlushOnSyncDevice>());
      counters_.push_back(std::make_unique<tdb::platform::MemOneWayCounter>());
      if (options_.trace) {
        traced_stores_.push_back(
            std::make_unique<TracedStore>(devices_.back().get()));
        traced_counters_.push_back(
            std::make_unique<TracedCounter>(counters_.back().get()));
      }
    }
    TDB_RETURN_IF_ERROR(Open());
    // Load every account in one transaction (a 4-shard 2PC).
    oids_.assign(accounts_, obj::kInvalidObjectId);
    by_shard_.assign(kShards, {});
    {
      obj::Transaction txn(objects_.get());
      for (int i = 0; i < accounts_; i++) {
        Result<obj::ObjectId> oid =
            txn.Insert(std::make_unique<Account>(i, kInitialBalance));
        TDB_RETURN_IF_ERROR(oid.status());
        oids_[i] = *oid;
        by_shard_[*oid % kShards].push_back(i);
      }
      TDB_RETURN_IF_ERROR(txn.Commit(true));
    }
    for (const std::vector<int>& shard : by_shard_) {
      if (shard.size() < 2) return Status::InvalidArgument("too few accounts");
    }
    model_ = std::vector<std::atomic<int64_t>>(accounts_);
    for (auto& balance : model_) balance.store(kInitialBalance);
    rngs_.clear();
    for (int c = 0; c < kClients; c++) {
      rngs_.push_back(std::make_unique<tdb::Random>(
          options_.seed * 0x9E3779B97F4A7C15ull + static_cast<uint64_t>(c)));
    }
    audit_order_ = SeededOrder(accounts_, ~options_.seed);
    return Status::OK();
  }

  Status RunOp(int client, OpResult* out) override {
    tdb::Random* rng = rngs_[client].get();
    const int a = static_cast<int>(rng->Uniform(accounts_));
    const bool cross = rng->Uniform(8) == 0;
    const int shard_a = static_cast<int>(oids_[a] % kShards);
    const int shard_b =
        cross ? (shard_a + 1 + static_cast<int>(rng->Uniform(kShards - 1))) %
                    kShards
              : shard_a;
    const std::vector<int>& pool = by_shard_[shard_b];
    int b = pool[rng->Uniform(pool.size())];
    while (b == a) b = pool[rng->Uniform(pool.size())];
    out->write = true;
    out->cross = cross;
    const int64_t amount = 1 + static_cast<int64_t>(rng->Uniform(100));
    return Transfer(a, b, amount);
  }

  DeviceCounters Device() const override {
    DeviceCounters c;
    for (const auto& d : devices_) {
      c.device_ms += static_cast<double>(d->flushes()) *
                     std::chrono::duration<double, std::milli>(kFlushLatency)
                         .count();
      c.bytes_written += d->bytes_written();
      c.store_bytes += d->total_bytes();
    }
    return c;
  }
  double LiveUserBytes() const override { return 100.0 * accounts_; }
  tdb::chunk::ChunkStoreStats ChunkStats() const override {
    return router_->Stats();
  }
  obj::ObjectStoreStats ObjectStats() const override {
    return objects_->Stats();
  }
  tdb::shard::RouterStats RouterStats() const override {
    return router_->router_stats();
  }

  void SaveImage() override {
    images_.clear();
    counter_values_.clear();
    for (int k = 0; k < kShards; k++) {
      images_.push_back(devices_[k]->SaveImage());
      counter_values_.push_back(counters_[k]->Read().value());
    }
    saved_model_.clear();
    for (const auto& balance : model_) saved_model_.push_back(balance.load());
  }

  // The in-memory counters are not part of the device image: each is
  // replaced by a fresh one advanced to the value saved with the image.
  // The model is put back with the image.
  Status RestoreImage() override {
    TDB_RETURN_IF_ERROR(Close());
    for (int i = 0; i < accounts_; i++) model_[i].store(saved_model_[i]);
    for (int k = 0; k < kShards; k++) {
      devices_[k]->RestoreImage(images_[k]);
      counters_[k] = std::make_unique<tdb::platform::MemOneWayCounter>();
      for (uint64_t v = 0; v < counter_values_[k]; v++) {
        TDB_RETURN_IF_ERROR(counters_[k]->Increment().status());
      }
      if (options_.trace) {
        traced_counters_[k] =
            std::make_unique<TracedCounter>(counters_[k].get());
      }
    }
    return Status::OK();
  }

  Status Reopen(bool check_model) override {
    TDB_RETURN_IF_ERROR(Close());
    TDB_RETURN_IF_ERROR(Open());
    obj::ReadTransaction txn(objects_.get());
    Result<obj::ReadonlyRef<Account>> r = txn.Open<Account>(oids_[0]);
    TDB_RETURN_IF_ERROR(r.status());
    if ((*r)->id_ != 0 ||
        (check_model && (*r)->balance_ != model_[0].load())) {
      return Status::Corruption("sharded_commit: account 0 after reopen");
    }
    return Status::OK();
  }

  Status Verify() override {
    if (commit_failures_ != 0) {
      return Status::Corruption("sharded_commit: cross-shard commit failed");
    }
    obj::ReadTransaction txn(objects_.get());
    int64_t total = 0;
    for (int i = 0; i < accounts_; i++) {
      Result<obj::ReadonlyRef<Account>> r = txn.Open<Account>(oids_[i]);
      TDB_RETURN_IF_ERROR(r.status());
      if ((*r)->id_ != i || (*r)->balance_ != model_[i].load()) {
        return Status::Corruption("sharded_commit: account " +
                                  std::to_string(i) +
                                  " disagrees with the model");
      }
      total += (*r)->balance_;
    }
    if (total != kInitialBalance * accounts_) {
      return Status::Corruption("sharded_commit: balance not conserved");
    }
    txn.End();
    uint64_t checked = 0;
    return router_->VerifyIntegrity(&checked);
  }

 private:
  // Closes the router, keeping its cross-shard commit failure count.
  Status Close() {
    if (router_ == nullptr) return Status::OK();
    commit_failures_ += router_->router_stats().cross_shard_commit_failures;
    objects_.reset();
    decorator_.reset();
    Status s = router_->Close();
    router_.reset();
    return s;
  }

  Status Open() {
    std::vector<tdb::shard::ShardBackend> backends;
    for (int k = 0; k < kShards; k++) {
      tdb::platform::UntrustedStore* store = devices_[k].get();
      tdb::platform::OneWayCounter* counter = counters_[k].get();
      if (options_.trace) {
        store = traced_stores_[k].get();
        counter = traced_counters_[k].get();
      }
      backends.push_back(tdb::shard::ShardBackend{store, &secrets_, counter});
    }
    tdb::chunk::ChunkStoreOptions copts;
    copts.security = tdb::crypto::SecurityConfig::Modern();
    copts.compression = false;
    copts.group_commit = true;
    auto router = tdb::shard::ShardedChunkStore::Open(backends, copts);
    TDB_RETURN_IF_ERROR(router.status());
    router_ = std::move(router).value();
    tdb::chunk::ChunkStoreInterface* top = router_.get();
    if (options_.trace) {
      decorator_ = std::make_unique<TracedChunks>(top, kShardSpans);
      top = decorator_.get();
    }
    auto objects = obj::ObjectStore::Open(top);
    TDB_RETURN_IF_ERROR(objects.status());
    objects_ = std::move(objects).value();
    return Register(objects_.get());
  }

  // Moves `amount` from account a to account b, locking in oid order so
  // transfers never deadlock; a lock timeout is retried.
  Status Transfer(int a, int b, int64_t amount) {
    const int first = oids_[a] < oids_[b] ? a : b;
    const int second = first == a ? b : a;
    while (true) {
      obj::Transaction txn(objects_.get());
      Result<obj::WritableRef<Account>> x = [&] {
        SpanScope span("object.open");
        return txn.OpenWritable<Account>(oids_[first]);
      }();
      Status s = x.status();
      if (s.ok()) {
        Result<obj::WritableRef<Account>> y = [&] {
          SpanScope span("object.open");
          return txn.OpenWritable<Account>(oids_[second]);
        }();
        s = y.status();
        if (s.ok()) {
          const int64_t sign = first == a ? 1 : -1;
          (*x)->balance_ -= sign * amount;
          (*y)->balance_ += sign * amount;
          SpanScope span("object.commit");
          s = txn.Commit(true);
        }
      }
      if (s.IsLockTimeout()) {
        lock_retries_.fetch_add(1);
        continue;
      }
      TDB_RETURN_IF_ERROR(s);
      model_[a].fetch_sub(amount);
      model_[b].fetch_add(amount);
      return Status::OK();
    }
  }

  const Options options_;
  const int accounts_;
  tdb::platform::MemSecretStore secrets_;
  std::vector<std::unique_ptr<FlushOnSyncDevice>> devices_;
  std::vector<std::unique_ptr<TracedStore>> traced_stores_;
  std::vector<std::unique_ptr<tdb::platform::MemOneWayCounter>> counters_;
  std::vector<std::unique_ptr<TracedCounter>> traced_counters_;
  std::unique_ptr<tdb::shard::ShardedChunkStore> router_;
  std::unique_ptr<TracedChunks> decorator_;
  std::unique_ptr<obj::ObjectStore> objects_;
  std::vector<obj::ObjectId> oids_;
  std::vector<std::vector<int>> by_shard_;
  std::vector<std::atomic<int64_t>> model_;
  std::vector<std::unique_ptr<tdb::Random>> rngs_;
  std::vector<int32_t> audit_order_;
  std::atomic<uint64_t> lock_retries_{0};
  uint64_t commit_failures_ = 0;
  std::vector<tdb::platform::MemUntrustedStore::Image> images_;
  std::vector<uint64_t> counter_values_;
  std::vector<int64_t> saved_model_;
};

}  // namespace

std::unique_ptr<Workload> MakeShardedCommit(const Options& options) {
  return std::make_unique<ShardedWorkload>(options);
}

}  // namespace perfbench
