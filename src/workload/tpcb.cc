#include "workload/tpcb.h"

#include <array>
#include <chrono>
#include <cstdlib>
#include <optional>
#include <string>

#include "baseline/baseline_db.h"
#include "collection/indexer.h"
#include "collection/key.h"
#include "common/check.h"
#include "common/coding.h"
#include "platform/mem_store.h"
#include "platform/one_way_counter.h"
#include "platform/secret_store.h"
#include "platform/sim_disk.h"

namespace tdb::workload {

namespace {

constexpr const char* kTableNames[kTpcbTables] = {"account", "teller",
                                                  "branch", "history"};

uint64_t RowKey(int table, int32_t id) {
  return static_cast<uint64_t>(table) << 32 | static_cast<uint32_t>(id);
}

uint32_t TableSize(const TpcbSpec& spec, int table) {
  return std::array{spec.accounts, spec.tellers, spec.branches,
                    spec.history}[table];
}

void Report(CommitHook* hook, int table, int32_t id, int64_t balance) {
  if (hook != nullptr) {
    hook->PendingWrite(RowKey(table, id), TpcbImage(id, balance));
  }
}

std::shared_ptr<collection::GenericIndexer> ById() {
  return std::make_shared<collection::Indexer<TpcbRecord, collection::IntKey>>(
      "by-id", collection::Uniqueness::kUnique,
      collection::IndexKind::kHashTable,
      [](const TpcbRecord& r) { return collection::IntKey(r.id); });
}

// The tables as collections: an update opens its table read-only and
// writes the row through a unique-key iterator; the inserts of one
// transaction share one writable handle of their table.
class CollectionTables {
 public:
  CollectionTables(collection::CollectionStore* store,
                   std::shared_ptr<collection::GenericIndexer> indexer)
      : store_(store), indexer_(std::move(indexer)) {}

  Status Create(int table) {
    collection::CTransaction ct(store_);
    auto coll = ct.CreateCollection(kTableNames[table], indexer_);
    return coll.ok() ? ct.Commit(false) : coll.status();
  }

  void Begin() {
    writing_table_ = -1;
    txn_.emplace(store_);
  }

  Result<int64_t> Add(int table, int32_t id, int64_t delta) {
    TDB_ASSIGN_OR_RETURN(auto coll, txn_->ReadCollection(kTableNames[table]));
    TDB_ASSIGN_OR_RETURN(
        auto it, coll->Query(&*txn_, *indexer_, collection::IntKey(id)));
    TDB_ASSIGN_OR_RETURN(auto row, it->Write<TpcbRecord>());
    row->balance += delta;
    TDB_RETURN_IF_ERROR(it->Close());
    return row->balance;
  }

  Status Insert(int table, int32_t id, int64_t balance) {
    if (writing_table_ != table) {
      TDB_ASSIGN_OR_RETURN(writing_,
                           txn_->WriteCollection(kTableNames[table]));
      writing_table_ = table;
    }
    auto row = std::make_unique<TpcbRecord>(id, balance);
    return writing_->Insert(&*txn_, std::move(row)).status();
  }

  Status Commit(bool durable) {
    Status status = txn_->Commit(durable);
    writing_ = {};
    txn_.reset();
    return status;
  }

 private:
  collection::CollectionStore* store_;
  std::shared_ptr<collection::GenericIndexer> indexer_;
  std::optional<collection::CTransaction> txn_;
  object::WritableRef<collection::Collection> writing_;  // Dies before txn_.
  int writing_table_ = -1;
};

// The tables as baseline B-trees: key = the 4-byte id, value = the 8-byte
// balance padded to 96 bytes. Every baseline commit is durable.
class BaselineTables {
 public:
  explicit BaselineTables(baseline::BaselineDb* db) : db_(db) {}

  Status Create(int table) {
    TDB_ASSIGN_OR_RETURN(trees_[table], db_->CreateTree(kTableNames[table]));
    return Status::OK();
  }
  void Begin() { txn_.emplace(db_); }

  Result<int64_t> Add(int table, int32_t id, int64_t delta) {
    TDB_ASSIGN_OR_RETURN(Buffer value, txn_->Get(trees_[table], Key(id)));
    const int64_t balance =
        static_cast<int64_t>(DecodeFixed64(value.data())) + delta;
    TDB_RETURN_IF_ERROR(Insert(table, id, balance));
    return balance;
  }

  Status Insert(int table, int32_t id, int64_t balance) {
    Buffer value;
    PutFixed64(&value, static_cast<uint64_t>(balance));
    value.resize(96, 0x20);
    return txn_->Put(trees_[table], Key(id), value);
  }

  Status Commit(bool) {
    Status status = txn_->Commit();
    txn_.reset();
    return status;
  }

 private:
  static Buffer Key(int32_t id) {
    Buffer key;
    PutFixed32(&key, static_cast<uint32_t>(id));
    return key;
  }

  baseline::BaselineDb* db_;
  baseline::BaselineDb::TreeId trees_[kTpcbTables] = {};
  std::optional<baseline::BaselineDb::Txn> txn_;
};

// Creates each table in a commit of its own, then loads it in batches of
// 1000 rows of balance 0, durable at the table's last batch.
template <typename Tables>
Status Load(const TpcbSpec& spec, Tables* tables, CommitHook* hook) {
  for (int t = 0; t < kTpcbTables; t++) {
    if (hook != nullptr) hook->BeginCommit();
    Status status = tables->Create(t);
    if (hook != nullptr) hook->EndCommit(status.ok(), false);
    const auto size = static_cast<int32_t>(TableSize(spec, t));
    for (int32_t first = 0; status.ok() && first < size; first += 1000) {
      const int32_t end = std::min(size, first + 1000);
      if (hook != nullptr) hook->BeginCommit();
      tables->Begin();
      for (int32_t id = first; status.ok() && id < end; id++) {
        status = tables->Insert(t, id, 0);
        if (status.ok()) Report(hook, t, id, 0);
      }
      if (status.ok()) status = tables->Commit(end == size);
      if (hook != nullptr) hook->EndCommit(status.ok(), end == size);
    }
    TDB_RETURN_IF_ERROR(status);
  }
  return Status::OK();
}

// The TPC-B transaction. Draws the delta, then the account, teller and
// branch; history row `*next_history` is taken once the commit is acked.
template <typename Tables>
Status Transact(const TpcbSpec& spec, Random* rng, bool durable,
                int32_t* next_history, Tables* tables, CommitHook* hook) {
  const int64_t delta = static_cast<int64_t>(rng->Uniform(1000)) - 500;
  if (hook != nullptr) hook->BeginCommit();
  tables->Begin();
  Status status;
  for (int t = kAccount; status.ok() && t <= kBranch; t++) {
    const auto id = static_cast<int32_t>(rng->Uniform(TableSize(spec, t)));
    Result<int64_t> balance = tables->Add(t, id, delta);
    status = balance.status();
    if (status.ok()) Report(hook, t, id, *balance);
  }
  if (status.ok()) status = tables->Insert(kHistory, *next_history, delta);
  if (status.ok()) Report(hook, kHistory, *next_history, delta);
  if (status.ok()) status = tables->Commit(durable);
  if (hook != nullptr) hook->EndCommit(status.ok(), durable);
  if (status.ok()) (*next_history)++;
  return status;
}

}  // namespace

Status RegisterTpcbClasses(object::ObjectStore* os) {
  return os->registry().Register<TpcbRecord>(TpcbRecord::kClassId);
}

Buffer TpcbImage(int32_t id, int64_t balance) {
  Buffer image;
  PutFixed32(&image, static_cast<uint32_t>(id));
  PutFixed64(&image, static_cast<uint64_t>(balance));
  return image;
}

TpcbDriver::TpcbDriver(collection::CollectionStore* collections,
                       const TpcbSpec& spec)
    : collections_(collections),
      spec_(spec),
      rng_(spec.seed),
      durable_rng_(spec.seed * 0x9E3779B97F4A7C15ull + 5),
      next_history_(static_cast<int32_t>(spec.history)),
      indexer_(ById()) {}

Result<std::unique_ptr<TpcbDriver>> TpcbDriver::Open(
    collection::CollectionStore* collections, const TpcbSpec& spec,
    bool create, CommitHook* hook) {
  std::unique_ptr<TpcbDriver> driver(new TpcbDriver(collections, spec));
  if (create) {
    CollectionTables tables(collections, driver->indexer_);
    TDB_RETURN_IF_ERROR(Load(spec, &tables, hook));
  }
  return driver;
}

Status TpcbDriver::Run(uint64_t count, CommitHook* hook) {
  CollectionTables tables(collections_, indexer_);
  for (uint64_t i = 0; i < count; i++) {
    const bool durable = durable_rng_.Bernoulli(spec_.p_durable);
    TDB_RETURN_IF_ERROR(
        Transact(spec_, &rng_, durable, &next_history_, &tables, hook));
  }
  return Status::OK();
}

Result<int64_t> TpcbDriver::ReadAccount(int32_t id) {
  collection::CTransaction ct(collections_);
  TDB_ASSIGN_OR_RETURN(auto coll, ct.ReadCollection(kTableNames[kAccount]));
  TDB_ASSIGN_OR_RETURN(auto it,
                       coll->Query(&ct, *indexer_, collection::IntKey(id)));
  if (it->end()) return Status::NotFound("no account " + std::to_string(id));
  TDB_ASSIGN_OR_RETURN(auto row, it->Read<TpcbRecord>());
  if (row->id != id) {
    return Status::Corruption("wrong account " + std::to_string(id));
  }
  const int64_t balance = row->balance;
  TDB_RETURN_IF_ERROR(it->Close());
  TDB_RETURN_IF_ERROR(ct.Abort());
  return balance;
}

Status TpcbDriver::Scan(std::map<uint64_t, Buffer>* out) {
  out->clear();
  collection::CTransaction ct(collections_);
  for (int t = 0; t < kTpcbTables; t++) {
    TDB_RETURN_IF_ERROR(ScanCollection<TpcbRecord>(
        &ct, kTableNames[t], *indexer_,
        [t](const TpcbRecord& row) {
          return std::pair(RowKey(t, row.id), TpcbImage(row.id, row.balance));
        },
        out));
  }
  return ct.Abort();
}

// --- The Figure 9-11 runs ---------------------------------------------------

namespace {

// The later half's bytes per transaction: the baseline samples its store's
// bytes written, TDB its chunk store's log counters.
void PerTxn(uint64_t start, uint64_t end, double txns, TpcbResult* result) {
  result->bytes_per_txn = static_cast<double>(end - start) / txns;
}

void PerTxn(const chunk::ChunkStoreStats& start,
            const chunk::ChunkStoreStats& end, double txns,
            TpcbResult* result) {
  auto per_txn = [&](uint64_t chunk::ChunkStoreStats::*field) {
    return static_cast<double>(end.*field - start.*field) / txns;
  };
  result->bytes_per_txn = per_txn(&chunk::ChunkStoreStats::bytes_appended);
  result->data_per_txn = per_txn(&chunk::ChunkStoreStats::data_bytes);
  result->relocated_per_txn = per_txn(&chunk::ChunkStoreStats::relocated_bytes);
  result->map_per_txn = per_txn(&chunk::ChunkStoreStats::map_bytes);
  result->commit_per_txn = per_txn(&chunk::ChunkStoreStats::commit_bytes);
}

// What both systems share: loads the tables (timed as set-up), runs
// config.txns durable transactions and averages the later half, charging
// each its wall time plus the simulated disk's. `sample` reads the store's
// write counters as the later half starts and ends.
template <typename Tables, typename Sample>
TpcbResult Measure(const TpcbConfig& config,
                   const platform::SimulatedDiskStore& disk, Tables* tables,
                   Sample sample) {
  using Clock = std::chrono::steady_clock;
  auto seconds_since = [](Clock::time_point start) {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };
  const TpcbSpec spec = config.spec();
  TpcbResult result;
  auto start_time = Clock::now();
  Status status = Load(spec, tables, nullptr);
  TDB_CHECK(status.ok(), "tpcb load: " + status.ToString());
  result.setup_seconds = seconds_since(start_time);

  Random rng(spec.seed);
  auto next_history = static_cast<int32_t>(spec.history);
  const int half = config.txns / 2;
  double sim_start = 0;
  decltype(sample()) start{};
  for (int i = 0; i < config.txns; i++) {
    if (i == half) {
      start = sample();
      sim_start = disk.simulated_seconds();
      start_time = Clock::now();
    }
    status = Transact(spec, &rng, true, &next_history, tables, nullptr);
    TDB_CHECK(status.ok(), "tpcb transaction: " + status.ToString());
  }
  const double later_seconds = seconds_since(start_time) +
                               disk.simulated_seconds() - sim_start;
  const int later_txns = config.txns - half;
  result.avg_response_us = later_seconds * 1e6 / later_txns;
  PerTxn(start, sample(), later_txns, &result);
  result.txns = config.txns;
  return result;
}

}  // namespace

void TpcbConfig::ApplyEnv() {
  if (const char* env = std::getenv("TPCB_SCALE")) scale = std::atoi(env);
  if (const char* env = std::getenv("TPCB_TXNS")) txns = std::atoi(env);
}

TpcbResult RunTdbTpcb(const TpcbConfig& config) {
  platform::MemUntrustedStore mem;
  platform::SimulatedDiskStore store(&mem);  // Virtual-clock EIDE model.
  platform::MemSecretStore secrets;
  // The paper emulates the one-way counter as a file on the same disk, so
  // TDB-S pays one extra (non-sequential) write per transaction (§7.2).
  platform::StoreBackedCounter counter(&store);
  TDB_CHECK(secrets.Provision(Slice("tpcb-secret")).ok());

  chunk::ChunkStoreOptions copts;
  copts.security = config.security;
  copts.segment_size = 256 * 1024;
  copts.max_utilization = config.max_utilization;
  // DRM devices recover rarely; the paper defers checkpoints to idle time,
  // so the benchmark tolerates a long residual log (recovery stays in the
  // seconds range; see bench/recovery_micro).
  copts.checkpoint_interval_bytes = 48ull * 1024 * 1024;
  auto chunks =
      chunk::ChunkStore::Open(&store, &secrets, &counter, copts).value();
  object::ObjectStoreOptions oopts;
  oopts.cache_capacity_bytes = config.cache_bytes();
  oopts.locking_enabled = false;  // Single-threaded driver (§4.2.3 option).
  auto objects = object::ObjectStore::Open(chunks.get(), oopts).value();
  TDB_CHECK(RegisterTpcbClasses(objects.get()).ok());
  auto colls = collection::CollectionStore::Open(objects.get()).value();

  CollectionTables tables(colls.get(), ById());
  TpcbResult result =
      Measure(config, store, &tables, [&] { return chunks->Stats(); });
  result.utilization = chunks->Stats().utilization();
  result.db_size_bytes = chunks->Stats().total_bytes;
  TDB_CHECK(chunks->Close().ok());
  return result;
}

TpcbResult RunBaselineTpcb(const TpcbConfig& config) {
  platform::MemUntrustedStore mem;
  platform::SimulatedDiskStore store(&mem);
  baseline::BaselineDb::Options options;
  options.cache_bytes = config.cache_bytes();
  auto db = baseline::BaselineDb::Open(&store, options).value();

  BaselineTables tables(db.get());
  TpcbResult result =
      Measure(config, store, &tables, [&] { return mem.bytes_written(); });
  result.db_size_bytes = *db->TotalFileBytes();
  TDB_CHECK(db->Close().ok());
  return result;
}

}  // namespace tdb::workload
