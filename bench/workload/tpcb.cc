#include "workload/tpcb.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "baseline/baseline_db.h"
#include "collection/collection.h"
#include "common/coding.h"
#include "common/random.h"
#include "platform/mem_store.h"
#include "platform/sim_disk.h"
#include "platform/one_way_counter.h"
#include "platform/secret_store.h"

namespace tdb::bench {

namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// 100-byte record with a 4-byte unique id (§7.1).
constexpr object::ClassId kTpcbRecordClass = 200;
constexpr size_t kPadSize = 80;

class TpcbRecord : public object::Object {
 public:
  TpcbRecord() = default;
  TpcbRecord(int32_t id, int64_t balance) : id_(id), balance_(balance) {
    pad_.assign(kPadSize, 0x20);
  }

  object::ClassId class_id() const override { return kTpcbRecordClass; }
  void Pickle(object::Pickler* p) const override {
    p->PutInt32(id_);
    p->PutInt64(balance_);
    p->PutBytes(pad_);
  }
  Status UnpickleFrom(object::Unpickler* u) override {
    TDB_RETURN_IF_ERROR(u->GetInt32(&id_));
    TDB_RETURN_IF_ERROR(u->GetInt64(&balance_));
    return u->GetBytes(&pad_);
  }
  size_t ApproxSize() const override { return sizeof(*this) + pad_.size(); }

  int32_t id_ = 0;
  int64_t balance_ = 0;
  Buffer pad_;
};

using RecordIndexer = collection::Indexer<TpcbRecord, collection::IntKey>;

std::shared_ptr<collection::GenericIndexer> ById() {
  return std::make_shared<RecordIndexer>(
      "by-id", collection::Uniqueness::kUnique,
      collection::IndexKind::kHashTable,
      [](const TpcbRecord& r) { return collection::IntKey(r.id_); });
}

void Check(const Status& s, const char* what) {
  if (!s.ok()) {
    std::fprintf(stderr, "tpcb: %s failed: %s\n", what, s.ToString().c_str());
    std::abort();
  }
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
  Check(secrets.Provision(Slice("tpcb-secret")), "provision");

  chunk::ChunkStoreOptions copts;
  copts.security = config.security;
  copts.segment_size = 256 * 1024;
  copts.max_utilization = config.max_utilization;
  // DRM devices recover rarely; the paper defers checkpoints to idle time,
  // so the benchmark tolerates a long residual log (recovery stays in the
  // seconds range; see bench/recovery_micro).
  copts.checkpoint_interval_bytes = 48ull * 1024 * 1024;
  auto chunks_or = chunk::ChunkStore::Open(&store, &secrets, &counter, copts);
  Check(chunks_or.status(), "chunk store open");
  auto chunks = std::move(chunks_or).value();

  object::ObjectStoreOptions oopts;
  oopts.cache_capacity_bytes = config.cache_bytes();
  oopts.locking_enabled = false;  // Single-threaded driver (§4.2.3 option).
  auto objects_or = object::ObjectStore::Open(chunks.get(), oopts);
  Check(objects_or.status(), "object store open");
  auto objects = std::move(objects_or).value();
  Check(objects->registry().Register<TpcbRecord>(kTpcbRecordClass),
        "register");

  auto colls_or = collection::CollectionStore::Open(objects.get());
  Check(colls_or.status(), "collection store open");
  auto colls = std::move(colls_or).value();

  const auto start_setup = Clock::now();
  const char* kTables[] = {"account", "teller", "branch", "history"};
  const int sizes[] = {config.accounts(), config.tellers(), config.branches(),
                       config.history_init()};
  for (int t = 0; t < 4; t++) {
    collection::CTransaction txn(colls.get());
    auto coll = txn.CreateCollection(kTables[t], ById());
    Check(coll.status(), "create collection");
    Check(txn.Commit(false), "commit ddl");
    // Populate in batches of 1000 (nondurable between, durable at end).
    int remaining = sizes[t];
    int next_id = 0;
    while (remaining > 0) {
      collection::CTransaction load(colls.get());
      auto c = load.WriteCollection(kTables[t]);
      Check(c.status(), "open collection");
      int batch = std::min(remaining, 1000);
      for (int i = 0; i < batch; i++) {
        Check((*c)->Insert(&load,
                           std::make_unique<TpcbRecord>(next_id++, 0))
                  .status(),
              "populate insert");
      }
      remaining -= batch;
      Check(load.Commit(remaining == 0), "populate commit");
    }
  }

  TpcbResult result;
  result.setup_seconds = Seconds(start_setup);

  // --- Measured run ------------------------------------------------------
  Random rng(config.seed);
  int32_t next_history_id = config.history_init();
  const int half = config.txns / 2;
  double later_seconds = 0;
  uint64_t later_bytes_start = 0;
  double later_sim_start = 0;

  auto indexer = ById();
  auto one_txn = [&]() {
    collection::CTransaction txn(colls.get());
    const char* kUpdated[] = {"account", "teller", "branch"};
    const int limits[] = {config.accounts(), config.tellers(),
                          config.branches()};
    int64_t delta = static_cast<int64_t>(rng.Uniform(1000)) - 500;
    for (int t = 0; t < 3; t++) {
      // Read-only collection handle: updates flow through the iterator.
      auto coll = txn.ReadCollection(kUpdated[t]);
      Check(coll.status(), "open table");
      collection::IntKey key(
          static_cast<int64_t>(rng.Uniform(limits[t])));
      auto it = (*coll)->Query(&txn, *indexer, key);
      Check(it.status(), "query");
      auto record = (*it)->Write<TpcbRecord>();
      Check(record.status(), "write deref");
      (*record)->balance_ += delta;
      Check((*it)->Close(), "iterator close");
    }
    auto history = txn.WriteCollection("history");
    Check(history.status(), "open history");
    Check((*history)
              ->Insert(&txn,
                       std::make_unique<TpcbRecord>(next_history_id++, delta))
              .status(),
          "history insert");
    Check(txn.Commit(true), "txn commit");
  };

  for (int i = 0; i < config.txns; i++) {
    if (i == half) {
      later_bytes_start = chunks->Stats().bytes_appended;
      later_sim_start = store.simulated_seconds();
      later_seconds = 0;
    }
    auto t0 = Clock::now();
    one_txn();
    later_seconds += Seconds(t0);
  }

  int later_txns = config.txns - half;
  result.txns = config.txns;
  double io_seconds = store.simulated_seconds() - later_sim_start;
  result.avg_response_us =
      (later_seconds + io_seconds) * 1e6 / later_txns;
  result.bytes_per_txn =
      static_cast<double>(chunks->Stats().bytes_appended -
                          later_bytes_start) /
      later_txns;
  result.utilization = chunks->Stats().utilization();
  result.db_size_bytes = chunks->Stats().total_bytes;
  if (std::getenv("TPCB_DEBUG") != nullptr) {
    const auto& s = chunks->Stats();
    std::fprintf(stderr,
                 "[tpcb debug] data=%llu map=%llu commit=%llu reloc=%llu "
                 "appended=%llu ckpts=%llu cleaned=%llu live=%llu "
                 "total=%llu\n",
                 (unsigned long long)s.data_bytes,
                 (unsigned long long)s.map_bytes,
                 (unsigned long long)s.commit_bytes,
                 (unsigned long long)s.relocated_bytes,
                 (unsigned long long)s.bytes_appended,
                 (unsigned long long)s.checkpoints,
                 (unsigned long long)s.cleaned_segments,
                 (unsigned long long)s.live_bytes,
                 (unsigned long long)s.total_bytes);
    chunks->DumpSegmentCensus();
  }
  Check(chunks->Close(), "close");
  return result;
}

TpcbResult RunBaselineTpcb(const TpcbConfig& config) {
  platform::MemUntrustedStore mem;
  platform::SimulatedDiskStore store(&mem);
  baseline::BaselineDb::Options options;
  options.cache_bytes = config.cache_bytes();
  auto db_or = baseline::BaselineDb::Open(&store, options);
  Check(db_or.status(), "baseline open");
  auto db = std::move(db_or).value();

  // Record value: 100 bytes (id implicit in the key, balance + padding).
  auto encode_value = [](int64_t balance) {
    Buffer value;
    PutFixed64(&value, static_cast<uint64_t>(balance));
    value.resize(96, 0x20);
    return value;
  };
  auto key_of = [](int32_t id) {
    Buffer key;
    PutFixed32(&key, static_cast<uint32_t>(id));
    return key;
  };

  const auto start_setup = Clock::now();
  const char* kTables[] = {"account", "teller", "branch", "history"};
  const int sizes[] = {config.accounts(), config.tellers(), config.branches(),
                       config.history_init()};
  baseline::BaselineDb::TreeId trees[4];
  for (int t = 0; t < 4; t++) {
    auto tree = db->CreateTree(kTables[t]);
    Check(tree.status(), "create tree");
    trees[t] = *tree;
    int remaining = sizes[t];
    int next_id = 0;
    while (remaining > 0) {
      baseline::BaselineDb::Txn txn(db.get());
      int batch = std::min(remaining, 1000);
      for (int i = 0; i < batch; i++) {
        Check(txn.Put(trees[t], key_of(next_id++), encode_value(0)),
              "populate put");
      }
      remaining -= batch;
      Check(txn.Commit(), "populate commit");
    }
  }

  TpcbResult result;
  result.setup_seconds = Seconds(start_setup);

  Random rng(config.seed);
  int32_t next_history_id = config.history_init();
  const int half = config.txns / 2;
  double later_seconds = 0;
  uint64_t later_bytes_start = 0;
  double later_sim_start = 0;

  auto store_bytes = [&]() { return mem.bytes_written(); };

  auto one_txn = [&]() {
    baseline::BaselineDb::Txn txn(db.get());
    const int limits[] = {config.accounts(), config.tellers(),
                          config.branches()};
    int64_t delta = static_cast<int64_t>(rng.Uniform(1000)) - 500;
    for (int t = 0; t < 3; t++) {
      Buffer key = key_of(static_cast<int32_t>(rng.Uniform(limits[t])));
      auto value = txn.Get(trees[t], key);
      Check(value.status(), "get");
      int64_t balance = static_cast<int64_t>(DecodeFixed64(value->data()));
      Check(txn.Put(trees[t], key, encode_value(balance + delta)), "put");
    }
    Check(txn.Put(trees[3], key_of(next_history_id++), encode_value(delta)),
          "history put");
    Check(txn.Commit(), "commit");
  };

  for (int i = 0; i < config.txns; i++) {
    if (i == half) {
      later_bytes_start = store_bytes();
      later_sim_start = store.simulated_seconds();
      later_seconds = 0;
    }
    auto t0 = Clock::now();
    one_txn();
    later_seconds += Seconds(t0);
  }

  int later_txns = config.txns - half;
  result.txns = config.txns;
  double io_seconds = store.simulated_seconds() - later_sim_start;
  result.avg_response_us = (later_seconds + io_seconds) * 1e6 / later_txns;
  result.bytes_per_txn =
      static_cast<double>(store_bytes() - later_bytes_start) / later_txns;
  result.db_size_bytes = *db->TotalFileBytes();
  Check(db->Close(), "close");
  return result;
}

void PrintTpcbRow(const std::string& label, const TpcbResult& result) {
  std::printf("%-12s %12.1f %14.0f %10.1f MB  (%llu txns, setup %.1fs)\n",
              label.c_str(), result.avg_response_us, result.bytes_per_txn,
              result.db_size_bytes / (1024.0 * 1024.0),
              static_cast<unsigned long long>(result.txns),
              result.setup_seconds);
}

}  // namespace tdb::bench
