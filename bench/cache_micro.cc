// Ablation A6 (§4.2.2): the object cache. Compares reads that hit the
// cache (unpickled, decrypted, validated objects ready for use) against
// reads that miss and pay the full chunk-store path, across cache sizes.

#include <benchmark/benchmark.h>

#include "bench_metrics.h"
#include "common/random.h"
#include "object/object_store.h"
#include "platform/mem_store.h"
#include "platform/one_way_counter.h"
#include "platform/secret_store.h"

namespace {

using namespace tdb;
using namespace tdb::object;

constexpr ClassId kBlobClass = 220;

class Blob : public Object {
 public:
  Blob() = default;
  explicit Blob(size_t size) { data_.assign(size, 0x42); }
  ClassId class_id() const override { return kBlobClass; }
  void Pickle(Pickler* p) const override { p->PutBytes(data_); }
  Status UnpickleFrom(Unpickler* u) override { return u->GetBytes(&data_); }
  size_t ApproxSize() const override { return sizeof(*this) + data_.size(); }
  Buffer data_;
};

struct Fixture {
  platform::MemUntrustedStore store;
  platform::MemSecretStore secrets;
  platform::MemOneWayCounter counter;
  std::unique_ptr<chunk::ChunkStore> chunks;
  std::unique_ptr<ObjectStore> objects;
  std::vector<ObjectId> oids;

  Fixture(size_t cache_bytes, int n_objects, size_t object_size) {
    (void)secrets.Provision(Slice("s")).ok();
    chunk::ChunkStoreOptions copts;
    copts.security = crypto::SecurityConfig::PaperTdbS();
    copts.segment_size = 256 * 1024;
    copts.checkpoint_interval_bytes = 16 * 1024 * 1024;
    chunks = std::move(chunk::ChunkStore::Open(&store, &secrets, &counter,
                                               copts))
                 .value();
    ObjectStoreOptions oopts;
    oopts.cache_capacity_bytes = cache_bytes;
    oopts.locking_enabled = false;
    objects = std::move(ObjectStore::Open(chunks.get(), oopts)).value();
    (void)objects->registry().Register<Blob>(kBlobClass).ok();
    Transaction txn(objects.get());
    for (int i = 0; i < n_objects; i++) {
      oids.push_back(*txn.Insert(std::make_unique<Blob>(object_size)));
    }
    (void)txn.Commit(false).ok();
  }

  ~Fixture() {
    if (chunks != nullptr) {
      benchutil::AccumulateMetrics(chunks->metrics()->Snapshot());
    }
  }
};

// Working set fits: after warmup, every read is a cache hit.
void BM_ObjectReadCached(benchmark::State& state) {
  Fixture fx(/*cache=*/16 << 20, /*objects=*/1000, /*size=*/200);
  Random rng(1);
  for (auto _ : state) {
    Transaction txn(fx.objects.get());
    auto blob =
        txn.OpenReadonly<Blob>(fx.oids[rng.Uniform(fx.oids.size())]);
    if (!blob.ok()) state.SkipWithError(blob.status().ToString().c_str());
    benchmark::DoNotOptimize((*blob)->data_.size());
    (void)txn.Commit(false).ok();
  }
}
BENCHMARK(BM_ObjectReadCached);

// Tiny cache: most reads miss and pay decrypt+validate+unpickle.
void BM_ObjectReadUncached(benchmark::State& state) {
  Fixture fx(/*cache=*/8 * 1024, /*objects=*/1000, /*size=*/200);
  Random rng(2);
  for (auto _ : state) {
    Transaction txn(fx.objects.get());
    auto blob =
        txn.OpenReadonly<Blob>(fx.oids[rng.Uniform(fx.oids.size())]);
    if (!blob.ok()) state.SkipWithError(blob.status().ToString().c_str());
    benchmark::DoNotOptimize((*blob)->data_.size());
    (void)txn.Commit(false).ok();
  }
}
BENCHMARK(BM_ObjectReadUncached);

// Write path: pickle + seal + hash + log append per commit.
void BM_ObjectWriteCommit(benchmark::State& state) {
  Fixture fx(/*cache=*/16 << 20, /*objects=*/1000, /*size=*/200);
  Random rng(3);
  for (auto _ : state) {
    Transaction txn(fx.objects.get());
    auto blob =
        txn.OpenWritable<Blob>(fx.oids[rng.Uniform(fx.oids.size())]);
    if (!blob.ok()) state.SkipWithError(blob.status().ToString().c_str());
    (*blob)->data_[0] ^= 1;
    Status s = txn.Commit(false);
    if (!s.ok()) state.SkipWithError(s.ToString().c_str());
  }
}
BENCHMARK(BM_ObjectWriteCommit);

// Bulk load: one transaction inserts range(0) objects and opens each
// (as a collection load does for its index nodes) under a cache far
// smaller than the load, so every open finds the cache over capacity with
// nothing but held (dirty) entries. Held entries are off the LRU list, so
// eviction never walks them and the time per insert must stay flat as the
// transaction grows.
void BM_ObjectBulkInsert(benchmark::State& state) {
  const int inserts = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    auto fx = std::make_unique<Fixture>(/*cache=*/64 << 10, /*objects=*/0,
                                        /*size=*/100);
    state.ResumeTiming();
    Transaction txn(fx->objects.get());
    for (int i = 0; i < inserts; i++) {
      auto oid = txn.Insert(std::make_unique<Blob>(100));
      if (!oid.ok()) state.SkipWithError(oid.status().ToString().c_str());
      auto blob = txn.OpenWritable<Blob>(*oid);
      if (!blob.ok()) state.SkipWithError(blob.status().ToString().c_str());
    }
    Status s = txn.Commit(false);
    if (!s.ok()) state.SkipWithError(s.ToString().c_str());
    state.PauseTiming();
    fx.reset();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * inserts);
}
BENCHMARK(BM_ObjectBulkInsert)
    ->Arg(1000)->Arg(4000)->Arg(16000)->Unit(benchmark::kMillisecond);

}  // namespace

TDB_BENCH_MAIN_WITH_METRICS();
