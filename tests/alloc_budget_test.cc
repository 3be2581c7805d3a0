// Heap-allocation budgets of the hot paths: a warm chunk-cache hit, a warm
// one-object durable transaction, a warm hash-index point query and a
// TPC-B-shaped transaction (three indexed updates and a history insert,
// committed durably). The binary replaces the global operator new with a
// counting one; each test runs its operation until the caches are warm and
// then averages the allocations of a fixed number of repetitions.
//
// Sanitizer builds install their own allocator, so the counts (and the
// replacement itself) are compiled out there.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "chunk/chunk_store.h"
#include "collection/collection.h"
#include "common/random.h"
#include "object/object_store.h"
#include "platform/mem_store.h"
#include "platform/one_way_counter.h"
#include "platform/secret_store.h"
#include "workload/tpcb.h"

#ifndef TDB_ALLOC_BUDGET_SKIP

namespace {
std::atomic<bool> g_counting{false};
std::atomic<uint64_t> g_allocs{0};
}  // namespace

void* operator new(size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
// GCC cannot see that this file replaces operator new as well.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

#endif  // TDB_ALLOC_BUDGET_SKIP

namespace tdb {
namespace {

namespace coll = collection;
namespace obj = object;

#ifdef TDB_ALLOC_BUDGET_SKIP
#define SKIP_UNDER_SANITIZER() \
  GTEST_SKIP() << "allocation counts are not meaningful under a sanitizer"
#else
#define SKIP_UNDER_SANITIZER() (void)0
#endif

// Average operator-new calls per call of `op` over `reps` calls. `op`
// returns a Status, which must be OK.
template <typename Op>
double AllocsPerCall(int reps, Op op) {
#ifdef TDB_ALLOC_BUDGET_SKIP
  (void)reps;
  (void)op;
  return 0;
#else
  g_allocs.store(0);
  g_counting.store(true);
  for (int i = 0; i < reps; i++) {
    Status s = op();
    if (!s.ok()) {
      g_counting.store(false);
      ADD_FAILURE() << s.ToString();
      return 0;
    }
  }
  g_counting.store(false);
  return static_cast<double>(g_allocs.load()) / reps;
#endif
}

using workload::TpcbRecord;

// The benchmark's configuration: AES-128 + SHA-256, no compression, the
// default chunk cache, an in-memory device.
struct Env {
  platform::MemUntrustedStore store;
  platform::MemSecretStore secrets;
  platform::MemOneWayCounter counter;
  std::unique_ptr<chunk::ChunkStore> chunks;
  std::unique_ptr<obj::ObjectStore> objects;
  std::unique_ptr<coll::CollectionStore> collections;

  Env() {
    TDB_CHECK(secrets.Provision(Slice("alloc-budget")).ok());
    chunk::ChunkStoreOptions copts;
    copts.security = crypto::SecurityConfig::Modern();
    copts.compression = false;
    copts.segment_size = 256 * 1024;
    copts.max_utilization = 0.6;
    chunks = std::move(
        chunk::ChunkStore::Open(&store, &secrets, &counter, copts).value());
    obj::ObjectStoreOptions oopts;
    oopts.locking_enabled = false;
    objects = std::move(obj::ObjectStore::Open(chunks.get(), oopts).value());
    TDB_CHECK(workload::RegisterTpcbClasses(objects.get()).ok());
    collections =
        std::move(coll::CollectionStore::Open(objects.get()).value());
  }
};

// Operator-new calls per operation with the same store operations before
// the hot paths were taken off the allocator (commit 160c612), and the
// budgets they are held to now (measured: 1, 14.0, 5.0 and 65.1). The
// point query and the TPC-B transaction are the TPC-B driver's since it
// replaced this file's copies; the counts did not move.
constexpr double kBeforeCacheHitRead = 1.00;  // The returned copy.
constexpr double kBeforeObjectTxn = 57.59;
constexpr double kBeforePointQuery = 30.88;
constexpr double kBeforeTpcbTxn = 372.44;
constexpr double kBudgetCacheHitRead = 1;
constexpr double kBudgetObjectTxn = 18;
constexpr double kBudgetPointQuery = 7;
constexpr double kBudgetTpcbTxn = 90;

TEST(AllocBudgetTest, WarmChunkCacheHitRead) {
  SKIP_UNDER_SANITIZER();
  Env env;
  const chunk::ChunkId cid = env.chunks->AllocateChunkId();
  ASSERT_TRUE(env.chunks->Write(cid, Buffer(100, 7), true).ok());
  ASSERT_TRUE(env.chunks->Read(cid).ok());
  const double allocs = AllocsPerCall(100, [&] {
    return env.chunks->Read(cid).status();
  });
  std::printf("chunk-cache-hit Read: %.2f allocations (before %.2f)\n",
              allocs, kBeforeCacheHitRead);
  EXPECT_LE(allocs, kBudgetCacheHitRead);
}

TEST(AllocBudgetTest, WarmOneObjectDurableTransaction) {
  SKIP_UNDER_SANITIZER();
  Env env;
  obj::ObjectId oid;
  {
    obj::Transaction t(env.objects.get());
    oid = t.Insert(std::make_unique<TpcbRecord>(1, 0)).value();
    ASSERT_TRUE(t.Commit(true).ok());
  }
  auto txn = [&] {
    obj::Transaction t(env.objects.get());
    auto r = t.OpenWritable<TpcbRecord>(oid);
    TDB_RETURN_IF_ERROR(r.status());
    (*r)->balance += 1;
    return t.Commit(true);
  };
  for (int i = 0; i < 50; i++) ASSERT_TRUE(txn().ok());
  const double allocs = AllocsPerCall(200, txn);
  std::printf("one-object durable Transaction: %.2f allocations "
              "(before %.2f)\n",
              allocs, kBeforeObjectTxn);
  EXPECT_LE(allocs, kBudgetObjectTxn);
}

// TPC-B tables small enough to stay in both caches.
struct Tpcb {
  Env env;
  std::unique_ptr<workload::TpcbDriver> driver;
  Random rng{11};

  Tpcb() {
    workload::TpcbSpec spec;
    spec.accounts = 1000;
    spec.tellers = 100;
    spec.branches = 10;
    spec.history = 0;
    spec.seed = 11;
    auto opened = workload::TpcbDriver::Open(env.collections.get(), spec,
                                             /*create=*/true);
    TDB_CHECK(opened.ok(), opened.status().ToString());
    driver = std::move(opened).value();
  }

  Status PointQuery() {
    const auto id = static_cast<int32_t>(rng.Uniform(1000));
    return driver->ReadAccount(id).status();
  }

  Status Transaction() { return driver->Run(1); }
};

TEST(AllocBudgetTest, WarmHashIndexPointQuery) {
  SKIP_UNDER_SANITIZER();
  Tpcb db;
  for (int i = 0; i < 3000; i++) ASSERT_TRUE(db.PointQuery().ok());
  const double allocs = AllocsPerCall(500, [&] { return db.PointQuery(); });
  std::printf("hash-index point Query: %.2f allocations (before %.2f)\n",
              allocs, kBeforePointQuery);
  EXPECT_LE(allocs, kBudgetPointQuery);
}

TEST(AllocBudgetTest, TpcbShapedTransaction) {
  SKIP_UNDER_SANITIZER();
  Tpcb db;
  for (int i = 0; i < 2000; i++) ASSERT_TRUE(db.Transaction().ok());
  const double allocs = AllocsPerCall(500, [&] { return db.Transaction(); });
  std::printf("TPC-B-shaped transaction: %.2f allocations (before %.2f)\n",
              allocs, kBeforeTpcbTxn);
  EXPECT_LE(allocs, kBudgetTpcbTxn);
  EXPECT_LE(allocs, kBeforeTpcbTxn / 3);
}

}  // namespace
}  // namespace tdb
