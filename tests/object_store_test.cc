#include "object/object_store.h"

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <optional>
#include <set>
#include <thread>

#include "common/random.h"
#include "platform/fault_injection.h"
#include "platform/mem_store.h"
#include "platform/one_way_counter.h"
#include "platform/prefix_store.h"
#include "platform/secret_store.h"
#include "shard/sharded_chunk_store.h"
#include "workload/tpcb.h"

namespace tdb::object {
namespace {

// --- Example application classes (the paper's Figure 4 Meter/Profile) ---

constexpr ClassId kMeterClass = 100;
constexpr ClassId kProfileClass = 101;
constexpr ClassId kExtendedMeterClass = 102;

class Meter : public Object {
 public:
  Meter() = default;
  Meter(int32_t id, int32_t views, int32_t prints)
      : id_(id), view_count_(views), print_count_(prints) {}

  ClassId class_id() const override { return kMeterClass; }
  void Pickle(Pickler* p) const override {
    p->PutInt32(id_);
    p->PutInt32(view_count_);
    p->PutInt32(print_count_);
  }
  Status UnpickleFrom(Unpickler* u) override {
    TDB_RETURN_IF_ERROR(u->GetInt32(&id_));
    TDB_RETURN_IF_ERROR(u->GetInt32(&view_count_));
    return u->GetInt32(&print_count_);
  }
  size_t ApproxSize() const override { return sizeof(*this); }

  int32_t id() const { return id_; }
  int32_t view_count() const { return view_count_; }
  int32_t print_count() const { return print_count_; }
  void IncrementViews() { view_count_++; }
  void Reset() { view_count_ = print_count_ = 0; }

 private:
  int32_t id_ = 0;
  int32_t view_count_ = 0;
  int32_t print_count_ = 0;
};

// Schema evolution by subclassing (§5.1.1 allows this for collections too).
class ExtendedMeter : public Meter {
 public:
  ExtendedMeter() = default;
  ClassId class_id() const override { return kExtendedMeterClass; }
  void Pickle(Pickler* p) const override {
    Meter::Pickle(p);
    p->PutString(region_);
  }
  Status UnpickleFrom(Unpickler* u) override {
    TDB_RETURN_IF_ERROR(Meter::UnpickleFrom(u));
    return u->GetString(&region_);
  }
  std::string region_;
};

class Profile : public Object {
 public:
  ClassId class_id() const override { return kProfileClass; }
  void Pickle(Pickler* p) const override {
    p->PutUint64(meters_.size());
    for (ObjectId m : meters_) p->PutUint64(m);
  }
  Status UnpickleFrom(Unpickler* u) override {
    uint64_t n;
    TDB_RETURN_IF_ERROR(u->GetUint64(&n));
    meters_.resize(n);
    for (uint64_t i = 0; i < n; i++) {
      TDB_RETURN_IF_ERROR(u->GetUint64(&meters_[i]));
    }
    return Status::OK();
  }
  size_t ApproxSize() const override {
    return sizeof(*this) + meters_.size() * sizeof(ObjectId);
  }

  std::vector<ObjectId> meters_;
};

struct Env {
  platform::MemUntrustedStore store;
  platform::MemSecretStore secrets;
  platform::MemOneWayCounter counter;
  std::unique_ptr<chunk::ChunkStore> chunks;
  std::unique_ptr<ObjectStore> objects;

  explicit Env(ObjectStoreOptions options = {}) {
    TDB_CHECK(secrets.Provision(Slice("obj-secret")).ok());
    OpenStores(options);
  }

  void OpenStores(ObjectStoreOptions options = {}) {
    objects.reset();
    chunks.reset();
    chunk::ChunkStoreOptions copts;
    copts.security = crypto::SecurityConfig::Modern();
    copts.segment_size = 8 * 1024;
    copts.map_fanout = 8;
    auto cs = chunk::ChunkStore::Open(&store, &secrets, &counter, copts);
    TDB_CHECK(cs.ok(), cs.status().ToString());
    chunks = std::move(cs).value();
    auto os = ObjectStore::Open(chunks.get(), options);
    TDB_CHECK(os.ok(), os.status().ToString());
    objects = std::move(os).value();
    RegisterAll();
  }

  void RegisterAll() {
    TDB_CHECK(objects->registry().Register<Meter>(kMeterClass).ok());
    TDB_CHECK(objects->registry().Register<Profile>(kProfileClass).ok());
    TDB_CHECK(
        objects->registry().Register<ExtendedMeter>(kExtendedMeterClass).ok());
  }

  // Simulates a device restart.
  void Reopen(ObjectStoreOptions options = {}) {
    TDB_CHECK(chunks->Close().ok());
    OpenStores(options);
  }
};

// ----------------------------------------------------------------- pickle

TEST(PickleTest, AllTypesRoundtrip) {
  Pickler p;
  p.PutBool(true);
  p.PutInt32(-12345);
  p.PutInt64(-99999999999LL);
  p.PutUint32(77);
  p.PutUint64(1ull << 60);
  p.PutDouble(3.14159);
  p.PutString("hello");
  const Buffer raw = {0x00, 0x01, 0x02};
  p.PutBytes(raw);

  Unpickler u{Slice(p.buffer())};
  bool b;
  int32_t i32;
  int64_t i64;
  uint32_t u32;
  uint64_t u64;
  double d;
  std::string s;
  Buffer bytes;
  ASSERT_TRUE(u.GetBool(&b).ok());
  ASSERT_TRUE(u.GetInt32(&i32).ok());
  ASSERT_TRUE(u.GetInt64(&i64).ok());
  ASSERT_TRUE(u.GetUint32(&u32).ok());
  ASSERT_TRUE(u.GetUint64(&u64).ok());
  ASSERT_TRUE(u.GetDouble(&d).ok());
  ASSERT_TRUE(u.GetString(&s).ok());
  ASSERT_TRUE(u.GetBytes(&bytes).ok());
  EXPECT_TRUE(b);
  EXPECT_EQ(i32, -12345);
  EXPECT_EQ(i64, -99999999999LL);
  EXPECT_EQ(u32, 77u);
  EXPECT_EQ(u64, 1ull << 60);
  EXPECT_DOUBLE_EQ(d, 3.14159);
  EXPECT_EQ(s, "hello");
  EXPECT_EQ(bytes.size(), 3u);
  EXPECT_TRUE(u.done());
}

TEST(PickleTest, SignedBoundaries) {
  for (int64_t v : {int64_t(0), int64_t(-1), int64_t(1), INT64_MIN,
                    INT64_MAX}) {
    Pickler p;
    p.PutInt64(v);
    Unpickler u{Slice(p.buffer())};
    int64_t out;
    ASSERT_TRUE(u.GetInt64(&out).ok());
    EXPECT_EQ(out, v);
  }
}

TEST(PickleTest, TruncatedInputRejected) {
  Pickler p;
  p.PutString("long string value");
  Buffer data = p.Take();
  data.resize(data.size() - 3);
  Unpickler u{Slice(data)};
  std::string s;
  EXPECT_TRUE(u.GetString(&s).IsCorruption());
}

// --------------------------------------------------------------- registry

TEST(ClassRegistryTest, DuplicateIdRejected) {
  ClassRegistry registry;
  ASSERT_TRUE(registry.Register<Meter>(1).ok());
  EXPECT_EQ(registry.Register<Profile>(1).code(),
            Status::Code::kAlreadyExists);
}

TEST(ClassRegistryTest, UnregisteredClassFails) {
  ClassRegistry registry;
  Pickler p;
  Unpickler u{Slice(p.buffer())};
  EXPECT_TRUE(registry.Unpickle(42, &u).status().IsNotFound());
}

// ------------------------------------------------------------ object store

TEST(ObjectStoreTest, InsertOpenCommitReadBack) {
  Env env;
  ObjectId meter_id;
  {
    Transaction txn(env.objects.get());
    auto id = txn.Insert(std::make_unique<Meter>(7, 3, 1));
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    meter_id = *id;
    ASSERT_TRUE(txn.Commit().ok());
  }
  {
    Transaction txn(env.objects.get());
    auto meter = txn.OpenReadonly<Meter>(meter_id);
    ASSERT_TRUE(meter.ok()) << meter.status().ToString();
    EXPECT_EQ((*meter)->id(), 7);
    EXPECT_EQ((*meter)->view_count(), 3);
    ASSERT_TRUE(txn.Commit().ok());
  }
}

TEST(ObjectStoreTest, PaperFigure4Scenario) {
  Env env;
  // Add a new Meter to the Profile registered as root object.
  ObjectId profile_id;
  {
    Transaction t(env.objects.get());
    auto pid = t.Insert(std::make_unique<Profile>());
    ASSERT_TRUE(pid.ok());
    profile_id = *pid;
    auto mid = t.Insert(std::make_unique<Meter>(1, 0, 0));
    ASSERT_TRUE(mid.ok());
    auto profile = t.OpenWritable<Profile>(profile_id);
    ASSERT_TRUE(profile.ok());
    (*profile)->meters_.push_back(*mid);
    ASSERT_TRUE(t.Commit().ok());
    ASSERT_TRUE(env.objects->SetRoot(profile_id).ok());
  }
  // Increment view count for the first good.
  {
    Transaction t2(env.objects.get());
    auto root = env.objects->GetRoot();
    ASSERT_TRUE(root.ok());
    auto profile = t2.OpenReadonly<Profile>(*root);
    ASSERT_TRUE(profile.ok());
    ObjectId meter_id = (*profile)->meters_[0];
    auto meter = t2.OpenWritable<Meter>(meter_id);
    ASSERT_TRUE(meter.ok());
    (*meter)->IncrementViews();
    ASSERT_TRUE(t2.Commit().ok());
  }
  // Check.
  {
    Transaction t3(env.objects.get());
    auto root = env.objects->GetRoot();
    auto profile = t3.OpenReadonly<Profile>(*root);
    auto meter = t3.OpenReadonly<Meter>((*profile)->meters_[0]);
    ASSERT_TRUE(meter.ok());
    EXPECT_EQ((*meter)->view_count(), 1);
  }
}

TEST(ObjectStoreTest, StateSurvivesRestart) {
  Env env;
  ObjectId meter_id;
  {
    Transaction txn(env.objects.get());
    meter_id = *txn.Insert(std::make_unique<Meter>(9, 42, 17));
    ASSERT_TRUE(txn.Commit(true).ok());
    ASSERT_TRUE(env.objects->SetRoot(meter_id).ok());
  }
  env.Reopen();
  EXPECT_EQ(*env.objects->GetRoot(), meter_id);
  Transaction txn(env.objects.get());
  auto meter = txn.OpenReadonly<Meter>(meter_id);
  ASSERT_TRUE(meter.ok()) << meter.status().ToString();
  EXPECT_EQ((*meter)->view_count(), 42);
}

TEST(ObjectStoreTest, AbortRollsBackModifications) {
  Env env;
  ObjectId meter_id;
  {
    Transaction txn(env.objects.get());
    meter_id = *txn.Insert(std::make_unique<Meter>(1, 10, 0));
    ASSERT_TRUE(txn.Commit().ok());
  }
  {
    Transaction txn(env.objects.get());
    auto meter = txn.OpenWritable<Meter>(meter_id);
    ASSERT_TRUE(meter.ok());
    (*meter)->IncrementViews();
    (*meter)->IncrementViews();
    EXPECT_EQ((*meter)->view_count(), 12);
    ASSERT_TRUE(txn.Abort().ok());
  }
  Transaction txn(env.objects.get());
  auto meter = txn.OpenReadonly<Meter>(meter_id);
  ASSERT_TRUE(meter.ok());
  EXPECT_EQ((*meter)->view_count(), 10);  // Rolled back.
}

TEST(ObjectStoreTest, DestructorAbortsActiveTransaction) {
  Env env;
  ObjectId meter_id;
  {
    Transaction txn(env.objects.get());
    meter_id = *txn.Insert(std::make_unique<Meter>(1, 5, 0));
    ASSERT_TRUE(txn.Commit().ok());
  }
  {
    Transaction txn(env.objects.get());
    auto meter = txn.OpenWritable<Meter>(meter_id);
    ASSERT_TRUE(meter.ok());
    (*meter)->Reset();
    // No commit: destructor aborts.
  }
  Transaction txn(env.objects.get());
  EXPECT_EQ((*txn.OpenReadonly<Meter>(meter_id))->view_count(), 5);
}

TEST(ObjectStoreTest, InsertRolledBackByAbort) {
  Env env;
  ObjectId meter_id;
  {
    Transaction txn(env.objects.get());
    meter_id = *txn.Insert(std::make_unique<Meter>(1, 0, 0));
    ASSERT_TRUE(txn.Abort().ok());
  }
  Transaction txn(env.objects.get());
  EXPECT_TRUE(txn.OpenReadonly<Meter>(meter_id).status().IsNotFound());
}

TEST(ObjectStoreTest, RemoveFreesObject) {
  Env env;
  ObjectId meter_id;
  {
    Transaction txn(env.objects.get());
    meter_id = *txn.Insert(std::make_unique<Meter>(1, 0, 0));
    ASSERT_TRUE(txn.Commit().ok());
  }
  {
    Transaction txn(env.objects.get());
    ASSERT_TRUE(txn.Remove(meter_id).ok());
    ASSERT_TRUE(txn.Commit().ok());
  }
  Transaction txn(env.objects.get());
  EXPECT_TRUE(txn.OpenReadonly<Meter>(meter_id).status().IsNotFound());
}

TEST(ObjectStoreTest, RemoveOfMissingObjectFails) {
  Env env;
  Transaction txn(env.objects.get());
  EXPECT_TRUE(txn.Remove(99999).IsNotFound());
}

TEST(ObjectStoreTest, TypeMismatchCaught) {
  Env env;
  ObjectId meter_id;
  {
    Transaction txn(env.objects.get());
    meter_id = *txn.Insert(std::make_unique<Meter>(1, 0, 0));
    ASSERT_TRUE(txn.Commit().ok());
  }
  Transaction txn(env.objects.get());
  auto as_profile = txn.OpenReadonly<Profile>(meter_id);
  EXPECT_EQ(as_profile.status().code(), Status::Code::kTypeMismatch);
}

TEST(ObjectStoreTest, SubtypingWorksThroughBaseRef) {
  Env env;
  ObjectId ext_id;
  {
    Transaction txn(env.objects.get());
    auto ext = std::make_unique<ExtendedMeter>();
    ext->region_ = "EU";
    ext_id = *txn.Insert(std::move(ext));
    ASSERT_TRUE(txn.Commit().ok());
  }
  Transaction txn(env.objects.get());
  // Open as base class: fine (ExtendedMeter is-a Meter).
  auto base = txn.OpenReadonly<Meter>(ext_id);
  ASSERT_TRUE(base.ok());
  // Checked down-cast back to the subclass (the paper's Ref copy-construct
  // with runtime check).
  auto derived = ref_cast<ExtendedMeter>(*base);
  ASSERT_TRUE(derived.ok());
  EXPECT_EQ((*derived)->region_, "EU");
  // Down-cast to an unrelated class fails cleanly.
  auto wrong = ref_cast<Profile>(*base);
  EXPECT_EQ(wrong.status().code(), Status::Code::kTypeMismatch);
}

TEST(ObjectStoreDeathTest, RefInvalidAfterCommit) {
  Env env;
  Transaction txn(env.objects.get());
  ObjectId id = *txn.Insert(std::make_unique<Meter>(1, 0, 0));
  auto meter = txn.OpenWritable<Meter>(id);
  ASSERT_TRUE(meter.ok());
  ASSERT_TRUE(txn.Commit().ok());
  // Using the Ref after commit is the paper's "checked runtime error".
  EXPECT_DEATH((*meter)->view_count(), "outside its transaction");
}

TEST(ObjectStoreTest, UnregisteredClassFailsOnRead) {
  Env env;
  ObjectId meter_id;
  {
    Transaction txn(env.objects.get());
    meter_id = *txn.Insert(std::make_unique<Meter>(1, 2, 3));
    ASSERT_TRUE(txn.Commit(true).ok());
  }
  // Restart without registering Meter.
  TDB_CHECK(env.chunks->Close().ok());
  chunk::ChunkStoreOptions copts;
  copts.security = crypto::SecurityConfig::Modern();
  copts.segment_size = 8 * 1024;
  copts.map_fanout = 8;
  env.objects.reset();
  env.chunks =
      std::move(chunk::ChunkStore::Open(&env.store, &env.secrets,
                                        &env.counter, copts))
          .value();
  auto os = ObjectStore::Open(env.chunks.get(), {});
  ASSERT_TRUE(os.ok());
  Transaction txn(os->get());
  EXPECT_TRUE(txn.OpenReadonly<Meter>(meter_id).status().IsNotFound());
}

// ------------------------------------------------------------- concurrency

TEST(ObjectStoreConcurrencyTest, WriteLockBlocksSecondWriter) {
  ObjectStoreOptions options;
  options.lock_timeout = std::chrono::milliseconds(100);
  Env env(options);
  ObjectId meter_id;
  {
    Transaction txn(env.objects.get());
    meter_id = *txn.Insert(std::make_unique<Meter>(1, 0, 0));
    ASSERT_TRUE(txn.Commit().ok());
  }
  Transaction writer(env.objects.get());
  ASSERT_TRUE(writer.OpenWritable<Meter>(meter_id).ok());

  // A second transaction times out trying to write the same object.
  Transaction contender(env.objects.get());
  auto result = contender.OpenWritable<Meter>(meter_id);
  EXPECT_TRUE(result.status().IsLockTimeout()) << result.status().ToString();
}

TEST(ObjectStoreConcurrencyTest, SharedReadersCoexist) {
  Env env;
  ObjectId meter_id;
  {
    Transaction txn(env.objects.get());
    meter_id = *txn.Insert(std::make_unique<Meter>(1, 0, 0));
    ASSERT_TRUE(txn.Commit().ok());
  }
  Transaction r1(env.objects.get());
  Transaction r2(env.objects.get());
  EXPECT_TRUE(r1.OpenReadonly<Meter>(meter_id).ok());
  EXPECT_TRUE(r2.OpenReadonly<Meter>(meter_id).ok());
}

TEST(ObjectStoreConcurrencyTest, ReaderBlocksWriterUntilCommit) {
  ObjectStoreOptions options;
  options.lock_timeout = std::chrono::milliseconds(2000);
  Env env(options);
  ObjectId meter_id;
  {
    Transaction txn(env.objects.get());
    meter_id = *txn.Insert(std::make_unique<Meter>(1, 0, 0));
    ASSERT_TRUE(txn.Commit().ok());
  }
  auto reader = std::make_unique<Transaction>(env.objects.get());
  ASSERT_TRUE(reader->OpenReadonly<Meter>(meter_id).ok());

  // Writer thread blocks on the exclusive lock until the reader commits.
  std::thread release([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    ASSERT_TRUE(reader->Commit().ok());
  });
  Transaction writer(env.objects.get());
  auto w = writer.OpenWritable<Meter>(meter_id);
  EXPECT_TRUE(w.ok()) << w.status().ToString();
  release.join();
}

TEST(ObjectStoreConcurrencyTest, LockUpgradeForSoleReader) {
  Env env;
  ObjectId meter_id;
  {
    Transaction txn(env.objects.get());
    meter_id = *txn.Insert(std::make_unique<Meter>(1, 0, 0));
    ASSERT_TRUE(txn.Commit().ok());
  }
  Transaction txn(env.objects.get());
  ASSERT_TRUE(txn.OpenReadonly<Meter>(meter_id).ok());
  auto writable = txn.OpenWritable<Meter>(meter_id);  // Upgrade.
  ASSERT_TRUE(writable.ok()) << writable.status().ToString();
  (*writable)->IncrementViews();
  ASSERT_TRUE(txn.Commit().ok());
}

TEST(ObjectStoreConcurrencyTest, DeadlockBrokenByTimeout) {
  ObjectStoreOptions options;
  options.lock_timeout = std::chrono::milliseconds(100);
  Env env(options);
  ObjectId a, b;
  {
    Transaction txn(env.objects.get());
    a = *txn.Insert(std::make_unique<Meter>(1, 0, 0));
    b = *txn.Insert(std::make_unique<Meter>(2, 0, 0));
    ASSERT_TRUE(txn.Commit().ok());
  }
  Transaction t1(env.objects.get());
  Transaction t2(env.objects.get());
  ASSERT_TRUE(t1.OpenWritable<Meter>(a).ok());
  ASSERT_TRUE(t2.OpenWritable<Meter>(b).ok());

  // t1 wants b (held by t2) while t2 wants a (held by t1): deadlock.
  std::atomic<bool> t2_timed_out{false};
  std::thread th([&] {
    auto r = t2.OpenWritable<Meter>(a);
    if (r.status().IsLockTimeout()) t2_timed_out = true;
    if (!r.ok()) {
      ASSERT_TRUE(t2.Abort().ok());
    }
  });
  auto r1 = t1.OpenWritable<Meter>(b);
  th.join();
  // At least one of the two must have timed out, breaking the deadlock.
  EXPECT_TRUE(r1.status().IsLockTimeout() || t2_timed_out);
}

TEST(ObjectStoreConcurrencyTest, LockingCanBeDisabled) {
  ObjectStoreOptions options;
  options.locking_enabled = false;
  Env env(options);
  ObjectId meter_id;
  {
    Transaction txn(env.objects.get());
    meter_id = *txn.Insert(std::make_unique<Meter>(1, 0, 0));
    ASSERT_TRUE(txn.Commit().ok());
  }
  Transaction t1(env.objects.get());
  Transaction t2(env.objects.get());
  EXPECT_TRUE(t1.OpenWritable<Meter>(meter_id).ok());
  EXPECT_TRUE(t2.OpenWritable<Meter>(meter_id).ok());  // No blocking.
}

// ------------------------------------------------------------------- cache

TEST(ObjectCacheTest, EvictionRespectsCapacityAndLru) {
  ObjectStoreOptions options;
  options.cache_capacity_bytes = 2000;  // Tiny cache.
  Env env(options);
  std::vector<ObjectId> ids;
  {
    Transaction txn(env.objects.get());
    for (int i = 0; i < 50; i++) {
      ids.push_back(*txn.Insert(std::make_unique<Meter>(i, i, 0)));
    }
    ASSERT_TRUE(txn.Commit().ok());
  }
  // After commit, dirty pins are gone; capacity enforcement evicted some.
  EXPECT_LE(env.objects->cache_size_bytes(), 2000u);
  // Everything still readable (cache misses re-fetch).
  Transaction txn(env.objects.get());
  for (int i = 0; i < 50; i++) {
    auto meter = txn.OpenReadonly<Meter>(ids[i]);
    ASSERT_TRUE(meter.ok()) << i;
    EXPECT_EQ((*meter)->view_count(), i);
  }
  EXPECT_GT(env.objects->Stats().cache_misses, 0u);
  EXPECT_GT(env.objects->Stats().cache_evictions, 0u);
}

TEST(ObjectCacheTest, RepeatedReadsHitCache) {
  Env env;
  ObjectId meter_id;
  {
    Transaction txn(env.objects.get());
    meter_id = *txn.Insert(std::make_unique<Meter>(1, 0, 0));
    ASSERT_TRUE(txn.Commit().ok());
  }
  for (int i = 0; i < 10; i++) {
    Transaction txn(env.objects.get());
    ASSERT_TRUE(txn.OpenReadonly<Meter>(meter_id).ok());
  }
  EXPECT_GE(env.objects->Stats().cache_hits, 9u);
}

TEST(ObjectCacheTest, UnitTestsPinAndDirty) {
  ObjectCache cache(300);
  auto* m1 = cache.Put(1, std::make_unique<Meter>(1, 0, 0), false);
  ASSERT_NE(m1, nullptr);
  EXPECT_EQ(cache.Get(1), m1);
  EXPECT_EQ(cache.Get(2), nullptr);

  uint64_t pin_gen = 0;
  ASSERT_EQ(cache.Acquire(1, false, &pin_gen), m1);
  for (ObjectId oid = 2; oid <= 10; oid++) {
    cache.Put(oid, std::make_unique<Meter>(int32_t(oid), 0, 0), false);
  }
  cache.EnforceCapacity();
  // Entry 1 is pinned: must survive even though it is the LRU tail.
  EXPECT_NE(cache.Get(1), nullptr);
  EXPECT_LE(cache.size_bytes(), 300u + 150u);  // Allow one entry overshoot.

  // A stale-generation release (abort erased + re-fetched the oid) must
  // not unpin the replacement entry.
  cache.Unpin(1, pin_gen + 1000);
  cache.Put(11, std::make_unique<Meter>(11, 0, 0), false);
  cache.EnforceCapacity();
  EXPECT_NE(cache.Get(1), nullptr);  // Still pinned.
  cache.Unpin(1, pin_gen);

  // Dirty entries survive too (no-steal).
  cache.Put(20, std::make_unique<Meter>(20, 0, 0), true);
  for (ObjectId oid = 30; oid < 40; oid++) {
    cache.Put(oid, std::make_unique<Meter>(int32_t(oid), 0, 0), false);
  }
  cache.EnforceCapacity();
  EXPECT_NE(cache.Get(20), nullptr);
  cache.SetDirty(20, false);
  for (ObjectId oid = 50; oid < 70; oid++) {
    cache.Put(oid, std::make_unique<Meter>(int32_t(oid), 0, 0), false);
  }
  cache.EnforceCapacity();
  EXPECT_EQ(cache.Get(20), nullptr);  // Now evictable, and evicted.
}

// Charge of one cached Meter (object size plus entry bookkeeping).
size_t MeterCharge() {
  ObjectCache probe(0);
  probe.Put(1, std::make_unique<Meter>(1, 0, 0), false);
  return probe.size_bytes();
}

// Puts clean Meters [first, last) and enforces capacity after each, the
// way the store does on every open.
void FillClean(ObjectCache* cache, ObjectId first, ObjectId last) {
  for (ObjectId oid = first; oid < last; oid++) {
    cache->Put(oid, std::make_unique<Meter>(int32_t(oid), 0, 0), false);
    cache->EnforceCapacity();
  }
}

TEST(ObjectCacheTest, PinnedOrDirtyEntriesAreNeverEvicted) {
  ObjectCache cache(4 * MeterCharge());
  uint64_t pin_gen = 0;
  cache.Put(1, std::make_unique<Meter>(1, 0, 0), false, &pin_gen);
  cache.Put(2, std::make_unique<Meter>(2, 0, 0), true);
  cache.Put(3, std::make_unique<Meter>(3, 0, 0), false);
  uint64_t acquired_gen = 0;
  ASSERT_NE(cache.Acquire(3, false, &acquired_gen), nullptr);
  FillClean(&cache, 10, 200);
  EXPECT_TRUE(cache.Contains(1));
  EXPECT_TRUE(cache.Contains(2));
  EXPECT_TRUE(cache.Contains(3));
  EXPECT_LE(cache.size_bytes(), 4 * MeterCharge());
  // With nothing evictable the cache may exceed its capacity, but it
  // still never drops a held entry.
  ObjectCache full(MeterCharge());
  common::MetricsRegistry registry;
  common::Counter* evictions = registry.GetCounter("object.cache.evictions");
  full.AttachMetrics(nullptr, nullptr, evictions, nullptr);
  for (ObjectId oid = 1; oid <= 5; oid++) {
    full.Put(oid, std::make_unique<Meter>(int32_t(oid), 0, 0), true);
  }
  full.EnforceCapacity();
  EXPECT_EQ(full.entry_count(), 5u);
  EXPECT_EQ(evictions->value(), 0);
  cache.Unpin(1, pin_gen);
  cache.Unpin(3, acquired_gen);
}

TEST(ObjectCacheTest, LastUnpinRelinksAtMru) {
  ObjectCache cache(3 * MeterCharge());
  uint64_t gen = 0;
  cache.Put(1, std::make_unique<Meter>(1, 0, 0), false, &gen);
  cache.Acquire(1, false, &gen);
  FillClean(&cache, 2, 4);  // LRU: 3, 2.
  cache.Unpin(1, gen);      // Still pinned once.
  FillClean(&cache, 4, 5);  // Evicts 2, the LRU tail.
  EXPECT_FALSE(cache.Contains(2));
  EXPECT_TRUE(cache.Contains(1));
  cache.Unpin(1, gen);      // Last unpin: LRU 1, 4, 3.
  FillClean(&cache, 5, 7);  // Evicts 3, then 4 — not 1.
  EXPECT_FALSE(cache.Contains(3));
  EXPECT_FALSE(cache.Contains(4));
  EXPECT_TRUE(cache.Contains(1));
  FillClean(&cache, 7, 8);  // Now 1 is the tail.
  EXPECT_FALSE(cache.Contains(1));
}

TEST(ObjectCacheTest, CleanedWhilePinnedStaysUnevictableUntilUnpinned) {
  ObjectCache cache(2 * MeterCharge());
  uint64_t gen = 0;
  cache.Put(1, std::make_unique<Meter>(1, 0, 0), true, &gen);
  cache.SetDirty(1, false);  // Committed, but a Ref is still live.
  EXPECT_FALSE(cache.IsDirty(1));
  FillClean(&cache, 10, 50);
  EXPECT_TRUE(cache.Contains(1));
  cache.Unpin(1, gen);
  FillClean(&cache, 50, 52);
  EXPECT_FALSE(cache.Contains(1));
}

TEST(ObjectCacheTest, StaleUnpinNeverRelinksReplacement) {
  ObjectCache cache(2 * MeterCharge());
  uint64_t stale_gen = 0;
  cache.Put(1, std::make_unique<Meter>(1, 0, 0), false, &stale_gen);
  cache.Erase(1);  // An abort drops the pinned entry...
  uint64_t gen = 0;
  cache.Put(1, std::make_unique<Meter>(1, 0, 0), false, &gen);  // ...refetch.
  ASSERT_NE(gen, stale_gen);
  cache.Unpin(1, stale_gen);  // The old Ref's release: must be a no-op.
  FillClean(&cache, 10, 50);
  EXPECT_TRUE(cache.Contains(1));
  cache.Unpin(1, gen);
  FillClean(&cache, 50, 52);
  EXPECT_FALSE(cache.Contains(1));
  // A replacement that is dirty and unpinned stays off the LRU list too.
  uint64_t old_gen = 0;
  cache.Put(2, std::make_unique<Meter>(2, 0, 0), false, &old_gen);
  cache.Put(2, std::make_unique<Meter>(2, 0, 0), true);
  cache.Unpin(2, old_gen);
  FillClean(&cache, 60, 100);
  EXPECT_TRUE(cache.Contains(2));
}

// Regression: every open used to walk the whole LRU list past the held
// entries, so one transaction holding n objects cost O(n^2). A bulk load
// far larger than the cache must commit, leave the cache within capacity,
// and read back intact.
TEST(ObjectCacheTest, BulkInsertUnderSmallCache) {
  constexpr int kObjects = 20000;
  constexpr size_t kCapacity = 64 * 1024;
  ObjectStoreOptions options;
  options.cache_capacity_bytes = kCapacity;
  Env env(options);
  std::vector<ObjectId> ids;
  {
    Transaction txn(env.objects.get());
    for (int i = 0; i < kObjects; i++) {
      auto oid = txn.Insert(std::make_unique<Meter>(i, 0, 0));
      ASSERT_TRUE(oid.ok());
      ids.push_back(*oid);
      auto meter = txn.OpenWritable<Meter>(*oid);  // Enforces capacity.
      ASSERT_TRUE(meter.ok());
      (*meter)->IncrementViews();
    }
    ASSERT_TRUE(txn.Commit().ok());
  }
  EXPECT_LE(env.objects->cache_size_bytes(), kCapacity);
  EXPECT_GT(env.objects->Stats().cache_evictions, 0u);
  Transaction txn(env.objects.get());
  for (int i = 0; i < kObjects; i++) {
    auto meter = txn.OpenReadonly<Meter>(ids[i]);
    ASSERT_TRUE(meter.ok()) << i;
    EXPECT_EQ((*meter)->id(), i);
    EXPECT_EQ((*meter)->view_count(), 1);
  }
  EXPECT_TRUE(txn.Commit().ok());
  EXPECT_LE(env.objects->cache_size_bytes(), kCapacity);
}

// An object whose cache charge the model test chooses.
class Sized final : public Object {
 public:
  explicit Sized(size_t size) : size_(size) {}
  ClassId class_id() const override { return kMeterClass; }
  void Pickle(Pickler*) const override {}
  Status UnpickleFrom(Unpickler*) override { return Status::OK(); }
  size_t ApproxSize() const override { return size_; }

 private:
  size_t size_;
};

// Reference model of the object cache: every entry's pins, generation and
// dirty bit, and the time it last became (or was used while) evictable.
// Eviction takes the evictable entry with the oldest such time.
class CacheModel {
 public:
  struct Entry {
    size_t charge = 0;
    int pins = 0;
    uint64_t generation = 0;
    bool dirty = false;
    uint64_t used = 0;
    bool evictable() const { return pins == 0 && !dirty; }
  };

  explicit CacheModel(size_t capacity) : capacity_(capacity) {}

  uint64_t Put(ObjectId oid, size_t charge, bool dirty, bool pin) {
    Entry& e = entries_[oid];
    e = Entry{charge, pin ? 1 : 0, ++generation_, dirty, 0};
    Touch(e);
    return e.generation;
  }
  bool Get(ObjectId oid) {
    auto it = entries_.find(oid);
    if (it == entries_.end()) return false;
    Touch(it->second);
    return true;
  }
  std::optional<uint64_t> Acquire(ObjectId oid, bool dirty) {
    auto it = entries_.find(oid);
    if (it == entries_.end()) return std::nullopt;
    if (dirty) it->second.dirty = true;
    it->second.pins++;
    return it->second.generation;
  }
  void Repin(ObjectId oid, uint64_t generation) {
    auto it = entries_.find(oid);
    if (it != entries_.end() && it->second.generation == generation) {
      it->second.pins++;
    }
  }
  void Unpin(ObjectId oid, uint64_t generation) {
    auto it = entries_.find(oid);
    if (it == entries_.end() || it->second.generation != generation ||
        it->second.pins == 0) {
      return;
    }
    it->second.pins--;
    Touch(it->second);
  }
  void SetDirty(ObjectId oid, bool dirty) {
    Entry& e = entries_.at(oid);
    const bool was = e.evictable();
    e.dirty = dirty;
    if (!was) Touch(e);
  }
  void Erase(ObjectId oid) { entries_.erase(oid); }
  void EnforceCapacity() {
    while (Size() > capacity_) {
      auto victim = entries_.end();
      for (auto it = entries_.begin(); it != entries_.end(); ++it) {
        if (it->second.evictable() &&
            (victim == entries_.end() ||
             it->second.used < victim->second.used)) {
          victim = it;
        }
      }
      if (victim == entries_.end()) return;
      entries_.erase(victim);
    }
  }

  size_t Size() const {
    size_t size = 0;
    for (const auto& [oid, e] : entries_) size += e.charge;
    return size;
  }
  const std::map<ObjectId, Entry>& entries() const { return entries_; }

 private:
  void Touch(Entry& e) {
    if (e.evictable()) e.used = ++clock_;
  }

  size_t capacity_;
  uint64_t generation_ = 0;
  uint64_t clock_ = 0;
  std::map<ObjectId, Entry> entries_;
};

TEST(ObjectCacheTest, RandomOperationsMatchLruModel) {
  // Random Put/Acquire/Repin/Unpin/SetDirty/Erase/EnforceCapacity against
  // the reference model, compared after every step: pinned and dirty
  // entries are never evicted, eviction follows LRU order among the
  // evictable ones, and a release of a stale generation (its entry erased
  // and re-put) never unpins the replacement.
  constexpr size_t kOverhead = 64;  // The cache's per-entry charge.
  constexpr size_t kCapacity = 1200;
  Random rng(20);
  ObjectCache cache(kCapacity);
  CacheModel model(kCapacity);
  std::vector<std::pair<ObjectId, uint64_t>> held;  // Pins of live "Refs".
  for (int step = 0; step < 20000; step++) {
    const ObjectId oid = 1 + rng.Uniform(24);
    const bool in_cache = cache.Contains(oid);
    switch (rng.Uniform(8)) {
      case 0: {  // Put (a fetch, pinned for its Ref, or an insert).
        const size_t size = 16 + rng.Uniform(200);
        const bool dirty = rng.Uniform(3) == 0;
        const bool pin = rng.Uniform(2) == 0;
        uint64_t gen = 0;
        cache.Put(oid, std::make_unique<Sized>(size), dirty,
                  pin ? &gen : nullptr);
        const uint64_t model_gen = model.Put(oid, size + kOverhead, dirty, pin);
        if (pin) {
          ASSERT_EQ(gen, model_gen);
          held.emplace_back(oid, gen);
        }
        break;
      }
      case 1:
        ASSERT_EQ(cache.Get(oid) != nullptr, model.Get(oid));
        break;
      case 2: {
        const bool dirty = rng.Uniform(4) == 0;
        uint64_t gen = 0;
        const bool hit = cache.Acquire(oid, dirty, &gen) != nullptr;
        std::optional<uint64_t> model_gen = model.Acquire(oid, dirty);
        ASSERT_EQ(hit, model_gen.has_value());
        if (hit) {
          ASSERT_EQ(gen, *model_gen);
          held.emplace_back(oid, gen);
        }
        break;
      }
      case 3:  // A Ref copy: pins the generation it holds once more.
        if (!held.empty()) {
          auto pin = held[rng.Uniform(held.size())];
          cache.Repin(pin.first, pin.second);
          model.Repin(pin.first, pin.second);
          held.push_back(pin);
        }
        break;
      case 4:
      case 5:  // A Ref destroyed, possibly after its entry was replaced.
        if (!held.empty()) {
          const size_t i = rng.Uniform(held.size());
          cache.Unpin(held[i].first, held[i].second);
          model.Unpin(held[i].first, held[i].second);
          held.erase(held.begin() + static_cast<ptrdiff_t>(i));
        }
        break;
      case 6:
        if (in_cache) {
          const bool dirty = rng.Uniform(2) == 0;
          cache.SetDirty(oid, dirty);
          model.SetDirty(oid, dirty);
        }
        break;
      default:
        if (rng.Uniform(6) == 0) {
          cache.Erase(oid);
          model.Erase(oid);
        }
        break;
    }
    cache.EnforceCapacity();
    model.EnforceCapacity();
    // Same entries, dirty bits and bytes.
    ASSERT_EQ(cache.entry_count(), model.entries().size()) << "step " << step;
    for (const auto& [id, e] : model.entries()) {
      ASSERT_TRUE(cache.Contains(id)) << "step " << step << " oid " << id;
      ASSERT_EQ(cache.IsDirty(id), e.dirty) << "step " << step;
    }
    ASSERT_EQ(cache.size_bytes(), model.Size()) << "step " << step;
  }
}

TEST(ObjectCacheTest, RefCopiesKeepTheEntryPinnedUntilTheLast) {
  // Copies, moves and ref_casts of a Ref each hold the cache pin; the
  // entry stays cached under pressure (even after its transaction ended)
  // until the last of them is destroyed.
  ObjectStoreOptions options;
  options.cache_capacity_bytes = 600;
  Env env(options);
  ObjectId target;
  std::vector<ObjectId> filler;
  {
    Transaction txn(env.objects.get());
    target = *txn.Insert(std::make_unique<Meter>(1, 0, 0));
    for (int i = 0; i < 40; i++) {
      filler.push_back(*txn.Insert(std::make_unique<Meter>(100 + i, 0, 0)));
    }
    ASSERT_TRUE(txn.Commit().ok());
  }
  // Reads every filler object (evicting whatever is evictable), then
  // reports whether opening `target` missed the cache.
  auto target_evicted = [&] {
    Transaction txn(env.objects.get());
    for (ObjectId oid : filler) EXPECT_TRUE(txn.OpenReadonly<Meter>(oid).ok());
    const uint64_t misses = env.objects->Stats().cache_misses;
    EXPECT_TRUE(txn.OpenReadonly<Meter>(target).ok());
    const bool missed = env.objects->Stats().cache_misses > misses;
    EXPECT_TRUE(txn.Commit().ok());
    return missed;
  };

  std::optional<ReadonlyRef<Meter>> copy, moved;
  std::optional<ReadonlyRef<Object>> upcast;
  std::optional<WritableRef<Meter>> writable_copy;
  {
    Transaction txn(env.objects.get());
    auto ref = txn.OpenWritable<Meter>(target);
    ASSERT_TRUE(ref.ok());
    writable_copy = *ref;
    ReadonlyRef<Meter> readonly = ref->AsReadonly();
    copy = readonly;
    upcast = ReadonlyRef<Object>(readonly);
    moved = std::move(readonly);
    auto cast = ref_cast<Meter>(*upcast);
    ASSERT_TRUE(cast.ok());
    EXPECT_EQ((*cast)->id(), 1);
    ASSERT_TRUE(txn.Commit().ok());
  }
  EXPECT_FALSE(target_evicted());
  copy.reset();
  EXPECT_FALSE(target_evicted());
  moved.reset();
  writable_copy.reset();
  EXPECT_FALSE(target_evicted());
  upcast.reset();  // The last copy.
  EXPECT_TRUE(target_evicted());
}

// ------------------------------------------------------------ transactions

TEST(ObjectStoreTest, CommittedTransactionCannotBeReused) {
  Env env;
  Transaction txn(env.objects.get());
  ASSERT_TRUE(txn.Insert(std::make_unique<Meter>(1, 0, 0)).ok());
  ASSERT_TRUE(txn.Commit().ok());
  EXPECT_FALSE(txn.active());
  EXPECT_EQ(txn.Insert(std::make_unique<Meter>(2, 0, 0)).status().code(),
            Status::Code::kTransactionInvalid);
  EXPECT_EQ(txn.Commit().code(), Status::Code::kTransactionInvalid);
  EXPECT_EQ(txn.Abort().code(), Status::Code::kTransactionInvalid);
}

TEST(ObjectStoreTest, NondurableCommitsCoveredByDurableOne) {
  Env env;
  ObjectId id;
  {
    Transaction t1(env.objects.get());
    id = *t1.Insert(std::make_unique<Meter>(1, 1, 0));
    ASSERT_TRUE(t1.Commit(/*durable=*/false).ok());
    Transaction t2(env.objects.get());
    auto meter = t2.OpenWritable<Meter>(id);
    ASSERT_TRUE(meter.ok());
    (*meter)->IncrementViews();
    ASSERT_TRUE(t2.Commit(/*durable=*/true).ok());
  }
  env.Reopen();
  Transaction txn(env.objects.get());
  auto meter = txn.OpenReadonly<Meter>(id);
  ASSERT_TRUE(meter.ok());
  EXPECT_EQ((*meter)->view_count(), 2);
}

TEST(ObjectStoreTest, ManyObjectsStressWithModel) {
  Env env;
  Random rng(77);
  std::map<ObjectId, int32_t> model;
  for (int round = 0; round < 30; round++) {
    Transaction txn(env.objects.get());
    for (int op = 0; op < 10; op++) {
      double roll = 0.01 * rng.Uniform(100);
      if (model.empty() || roll < 0.3) {
        int32_t views = static_cast<int32_t>(rng.Uniform(1000));
        ObjectId id = *txn.Insert(std::make_unique<Meter>(0, views, 0));
        model[id] = views;
      } else if (roll < 0.6) {
        auto it = model.begin();
        std::advance(it, rng.Uniform(model.size()));
        auto meter = txn.OpenWritable<Meter>(it->first);
        ASSERT_TRUE(meter.ok());
        (*meter)->IncrementViews();
        it->second++;
      } else if (roll < 0.75) {
        auto it = model.begin();
        std::advance(it, rng.Uniform(model.size()));
        ASSERT_TRUE(txn.Remove(it->first).ok());
        model.erase(it);
      } else {
        auto it = model.begin();
        std::advance(it, rng.Uniform(model.size()));
        auto meter = txn.OpenReadonly<Meter>(it->first);
        ASSERT_TRUE(meter.ok());
        EXPECT_EQ((*meter)->view_count(), it->second);
      }
    }
    ASSERT_TRUE(txn.Commit(round % 5 == 0).ok());
  }
  env.Reopen();
  Transaction txn(env.objects.get());
  for (const auto& [id, views] : model) {
    auto meter = txn.OpenReadonly<Meter>(id);
    ASSERT_TRUE(meter.ok()) << id;
    EXPECT_EQ((*meter)->view_count(), views) << id;
  }
}

// ------------------------------------------------------- read transactions

TEST(ReadTransactionTest, SnapshotReadsTakeZeroLocks) {
  Env env;
  std::vector<ObjectId> ids;
  {
    Transaction txn(env.objects.get());
    for (int i = 0; i < 8; i++) {
      ids.push_back(*txn.Insert(std::make_unique<Meter>(i, i * 10, 0)));
    }
    ASSERT_TRUE(txn.Commit().ok());
  }

  const uint64_t locks_before = env.objects->Stats().lock_acquisitions;
  EXPECT_GT(locks_before, 0u);  // The writer above did take locks.
  {
    ReadTransaction rtxn(env.objects.get());
    ASSERT_TRUE(rtxn.active());
    for (size_t i = 0; i < ids.size(); i++) {
      auto meter = rtxn.Open<Meter>(ids[i]);
      ASSERT_TRUE(meter.ok());
      EXPECT_EQ((*meter)->view_count(), static_cast<int32_t>(i) * 10);
    }
    // Repeated opens return the same memoized instance.
    auto again = rtxn.Open<Meter>(ids[0]);
    ASSERT_TRUE(again.ok());
  }
  // The acceptance bar: a full read transaction makes ZERO LockManager
  // acquisitions (and so can never block or be blocked by writers).
  EXPECT_EQ(env.objects->Stats().lock_acquisitions, locks_before);
  EXPECT_EQ(env.objects->Stats().read_txns_begun, 1u);
}

TEST(ReadTransactionTest, SnapshotIsolatedFromLaterCommits) {
  Env env;
  ObjectId meter_id;
  {
    Transaction txn(env.objects.get());
    meter_id = *txn.Insert(std::make_unique<Meter>(1, 5, 0));
    ASSERT_TRUE(txn.Commit().ok());
  }

  ReadTransaction rtxn(env.objects.get());
  ASSERT_TRUE(rtxn.active());

  // Concurrent writer: update the meter, insert a new object, remove
  // nothing. The read transaction must not observe any of it.
  ObjectId late_id;
  {
    Transaction txn(env.objects.get());
    auto meter = txn.OpenWritable<Meter>(meter_id);
    ASSERT_TRUE(meter.ok());
    (*meter)->IncrementViews();
    late_id = *txn.Insert(std::make_unique<Meter>(2, 99, 0));
    ASSERT_TRUE(txn.Commit().ok());
  }

  auto meter = rtxn.Open<Meter>(meter_id);
  ASSERT_TRUE(meter.ok());
  EXPECT_EQ((*meter)->view_count(), 5);  // Pre-update value.
  EXPECT_TRUE(rtxn.Open<Meter>(late_id).status().IsNotFound());

  // A fresh read transaction pins the new state.
  ReadTransaction rtxn2(env.objects.get());
  auto updated = rtxn2.Open<Meter>(meter_id);
  ASSERT_TRUE(updated.ok());
  EXPECT_EQ((*updated)->view_count(), 6);
  auto late = rtxn2.Open<Meter>(late_id);
  ASSERT_TRUE(late.ok());
  EXPECT_EQ((*late)->view_count(), 99);
}

TEST(ReadTransactionTest, SeesRemovedObjectAtItsView) {
  Env env;
  ObjectId id;
  {
    Transaction txn(env.objects.get());
    id = *txn.Insert(std::make_unique<Meter>(7, 70, 0));
    ASSERT_TRUE(txn.Commit().ok());
  }
  ReadTransaction rtxn(env.objects.get());
  {
    Transaction txn(env.objects.get());
    ASSERT_TRUE(txn.Remove(id).ok());
    ASSERT_TRUE(txn.Commit().ok());
  }
  // The pinned view predates the removal.
  auto meter = rtxn.Open<Meter>(id);
  ASSERT_TRUE(meter.ok());
  EXPECT_EQ((*meter)->view_count(), 70);
  // A fresh view no longer finds it.
  ReadTransaction rtxn2(env.objects.get());
  EXPECT_TRUE(rtxn2.Open<Meter>(id).status().IsNotFound());
}

TEST(ReadTransactionTest, PrefetchBatchesAndMemoizes) {
  Env env;
  std::vector<ObjectId> ids;
  {
    Transaction txn(env.objects.get());
    for (int i = 0; i < 16; i++) {
      ids.push_back(*txn.Insert(std::make_unique<Meter>(i, i, 0)));
    }
    ASSERT_TRUE(txn.Commit().ok());
  }
  const uint64_t locks_before = env.objects->Stats().lock_acquisitions;
  ReadTransaction rtxn(env.objects.get());
  ASSERT_TRUE(rtxn.Prefetch(ids).ok());
  for (size_t i = 0; i < ids.size(); i++) {
    auto meter = rtxn.Open<Meter>(ids[i]);
    ASSERT_TRUE(meter.ok());
    EXPECT_EQ((*meter)->view_count(), static_cast<int32_t>(i));
  }
  // Prefetch of already-loaded ids is a no-op; a missing id fails whole.
  ASSERT_TRUE(rtxn.Prefetch(ids).ok());
  std::vector<ObjectId> with_missing = ids;
  with_missing.push_back(99999);
  EXPECT_FALSE(rtxn.Prefetch(with_missing).ok());
  EXPECT_EQ(env.objects->Stats().lock_acquisitions, locks_before);
}

TEST(ReadTransactionTest, RejectsHeaderAndInvalidIds) {
  Env env;
  ReadTransaction rtxn(env.objects.get());
  ASSERT_TRUE(rtxn.active());
  EXPECT_EQ(rtxn.Open<Meter>(kInvalidObjectId).status().code(),
            Status::Code::kInvalidArgument);
  EXPECT_EQ(rtxn.Open<Meter>(1).status().code(),  // The header chunk.
            Status::Code::kInvalidArgument);
  EXPECT_EQ(rtxn.Prefetch({1}).code(), Status::Code::kInvalidArgument);
}

TEST(ReadTransactionTest, TypeMismatchCaught) {
  Env env;
  ObjectId id;
  {
    Transaction txn(env.objects.get());
    id = *txn.Insert(std::make_unique<Meter>(1, 1, 0));
    ASSERT_TRUE(txn.Commit().ok());
  }
  ReadTransaction rtxn(env.objects.get());
  EXPECT_EQ(rtxn.Open<Profile>(id).status().code(),
            Status::Code::kTypeMismatch);
  // Subtyping still works through a base ref.
  auto base = rtxn.Open<Object>(id);
  ASSERT_TRUE(base.ok());
}

TEST(ReadTransactionTest, EndInvalidatesRefsAndFurtherOpens) {
  Env env;
  ObjectId id;
  {
    Transaction txn(env.objects.get());
    id = *txn.Insert(std::make_unique<Meter>(1, 1, 0));
    ASSERT_TRUE(txn.Commit().ok());
  }
  ReadTransaction rtxn(env.objects.get());
  auto meter = rtxn.Open<Meter>(id);
  ASSERT_TRUE(meter.ok());
  EXPECT_TRUE(meter->valid());
  rtxn.End();
  EXPECT_FALSE(rtxn.active());
  EXPECT_FALSE(meter->valid());
  EXPECT_EQ(rtxn.Open<Meter>(id).status().code(),
            Status::Code::kTransactionInvalid);
  rtxn.End();  // Idempotent.
}

TEST(ReadTransactionTest, ConcurrentReadersWithWriter) {
  Env env;
  std::vector<ObjectId> ids;
  {
    Transaction txn(env.objects.get());
    for (int i = 0; i < 32; i++) {
      ids.push_back(*txn.Insert(std::make_unique<Meter>(i, 1000 + i, 0)));
    }
    ASSERT_TRUE(txn.Commit().ok());
  }
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; t++) {
    readers.emplace_back([&] {
      while (!stop.load()) {
        ReadTransaction rtxn(env.objects.get());
        // Within one view, all meters must come from one commit: the
        // writer below bumps all counts together, so (count - 1000 - i)
        // must be identical across the scan.
        int32_t delta = -1;
        for (size_t i = 0; i < ids.size(); i++) {
          auto meter = rtxn.Open<Meter>(ids[i]);
          if (!meter.ok()) {
            failures.fetch_add(1);
            return;
          }
          int32_t d = (*meter)->view_count() - 1000 - static_cast<int32_t>(i);
          if (delta < 0) delta = d;
          if (d != delta) {
            failures.fetch_add(1);
            return;
          }
        }
      }
    });
  }
  for (int round = 0; round < 10; round++) {
    Transaction txn(env.objects.get());
    for (ObjectId id : ids) {
      auto meter = txn.OpenWritable<Meter>(id);
      if (!meter.ok()) {
        failures.fetch_add(1);
        break;
      }
      (*meter)->IncrementViews();
    }
    ASSERT_TRUE(txn.Commit(round % 2 == 0).ok());
  }
  stop.store(true);
  for (auto& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(ReadTransactionTest, ReadPathHistogramsPopulate) {
  // One snapshot read through the full stack must leave a sample in every
  // stage histogram: chunk read, hash verify, decrypt, decompress, and
  // object unpickle (all surfaced by tdbstat --json).
  platform::MemUntrustedStore store;
  platform::MemSecretStore secrets;
  platform::MemOneWayCounter counter;
  TDB_CHECK(secrets.Provision(Slice("histo-secret")).ok());
  chunk::ChunkStoreOptions copts;
  copts.security = crypto::SecurityConfig::Modern();
  copts.compression = true;
  copts.cache_bytes = 0;  // Force reads through the validation pipeline.
  auto chunks = chunk::ChunkStore::Open(&store, &secrets, &counter, copts);
  ASSERT_TRUE(chunks.ok());
  auto objects = ObjectStore::Open(chunks->get());
  ASSERT_TRUE(objects.ok());
  ASSERT_TRUE((*objects)->registry().Register<Meter>(kMeterClass).ok());

  ObjectId id;
  {
    Transaction txn(objects->get());
    // Compressible payload: a Meter pickles small; that is fine, the
    // decompress histogram records the (possibly raw) stage regardless of
    // whether this particular chunk compressed.
    id = *txn.Insert(std::make_unique<Meter>(1, 2, 3));
    ASSERT_TRUE(txn.Commit().ok());
  }
  {
    ReadTransaction rtxn(objects->get());
    ASSERT_TRUE(rtxn.Open<Meter>(id).ok());
  }

  common::MetricsSnapshot snap = (*chunks)->metrics()->Snapshot();
  for (const char* name :
       {"chunk.read.latency_us", "chunk.read.verify_us",
        "chunk.read.decrypt_us", "object.unpickle_us"}) {
    auto it = snap.histograms.find(name);
    ASSERT_NE(it, snap.histograms.end()) << name;
    EXPECT_GT(it->second.count, 0u) << name;
  }
  // The decompress histogram is registered (surfaced in dumps) even when
  // no read decompressed anything yet.
  EXPECT_NE(snap.histograms.find("chunk.read.decompress_us"),
            snap.histograms.end());
}

// ------------------------------------------------------- object id blocks

// Ids a class takes at a time: one location-map leaf at the default
// fanout (DESIGN.md, "Object id layout").
constexpr ObjectId kIdBlock = chunk::kDefaultMapFanout;

// The object a multi-class run inserts for `tag`, and the tag it reads
// back as: Meter and ExtendedMeter carry it as their id, Profile as its
// one meter.
std::unique_ptr<Object> TaggedObject(ClassId cls, int32_t tag) {
  if (cls == kMeterClass) return std::make_unique<Meter>(tag, 0, 0);
  if (cls == kExtendedMeterClass) {
    auto meter = std::make_unique<ExtendedMeter>();
    meter->region_ = "r" + std::to_string(tag);
    return meter;
  }
  auto profile = std::make_unique<Profile>();
  profile->meters_ = {static_cast<ObjectId>(tag)};
  return profile;
}

int32_t TagOf(const Object& obj) {
  if (obj.class_id() == kProfileClass) {
    return static_cast<int32_t>(
        static_cast<const Profile&>(obj).meters_.at(0));
  }
  if (obj.class_id() == kExtendedMeterClass) {
    return std::stoi(static_cast<const ExtendedMeter&>(obj).region_.substr(1));
  }
  return static_cast<const Meter&>(obj).id();
}

constexpr ClassId kRunClasses[] = {kMeterClass, kProfileClass,
                                   kExtendedMeterClass};

// What a multi-class run committed: id -> (class, tag).
using IdModel = std::map<ObjectId, std::pair<ClassId, int32_t>>;

// Every id of `model`'s 64-aligned blocks belongs to one class.
void ExpectOneClassPerBlock(const IdModel& model) {
  std::map<ObjectId, ClassId> block_class;
  for (const auto& [oid, entry] : model) {
    auto it = block_class.emplace(oid / kIdBlock, entry.first).first;
    EXPECT_EQ(it->second, entry.first)
        << "block " << oid / kIdBlock << " mixes classes " << it->second
        << " and " << entry.first << " (id " << oid << ")";
  }
}

// Every object of `model` reads back with its class and tag.
void ExpectReadsBack(ObjectStore* objects, const IdModel& model,
                     const std::string& where) {
  ReadTransaction read(objects);
  for (const auto& [oid, entry] : model) {
    auto obj = read.Open<Object>(oid);
    ASSERT_TRUE(obj.ok()) << where << ": id " << oid << " lost: "
                          << obj.status().ToString();
    EXPECT_EQ((*obj)->class_id(), entry.first) << where << ": id " << oid;
    EXPECT_EQ(TagOf(**obj), entry.second) << where << ": id " << oid;
  }
}

// Inserts `txns` transactions of one object of each run class, tags from
// `*next_tag` on, and records the ids of the commits that were acked.
// Stops at the first failed commit (a crash).
Status InsertMultiClassRun(ObjectStore* objects, int txns, int32_t* next_tag,
                           IdModel* committed, IdModel* attempted) {
  for (int i = 0; i < txns; i++) {
    Transaction txn(objects);
    IdModel inserted;
    for (ClassId cls : kRunClasses) {
      const int32_t tag = (*next_tag)++;
      TDB_ASSIGN_OR_RETURN(ObjectId oid, txn.Insert(TaggedObject(cls, tag)));
      inserted[oid] = {cls, tag};
    }
    attempted->insert(inserted.begin(), inserted.end());
    TDB_RETURN_IF_ERROR(txn.Commit(/*durable=*/true));
    committed->insert(inserted.begin(), inserted.end());
  }
  return Status::OK();
}

TEST(ObjectIdBlockTest, InterleavedClassesFillBlocksOfTheirOwn) {
  Env env;
  IdModel model, attempted;
  int32_t tag = 0;
  // 3 x 150 inserts: each class fills two blocks and opens a third.
  ASSERT_TRUE(
      InsertMultiClassRun(env.objects.get(), 150, &tag, &model, &attempted)
          .ok());
  ASSERT_EQ(model.size(), 450u);  // No id was handed out twice.
  ExpectOneClassPerBlock(model);
  std::map<ClassId, std::set<ObjectId>> blocks;
  for (const auto& [oid, entry] : model) {
    blocks[entry.first].insert(oid / kIdBlock);
  }
  for (ClassId cls : kRunClasses) EXPECT_EQ(blocks[cls].size(), 3u) << cls;
  ExpectReadsBack(env.objects.get(), model, "before reopen");
}

TEST(ObjectIdBlockTest, ReopenNeverHandsOutCommittedIds) {
  // A reopen drops every class's block. The session's first block is the
  // rest of the leaf holding the highest committed id, so only the ids a
  // session inserts are one class per block.
  Env env;
  IdModel model, attempted;
  int32_t tag = 0;
  for (int session = 0; session < 4; session++) {
    IdModel fresh;
    ASSERT_TRUE(
        InsertMultiClassRun(env.objects.get(), 10, &tag, &fresh, &attempted)
            .ok());
    for (const auto& [oid, entry] : fresh) {
      EXPECT_EQ(model.count(oid), 0u)
          << "session " << session << " reused committed id " << oid;
    }
    ExpectOneClassPerBlock(fresh);
    model.insert(fresh.begin(), fresh.end());
    env.Reopen();
    ExpectReadsBack(env.objects.get(), model,
                    "session " + std::to_string(session));
  }
}

// An object store over one chunk store or a 4-shard router, every shard
// under a prefix of one crash-injecting device.
struct CrashStack {
  platform::MemUntrustedStore base;
  platform::FaultInjectingStore faulty{&base};
  std::vector<std::unique_ptr<platform::PrefixedStore>> prefixes;
  std::vector<std::unique_ptr<platform::MemOneWayCounter>> counters;
  platform::MemSecretStore secrets;
  std::unique_ptr<chunk::ChunkStoreInterface> chunks;
  std::unique_ptr<ObjectStore> objects;

  explicit CrashStack(int shards) {
    TDB_CHECK(secrets.Provision(Slice("id-block-secret")).ok());
    for (int k = 0; k < shards; k++) {
      prefixes.push_back(std::make_unique<platform::PrefixedStore>(
          "s" + std::to_string(k) + "/", &faulty));
      counters.push_back(std::make_unique<platform::MemOneWayCounter>());
    }
  }

  Status Open() {
    objects.reset();
    chunks.reset();
    chunk::ChunkStoreOptions options;
    options.security = crypto::SecurityConfig::Modern();
    options.segment_size = 8 * 1024;
    options.txn_coordinator_threads = 0;  // Deterministic write index.
    if (prefixes.size() == 1) {
      TDB_ASSIGN_OR_RETURN(chunks,
                           chunk::ChunkStore::Open(prefixes[0].get(), &secrets,
                                                   counters[0].get(), options));
    } else {
      std::vector<shard::ShardBackend> backends;
      for (size_t k = 0; k < prefixes.size(); k++) {
        backends.push_back(
            {prefixes[k].get(), &secrets, counters[k].get()});
      }
      TDB_ASSIGN_OR_RETURN(chunks,
                           shard::ShardedChunkStore::Open(backends, options));
    }
    TDB_ASSIGN_OR_RETURN(objects, ObjectStore::Open(chunks.get()));
    TDB_RETURN_IF_ERROR(objects->registry().Register<Meter>(kMeterClass));
    TDB_RETURN_IF_ERROR(objects->registry().Register<Profile>(kProfileClass));
    return objects->registry().Register<ExtendedMeter>(kExtendedMeterClass);
  }
};

class ObjectIdBlockCrashTest : public ::testing::TestWithParam<int> {};

TEST_P(ObjectIdBlockCrashTest, CrashAnywhereKeepsCommittedIds) {
  // A short multi-class run (one prior session, then three durable
  // transactions of three classes) crashed at every write index, with the
  // crashing write torn in half or whole. After recovery every acked
  // object reads back, and a new run never hands out an id that
  // recovery kept.
  const int shards = GetParam();
  for (uint32_t tear_num : {2u, 4u}) {
    for (uint64_t point = 0;; point++) {
      const std::string where = "crash at write " + std::to_string(point) +
                                " tear " + std::to_string(tear_num) + "/4";
      CrashStack stack(shards);
      IdModel acked, attempted;
      int32_t tag = 0;
      ASSERT_TRUE(stack.Open().ok());
      ASSERT_TRUE(InsertMultiClassRun(stack.objects.get(), 2, &tag, &acked,
                                      &attempted)
                      .ok());
      ASSERT_TRUE(stack.chunks->Close().ok());
      ASSERT_TRUE(stack.Open().ok()) << where;
      stack.faulty.CrashAtWrite(point, tear_num, 4);
      Status run = InsertMultiClassRun(stack.objects.get(), 3, &tag, &acked,
                                       &attempted);
      const bool crashed = stack.faulty.crashed();
      ASSERT_TRUE(run.ok() || crashed) << where << ": " << run.ToString();
      if (!crashed) {
        EXPECT_GE(point, 3u) << "the run made too few writes to sweep";
        break;  // Past the run's last write: sweep complete.
      }
      // Power cut: drop the stack without Close.
      stack.objects.reset();
      stack.chunks.reset();
      stack.faulty.Reboot();
      Status reopened = stack.Open();
      ASSERT_TRUE(reopened.ok()) << where << ": " << reopened.ToString();
      ExpectReadsBack(stack.objects.get(), acked, where);
      // What recovery kept of the unacked commit counts as committed too.
      IdModel kept = acked;
      {
        ReadTransaction read(stack.objects.get());
        for (const auto& [oid, entry] : attempted) {
          if (read.Open<Object>(oid).ok()) kept[oid] = entry;
        }
      }
      IdModel fresh, fresh_attempted;
      ASSERT_TRUE(InsertMultiClassRun(stack.objects.get(), 3, &tag, &fresh,
                                      &fresh_attempted)
                      .ok())
          << where;
      for (const auto& [oid, entry] : fresh) {
        EXPECT_EQ(kept.count(oid), 0u)
            << where << ": recovered id " << oid << " handed out again";
      }
      ExpectOneClassPerBlock(fresh);
      kept.insert(fresh.begin(), fresh.end());
      ExpectReadsBack(stack.objects.get(), kept, where + ", after new run");
      if (::testing::Test::HasFailure()) return;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Stores, ObjectIdBlockCrashTest,
                         ::testing::Values(1, 4),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return info.param == 1 ? std::string("Single")
                                                  : std::string("Router4");
                         });

TEST(ObjectIdBlockTest, ConcurrentInsertersOfThreeClasses) {
  Env env;
  constexpr int kTxns = 40;
  constexpr int kPerTxn = 5;
  std::vector<IdModel> per_thread(3);
  std::vector<std::thread> threads;
  for (int k = 0; k < 3; k++) {
    threads.emplace_back([&, k] {
      const ClassId cls = kRunClasses[k];
      int32_t tag = k * 100000;
      for (int i = 0; i < kTxns; i++) {
        Transaction txn(env.objects.get());
        IdModel inserted;
        for (int j = 0; j < kPerTxn; j++, tag++) {
          auto oid = txn.Insert(TaggedObject(cls, tag));
          ASSERT_TRUE(oid.ok()) << oid.status().ToString();
          inserted[*oid] = {cls, tag};
        }
        ASSERT_TRUE(txn.Commit(/*durable=*/i + 1 == kTxns).ok());
        per_thread[k].insert(inserted.begin(), inserted.end());
      }
    });
  }
  for (std::thread& t : threads) t.join();
  IdModel model;
  for (const IdModel& m : per_thread) model.insert(m.begin(), m.end());
  ASSERT_EQ(model.size(), size_t{3 * kTxns * kPerTxn});  // Ids unique.
  ExpectOneClassPerBlock(model);
  env.Reopen();
  ExpectReadsBack(env.objects.get(), model, "after reopen");
}

TEST(ObjectIdBlockTest, TpcbCheckpointsRewriteFewMapLeaves) {
  // TPC-B inserts History rows and, as the History hash index grows, its
  // buckets. With one id counter for all classes every map leaf held a
  // few hot buckets, so nearly every leaf was rewritten at every
  // checkpoint. Measured here (map bytes per transaction over the last
  // 3000 of 4000 transactions): 175.6 B with one shared counter, 127.5 B
  // with per-class id blocks.
  platform::MemUntrustedStore store;
  platform::MemSecretStore secrets;
  platform::MemOneWayCounter counter;
  ASSERT_TRUE(secrets.Provision(Slice("tpcb-map-secret")).ok());
  chunk::ChunkStoreOptions copts;
  copts.security = crypto::SecurityConfig::Modern();
  copts.segment_size = 64 * 1024;
  copts.checkpoint_interval_bytes = 512 * 1024;
  auto chunks = chunk::ChunkStore::Open(&store, &secrets, &counter, copts);
  ASSERT_TRUE(chunks.ok()) << chunks.status().ToString();
  ObjectStoreOptions oopts;
  oopts.locking_enabled = false;
  auto objects = ObjectStore::Open(chunks->get(), oopts);
  ASSERT_TRUE(objects.ok());
  ASSERT_TRUE(workload::RegisterTpcbClasses(objects->get()).ok());
  auto collections = collection::CollectionStore::Open(objects->get());
  ASSERT_TRUE(collections.ok());
  workload::TpcbSpec spec;
  spec.accounts = 2000;
  spec.tellers = 20;
  spec.branches = 2;
  spec.history = 2000;
  spec.seed = 29;
  auto driver =
      workload::TpcbDriver::Open(collections->get(), spec, /*create=*/true);
  ASSERT_TRUE(driver.ok()) << driver.status().ToString();
  ASSERT_TRUE((*driver)->Run(1000).ok());
  const uint64_t before = (*chunks)->Stats().map_bytes;
  constexpr uint64_t kMeasured = 3000;
  ASSERT_TRUE((*driver)->Run(kMeasured).ok());
  const double map_per_txn =
      static_cast<double>((*chunks)->Stats().map_bytes - before) / kMeasured;
  std::printf("TPC-B map bytes per transaction: %.1f\n", map_per_txn);
  EXPECT_LT(map_per_txn, 150.0);
  ASSERT_TRUE((*chunks)->Close().ok());
}

}  // namespace
}  // namespace tdb::object
