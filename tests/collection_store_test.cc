#include "collection/collection.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include <cmath>

#include "collection/btree_index.h"
#include "common/random.h"
#include "platform/mem_store.h"
#include "platform/one_way_counter.h"
#include "platform/secret_store.h"

namespace tdb::collection {
namespace {

using object::ObjectId;

// --- Schema: the paper's Figure 7 Meter -----------------------------------

constexpr object::ClassId kMeterClass = 100;

class Meter : public object::Object {
 public:
  Meter() = default;
  Meter(int64_t id, int64_t views, int64_t prints)
      : id_(id), view_count_(views), print_count_(prints) {}

  object::ClassId class_id() const override { return kMeterClass; }
  void Pickle(object::Pickler* p) const override {
    p->PutInt64(id_);
    p->PutInt64(view_count_);
    p->PutInt64(print_count_);
  }
  Status UnpickleFrom(object::Unpickler* u) override {
    TDB_RETURN_IF_ERROR(u->GetInt64(&id_));
    TDB_RETURN_IF_ERROR(u->GetInt64(&view_count_));
    return u->GetInt64(&print_count_);
  }
  size_t ApproxSize() const override { return sizeof(*this); }

  int64_t id_ = 0;
  int64_t view_count_ = 0;
  int64_t print_count_ = 0;
};

// Unrelated class for type-check tests.
constexpr object::ClassId kOtherClass = 101;
class Other : public object::Object {
 public:
  object::ClassId class_id() const override { return kOtherClass; }
  void Pickle(object::Pickler*) const override {}
  Status UnpickleFrom(object::Unpickler*) override { return Status::OK(); }
};

using MeterIndexer = Indexer<Meter, IntKey>;

std::shared_ptr<GenericIndexer> IdIndexer(
    IndexKind kind = IndexKind::kHashTable) {
  return std::make_shared<MeterIndexer>(
      "by-id", Uniqueness::kUnique, kind,
      [](const Meter& m) { return IntKey(m.id_); });
}

// The paper's derived-value functional index: total usage count (§5.1.1).
std::shared_ptr<GenericIndexer> UsageIndexer(
    IndexKind kind = IndexKind::kBTree) {
  return std::make_shared<MeterIndexer>(
      "by-usage", Uniqueness::kNonUnique, kind,
      [](const Meter& m) { return IntKey(m.view_count_ + m.print_count_); });
}

struct Env {
  platform::MemUntrustedStore store;
  platform::MemSecretStore secrets;
  platform::MemOneWayCounter counter;
  std::unique_ptr<chunk::ChunkStore> chunks;
  std::unique_ptr<object::ObjectStore> objects;
  std::unique_ptr<CollectionStore> collections;

  Env() {
    TDB_CHECK(secrets.Provision(Slice("coll-secret")).ok());
    OpenAll();
  }

  void OpenAll() {
    collections.reset();
    objects.reset();
    chunks.reset();
    chunk::ChunkStoreOptions copts;
    copts.security = crypto::SecurityConfig::Modern();
    copts.segment_size = 16 * 1024;
    copts.map_fanout = 16;
    chunks = std::move(chunk::ChunkStore::Open(&store, &secrets, &counter,
                                               copts))
                 .value();
    object::ObjectStoreOptions oopts;
    auto os = object::ObjectStore::Open(chunks.get(), oopts);
    TDB_CHECK(os.ok(), os.status().ToString());
    objects = std::move(os).value();
    TDB_CHECK(objects->registry().Register<Meter>(kMeterClass).ok());
    TDB_CHECK(objects->registry().Register<Other>(kOtherClass).ok());
    auto cs = CollectionStore::Open(objects.get());
    TDB_CHECK(cs.ok(), cs.status().ToString());
    collections = std::move(cs).value();
  }

  void Restart() {
    TDB_CHECK(chunks->Close().ok());
    OpenAll();
  }
};

constexpr IndexKind kAllKinds[] = {IndexKind::kBTree, IndexKind::kHashTable,
                                   IndexKind::kList};

std::string KindName(IndexKind kind) {
  switch (kind) {
    case IndexKind::kBTree: return "BTree";
    case IndexKind::kHashTable: return "Hash";
    case IndexKind::kList: return "List";
  }
  return "?";
}

std::string KindParamName(const ::testing::TestParamInfo<IndexKind>& info) {
  return KindName(info.param);
}

// One suite run against each index organization (§5.2.4).
class IndexKindTest : public ::testing::TestWithParam<IndexKind> {};

TEST_P(IndexKindTest, InsertAndExactMatch) {
  Env env;
  CTransaction t(env.collections.get());
  auto id_indexer = IdIndexer(GetParam());
  auto coll = t.CreateCollection("profile", id_indexer);
  ASSERT_TRUE(coll.ok()) << coll.status().ToString();
  for (int64_t i = 0; i < 100; i++) {
    auto oid = (*coll)->Insert(&t, std::make_unique<Meter>(i, i * 2, 0));
    ASSERT_TRUE(oid.ok()) << oid.status().ToString();
  }
  IntKey key(42);
  auto it = (*coll)->Query(&t, *id_indexer, key);
  ASSERT_TRUE(it.ok()) << it.status().ToString();
  ASSERT_FALSE((*it)->end());
  auto meter = (*it)->Read<Meter>();
  ASSERT_TRUE(meter.ok());
  EXPECT_EQ((*meter)->id_, 42);
  EXPECT_EQ((*meter)->view_count_, 84);
  (*it)->Next();
  EXPECT_TRUE((*it)->end());
  ASSERT_TRUE((*it)->Close().ok());
  ASSERT_TRUE(t.Commit().ok());
}

TEST_P(IndexKindTest, ScanSeesAllObjects) {
  Env env;
  CTransaction t(env.collections.get());
  auto id_indexer = IdIndexer(GetParam());
  auto coll = t.CreateCollection("profile", id_indexer);
  ASSERT_TRUE(coll.ok());
  std::set<int64_t> expected;
  for (int64_t i = 0; i < 50; i++) {
    ASSERT_TRUE((*coll)->Insert(&t, std::make_unique<Meter>(i, 0, 0)).ok());
    expected.insert(i);
  }
  auto it = (*coll)->Query(&t, *id_indexer);
  ASSERT_TRUE(it.ok());
  std::set<int64_t> seen;
  for (; !(*it)->end(); (*it)->Next()) {
    auto meter = (*it)->Read<Meter>();
    ASSERT_TRUE(meter.ok());
    seen.insert((*meter)->id_);
  }
  EXPECT_EQ(seen, expected);
  ASSERT_TRUE((*it)->Close().ok());
  ASSERT_TRUE(t.Commit().ok());
}

TEST_P(IndexKindTest, UniqueViolationOnInsert) {
  Env env;
  CTransaction t(env.collections.get());
  auto id_indexer = IdIndexer(GetParam());
  auto coll = t.CreateCollection("profile", id_indexer);
  ASSERT_TRUE(coll.ok());
  ASSERT_TRUE((*coll)->Insert(&t, std::make_unique<Meter>(7, 0, 0)).ok());
  auto dup = (*coll)->Insert(&t, std::make_unique<Meter>(7, 99, 0));
  EXPECT_TRUE(dup.status().IsUniqueViolation()) << dup.status().ToString();
  // The collection is unchanged by the failed insert.
  auto it = (*coll)->Query(&t, *id_indexer, IntKey(7));
  ASSERT_TRUE(it.ok());
  int count = 0;
  for (; !(*it)->end(); (*it)->Next()) count++;
  EXPECT_EQ(count, 1);
  ASSERT_TRUE((*it)->Close().ok());
  ASSERT_TRUE(t.Commit().ok());
}

TEST_P(IndexKindTest, SchemaTypeCheckedOnInsert) {
  Env env;
  CTransaction t(env.collections.get());
  auto coll = t.CreateCollection("profile", IdIndexer(GetParam()));
  ASSERT_TRUE(coll.ok());
  auto bad = (*coll)->Insert(&t, std::make_unique<Other>());
  EXPECT_EQ(bad.status().code(), Status::Code::kTypeMismatch);
}

INSTANTIATE_TEST_SUITE_P(Kinds, IndexKindTest,
                         ::testing::ValuesIn(kAllKinds), KindParamName);

// ---------------------------------------------------------------- queries

TEST(CollectionTest, RangeQueryOnBTree) {
  Env env;
  CTransaction t(env.collections.get());
  auto usage = UsageIndexer();
  auto coll = t.CreateCollection("profile", usage);
  ASSERT_TRUE(coll.ok());
  for (int64_t i = 0; i < 100; i++) {
    ASSERT_TRUE(
        (*coll)->Insert(&t, std::make_unique<Meter>(i, i, 0)).ok());
  }
  IntKey min(20), max(29);
  auto it = (*coll)->Query(&t, *usage, &min, &max);
  ASSERT_TRUE(it.ok()) << it.status().ToString();
  std::vector<int64_t> seen;
  for (; !(*it)->end(); (*it)->Next()) {
    seen.push_back((*(*it)->Read<Meter>())->view_count_);
  }
  ASSERT_EQ(seen.size(), 10u);
  EXPECT_TRUE(std::is_sorted(seen.begin(), seen.end()));
  EXPECT_EQ(seen.front(), 20);
  EXPECT_EQ(seen.back(), 29);
  ASSERT_TRUE((*it)->Close().ok());
}

TEST(CollectionTest, OpenEndedRanges) {
  Env env;
  CTransaction t(env.collections.get());
  auto usage = UsageIndexer();
  auto coll = t.CreateCollection("profile", usage);
  ASSERT_TRUE(coll.ok());
  for (int64_t i = 0; i < 20; i++) {
    ASSERT_TRUE((*coll)->Insert(&t, std::make_unique<Meter>(i, i, 0)).ok());
  }
  IntKey min(15);
  auto upper = (*coll)->Query(&t, *usage, &min, nullptr);
  ASSERT_TRUE(upper.ok());
  int count = 0;
  for (; !(*upper)->end(); (*upper)->Next()) count++;
  EXPECT_EQ(count, 5);
  ASSERT_TRUE((*upper)->Close().ok());

  IntKey max(4);
  auto lower = (*coll)->Query(&t, *usage, nullptr, &max);
  ASSERT_TRUE(lower.ok());
  count = 0;
  for (; !(*lower)->end(); (*lower)->Next()) count++;
  EXPECT_EQ(count, 5);
  ASSERT_TRUE((*lower)->Close().ok());
}

TEST(CollectionTest, RangeOnHashIndexNotSupported) {
  Env env;
  CTransaction t(env.collections.get());
  auto id_indexer = IdIndexer(IndexKind::kHashTable);
  auto coll = t.CreateCollection("profile", id_indexer);
  ASSERT_TRUE(coll.ok());
  IntKey min(0), max(10), same(0);
  // Every bound pair, including a scan's and an exact match's.
  const std::pair<const IntKey*, const IntKey*> bounds[] = {
      {&min, &max}, {&min, nullptr}, {nullptr, &max}, {nullptr, nullptr},
      {&min, &same}};
  for (const auto& [lo, hi] : bounds) {
    auto it = (*coll)->Query(&t, *id_indexer, lo, hi);
    EXPECT_EQ(it.status().code(), Status::Code::kNotSupported);
    EXPECT_EQ((*coll)->RemoveRange(&t, *id_indexer, lo, hi).code(),
              Status::Code::kNotSupported);
  }
}

TEST(CollectionTest, NonUniqueIndexReturnsAllMatches) {
  Env env;
  CTransaction t(env.collections.get());
  auto usage = UsageIndexer();
  auto coll = t.CreateCollection("profile", usage);
  ASSERT_TRUE(coll.ok());
  for (int64_t i = 0; i < 30; i++) {
    // Usage = i % 3: ten objects per usage value.
    ASSERT_TRUE(
        (*coll)->Insert(&t, std::make_unique<Meter>(i, i % 3, 0)).ok());
  }
  auto it = (*coll)->Query(&t, *usage, IntKey(1));
  ASSERT_TRUE(it.ok());
  int count = 0;
  for (; !(*it)->end(); (*it)->Next()) count++;
  EXPECT_EQ(count, 10);
  ASSERT_TRUE((*it)->Close().ok());
}

// -------------------------------------------------- dynamic index DDL

TEST(CollectionTest, CreateIndexBackfillsExistingObjects) {
  Env env;
  CTransaction t(env.collections.get());
  auto id_indexer = IdIndexer();
  auto coll = t.CreateCollection("profile", id_indexer);
  ASSERT_TRUE(coll.ok());
  for (int64_t i = 0; i < 25; i++) {
    ASSERT_TRUE(
        (*coll)->Insert(&t, std::make_unique<Meter>(i, 100 - i, 0)).ok());
  }
  // Add the usage index afterwards (§5.1.1: "applications can add and
  // remove indexes dynamically").
  auto usage = UsageIndexer();
  ASSERT_TRUE((*coll)->CreateIndex(&t, usage).ok());
  EXPECT_EQ((*coll)->index_count(), 2u);

  auto it = (*coll)->Query(&t, *usage, IntKey(100));  // i=0: views 100.
  ASSERT_TRUE(it.ok());
  ASSERT_FALSE((*it)->end());
  EXPECT_EQ((*(*it)->Read<Meter>())->id_, 0);
  ASSERT_TRUE((*it)->Close().ok());
  ASSERT_TRUE(t.Commit().ok());
}

TEST(CollectionTest, CreateUniqueIndexOverDuplicatesFails) {
  for (IndexKind kind : kAllKinds) {
    SCOPED_TRACE(KindName(kind));
    Env env;
    CTransaction t(env.collections.get());
    auto coll = t.CreateCollection("profile", IdIndexer());
    ASSERT_TRUE(coll.ok());
    ASSERT_TRUE((*coll)->Insert(&t, std::make_unique<Meter>(1, 5, 0)).ok());
    ASSERT_TRUE((*coll)->Insert(&t, std::make_unique<Meter>(2, 5, 0)).ok());
    // Unique index on view_count: both objects have 5.
    auto bad = std::make_shared<MeterIndexer>(
        "by-views", Uniqueness::kUnique, kind,
        [](const Meter& m) { return IntKey(m.view_count_); });
    Status s = (*coll)->CreateIndex(&t, bad);
    EXPECT_TRUE(s.IsUniqueViolation()) << s.ToString();
    EXPECT_EQ((*coll)->index_count(), 1u);
  }
}

// A refused indexer registration fails the call before anything is built:
// after commit and reopen the collection and the directory are unchanged.
TEST(CollectionTest, FailedIndexCallsLeaveCollectionUnchanged) {
  Env env;
  {
    CTransaction t(env.collections.get());
    auto coll = t.CreateCollection("profile", IdIndexer());
    ASSERT_TRUE(coll.ok());
    ASSERT_TRUE((*coll)->Insert(&t, std::make_unique<Meter>(1, 5, 0)).ok());
    ASSERT_TRUE(t.Commit().ok());
  }
  // Registrations the application makes itself stand until a committed
  // transaction removes the index, so these names stay registered as
  // B-tree indexes that no collection has.
  ASSERT_TRUE(env.collections
                  ->RegisterIndexer("profile", UsageIndexer(IndexKind::kBTree))
                  .ok());
  ASSERT_TRUE(env.collections
                  ->RegisterIndexer("other", UsageIndexer(IndexKind::kBTree))
                  .ok());
  {
    CTransaction t(env.collections.get());
    auto coll = t.WriteCollection("profile");
    ASSERT_TRUE(coll.ok());
    Status s = (*coll)->CreateIndex(&t, UsageIndexer(IndexKind::kList));
    EXPECT_EQ(s.code(), Status::Code::kInvalidArgument) << s.ToString();
    s = (*coll)->CreateIndex(&t, nullptr);
    EXPECT_EQ(s.code(), Status::Code::kInvalidArgument) << s.ToString();
    EXPECT_EQ((*coll)->index_count(), 1u);
    auto other = t.CreateCollection("other", UsageIndexer(IndexKind::kList));
    EXPECT_EQ(other.status().code(), Status::Code::kInvalidArgument)
        << other.status().ToString();
    ASSERT_TRUE(t.Commit().ok());
  }
  // The refused calls left the registrations as they were.
  auto registered = env.collections->FindIndexer("profile", "by-usage");
  ASSERT_TRUE(registered.ok());
  EXPECT_EQ((*registered)->kind(), IndexKind::kBTree);
  env.Restart();
  ASSERT_TRUE(env.collections->RegisterIndexer("profile", IdIndexer()).ok());
  CTransaction t(env.collections.get());
  auto names = t.ListCollections();
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(*names, std::vector<std::string>{"profile"});
  auto coll = t.ReadCollection("profile");
  ASSERT_TRUE(coll.ok());
  ASSERT_EQ((*coll)->index_count(), 1u);
  EXPECT_EQ((*coll)->indexes()[0].name, "by-id");
  auto id_indexer = IdIndexer();
  auto it = (*coll)->Query(&t, *id_indexer);
  ASSERT_TRUE(it.ok());
  int count = 0;
  for (; !(*it)->end(); (*it)->Next()) count++;
  EXPECT_EQ(count, 1);
  ASSERT_TRUE((*it)->Close().ok());
}

TEST(CollectionTest, IndexerRegistryFollowsTransactionOutcome) {
  // A name freed by a committed removal, an aborted create or a failed
  // back-fill can be created again with another kind in the same process.
  Env env;
  auto unique_usage = [](IndexKind kind) {
    return std::make_shared<MeterIndexer>(
        "by-usage", Uniqueness::kUnique, kind,
        [](const Meter& m) { return IntKey(m.view_count_ + m.print_count_); });
  };
  auto count = [](CTransaction* t, const Collection& coll,
                  const GenericIndexer& ix) {
    auto it = coll.Query(t, ix);
    EXPECT_TRUE(it.ok()) << it.status().ToString();
    int n = 0;
    for (; it.ok() && !(*it)->end(); (*it)->Next()) n++;
    if (it.ok()) EXPECT_TRUE((*it)->Close().ok());
    return n;
  };
  {
    CTransaction t(env.collections.get());
    auto coll = t.CreateCollection("profile", IdIndexer());
    ASSERT_TRUE(coll.ok());
    ASSERT_TRUE((*coll)->Insert(&t, std::make_unique<Meter>(1, 5, 0)).ok());
    ASSERT_TRUE((*coll)->Insert(&t, std::make_unique<Meter>(2, 5, 0)).ok());
    // A unique index over the two equal usages fails its back-fill...
    Status s = (*coll)->CreateIndex(&t, unique_usage(IndexKind::kBTree));
    EXPECT_EQ(s.code(), Status::Code::kUniqueViolation) << s.ToString();
    // ...and leaves the name free for another kind and uniqueness.
    ASSERT_TRUE((*coll)->CreateIndex(&t, UsageIndexer(IndexKind::kBTree)).ok());
    ASSERT_TRUE(t.Commit().ok());
  }
  {
    // A removal that aborts keeps the registration.
    CTransaction t(env.collections.get());
    auto coll = t.WriteCollection("profile");
    ASSERT_TRUE(coll.ok());
    ASSERT_TRUE((*coll)->RemoveIndex(&t, *UsageIndexer()).ok());
    ASSERT_TRUE(t.Abort().ok());
  }
  {
    CTransaction t(env.collections.get());
    auto coll = t.WriteCollection("profile");
    ASSERT_TRUE(coll.ok());
    EXPECT_EQ(count(&t, **coll, *UsageIndexer()), 2);
    ASSERT_TRUE((*coll)->RemoveIndex(&t, *UsageIndexer()).ok());
    ASSERT_TRUE(t.Commit().ok());
  }
  {
    CTransaction t(env.collections.get());
    auto coll = t.WriteCollection("profile");
    ASSERT_TRUE(coll.ok());
    auto list = UsageIndexer(IndexKind::kList);
    ASSERT_TRUE((*coll)->CreateIndex(&t, list).ok());
    EXPECT_EQ(count(&t, **coll, *list), 2);
    ASSERT_TRUE(t.CreateCollection("other", IdIndexer(IndexKind::kBTree)).ok());
    ASSERT_TRUE(t.Commit().ok());
  }
  {
    // An aborted create leaves nothing registered.
    CTransaction t(env.collections.get());
    ASSERT_TRUE(t.CreateCollection("aborted", IdIndexer(IndexKind::kBTree)).ok());
    ASSERT_TRUE(t.Abort().ok());
  }
  {
    // A removed collection's names are free once the removal commits.
    CTransaction t(env.collections.get());
    ASSERT_TRUE(t.RemoveCollection("other").ok());
    ASSERT_TRUE(t.Commit().ok());
  }
  EXPECT_EQ(env.collections->FindIndexer("other", "by-id").status().code(),
            Status::Code::kNotFound);
  EXPECT_EQ(env.collections->FindIndexer("aborted", "by-id").status().code(),
            Status::Code::kNotFound);
  {
    CTransaction t(env.collections.get());
    auto other = t.CreateCollection("other", IdIndexer(IndexKind::kList));
    ASSERT_TRUE(other.ok()) << other.status().ToString();
    auto aborted = t.CreateCollection("aborted", IdIndexer(IndexKind::kList));
    ASSERT_TRUE(aborted.ok()) << aborted.status().ToString();
    ASSERT_TRUE(t.Commit().ok());
  }
  auto usage = env.collections->FindIndexer("profile", "by-usage");
  ASSERT_TRUE(usage.ok());
  EXPECT_EQ((*usage)->kind(), IndexKind::kList);
}

TEST(CollectionTest, RemoveIndexAndLastIndexProtection) {
  Env env;
  CTransaction t(env.collections.get());
  auto id_indexer = IdIndexer();
  auto usage = UsageIndexer();
  auto coll = t.CreateCollection("profile", id_indexer);
  ASSERT_TRUE(coll.ok());
  ASSERT_TRUE((*coll)->CreateIndex(&t, usage).ok());
  ASSERT_TRUE((*coll)->RemoveIndex(&t, *usage).ok());
  EXPECT_EQ((*coll)->index_count(), 1u);
  // §5.1.2: removing the only index raises an exception.
  Status s = (*coll)->RemoveIndex(&t, *id_indexer);
  EXPECT_EQ(s.code(), Status::Code::kInvalidArgument);
}

TEST(CollectionTest, MismatchedIndexerRejected) {
  Env env;
  CTransaction t(env.collections.get());
  auto coll = t.CreateCollection("profile", IdIndexer(IndexKind::kBTree));
  ASSERT_TRUE(coll.ok());
  // Same name, different organization.
  auto wrong = IdIndexer(IndexKind::kHashTable);
  auto it = (*coll)->Query(&t, *wrong);
  EXPECT_EQ(it.status().code(), Status::Code::kInvalidArgument);
}

// ------------------------------------------- insensitive iterators

TEST(IteratorTest, UpdatesInvisibleUntilClose) {
  // The Halloween-syndrome scenario (§5.2.2): reset every meter with
  // usage > 100 — updating the very key used as the access path.
  Env env;
  CTransaction t(env.collections.get());
  auto usage = UsageIndexer();
  auto coll = t.CreateCollection("profile", usage);
  ASSERT_TRUE(coll.ok());
  for (int64_t i = 0; i < 20; i++) {
    ASSERT_TRUE(
        (*coll)->Insert(&t, std::make_unique<Meter>(i, 95 + i, 0)).ok());
  }
  // Meters with usage in [101, +inf): i = 6..19 — fourteen of them.
  IntKey min(101);
  auto it = (*coll)->Query(&t, *usage, &min, nullptr);
  ASSERT_TRUE(it.ok());
  int updated = 0;
  for (; !(*it)->end(); (*it)->Next()) {
    auto meter = (*it)->Write<Meter>();
    ASSERT_TRUE(meter.ok()) << meter.status().ToString();
    (*meter)->view_count_ = 0;  // Would re-enter the range... if sensitive.
    (*meter)->print_count_ = 0;
    updated++;
  }
  EXPECT_EQ(updated, 14);  // No infinite loop, no re-enumeration.
  ASSERT_TRUE((*it)->Close().ok());

  // After close, the index reflects the updates.
  auto verify = (*coll)->Query(&t, *usage, &min, nullptr);
  ASSERT_TRUE(verify.ok());
  EXPECT_TRUE((*verify)->end());  // Nothing above 100 anymore.
  ASSERT_TRUE((*verify)->Close().ok());
  auto zeros = (*coll)->Query(&t, *usage, IntKey(0));
  ASSERT_TRUE(zeros.ok());
  int count = 0;
  for (; !(*zeros)->end(); (*zeros)->Next()) count++;
  EXPECT_EQ(count, 14);
  ASSERT_TRUE((*zeros)->Close().ok());
  ASSERT_TRUE(t.Commit().ok());
}

TEST(IteratorTest, RemoveCurrentDeferredToClose) {
  Env env;
  CTransaction t(env.collections.get());
  auto id_indexer = IdIndexer();
  auto coll = t.CreateCollection("profile", id_indexer);
  ASSERT_TRUE(coll.ok());
  for (int64_t i = 0; i < 10; i++) {
    ASSERT_TRUE((*coll)->Insert(&t, std::make_unique<Meter>(i, 0, 0)).ok());
  }
  auto it = (*coll)->Query(&t, *id_indexer);
  ASSERT_TRUE(it.ok());
  for (; !(*it)->end(); (*it)->Next()) {
    auto meter = (*it)->Read<Meter>();
    ASSERT_TRUE(meter.ok());
    if ((*meter)->id_ % 2 == 0) {
      ASSERT_TRUE((*it)->RemoveCurrent().ok());
    }
  }
  ASSERT_TRUE((*it)->Close().ok());

  auto verify = (*coll)->Query(&t, *id_indexer);
  ASSERT_TRUE(verify.ok());
  int count = 0;
  for (; !(*verify)->end(); (*verify)->Next()) {
    EXPECT_EQ((*(*verify)->Read<Meter>())->id_ % 2, 1);
    count++;
  }
  EXPECT_EQ(count, 5);
  ASSERT_TRUE((*verify)->Close().ok());
  ASSERT_TRUE(t.Commit().ok());
}

TEST(IteratorTest, WritableDerefRequiresSoleIterator) {
  Env env;
  CTransaction t(env.collections.get());
  auto id_indexer = IdIndexer();
  auto coll = t.CreateCollection("profile", id_indexer);
  ASSERT_TRUE(coll.ok());
  ASSERT_TRUE((*coll)->Insert(&t, std::make_unique<Meter>(1, 0, 0)).ok());

  auto it1 = (*coll)->Query(&t, *id_indexer);
  auto it2 = (*coll)->Query(&t, *id_indexer);
  ASSERT_TRUE(it1.ok() && it2.ok());
  // Two iterators open: writable dereference violates constraint 2.
  auto w = (*it1)->Write<Meter>();
  EXPECT_EQ(w.status().code(), Status::Code::kInvalidArgument);
  // Reading is fine.
  EXPECT_TRUE((*it1)->Read<Meter>().ok());
  ASSERT_TRUE((*it2)->Close().ok());
  // Now writable works.
  EXPECT_TRUE((*it1)->Write<Meter>().ok());
  ASSERT_TRUE((*it1)->Close().ok());
}

TEST(IteratorTest, CommitBlockedWhileIteratorOpen) {
  Env env;
  CTransaction t(env.collections.get());
  auto id_indexer = IdIndexer();
  auto coll = t.CreateCollection("profile", id_indexer);
  ASSERT_TRUE(coll.ok());
  ASSERT_TRUE((*coll)->Insert(&t, std::make_unique<Meter>(1, 0, 0)).ok());
  auto it = (*coll)->Query(&t, *id_indexer);
  ASSERT_TRUE(it.ok());
  EXPECT_EQ(t.Commit().code(), Status::Code::kInvalidArgument);
  ASSERT_TRUE((*it)->Close().ok());
  EXPECT_TRUE(t.Commit().ok());
}

TEST(IteratorTest, UniqueViolationAtCloseEjectsObject) {
  for (IndexKind kind : kAllKinds) {
    SCOPED_TRACE(KindName(kind));
    Env env;
    CTransaction t(env.collections.get());
    auto id_indexer = IdIndexer(kind);
    auto coll = t.CreateCollection("profile", id_indexer);
    ASSERT_TRUE(coll.ok());
    ASSERT_TRUE((*coll)->Insert(&t, std::make_unique<Meter>(1, 0, 0)).ok());
    ObjectId second = *(*coll)->Insert(&t, std::make_unique<Meter>(2, 0, 0));

    // Update meter 2's id to 1 — a duplicate the store cannot prevent at
    // update time (§5.2.3); detected at close, object ejected.
    auto it = (*coll)->Query(&t, *id_indexer, IntKey(2));
    ASSERT_TRUE(it.ok());
    ASSERT_FALSE((*it)->end());
    auto meter = (*it)->Write<Meter>();
    ASSERT_TRUE(meter.ok());
    (*meter)->id_ = 1;
    Status close_status = (*it)->Close();
    EXPECT_TRUE(close_status.IsUniqueViolation()) << close_status.ToString();
    ASSERT_EQ((*it)->ejected().size(), 1u);
    EXPECT_EQ((*it)->ejected()[0], second);

    // The ejected object is out of the collection's indexes...
    auto gone = (*coll)->Query(&t, *id_indexer, IntKey(2));
    ASSERT_TRUE(gone.ok());
    EXPECT_TRUE((*gone)->end());
    ASSERT_TRUE((*gone)->Close().ok());
    auto one = (*coll)->Query(&t, *id_indexer, IntKey(1));
    ASSERT_TRUE(one.ok());
    int count = 0;
    for (; !(*one)->end(); (*one)->Next()) count++;
    EXPECT_EQ(count, 1);
    ASSERT_TRUE((*one)->Close().ok());
    // ...but still exists in the object store for re-integration.
    EXPECT_TRUE(t.txn()->OpenReadonly<Meter>(second).ok());
  }
}

TEST(IteratorTest, UnchangedKeysSkipIndexMaintenance) {
  Env env;
  CTransaction t(env.collections.get());
  auto id_indexer = IdIndexer();
  auto coll = t.CreateCollection("profile", id_indexer);
  ASSERT_TRUE(coll.ok());
  ASSERT_TRUE((*coll)->Insert(&t, std::make_unique<Meter>(1, 10, 0)).ok());
  auto it = (*coll)->Query(&t, *id_indexer);
  ASSERT_TRUE(it.ok());
  auto meter = (*it)->Write<Meter>();
  ASSERT_TRUE(meter.ok());
  (*meter)->view_count_ = 99;  // id_ (the indexed key) unchanged.
  ASSERT_TRUE((*it)->Close().ok());
  auto verify = (*coll)->Query(&t, *id_indexer, IntKey(1));
  ASSERT_TRUE(verify.ok());
  ASSERT_FALSE((*verify)->end());
  EXPECT_EQ((*(*verify)->Read<Meter>())->view_count_, 99);
  ASSERT_TRUE((*verify)->Close().ok());
}

// ------------------------------------------------ collection lifecycle

TEST(CollectionStoreTest, CollectionsPersistAcrossRestart) {
  Env env;
  {
    CTransaction t(env.collections.get());
    auto coll = t.CreateCollection("profile", IdIndexer());
    ASSERT_TRUE(coll.ok());
    for (int64_t i = 0; i < 10; i++) {
      ASSERT_TRUE((*coll)->Insert(&t, std::make_unique<Meter>(i, i, 0)).ok());
    }
    ASSERT_TRUE(t.Commit(true).ok());
  }
  env.Restart();
  // Re-register the indexer (extractors cannot be persisted).
  ASSERT_TRUE(
      env.collections->RegisterIndexer("profile", IdIndexer()).ok());
  CTransaction t(env.collections.get());
  auto coll = t.ReadCollection("profile");
  ASSERT_TRUE(coll.ok()) << coll.status().ToString();
  auto id_indexer = IdIndexer();
  auto it = (*coll)->Query(&t, *id_indexer, IntKey(7));
  ASSERT_TRUE(it.ok()) << it.status().ToString();
  ASSERT_FALSE((*it)->end());
  EXPECT_EQ((*(*it)->Read<Meter>())->view_count_, 7);
  ASSERT_TRUE((*it)->Close().ok());
}

TEST(CollectionStoreTest, DuplicateCollectionNameRejected) {
  Env env;
  CTransaction t(env.collections.get());
  ASSERT_TRUE(t.CreateCollection("profile", IdIndexer()).ok());
  auto dup = t.CreateCollection("profile", IdIndexer());
  EXPECT_EQ(dup.status().code(), Status::Code::kAlreadyExists);
}

TEST(CollectionStoreTest, ReadMissingCollectionFails) {
  Env env;
  CTransaction t(env.collections.get());
  EXPECT_TRUE(t.ReadCollection("nope").status().IsNotFound());
  EXPECT_TRUE(t.WriteCollection("nope").status().IsNotFound());
  EXPECT_TRUE(t.RemoveCollection("nope").IsNotFound());
}

TEST(CollectionStoreTest, RemoveCollectionRemovesMembers) {
  Env env;
  std::vector<ObjectId> members;
  {
    CTransaction t(env.collections.get());
    auto coll = t.CreateCollection("profile", IdIndexer());
    ASSERT_TRUE(coll.ok());
    for (int64_t i = 0; i < 5; i++) {
      members.push_back(
          *(*coll)->Insert(&t, std::make_unique<Meter>(i, 0, 0)));
    }
    ASSERT_TRUE(t.Commit().ok());
  }
  {
    CTransaction t(env.collections.get());
    ASSERT_TRUE(t.RemoveCollection("profile").ok());
    ASSERT_TRUE(t.Commit().ok());
  }
  CTransaction t(env.collections.get());
  EXPECT_TRUE(t.ReadCollection("profile").status().IsNotFound());
  for (ObjectId oid : members) {
    EXPECT_TRUE(t.txn()->OpenReadonly<Meter>(oid).status().IsNotFound());
  }
  // The name is reusable.
  EXPECT_TRUE(t.CreateCollection("profile", IdIndexer()).ok());
}

TEST(CollectionStoreTest, AbortRollsBackCollectionChanges) {
  Env env;
  {
    CTransaction t(env.collections.get());
    auto coll = t.CreateCollection("profile", IdIndexer());
    ASSERT_TRUE(coll.ok());
    ASSERT_TRUE((*coll)->Insert(&t, std::make_unique<Meter>(1, 0, 0)).ok());
    ASSERT_TRUE(t.Commit().ok());
  }
  {
    CTransaction t(env.collections.get());
    auto coll = t.WriteCollection("profile");
    ASSERT_TRUE(coll.ok());
    ASSERT_TRUE((*coll)->Insert(&t, std::make_unique<Meter>(2, 0, 0)).ok());
    ASSERT_TRUE(t.Abort().ok());
  }
  CTransaction t(env.collections.get());
  auto coll = t.ReadCollection("profile");
  ASSERT_TRUE(coll.ok());
  auto id_indexer = IdIndexer();
  ASSERT_TRUE(env.collections->RegisterIndexer("profile", id_indexer).ok());
  auto it = (*coll)->Query(&t, *id_indexer);
  ASSERT_TRUE(it.ok());
  int count = 0;
  for (; !(*it)->end(); (*it)->Next()) count++;
  EXPECT_EQ(count, 1);  // Only the committed object.
  ASSERT_TRUE((*it)->Close().ok());
}

TEST(CollectionStoreTest, MissingIndexerReported) {
  Env env;
  {
    CTransaction t(env.collections.get());
    auto coll = t.CreateCollection("profile", IdIndexer());
    ASSERT_TRUE(coll.ok());
    ASSERT_TRUE((*coll)->Insert(&t, std::make_unique<Meter>(1, 0, 0)).ok());
    ASSERT_TRUE(t.Commit(true).ok());
  }
  env.Restart();  // Indexers are gone.
  CTransaction t(env.collections.get());
  auto coll = t.WriteCollection("profile");
  ASSERT_TRUE(coll.ok());
  auto insert = (*coll)->Insert(&t, std::make_unique<Meter>(2, 0, 0));
  EXPECT_TRUE(insert.status().IsNotFound());
  EXPECT_NE(insert.status().ToString().find("re-register"),
            std::string::npos);
}

// ------------------------------------------------ property tests

// Random workload against an in-memory model, checked for every index kind
// with both a unique and a non-unique index present.
class CollectionPropertyTest : public ::testing::TestWithParam<IndexKind> {};

TEST_P(CollectionPropertyTest, RandomOpsMatchModel) {
  Env env;
  Random rng(static_cast<uint64_t>(GetParam()) * 97 + 3);
  auto id_indexer = IdIndexer(GetParam());
  auto usage = UsageIndexer(GetParam() == IndexKind::kHashTable
                                ? IndexKind::kBTree
                                : GetParam());

  CTransaction setup(env.collections.get());
  auto created = setup.CreateCollection("c", id_indexer);
  ASSERT_TRUE(created.ok());
  ASSERT_TRUE((*created)->CreateIndex(&setup, usage).ok());
  ASSERT_TRUE(setup.Commit().ok());

  // Model: id -> (views, prints).
  std::map<int64_t, std::pair<int64_t, int64_t>> model;
  int64_t next_id = 0;

  for (int round = 0; round < 25; round++) {
    CTransaction t(env.collections.get());
    auto coll = t.WriteCollection("c");
    ASSERT_TRUE(coll.ok());
    for (int op = 0; op < 8; op++) {
      uint64_t roll = rng.Uniform(100);
      if (model.empty() || roll < 40) {
        int64_t id = next_id++;
        int64_t views = static_cast<int64_t>(rng.Uniform(50));
        ASSERT_TRUE(
            (*coll)->Insert(&t, std::make_unique<Meter>(id, views, 0)).ok());
        model[id] = {views, 0};
      } else if (roll < 70) {
        // Update a random object's views through an iterator.
        auto it_model = model.begin();
        std::advance(it_model, rng.Uniform(model.size()));
        auto it = (*coll)->Query(&t, *id_indexer, IntKey(it_model->first));
        ASSERT_TRUE(it.ok());
        ASSERT_FALSE((*it)->end());
        auto meter = (*it)->Write<Meter>();
        ASSERT_TRUE(meter.ok());
        int64_t views = static_cast<int64_t>(rng.Uniform(50));
        (*meter)->view_count_ = views;
        ASSERT_TRUE((*it)->Close().ok());
        it_model->second.first = views;
      } else {
        auto it_model = model.begin();
        std::advance(it_model, rng.Uniform(model.size()));
        auto it = (*coll)->Query(&t, *id_indexer, IntKey(it_model->first));
        ASSERT_TRUE(it.ok());
        ASSERT_FALSE((*it)->end());
        ASSERT_TRUE((*it)->RemoveCurrent().ok());
        ASSERT_TRUE((*it)->Close().ok());
        model.erase(it_model);
      }
    }
    ASSERT_TRUE(t.Commit(round % 4 == 0).ok());
  }

  // Verify: scan matches the model; every id resolves; usage queries agree.
  CTransaction t(env.collections.get());
  auto coll = t.ReadCollection("c");
  ASSERT_TRUE(coll.ok());
  auto scan = (*coll)->Query(&t, *id_indexer);
  ASSERT_TRUE(scan.ok());
  std::map<int64_t, int64_t> seen;
  for (; !(*scan)->end(); (*scan)->Next()) {
    auto meter = (*scan)->Read<Meter>();
    ASSERT_TRUE(meter.ok());
    seen[(*meter)->id_] = (*meter)->view_count_;
  }
  ASSERT_TRUE((*scan)->Close().ok());
  ASSERT_EQ(seen.size(), model.size());
  for (const auto& [id, state] : model) {
    ASSERT_TRUE(seen.count(id)) << id;
    EXPECT_EQ(seen[id], state.first) << id;
  }
  // Usage (derived-value) index agrees with the model.
  std::map<int64_t, int> usage_histogram;
  for (const auto& [id, state] : model) {
    usage_histogram[state.first + state.second]++;
  }
  for (const auto& [value, expected_count] : usage_histogram) {
    auto it = (*coll)->Query(&t, *usage, IntKey(value));
    ASSERT_TRUE(it.ok());
    int count = 0;
    for (; !(*it)->end(); (*it)->Next()) count++;
    EXPECT_EQ(count, expected_count) << "usage " << value;
    ASSERT_TRUE((*it)->Close().ok());
  }
}

INSTANTIATE_TEST_SUITE_P(Kinds, CollectionPropertyTest,
                         ::testing::ValuesIn(kAllKinds), KindParamName);

// One index kind under random insert/remove, driven through the five-
// operation contract and checked against a model: scans, exact matches
// (through many B-tree splits and merges and hash bucket splits), ranges
// on the kinds that serve them, and the B-tree's structural invariants.
void ExpectContractHoldsUnderChurn(IndexKind kind) {
  const IndexOps& ops = IndexOpsFor(kind);
  Env env;
  Random rng(424242 + static_cast<uint64_t>(kind));
  object::Transaction txn(env.objects.get());
  auto indexer = std::make_shared<MeterIndexer>(
      "churn", Uniqueness::kNonUnique, kind,
      [](const Meter& m) { return IntKey(m.id_); });
  auto root = ops.create(&txn);
  ASSERT_TRUE(root.ok());
  auto validate = [&]() -> Status {
    if (kind != IndexKind::kBTree) return Status::OK();
    return BTreeIndex::Validate(&txn, *indexer, *root);
  };

  constexpr int64_t kKeys = 400;
  std::set<std::pair<int64_t, ObjectId>> model;  // In (key, oid) order.
  ObjectId fake_oid = 1000;
  for (int op = 0; op < 3000; op++) {
    if (model.empty() || rng.Bernoulli(0.6)) {
      int64_t k = static_cast<int64_t>(rng.Uniform(kKeys));
      ObjectId oid = fake_oid++;
      ASSERT_TRUE(ops.insert(&txn, *indexer, *root, IntKey(k), oid).ok());
      model.insert({k, oid});
    } else {
      auto it = model.begin();
      std::advance(it, rng.Uniform(model.size()));
      ASSERT_TRUE(ops.remove(&txn, *root, IntKey(it->first), it->second).ok());
      model.erase(it);
    }
    if (op % 250 == 0) {
      Status valid = validate();
      ASSERT_TRUE(valid.ok()) << "op " << op << ": " << valid.ToString();
    }
  }
  ASSERT_TRUE(validate().ok());
  EXPECT_TRUE(ops.remove(&txn, *root, IntKey(0), fake_oid).IsNotFound());

  // The oids of the model entries with lo <= key <= hi, in model order.
  auto expect = [&](int64_t lo, int64_t hi) {
    std::vector<ObjectId> oids;
    for (const auto& [k, oid] : model) {
      if (k >= lo && k <= hi) oids.push_back(oid);
    }
    return oids;
  };
  // Only the B-tree returns entries in (key, oid) order.
  auto sorted = [&](std::vector<ObjectId> oids) {
    if (kind != IndexKind::kBTree) std::sort(oids.begin(), oids.end());
    return oids;
  };

  std::vector<ObjectId> scanned;
  ASSERT_TRUE(ops.lookup(&txn, *root, nullptr, nullptr, &scanned).ok());
  EXPECT_EQ(sorted(scanned), sorted(expect(0, kKeys)));
  for (int64_t k = 0; k < kKeys; k++) {
    IntKey key(k);
    std::vector<ObjectId> got;
    ASSERT_TRUE(ops.lookup(&txn, *root, &key, &key, &got).ok());
    EXPECT_EQ(sorted(got), sorted(expect(k, k))) << k;
  }
  for (int q = 0; q < 50; q++) {
    int64_t lo = static_cast<int64_t>(rng.Uniform(kKeys));
    int64_t hi = lo + 1 + static_cast<int64_t>(rng.Uniform(100));
    IntKey min(lo), max(hi);
    // Every fifth range is open above.
    const IntKey* upper = q % 5 == 0 ? nullptr : &max;
    std::vector<ObjectId> got;
    Status s = ops.lookup(&txn, *root, &min, upper, &got);
    if (!ops.ranges) {
      EXPECT_EQ(s.code(), Status::Code::kNotSupported) << s.ToString();
      continue;
    }
    ASSERT_TRUE(s.ok()) << s.ToString();
    if (upper == nullptr) hi = kKeys;
    EXPECT_EQ(sorted(got), sorted(expect(lo, hi))) << "[" << lo << ", " << hi
                                                   << "]";
  }
  ASSERT_TRUE(ops.destroy(&txn, *root).ok());
  ASSERT_TRUE(txn.Commit().ok());
}

TEST(BTreePropertyTest, InvariantsHoldUnderChurn) {
  ExpectContractHoldsUnderChurn(IndexKind::kBTree);
}

TEST(HashIndexPropertyTest, SplitsPreserveEntries) {
  ExpectContractHoldsUnderChurn(IndexKind::kHashTable);
}

TEST(ListIndexPropertyTest, ContractHoldsUnderChurn) {
  ExpectContractHoldsUnderChurn(IndexKind::kList);
}

// --------------------------------------------------------- key classes

TEST(KeyTest, IntKeyOrderingAndHash) {
  IntKey a(-5), b(3), c(3);
  EXPECT_LT(a.Compare(b), 0);
  EXPECT_GT(b.Compare(a), 0);
  EXPECT_EQ(b.Compare(c), 0);
  EXPECT_EQ(b.Hash(), c.Hash());
}

TEST(KeyTest, StringKeyOrdering) {
  StringKey a("apple"), b("banana"), c("apple");
  EXPECT_LT(a.Compare(b), 0);
  EXPECT_EQ(a.Compare(c), 0);
  EXPECT_EQ(a.Hash(), c.Hash());
}

TEST(KeyTest, DoubleKeyNanOrdering) {
  DoubleKey a(1.5), nan(std::nan("")), b(2.5);
  EXPECT_LT(a.Compare(b), 0);
  EXPECT_GT(nan.Compare(a), 0);  // NaN sorts last.
  EXPECT_EQ(nan.Compare(nan), 0);
}

TEST(KeyTest, PickleRoundtrip) {
  StringKey original("hello world");
  Buffer pickled = PickleKey(original);
  StringKey restored;
  object::Unpickler u{Slice(pickled)};
  ASSERT_TRUE(restored.UnpickleFrom(&u).ok());
  EXPECT_EQ(restored.value(), "hello world");
}

}  // namespace
}  // namespace tdb::collection
