// Full-stack integration tests: collection store over object store over
// chunk store over (faulty / file-backed / attacked) platform stores —
// the scenarios a DRM device actually faces.

#include <gtest/gtest.h>

#include <filesystem>
#include <thread>

#include "backup/backup_store.h"
#include "collection/collection.h"
#include "common/random.h"
#include "platform/archival_store.h"
#include "platform/fault_injection.h"
#include "platform/file_store.h"
#include "platform/mem_store.h"
#include "platform/one_way_counter.h"
#include "platform/secret_store.h"

namespace tdb {
namespace {

using collection::CollectionStore;
using collection::CTransaction;
using collection::IndexKind;
using collection::IntKey;
using collection::Uniqueness;
using object::ObjectId;

constexpr object::ClassId kAccountClass = 150;

class Account : public object::Object {
 public:
  Account() = default;
  Account(int64_t id, int64_t balance) : id_(id), balance_(balance) {}
  object::ClassId class_id() const override { return kAccountClass; }
  void Pickle(object::Pickler* p) const override {
    p->PutInt64(id_);
    p->PutInt64(balance_);
  }
  Status UnpickleFrom(object::Unpickler* u) override {
    TDB_RETURN_IF_ERROR(u->GetInt64(&id_));
    return u->GetInt64(&balance_);
  }
  int64_t id_ = 0;
  int64_t balance_ = 0;
};

using AccountIndexer = collection::Indexer<Account, IntKey>;

std::shared_ptr<collection::GenericIndexer> ById() {
  return std::make_shared<AccountIndexer>(
      "by-id", Uniqueness::kUnique, IndexKind::kBTree,
      [](const Account& a) { return IntKey(a.id_); });
}

// A whole TDB stack over a caller-provided untrusted store.
struct Stack {
  platform::MemSecretStore secrets;
  platform::MemOneWayCounter counter;
  std::unique_ptr<chunk::ChunkStore> chunks;
  std::unique_ptr<object::ObjectStore> objects;
  std::unique_ptr<CollectionStore> collections;

  Status Open(platform::UntrustedStore* store,
              object::ObjectStoreOptions oopts = {},
              platform::OneWayCounter* hw_counter = nullptr) {
    if (!secrets.GetSecret().ok()) {
      TDB_RETURN_IF_ERROR(secrets.Provision(Slice("integration-secret")));
    }
    if (hw_counter == nullptr) hw_counter = &counter;
    collections.reset();
    objects.reset();
    chunks.reset();
    chunk::ChunkStoreOptions copts;
    copts.security = crypto::SecurityConfig::Modern();
    copts.segment_size = 16 * 1024;
    copts.map_fanout = 8;
    TDB_ASSIGN_OR_RETURN(
        chunks, chunk::ChunkStore::Open(store, &secrets, hw_counter, copts));
    TDB_ASSIGN_OR_RETURN(objects,
                         object::ObjectStore::Open(chunks.get(), oopts));
    TDB_RETURN_IF_ERROR(objects->registry().Register<Account>(kAccountClass));
    TDB_ASSIGN_OR_RETURN(collections, CollectionStore::Open(objects.get()));
    return collections->RegisterIndexer("bank", ById());
  }
};

TEST(IntegrationTest, CollectionWorkloadSurvivesCrashAndRecovers) {
  platform::MemUntrustedStore base;
  platform::FaultInjectingStore faulty(&base, 99);
  Stack stack;
  std::map<int64_t, int64_t> durable_model;

  {
    ASSERT_TRUE(stack.Open(&faulty).ok());
    CTransaction setup(stack.collections.get());
    auto bank = setup.CreateCollection("bank", ById());
    ASSERT_TRUE(bank.ok());
    for (int64_t id = 0; id < 50; id++) {
      ASSERT_TRUE(
          (*bank)->Insert(&setup, std::make_unique<Account>(id, 100)).ok());
    }
    ASSERT_TRUE(setup.Commit(true).ok());
    for (int64_t id = 0; id < 50; id++) durable_model[id] = 100;

    // Updates, some durable; crash mid-stream.
    Random rng(7);
    faulty.CrashAfterWrites(rng.Uniform(60) + 10);
    std::map<int64_t, int64_t> pending_model = durable_model;
    auto indexer = ById();
    for (int round = 0; round < 500; round++) {
      CTransaction txn(stack.collections.get());
      auto bank_or = txn.ReadCollection("bank");
      if (!bank_or.ok()) break;
      int64_t id = static_cast<int64_t>(rng.Uniform(50));
      int64_t delta = static_cast<int64_t>(rng.Uniform(20)) - 10;
      auto it = (*bank_or)->Query(&txn, *indexer, IntKey(id));
      if (!it.ok()) break;
      auto account = (*it)->Write<Account>();
      if (!account.ok()) break;
      (*account)->balance_ += delta;
      if (!(*it)->Close().ok()) break;
      bool durable = round % 4 == 0;
      uint64_t durables_before = stack.chunks->Stats().durable_commits;
      if (!txn.Commit(durable).ok()) break;
      pending_model[id] += delta;
      if (durable ||
          stack.chunks->Stats().durable_commits > durables_before) {
        durable_model = pending_model;
      }
      if (faulty.crashed()) break;
    }
  }

  // Drop the crashed stack (its close-time checkpoint fails against the
  // crashed store, as on a real power loss), then reboot and recover.
  stack.collections.reset();
  stack.objects.reset();
  stack.chunks.reset();
  faulty.Reboot();
  Stack recovered;
  recovered.secrets = stack.secrets;  // Same device secret.
  // (counter state lives in stack.counter; share it.)
  Status open = [&] {
    chunk::ChunkStoreOptions copts;
    copts.security = crypto::SecurityConfig::Modern();
    copts.segment_size = 16 * 1024;
    copts.map_fanout = 8;
    TDB_ASSIGN_OR_RETURN(recovered.chunks,
                         chunk::ChunkStore::Open(&faulty, &stack.secrets,
                                                 &stack.counter, copts));
    TDB_ASSIGN_OR_RETURN(recovered.objects,
                         object::ObjectStore::Open(recovered.chunks.get()));
    TDB_RETURN_IF_ERROR(
        recovered.objects->registry().Register<Account>(kAccountClass));
    TDB_ASSIGN_OR_RETURN(recovered.collections,
                         CollectionStore::Open(recovered.objects.get()));
    return recovered.collections->RegisterIndexer("bank", ById());
  }();
  ASSERT_TRUE(open.ok()) << open.ToString();

  // Integrity scrub passes, and every durable account state is present.
  // (Balances may be ahead of the durable floor by covered nondurable
  // commits or the unacknowledged final transaction — here we just assert
  // presence and queryability of all 50 accounts.)
  uint64_t checked = 0;
  ASSERT_TRUE(recovered.chunks->VerifyIntegrity(&checked).ok());
  EXPECT_GT(checked, 50u);

  CTransaction txn(recovered.collections.get());
  auto bank = txn.ReadCollection("bank");
  ASSERT_TRUE(bank.ok());
  auto indexer = ById();
  for (int64_t id = 0; id < 50; id++) {
    auto it = (*bank)->Query(&txn, *indexer, IntKey(id));
    ASSERT_TRUE(it.ok());
    ASSERT_FALSE((*it)->end()) << "account " << id << " missing";
    ASSERT_TRUE((*it)->Close().ok());
  }
}

TEST(IntegrationTest, FullStackOnRealFiles) {
  auto dir = std::filesystem::temp_directory_path() /
             ("tdb_integration_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  // The device's hardware counter persists across restarts; emulate it
  // with a file next to the database (as the paper's evaluation does).
  platform::FileOneWayCounter hw_counter(dir.string() + ".counter",
                                         /*sync=*/false);
  std::filesystem::remove(dir.string() + ".counter");
  {
    platform::FileUntrustedStore store(dir.string(), /*sync_writes=*/false);
    Stack stack;
    Status open = stack.Open(&store, {}, &hw_counter);
    ASSERT_TRUE(open.ok()) << open.ToString();
    CTransaction txn(stack.collections.get());
    auto bank = txn.CreateCollection("bank", ById());
    ASSERT_TRUE(bank.ok());
    for (int64_t id = 0; id < 30; id++) {
      ASSERT_TRUE(
          (*bank)->Insert(&txn, std::make_unique<Account>(id, id * 7)).ok());
    }
    ASSERT_TRUE(txn.Commit(true).ok());
    ASSERT_TRUE(stack.chunks->Close().ok());
  }
  // Fresh process image: reopen from the files alone.
  {
    platform::FileUntrustedStore store(dir.string(), /*sync_writes=*/false);
    Stack stack;
    Status reopen = stack.Open(&store, {}, &hw_counter);
    ASSERT_TRUE(reopen.ok()) << reopen.ToString();
    CTransaction txn(stack.collections.get());
    auto bank = txn.ReadCollection("bank");
    ASSERT_TRUE(bank.ok());
    auto indexer = ById();
    auto it = (*bank)->Query(&txn, *indexer, IntKey(29));
    ASSERT_TRUE(it.ok());
    ASSERT_FALSE((*it)->end());
    EXPECT_EQ((*(*it)->Read<Account>())->balance_, 29 * 7);
    ASSERT_TRUE((*it)->Close().ok());
  }
  std::filesystem::remove_all(dir);
  std::filesystem::remove(dir.string() + ".counter");
}

TEST(IntegrationTest, IndexTamperingDetectedThroughQueries) {
  // §1's motivating attack: "a malicious user can effectively remove data
  // from a database by tampering with an index on the data". Flip bytes
  // across the whole image: the integrity scrub must catch every flip that
  // lands on live bytes, and queries must never return silently wrong rows.
  platform::MemUntrustedStore store;
  Stack stack;
  ASSERT_TRUE(stack.Open(&store).ok());
  {
    CTransaction txn(stack.collections.get());
    auto bank = txn.CreateCollection("bank", ById());
    ASSERT_TRUE(bank.ok());
    for (int64_t id = 0; id < 40; id++) {
      ASSERT_TRUE(
          (*bank)->Insert(&txn, std::make_unique<Account>(id, 555)).ok());
    }
    ASSERT_TRUE(txn.Commit(true).ok());
  }
  // Compact so most bytes in the image are live.
  for (int i = 0; i < 10; i++) ASSERT_TRUE(stack.chunks->Clean(4).ok());
  ASSERT_TRUE(stack.chunks->Checkpoint().ok());

  auto indexer = ById();
  Random rng(3);
  int detected = 0, intact = 0;
  for (int trial = 0; trial < 40; trial++) {
    auto files = store.List();
    std::string file;
    uint64_t size = 0;
    do {
      file = files[rng.Uniform(files.size())];
      size = *store.Size(file);
    } while (size == 0);
    uint64_t off = rng.Uniform(size);
    ASSERT_TRUE(store.CorruptByte(file, off, 0x01).ok());

    // Whole-database scrub: detects any flip on live bytes.
    Status scrub = stack.chunks->VerifyIntegrity(nullptr);
    if (!scrub.ok()) {
      EXPECT_TRUE(scrub.IsTamperDetected()) << scrub.ToString();
      detected++;
    } else {
      intact++;  // Flip landed on dead bytes (obsolete records/anchors).
    }
    // Point query: either correct or a detected failure, never wrong.
    CTransaction txn(stack.collections.get());
    int64_t id = static_cast<int64_t>(rng.Uniform(40));
    auto bank = txn.ReadCollection("bank");
    if (bank.ok()) {
      auto it = (*bank)->Query(&txn, *indexer, IntKey(id));
      if (it.ok() && !(*it)->end()) {
        auto account = (*it)->Read<Account>();
        if (account.ok()) {
          ASSERT_EQ((*account)->balance_, 555);
        }
      }
      if (it.ok()) (void)(*it)->Close().ok();
    }
    ASSERT_TRUE(store.CorruptByte(file, off, 0x01).ok());  // Undo.
  }
  EXPECT_GT(detected, 0);
  EXPECT_EQ(detected + intact, 40);
}

TEST(IntegrationTest, ConcurrentBankTransfersPreserveInvariant) {
  // Strict 2PL across threads: total balance is invariant under
  // concurrent transfers; deadlocks resolve via lock timeouts + retry.
  platform::MemUntrustedStore store;
  Stack stack;
  object::ObjectStoreOptions oopts;
  oopts.lock_timeout = std::chrono::milliseconds(50);
  ASSERT_TRUE(stack.Open(&store, oopts).ok());

  constexpr int kAccounts = 8;
  constexpr int64_t kInitial = 1000;
  std::vector<ObjectId> ids;
  {
    object::Transaction txn(stack.objects.get());
    for (int i = 0; i < kAccounts; i++) {
      ids.push_back(*txn.Insert(std::make_unique<Account>(i, kInitial)));
    }
    ASSERT_TRUE(txn.Commit(true).ok());
  }

  auto worker = [&](uint64_t seed) {
    Random rng(seed);
    for (int i = 0; i < 60; i++) {
      ObjectId from = ids[rng.Uniform(kAccounts)];
      ObjectId to = ids[rng.Uniform(kAccounts)];
      if (from == to) continue;
      int64_t amount = static_cast<int64_t>(rng.Uniform(50));
      for (int attempt = 0; attempt < 20; attempt++) {
        object::Transaction txn(stack.objects.get());
        auto a = txn.OpenWritable<Account>(from);
        if (!a.ok()) continue;  // Timeout: retry fresh.
        auto b = txn.OpenWritable<Account>(to);
        if (!b.ok()) continue;
        (*a)->balance_ -= amount;
        (*b)->balance_ += amount;
        if (txn.Commit(false).ok()) break;
      }
    }
  };
  std::vector<std::thread> threads;
  for (uint64_t t = 0; t < 4; t++) threads.emplace_back(worker, t + 1);
  for (auto& thread : threads) thread.join();

  object::Transaction txn(stack.objects.get());
  int64_t total = 0;
  for (ObjectId id : ids) {
    auto account = txn.OpenReadonly<Account>(id);
    ASSERT_TRUE(account.ok());
    total += (*account)->balance_;
  }
  EXPECT_EQ(total, kAccounts * kInitial);
}

TEST(IntegrationTest, BackupAndRestoreWholeCollectionDatabase) {
  platform::MemUntrustedStore device;
  platform::MemArchivalStore archive;
  Stack stack;
  ASSERT_TRUE(stack.Open(&device).ok());
  {
    CTransaction txn(stack.collections.get());
    auto bank = txn.CreateCollection("bank", ById());
    ASSERT_TRUE(bank.ok());
    for (int64_t id = 0; id < 25; id++) {
      ASSERT_TRUE(
          (*bank)->Insert(&txn, std::make_unique<Account>(id, id + 1)).ok());
    }
    ASSERT_TRUE(txn.Commit(true).ok());
  }
  auto backups =
      std::move(backup::BackupStore::Open(stack.chunks.get(), &archive,
                                          &stack.secrets,
                                          crypto::SecurityConfig::Modern()))
          .value();
  ASSERT_TRUE(backups->CreateFull("b0").ok());
  {
    CTransaction txn(stack.collections.get());
    auto bank = txn.WriteCollection("bank");
    ASSERT_TRUE(bank.ok());
    ASSERT_TRUE(
        (*bank)->Insert(&txn, std::make_unique<Account>(100, 777)).ok());
    ASSERT_TRUE(txn.Commit(true).ok());
  }
  ASSERT_TRUE(backups->CreateIncremental("b1").ok());
  ASSERT_TRUE(backups->Verify({"b0", "b1"}).ok());

  // Restore onto a replacement device and use it through the FULL stack.
  platform::MemUntrustedStore replacement;
  Stack restored_stack;
  restored_stack.secrets = stack.secrets;
  chunk::ChunkStoreOptions copts;
  copts.security = crypto::SecurityConfig::Modern();
  copts.segment_size = 16 * 1024;
  copts.map_fanout = 8;
  auto target = std::move(chunk::ChunkStore::Open(&replacement,
                                                  &stack.secrets,
                                                  &restored_stack.counter,
                                                  copts))
                    .value();
  ASSERT_TRUE(backups->Restore({"b0", "b1"}, target.get()).ok());

  auto objects = std::move(object::ObjectStore::Open(target.get())).value();
  ASSERT_TRUE(objects->registry().Register<Account>(kAccountClass).ok());
  auto colls = std::move(CollectionStore::Open(objects.get())).value();
  ASSERT_TRUE(colls->RegisterIndexer("bank", ById()).ok());

  CTransaction txn(colls.get());
  auto bank = txn.ReadCollection("bank");
  ASSERT_TRUE(bank.ok()) << bank.status().ToString();
  auto indexer = ById();
  auto it = (*bank)->Query(&txn, *indexer, IntKey(100));
  ASSERT_TRUE(it.ok());
  ASSERT_FALSE((*it)->end());
  EXPECT_EQ((*(*it)->Read<Account>())->balance_, 777);
  ASSERT_TRUE((*it)->Close().ok());
}

}  // namespace
}  // namespace tdb
