#include "backup/backup_store.h"

#include <gtest/gtest.h>

#include <map>

#include "common/random.h"
#include "platform/archival_store.h"
#include "platform/mem_store.h"
#include "platform/one_way_counter.h"
#include "platform/secret_store.h"

namespace tdb::backup {
namespace {

using chunk::ChunkId;
using chunk::ChunkStore;
using chunk::ChunkStoreOptions;
using chunk::WriteBatch;

struct Env {
  platform::MemUntrustedStore store;
  platform::MemUntrustedStore restore_store;
  platform::MemSecretStore secrets;
  platform::MemOneWayCounter counter;
  platform::MemOneWayCounter restore_counter;
  platform::MemArchivalStore archive;
  crypto::SecurityConfig security = crypto::SecurityConfig::Modern();

  Env() { TDB_CHECK(secrets.Provision(Slice("backup-secret")).ok()); }

  ChunkStoreOptions Options() {
    ChunkStoreOptions options;
    options.security = security;
    options.segment_size = 4 * 1024;
    options.map_fanout = 8;
    return options;
  }

  std::unique_ptr<ChunkStore> OpenSource() {
    auto cs = ChunkStore::Open(&store, &secrets, &counter, Options());
    TDB_CHECK(cs.ok(), cs.status().ToString());
    return std::move(cs).value();
  }
  std::unique_ptr<ChunkStore> OpenTarget() {
    auto cs = ChunkStore::Open(&restore_store, &secrets, &restore_counter,
                               Options());
    TDB_CHECK(cs.ok(), cs.status().ToString());
    return std::move(cs).value();
  }
  std::unique_ptr<BackupStore> OpenBackup(ChunkStore* cs) {
    auto bs = BackupStore::Open(cs, &archive, &secrets, security);
    TDB_CHECK(bs.ok(), bs.status().ToString());
    return std::move(bs).value();
  }
};

TEST(BackupStoreTest, FullBackupRestoresEverything) {
  Env env;
  auto cs = env.OpenSource();
  std::map<ChunkId, Buffer> model;
  Random rng(1);
  for (int i = 0; i < 50; i++) {
    ChunkId cid = cs->AllocateChunkId();
    Buffer data;
    rng.Fill(&data, rng.Uniform(200) + 1);
    model[cid] = data;
    ASSERT_TRUE(cs->Write(cid, data, false).ok());
  }
  auto bs = env.OpenBackup(cs.get());
  auto info = bs->CreateFull("full-1");
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->chunks, 50u);
  EXPECT_EQ(info->seq, 0u);

  auto target = env.OpenTarget();
  ASSERT_TRUE(bs->Restore({"full-1"}, target.get()).ok());
  for (const auto& [cid, expected] : model) {
    auto data = target->Read(cid);
    ASSERT_TRUE(data.ok()) << cid;
    EXPECT_EQ(*data, expected);
  }
}

TEST(BackupStoreTest, IncrementalCarriesOnlyChanges) {
  Env env;
  auto cs = env.OpenSource();
  std::vector<ChunkId> cids;
  for (int i = 0; i < 30; i++) {
    ChunkId cid = cs->AllocateChunkId();
    cids.push_back(cid);
    ASSERT_TRUE(cs->Write(cid, Slice("base"), false).ok());
  }
  auto bs = env.OpenBackup(cs.get());
  ASSERT_TRUE(bs->CreateFull("b0").ok());

  // Change 3, add 1, remove 1.
  ASSERT_TRUE(cs->Write(cids[0], Slice("changed-0"), false).ok());
  ASSERT_TRUE(cs->Write(cids[1], Slice("changed-1"), false).ok());
  ASSERT_TRUE(cs->Write(cids[2], Slice("changed-2"), false).ok());
  ChunkId fresh = cs->AllocateChunkId();
  ASSERT_TRUE(cs->Write(fresh, Slice("fresh"), false).ok());
  ASSERT_TRUE(cs->Deallocate(cids[29], false).ok());

  auto info = bs->CreateIncremental("b1");
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->chunks, 4u);
  EXPECT_EQ(info->removed, 1u);
  EXPECT_EQ(info->seq, 1u);
  // The incremental is much smaller than the full backup.
  EXPECT_LT(*env.archive.ArchiveSize("b1"), *env.archive.ArchiveSize("b0"));

  auto target = env.OpenTarget();
  ASSERT_TRUE(bs->Restore({"b0", "b1"}, target.get()).ok());
  EXPECT_EQ(Slice(*target->Read(cids[0])).ToString(), "changed-0");
  EXPECT_EQ(Slice(*target->Read(cids[5])).ToString(), "base");
  EXPECT_EQ(Slice(*target->Read(fresh)).ToString(), "fresh");
  EXPECT_TRUE(target->Read(cids[29]).status().IsNotFound());
}

TEST(BackupStoreTest, LongIncrementalChain) {
  Env env;
  auto cs = env.OpenSource();
  auto bs = env.OpenBackup(cs.get());
  Random rng(2);
  std::map<ChunkId, Buffer> model;
  std::vector<std::string> names;

  for (int i = 0; i < 10; i++) {
    ChunkId cid = cs->AllocateChunkId();
    Buffer data;
    rng.Fill(&data, 100);
    model[cid] = data;
    ASSERT_TRUE(cs->Write(cid, data, false).ok());
  }
  ASSERT_TRUE(bs->CreateFull("b0").ok());
  names.push_back("b0");

  for (int gen = 1; gen <= 5; gen++) {
    // Mutate a few chunks each generation.
    for (int j = 0; j < 3; j++) {
      ChunkId cid = cs->AllocateChunkId();
      Buffer data;
      rng.Fill(&data, 120);
      model[cid] = data;
      ASSERT_TRUE(cs->Write(cid, data, false).ok());
    }
    auto it = model.begin();
    std::advance(it, rng.Uniform(model.size()));
    ASSERT_TRUE(cs->Deallocate(it->first, false).ok());
    model.erase(it);

    std::string name = "b" + std::to_string(gen);
    auto info = bs->CreateIncremental(name);
    ASSERT_TRUE(info.ok()) << info.status().ToString();
    names.push_back(name);
  }

  auto target = env.OpenTarget();
  ASSERT_TRUE(bs->Restore(names, target.get()).ok());
  EXPECT_EQ(target->Stats().live_chunks, model.size());
  for (const auto& [cid, expected] : model) {
    auto data = target->Read(cid);
    ASSERT_TRUE(data.ok()) << cid;
    EXPECT_EQ(*data, expected);
  }
}

TEST(BackupStoreTest, IncrementalWithoutFullRejected) {
  Env env;
  auto cs = env.OpenSource();
  auto bs = env.OpenBackup(cs.get());
  EXPECT_EQ(bs->CreateIncremental("x").status().code(),
            Status::Code::kInvalidArgument);
}

TEST(BackupStoreTest, TamperedArchiveRejectedEntirely) {
  Env env;
  auto cs = env.OpenSource();
  ChunkId cid = cs->AllocateChunkId();
  ASSERT_TRUE(cs->Write(cid, Slice("precious"), false).ok());
  auto bs = env.OpenBackup(cs.get());
  ASSERT_TRUE(bs->CreateFull("b0").ok());

  uint64_t size = *env.archive.ArchiveSize("b0");
  for (uint64_t off : {uint64_t(4), size / 2, size - 5}) {
    ASSERT_TRUE(env.archive.CorruptByte("b0", off, 0x10).ok());
    auto target = env.OpenTarget();
    Status s = bs->Restore({"b0"}, target.get());
    EXPECT_FALSE(s.ok()) << "offset " << off;
    // Nothing may have been applied.
    EXPECT_EQ(target->Stats().live_chunks, 0u);
    ASSERT_TRUE(env.archive.CorruptByte("b0", off, 0x10).ok());  // Undo.
  }
}

TEST(BackupStoreTest, OutOfOrderChainRejected) {
  Env env;
  auto cs = env.OpenSource();
  ChunkId cid = cs->AllocateChunkId();
  ASSERT_TRUE(cs->Write(cid, Slice("v0"), false).ok());
  auto bs = env.OpenBackup(cs.get());
  ASSERT_TRUE(bs->CreateFull("b0").ok());
  ASSERT_TRUE(cs->Write(cid, Slice("v1"), false).ok());
  ASSERT_TRUE(bs->CreateIncremental("b1").ok());
  ASSERT_TRUE(cs->Write(cid, Slice("v2"), false).ok());
  ASSERT_TRUE(bs->CreateIncremental("b2").ok());

  auto target = env.OpenTarget();
  // Skipping b1: sequence gap.
  EXPECT_FALSE(bs->Restore({"b0", "b2"}, target.get()).ok());
  // Swapped incrementals.
  EXPECT_FALSE(bs->Restore({"b0", "b2", "b1"}, target.get()).ok());
  // Starting with an incremental.
  EXPECT_FALSE(bs->Restore({"b1"}, target.get()).ok());
  EXPECT_EQ(target->Stats().live_chunks, 0u);
  // The correct order restores fine.
  EXPECT_TRUE(bs->Restore({"b0", "b1", "b2"}, target.get()).ok());
  EXPECT_EQ(Slice(*target->Read(cid)).ToString(), "v2");
}

TEST(BackupStoreTest, ReplayedOldIncrementalRejected) {
  // An attacker substitutes an older incremental with the same seq: the MAC
  // chain catches it.
  Env env;
  auto cs = env.OpenSource();
  ChunkId cid = cs->AllocateChunkId();
  ASSERT_TRUE(cs->Write(cid, Slice("v0"), false).ok());
  auto bs = env.OpenBackup(cs.get());
  ASSERT_TRUE(bs->CreateFull("b0").ok());
  ASSERT_TRUE(cs->Write(cid, Slice("v1"), false).ok());
  ASSERT_TRUE(bs->CreateIncremental("b1").ok());

  // Second lineage: a new full backup and its incremental.
  ASSERT_TRUE(cs->Write(cid, Slice("v2"), false).ok());
  ASSERT_TRUE(bs->CreateFull("c0").ok());
  ASSERT_TRUE(cs->Write(cid, Slice("v3"), false).ok());
  ASSERT_TRUE(bs->CreateIncremental("c1").ok());

  auto target = env.OpenTarget();
  // b1 has seq 1 but chains to b0, not c0.
  EXPECT_FALSE(bs->Restore({"c0", "b1"}, target.get()).ok());
  EXPECT_TRUE(bs->Restore({"c0", "c1"}, target.get()).ok());
  EXPECT_EQ(Slice(*target->Read(cid)).ToString(), "v3");
}

TEST(BackupStoreTest, ArchiveIsEncrypted) {
  Env env;
  auto cs = env.OpenSource();
  const std::string secret = "SECRET-LICENSE-KEY-XYZZY";
  ASSERT_TRUE(cs->Write(cs->AllocateChunkId(), Slice(secret), false).ok());
  auto bs = env.OpenBackup(cs.get());
  ASSERT_TRUE(bs->CreateFull("b0").ok());

  auto reader = env.archive.OpenArchive("b0");
  ASSERT_TRUE(reader.ok());
  Buffer contents;
  ASSERT_TRUE((*reader)->Read((*reader)->remaining(), &contents).ok());
  std::string haystack(reinterpret_cast<const char*>(contents.data()),
                       contents.size());
  EXPECT_EQ(haystack.find(secret), std::string::npos);
}

// Each archive draws its IVs from a stream of its own: two full backups of
// the same contents, taken in two sessions, differ in every sealed payload
// and both restore.
TEST(BackupStoreTest, SessionsNeverRepeatArchiveIvs) {
  Env env;
  std::map<ChunkId, Buffer> model;
  {
    auto cs = env.OpenSource();
    Random rng(7);
    for (int i = 0; i < 8; i++) {
      ChunkId cid = cs->AllocateChunkId();
      Buffer data;
      rng.Fill(&data, 48);
      model[cid] = data;
      ASSERT_TRUE(cs->Write(cid, data, false).ok());
    }
    ASSERT_TRUE(env.OpenBackup(cs.get())->CreateFull("s1").ok());
    ASSERT_TRUE(cs->Close().ok());
  }
  auto cs = env.OpenSource();
  auto bs = env.OpenBackup(cs.get());
  ASSERT_TRUE(bs->CreateFull("s2").ok());

  auto contents = [&env](const std::string& name) {
    auto reader = env.archive.OpenArchive(name);
    TDB_CHECK(reader.ok(), reader.status().ToString());
    Buffer out;
    TDB_CHECK((*reader)->Read((*reader)->remaining(), &out).ok());
    return out;
  };
  const Buffer s1 = contents("s1");
  const Buffer s2 = contents("s2");
  ASSERT_EQ(s1.size(), s2.size());
  // Under a fresh IV each sealed payload (IV + ciphertext) is new: nearly
  // all of its bytes differ, where a repeated IV stream changes none.
  size_t differing = 0;
  for (size_t i = 0; i < s1.size(); i++) differing += s1[i] != s2[i];
  EXPECT_GE(differing, model.size() * 48);

  for (const char* name : {"s1", "s2"}) {
    auto target = env.OpenTarget();
    ASSERT_TRUE(bs->Restore({name}, target.get()).ok()) << name;
    for (const auto& [cid, expected] : model) {
      auto data = target->Read(cid);
      ASSERT_TRUE(data.ok()) << name << " " << cid;
      EXPECT_EQ(*data, expected) << name << " " << cid;
    }
    ASSERT_TRUE(target->Close().ok());
  }
}

TEST(BackupStoreTest, RestoreIntoLiveStoreOverwrites) {
  Env env;
  auto cs = env.OpenSource();
  ChunkId cid = cs->AllocateChunkId();
  ASSERT_TRUE(cs->Write(cid, Slice("good"), false).ok());
  auto bs = env.OpenBackup(cs.get());
  ASSERT_TRUE(bs->CreateFull("b0").ok());

  // The source database "goes bad" (user keeps using it), then restores.
  ASSERT_TRUE(cs->Write(cid, Slice("bad"), true).ok());
  ASSERT_TRUE(bs->Restore({"b0"}, cs.get()).ok());
  EXPECT_EQ(Slice(*cs->Read(cid)).ToString(), "good");
}

TEST(BackupStoreTest, WorksWithSecurityDisabled) {
  Env env;
  env.security = crypto::SecurityConfig::Disabled();
  auto cs = env.OpenSource();
  ChunkId cid = cs->AllocateChunkId();
  ASSERT_TRUE(cs->Write(cid, Slice("plain"), false).ok());
  auto bs = env.OpenBackup(cs.get());
  ASSERT_TRUE(bs->CreateFull("b0").ok());
  ASSERT_TRUE(cs->Write(cid, Slice("plain2"), false).ok());
  ASSERT_TRUE(bs->CreateIncremental("b1").ok());

  auto target = env.OpenTarget();
  ASSERT_TRUE(bs->Restore({"b0", "b1"}, target.get()).ok());
  EXPECT_EQ(Slice(*target->Read(cid)).ToString(), "plain2");
}

TEST(BackupStoreTest, EmptyDatabaseBackupAndRestore) {
  Env env;
  auto cs = env.OpenSource();
  auto bs = env.OpenBackup(cs.get());
  auto info = bs->CreateFull("empty");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->chunks, 0u);
  auto target = env.OpenTarget();
  EXPECT_TRUE(bs->Restore({"empty"}, target.get()).ok());
  EXPECT_EQ(target->Stats().live_chunks, 0u);
}

}  // namespace
}  // namespace tdb::backup
