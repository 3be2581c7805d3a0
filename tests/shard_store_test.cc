// Tests for the sharded chunk store (src/shard): routing, the N == 1
// pass-through, config-record layout pinning, two-phase cross-shard
// commit, tamper-evident decision chains, in-doubt recovery, aggregate
// stats, and the object store running unchanged over the router.
#include "shard/sharded_chunk_store.h"

#include <gtest/gtest.h>

#include <atomic>
#include <fstream>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "chunk/chunk_store.h"
#include "common/coding.h"
#include "common/random.h"
#include "harness/blob.h"
#include "harness/region_map.h"
#include "object/object_store.h"
#include "platform/fault_injection.h"
#include "platform/mem_store.h"
#include "platform/one_way_counter.h"
#include "platform/prefix_store.h"
#include "platform/secret_store.h"

namespace tdb::shard {
namespace {

using platform::FaultInjectingStore;
using platform::MemOneWayCounter;
using platform::MemSecretStore;
using platform::MemUntrustedStore;
using platform::PrefixedStore;

chunk::ChunkStoreOptions SmallSegments() {
  chunk::ChunkStoreOptions options;
  options.security = crypto::SecurityConfig::Modern();
  options.segment_size = 4 * 1024;
  options.map_fanout = 8;
  return options;
}

// N independent shard substrates (the production shape: one device per
// shard) sharing one secret store.
struct ShardedEnv {
  std::vector<std::unique_ptr<MemUntrustedStore>> stores;
  std::vector<std::unique_ptr<MemOneWayCounter>> counters;
  MemSecretStore secrets;

  explicit ShardedEnv(int n) {
    TDB_CHECK(secrets.Provision(Slice("test-master-secret")).ok());
    for (int k = 0; k < n; k++) {
      stores.push_back(std::make_unique<MemUntrustedStore>());
      counters.push_back(std::make_unique<MemOneWayCounter>());
    }
  }

  std::vector<ShardBackend> Backends() {
    std::vector<ShardBackend> backends;
    for (size_t k = 0; k < stores.size(); k++) {
      backends.push_back({stores[k].get(), &secrets, counters[k].get()});
    }
    return backends;
  }

  Result<std::unique_ptr<ShardedChunkStore>> Open(
      chunk::ChunkStoreOptions options = SmallSegments()) {
    return ShardedChunkStore::Open(Backends(), options);
  }
};

// Allocates ids from `router` until one lands on each of shards {0, 1}.
void TwoShardIds(ShardedChunkStore* router, chunk::ChunkId* on0,
                 chunk::ChunkId* on1) {
  *on0 = 0;
  *on1 = 0;
  while (*on0 == 0 || *on1 == 0) {
    chunk::ChunkId cid = router->AllocateChunkId();
    if (router->ShardOf(cid) == 0 && *on0 == 0) *on0 = cid;
    if (router->ShardOf(cid) == 1 && *on1 == 0) *on1 = cid;
  }
}

// Commits {on0: v0, on1: v1} as one cross-shard transaction.
Status CommitPair(ShardedChunkStore* router, chunk::ChunkId on0,
                  chunk::ChunkId on1, const std::string& v0,
                  const std::string& v1) {
  chunk::WriteBatch batch;
  batch.Write(on0, Slice(v0));
  batch.Write(on1, Slice(v1));
  return router->Commit(batch, true);
}

// What a power cut leaves of `env` right now: a second environment holding
// the same device images and counter values. The original stays open.
std::unique_ptr<ShardedEnv> CrashCopy(ShardedEnv& env) {
  auto copy = std::make_unique<ShardedEnv>(static_cast<int>(env.stores.size()));
  for (size_t k = 0; k < env.stores.size(); k++) {
    copy->stores[k]->RestoreImage(env.stores[k]->SnapshotImage());
    while (*copy->counters[k]->Read() < *env.counters[k]->Read()) {
      TDB_CHECK(copy->counters[k]->Increment().ok());
    }
  }
  return copy;
}

// Whether shard k of `env` holds the 2PC staging chunk of `txn`, read
// through a plain chunk store over a crash copy (recovery normalizes the
// image it opens, so the caller's image stays untouched).
bool HoldsStaging(ShardedEnv& env, int k, uint64_t txn) {
  std::unique_ptr<ShardedEnv> copy = CrashCopy(env);
  auto cs = chunk::ChunkStore::Open(copy->stores[k].get(), &copy->secrets,
                                    copy->counters[k].get(), SmallSegments());
  TDB_CHECK(cs.ok());
  return (*cs)->Read(ShardedChunkStore::StagingCid(txn)).ok();
}

// ------------------------------------------------------------ pass-through

TEST(ShardedStoreTest, SingleShardImageIsBitIdenticalToPlainStore) {
  // The same op sequence against a plain ChunkStore and a 1-shard router
  // must produce byte-identical images: the router writes no config
  // record and no reserved chunks, and delegates ids to the shard.
  MemSecretStore secrets;
  ASSERT_TRUE(secrets.Provision(Slice("test-master-secret")).ok());
  MemUntrustedStore plain_store, routed_store;
  MemOneWayCounter plain_counter, routed_counter;

  auto run = [&](chunk::ChunkStoreInterface* cs) {
    Random rng(42);
    std::vector<chunk::ChunkId> ids;
    for (int c = 0; c < 8; c++) {
      chunk::WriteBatch batch;
      for (int i = 0; i < 3; i++) {
        chunk::ChunkId cid = cs->AllocateChunkId();
        ids.push_back(cid);
        Buffer data;
        rng.Fill(&data, 64 + 32 * i);
        batch.Write(cid, data);
      }
      if (c == 5) batch.Deallocate(ids[2]);
      ASSERT_TRUE(cs->Commit(batch, c % 2 == 0).ok());
    }
    ASSERT_TRUE(cs->Checkpoint().ok());
    ASSERT_TRUE(cs->Close().ok());
  };

  {
    auto cs =
        chunk::ChunkStore::Open(&plain_store, &secrets, &plain_counter,
                                SmallSegments());
    ASSERT_TRUE(cs.ok()) << cs.status().ToString();
    run(cs->get());
  }
  {
    auto router = ShardedChunkStore::Open(
        {{&routed_store, &secrets, &routed_counter}}, SmallSegments());
    ASSERT_TRUE(router.ok()) << router.status().ToString();
    run(router->get());
  }

  MemUntrustedStore::Image plain = plain_store.SnapshotImage();
  MemUntrustedStore::Image routed = routed_store.SnapshotImage();
  ASSERT_EQ(plain.size(), routed.size());
  for (const auto& [name, bytes] : plain) {
    auto it = routed.find(name);
    ASSERT_TRUE(it != routed.end()) << "missing file " << name;
    EXPECT_TRUE(bytes == it->second) << "file " << name << " differs";
  }
}

TEST(ShardedStoreTest, ShardsDrawDistinctIvs) {
  // Shards share the master secret, so they need distinct IV keys: the
  // router gives each shard its own seed, from which the shard derives
  // the key k' its seal numbers are encrypted under
  // (SealNumberTest.FourShardsSealUnderFourKeys logs the keys). Every
  // record of a shard image starts with its seal number; none may repeat
  // within a shard.
  ShardedEnv env(4);
  {
    auto router = env.Open();
    ASSERT_TRUE(router.ok()) << router.status().ToString();
    for (int c = 0; c < 10; c++) {
      chunk::WriteBatch batch;
      for (int i = 0; i < 3; i++) {
        batch.Write((*router)->AllocateChunkId(), Slice("payload"));
      }
      ASSERT_TRUE((*router)->Commit(batch, true).ok());
    }
    ASSERT_TRUE((*router)->Close().ok());
  }
  size_t records = 0;
  for (const auto& store : env.stores) {
    const MemUntrustedStore::Image image = store->SnapshotImage();
    std::set<uint64_t> seals;
    for (Slice p : harness::RecordPayloads(image)) {
      Decoder dec(p);
      uint64_t seal;
      ASSERT_TRUE(dec.GetVarint64(&seal).ok());
      EXPECT_TRUE(seals.insert(seal).second) << "seal number repeated";
      records++;
    }
  }
  EXPECT_GE(records, 40u);
}

// --------------------------------------------------------- config records

TEST(ShardedStoreTest, ReopenWithDifferentShardCountFailsLoudly) {
  ShardedEnv env(2);
  {
    auto router = env.Open();
    ASSERT_TRUE(router.ok()) << router.status().ToString();
    chunk::ChunkId cid = (*router)->AllocateChunkId();
    ASSERT_TRUE((*router)->Write(cid, Slice("payload"), true).ok());
    ASSERT_TRUE((*router)->Close().ok());
  }
  // As one shard: the shard-0 config says count=2.
  {
    auto router = ShardedChunkStore::Open(
        {{env.stores[0].get(), &env.secrets, env.counters[0].get()}},
        SmallSegments());
    ASSERT_EQ(router.status().code(), Status::Code::kInvalidArgument)
        << router.status().ToString();
  }
  // As three shards (two real, one fresh).
  {
    MemUntrustedStore extra_store;
    MemOneWayCounter extra_counter;
    auto backends = env.Backends();
    backends.push_back({&extra_store, &env.secrets, &extra_counter});
    auto router = ShardedChunkStore::Open(backends, SmallSegments());
    ASSERT_EQ(router.status().code(), Status::Code::kInvalidArgument)
        << router.status().ToString();
  }
  // Permuted backends: each shard holds the other's image.
  {
    auto backends = env.Backends();
    std::swap(backends[0], backends[1]);
    auto router = ShardedChunkStore::Open(backends, SmallSegments());
    ASSERT_EQ(router.status().code(), Status::Code::kInvalidArgument)
        << router.status().ToString();
  }
  // Unchanged layout still opens.
  {
    auto router = env.Open();
    ASSERT_TRUE(router.ok()) << router.status().ToString();
    ASSERT_TRUE((*router)->Close().ok());
  }
}

TEST(ShardedStoreTest, ReservedChunkIdsRejectedAtPublicApi) {
  ShardedEnv env(2);
  auto router = env.Open();
  ASSERT_TRUE(router.ok());
  const chunk::ChunkId reserved = (1ull << 63) | 7;
  ASSERT_TRUE(ShardedChunkStore::IsRouterChunk(reserved));
  EXPECT_EQ((*router)->Write(reserved, Slice("x"), true).code(),
            Status::Code::kInvalidArgument);
  EXPECT_EQ((*router)->Read(reserved).status().code(),
            Status::Code::kInvalidArgument);
  EXPECT_FALSE(
      ShardedChunkStore::IsRouterChunk((*router)->AllocateChunkId()));
  ASSERT_TRUE((*router)->Close().ok());
}

// ------------------------------------------------------ cross-shard commit

TEST(ShardedStoreTest, CrossShardCommitPersistsAndCounts) {
  ShardedEnv env(2);
  chunk::ChunkId on0 = 0, on1 = 0;
  {
    auto router = env.Open();
    ASSERT_TRUE(router.ok());
    TwoShardIds(router->get(), &on0, &on1);
    chunk::WriteBatch batch;
    batch.Write(on0, Slice("shard-zero"));
    batch.Write(on1, Slice("shard-one"));
    ASSERT_TRUE((*router)->Commit(batch, false).ok());  // Upgraded.
    RouterStats rs = (*router)->router_stats();
    EXPECT_EQ(rs.cross_shard_commits, 1u);
    EXPECT_EQ(rs.durability_upgrades, 1u);
    EXPECT_EQ(rs.cross_shard_aborts, 0u);
    ASSERT_TRUE((*router)->Close().ok());
  }
  auto router = env.Open();
  ASSERT_TRUE(router.ok()) << router.status().ToString();
  EXPECT_EQ(Slice(*(*router)->Read(on0)).ToString(), "shard-zero");
  EXPECT_EQ(Slice(*(*router)->Read(on1)).ToString(), "shard-one");
  // Committed cleanly: nothing was in doubt at reopen.
  RouterStats rs = (*router)->router_stats();
  EXPECT_EQ(rs.recovered_commits + rs.recovered_aborts, 0u);
  ASSERT_TRUE((*router)->Close().ok());
}

// The router's Stats() is the field-wise sum of its shards', the secure
// overhead counters (§7.4) included.
TEST(ShardedStoreTest, RouterStatsSumShardOverheadCounters) {
  ShardedEnv env(2);
  auto router = env.Open();
  ASSERT_TRUE(router.ok()) << router.status().ToString();
  chunk::ChunkId on0 = 0, on1 = 0;
  TwoShardIds(router->get(), &on0, &on1);
  ASSERT_TRUE((*router)->Write(on0, Slice("single-shard"), true).ok());
  ASSERT_TRUE((*router)->Write(on1, Slice("other shard"), false).ok());
  chunk::WriteBatch batch;
  batch.Write(on0, Slice("cross-shard zero"));
  batch.Write(on1, Slice("cross-shard one"));
  ASSERT_TRUE((*router)->Commit(batch, true).ok());
  ASSERT_EQ((*router)->router_stats().cross_shard_commits, 1u);

  const chunk::ChunkStoreStats agg = (*router)->Stats();
  const chunk::ChunkStoreStats s0 = (*router)->ShardStats(0);
  const chunk::ChunkStoreStats s1 = (*router)->ShardStats(1);
  EXPECT_GT(agg.seal_bytes, 0u);
  EXPECT_GT(agg.frame_bytes, 0u);
  EXPECT_GT(agg.entry_hash_bytes, 0u);
  EXPECT_EQ(agg.seal_bytes, s0.seal_bytes + s1.seal_bytes);
  EXPECT_EQ(agg.pad_bytes, s0.pad_bytes + s1.pad_bytes);
  EXPECT_EQ(agg.frame_bytes, s0.frame_bytes + s1.frame_bytes);
  EXPECT_EQ(agg.entry_hash_bytes, s0.entry_hash_bytes + s1.entry_hash_bytes);
  EXPECT_EQ(agg.bytes_appended, s0.bytes_appended + s1.bytes_appended);
  ASSERT_TRUE((*router)->Close().ok());
}

TEST(ShardedStoreTest, EmptyBatch2pcWritesNoDecisionRecord) {
  ShardedEnv env(2);
  auto router = env.Open();
  ASSERT_TRUE(router.ok());
  chunk::WriteBatch empty;
  ASSERT_TRUE((*router)->Commit(empty, true).ok());
  EXPECT_EQ((*router)->router_stats().cross_shard_commits, 0u);
  // No transaction ran: neither shard holds staging or decision chunks.
  for (int k = 0; k < 2; k++) {
    for (uint64_t txn = 1; txn <= 4; txn++) {
      EXPECT_TRUE((*router)
                      ->shard(k)
                      ->Read(ShardedChunkStore::StagingCid(txn))
                      .status()
                      .IsNotFound());
      EXPECT_TRUE((*router)
                      ->shard(k)
                      ->Read(ShardedChunkStore::DecisionCid(txn))
                      .status()
                      .IsNotFound());
    }
  }
  ASSERT_TRUE((*router)->Close().ok());
}

TEST(ShardedStoreTest, PinnedViewNeverSeesHalfACrossShardCommit) {
  ShardedEnv env(2);
  auto router = env.Open();
  ASSERT_TRUE(router.ok());
  chunk::ChunkId on0 = 0, on1 = 0;
  TwoShardIds(router->get(), &on0, &on1);
  chunk::WriteBatch v1;
  v1.Write(on0, Slice("v1"));
  v1.Write(on1, Slice("v1"));
  ASSERT_TRUE((*router)->Commit(v1, true).ok());

  auto view = (*router)->PinView();
  ASSERT_TRUE(view.ok()) << view.status().ToString();

  chunk::WriteBatch v2;
  v2.Write(on0, Slice("v2"));
  v2.Write(on1, Slice("v2"));
  ASSERT_TRUE((*router)->Commit(v2, true).ok());

  // The pre-commit view serves v1 from both shards; live reads serve v2.
  EXPECT_EQ(Slice(*(*router)->ReadAtView(**view, on0)).ToString(), "v1");
  EXPECT_EQ(Slice(*(*router)->ReadAtView(**view, on1)).ToString(), "v1");
  auto many = (*router)->ReadManyAtView(**view, {on1, on0});
  ASSERT_TRUE(many.ok());
  EXPECT_EQ(Slice((*many)[0]).ToString(), "v1");
  EXPECT_EQ(Slice((*many)[1]).ToString(), "v1");
  EXPECT_EQ(Slice(*(*router)->Read(on0)).ToString(), "v2");
  EXPECT_EQ(Slice(*(*router)->Read(on1)).ToString(), "v2");
  ASSERT_TRUE((*router)->Close().ok());
}

// ReadManyAtView's failure is the one of the lowest index of the request,
// whichever shard holds it: here index 0 is a tampered record on shard 1
// and index 1 a never-written id on shard 0.
TEST(ShardedStoreTest, ReadManyAtViewFailsAtLowestIndexAcrossShards) {
  ShardedEnv env(2);
  auto options = SmallSegments();
  options.cache_bytes = 0;  // Cold reads, so the tampered bytes are read.
  auto router = env.Open(options);
  ASSERT_TRUE(router.ok()) << router.status().ToString();
  chunk::ChunkId on0 = 0, on1 = 0;
  TwoShardIds(router->get(), &on0, &on1);
  chunk::ChunkId missing0 = 0;
  while (missing0 == 0) {
    chunk::ChunkId cid = (*router)->AllocateChunkId();
    if ((*router)->ShardOf(cid) == 0) missing0 = cid;
  }
  ASSERT_TRUE(CommitPair(router->get(), on0, on1, "intact", "tampered").ok());
  // Flush the commit decisions, so the records sit in the shards' logs.
  ASSERT_TRUE((*router)->Checkpoint().ok());
  auto view = (*router)->PinView();
  ASSERT_TRUE(view.ok()) << view.status().ToString();

  // Damage every sealed data payload on shard 1.
  int flipped = 0;
  for (const harness::TamperRegion& region :
       harness::ClassifyImage(env.stores[1]->SnapshotImage())) {
    if (region.cls != harness::RegionClass::kChunkPayload) continue;
    ASSERT_TRUE(env.stores[1]
                    ->CorruptByte(region.file,
                                  region.offset + region.length / 2, 0x40)
                    .ok());
    flipped++;
  }
  ASSERT_GT(flipped, 0);
  ASSERT_TRUE((*router)->ReadAtView(**view, on0).ok());
  ASSERT_TRUE((*router)->ReadAtView(**view, on1).status().IsTamperDetected());

  auto many = (*router)->ReadManyAtView(**view, {on1, missing0});
  EXPECT_TRUE(many.status().IsTamperDetected()) << many.status().ToString();
  many = (*router)->ReadManyAtView(**view, {on0, missing0, on1});
  EXPECT_TRUE(many.status().IsNotFound()) << many.status().ToString();
  ASSERT_TRUE((*router)->Close().ok());
}

TEST(ShardedStoreTest, ViewReadsRejectReservedRouterIds) {
  ShardedEnv env(2);
  auto router = env.Open();
  ASSERT_TRUE(router.ok()) << router.status().ToString();
  chunk::ChunkId on0 = 0, on1 = 0;
  TwoShardIds(router->get(), &on0, &on1);
  chunk::ChunkId missing0 = 0;
  while (missing0 == 0) {
    chunk::ChunkId cid = (*router)->AllocateChunkId();
    if ((*router)->ShardOf(cid) == 0) missing0 = cid;
  }
  ASSERT_TRUE(CommitPair(router->get(), on0, on1, "zero", "one").ok());
  auto view = (*router)->PinView();
  ASSERT_TRUE(view.ok()) << view.status().ToString();

  const chunk::ChunkId decision = ShardedChunkStore::DecisionCid(1);
  const auto kInvalid = Status::Code::kInvalidArgument;
  for (chunk::ChunkId reserved :
       {decision, ShardedChunkStore::ChainBaseCid()}) {
    EXPECT_EQ((*router)->Read(reserved).status().code(), kInvalid);
    EXPECT_EQ((*router)->ReadAtView(**view, reserved).status().code(),
              kInvalid);
    EXPECT_EQ((*router)->ReadAtViewShared(**view, reserved).status().code(),
              kInvalid);
    EXPECT_EQ(
        (*router)->ReadManyAtView(**view, {on0, reserved, on1}).status().code(),
        kInvalid);
  }
  // The lowest failing index decides, reserved ids included.
  EXPECT_TRUE((*router)
                  ->ReadManyAtView(**view, {on1, missing0, decision})
                  .status()
                  .IsNotFound());
  EXPECT_EQ(
      (*router)->ReadManyAtView(**view, {on1, decision, missing0}).status().code(),
      kInvalid);
  auto both = (*router)->ReadManyAtView(**view, {on1, on0});
  ASSERT_TRUE(both.ok()) << both.status().ToString();
  EXPECT_EQ(Slice((*both)[0]).ToString(), "one");
  EXPECT_EQ(Slice((*both)[1]).ToString(), "zero");
  ASSERT_TRUE((*router)->Close().ok());
}

// -------------------------------------------------- decision-chain tamper

TEST(ShardedStoreTest, ForgedDecisionRecordDetectedAtRecovery) {
  // Overwrite a committed decision record THROUGH a legitimate chunk-store
  // commit on the shard, so every chunk-layer check (payload hash, commit
  // manifest MAC, counter) passes. Only the router's 2PC decision chain
  // can catch it.
  ShardedEnv env(2);
  chunk::ChunkId on0 = 0, on1 = 0;
  {
    auto router = env.Open();
    ASSERT_TRUE(router.ok());
    TwoShardIds(router->get(), &on0, &on1);
    chunk::WriteBatch batch;
    batch.Write(on0, Slice("a"));
    batch.Write(on1, Slice("b"));
    ASSERT_TRUE((*router)->Commit(batch, true).ok());  // txn 1.
    ASSERT_TRUE((*router)->Close().ok());
  }
  const chunk::ChunkId decision = ShardedChunkStore::DecisionCid(1);
  {
    auto cs = chunk::ChunkStore::Open(env.stores[0].get(), &env.secrets,
                                      env.counters[0].get(), SmallSegments());
    ASSERT_TRUE(cs.ok()) << cs.status().ToString();
    auto record = (*cs)->Read(decision);
    ASSERT_TRUE(record.ok()) << record.status().ToString();
    Buffer forged = *record;
    forged[forged.size() / 2] ^= 0x40;
    ASSERT_TRUE((*cs)->Write(decision, Slice(forged), true).ok());
    ASSERT_TRUE((*cs)->Close().ok());
  }
  auto registry = std::make_shared<common::MetricsRegistry>();
  chunk::ChunkStoreOptions options = SmallSegments();
  options.metrics = registry;
  auto router = ShardedChunkStore::Open(env.Backends(), options);
  ASSERT_FALSE(router.ok());
  EXPECT_TRUE(router.status().IsTamperDetected())
      << router.status().ToString();
  EXPECT_GE(registry->audit().size(), 1u);
}

TEST(ShardedStoreTest, ReplayedDecisionChainDetectedAtRecovery) {
  // A copy of an earlier decision written back through legitimate chunk
  // commits must fail verification: in the place of a later decision (the
  // record names another transaction), and in its own place after GC
  // dropped it (it no longer links to the chain, which now starts at the
  // chain base). Txn 1's record is captured before GC drops it.
  for (bool own_place : {false, true}) {
    ShardedEnv env(2);
    Buffer first;
    {
      auto router = env.Open();
      ASSERT_TRUE(router.ok());
      chunk::ChunkId on0 = 0, on1 = 0;
      TwoShardIds(router->get(), &on0, &on1);
      ASSERT_TRUE(CommitPair(router->get(), on0, on1, "r1", "r1").ok());
      auto record =
          (*router)->shard(0)->Read(ShardedChunkStore::DecisionCid(1));
      ASSERT_TRUE(record.ok()) << record.status().ToString();
      first = *record;
      const chunk::ChunkId first_cid = ShardedChunkStore::DecisionCid(1);
      while ((*router)->shard(0)->Read(first_cid).ok()) {
        ASSERT_TRUE(CommitPair(router->get(), on0, on1, "r", "r").ok());
        ASSERT_LE((*router)->router_stats().cross_shard_commits,
                  2 + ShardedChunkStore::kDecisionDropBatch);
      }
      ASSERT_TRUE((*router)->Close().ok());
    }
    {
      auto cs = chunk::ChunkStore::Open(env.stores[0].get(), &env.secrets,
                                        env.counters[0].get(),
                                        SmallSegments());
      ASSERT_TRUE(cs.ok());
      const chunk::ChunkId target =
          ShardedChunkStore::DecisionCid(own_place ? 1 : 2);
      ASSERT_TRUE((*cs)->Write(target, Slice(first), true).ok());
      ASSERT_TRUE((*cs)->Close().ok());
    }
    auto router = env.Open();
    ASSERT_FALSE(router.ok()) << "own place " << own_place;
    EXPECT_TRUE(router.status().IsTamperDetected())
        << router.status().ToString();
  }
}

// Chain-base tamper through legitimate chunk commits on shard 0, after two
// GC drop rounds: `mutate` gets the base record of the first round and the
// current one, and returns the payload to write back.
void ExpectChainBaseTamperDetected(
    const std::function<Buffer(const Buffer& captured,
                               const Buffer& current)>& mutate) {
  ShardedEnv env(2);
  Buffer captured;
  {
    auto router = env.Open();
    ASSERT_TRUE(router.ok());
    chunk::ChunkId on0 = 0, on1 = 0;
    TwoShardIds(router->get(), &on0, &on1);
    // Txn B+1 drops txns 1..B; txn 2B+1 drops B+1..2B (B = drop batch).
    const uint64_t batch = ShardedChunkStore::kDecisionDropBatch;
    for (uint64_t txn = 1; txn <= 2 * batch + 2; txn++) {
      ASSERT_TRUE(CommitPair(router->get(), on0, on1, "v", "v").ok());
      if (txn == batch + 1) {
        auto base =
            (*router)->shard(0)->Read(ShardedChunkStore::ChainBaseCid());
        ASSERT_TRUE(base.ok()) << base.status().ToString();
        captured = *base;
      }
    }
    ASSERT_TRUE((*router)->Close().ok());
  }
  {
    auto cs = chunk::ChunkStore::Open(env.stores[0].get(), &env.secrets,
                                      env.counters[0].get(), SmallSegments());
    ASSERT_TRUE(cs.ok());
    auto current = (*cs)->Read(ShardedChunkStore::ChainBaseCid());
    ASSERT_TRUE(current.ok()) << current.status().ToString();
    ASSERT_TRUE((*cs)
                    ->Write(ShardedChunkStore::ChainBaseCid(),
                            Slice(mutate(captured, *current)), true)
                    .ok());
    ASSERT_TRUE((*cs)->Close().ok());
  }
  auto registry = std::make_shared<common::MetricsRegistry>();
  chunk::ChunkStoreOptions options = SmallSegments();
  options.metrics = registry;
  auto router = ShardedChunkStore::Open(env.Backends(), options);
  ASSERT_FALSE(router.ok());
  EXPECT_TRUE(router.status().IsTamperDetected())
      << router.status().ToString();
  EXPECT_GE(registry->audit().size(), 1u);
}

TEST(ShardedStoreTest, ForgedChainBaseDetectedAtRecovery) {
  ExpectChainBaseTamperDetected([](const Buffer&, const Buffer& current) {
    Buffer forged = current;
    forged[forged.size() / 2] ^= 0x40;
    return forged;
  });
}

TEST(ShardedStoreTest, RolledBackChainBaseDetectedAtRecovery) {
  // The first round's base is genuine and MAC-valid, but the kept records
  // no longer hang off it.
  ExpectChainBaseTamperDetected(
      [](const Buffer& captured, const Buffer&) { return captured; });
}

// ----------------------------------------------------- in-doubt recovery

TEST(ShardedStoreTest, InDoubt2pcResolvesAllOrNothing) {
  // Crash at every write index from the start of a cross-shard commit
  // through the teardown that follows it (both shards behind ONE fault
  // injector so the index is global) and check the transaction is
  // recovered atomically: both shards or neither. The sweep must land in
  // each 2PC window: before every prepare is durable (abort), after every
  // prepare but before the ack (commit by redo), and after the ack with
  // the commit decisions not yet flushed (an acknowledged transaction
  // redone from staging).
  bool saw_abort = false, saw_unacked_redo = false, saw_acked_redo = false;
  for (uint64_t point = 0;; point++) {
    MemUntrustedStore base;
    FaultInjectingStore faulty(&base);
    PrefixedStore s0("s0/", &faulty), s1("s1/", &faulty);
    MemSecretStore secrets;
    ASSERT_TRUE(secrets.Provision(Slice("test-master-secret")).ok());
    MemOneWayCounter c0, c1;
    std::vector<ShardBackend> backends = {{&s0, &secrets, &c0},
                                          {&s1, &secrets, &c1}};
    chunk::ChunkId on0 = 0, on1 = 0;
    bool acked = false;
    // Serial coordinator: the sweep enumerates crash points by the GLOBAL
    // write index, so the 2PC write order must be deterministic (and the
    // fault injector is deliberately unsynchronized).
    chunk::ChunkStoreOptions options = SmallSegments();
    options.txn_coordinator_threads = 0;
    {
      auto router = ShardedChunkStore::Open(backends, options);
      ASSERT_TRUE(router.ok()) << router.status().ToString();
      TwoShardIds(router->get(), &on0, &on1);
      ASSERT_TRUE(CommitPair(router->get(), on0, on1, "base0", "base1").ok());
      // Make txn 1 fully durable, so only txn 2 can be in doubt.
      ASSERT_TRUE((*router)->Checkpoint().ok());

      faulty.CrashAtWrite(point, 4, 4);
      Status status = CommitPair(router->get(), on0, on1, "txn0", "txn1");
      acked = status.ok();
      ASSERT_TRUE(acked || faulty.crashed()) << status.ToString();
      // Drop without Close: the shards' best-effort teardown checkpoints
      // (which flush the commit decisions) are in the sweep too.
    }
    if (!faulty.crashed()) {
      // Past the end of the commit's and the teardown's writes: done.
      EXPECT_TRUE(saw_abort);
      EXPECT_TRUE(saw_unacked_redo);
      EXPECT_TRUE(saw_acked_redo) << "no crash point fell between the ack "
                                     "and the flush of the decisions";
      return;
    }
    faulty.Reboot();
    auto registry = std::make_shared<common::MetricsRegistry>();
    options.metrics = registry;
    auto router = ShardedChunkStore::Open(backends, options);
    ASSERT_TRUE(router.ok())
        << "crash point " << point << ": " << router.status().ToString();
    auto v0 = (*router)->Read(on0);
    auto v1 = (*router)->Read(on1);
    ASSERT_TRUE(v0.ok() && v1.ok());
    const bool applied0 = Slice(*v0).ToString() == "txn0";
    const bool applied1 = Slice(*v1).ToString() == "txn1";
    EXPECT_EQ(applied0, applied1)
        << "crash point " << point << " tore the cross-shard commit";
    if (!applied0) {
      EXPECT_EQ(Slice(*v0).ToString(), "base0");
      EXPECT_EQ(Slice(*v1).ToString(), "base1");
    }
    if (acked) {
      EXPECT_TRUE(applied0) << "crash point " << point
                            << " lost an acknowledged cross-shard commit";
    }
    RouterStats rs = (*router)->router_stats();
    EXPECT_LE(rs.recovered_commits + rs.recovered_aborts, 1u);
    if (rs.recovered_commits > 0) {
      EXPECT_TRUE(applied0);
      (acked ? saw_acked_redo : saw_unacked_redo) = true;
    }
    saw_abort = saw_abort || rs.recovered_aborts > 0;
    EXPECT_EQ(registry->audit().size(), 0u) << "crash point " << point;
    // A fresh cross-shard commit must work on top of the recovered chain.
    ASSERT_TRUE(CommitPair(router->get(), on0, on1, "after", "after").ok());
    ASSERT_TRUE((*router)->Close().ok());
  }
}

// ----------------------------------------------- coordinator failure paths

// Fails every Write() while armed — a shard device that starts rejecting
// appends mid-2PC — or, after FailNthWrite(n), the nth Write() from then
// on (1-based), once. Not thread-safe; pair with txn_coordinator_threads
// = 0.
class WriteFailStore final : public platform::UntrustedStore {
 public:
  explicit WriteFailStore(platform::UntrustedStore* base) : base_(base) {}
  void Arm() { armed_ = true; }
  void Disarm() { armed_ = false; }
  void FailNthWrite(int n) { remaining_ = n; }

  Status Create(const std::string& name, bool overwrite) override {
    return base_->Create(name, overwrite);
  }
  Status Remove(const std::string& name) override {
    return base_->Remove(name);
  }
  bool Exists(const std::string& name) const override {
    return base_->Exists(name);
  }
  Status Read(const std::string& name, uint64_t offset, size_t n,
              Buffer* out) const override {
    return base_->Read(name, offset, n, out);
  }
  Status Write(const std::string& name, uint64_t offset,
               Slice data) override {
    if (armed_ || (remaining_ > 0 && --remaining_ == 0)) {
      return Status::IOError("injected write failure");
    }
    return base_->Write(name, offset, data);
  }
  Result<uint64_t> Size(const std::string& name) const override {
    return base_->Size(name);
  }
  Status Truncate(const std::string& name, uint64_t size) override {
    return base_->Truncate(name, size);
  }
  Status Sync(const std::string& name) override { return base_->Sync(name); }
  std::vector<std::string> List() const override { return base_->List(); }

 private:
  platform::UntrustedStore* base_;
  bool armed_ = false;
  int remaining_ = 0;
};

bool HasAuditKind(const common::MetricsRegistry& registry,
                  const std::string& kind) {
  for (const auto& event : registry.audit().Events()) {
    if (event.kind == kind) return true;
  }
  return false;
}

TEST(ShardedStoreTest, MidPrepareFailureAbortsPreparedShardsAtEveryIndex) {
  // Inject a shard Write failure at every prepare index of a 4-shard
  // transaction. Each run must: return the failure, abort the shards that
  // had already prepared, audit the failed prepare, leak no staging
  // chunks across a reopen, and leave every shard at its pre-transaction
  // value.
  constexpr int kN = 4;
  for (int f = 0; f < kN; f++) {
    std::vector<std::unique_ptr<MemUntrustedStore>> bases;
    std::vector<std::unique_ptr<MemOneWayCounter>> counters;
    MemSecretStore secrets;
    ASSERT_TRUE(secrets.Provision(Slice("test-master-secret")).ok());
    for (int k = 0; k < kN; k++) {
      bases.push_back(std::make_unique<MemUntrustedStore>());
      counters.push_back(std::make_unique<MemOneWayCounter>());
    }
    WriteFailStore failing(bases[f].get());
    std::vector<ShardBackend> backends;
    for (int k = 0; k < kN; k++) {
      backends.push_back({k == f ? static_cast<platform::UntrustedStore*>(
                                       &failing)
                                 : bases[k].get(),
                          &secrets, counters[k].get()});
    }
    auto registry = std::make_shared<common::MetricsRegistry>();
    chunk::ChunkStoreOptions options = SmallSegments();
    options.metrics = registry;
    // Serial prepares in ascending shard order: "prepare index f" is then
    // exactly "the f-th participant", and the injected store needs no
    // synchronization.
    options.txn_coordinator_threads = 0;

    chunk::ChunkId ids[kN] = {};
    {
      auto router = ShardedChunkStore::Open(backends, options);
      ASSERT_TRUE(router.ok()) << router.status().ToString();
      int found = 0;
      while (found < kN) {
        chunk::ChunkId cid = (*router)->AllocateChunkId();
        uint32_t k = (*router)->ShardOf(cid);
        if (ids[k] == 0) {
          ids[k] = cid;
          found++;
        }
      }
      chunk::WriteBatch before;
      for (int k = 0; k < kN; k++) before.Write(ids[k], Slice("base"));
      ASSERT_TRUE((*router)->Commit(before, true).ok());  // txn 1.

      failing.Arm();
      chunk::WriteBatch txn;
      for (int k = 0; k < kN; k++) txn.Write(ids[k], Slice("txn"));
      Status status = (*router)->Commit(txn, true);  // txn 2.
      failing.Disarm();
      ASSERT_FALSE(status.ok()) << "prepare index " << f;

      RouterStats rs = (*router)->router_stats();
      EXPECT_EQ(rs.cross_shard_commits, 1u) << "prepare index " << f;
      EXPECT_EQ(rs.cross_shard_aborts, 1u) << "prepare index " << f;
      EXPECT_EQ(rs.cross_shard_commit_failures, 0u) << "prepare index " << f;
      // The failed prepare is audited; the unwind succeeded (every other
      // shard is healthy), so no failed-abort audit.
      EXPECT_TRUE(HasAuditKind(*registry, "txn_prepare_failed"))
          << "prepare index " << f;
      EXPECT_FALSE(HasAuditKind(*registry, "txn_abort_failed"))
          << "prepare index " << f;
      // The coordinator exit path must clear the in-flight marker even on
      // failure, or the health monitor would flag a stuck transaction.
      const std::map<std::string, int64_t> gauges =
          registry->Snapshot().gauges;
      EXPECT_EQ(gauges.at("shard.router.txn_inflight"), 0);
      EXPECT_EQ(gauges.at("shard.router.txn_inflight_since_us"), 0);
      // Drop without Close: recovery gets whatever the abort left behind.
    }

    auto router = ShardedChunkStore::Open(backends, options);
    ASSERT_TRUE(router.ok())
        << "prepare index " << f << ": " << router.status().ToString();
    // No staging leaked: the unwind (or recovery) deallocated every
    // prepared shard's staging chunk.
    for (int k = 0; k < kN; k++) {
      EXPECT_TRUE((*router)
                      ->shard(k)
                      ->Read(ShardedChunkStore::StagingCid(2))
                      .status()
                      .IsNotFound())
          << "prepare index " << f << " leaked staging on shard " << k;
    }
    for (int k = 0; k < kN; k++) {
      auto value = (*router)->Read(ids[k]);
      ASSERT_TRUE(value.ok());
      EXPECT_EQ(Slice(*value).ToString(), "base")
          << "prepare index " << f << " applied shard " << k;
    }
    // The decision chains survive the unwind: fresh cross-shard commits
    // still work.
    chunk::WriteBatch after;
    for (int k = 0; k < kN; k++) after.Write(ids[k], Slice("after"));
    ASSERT_TRUE((*router)->Commit(after, true).ok());
    ASSERT_TRUE((*router)->Close().ok());
  }
}

TEST(ShardedStoreTest, LingeringFailedPrepareStopsGcAndResolvesAbort) {
  // Shard 1 rejects txn 2's prepare, but the rejected staging stays
  // buffered in its log tail and reaches the image with the next flush.
  // Shard 0 aborts durably. Later transactions let shard 0's GC drop its
  // records, including txn 2's abort, but shard 1's GC must stay behind
  // txn 2: the lingering staging links to the chain position of that
  // moment. After reopen txn 2 resolves to abort everywhere with no false
  // tamper detection — and again on a second reopen, where txn 2's
  // recovery-time decision sits after newer transactions in the chain
  // (with too few later transactions for a drop round, nothing hides it).
  const int batch = static_cast<int>(ShardedChunkStore::kDecisionDropBatch);
  for (int later : {4, batch + 4}) {
    SCOPED_TRACE("later transactions: " + std::to_string(later));
    MemUntrustedStore base0, base1;
    WriteFailStore failing(&base1);
    MemSecretStore secrets;
    ASSERT_TRUE(secrets.Provision(Slice("test-master-secret")).ok());
    MemOneWayCounter c0, c1;
    std::vector<ShardBackend> backends = {{&base0, &secrets, &c0},
                                          {&failing, &secrets, &c1}};
    chunk::ChunkStoreOptions options = SmallSegments();
    options.txn_coordinator_threads = 0;
    chunk::ChunkId on0 = 0, on1 = 0;
    {
      auto router = ShardedChunkStore::Open(backends, options);
      ASSERT_TRUE(router.ok()) << router.status().ToString();
      TwoShardIds(router->get(), &on0, &on1);
      ASSERT_TRUE(CommitPair(router->get(), on0, on1, "t1", "t1").ok());
      failing.Arm();
      ASSERT_FALSE(CommitPair(router->get(), on0, on1, "t2", "t2").ok());
      failing.Disarm();
      // The rejected staging is still in shard 1's applied state.
      EXPECT_TRUE(
          (*router)->shard(1)->Read(ShardedChunkStore::StagingCid(2)).ok());
      for (int i = 0; i < later; i++) {  // Txns 3 .. 2 + later.
        const std::string v = "later" + std::to_string(i);
        ASSERT_TRUE(CommitPair(router->get(), on0, on1, v, v).ok());
      }
      // Shard 1 kept every record from txn 3 on; past a drop round,
      // shard 0 dropped txn 2's abort and the records after it.
      for (uint64_t txn = 3; txn <= static_cast<uint64_t>(2 + later); txn++) {
        EXPECT_TRUE(
            (*router)->shard(1)->Read(ShardedChunkStore::DecisionCid(txn)).ok())
            << "txn " << txn;
      }
      if (later > batch) {
        for (uint64_t txn : {2, 3}) {
          EXPECT_TRUE((*router)
                          ->shard(0)
                          ->Read(ShardedChunkStore::DecisionCid(txn))
                          .status()
                          .IsNotFound());
        }
      }
      ASSERT_TRUE((*router)->Close().ok());
    }
    const std::string last = "later" + std::to_string(later - 1);
    for (int reopen = 0; reopen < 2; reopen++) {
      auto registry = std::make_shared<common::MetricsRegistry>();
      options.metrics = registry;
      auto router = ShardedChunkStore::Open(backends, options);
      ASSERT_TRUE(router.ok())
          << "reopen " << reopen << ": " << router.status().ToString();
      EXPECT_EQ(registry->audit().size(), 0u) << "reopen " << reopen;
      RouterStats rs = (*router)->router_stats();
      EXPECT_EQ(rs.recovered_aborts, reopen == 0 ? 1u : 0u);
      EXPECT_EQ(rs.recovered_commits, 0u);
      for (int k = 0; k < 2; k++) {
        EXPECT_TRUE((*router)
                        ->shard(k)
                        ->Read(ShardedChunkStore::StagingCid(2))
                        .status()
                        .IsNotFound());
      }
      EXPECT_EQ(Slice(*(*router)->Read(on0)).ToString(), last);
      EXPECT_EQ(Slice(*(*router)->Read(on1)).ToString(), last);
      ASSERT_TRUE((*router)->Close().ok());
    }
  }
}

TEST(ShardedStoreTest, Phase2ApplyFailureCountsFailureNotCommit) {
  // A decision-phase apply that fails must not count as a successful
  // cross-shard commit (the pre-fix coordinator incremented the success
  // counter unconditionally): it lands in cross_shard_commit_failures and
  // the caller sees the error.
  MemUntrustedStore base0, base1;
  WriteFailStore failing(&base1);
  MemSecretStore secrets;
  ASSERT_TRUE(secrets.Provision(Slice("test-master-secret")).ok());
  MemOneWayCounter c0, c1;
  std::vector<ShardBackend> backends = {{&base0, &secrets, &c0},
                                        {&failing, &secrets, &c1}};
  auto registry = std::make_shared<common::MetricsRegistry>();
  chunk::ChunkStoreOptions options = SmallSegments();
  options.metrics = registry;
  options.txn_coordinator_threads = 0;  // Deterministic write numbering.

  const std::string big1(options.segment_size + 512, 'b');
  chunk::ChunkId on0 = 0, on1 = 0, other0 = 0, other1 = 0;
  {
    auto router = ShardedChunkStore::Open(backends, options);
    ASSERT_TRUE(router.ok()) << router.status().ToString();
    TwoShardIds(router->get(), &on0, &on1);
    ASSERT_TRUE(CommitPair(router->get(), on0, on1, "base0", "base1").ok());

    // The nondurable decision batch only buffers, so it writes only when
    // it rolls the log to a fresh segment. A txn1 payload larger than a
    // segment forces that: every oversized record lives alone in one, so
    // shard 1 writes four times in this commit window. The prepare's
    // staging record rolls the log, flushing txn 1's buffered decision;
    // its seal rolls again, flushing the staging record, then flushes the
    // commit record. The decision batch's data record is flushed when the
    // decision record rolls past it. Failing that fourth write fails the
    // Phase-2 apply after a successful prepare.
    failing.FailNthWrite(4);
    Status status = CommitPair(router->get(), on0, on1, "txn0", big1);
    ASSERT_FALSE(status.ok());

    RouterStats rs = (*router)->router_stats();
    EXPECT_EQ(rs.cross_shard_commits, 1u);  // Only txn 1.
    EXPECT_EQ(rs.cross_shard_commit_failures, 1u);
    EXPECT_EQ(rs.cross_shard_aborts, 0u);
    const std::map<std::string, int64_t> gauges = registry->Snapshot().gauges;
    EXPECT_EQ(gauges.at("shard.router.txn_inflight"), 0);
    EXPECT_EQ(gauges.at("shard.router.txn_inflight_since_us"), 0);
    // Shard 1 rolled the failed batch back, so its chain fences at txn 2
    // and recovery redoes txn 2 from staging; txn 3 must not fork it.
    TwoShardIds(router->get(), &other0, &other1);
    ASSERT_TRUE(
        CommitPair(router->get(), other0, other1, "txn3", "txn3").ok());
    // Drop without Close.
  }

  // Every participant durably prepared, so the transaction is decided:
  // recovery must converge both shards to the SAME version — all-or-
  // nothing even on apply failure — and verify both chains.
  auto router = ShardedChunkStore::Open(backends, options);
  ASSERT_TRUE(router.ok()) << router.status().ToString();
  auto v0 = (*router)->Read(on0);
  auto v1 = (*router)->Read(on1);
  ASSERT_TRUE(v0.ok() && v1.ok());
  const bool applied0 = Slice(*v0).ToString() == "txn0";
  const bool applied1 = Slice(*v1).ToString() == big1;
  EXPECT_EQ(applied0, applied1) << Slice(*v0).ToString() << " vs "
                                << Slice(*v1).ToString();
  EXPECT_EQ(Slice(*(*router)->Read(other0)).ToString(), "txn3");
  EXPECT_EQ(Slice(*(*router)->Read(other1)).ToString(), "txn3");
  ASSERT_TRUE(CommitPair(router->get(), on0, on1, "after", "after").ok());
  ASSERT_TRUE((*router)->Close().ok());
}

TEST(ShardedStoreTest, InflightGaugeClearsAfterCrossShardCommit) {
  // The in-flight marker pair must read {0, 0} the moment the coordinator
  // returns — a stale since-timestamp (the pre-fix bug) makes the health
  // monitor report a stuck transaction forever.
  ShardedEnv env(2);
  auto registry = std::make_shared<common::MetricsRegistry>();
  chunk::ChunkStoreOptions options = SmallSegments();
  options.metrics = registry;
  auto router = env.Open(options);
  ASSERT_TRUE(router.ok()) << router.status().ToString();
  chunk::ChunkId on0 = 0, on1 = 0;
  TwoShardIds(router->get(), &on0, &on1);
  chunk::WriteBatch batch;
  batch.Write(on0, Slice("zero"));
  batch.Write(on1, Slice("one"));
  ASSERT_TRUE((*router)->Commit(batch, true).ok());

  const std::map<std::string, int64_t> gauges = registry->Snapshot().gauges;
  EXPECT_EQ(gauges.at("shard.router.txn_inflight"), 0);
  EXPECT_EQ(gauges.at("shard.router.txn_inflight_since_us"), 0);
  ASSERT_TRUE((*router)->Close().ok());
}

// ------------------------------------------------ images from before GC

// Loads tests/data/pre_gc_2pc_image into a 2-shard environment: an image
// written by the router before decision-record GC (so with no chain-base
// record), from three two-shard commits {2: "v<t>", 1: "v<t>"}, t = 1..3,
// under SmallSegments() options, then closed cleanly.
std::unique_ptr<ShardedEnv> LoadPreGcImage() {
  const std::string dir = std::string(TDB_TEST_DATA_DIR) + "/pre_gc_2pc_image";
  auto env = std::make_unique<ShardedEnv>(2);
  auto read = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    TDB_CHECK(in.good());
    return Buffer(std::istreambuf_iterator<char>(in),
                  std::istreambuf_iterator<char>());
  };
  for (int k = 0; k < 2; k++) {
    MemUntrustedStore::Image image;
    for (const char* name : {"anchor-0", "anchor-1", "seg-1", "seg-2"}) {
      image[name] = read(dir + "/s" + std::to_string(k) + "/" + name);
    }
    env->stores[k]->RestoreImage(std::move(image));
  }
  std::ifstream counters(dir + "/counters");
  for (int k = 0; k < 2; k++) {
    uint64_t value = 0;
    counters >> value;
    while (*env->counters[k]->Read() < value) {
      TDB_CHECK(env->counters[k]->Increment().ok());
    }
  }
  return env;
}

TEST(ShardedStoreTest, PreGcImageOpensVerifiesAndCompacts) {
  std::unique_ptr<ShardedEnv> env = LoadPreGcImage();
  const chunk::ChunkId on0 = 2, on1 = 1;
  auto registry = std::make_shared<common::MetricsRegistry>();
  chunk::ChunkStoreOptions options = SmallSegments();
  options.metrics = registry;
  {
    auto router = env->Open(options);
    ASSERT_TRUE(router.ok()) << router.status().ToString();
    EXPECT_EQ(Slice(*(*router)->Read(on0)).ToString(), "v3");
    EXPECT_EQ(Slice(*(*router)->Read(on1)).ToString(), "v3");
    // Every decision from txn 1 on is kept, and no chain base exists yet.
    for (int k = 0; k < 2; k++) {
      for (uint64_t txn = 1; txn <= 3; txn++) {
        EXPECT_TRUE((*router)
                        ->shard(k)
                        ->Read(ShardedChunkStore::DecisionCid(txn))
                        .ok());
      }
      EXPECT_TRUE((*router)
                      ->shard(k)
                      ->Read(ShardedChunkStore::ChainBaseCid())
                      .status()
                      .IsNotFound());
    }
    EXPECT_EQ((*router)->router_stats().decisions_live, 6u);
    uint64_t checked = 0;
    EXPECT_TRUE((*router)->VerifyIntegrity(&checked).ok());
    // New transactions continue at txn 4; once a drop batch of records
    // is settled, GC drops the three old ones with them and writes the
    // chain bases.
    const uint64_t last = ShardedChunkStore::kDecisionDropBatch + 1;
    for (uint64_t txn = 4; txn <= last; txn++) {
      ASSERT_TRUE(CommitPair(router->get(), on0, on1, "v" + std::to_string(txn),
                             "v" + std::to_string(txn))
                      .ok());
    }
    for (int k = 0; k < 2; k++) {
      for (uint64_t txn = 1; txn < last; txn++) {
        EXPECT_TRUE((*router)
                        ->shard(k)
                        ->Read(ShardedChunkStore::DecisionCid(txn))
                        .status()
                        .IsNotFound());
      }
      EXPECT_TRUE(
          (*router)->shard(k)->Read(ShardedChunkStore::DecisionCid(last)).ok());
      EXPECT_TRUE(
          (*router)->shard(k)->Read(ShardedChunkStore::ChainBaseCid()).ok());
    }
    EXPECT_EQ((*router)->router_stats().decisions_live, 2u);
    ASSERT_TRUE((*router)->Close().ok());
  }
  auto router = env->Open(options);
  ASSERT_TRUE(router.ok()) << router.status().ToString();
  EXPECT_EQ(Slice(*(*router)->Read(on0)).ToString(),
            "v" + std::to_string(ShardedChunkStore::kDecisionDropBatch + 1));
  EXPECT_EQ(registry->audit().size(), 0u);
  ASSERT_TRUE((*router)->Close().ok());
}

// ------------------------------------------------ ack at durable prepare

TEST(ShardedStoreTest, AckedCommitSurvivesLossOfUnflushedDecisions) {
  // Crash right after a cross-shard ack, before either participant flushes
  // again: the commit decisions were never durable, so the crash (or an
  // attacker truncating each log) drops them. The durable prepares still
  // decide the transaction: recovery redoes it on every participant, and
  // a crash-normal image logs no audit event.
  ShardedEnv env(2);
  auto router = env.Open();
  ASSERT_TRUE(router.ok());
  chunk::ChunkId on0 = 0, on1 = 0;
  TwoShardIds(router->get(), &on0, &on1);
  ASSERT_TRUE(CommitPair(router->get(), on0, on1, "base0", "base1").ok());
  ASSERT_TRUE((*router)->Checkpoint().ok());
  ASSERT_TRUE(CommitPair(router->get(), on0, on1, "txn0", "txn1").ok());  // 2.

  // Both staging chunks are still the durable truth on their shards.
  EXPECT_TRUE(HoldsStaging(env, 0, 2));
  EXPECT_TRUE(HoldsStaging(env, 1, 2));
  std::unique_ptr<ShardedEnv> crashed = CrashCopy(env);
  auto registry = std::make_shared<common::MetricsRegistry>();
  chunk::ChunkStoreOptions options = SmallSegments();
  options.metrics = registry;
  auto recovered = crashed->Open(options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(Slice(*(*recovered)->Read(on0)).ToString(), "txn0");
  EXPECT_EQ(Slice(*(*recovered)->Read(on1)).ToString(), "txn1");
  RouterStats rs = (*recovered)->router_stats();
  EXPECT_EQ(rs.recovered_commits, 1u);
  EXPECT_EQ(rs.recovered_aborts, 0u);
  EXPECT_EQ(registry->audit().size(), 0u);
  uint64_t checked = 0;
  EXPECT_TRUE((*recovered)->VerifyIntegrity(&checked).ok());
  ASSERT_TRUE((*recovered)->Close().ok());
  ASSERT_TRUE((*router)->Close().ok());
}

TEST(ShardedStoreTest, AckedCommitSurvivesLossOfOneParticipantsDecision) {
  // As above, but a durable single-shard commit on shard 0 flushed shard
  // 0's decision before the crash; shard 1's is lost. Shard 1 redoes from
  // its staging under shard 0's commit decision.
  ShardedEnv env(2);
  auto router = env.Open();
  ASSERT_TRUE(router.ok());
  chunk::ChunkId on0 = 0, on1 = 0;
  TwoShardIds(router->get(), &on0, &on1);
  ASSERT_TRUE(CommitPair(router->get(), on0, on1, "base0", "base1").ok());
  ASSERT_TRUE((*router)->Checkpoint().ok());
  ASSERT_TRUE(CommitPair(router->get(), on0, on1, "txn0", "txn1").ok());  // 2.
  chunk::ChunkId other0 = 0;
  while ((*router)->ShardOf(other0 = (*router)->AllocateChunkId()) != 0) {
  }
  ASSERT_TRUE((*router)->Write(other0, Slice("single"), true).ok());

  EXPECT_FALSE(HoldsStaging(env, 0, 2));
  EXPECT_TRUE(HoldsStaging(env, 1, 2));
  std::unique_ptr<ShardedEnv> crashed = CrashCopy(env);
  auto registry = std::make_shared<common::MetricsRegistry>();
  chunk::ChunkStoreOptions options = SmallSegments();
  options.metrics = registry;
  auto recovered = crashed->Open(options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(Slice(*(*recovered)->Read(on0)).ToString(), "txn0");
  EXPECT_EQ(Slice(*(*recovered)->Read(on1)).ToString(), "txn1");
  EXPECT_EQ(Slice(*(*recovered)->Read(other0)).ToString(), "single");
  EXPECT_EQ((*recovered)->router_stats().recovered_commits, 1u);
  EXPECT_EQ(registry->audit().size(), 0u);
  ASSERT_TRUE(CommitPair(recovered->get(), on0, on1, "after", "after").ok());
  ASSERT_TRUE((*recovered)->Close().ok());
  ASSERT_TRUE((*router)->Close().ok());
}

// ---------------------------------------------------- decision-record GC

TEST(ShardedStoreTest, DecisionRecordsStayBoundedOverManyCommits) {
  // Two-shard commits rewriting the same two chunks. Without GC every
  // transaction left one decision chunk per participant forever (10,006
  // live chunks after 5,000 commits); now the live set is a constant.
  ShardedEnv env(2);
  auto registry = std::make_shared<common::MetricsRegistry>();
  chunk::ChunkStoreOptions options = SmallSegments();
  options.metrics = registry;
  auto router = env.Open(options);
  ASSERT_TRUE(router.ok());
  chunk::ChunkId on0 = 0, on1 = 0;
  TwoShardIds(router->get(), &on0, &on1);
  const uint64_t kBatch = ShardedChunkStore::kDecisionDropBatch;
  constexpr int kCommits = 5000;
  for (int i = 1; i <= kCommits; i++) {
    const std::string v = "v" + std::to_string(i);
    ASSERT_TRUE(CommitPair(router->get(), on0, on1, v, v).ok());
    if (i % 500 == 0) {
      // Per shard: config, chain base, one data chunk, and fewer than
      // one drop batch of decisions plus the newest.
      EXPECT_LE((*router)->Stats().live_chunks, 2 * (3 + kBatch))
          << "after " << i;
      EXPECT_LE((*router)->router_stats().decisions_live, 2 * kBatch)
          << "after " << i;
    }
  }
  RouterStats rs = (*router)->router_stats();
  EXPECT_EQ(rs.cross_shard_commits, static_cast<uint64_t>(kCommits));
  EXPECT_EQ(rs.decisions_dropped + rs.decisions_live,
            2u * static_cast<uint64_t>(kCommits));
  const std::map<std::string, int64_t> gauges = registry->Snapshot().gauges;
  EXPECT_EQ(gauges.at("shard.router.decisions_live"),
            static_cast<int64_t>(rs.decisions_live));
  EXPECT_EQ(registry->Snapshot().counters.at("shard.router.decisions_dropped"),
            static_cast<int64_t>(rs.decisions_dropped));
  ASSERT_TRUE((*router)->Close().ok());

  auto reopened = env.Open();
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(Slice(*(*reopened)->Read(on0)).ToString(),
            "v" + std::to_string(kCommits));
  EXPECT_EQ((*reopened)->router_stats().recovered_commits, 0u);
  ASSERT_TRUE((*reopened)->Close().ok());
}

TEST(ShardedStoreTest, CrashAnywhereAcrossGcRoundsKeepsAckedCommits) {
  // A run long enough for two GC drop rounds on each shard, with a crash
  // at every global write index of it (and of the teardown after it).
  // Whatever the crash hits — a prepare, an in-memory decision, a drop
  // batch, a checkpoint — recovery must show both chunks at the same
  // transaction, at or after the last acknowledged one, with no audit
  // event, and the reopened chains must take new transactions.
  const int kTxns =
      2 * static_cast<int>(ShardedChunkStore::kDecisionDropBatch) + 4;
  bool saw_drop_round = false;
  for (uint64_t point = 0;; point++) {
    MemUntrustedStore base;
    FaultInjectingStore faulty(&base);
    PrefixedStore s0("s0/", &faulty), s1("s1/", &faulty);
    MemSecretStore secrets;
    ASSERT_TRUE(secrets.Provision(Slice("test-master-secret")).ok());
    MemOneWayCounter c0, c1;
    std::vector<ShardBackend> backends = {{&s0, &secrets, &c0},
                                          {&s1, &secrets, &c1}};
    chunk::ChunkStoreOptions options = SmallSegments();
    options.txn_coordinator_threads = 0;
    chunk::ChunkId on0 = 0, on1 = 0;
    int acked = 0;
    {
      auto router = ShardedChunkStore::Open(backends, options);
      ASSERT_TRUE(router.ok()) << router.status().ToString();
      TwoShardIds(router->get(), &on0, &on1);
      faulty.CrashAtWrite(point, 4, 4);
      for (int t = 1; t <= kTxns; t++) {
        const std::string v = "t" + std::to_string(t);
        if (!CommitPair(router->get(), on0, on1, v, v).ok()) break;
        acked = t;
      }
      ASSERT_TRUE(acked == kTxns || faulty.crashed());
      saw_drop_round =
          saw_drop_round || (*router)->router_stats().decisions_dropped > 0;
    }
    if (!faulty.crashed()) {
      EXPECT_TRUE(saw_drop_round);
      return;
    }
    faulty.Reboot();
    auto registry = std::make_shared<common::MetricsRegistry>();
    options.metrics = registry;
    auto router = ShardedChunkStore::Open(backends, options);
    ASSERT_TRUE(router.ok())
        << "crash point " << point << ": " << router.status().ToString();
    EXPECT_EQ(registry->audit().size(), 0u) << "crash point " << point;
    auto v0 = (*router)->Read(on0);
    auto v1 = (*router)->Read(on1);
    if (acked == 0) {
      // The crash may precede the first commit's durability entirely.
      if (!v0.ok() || !v1.ok()) {
        EXPECT_TRUE(v0.status().IsNotFound() && v1.status().IsNotFound())
            << "crash point " << point;
        ASSERT_TRUE((*router)->Close().ok());
        continue;
      }
    }
    ASSERT_TRUE(v0.ok() && v1.ok()) << "crash point " << point;
    const std::string got0 = Slice(*v0).ToString();
    EXPECT_EQ(got0, Slice(*v1).ToString()) << "crash point " << point;
    const int got = std::stoi(got0.substr(1));
    EXPECT_GE(got, acked) << "crash point " << point << " lost an ack";
    EXPECT_LE(got, acked + 1) << "crash point " << point;
    ASSERT_TRUE(CommitPair(router->get(), on0, on1, "after", "after").ok());
    ASSERT_TRUE((*router)->Close().ok());
  }
}

TEST(ShardedStoreTest, IdleParticipantDoesNotPinDecisionChains) {
  // Txn 1 spans shards {0, 2}; shard 2 then never takes part in 2PC
  // again, so nothing tells the router that txn 1's decision on shard 2
  // is durable, and shard 0's chain cannot drop past txn 1 by itself.
  // Once a chain outgrows kMaxLiveDecisions the coordinator flushes the
  // lagging shards, and the chain shrinks back.
  ShardedEnv env(3);
  auto router = env.Open();
  ASSERT_TRUE(router.ok());
  chunk::ChunkId ids[3] = {};
  for (int found = 0; found < 3;) {
    chunk::ChunkId cid = (*router)->AllocateChunkId();
    if (ids[(*router)->ShardOf(cid)] == 0) {
      ids[(*router)->ShardOf(cid)] = cid;
      found++;
    }
  }
  ASSERT_TRUE(CommitPair(router->get(), ids[0], ids[2], "a", "a").ok());
  const size_t kCap = ShardedChunkStore::kMaxLiveDecisions;
  for (size_t i = 0; i < 3 * kCap; i++) {
    ASSERT_TRUE(CommitPair(router->get(), ids[0], ids[1], "b", "b").ok());
    // Shards 0 and 1 hold at most kCap + 1 records each, shard 2 one.
    EXPECT_LE((*router)->router_stats().decisions_live, 2 * kCap + 3);
    if (i == ShardedChunkStore::kDecisionDropBatch + 1) {
      // Shard 0 has a drop batch of settled records behind txn 1, but
      // txn 1's commit decision on shard 2 is not flushed, so txn 1's
      // record on shard 0 must still be there to decide its redo.
      std::unique_ptr<ShardedEnv> crashed = CrashCopy(env);
      auto recovered = crashed->Open();
      ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
      auto a = (*recovered)->Read(ids[2]);
      ASSERT_TRUE(a.ok()) << "txn 1 lost on shard 2: " << a.status().ToString();
      EXPECT_EQ(Slice(*a).ToString(), "a");
      EXPECT_EQ(Slice(*(*recovered)->Read(ids[0])).ToString(), "b");
      ASSERT_TRUE((*recovered)->Close().ok());
    }
  }
  EXPECT_TRUE((*router)
                  ->shard(0)
                  ->Read(ShardedChunkStore::DecisionCid(1))
                  .status()
                  .IsNotFound());
  ASSERT_TRUE((*router)->Close().ok());
  auto reopened = env.Open();
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  ASSERT_TRUE((*reopened)->Close().ok());
}

// ------------------------------------------- object-level cross-shard txns

TEST(ShardedStoreTest, ObjectTransferAcrossShardsIsAtomic) {
  // The tentpole scenario end-to-end: two account objects on different
  // shards, one ObjectStore transaction moving value between them, a
  // crash injected at EVERY global write index of the durable commit
  // (which runs the full MAC-chained 2PC underneath). After recovery the
  // transfer must be all-or-nothing: total balance conserved, both
  // accounts from the same version.
  bool saw_old = false, saw_new = false;
  for (uint64_t point = 0;; point++) {
    MemUntrustedStore base;
    FaultInjectingStore faulty(&base);
    PrefixedStore s0("s0/", &faulty), s1("s1/", &faulty);
    MemSecretStore secrets;
    ASSERT_TRUE(secrets.Provision(Slice("test-master-secret")).ok());
    MemOneWayCounter c0, c1;
    std::vector<ShardBackend> backends = {{&s0, &secrets, &c0},
                                          {&s1, &secrets, &c1}};
    chunk::ChunkStoreOptions options = SmallSegments();
    options.txn_coordinator_threads = 0;  // Deterministic write index.

    object::ObjectId acct_a = 0, acct_b = 0;
    bool crashed = false;
    {
      auto router = ShardedChunkStore::Open(backends, options);
      ASSERT_TRUE(router.ok()) << router.status().ToString();
      auto objects = object::ObjectStore::Open(router->get());
      ASSERT_TRUE(objects.ok()) << objects.status().ToString();
      ASSERT_TRUE(harness::RegisterHarnessClasses(objects->get()).ok());
      {
        object::Transaction setup(objects->get());
        auto a = setup.Insert(
            std::make_unique<harness::HarnessBlob>(1, Buffer{100}));
        auto b = setup.Insert(
            std::make_unique<harness::HarnessBlob>(2, Buffer{50}));
        ASSERT_TRUE(a.ok() && b.ok());
        acct_a = *a;
        acct_b = *b;
        ASSERT_NE((*router)->ShardOf(acct_a), (*router)->ShardOf(acct_b))
            << "accounts must land on different shards";
        ASSERT_TRUE(setup.Commit(true).ok());
      }

      faulty.CrashAtWrite(point, 4, 4);
      object::Transaction transfer(objects->get());
      auto a = transfer.OpenWritable<harness::HarnessBlob>(acct_a);
      auto b = transfer.OpenWritable<harness::HarnessBlob>(acct_b);
      Status status;
      if (a.ok() && b.ok()) {
        (*a)->set_bytes(Buffer{90});  // 100 - 10.
        (*b)->set_bytes(Buffer{60});  // 50 + 10.
        status = transfer.Commit(true);
      } else {
        status = a.ok() ? b.status() : a.status();
      }
      crashed = faulty.crashed();
      ASSERT_TRUE(status.ok() || crashed) << status.ToString();
      if (!crashed) {
        EXPECT_TRUE(saw_old) << "sweep never landed before the decision";
        EXPECT_TRUE(saw_new) << "sweep never landed after the decision";
        return;  // Past the commit's write window: sweep complete.
      }
      // Drop objects, then router, without Close.
    }
    faulty.Reboot();
    auto router = ShardedChunkStore::Open(backends, options);
    ASSERT_TRUE(router.ok())
        << "crash point " << point << ": " << router.status().ToString();
    auto objects = object::ObjectStore::Open(router->get());
    ASSERT_TRUE(objects.ok()) << objects.status().ToString();
    ASSERT_TRUE(harness::RegisterHarnessClasses(objects->get()).ok());
    object::ReadTransaction read(objects->get());
    auto a = read.Open<harness::HarnessBlob>(acct_a);
    auto b = read.Open<harness::HarnessBlob>(acct_b);
    ASSERT_TRUE(a.ok() && b.ok())
        << "crash point " << point << " lost an account";
    ASSERT_EQ((*a)->bytes().size(), 1u);
    ASSERT_EQ((*b)->bytes().size(), 1u);
    const int balance_a = (*a)->bytes()[0];
    const int balance_b = (*b)->bytes()[0];
    EXPECT_EQ(balance_a + balance_b, 150)
        << "crash point " << point << " tore the transfer: " << balance_a
        << " + " << balance_b;
    EXPECT_TRUE((balance_a == 100 && balance_b == 50) ||
                (balance_a == 90 && balance_b == 60))
        << "crash point " << point << ": " << balance_a << "/" << balance_b;
    saw_old = saw_old || balance_a == 100;
    saw_new = saw_new || balance_a == 90;
    ASSERT_TRUE((*router)->Close().ok());
  }
}

// -------------------------------------------------------------- aggregates

TEST(ShardedStoreTest, StatsAggregateSumsCountersAndMaxesGroupSize) {
  ShardedEnv env(2);
  chunk::ChunkStoreOptions options = SmallSegments();
  auto router = env.Open(options);
  ASSERT_TRUE(router.ok()) << router.status().ToString();
  chunk::ChunkId on0 = 0, on1 = 0;
  TwoShardIds(router->get(), &on0, &on1);
  // Asymmetric load: shard 0 gets three durable commits, shard 1 one.
  for (int i = 0; i < 3; i++) {
    ASSERT_TRUE((*router)->Write(on0, Slice("zero"), true).ok());
  }
  ASSERT_TRUE((*router)->Write(on1, Slice("one"), true).ok());

  chunk::ChunkStoreStats agg = (*router)->Stats();
  chunk::ChunkStoreStats s0 = (*router)->ShardStats(0);
  chunk::ChunkStoreStats s1 = (*router)->ShardStats(1);
  // Counters and byte totals SUM across shards...
  EXPECT_EQ(agg.commits, s0.commits + s1.commits);
  EXPECT_EQ(agg.durable_commits, s0.durable_commits + s1.durable_commits);
  EXPECT_EQ(agg.live_chunks, s0.live_chunks + s1.live_chunks);
  EXPECT_EQ(agg.total_bytes, s0.total_bytes + s1.total_bytes);
  EXPECT_EQ(agg.bytes_appended, s0.bytes_appended + s1.bytes_appended);
  EXPECT_EQ(agg.log_syncs, s0.log_syncs + s1.log_syncs);
  EXPECT_EQ(agg.counter_bumps, s0.counter_bumps + s1.counter_bumps);
  EXPECT_GT(agg.durable_commits, 0u);
  // ...but the group-size high-water mark takes the MAX: a commit group
  // never spans shards, so summing the maxima would claim a group larger
  // than any that existed.
  EXPECT_EQ(agg.max_commits_per_group,
            std::max(s0.max_commits_per_group, s1.max_commits_per_group));
  ASSERT_TRUE((*router)->Close().ok());
}

TEST(ShardedStoreTest, PerShardMetricsCarryShardPrefix) {
  ShardedEnv env(2);
  auto registry = std::make_shared<common::MetricsRegistry>();
  chunk::ChunkStoreOptions options = SmallSegments();
  options.metrics = registry;
  auto router = env.Open(options);
  ASSERT_TRUE(router.ok()) << router.status().ToString();
  chunk::ChunkId on0 = 0, on1 = 0;
  TwoShardIds(router->get(), &on0, &on1);
  ASSERT_TRUE((*router)->Write(on0, Slice("zero"), true).ok());
  ASSERT_TRUE((*router)->Write(on1, Slice("one"), true).ok());

  const std::map<std::string, int64_t> values =
      registry->Snapshot().counters;
  EXPECT_EQ(values.count("shard0.chunk.commits"), 1u);
  EXPECT_EQ(values.count("shard1.chunk.commits"), 1u);
  EXPECT_EQ(values.count("chunk.commits"), 0u);  // No unprefixed twin.
  EXPECT_GT(values.at("shard0.chunk.commits"), 0);
  EXPECT_GT(values.at("shard1.chunk.commits"), 0);
  EXPECT_EQ(values.count("shard.router.single_shard_commits"), 1u);
  EXPECT_EQ(values.at("shard.router.single_shard_commits"), 2);
  ASSERT_TRUE((*router)->Close().ok());
}

// -------------------------------------------------------------- layering

TEST(ShardedStoreTest, ObjectStoreRunsUnchangedOverRouter) {
  ShardedEnv env(4);
  auto router = env.Open();
  ASSERT_TRUE(router.ok()) << router.status().ToString();
  auto objects = object::ObjectStore::Open(router->get());
  ASSERT_TRUE(objects.ok()) << objects.status().ToString();
  ASSERT_TRUE((*objects)
                  ->SetNamedRoot("shard-test-root", object::ObjectId{42})
                  .ok());
  auto root = (*objects)->GetNamedRoot("shard-test-root");
  ASSERT_TRUE(root.ok());
  EXPECT_EQ(*root, object::ObjectId{42});
  ASSERT_TRUE((*router)->Close().ok());

  auto reopened = env.Open();
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  auto objects2 = object::ObjectStore::Open(reopened->get());
  ASSERT_TRUE(objects2.ok()) << objects2.status().ToString();
  auto root2 = (*objects2)->GetNamedRoot("shard-test-root");
  ASSERT_TRUE(root2.ok());
  EXPECT_EQ(*root2, object::ObjectId{42});
  ASSERT_TRUE((*reopened)->Close().ok());
}

// ------------------------------------------------------------ concurrency

TEST(ShardedStoreTest, ConcurrentCommitsAcrossShards) {
  // Exercised under --tsan: parallel single-shard commits (independent
  // group windows), cross-shard 2PC, pinned composite views, and reads.
  ShardedEnv env(4);
  chunk::ChunkStoreOptions options = SmallSegments();
  auto opened = env.Open(options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  ShardedChunkStore* router = opened->get();

  constexpr int kThreads = 8;
  constexpr int kRounds = 12;
  std::vector<std::vector<chunk::ChunkId>> ids(kThreads);
  for (int t = 0; t < kThreads; t++) {
    for (int i = 0; i < 2; i++) ids[t].push_back(router->AllocateChunkId());
  }
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      for (int r = 0; r < kRounds; r++) {
        chunk::WriteBatch batch;
        const std::string value =
            "t" + std::to_string(t) + "r" + std::to_string(r);
        if (r % 3 == 0) {
          batch.Write(ids[t][0], Slice(value));  // Usually single-shard.
        } else {
          batch.Write(ids[t][0], Slice(value));
          batch.Write(ids[t][1], Slice(value));
        }
        if (!router->Commit(batch, r % 2 == 0).ok()) failures++;
        auto view = router->PinView();
        if (!view.ok() ||
            !router->ReadAtView(**view, ids[t][0]).ok()) {
          failures++;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  uint64_t checked = 0;
  EXPECT_TRUE(router->VerifyIntegrity(&checked).ok());
  for (int t = 0; t < kThreads; t++) {
    auto value = router->Read(ids[t][0]);
    ASSERT_TRUE(value.ok());
    EXPECT_EQ(Slice(*value).ToString(),
              "t" + std::to_string(t) + "r" + std::to_string(kRounds - 1));
  }
  ASSERT_TRUE(router->Close().ok());
}

TEST(ShardedStoreTest, ConcurrentCrossShardTransfersConserveTotal) {
  // Exercised under --tsan: four clients move value between accounts on
  // four shards with group commit on, so acks at prepare, in-memory
  // decisions and GC drop rounds interleave with single-shard commits and
  // with a reader whose pinned composite views must always see the total
  // conserved (never half a transfer).
  constexpr int kShards = 4;
  constexpr int kClients = 4;
  constexpr int kTransfers = 150;
  constexpr int64_t kStart = 1000;
  ShardedEnv env(kShards);
  chunk::ChunkStoreOptions options = SmallSegments();
  auto opened = env.Open(options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  ShardedChunkStore* router = opened->get();
  auto encode = [](int64_t v) { return std::to_string(v); };
  auto decode = [](const Buffer& b) {
    return std::stoll(Slice(b).ToString());
  };
  // Client c owns accounts[c][k] on shard k.
  std::vector<std::vector<chunk::ChunkId>> accounts(
      kClients, std::vector<chunk::ChunkId>(kShards, 0));
  {
    chunk::WriteBatch init;
    for (int c = 0; c < kClients; c++) {
      for (int found = 0; found < kShards;) {
        chunk::ChunkId cid = router->AllocateChunkId();
        chunk::ChunkId& slot = accounts[c][router->ShardOf(cid)];
        if (slot == 0) {
          slot = cid;
          init.Write(cid, Slice(encode(kStart)));
          found++;
        }
      }
    }
    ASSERT_TRUE(router->Commit(init, true).ok());
  }
  const int64_t total = kStart * kClients * kShards;
  auto sum_at = [&](const chunk::Snapshot& view, int64_t* sum) -> Status {
    *sum = 0;
    for (const auto& owned : accounts) {
      for (chunk::ChunkId cid : owned) {
        TDB_ASSIGN_OR_RETURN(Buffer b, router->ReadAtView(view, cid));
        *sum += decode(b);
      }
    }
    return Status::OK();
  };
  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  std::thread reader([&] {
    while (!done.load()) {
      auto view = router->PinView();
      int64_t sum = 0;
      if (!view.ok() || !sum_at(**view, &sum).ok() || sum != total) {
        failures++;
      }
    }
  });
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; c++) {
    clients.emplace_back([&, c] {
      Random rng(static_cast<uint64_t>(c) + 1);
      std::vector<int64_t> balance(kShards, kStart);
      for (int i = 0; i < kTransfers; i++) {
        const int from = static_cast<int>(rng.Uniform(kShards));
        int to = static_cast<int>(rng.Uniform(kShards));
        const int64_t amount = 1 + static_cast<int64_t>(rng.Uniform(10));
        chunk::WriteBatch batch;
        if (to == from) {  // Single-shard: a deposit-and-withdraw no-op.
          batch.Write(accounts[c][from], Slice(encode(balance[from])));
        } else {
          balance[from] -= amount;
          balance[to] += amount;
          batch.Write(accounts[c][from], Slice(encode(balance[from])));
          batch.Write(accounts[c][to], Slice(encode(balance[to])));
        }
        if (!router->Commit(batch, true).ok()) failures++;
      }
    });
  }
  for (auto& t : clients) t.join();
  done.store(true);
  reader.join();
  EXPECT_EQ(failures.load(), 0);
  RouterStats rs = router->router_stats();
  EXPECT_GT(rs.decisions_dropped, 0u);
  EXPECT_LE(rs.decisions_live,
            kShards * (ShardedChunkStore::kDecisionDropBatch + 1));
  uint64_t checked = 0;
  EXPECT_TRUE(router->VerifyIntegrity(&checked).ok());
  ASSERT_TRUE(router->Close().ok());

  auto reopened = env.Open(options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  router = reopened->get();
  auto view = router->PinView();
  ASSERT_TRUE(view.ok());
  int64_t sum = 0;
  ASSERT_TRUE(sum_at(**view, &sum).ok());
  EXPECT_EQ(sum, total);
  ASSERT_TRUE(router->Close().ok());
}

}  // namespace
}  // namespace tdb::shard
