// Log format v3 seals every record under IV E_k'(s), so an IV repeats iff
// a (k', s) pair does. These tests log every pair the cipher suite seals
// under (CipherSuite::SetSealObserver), records that never reach the log
// included, and check that no pair repeats within one image's history:
// across reopens, a crash at every write index, cleaning, a lease that
// runs out between two checkpoints, four shards sharing one master
// secret, and concurrent committers.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "chunk/chunk_store.h"
#include "chunk_test_env.h"
#include "common/random.h"
#include "platform/fault_injection.h"
#include "shard/sharded_chunk_store.h"

namespace tdb::chunk {
namespace {

using platform::FaultInjectingStore;
using SealPair = std::pair<uint64_t, uint64_t>;  // (k' id, seal number)

std::mutex g_mu;
std::vector<SealPair>* g_log = nullptr;

void RecordSeal(uint64_t key_id, uint64_t seal) {
  std::lock_guard<std::mutex> lock(g_mu);
  if (g_log != nullptr) g_log->push_back({key_id, seal});
}

// Logs every seal while it lives.
class SealLog {
 public:
  SealLog() {
    std::lock_guard<std::mutex> lock(g_mu);
    g_log = &pairs_;
    crypto::CipherSuite::SetSealObserver(&RecordSeal);
  }
  ~SealLog() {
    crypto::CipherSuite::SetSealObserver(nullptr);
    std::lock_guard<std::mutex> lock(g_mu);
    g_log = nullptr;
  }

  std::vector<SealPair> Take() {
    std::lock_guard<std::mutex> lock(g_mu);
    return std::move(pairs_);
  }

 private:
  std::vector<SealPair> pairs_;
};

// Pairs of `pairs` that occur more than once, or that `earlier` holds.
size_t Repeats(const std::vector<SealPair>& pairs,
               const std::set<SealPair>& earlier = {}) {
  std::set<SealPair> seen = earlier;
  size_t repeats = 0;
  for (const SealPair& p : pairs) {
    if (!seen.insert(p).second) repeats++;
  }
  return repeats;
}

// A session's work: overwrites of a few dozen chunks in small segments,
// some of them nondurable, a deallocation, a checkpoint and cleaning.
Status Churn(ChunkStore* cs, uint64_t seed) {
  Random rng(seed);
  for (int round = 0; round < 24; round++) {
    WriteBatch batch;
    for (int i = 0; i < 3; i++) {
      Buffer data;
      rng.Fill(&data, 100 + rng.Uniform(300));
      batch.Write(1 + rng.Uniform(40), std::move(data));
    }
    if (round % 7 == 6) batch.Deallocate(1 + rng.Uniform(40));
    TDB_RETURN_IF_ERROR(cs->Commit(batch, round % 3 != 1));
    if (round == 12) TDB_RETURN_IF_ERROR(cs->Checkpoint());
  }
  return cs->Clean(4);
}

TEST(SealNumberTest, UniqueAcrossReopensCrashesAndCleaning) {
  // The image every crash case forks from: two sessions of churn.
  TestEnv env;
  SealLog log;
  for (int session = 0; session < 2; session++) {
    auto cs = env.Open(SmallSegments());
    ASSERT_TRUE(cs.ok()) << cs.status().ToString();
    ASSERT_TRUE(Churn(cs->get(), session).ok());
    ASSERT_TRUE((*cs)->Close().ok());
  }
  const std::vector<SealPair> base = log.Take();
  ASSERT_EQ(Repeats(base), 0u);
  const std::set<SealPair> history(base.begin(), base.end());

  // Dry run of the crashing session: open, churn (which cleans), close.
  uint64_t session_writes = 0;
  {
    CrashCopy copy(env);
    FaultInjectingStore faulty(&copy.store);
    auto cs = ChunkStore::Open(&faulty, &env.secrets, &copy.counter,
                               SmallSegments());
    ASSERT_TRUE(cs.ok());
    ASSERT_TRUE(Churn(cs->get(), 7).ok());
    EXPECT_GT((*cs)->Stats().relocated_records, 0u);
    ASSERT_TRUE((*cs)->Close().ok());
    session_writes = faulty.writes_seen();
    log.Take();
  }
  ASSERT_GT(session_writes, 20u);

  // Crash it at every write, then reboot, reopen and churn again. The
  // crashed session's seals count, whether or not their records survived.
  for (uint64_t index = 0; index < session_writes; index++) {
    for (uint32_t tear : {0u, 4u}) {
      SCOPED_TRACE("write " + std::to_string(index) + " tear " +
                   std::to_string(tear) + "/4");
      CrashCopy copy(env);
      {
        FaultInjectingStore faulty(&copy.store);
        faulty.CrashAtWrite(index, tear, 4);
        auto cs = ChunkStore::Open(&faulty, &env.secrets, &copy.counter,
                                   SmallSegments());
        if (cs.ok() && Churn(cs->get(), 7).ok()) (void)(*cs)->Close();
        ASSERT_TRUE(faulty.crashed());
      }
      auto cs = ChunkStore::Open(&copy.store, &env.secrets, &copy.counter,
                                 SmallSegments());
      ASSERT_TRUE(cs.ok()) << cs.status().ToString();
      ASSERT_TRUE(Churn(cs->get(), 8).ok());
      ASSERT_TRUE((*cs)->Close().ok());
      EXPECT_EQ(Repeats(log.Take(), history), 0u);
    }
  }
}

// The seal limit of the anchor `store` holds (its newest valid slot).
uint64_t AnchoredSealLimit(MemUntrustedStore* store) {
  const ChunkStoreOptions options = SmallSegments();
  crypto::CipherSuite suite(options.security, Slice("test-master-secret"),
                            Slice(options.iv_seed));
  AnchorManager anchors(store, &suite, 12);
  auto state = anchors.Load();
  TDB_CHECK(state.ok());
  return state->seal_limit;
}

TEST(SealNumberTest, LeaseRenewedWhenItRunsOutBetweenCheckpoints) {
  // More seals than one lease grants (2^16) with no checkpoint in
  // between: the store renews the lease with an anchor write of its own.
  // A crash copy taken after that renewal reopens above the new limit.
  TestEnv env;
  ChunkStoreOptions options = SmallSegments();
  options.segment_size = 1 << 20;
  options.checkpoint_interval_bytes = uint64_t{1} << 40;
  options.max_clean_segments_per_commit = 0;
  SealLog log;
  auto opened = env.Open(options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  std::unique_ptr<ChunkStore> cs = std::move(opened).value();
  const uint64_t first_limit = AnchoredSealLimit(&env.store);
  constexpr int kSealsWanted = 70000;
  ASSERT_LT(first_limit, static_cast<uint64_t>(kSealsWanted));
  for (int done = 0; done < kSealsWanted; done += 1000) {
    WriteBatch batch;
    for (int i = 0; i < 1000; i++) {
      batch.Write(1 + (done + i) % 5000, Slice("s"));
    }
    ASSERT_TRUE(cs->Commit(batch, done % 10000 == 0).ok());
  }
  EXPECT_EQ(cs->Stats().checkpoints, 1u);  // The bootstrap's alone.
  EXPECT_GT(AnchoredSealLimit(&env.store),
            static_cast<uint64_t>(kSealsWanted));

  CrashCopy copy(env);  // Everything since the last durable commit is lost.
  auto reopened = ChunkStore::Open(&copy.store, &env.secrets, &copy.counter,
                                   options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  for (int i = 0; i < 10; i++) {
    ASSERT_TRUE((*reopened)->Write(1 + i, Slice("after"), true).ok());
  }
  const std::vector<SealPair> pairs = log.Take();
  EXPECT_GT(pairs.size(), static_cast<size_t>(kSealsWanted));
  EXPECT_EQ(Repeats(pairs), 0u);
  ASSERT_TRUE(cs->Close().ok());
}

TEST(SealNumberTest, FourShardsSealUnderFourKeys) {
  constexpr int kShards = 4;
  MemSecretStore secrets;
  ASSERT_TRUE(secrets.Provision(Slice("test-master-secret")).ok());
  MemUntrustedStore stores[kShards];
  MemOneWayCounter counters[kShards];
  std::vector<shard::ShardBackend> backends;
  for (int k = 0; k < kShards; k++) {
    backends.push_back({&stores[k], &secrets, &counters[k]});
  }
  SealLog log;
  for (int session = 0; session < 2; session++) {
    auto router = shard::ShardedChunkStore::Open(backends, SmallSegments());
    ASSERT_TRUE(router.ok()) << router.status().ToString();
    for (int c = 0; c < 20; c++) {
      WriteBatch batch;  // Spans shards: a 2PC commit.
      for (int i = 0; i < 3; i++) {
        batch.Write((*router)->AllocateChunkId(), Slice("payload"));
      }
      ASSERT_TRUE((*router)->Commit(batch, true).ok());
    }
    ASSERT_TRUE((*router)->Close().ok());
  }
  const std::vector<SealPair> pairs = log.Take();
  std::set<uint64_t> keys;
  for (const SealPair& p : pairs) keys.insert(p.first);
  EXPECT_EQ(keys.size(), static_cast<size_t>(kShards));
  EXPECT_EQ(Repeats(pairs), 0u);
}

TEST(SealNumberTest, ConcurrentCommittersNeverRepeat) {
  TestEnv env;
  ChunkStoreOptions options = SmallSegments();
  options.group_commit_window_us = 50;
  SealLog log;
  auto opened = env.Open(options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  std::unique_ptr<ChunkStore> cs = std::move(opened).value();
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  std::vector<Status> results(kThreads, Status::OK());
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      for (int c = 0; c < 60 && results[t].ok(); c++) {
        WriteBatch batch;
        for (int i = 0; i < 4; i++) {
          batch.Write(1 + (t * 1000 + c * 4 + i) % 97, Buffer(40 + i, 'x'));
        }
        results[t] = cs->Commit(batch, c % 2 == 0);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const Status& s : results) EXPECT_TRUE(s.ok()) << s.ToString();
  ASSERT_TRUE(cs->Close().ok());
  const std::vector<SealPair> pairs = log.Take();
  EXPECT_GE(pairs.size(), static_cast<size_t>(kThreads * 60 * 4));
  EXPECT_EQ(Repeats(pairs), 0u);
}

}  // namespace
}  // namespace tdb::chunk
