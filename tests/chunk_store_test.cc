#include "chunk/chunk_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <thread>
#include <vector>

#include "chunk/log_format.h"
#include "chunk_test_env.h"
#include "common/coding.h"
#include "common/random.h"
#include "harness/region_map.h"
#include "platform/fault_injection.h"
#include "platform/mem_store.h"
#include "platform/one_way_counter.h"
#include "platform/secret_store.h"

namespace tdb::chunk {
namespace {

using platform::FaultInjectingStore;
using platform::MemOneWayCounter;
using platform::MemSecretStore;
using platform::MemUntrustedStore;

Buffer Bytes(const std::string& s) { return Slice(s).ToBuffer(); }

// The three security configurations all tests should hold under.
class ChunkStoreConfigTest
    : public ::testing::TestWithParam<crypto::SecurityConfig> {};

TEST_P(ChunkStoreConfigTest, WriteReadRoundtrip) {
  TestEnv env;
  auto cs = env.Open(SmallSegments(GetParam()));
  ASSERT_TRUE(cs.ok()) << cs.status().ToString();
  ChunkId cid = (*cs)->AllocateChunkId();
  ASSERT_TRUE((*cs)->Write(cid, Slice("hello chunk"), true).ok());
  auto data = (*cs)->Read(cid);
  ASSERT_TRUE(data.ok()) << data.status().ToString();
  EXPECT_EQ(Slice(*data).ToString(), "hello chunk");
}

TEST_P(ChunkStoreConfigTest, PersistsAcrossReopen) {
  TestEnv env;
  ChunkId cid;
  {
    auto cs = env.Open(SmallSegments(GetParam()));
    ASSERT_TRUE(cs.ok());
    cid = (*cs)->AllocateChunkId();
    ASSERT_TRUE((*cs)->Write(cid, Slice("persistent"), true).ok());
    ASSERT_TRUE((*cs)->Close().ok());
  }
  auto cs = env.Open(SmallSegments(GetParam()));
  ASSERT_TRUE(cs.ok()) << cs.status().ToString();
  auto data = (*cs)->Read(cid);
  ASSERT_TRUE(data.ok()) << data.status().ToString();
  EXPECT_EQ(Slice(*data).ToString(), "persistent");
}

TEST_P(ChunkStoreConfigTest, ManyChunksManySizes) {
  TestEnv env;
  auto cs = env.Open(SmallSegments(GetParam()));
  ASSERT_TRUE(cs.ok());
  Random rng(11);
  std::map<ChunkId, Buffer> model;
  for (int i = 0; i < 300; i++) {
    ChunkId cid = (*cs)->AllocateChunkId();
    Buffer data;
    rng.Fill(&data, rng.Uniform(700) + 1);
    model[cid] = data;
    ASSERT_TRUE((*cs)->Write(cid, data, i % 10 == 0).ok());
  }
  for (const auto& [cid, expected] : model) {
    auto data = (*cs)->Read(cid);
    ASSERT_TRUE(data.ok()) << cid << ": " << data.status().ToString();
    EXPECT_EQ(*data, expected);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Security, ChunkStoreConfigTest,
    ::testing::Values(crypto::SecurityConfig::Disabled(),
                      crypto::SecurityConfig::PaperTdbS(),
                      crypto::SecurityConfig::Modern()),
    [](const auto& info) {
      if (!info.param.enabled) return std::string("TDB");
      return info.param.cipher == crypto::CipherKind::kDes3
                 ? std::string("TDBS")
                 : std::string("Modern");
    });

TEST(ChunkStoreTest, ReadMissingChunkIsNotFound) {
  TestEnv env;
  auto cs = env.Open(SmallSegments());
  ASSERT_TRUE(cs.ok());
  EXPECT_TRUE((*cs)->Read(12345).status().IsNotFound());
  EXPECT_TRUE((*cs)->Read((*cs)->AllocateChunkId()).status().IsNotFound());
}

TEST(ChunkStoreTest, OverwriteReplacesState) {
  TestEnv env;
  auto cs = env.Open(SmallSegments());
  ASSERT_TRUE(cs.ok());
  ChunkId cid = (*cs)->AllocateChunkId();
  ASSERT_TRUE((*cs)->Write(cid, Slice("v1"), true).ok());
  ASSERT_TRUE((*cs)->Write(cid, Slice("version-two, longer"), true).ok());
  EXPECT_EQ(Slice(*(*cs)->Read(cid)).ToString(), "version-two, longer");
}

TEST(ChunkStoreTest, DeallocateRemovesState) {
  TestEnv env;
  auto cs = env.Open(SmallSegments());
  ASSERT_TRUE(cs.ok());
  ChunkId cid = (*cs)->AllocateChunkId();
  ASSERT_TRUE((*cs)->Write(cid, Slice("doomed"), true).ok());
  ASSERT_TRUE((*cs)->Deallocate(cid, true).ok());
  EXPECT_TRUE((*cs)->Read(cid).status().IsNotFound());
  EXPECT_EQ((*cs)->Stats().live_chunks, 0u);
}

TEST(ChunkStoreTest, BatchCommitIsAtomicAndOrdered) {
  TestEnv env;
  auto cs = env.Open(SmallSegments());
  ASSERT_TRUE(cs.ok());
  ChunkId a = (*cs)->AllocateChunkId();
  ChunkId b = (*cs)->AllocateChunkId();
  WriteBatch batch;
  batch.Write(a, Slice("first"));
  batch.Write(b, Slice("second"));
  batch.Write(a, Slice("first-final"));  // Last op on a chunk wins.
  ASSERT_TRUE((*cs)->Commit(batch, true).ok());
  EXPECT_EQ(Slice(*(*cs)->Read(a)).ToString(), "first-final");
  EXPECT_EQ(Slice(*(*cs)->Read(b)).ToString(), "second");
}

TEST(ChunkStoreTest, WriteThenDeallocInOneBatch) {
  TestEnv env;
  auto cs = env.Open(SmallSegments());
  ASSERT_TRUE(cs.ok());
  ChunkId cid = (*cs)->AllocateChunkId();
  WriteBatch batch;
  batch.Write(cid, Slice("ephemeral"));
  batch.Deallocate(cid);
  ASSERT_TRUE((*cs)->Commit(batch, true).ok());
  EXPECT_TRUE((*cs)->Read(cid).status().IsNotFound());
}

TEST(ChunkStoreTest, ChunkIdZeroRejected) {
  TestEnv env;
  auto cs = env.Open(SmallSegments());
  ASSERT_TRUE(cs.ok());
  WriteBatch batch;
  batch.Write(kInvalidChunkId, Slice("x"));
  EXPECT_EQ((*cs)->Commit(batch, true).code(),
            Status::Code::kInvalidArgument);
}

TEST(ChunkStoreTest, AllocateIdsSurviveReopen) {
  TestEnv env;
  ChunkId first;
  {
    auto cs = env.Open(SmallSegments());
    ASSERT_TRUE(cs.ok());
    first = (*cs)->AllocateChunkId();
    ASSERT_TRUE((*cs)->Write(first, Slice("x"), true).ok());
    ASSERT_TRUE((*cs)->Close().ok());
  }
  auto cs = env.Open(SmallSegments());
  ASSERT_TRUE(cs.ok());
  EXPECT_GT((*cs)->AllocateChunkId(), first);
}

TEST(ChunkStoreTest, EmptyChunkAllowed) {
  TestEnv env;
  auto cs = env.Open(SmallSegments());
  ASSERT_TRUE(cs.ok());
  ChunkId cid = (*cs)->AllocateChunkId();
  ASSERT_TRUE((*cs)->Write(cid, Slice(""), true).ok());
  auto data = (*cs)->Read(cid);
  ASSERT_TRUE(data.ok());
  EXPECT_TRUE(data->empty());
}

TEST(ChunkStoreTest, LargeChunkSpanningSegments) {
  TestEnv env;
  auto cs = env.Open(SmallSegments());  // 4 KiB segments.
  ASSERT_TRUE(cs.ok());
  Buffer big;
  Random rng(3);
  rng.Fill(&big, 20000);  // Bigger than a segment: oversized segment path.
  ChunkId cid = (*cs)->AllocateChunkId();
  ASSERT_TRUE((*cs)->Write(cid, big, true).ok());
  auto data = (*cs)->Read(cid);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(*data, big);
  // Still works after reopen.
  ASSERT_TRUE((*cs)->Close().ok());
  cs = env.Open(SmallSegments());
  ASSERT_TRUE(cs.ok());
  EXPECT_EQ(*(*cs)->Read(cid), big);
}

// ------------------------------------------------------------- durability

TEST(ChunkStoreDurabilityTest, DurableCommitSurvivesCrash) {
  MemSecretStore secrets;
  ASSERT_TRUE(secrets.Provision(Slice("s")).ok());
  MemOneWayCounter counter;
  MemUntrustedStore base;
  FaultInjectingStore faulty(&base);

  ChunkId cid;
  {
    auto cs = ChunkStore::Open(&faulty, &secrets, &counter, SmallSegments());
    ASSERT_TRUE(cs.ok());
    cid = (*cs)->AllocateChunkId();
    ASSERT_TRUE((*cs)->Write(cid, Slice("durable"), true).ok());
    // Crash: no Close(), and all further I/O fails.
    faulty.CrashAfterWrites(0);
    WriteBatch batch;
    batch.Write((*cs)->AllocateChunkId(), Slice("lost"));
    EXPECT_FALSE((*cs)->Commit(batch, true).ok());
  }
  faulty.Reboot();
  auto cs = ChunkStore::Open(&faulty, &secrets, &counter, SmallSegments());
  ASSERT_TRUE(cs.ok()) << cs.status().ToString();
  EXPECT_EQ(Slice(*(*cs)->Read(cid)).ToString(), "durable");
}

TEST(ChunkStoreDurabilityTest, NondurableCommitDiscardedAfterCrash) {
  MemSecretStore secrets;
  ASSERT_TRUE(secrets.Provision(Slice("s")).ok());
  MemOneWayCounter counter;
  MemUntrustedStore base;
  FaultInjectingStore faulty(&base);

  ChunkId durable_cid, nondurable_cid;
  {
    auto cs = ChunkStore::Open(&faulty, &secrets, &counter, SmallSegments());
    ASSERT_TRUE(cs.ok());
    durable_cid = (*cs)->AllocateChunkId();
    ASSERT_TRUE((*cs)->Write(durable_cid, Slice("keep"), true).ok());
    nondurable_cid = (*cs)->AllocateChunkId();
    ASSERT_TRUE((*cs)->Write(nondurable_cid, Slice("drop"), false).ok());
    // Crash without a subsequent durable commit (the destructor's Close()
    // checkpoint — itself a durable commit — must fail too).
    faulty.CrashAfterWrites(0);
  }
  faulty.Reboot();
  auto cs = ChunkStore::Open(&faulty, &secrets, &counter, SmallSegments());
  ASSERT_TRUE(cs.ok()) << cs.status().ToString();
  EXPECT_EQ(Slice(*(*cs)->Read(durable_cid)).ToString(), "keep");
  EXPECT_TRUE((*cs)->Read(nondurable_cid).status().IsNotFound());
}

TEST(ChunkStoreDurabilityTest, DurableCommitCoversEarlierNondurables) {
  MemSecretStore secrets;
  ASSERT_TRUE(secrets.Provision(Slice("s")).ok());
  MemOneWayCounter counter;
  MemUntrustedStore base;
  FaultInjectingStore faulty(&base);

  ChunkId a, b;
  {
    auto cs = ChunkStore::Open(&faulty, &secrets, &counter, SmallSegments());
    ASSERT_TRUE(cs.ok());
    a = (*cs)->AllocateChunkId();
    ASSERT_TRUE((*cs)->Write(a, Slice("nondurable-then-covered"), false).ok());
    b = (*cs)->AllocateChunkId();
    ASSERT_TRUE((*cs)->Write(b, Slice("durable"), true).ok());
    faulty.CrashAfterWrites(0);  // Crash before any further durable commit.
  }
  faulty.Reboot();
  auto cs = ChunkStore::Open(&faulty, &secrets, &counter, SmallSegments());
  ASSERT_TRUE(cs.ok());
  EXPECT_EQ(Slice(*(*cs)->Read(a)).ToString(), "nondurable-then-covered");
  EXPECT_EQ(Slice(*(*cs)->Read(b)).ToString(), "durable");
}

// Property test: run a random workload, crash at a random write, recover,
// and check every durable-commit invariant against a model.
class CrashRecoveryPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CrashRecoveryPropertyTest, DurableStateSurvivesRandomCrash) {
  const uint64_t seed = GetParam();
  Random rng(seed);
  MemSecretStore secrets;
  ASSERT_TRUE(secrets.Provision(Slice("s")).ok());
  MemOneWayCounter counter;
  MemUntrustedStore base;
  FaultInjectingStore faulty(&base, seed);

  std::map<ChunkId, Buffer> durable_model;  // State as of last durable commit.
  std::map<ChunkId, Buffer> pending_model;  // Including nondurable commits.
  // Effect of the commit that failed with the crash: it was never
  // acknowledged, so it may legitimately be applied or lost (the classic
  // unacknowledged-commit window).
  std::map<ChunkId, std::optional<Buffer>> maybe_applied;

  {
    auto cs_or =
        ChunkStore::Open(&faulty, &secrets, &counter, SmallSegments());
    ASSERT_TRUE(cs_or.ok());
    auto& cs = *cs_or;
    // Random workload, then arm the crash and keep going until it fires.
    faulty.CrashAfterWrites(rng.Uniform(200) + 1);
    for (int i = 0; i < 500; i++) {
      WriteBatch batch;
      std::map<ChunkId, std::optional<Buffer>> batch_effect;
      int ops = 1 + rng.Uniform(4);
      for (int j = 0; j < ops; j++) {
        if (!pending_model.empty() && rng.Bernoulli(0.2)) {
          auto it = pending_model.begin();
          std::advance(it, rng.Uniform(pending_model.size()));
          batch.Deallocate(it->first);
          batch_effect[it->first] = std::nullopt;
        } else {
          ChunkId cid = cs->AllocateChunkId();
          Buffer data;
          rng.Fill(&data, rng.Uniform(300) + 1);
          batch.Write(cid, data);
          batch_effect[cid] = data;
        }
      }
      bool durable = rng.Bernoulli(0.3);
      uint64_t durables_before = cs->Stats().durable_commits;
      Status s = cs->Commit(batch, durable);
      if (!s.ok()) {
        // Crash fired. The in-flight batch was not acknowledged: it may be
        // applied or discarded — even a nondurable batch can survive when
        // an internal checkpoint/cleaning commit completed durably in the
        // log before the crash (covering it) while Commit() still failed.
        maybe_applied = std::move(batch_effect);
        break;
      }
      if (faulty.crashed()) break;
      for (auto& [cid, effect] : batch_effect) {
        if (effect.has_value()) {
          pending_model[cid] = *effect;
        } else {
          pending_model.erase(cid);
        }
      }
      // An internal checkpoint (residual-log threshold or cleaning) is a
      // durable commit too and durabilizes all pending state.
      if (durable || cs->Stats().durable_commits > durables_before) {
        durable_model = pending_model;
      }
    }
  }

  faulty.Reboot();
  auto cs_or = ChunkStore::Open(&faulty, &secrets, &counter, SmallSegments());
  ASSERT_TRUE(cs_or.ok()) << "seed " << seed << ": "
                          << cs_or.status().ToString();
  auto& cs = *cs_or;
  // Every durably committed chunk must be intact. (Chunks from nondurable
  // commits may or may not exist depending on where the crash landed
  // relative to later durable commits, so only the durable floor is
  // asserted exactly on values.)
  for (const auto& [cid, expected] : durable_model) {
    auto maybe_it = maybe_applied.find(cid);
    auto data = cs->Read(cid);
    if (!data.ok()) {
      // Acceptable only if the chunk was deallocated in state that may
      // have been durabilized: either by the unacknowledged final commit,
      // or by an earlier nondurable commit that an internal durable
      // commit (checkpoint/cleaning) could have covered before the crash.
      bool crashed_dealloc =
          maybe_it != maybe_applied.end() && !maybe_it->second.has_value();
      bool pending_dealloc = pending_model.count(cid) == 0;
      EXPECT_TRUE(data.status().IsNotFound() &&
                  (crashed_dealloc || pending_dealloc))
          << "seed " << seed << " cid " << cid << ": "
          << data.status().ToString();
      continue;
    }
    // Acceptable values: the durable-floor value, pending state that a
    // later durable commit covered, or the unacknowledged final write.
    bool matches_durable = (*data == expected);
    auto pending_it = pending_model.find(cid);
    bool matches_pending =
        pending_it != pending_model.end() && *data == pending_it->second;
    bool matches_crashed = maybe_it != maybe_applied.end() &&
                           maybe_it->second.has_value() &&
                           *data == *maybe_it->second;
    EXPECT_TRUE(matches_durable || matches_pending || matches_crashed)
        << "seed " << seed << " cid " << cid;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrashRecoveryPropertyTest,
                         ::testing::Range<uint64_t>(0, 24));

// ------------------------------------------------------------ tamper tests

TEST(ChunkStoreTamperTest, FlippedDataByteDetectedOnRead) {
  TestEnv env;
  // Cold reads only: the validated-plaintext cache would (correctly) serve
  // this chunk from trusted memory and never touch the tampered bytes.
  // Detection on a cold read after eviction is covered separately in
  // ChunkCacheTest.TamperDetectedOnColdReadAfterEviction.
  auto options = SmallSegments();
  options.cache_bytes = 0;
  auto cs = env.Open(options);
  ASSERT_TRUE(cs.ok());
  ChunkId cid = (*cs)->AllocateChunkId();
  ASSERT_TRUE((*cs)->Write(cid, Slice("sensitive balance: $100"), true).ok());

  // Attack every byte of the log in turn; reads must never return wrong
  // data silently.
  uint64_t detected = 0, reads = 0;
  for (const std::string& name : env.store.List()) {
    if (name.rfind("seg-", 0) != 0) continue;
    uint64_t size = *env.store.Size(name);
    for (uint64_t off = 0; off < size; off += 7) {
      ASSERT_TRUE(env.store.CorruptByte(name, off, 0x40).ok());
      auto data = (*cs)->Read(cid);
      reads++;
      if (!data.ok()) {
        detected++;
      } else {
        EXPECT_EQ(Slice(*data).ToString(), "sensitive balance: $100");
      }
      ASSERT_TRUE(env.store.CorruptByte(name, off, 0x40).ok());  // Undo.
    }
  }
  EXPECT_GT(reads, 0u);
  EXPECT_GT(detected, 0u);  // At least the chunk's own record bytes.
}

TEST(ChunkStoreTamperTest, TamperedChunkReportsTamperDetected) {
  TestEnv env;
  // Cold reads only (see FlippedDataByteDetectedOnRead).
  auto options = SmallSegments();
  options.cache_bytes = 0;
  auto cs = env.Open(options);
  ASSERT_TRUE(cs.ok());
  ChunkId cid = (*cs)->AllocateChunkId();
  Buffer data(200, 0x5a);
  ASSERT_TRUE((*cs)->Write(cid, data, true).ok());
  ASSERT_TRUE((*cs)->Checkpoint().ok());

  // Corrupt a byte in the middle of the newest segment (chunk payload
  // region) and bypass the record checksum by recomputing nothing — the
  // checksum catches it first, which still surfaces as TamperDetected.
  uint32_t max_seg = 0;
  for (const std::string& name : env.store.List()) {
    if (name.rfind("seg-", 0) == 0) {
      max_seg = std::max(max_seg, (uint32_t)std::stoul(name.substr(4)));
    }
  }
  (void)max_seg;
  // Find the segment holding the data record: corrupt everything until the
  // read fails.
  bool tampered_seen = false;
  for (const std::string& name : env.store.List()) {
    if (name.rfind("seg-", 0) != 0) continue;
    uint64_t size = *env.store.Size(name);
    for (uint64_t off = 8; off < size && !tampered_seen; off++) {
      ASSERT_TRUE(env.store.CorruptByte(name, off, 0xff).ok());
      auto read = (*cs)->Read(cid);
      if (!read.ok()) {
        EXPECT_TRUE(read.status().IsTamperDetected())
            << read.status().ToString();
        tampered_seen = true;
      }
      ASSERT_TRUE(env.store.CorruptByte(name, off, 0xff).ok());
    }
  }
  EXPECT_TRUE(tampered_seen);
}

TEST(ChunkStoreTamperTest, TamperedAnchorDetectedAtOpen) {
  TestEnv env;
  {
    auto cs = env.Open(SmallSegments());
    ASSERT_TRUE(cs.ok());
    ChunkId cid = (*cs)->AllocateChunkId();
    ASSERT_TRUE((*cs)->Write(cid, Slice("x"), true).ok());
    ASSERT_TRUE((*cs)->Close().ok());
  }
  for (const char* slot : {"anchor-0", "anchor-1"}) {
    if (env.store.Exists(slot)) {
      ASSERT_TRUE(env.store.CorruptByte(slot, 6, 0x01).ok());
    }
  }
  auto cs = env.Open(SmallSegments());
  ASSERT_FALSE(cs.ok());
  EXPECT_TRUE(cs.status().IsTamperDetected() || cs.status().IsCorruption())
      << cs.status().ToString();
}

TEST(ChunkStoreTamperTest, DeletedAnchorDetected) {
  TestEnv env;
  {
    auto cs = env.Open(SmallSegments());
    ASSERT_TRUE(cs.ok());
    ASSERT_TRUE((*cs)->Write((*cs)->AllocateChunkId(), Slice("x"), true).ok());
    ASSERT_TRUE((*cs)->Close().ok());
  }
  for (const char* slot : {"anchor-0", "anchor-1"}) {
    if (env.store.Exists(slot)) {
      ASSERT_TRUE(env.store.Remove(slot).ok());
    }
  }
  auto cs = env.Open(SmallSegments());
  ASSERT_FALSE(cs.ok());
  EXPECT_TRUE(cs.status().IsTamperDetected()) << cs.status().ToString();
}

TEST(ChunkStoreTamperTest, ReplayedImageDetected) {
  TestEnv env;
  auto options = SmallSegments();
  MemUntrustedStore::Image saved;
  ChunkId cid;
  {
    auto cs = env.Open(options);
    ASSERT_TRUE(cs.ok());
    cid = (*cs)->AllocateChunkId();
    ASSERT_TRUE((*cs)->Write(cid, Slice("balance=100"), true).ok());
    ASSERT_TRUE((*cs)->Close().ok());
    // The consumer saves the database image ("before purchase")...
    saved = env.store.SnapshotImage();
  }
  {
    auto cs = env.Open(options);
    ASSERT_TRUE(cs.ok());
    // ...then spends money (several durable commits advance the counter)...
    ASSERT_TRUE((*cs)->Write(cid, Slice("balance=0"), true).ok());
    ASSERT_TRUE((*cs)->Write(cid, Slice("balance=0!"), true).ok());
    ASSERT_TRUE((*cs)->Close().ok());
  }
  // ...and replays the saved image to get the balance back.
  env.store.RestoreImage(saved);
  auto cs = env.Open(options);
  ASSERT_FALSE(cs.ok());
  EXPECT_TRUE(cs.status().IsReplayDetected()) << cs.status().ToString();
}

TEST(ChunkStoreTamperTest, ReplayNotDetectedWithoutSecurity) {
  // Documents the flip side: the paper's plain-TDB configuration does not
  // defend against replay (no counter, no MACs).
  TestEnv env;
  auto options = SmallSegments(crypto::SecurityConfig::Disabled());
  MemUntrustedStore::Image saved;
  ChunkId cid;
  {
    auto cs = env.Open(options);
    ASSERT_TRUE(cs.ok());
    cid = (*cs)->AllocateChunkId();
    ASSERT_TRUE((*cs)->Write(cid, Slice("balance=100"), true).ok());
    ASSERT_TRUE((*cs)->Close().ok());
    saved = env.store.SnapshotImage();
  }
  {
    auto cs = env.Open(options);
    ASSERT_TRUE(cs.ok());
    ASSERT_TRUE((*cs)->Write(cid, Slice("balance=0"), true).ok());
    ASSERT_TRUE((*cs)->Close().ok());
  }
  env.store.RestoreImage(saved);
  auto cs = env.Open(options);
  ASSERT_TRUE(cs.ok());
  EXPECT_EQ(Slice(*(*cs)->Read(cid)).ToString(), "balance=100");
}

TEST(ChunkStoreTamperTest, CiphertextRevealsNothing) {
  // Secrecy smoke test: plaintext must not appear anywhere in the
  // untrusted store when encryption is on.
  TestEnv env;
  auto cs = env.Open(SmallSegments());
  ASSERT_TRUE(cs.ok());
  const std::string secret = "TOP-SECRET-CONTENT-KEY-0123456789";
  ASSERT_TRUE((*cs)->Write((*cs)->AllocateChunkId(), Slice(secret), true).ok());
  ASSERT_TRUE((*cs)->Close().ok());
  for (const std::string& name : env.store.List()) {
    uint64_t size = *env.store.Size(name);
    Buffer contents;
    ASSERT_TRUE(env.store.Read(name, 0, size, &contents).ok());
    std::string haystack(reinterpret_cast<const char*>(contents.data()),
                         contents.size());
    EXPECT_EQ(haystack.find(secret), std::string::npos) << name;
  }
}

TEST(ChunkStoreTamperTest, SegmentsWithoutAnchorDetected) {
  TestEnv env;
  {
    auto cs = env.Open(SmallSegments());
    ASSERT_TRUE(cs.ok());
    ASSERT_TRUE((*cs)->Write((*cs)->AllocateChunkId(), Slice("x"), true).ok());
    ASSERT_TRUE((*cs)->Close().ok());
  }
  // Attacker deletes anchors, hoping the store bootstraps fresh and the
  // stale segments get resurrected some other way.
  for (const char* slot : {"anchor-0", "anchor-1"}) {
    if (env.store.Exists(slot)) {
      ASSERT_TRUE(env.store.Remove(slot).ok());
    }
  }
  auto reopened = env.Open(SmallSegments());
  EXPECT_FALSE(reopened.ok());
}

// ---------------------------------------------------------------- cleaner

TEST(ChunkStoreCleanerTest, CleaningBoundsDatabaseSize) {
  TestEnv env;
  auto options = SmallSegments();
  options.max_utilization = 0.6;
  auto cs = env.Open(options);
  ASSERT_TRUE(cs.ok());

  // Repeatedly overwrite a working set — obsolete versions pile up and the
  // cleaner must keep total size near live/0.6.
  Random rng(5);
  std::vector<ChunkId> cids;
  for (int i = 0; i < 40; i++) cids.push_back((*cs)->AllocateChunkId());
  for (int round = 0; round < 60; round++) {
    for (ChunkId cid : cids) {
      Buffer data;
      rng.Fill(&data, 150);
      ASSERT_TRUE((*cs)->Write(cid, data, false).ok());
    }
    ASSERT_TRUE((*cs)->Write(cids[0], Slice("durable-marker"), true).ok());
  }
  const ChunkStoreStats& stats = (*cs)->Stats();
  EXPECT_GT(stats.cleaned_segments, 0u);
  // Total size bounded: live/util plus slack of a few segments.
  uint64_t bound = static_cast<uint64_t>(stats.live_bytes / 0.6) +
                   6 * options.segment_size;
  EXPECT_LT(stats.total_bytes, bound)
      << "live=" << stats.live_bytes << " total=" << stats.total_bytes;
  // And the data is all still there.
  for (ChunkId cid : cids) {
    EXPECT_TRUE((*cs)->Read(cid).ok()) << cid;
  }
}

TEST(ChunkStoreCleanerTest, ExplicitIdleCleaningReclaims) {
  TestEnv env;
  auto options = SmallSegments();
  options.max_utilization = 0.95;  // Effectively disable auto cleaning.
  auto cs = env.Open(options);
  ASSERT_TRUE(cs.ok());
  ChunkId cid = (*cs)->AllocateChunkId();
  Random rng(6);
  for (int i = 0; i < 200; i++) {
    Buffer data;
    rng.Fill(&data, 400);
    ASSERT_TRUE((*cs)->Write(cid, data, i % 20 == 0).ok());
  }
  uint64_t before = (*cs)->Stats().total_bytes;
  // Idle-time cleaning, as the paper's workload model assumes (§3.2.1).
  for (int i = 0; i < 50; i++) {
    ASSERT_TRUE((*cs)->Clean(2).ok());
  }
  uint64_t after = (*cs)->Stats().total_bytes;
  EXPECT_LT(after, before);
  EXPECT_TRUE((*cs)->Read(cid).ok());
}

TEST(ChunkStoreCleanerTest, DataIntactAfterHeavyCleaningAndReopen) {
  TestEnv env;
  auto options = SmallSegments();
  options.max_utilization = 0.7;
  std::map<ChunkId, Buffer> model;
  {
    auto cs = env.Open(options);
    ASSERT_TRUE(cs.ok());
    Random rng(7);
    std::vector<ChunkId> cids;
    for (int i = 0; i < 60; i++) cids.push_back((*cs)->AllocateChunkId());
    for (int round = 0; round < 40; round++) {
      WriteBatch batch;
      for (int j = 0; j < 8; j++) {
        ChunkId cid = cids[rng.Uniform(cids.size())];
        Buffer data;
        rng.Fill(&data, rng.Uniform(500) + 10);
        batch.Write(cid, data);
        model[cid] = data;
      }
      ASSERT_TRUE((*cs)->Commit(batch, round % 3 == 0).ok());
    }
    ASSERT_TRUE((*cs)->Close().ok());
  }
  auto cs = env.Open(options);
  ASSERT_TRUE(cs.ok());
  for (const auto& [cid, expected] : model) {
    auto data = (*cs)->Read(cid);
    ASSERT_TRUE(data.ok()) << cid << ": " << data.status().ToString();
    EXPECT_EQ(*data, expected) << cid;
  }
}

// -------------------------------------------------------------- snapshots

TEST(ChunkStoreSnapshotTest, SnapshotIsStableUnderWrites) {
  TestEnv env;
  auto cs = env.Open(SmallSegments());
  ASSERT_TRUE(cs.ok());
  ChunkId cid = (*cs)->AllocateChunkId();
  ASSERT_TRUE((*cs)->Write(cid, Slice("old"), true).ok());
  auto snap = (*cs)->CreateSnapshot();
  ASSERT_TRUE(snap.ok());
  ASSERT_TRUE((*cs)->Write(cid, Slice("new"), true).ok());

  EXPECT_EQ(Slice(*(*cs)->Read(cid)).ToString(), "new");
  auto old_data = (*cs)->ReadAtView(**snap, cid);
  ASSERT_TRUE(old_data.ok()) << old_data.status().ToString();
  EXPECT_EQ(Slice(*old_data).ToString(), "old");
}

TEST(ChunkStoreSnapshotTest, ForEachEnumeratesSnapshotContents) {
  TestEnv env;
  auto cs = env.Open(SmallSegments());
  ASSERT_TRUE(cs.ok());
  std::set<ChunkId> written;
  for (int i = 0; i < 20; i++) {
    ChunkId cid = (*cs)->AllocateChunkId();
    ASSERT_TRUE((*cs)->Write(cid, Slice("x"), false).ok());
    written.insert(cid);
  }
  auto snap = (*cs)->CreateSnapshot();
  ASSERT_TRUE(snap.ok());
  // Later writes are invisible to the snapshot.
  ASSERT_TRUE((*cs)->Write((*cs)->AllocateChunkId(), Slice("y"), true).ok());

  std::set<ChunkId> seen;
  ASSERT_TRUE((*cs)
                  ->ForEachChunkAt(**snap,
                                   [&](ChunkId cid, const MapEntry&) {
                                     seen.insert(cid);
                                     return Status::OK();
                                   })
                  .ok());
  EXPECT_EQ(seen, written);
}

TEST(ChunkStoreSnapshotTest, DiffReportsExactChanges) {
  TestEnv env;
  auto cs = env.Open(SmallSegments());
  ASSERT_TRUE(cs.ok());
  ChunkId keep = (*cs)->AllocateChunkId();
  ChunkId change = (*cs)->AllocateChunkId();
  ChunkId remove = (*cs)->AllocateChunkId();
  WriteBatch batch;
  batch.Write(keep, Slice("keep"));
  batch.Write(change, Slice("before"));
  batch.Write(remove, Slice("remove-me"));
  ASSERT_TRUE((*cs)->Commit(batch, true).ok());
  auto base = (*cs)->CreateSnapshot();
  ASSERT_TRUE(base.ok());

  ChunkId added = (*cs)->AllocateChunkId();
  WriteBatch batch2;
  batch2.Write(change, Slice("after"));
  batch2.Write(added, Slice("new"));
  batch2.Deallocate(remove);
  ASSERT_TRUE((*cs)->Commit(batch2, true).ok());
  auto delta = (*cs)->CreateSnapshot();
  ASSERT_TRUE(delta.ok());

  std::map<ChunkId, DiffKind> changes;
  ASSERT_TRUE((*cs)
                  ->DiffSnapshots(**base, **delta,
                                  [&](ChunkId cid, DiffKind kind,
                                      const MapEntry&) {
                                    changes[cid] = kind;
                                    return Status::OK();
                                  })
                  .ok());
  ASSERT_EQ(changes.size(), 3u);
  EXPECT_EQ(changes[change], DiffKind::kChanged);
  EXPECT_EQ(changes[added], DiffKind::kAdded);
  EXPECT_EQ(changes[remove], DiffKind::kRemoved);
  EXPECT_FALSE(changes.count(keep));
}

TEST(ChunkStoreSnapshotTest, CleaningPausedWhileSnapshotAlive) {
  TestEnv env;
  auto options = SmallSegments();
  options.max_utilization = 0.5;
  auto cs = env.Open(options);
  ASSERT_TRUE(cs.ok());
  ChunkId cid = (*cs)->AllocateChunkId();
  ASSERT_TRUE((*cs)->Write(cid, Slice("v0"), true).ok());
  auto snap = (*cs)->CreateSnapshot();
  ASSERT_TRUE(snap.ok());
  uint64_t cleaned_before = (*cs)->Stats().cleaned_segments;
  Random rng(8);
  for (int i = 0; i < 100; i++) {
    Buffer data;
    rng.Fill(&data, 300);
    ASSERT_TRUE((*cs)->Write(cid, data, i % 10 == 0).ok());
  }
  EXPECT_EQ((*cs)->Stats().cleaned_segments, cleaned_before);
  // Snapshot still readable after all that churn.
  EXPECT_EQ(Slice(*(*cs)->ReadAtView(**snap, cid)).ToString(), "v0");
  // Release it; cleaning may resume.
  snap->reset();
  for (int i = 0; i < 20; i++) {
    Buffer data;
    rng.Fill(&data, 300);
    ASSERT_TRUE((*cs)->Write(cid, data, true).ok());
  }
  EXPECT_GT((*cs)->Stats().cleaned_segments, cleaned_before);
}

// ------------------------------------------------------------------ misc

TEST(ChunkStoreTest, StatsTrackUtilization) {
  TestEnv env;
  auto cs = env.Open(SmallSegments());
  ASSERT_TRUE(cs.ok());
  ASSERT_TRUE(
      (*cs)->Write((*cs)->AllocateChunkId(), Bytes(std::string(500, 'x')), true)
          .ok());
  const ChunkStoreStats& stats = (*cs)->Stats();
  EXPECT_GT(stats.live_bytes, 0u);
  EXPECT_GE(stats.total_bytes, stats.live_bytes);
  EXPECT_GT(stats.utilization(), 0.0);
  EXPECT_LE(stats.utilization(), 1.0);
  EXPECT_EQ(stats.live_chunks, 1u);
}

TEST(ChunkStoreTest, SecureModeIncrementsCounterPerDurableCommit) {
  TestEnv env;
  auto cs = env.Open(SmallSegments());
  ASSERT_TRUE(cs.ok());
  uint64_t before = *env.counter.Read();
  ASSERT_TRUE((*cs)->Write((*cs)->AllocateChunkId(), Slice("a"), true).ok());
  ASSERT_TRUE((*cs)->Write((*cs)->AllocateChunkId(), Slice("b"), true).ok());
  EXPECT_EQ(*env.counter.Read(), before + 2);
  // Nondurable commits do not touch the counter.
  ASSERT_TRUE((*cs)->Write((*cs)->AllocateChunkId(), Slice("c"), false).ok());
  EXPECT_EQ(*env.counter.Read(), before + 2);
}

TEST(ChunkStoreTest, DisabledSecurityNeverTouchesCounter) {
  TestEnv env;
  auto cs = env.Open(SmallSegments(crypto::SecurityConfig::Disabled()));
  ASSERT_TRUE(cs.ok());
  ASSERT_TRUE((*cs)->Write((*cs)->AllocateChunkId(), Slice("a"), true).ok());
  EXPECT_EQ(*env.counter.Read(), 0u);
}

TEST(ChunkStoreTest, CheckpointBoundsResidualLogReplay) {
  TestEnv env;
  auto options = SmallSegments();
  options.checkpoint_interval_bytes = 8 * 1024;  // Frequent checkpoints.
  std::map<ChunkId, Buffer> model;
  {
    auto cs = env.Open(options);
    ASSERT_TRUE(cs.ok());
    Random rng(9);
    for (int i = 0; i < 200; i++) {
      ChunkId cid = (*cs)->AllocateChunkId();
      Buffer data;
      rng.Fill(&data, 200);
      model[cid] = data;
      ASSERT_TRUE((*cs)->Write(cid, data, true).ok());
    }
    EXPECT_GT((*cs)->Stats().checkpoints, 2u);
    ASSERT_TRUE((*cs)->Close().ok());
  }
  auto cs = env.Open(options);
  ASSERT_TRUE(cs.ok());
  for (const auto& [cid, expected] : model) {
    EXPECT_EQ(*(*cs)->Read(cid), expected) << cid;
  }
}

TEST(ChunkStoreTest, CreateIfMissingFalseFailsOnFreshStore) {
  TestEnv env;
  auto options = SmallSegments();
  options.create_if_missing = false;
  auto cs = env.Open(options);
  EXPECT_TRUE(cs.status().IsNotFound());
}

TEST(ChunkStoreTest, MissingSecretFailsSecureOpen) {
  MemUntrustedStore store;
  MemSecretStore secrets;  // Never provisioned.
  MemOneWayCounter counter;
  auto cs = ChunkStore::Open(&store, &secrets, &counter, SmallSegments());
  EXPECT_TRUE(cs.status().IsNotFound());
}

TEST(ChunkStoreTest, WrongSecretCannotOpenDatabase) {
  MemUntrustedStore store;
  MemOneWayCounter counter;
  {
    MemSecretStore secrets;
    ASSERT_TRUE(secrets.Provision(Slice("right-key")).ok());
    auto cs = ChunkStore::Open(&store, &secrets, &counter, SmallSegments());
    ASSERT_TRUE(cs.ok());
    ASSERT_TRUE((*cs)->Write((*cs)->AllocateChunkId(), Slice("x"), true).ok());
    ASSERT_TRUE((*cs)->Close().ok());
  }
  MemSecretStore wrong;
  ASSERT_TRUE(wrong.Provision(Slice("wrong-key")).ok());
  auto cs = ChunkStore::Open(&store, &wrong, &counter, SmallSegments());
  ASSERT_FALSE(cs.ok());
  EXPECT_TRUE(cs.status().IsTamperDetected()) << cs.status().ToString();
}

// Every sealed record of `image` starts with its seal number, and the
// record's IV is E_k'(seal number) under the store's one IV key k';
// returns how many seal numbers occur more than once.
size_t RepeatedIvs(const MemUntrustedStore::Image& image, size_t* records) {
  std::set<uint64_t> seen;
  size_t repeats = 0;
  std::vector<Slice> payloads = harness::RecordPayloads(image);
  for (Slice p : payloads) {
    Decoder dec(p);
    uint64_t seal;
    TDB_CHECK(dec.GetVarint64(&seal).ok());
    if (!seen.insert(seal).second) repeats++;
  }
  *records = payloads.size();
  return repeats;
}

TEST(ChunkStoreTest, IvsNeverRepeatAcrossReopens) {
  // Each open starts its seal numbers above the lease the anchor holds,
  // so later sessions never seal under a number (an IV) an earlier one
  // used under the same key.
  TestEnv env;
  ChunkStoreOptions options = SmallSegments();
  options.segment_size = 64 * 1024;  // No cleaning: every record stays.
  for (int session = 0; session < 3; session++) {
    auto cs = env.Open(options);
    ASSERT_TRUE(cs.ok()) << cs.status().ToString();
    for (int i = 0; i < 3; i++) {
      ASSERT_TRUE(
          (*cs)->Write((*cs)->AllocateChunkId(), Slice("payload"), true).ok());
    }
    ASSERT_TRUE((*cs)->Close().ok());
  }
  size_t records = 0;
  EXPECT_EQ(RepeatedIvs(env.store.SnapshotImage(), &records), 0u);
  EXPECT_GE(records, 19u);
}

// ------------------------------------- validated-plaintext cache & pipeline

TEST(ChunkCacheTest, HitsMissesAndEvictionsCounted) {
  TestEnv env;
  auto cs = env.Open(SmallSegments());
  ASSERT_TRUE(cs.ok());
  ChunkId cid = (*cs)->AllocateChunkId();
  ASSERT_TRUE((*cs)->Write(cid, Slice("cached payload"), true).ok());

  // The commit write-through already populated the cache.
  EXPECT_EQ((*cs)->Stats().cache_hits, 0u);
  auto first = (*cs)->Read(cid);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ((*cs)->Stats().cache_hits, 1u);
  EXPECT_EQ((*cs)->Stats().cache_misses, 0u);
  auto second = (*cs)->Read(cid);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ((*cs)->Stats().cache_hits, 2u);
  EXPECT_EQ(Slice(*second).ToString(), "cached payload");
  EXPECT_GT((*cs)->Stats().cache_bytes_used, 0u);

  // A store reopened on the same image starts cold: the first read is a
  // miss that repopulates, the second a hit.
  ASSERT_TRUE((*cs)->Close().ok());
  auto reopened = env.Open(SmallSegments());
  ASSERT_TRUE(reopened.ok());
  ASSERT_TRUE((*reopened)->Read(cid).ok());
  EXPECT_EQ((*reopened)->Stats().cache_misses, 1u);
  EXPECT_EQ((*reopened)->Stats().cache_hits, 0u);
  ASSERT_TRUE((*reopened)->Read(cid).ok());
  EXPECT_EQ((*reopened)->Stats().cache_hits, 1u);
}

TEST(ChunkCacheTest, EvictionRespectsByteBudget) {
  TestEnv env;
  auto options = SmallSegments();
  options.cache_bytes = 2048;
  auto cs = env.Open(options);
  ASSERT_TRUE(cs.ok());
  Random rng(11);
  std::map<ChunkId, Buffer> model;
  for (int i = 0; i < 30; i++) {
    ChunkId cid = (*cs)->AllocateChunkId();
    Buffer data;
    rng.Fill(&data, 300);
    ASSERT_TRUE((*cs)->Write(cid, data, false).ok());
    model[cid] = data;
    ASSERT_TRUE((*cs)->Read(cid).ok());
  }
  const ChunkStoreStats& stats = (*cs)->Stats();
  EXPECT_GT(stats.cache_evictions, 0u);
  EXPECT_LE(stats.cache_bytes_used, options.cache_bytes);
  // Evicted or not, every chunk reads back correctly.
  for (const auto& [cid, expected] : model) {
    auto data = (*cs)->Read(cid);
    ASSERT_TRUE(data.ok()) << cid;
    EXPECT_EQ(*data, expected) << cid;
  }
}

TEST(ChunkCacheTest, ReadAfterOverwriteIsFresh) {
  TestEnv env;
  auto cs = env.Open(SmallSegments());
  ASSERT_TRUE(cs.ok());
  ChunkId cid = (*cs)->AllocateChunkId();
  ASSERT_TRUE((*cs)->Write(cid, Slice("version-1"), true).ok());
  ASSERT_TRUE((*cs)->Read(cid).ok());  // Cache v1.
  ASSERT_TRUE((*cs)->Write(cid, Slice("version-2"), true).ok());
  auto data = (*cs)->Read(cid);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(Slice(*data).ToString(), "version-2");
}

TEST(ChunkCacheTest, ReadAfterDeallocateIsNotFound) {
  TestEnv env;
  auto cs = env.Open(SmallSegments());
  ASSERT_TRUE(cs.ok());
  ChunkId cid = (*cs)->AllocateChunkId();
  ASSERT_TRUE((*cs)->Write(cid, Slice("doomed"), true).ok());
  ASSERT_TRUE((*cs)->Read(cid).ok());  // Cached.
  ASSERT_TRUE((*cs)->Deallocate(cid, true).ok());
  auto data = (*cs)->Read(cid);
  EXPECT_TRUE(data.status().IsNotFound()) << data.status().ToString();
}

TEST(ChunkCacheTest, WriteThenDeallocInOneBatchNeverServesStale) {
  TestEnv env;
  auto cs = env.Open(SmallSegments());
  ASSERT_TRUE(cs.ok());
  ChunkId cid = (*cs)->AllocateChunkId();
  ASSERT_TRUE((*cs)->Write(cid, Slice("old"), true).ok());
  ASSERT_TRUE((*cs)->Read(cid).ok());  // Cached.
  WriteBatch batch;
  batch.Write(cid, Slice("new"));
  batch.Deallocate(cid);  // Last op wins.
  ASSERT_TRUE((*cs)->Commit(batch, true).ok());
  EXPECT_TRUE((*cs)->Read(cid).status().IsNotFound());
}

TEST(ChunkCacheTest, CacheValidAcrossCleanRelocation) {
  TestEnv env;
  auto options = SmallSegments();
  options.max_utilization = 0.95;  // Manual cleaning only.
  auto cs = env.Open(options);
  ASSERT_TRUE(cs.ok());
  Random rng(12);
  // A stable working set plus churn that fills segments with garbage.
  std::map<ChunkId, Buffer> model;
  for (int i = 0; i < 10; i++) {
    ChunkId cid = (*cs)->AllocateChunkId();
    Buffer data;
    rng.Fill(&data, 200);
    ASSERT_TRUE((*cs)->Write(cid, data, false).ok());
    model[cid] = data;
  }
  ChunkId churn = (*cs)->AllocateChunkId();
  for (int i = 0; i < 200; i++) {
    Buffer data;
    rng.Fill(&data, 400);
    ASSERT_TRUE((*cs)->Write(churn, data, i % 20 == 0).ok());
  }
  // Populate the cache, then relocate the working set via idle cleaning.
  for (const auto& [cid, expected] : model) {
    ASSERT_TRUE((*cs)->Read(cid).ok());
  }
  for (int i = 0; i < 50; i++) ASSERT_TRUE((*cs)->Clean(2).ok());
  EXPECT_GT((*cs)->Stats().cleaned_segments, 0u);
  // Relocation moves sealed bytes verbatim — cached plaintext stays valid
  // (hits) and correct.
  uint64_t hits_before = (*cs)->Stats().cache_hits;
  for (const auto& [cid, expected] : model) {
    auto data = (*cs)->Read(cid);
    ASSERT_TRUE(data.ok()) << cid;
    EXPECT_EQ(*data, expected) << cid;
  }
  EXPECT_EQ((*cs)->Stats().cache_hits, hits_before + model.size());
}

TEST(ChunkCacheTest, SnapshotReadsBypassCache) {
  TestEnv env;
  auto cs = env.Open(SmallSegments());
  ASSERT_TRUE(cs.ok());
  ChunkId cid = (*cs)->AllocateChunkId();
  ASSERT_TRUE((*cs)->Write(cid, Slice("snapshotted"), true).ok());
  ASSERT_TRUE((*cs)->Read(cid).ok());  // Cache the current version.
  auto snap = (*cs)->CreateSnapshot();
  ASSERT_TRUE(snap.ok());
  // Overwrite AFTER the snapshot: the cache now holds the newer version.
  ASSERT_TRUE((*cs)->Write(cid, Slice("newer"), true).ok());
  auto at_snap = (*cs)->ReadAtView(**snap, cid);
  ASSERT_TRUE(at_snap.ok()) << at_snap.status().ToString();
  EXPECT_EQ(Slice(*at_snap).ToString(), "snapshotted");
  auto current = (*cs)->Read(cid);
  ASSERT_TRUE(current.ok());
  EXPECT_EQ(Slice(*current).ToString(), "newer");
}

TEST(ChunkCacheTest, DisabledCacheCountsNothing) {
  TestEnv env;
  auto options = SmallSegments();
  options.cache_bytes = 0;
  auto cs = env.Open(options);
  ASSERT_TRUE(cs.ok());
  ChunkId cid = (*cs)->AllocateChunkId();
  ASSERT_TRUE((*cs)->Write(cid, Slice("uncached"), true).ok());
  for (int i = 0; i < 3; i++) {
    auto data = (*cs)->Read(cid);
    ASSERT_TRUE(data.ok());
    EXPECT_EQ(Slice(*data).ToString(), "uncached");
  }
  EXPECT_EQ((*cs)->Stats().cache_hits, 0u);
  EXPECT_EQ((*cs)->Stats().cache_misses, 0u);
  EXPECT_EQ((*cs)->Stats().cache_bytes_used, 0u);
}

// Readers racing committers through a cache of a few entries: Read misses
// and refills constantly while commits write through. A miss must fill the
// cache under the commit mutex; one that filled it after releasing the
// mutex could overwrite a newer commit's write-through with older bytes,
// and a later hit would then serve a value that went backwards.
TEST(ChunkCacheTest, ReadersRacingCommittersNeverSeeValuesGoBackwards) {
  TestEnv env;
  auto options = SmallSegments();
  options.cache_bytes = 4 * (64 + 64);  // Room for about four payloads.
  auto cs = env.Open(options);
  ASSERT_TRUE(cs.ok()) << cs.status().ToString();
  ChunkStore* store = cs->get();

  constexpr int kWriters = 2;
  constexpr int kReaders = 3;
  constexpr int kCidsPerWriter = 4;
  constexpr uint64_t kRounds = 10000;
  // Value v of a chunk: its version in the first 8 bytes, padded to a
  // varying length so entries of different sizes churn the cache.
  auto encode = [](uint64_t v) {
    Buffer b(8 + v % 48, static_cast<uint8_t>(v));
    for (int i = 0; i < 8; i++) b[i] = static_cast<uint8_t>(v >> (8 * i));
    return b;
  };
  auto decode = [](const Buffer& b) {
    uint64_t v = 0;
    for (int i = 0; i < 8; i++) v |= static_cast<uint64_t>(b[i]) << (8 * i);
    return v;
  };

  std::vector<ChunkId> cids;
  for (int i = 0; i < kWriters * kCidsPerWriter; i++) {
    cids.push_back(store->AllocateChunkId());
    ASSERT_TRUE(store->Write(cids.back(), encode(0), true).ok());
  }

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; r++) {
    readers.emplace_back([&, r] {
      Random rng(100 + r);
      std::vector<uint64_t> seen(cids.size(), 0);
      while (!stop.load()) {
        const size_t i = rng.Uniform(cids.size());
        auto data = store->Read(cids[i]);
        if (!data.ok() || data->size() < 8) {
          failures++;
          continue;
        }
        const uint64_t v = decode(*data);
        if (v < seen[i]) failures++;
        seen[i] = v;
      }
    });
  }
  // Each writer owns its own ids and writes one per commit, round robin,
  // so id j of a writer last got the last round v with v % kCidsPerWriter
  // == j.
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; w++) {
    writers.emplace_back([&, w] {
      for (uint64_t v = 1; v <= kRounds; v++) {
        const ChunkId cid = cids[w * kCidsPerWriter + v % kCidsPerWriter];
        if (!store->Write(cid, encode(v), v % 4 == 0).ok()) failures++;
      }
    });
  }
  for (std::thread& t : writers) t.join();
  stop.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);

  for (size_t i = 0; i < cids.size(); i++) {
    const uint64_t j = i % kCidsPerWriter;
    const uint64_t want = kRounds - (kRounds + kCidsPerWriter - j) %
                                        kCidsPerWriter;
    auto data = store->Read(cids[i]);
    ASSERT_TRUE(data.ok()) << data.status().ToString();
    EXPECT_EQ(decode(*data), want) << "chunk " << cids[i];
  }
  EXPECT_GT(store->Stats().cache_misses, 0u);
  EXPECT_GT(store->Stats().cache_evictions_capacity, 0u);
}

// A 64 x 4 KiB batch seals on the committer, in batch order: every
// plaintext byte is counted once and reads back, warm and cold.
TEST(ChunkPipelineTest, ParallelSealCountersAndReadback) {
  TestEnv env;
  auto options = SmallSegments();
  auto cs = env.Open(options);
  ASSERT_TRUE(cs.ok());
  Random rng(14);
  WriteBatch batch;
  std::map<ChunkId, Buffer> model;
  uint64_t plain_bytes = 0;
  for (int i = 0; i < 64; i++) {
    ChunkId cid = (*cs)->AllocateChunkId();
    Buffer data;
    rng.Fill(&data, 4096 + i);
    batch.Write(cid, data);
    plain_bytes += data.size();
    model[cid] = data;
  }
  ASSERT_TRUE((*cs)->Commit(batch, true).ok());
  EXPECT_EQ((*cs)->Stats().sealed_bytes, plain_bytes);
  for (const auto& [cid, expected] : model) {
    auto data = (*cs)->Read(cid);
    ASSERT_TRUE(data.ok()) << cid;
    EXPECT_EQ(*data, expected) << cid;
  }
  // And after a cold reopen (no cache, full validation path).
  ASSERT_TRUE((*cs)->Close().ok());
  auto reopened = env.Open(options);
  ASSERT_TRUE(reopened.ok());
  for (const auto& [cid, expected] : model) {
    auto data = (*reopened)->Read(cid);
    ASSERT_TRUE(data.ok()) << cid;
    EXPECT_EQ(*data, expected) << cid;
  }
}

// VerifyIntegrity is read-only and repeatable: two scrubs in two sessions
// check the same chunks, pass, and leave the image bit-identical.
TEST(ChunkPipelineTest, ParallelVerifyIntegrityBitIdenticalToSerial) {
  TestEnv env;
  {
    auto setup = env.Open(SmallSegments());
    ASSERT_TRUE(setup.ok());
    Random rng(15);
    WriteBatch batch;
    for (int i = 0; i < 96; i++) {
      Buffer data;
      rng.Fill(&data, 80 + i);
      batch.Write((*setup)->AllocateChunkId(), data);
    }
    ASSERT_TRUE((*setup)->Commit(batch, true).ok());
    ASSERT_TRUE((*setup)->Checkpoint().ok());
    ASSERT_TRUE((*setup)->Close().ok());
  }
  uint64_t counts[2] = {0, 0};
  for (int session = 0; session < 2; session++) {
    auto cs = env.Open(SmallSegments());
    ASSERT_TRUE(cs.ok()) << cs.status().ToString();
    MemUntrustedStore::Image before = env.store.SnapshotImage();
    ASSERT_TRUE((*cs)->VerifyIntegrity(&counts[session]).ok());
    MemUntrustedStore::Image after = env.store.SnapshotImage();
    EXPECT_TRUE(before == after) << "verification mutated the image";
    ASSERT_TRUE((*cs)->Close().ok());
  }
  EXPECT_EQ(counts[0], counts[1]);
  EXPECT_GT(counts[0], 0u);
}

// Chunk ids near the top of the 64-bit space (the sharded router's
// reserved range lives above 2^63) must be storable: the location-map
// span computation saturates instead of overflowing. Regression test for
// an infinite loop in LocationMap::GrowTo.
TEST(ChunkStoreTest, ChunkIdsAboveTopBitRoundTrip) {
  TestEnv env;
  auto cs = env.Open(SmallSegments());
  ASSERT_TRUE(cs.ok());
  const ChunkId high_ids[] = {1ull << 63, (1ull << 63) | 1,
                              (1ull << 63) | (1ull << 62) | 12345,
                              ~0ull - 1};
  for (ChunkId cid : high_ids) {
    ASSERT_TRUE((*cs)->Write(cid, Slice("high id"), false).ok()) << cid;
  }
  ASSERT_TRUE((*cs)->Write(5, Slice("low id"), true).ok());
  ASSERT_TRUE((*cs)->Checkpoint().ok());
  ASSERT_TRUE((*cs)->Close().ok());
  auto reopened = env.Open(SmallSegments());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  for (ChunkId cid : high_ids) {
    auto data = (*reopened)->Read(cid);
    ASSERT_TRUE(data.ok()) << cid << ": " << data.status().ToString();
    EXPECT_EQ(Slice(*data).ToString(), "high id");
  }
  EXPECT_EQ(Slice(*(*reopened)->Read(5)).ToString(), "low id");
  uint64_t checked = 0;
  EXPECT_TRUE((*reopened)->VerifyIntegrity(&checked).ok());
  EXPECT_EQ(checked, 5u);
}

// ---------------------------------------------------------------------------
// Group commit

// Two durable commits buffered before either waits must be flushed by ONE
// leader: one merged manifest, one sync round, one counter bump, and both
// acked. This pins the deterministic two-stage path the multi-threaded
// grouping reduces to.
TEST(ChunkGroupCommitTest, TwoBufferedDurablesFlushAsOneGroup) {
  TestEnv env;
  auto cs = env.Open(SmallSegments());
  ASSERT_TRUE(cs.ok()) << cs.status().ToString();
  ChunkId a = (*cs)->AllocateChunkId();
  ChunkId b = (*cs)->AllocateChunkId();
  WriteBatch batch_a, batch_b;
  batch_a.Write(a, Bytes("first committer"));
  batch_b.Write(b, Bytes("second committer"));

  auto ha = (*cs)->CommitBuffered(batch_a, true);
  ASSERT_TRUE(ha.ok()) << ha.status().ToString();
  auto hb = (*cs)->CommitBuffered(batch_b, true);
  ASSERT_TRUE(hb.ok()) << hb.status().ToString();

  ChunkStoreStats before = (*cs)->Stats();
  ASSERT_TRUE((*cs)->WaitDurable(*ha).ok());
  ASSERT_TRUE((*cs)->WaitDurable(*hb).ok());
  ChunkStoreStats after = (*cs)->Stats();

  EXPECT_EQ(after.commit_groups - before.commit_groups, 1u);
  EXPECT_EQ(after.grouped_commits - before.grouped_commits, 2u);
  EXPECT_GE(after.max_commits_per_group, 2u);
  EXPECT_EQ(after.log_syncs - before.log_syncs, 1u);
  EXPECT_EQ(after.counter_bumps - before.counter_bumps, 1u);
  EXPECT_EQ(after.durable_commits - before.durable_commits, 2u);
  EXPECT_GT(after.syncs_saved(), 0u);
  EXPECT_GT(after.counter_bumps_saved(), 0u);

  EXPECT_EQ(Slice(*(*cs)->Read(a)).ToString(), "first committer");
  EXPECT_EQ(Slice(*(*cs)->Read(b)).ToString(), "second committer");
}

// With grouping on, nondurable commits append data records but seal no
// manifest and never touch the counter; the next durable commit covers
// them with one merged record. Cache is disabled so the read-back of a
// buffered-but-unflushed record exercises the tail-buffer serving path.
TEST(ChunkGroupCommitTest, NondurablesBufferUntilDurableCovers) {
  TestEnv env;
  auto options = SmallSegments();
  options.cache_bytes = 0;
  ChunkId a, b, c;
  {
    auto cs = env.Open(options);
    ASSERT_TRUE(cs.ok());
    a = (*cs)->AllocateChunkId();
    b = (*cs)->AllocateChunkId();
    c = (*cs)->AllocateChunkId();
    uint64_t bumps0 = (*cs)->Stats().counter_bumps;
    uint64_t syncs0 = (*cs)->Stats().log_syncs;
    ASSERT_TRUE((*cs)->Write(a, Slice("buffered one"), false).ok());
    ASSERT_TRUE((*cs)->Write(b, Slice("buffered two"), false).ok());
    // Buffered writes are visible immediately (from the open group's tail).
    EXPECT_EQ(Slice(*(*cs)->Read(a)).ToString(), "buffered one");
    EXPECT_EQ(Slice(*(*cs)->Read(b)).ToString(), "buffered two");
    // No durable boundary yet: no sync, no counter bump.
    EXPECT_EQ((*cs)->Stats().counter_bumps, bumps0);
    EXPECT_EQ((*cs)->Stats().log_syncs, syncs0);

    ASSERT_TRUE((*cs)->Write(c, Slice("durable cover"), true).ok());
    EXPECT_EQ((*cs)->Stats().counter_bumps, bumps0 + 1);
    EXPECT_EQ((*cs)->Stats().log_syncs, syncs0 + 1);
    ASSERT_TRUE((*cs)->Close().ok());
  }
  auto cs = env.Open(options);
  ASSERT_TRUE(cs.ok()) << cs.status().ToString();
  EXPECT_EQ(Slice(*(*cs)->Read(a)).ToString(), "buffered one");
  EXPECT_EQ(Slice(*(*cs)->Read(b)).ToString(), "buffered two");
  EXPECT_EQ(Slice(*(*cs)->Read(c)).ToString(), "durable cover");
}

// A batch that fails validation must fail only its own committer: batches
// already buffered into the open group still flush and ack.
TEST(ChunkGroupCommitTest, InvalidBatchDoesNotPoisonGroupmates) {
  TestEnv env;
  auto cs = env.Open(SmallSegments());
  ASSERT_TRUE(cs.ok());
  ChunkId good = (*cs)->AllocateChunkId();
  WriteBatch good_batch;
  good_batch.Write(good, Bytes("innocent bystander"));
  auto handle = (*cs)->CommitBuffered(good_batch, true);
  ASSERT_TRUE(handle.ok());

  WriteBatch bad_batch;
  bad_batch.Write(0, Bytes("chunk id zero is invalid"));
  auto bad = (*cs)->CommitBuffered(bad_batch, true);
  EXPECT_FALSE(bad.ok());

  ASSERT_TRUE((*cs)->WaitDurable(*handle).ok());
  EXPECT_EQ(Slice(*(*cs)->Read(good)).ToString(), "innocent bystander");
}

// An explicit checkpoint (a durable boundary taken under the store mutex)
// must absorb a buffered-but-unflushed durable commit: its ticket is
// completed by the checkpoint's merged record, and WaitDurable returns OK
// without leading a second flush.
TEST(ChunkGroupCommitTest, CheckpointAbsorbsBufferedCommit) {
  TestEnv env;
  ChunkId cid;
  {
    auto cs = env.Open(SmallSegments());
    ASSERT_TRUE(cs.ok());
    cid = (*cs)->AllocateChunkId();
    WriteBatch batch;
    batch.Write(cid, Bytes("absorbed by checkpoint"));
    auto handle = (*cs)->CommitBuffered(batch, true);
    ASSERT_TRUE(handle.ok());
    ASSERT_TRUE((*cs)->Checkpoint().ok());
    // The checkpoint's merged record completed the ticket (it counts as
    // the group's flush); waiting must not lead a second one.
    ChunkStoreStats after_ckpt = (*cs)->Stats();
    EXPECT_EQ(after_ckpt.grouped_commits, 1u);
    ASSERT_TRUE((*cs)->WaitDurable(*handle).ok());
    EXPECT_EQ((*cs)->Stats().log_syncs, after_ckpt.log_syncs);
    EXPECT_EQ((*cs)->Stats().commit_groups, after_ckpt.commit_groups);
    ASSERT_TRUE((*cs)->Close().ok());
  }
  auto cs = env.Open(SmallSegments());
  ASSERT_TRUE(cs.ok()) << cs.status().ToString();
  EXPECT_EQ(Slice(*(*cs)->Read(cid)).ToString(), "absorbed by checkpoint");
}

// Concurrent durable committers under group commit: every acked write must
// be readable, reopen must recover all of them, and syncs never exceed
// acked durable commits (amortization can only save syncs, never add).
TEST(ChunkGroupCommitTest, ConcurrentDurableCommitters) {
  TestEnv env;
  constexpr int kThreads = 4;
  constexpr int kCommitsPerThread = 8;
  std::map<ChunkId, Buffer> model;
  {
    auto cs = env.Open(SmallSegments());
    ASSERT_TRUE(cs.ok());
    std::vector<std::vector<ChunkId>> ids(kThreads);
    for (int t = 0; t < kThreads; t++) {
      for (int i = 0; i < kCommitsPerThread; i++) {
        ids[t].push_back((*cs)->AllocateChunkId());
      }
    }
    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; t++) {
      threads.emplace_back([&, t] {
        for (int i = 0; i < kCommitsPerThread; i++) {
          std::string value = "t" + std::to_string(t) + "#" + std::to_string(i);
          if (!(*cs)->Write(ids[t][i], Slice(value), true).ok()) {
            failures.fetch_add(1);
          }
        }
      });
    }
    for (auto& th : threads) th.join();
    ASSERT_EQ(failures.load(), 0);
    for (int t = 0; t < kThreads; t++) {
      for (int i = 0; i < kCommitsPerThread; i++) {
        std::string value = "t" + std::to_string(t) + "#" + std::to_string(i);
        model[ids[t][i]] = Bytes(value);
      }
    }
    ChunkStoreStats stats = (*cs)->Stats();
    EXPECT_GE(stats.durable_commits, uint64_t{kThreads * kCommitsPerThread});
    EXPECT_LE(stats.log_syncs, stats.durable_commits);
    EXPECT_GE(stats.commits_per_sync(), 1.0);
    for (const auto& [cid, expected] : model) {
      auto data = (*cs)->Read(cid);
      ASSERT_TRUE(data.ok()) << cid << ": " << data.status().ToString();
      EXPECT_EQ(*data, expected);
    }
    ASSERT_TRUE((*cs)->Close().ok());
  }
  auto cs = env.Open(SmallSegments());
  ASSERT_TRUE(cs.ok()) << cs.status().ToString();
  for (const auto& [cid, expected] : model) {
    auto data = (*cs)->Read(cid);
    ASSERT_TRUE(data.ok()) << cid << ": " << data.status().ToString();
    EXPECT_EQ(*data, expected);
  }
}

// With an accumulation window, a leader holds the flush open until the
// early-seal target is reached, so two committers racing from different
// threads MUST coalesce into one group: one sync round, one counter bump.
// (Window is generous — seconds — but the target of 2 seals it the moment
// the second committer buffers, so the test runs at normal speed.)
TEST(ChunkGroupCommitTest, WindowCoalescesConcurrentCommitters) {
  TestEnv env;
  auto options = SmallSegments();
  options.group_commit_window_us = 5'000'000;
  options.group_commit_target_commits = 2;
  auto cs = env.Open(options);
  ASSERT_TRUE(cs.ok());
  ChunkId a = (*cs)->AllocateChunkId();
  ChunkId b = (*cs)->AllocateChunkId();

  ChunkStoreStats before = (*cs)->Stats();
  std::atomic<int> failures{0};
  std::thread ta([&] {
    if (!(*cs)->Write(a, Slice("window rider a"), true).ok()) failures++;
  });
  std::thread tb([&] {
    if (!(*cs)->Write(b, Slice("window rider b"), true).ok()) failures++;
  });
  ta.join();
  tb.join();
  ASSERT_EQ(failures.load(), 0);

  ChunkStoreStats after = (*cs)->Stats();
  EXPECT_EQ(after.durable_commits - before.durable_commits, 2u);
  EXPECT_EQ(after.log_syncs - before.log_syncs, 1u);
  EXPECT_EQ(after.counter_bumps - before.counter_bumps, 1u);
  EXPECT_EQ(after.commit_groups - before.commit_groups, 1u);
  EXPECT_EQ(after.grouped_commits - before.grouped_commits, 2u);
  EXPECT_EQ(Slice(*(*cs)->Read(a)).ToString(), "window rider a");
  EXPECT_EQ(Slice(*(*cs)->Read(b)).ToString(), "window rider b");
}

// A lone durable committer leads a group of one per commit: one sync, one
// counter bump and one group per durable commit, with nothing amortized.
TEST(ChunkGroupCommitTest, LoneCommitterFlushesGroupOfOne) {
  TestEnv env;
  auto cs = env.Open(SmallSegments());
  ASSERT_TRUE(cs.ok());
  ChunkStoreStats before = (*cs)->Stats();
  for (int i = 0; i < 3; i++) {
    ASSERT_TRUE(
        (*cs)->Write((*cs)->AllocateChunkId(), Slice("lone"), true).ok());
  }
  ChunkStoreStats after = (*cs)->Stats();
  EXPECT_EQ(after.durable_commits - before.durable_commits, 3u);
  EXPECT_EQ(after.log_syncs - before.log_syncs, 3u);
  EXPECT_EQ(after.counter_bumps - before.counter_bumps, 3u);
  EXPECT_EQ(after.commit_groups - before.commit_groups, 3u);
  EXPECT_EQ(after.grouped_commits - before.grouped_commits, 3u);
  EXPECT_EQ(after.max_commits_per_group, 1u);
  EXPECT_EQ(after.syncs_saved(), 0u);
}

// A failed log write while sealing a group must not cost any later ack.
// The commit record that never reached the store is dropped from the tail
// and the next flush re-seals the group under the same seq; left behind,
// it would reach the log beside its re-sealed twin (same seq, same
// prev_mac) and recovery, stopping at the twin, would lose `b`.
TEST(ChunkGroupCommitTest, AckAfterWriteErrorSurvivesReopen) {
  TestEnv env;
  FailOneWriteStore failing(&env.store);
  auto cs =
      ChunkStore::Open(&failing, &env.secrets, &env.counter, SmallSegments());
  ASSERT_TRUE(cs.ok()) << cs.status().ToString();
  ChunkId a = (*cs)->AllocateChunkId();
  ChunkId b = (*cs)->AllocateChunkId();
  failing.FailNextWrite();
  EXPECT_FALSE((*cs)->Write(a, Slice("a1"), true).ok());
  ASSERT_TRUE((*cs)->Write(b, Slice("b1"), true).ok());

  // Reopen a copy of the image (and counter) as it stands at b's ack.
  CrashCopy copy(env);
  auto reopened = ChunkStore::Open(&copy.store, &env.secrets, &copy.counter,
                                   SmallSegments());
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  auto got = (*reopened)->Read(b);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(Slice(*got).ToString(), "b1");
  // Whatever became of the failed commit, recovery agrees with the store
  // that kept running.
  auto live_a = (*cs)->Read(a);
  auto recovered_a = (*reopened)->Read(a);
  ASSERT_EQ(live_a.ok(), recovered_a.ok());
  if (live_a.ok()) {
    EXPECT_EQ(*live_a, *recovered_a);
  }
}

// ----------------------------------------------- compress-before-encrypt

// Compressible payload: long runs and repeats, distinct per chunk.
Buffer Compressible(int seed, size_t size) {
  Buffer b(size);
  for (size_t i = 0; i < size; i++) {
    b[i] = static_cast<uint8_t>((i / 64 + seed) & 0xFF);
  }
  return b;
}

TEST(ChunkCompressionTest, RoundtripWithStats) {
  TestEnv env;
  ChunkStoreOptions opts = SmallSegments();
  opts.compression = true;
  auto cs = env.Open(opts);
  ASSERT_TRUE(cs.ok());
  std::vector<ChunkId> cids;
  for (int i = 0; i < 8; i++) {
    ChunkId cid = (*cs)->AllocateChunkId();
    ASSERT_TRUE((*cs)->Write(cid, Slice(Compressible(i, 2000)), true).ok());
    cids.push_back(cid);
  }
  for (int i = 0; i < 8; i++) {
    auto data = (*cs)->Read(cids[i]);
    ASSERT_TRUE(data.ok()) << data.status().ToString();
    EXPECT_EQ(Slice(*data).ToString(), Slice(Compressible(i, 2000)).ToString());
  }
  ChunkStoreStats stats = (*cs)->Stats();
  EXPECT_GE(stats.compress_attempts, 8u);
  EXPECT_GE(stats.compressed_chunks, 8u);
  EXPECT_LT(stats.compress_bytes_out, stats.compress_bytes_in);
}

TEST(ChunkCompressionTest, IncompressibleDataStoredRaw) {
  TestEnv env;
  ChunkStoreOptions opts = SmallSegments();
  opts.compression = true;
  auto cs = env.Open(opts);
  ASSERT_TRUE(cs.ok());
  Random rng(20260809);
  Buffer noise(2000);
  for (auto& b : noise) b = static_cast<uint8_t>(rng.Uniform(256));
  ChunkId cid = (*cs)->AllocateChunkId();
  ASSERT_TRUE((*cs)->Write(cid, Slice(noise), true).ok());
  auto data = (*cs)->Read(cid);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(Slice(*data).ToString(), Slice(noise).ToString());
  ChunkStoreStats stats = (*cs)->Stats();
  EXPECT_GE(stats.compress_attempts, 1u);
  EXPECT_EQ(stats.compressed_chunks, 0u);  // Would not shrink: stored raw.
}

TEST(ChunkCompressionTest, CompressedChunksReadableAfterReopen) {
  TestEnv env;
  std::vector<ChunkId> cids;
  {
    ChunkStoreOptions opts = SmallSegments();
    opts.compression = true;
    auto cs = env.Open(opts);
    ASSERT_TRUE(cs.ok());
    for (int i = 0; i < 4; i++) {
      ChunkId cid = (*cs)->AllocateChunkId();
      ASSERT_TRUE((*cs)->Write(cid, Slice(Compressible(i, 1500)), true).ok());
      cids.push_back(cid);
    }
    ASSERT_TRUE((*cs)->Close().ok());
  }
  // Reopen with compression DISABLED: the per-chunk flag — not the
  // option — decides decoding, so old compressed chunks stay readable.
  auto cs = env.Open(SmallSegments());
  ASSERT_TRUE(cs.ok()) << cs.status().ToString();
  for (int i = 0; i < 4; i++) {
    auto data = (*cs)->Read(cids[i]);
    ASSERT_TRUE(data.ok()) << data.status().ToString();
    EXPECT_EQ(Slice(*data).ToString(), Slice(Compressible(i, 1500)).ToString());
  }
  // New writes through this store are raw; both kinds coexist.
  ChunkId raw_cid = (*cs)->AllocateChunkId();
  ASSERT_TRUE((*cs)->Write(raw_cid, Slice(Compressible(9, 1500)), true).ok());
  auto raw = (*cs)->Read(raw_cid);
  ASSERT_TRUE(raw.ok());
  EXPECT_EQ((*cs)->Stats().compress_attempts, 0u);
}

TEST(ChunkCompressionTest, FlagsSurviveCleaningAndRecovery) {
  TestEnv env;
  ChunkStoreOptions opts = SmallSegments();
  opts.compression = true;
  opts.checkpoint_interval_bytes = 16 * 1024;
  std::vector<ChunkId> cids;
  {
    auto cs = env.Open(opts);
    ASSERT_TRUE(cs.ok());
    for (int i = 0; i < 4; i++) {
      cids.push_back((*cs)->AllocateChunkId());
    }
    // Churn to create garbage, then force cleaning: relocations must
    // carry the compressed flag with the (verbatim) sealed bytes.
    for (int round = 0; round < 12; round++) {
      for (int i = 0; i < 4; i++) {
        ASSERT_TRUE(
            (*cs)->Write(cids[i], Slice(Compressible(round + i, 1200)), true)
                .ok());
      }
    }
    ASSERT_TRUE((*cs)->Clean(64).ok());
    for (int i = 0; i < 4; i++) {
      auto data = (*cs)->Read(cids[i]);
      ASSERT_TRUE(data.ok()) << data.status().ToString();
      EXPECT_EQ(Slice(*data).ToString(),
                Slice(Compressible(11 + i, 1200)).ToString());
    }
    ASSERT_TRUE((*cs)->Close().ok());
  }
  auto cs = env.Open(opts);
  ASSERT_TRUE(cs.ok()) << cs.status().ToString();
  for (int i = 0; i < 4; i++) {
    auto data = (*cs)->Read(cids[i]);
    ASSERT_TRUE(data.ok()) << data.status().ToString();
    EXPECT_EQ(Slice(*data).ToString(),
              Slice(Compressible(11 + i, 1200)).ToString());
  }
}

TEST(ChunkCompressionTest, TamperedCompressedChunkDetected) {
  TestEnv env;
  ChunkStoreOptions opts = SmallSegments();
  opts.compression = true;
  auto cs = env.Open(opts);
  ASSERT_TRUE(cs.ok());
  ChunkId cid = (*cs)->AllocateChunkId();
  ASSERT_TRUE((*cs)->Write(cid, Slice(Compressible(1, 2000)), true).ok());
  ASSERT_TRUE((*cs)->Close().ok());

  // Flip one byte in every file; at least one flip lands in the chunk's
  // sealed record. Reads must fail loudly, never return garbage.
  for (const std::string& name : env.store.List()) {
    auto size = env.store.Size(name);
    ASSERT_TRUE(size.ok());
    if (*size == 0) continue;
    ASSERT_TRUE(env.store.CorruptByte(name, *size / 2, 0x01).ok());
  }
  auto reopened = env.Open(opts);
  if (reopened.ok()) {
    auto data = (*reopened)->Read(cid);
    if (data.ok()) {
      EXPECT_EQ(Slice(*data).ToString(),
                Slice(Compressible(1, 2000)).ToString());
    }
  }
  // Either open or read failed, or the data was untouched — never a
  // silently-corrupted payload (the assertion above).
}

// ------------------------------------------------------- pinned read views

TEST(ChunkViewTest, ReadAtViewSeesPinnedState) {
  TestEnv env;
  auto cs = env.Open(SmallSegments());
  ASSERT_TRUE(cs.ok());
  ChunkId cid = (*cs)->AllocateChunkId();
  ASSERT_TRUE((*cs)->Write(cid, Slice("version-1"), true).ok());

  auto view = (*cs)->PinView();
  ASSERT_TRUE(view.ok());
  ASSERT_TRUE((*cs)->Write(cid, Slice("version-2"), true).ok());

  auto at_view = (*cs)->ReadAtView(**view, cid);
  ASSERT_TRUE(at_view.ok()) << at_view.status().ToString();
  EXPECT_EQ(Slice(*at_view).ToString(), "version-1");
  auto current = (*cs)->Read(cid);
  ASSERT_TRUE(current.ok());
  EXPECT_EQ(Slice(*current).ToString(), "version-2");
  EXPECT_EQ((*cs)->Stats().views_pinned, 1u);
}

TEST(ChunkViewTest, ViewInvisibleToLaterAllocAndDealloc) {
  TestEnv env;
  auto cs = env.Open(SmallSegments());
  ASSERT_TRUE(cs.ok());
  ChunkId keep = (*cs)->AllocateChunkId();
  ChunkId doomed = (*cs)->AllocateChunkId();
  ASSERT_TRUE((*cs)->Write(keep, Slice("keep"), true).ok());
  ASSERT_TRUE((*cs)->Write(doomed, Slice("doomed"), true).ok());

  auto view = (*cs)->PinView();
  ASSERT_TRUE(view.ok());

  ChunkId later = (*cs)->AllocateChunkId();
  WriteBatch batch;
  batch.Write(later, Slice("later"));
  batch.Deallocate(doomed);
  ASSERT_TRUE((*cs)->Commit(batch, true).ok());

  // The view still reads the deallocated chunk and cannot see the new one.
  auto d = (*cs)->ReadAtView(**view, doomed);
  ASSERT_TRUE(d.ok()) << d.status().ToString();
  EXPECT_EQ(Slice(*d).ToString(), "doomed");
  EXPECT_TRUE((*cs)->ReadAtView(**view, later).status().IsNotFound());
  // Current state is the other way around.
  EXPECT_TRUE((*cs)->Read(doomed).status().IsNotFound());
  ASSERT_TRUE((*cs)->Read(later).ok());
}

TEST(ChunkViewTest, VersionedCacheServesViewOnlyWhenUnchanged) {
  TestEnv env;
  ChunkStoreOptions opts = SmallSegments();
  opts.cache_bytes = 64 * 1024;
  auto cs = env.Open(opts);
  ASSERT_TRUE(cs.ok());
  ChunkId cid = (*cs)->AllocateChunkId();
  ASSERT_TRUE((*cs)->Write(cid, Slice("cached-v1"), true).ok());
  ASSERT_TRUE((*cs)->Read(cid).ok());  // Warm the cache.

  auto view = (*cs)->PinView();
  ASSERT_TRUE(view.ok());
  uint64_t hits_before = (*cs)->Stats().cache_hits;

  // Unchanged since the view: the versioned cache entry may serve it.
  auto hit = (*cs)->ReadAtView(**view, cid);
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(Slice(*hit).ToString(), "cached-v1");
  EXPECT_EQ((*cs)->Stats().cache_hits, hits_before + 1);

  // Overwrite: the cache now holds newer state than the view, so the
  // view read must fall back to the pinned map — and still be correct.
  ASSERT_TRUE((*cs)->Write(cid, Slice("cached-v2"), true).ok());
  auto stale = (*cs)->ReadAtView(**view, cid);
  ASSERT_TRUE(stale.ok()) << stale.status().ToString();
  EXPECT_EQ(Slice(*stale).ToString(), "cached-v1");
  auto fresh = (*cs)->Read(cid);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(Slice(*fresh).ToString(), "cached-v2");
}

TEST(ChunkViewTest, ReadManyAtViewBatchesAndFailsWhole) {
  TestEnv env;
  ChunkStoreOptions opts = SmallSegments();
  opts.compression = true;  // Exercise pooled validation incl. decompress.
  auto cs = env.Open(opts);
  ASSERT_TRUE(cs.ok());
  std::vector<ChunkId> cids;
  for (int i = 0; i < 12; i++) {
    ChunkId cid = (*cs)->AllocateChunkId();
    ASSERT_TRUE((*cs)->Write(cid, Slice(Compressible(i, 900)), true).ok());
    cids.push_back(cid);
  }
  auto view = (*cs)->PinView();
  ASSERT_TRUE(view.ok());
  auto many = (*cs)->ReadManyAtView(**view, cids);
  ASSERT_TRUE(many.ok()) << many.status().ToString();
  ASSERT_EQ(many->size(), cids.size());
  for (size_t i = 0; i < cids.size(); i++) {
    EXPECT_EQ(Slice((*many)[i]).ToString(),
              Slice(Compressible(static_cast<int>(i), 900)).ToString());
  }
  // One missing id fails the whole batch (all-or-error).
  std::vector<ChunkId> with_missing = cids;
  with_missing.push_back((*cs)->AllocateChunkId());  // Never written.
  EXPECT_TRUE(
      (*cs)->ReadManyAtView(**view, with_missing).status().IsNotFound());
}

TEST(ChunkViewTest, ActiveViewPausesCleaner) {
  TestEnv env;
  ChunkStoreOptions opts = SmallSegments();
  auto cs = env.Open(opts);
  ASSERT_TRUE(cs.ok());
  ChunkId cid = (*cs)->AllocateChunkId();
  for (int i = 0; i < 20; i++) {
    ASSERT_TRUE((*cs)->Write(cid, Slice(Compressible(i, 1000)), true).ok());
  }
  auto view = (*cs)->PinView();
  ASSERT_TRUE(view.ok());
  uint64_t cleaned_before = (*cs)->Stats().cleaned_segments;
  ASSERT_TRUE((*cs)->Clean(64).ok());  // No-op while the view is live.
  EXPECT_EQ((*cs)->Stats().cleaned_segments, cleaned_before);
  auto old = (*cs)->ReadAtView(**view, cid);
  ASSERT_TRUE(old.ok());
  view->reset();  // Release the pin; cleaning may proceed again.
  ASSERT_TRUE((*cs)->Clean(64).ok());
}

// ------------------------------------------------------- segment summaries

// The cleaner finds a victim's live records from the segment summaries.
// The run below kills summarized records in every way there is (overwrite,
// deallocation, a rolled-back batch) and fills summaries in every way there
// is (appends, relocations, the rebuild at open after a replay); after each
// Clean(4) every live chunk must still read back from the log.
TEST(ChunkStoreCleanerTest, SummaryFindsEveryLiveRecord) {
  TestEnv env;
  FailOneWriteStore failing(&env.store);
  ChunkStoreOptions options = SmallSegments();
  options.max_utilization = 0.9;
  options.cache_bytes = 0;  // Reads must come from the relocated records.
  auto opened = ChunkStore::Open(&failing, &env.secrets, &env.counter, options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  std::unique_ptr<ChunkStore> cs = std::move(opened).value();

  std::map<ChunkId, Buffer> model;
  std::vector<ChunkId> ids;
  Random rng(19);
  uint64_t max_segments = 0;
  auto run = [&](int rounds) {
    for (int round = 0; round < rounds; round++) {
      WriteBatch batch;
      std::map<ChunkId, std::optional<Buffer>> staged;
      for (int j = 0; j < 6; j++) {
        if (ids.empty() || rng.Uniform(4) == 0) {
          ids.push_back(cs->AllocateChunkId());
        }
        const ChunkId cid = ids[rng.Uniform(ids.size())];
        if (rng.Uniform(6) == 0) {
          batch.Deallocate(cid);
          staged[cid] = std::nullopt;
        } else {
          Buffer data;
          rng.Fill(&data, rng.Uniform(400) + 20);
          batch.Write(cid, data);
          staged[cid] = data;
        }
      }
      ASSERT_TRUE(cs->Commit(batch, round % 2 == 0).ok());
      for (auto& [cid, data] : staged) {
        if (data.has_value()) {
          model[cid] = *data;
        } else {
          model.erase(cid);
        }
      }
      if (round % 7 == 6) {
        ASSERT_TRUE(cs->Checkpoint().ok());
      }
      ASSERT_TRUE(cs->Clean(4).ok());
      for (const auto& [cid, expected] : model) {
        auto data = cs->Read(cid);
        ASSERT_TRUE(data.ok()) << cid << ": " << data.status().ToString();
        ASSERT_EQ(*data, expected) << cid;
      }
      uint64_t checked = 0;
      ASSERT_TRUE(cs->VerifyIntegrity(&checked).ok());
      ASSERT_EQ(checked, model.size());
      max_segments = std::max<uint64_t>(max_segments, cs->Stats().segments);
    }
  };

  run(60);
  // A batch that fails part-way: its first records reach the tail (and
  // their segment's summary) before a segment roll's write fails, then the
  // batch is rolled back. The cleaner must skip those records.
  const int64_t summary_before =
      cs->metrics()->Snapshot().gauges["chunk.cleaner.summary_bytes"];
  WriteBatch doomed;
  const ChunkId fresh = cs->AllocateChunkId();
  doomed.Write(ids[0], Buffer(900, 1));
  doomed.Write(fresh, Buffer(900, 2));
  for (int j = 1; j <= 6; j++) doomed.Write(ids[j], Buffer(900, 3));
  failing.FailNextWrite();
  ASSERT_FALSE(cs->Commit(doomed, false).ok());
  EXPECT_GT(cs->metrics()->Snapshot().gauges["chunk.cleaner.summary_bytes"],
            summary_before);
  EXPECT_TRUE(cs->Read(fresh).status().IsNotFound());
  run(60);

  // Crash with durable commits past the last checkpoint: the reopened
  // store replays them, then rebuilds every summary from the map.
  ASSERT_TRUE(cs->Commit(WriteBatch(), true).ok());
  CrashCopy copy(env);
  cs.reset();
  opened = ChunkStore::Open(&copy.store, &env.secrets, &copy.counter, options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  cs = std::move(opened).value();
  EXPECT_GT(cs->metrics()->Snapshot().gauges["recovery.commits_replayed"], 0);
  run(60);

  EXPECT_GT(cs->Stats().cleaned_segments, 0u);
  ChunkStoreStats stats = cs->Stats();
  EXPECT_LE(max_segments, stats.live_bytes / options.segment_size * 2 + 8)
      << "live=" << stats.live_bytes;
  // Idle cleaning reaches the utilization target. A segment whose summary
  // missed a live record can never be freed, so a gap would show here.
  for (int i = 0; i < 50; i++) ASSERT_TRUE(cs->Clean(4).ok());
  stats = cs->Stats();
  EXPECT_LE(stats.total_bytes,
            stats.live_bytes / options.max_utilization +
                2 * options.segment_size)
      << "live=" << stats.live_bytes;
  cs.reset();  // Closes onto copy.store, which goes first otherwise.
}

TEST(ChunkStoreCleanerTest, StageMetricsRecorded) {
  TestEnv env;
  ChunkStoreOptions options = SmallSegments();
  options.max_utilization = 0.95;  // Cleaning only through Clean().
  auto cs = env.Open(options);
  ASSERT_TRUE(cs.ok());
  ChunkId cid = (*cs)->AllocateChunkId();
  Random rng(21);
  for (int i = 0; i < 100; i++) {
    Buffer data;
    rng.Fill(&data, 400);
    ASSERT_TRUE((*cs)->Write(cid, data, i % 10 == 0).ok());
  }
  ASSERT_TRUE((*cs)->Checkpoint().ok());
  ASSERT_TRUE((*cs)->Clean(4).ok());
  ASSERT_GT((*cs)->Stats().cleaned_segments, 0u);

  common::MetricsSnapshot snap = (*cs)->metrics()->Snapshot();
  EXPECT_GT(snap.histograms["chunk.clean_us"].count, 0u);
  EXPECT_GT(snap.histograms["chunk.checkpoint_us"].count, 0u);
  EXPECT_GT(snap.gauges["chunk.cleaner.summary_bytes"], 0);
}

// --------------------------------------------------------- cleaner policy
//
// These tests read the raw image. With security off a data record's
// payload is the chunk's plaintext, and the payloads below name their
// chunk, so a test can tell which chunk sits where.

struct ImageRecord {
  uint64_t offset = 0;
  RecordType type = RecordType::kData;
  Buffer bytes;  // Header and payload, as stored.
  size_t header = 0;
};

// The records of one segment file, in log order.
std::vector<ImageRecord> SegmentRecords(const Buffer& file) {
  std::vector<ImageRecord> records;
  uint64_t offset = kSegmentHeaderSize;
  RecordView view;
  while (offset < file.size() &&
         ParseRecord(Slice(file.data() + offset, file.size() - offset), &view)
             .ok()) {
    records.push_back(
        {offset, view.type,
         Slice(file.data() + offset, view.record_size).ToBuffer(),
         view.record_size - view.payload.size()});
    offset += view.record_size;
  }
  return records;
}

// A payload of `size` bytes that names its chunk and version.
Buffer Named(ChunkId cid, int version, size_t size) {
  std::string s =
      "chunk " + std::to_string(cid) + " v" + std::to_string(version) + " ";
  s.resize(size, '.');
  return Bytes(s);
}

// The chunk a data record's payload names.
ChunkId NamedId(const ImageRecord& record) {
  const std::string payload =
      Slice(record.bytes.data() + record.header,
            record.bytes.size() - record.header)
          .ToString();
  return std::stoull(payload.substr(6));
}

// The chunks whose data records segment file `file` holds.
std::vector<ChunkId> NamedIds(const Buffer& file) {
  std::vector<ChunkId> ids;
  for (const ImageRecord& r : SegmentRecords(file)) {
    if (r.type == RecordType::kData) ids.push_back(NamedId(r));
  }
  return ids;
}

// Security off (plaintext payloads) and cleaning only through Clean().
ChunkStoreOptions PolicyOptions() {
  ChunkStoreOptions options = SmallSegments(crypto::SecurityConfig::Disabled());
  options.max_clean_segments_per_commit = 0;
  return options;
}

TEST(ChunkStoreCleanerTest, SurvivorsStartAFreshSegment) {
  TestEnv env;
  auto opened = env.Open(PolicyOptions());
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  std::unique_ptr<ChunkStore> cs = std::move(opened).value();

  // Fill a few segments, overwrite every other chunk so they are half
  // dead, and checkpoint so they fall behind the scan position.
  std::map<ChunkId, Buffer> model;
  for (int i = 0; i < 60; i++) {
    const ChunkId cid = cs->AllocateChunkId();
    model[cid] = Named(cid, 0, 150);
    ASSERT_TRUE(cs->Write(cid, model[cid], true).ok());
  }
  for (auto it = model.begin(); it != model.end(); std::advance(it, 2)) {
    it->second = Named(it->first, 1, 150);
    ASSERT_TRUE(cs->Write(it->first, it->second, true).ok());
  }
  ASSERT_TRUE(cs->Checkpoint().ok());

  const std::map<uint32_t, Buffer> before = SegmentFiles(env.store);
  const uint32_t tail = before.rbegin()->first;
  ASSERT_TRUE(cs->Clean(1).ok());
  ChunkStoreStats stats = cs->Stats();
  ASSERT_EQ(stats.cleaned_segments, 1u);
  ASSERT_GT(stats.relocated_bytes, 0u);
  EXPECT_EQ(stats.rerelocated_bytes, 0u);  // Nothing had been moved before.

  // The tail the clean found is untouched: the survivors went to a
  // segment the clean created, starting right after its header, moved
  // verbatim from the victim.
  const std::map<uint32_t, Buffer> after = SegmentFiles(env.store);
  ASSERT_EQ(after.count(tail), 1u);
  EXPECT_EQ(after.at(tail), before.at(tail));
  auto fresh = after.upper_bound(tail);
  ASSERT_NE(fresh, after.end());
  const std::vector<ImageRecord> records = SegmentRecords(fresh->second);
  ASSERT_FALSE(records.empty());
  EXPECT_EQ(records[0].offset, kSegmentHeaderSize);
  // It holds survivors only: the relocation manifest went to the next one.
  for (const ImageRecord& r : records) ASSERT_EQ(r.type, RecordType::kData);
  std::vector<uint32_t> victims;
  for (const auto& [id, bytes] : before) {
    if (after.count(id) == 0) victims.push_back(id);
  }
  ASSERT_EQ(victims.size(), 1u);
  const Buffer& victim = before.at(victims[0]);
  EXPECT_NE(std::search(victim.begin(), victim.end(), records[0].bytes.begin(),
                        records[0].bytes.end()),
            victim.end());

  // Kill every chunk but the first survivor and clean everything
  // cleanable: that record, written by the first clean, is the only one
  // moved, so all of it counts as re-relocated.
  const ChunkId keep = NamedId(records[0]);
  WriteBatch kill;
  for (const auto& [cid, data] : model) {
    if (cid != keep) kill.Deallocate(cid);
  }
  ASSERT_TRUE(cs->Commit(kill, true).ok());
  ASSERT_TRUE(cs->Checkpoint().ok());
  ASSERT_TRUE(cs->Clean(100).ok());
  const ChunkStoreStats again = cs->Stats();
  EXPECT_EQ(SegmentFiles(env.store).count(fresh->first), 0u);
  EXPECT_EQ(again.relocated_bytes - stats.relocated_bytes, 150u);
  EXPECT_EQ(again.rerelocated_bytes - stats.rerelocated_bytes, 150u);
  auto data = cs->Read(keep);
  ASSERT_TRUE(data.ok()) << data.status().ToString();
  EXPECT_EQ(*data, model[keep]);
}

TEST(ChunkStoreCleanerTest, CostBenefitPrefersOlderSegment) {
  TestEnv env;
  auto opened = env.Open(PolicyOptions());
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  std::unique_ptr<ChunkStore> cs = std::move(opened).value();
  auto write = [&](size_t size) {
    const ChunkId cid = cs->AllocateChunkId();
    EXPECT_TRUE(cs->Write(cid, Named(cid, 0, size), true).ok());
  };
  auto segments = [&] { return cs->Stats().segments; };

  // One-chunk commits fill segment A and roll into B. B takes half as
  // many, then a record too big for its rest closes it at half A's size.
  // (104-byte chunks let whole records bring B within 2% of A's
  // utilization under v2 framing.)
  const uint64_t first = segments();
  while (segments() < first + 2) write(104);
  const uint32_t b_id = SegmentFiles(env.store).rbegin()->first;
  const uint32_t a_id = b_id - 1;
  const std::vector<ChunkId> a = NamedIds(SegmentFiles(env.store).at(a_id));
  while (NamedIds(SegmentFiles(env.store).at(b_id)).size() < a.size() / 2) {
    write(104);
  }
  write(3900);
  const std::vector<ChunkId> b = NamedIds(SegmentFiles(env.store).at(b_id));

  // Kill every other chunk of A, and as many of B's as brings it closest
  // to A's utilization. A, twice B's size, keeps twice its live bytes.
  std::set<ChunkId> dead;
  auto live_bytes = [&](uint32_t id) {
    uint64_t live = 0;
    for (const ImageRecord& r :
         SegmentRecords(SegmentFiles(env.store).at(id))) {
      if (r.type == RecordType::kData && dead.count(NamedId(r)) == 0) {
        live += r.bytes.size();
      }
    }
    return live;
  };
  auto gap = [&] {
    const std::map<uint32_t, Buffer> files = SegmentFiles(env.store);
    return std::abs(
        static_cast<double>(live_bytes(a_id)) / files.at(a_id).size() -
        static_cast<double>(live_bytes(b_id)) / files.at(b_id).size());
  };
  for (size_t i = 0; i < a.size(); i += 2) dead.insert(a[i]);
  for (ChunkId cid : b) {
    const double before = gap();
    dead.insert(cid);
    if (gap() >= before) {
      dead.erase(cid);
      break;
    }
  }
  ASSERT_LT(gap(), 0.02);
  // Least-live-first would take B.
  ASSERT_GT(live_bytes(a_id), live_bytes(b_id));
  WriteBatch kill;
  for (ChunkId cid : dead) kill.Deallocate(cid);
  ASSERT_TRUE(cs->Commit(kill, true).ok());
  ASSERT_TRUE(cs->Checkpoint().ok());

  ASSERT_TRUE(cs->Clean(1).ok());
  ASSERT_EQ(cs->Stats().cleaned_segments, 1u);
  EXPECT_EQ(SegmentFiles(env.store).count(a_id), 0u);
  EXPECT_EQ(SegmentFiles(env.store).count(b_id), 1u);
}

// Crashes at every write of one explicit Clean(4) — the flush of a
// buffered commit that rolling the tail forces, the survivors and the
// relocation manifest — at every tear bucket. Each reopened image must
// hold every acknowledged chunk and pass the scrub.
TEST(ChunkStoreCleanerTest, CrashAnywhereInACleaning) {
  struct Run {
    MemUntrustedStore base;
    FaultInjectingStore faulty{&base};
    MemSecretStore secrets;
    MemOneWayCounter counter;
    std::unique_ptr<ChunkStore> cs;
    std::map<ChunkId, Buffer> acked;  // State of the last durable commit.
    ChunkId buffered = 0;             // A nondurable write in the tail...
    Buffer buffered_data;             // ...that the crash may keep or lose.
  };
  ChunkStoreOptions options = SmallSegments();
  options.max_clean_segments_per_commit = 0;
  // The same store every time: durable writes, half of them overwritten,
  // a checkpoint, then a nondurable write left in the tail buffer.
  auto setup = [&](Run* run) {
    ASSERT_TRUE(run->secrets.Provision(Slice("crash-clean")).ok());
    auto opened = ChunkStore::Open(&run->faulty, &run->secrets, &run->counter,
                                   options);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    run->cs = std::move(opened).value();
    Random rng(23);
    std::vector<ChunkId> ids;
    for (int i = 0; i < 48; i++) ids.push_back(run->cs->AllocateChunkId());
    for (int round = 0; round < 2; round++) {
      for (size_t i = round; i < ids.size(); i += round + 1) {
        Buffer data;
        rng.Fill(&data, 200);
        run->acked[ids[i]] = data;
        ASSERT_TRUE(run->cs->Write(ids[i], data, true).ok());
      }
    }
    ASSERT_TRUE(run->cs->Checkpoint().ok());
    run->buffered = ids[0];
    rng.Fill(&run->buffered_data, 200);
    ASSERT_TRUE(run->cs->Write(ids[0], run->buffered_data, false).ok());
  };

  // Dry run: count the clean's writes and check that it rolled the tail.
  uint64_t clean_writes = 0;
  {
    Run run;
    setup(&run);
    const uint32_t tail = SegmentFiles(run.base).rbegin()->first;
    const size_t tail_records =
        SegmentRecords(SegmentFiles(run.base).at(tail)).size();
    const uint64_t writes_before = run.faulty.writes_seen();
    ASSERT_TRUE(run.cs->Clean(4).ok());
    clean_writes = run.faulty.writes_seen() - writes_before;
    ASSERT_GT(run.cs->Stats().relocated_records, 0u);
    // The old tail gained the buffered write alone; the survivors went to
    // a new segment.
    const std::map<uint32_t, Buffer> after = SegmentFiles(run.base);
    EXPECT_EQ(SegmentRecords(after.at(tail)).size(), tail_records + 1);
    EXPECT_GT(after.rbegin()->first, tail);
  }
  ASSERT_GE(clean_writes, 2u);

  int cases = 0;
  for (uint64_t index = 0; index < clean_writes; index++) {
    for (uint32_t tear = 0; tear <= 4; tear++) {
      SCOPED_TRACE("write " + std::to_string(index) + " tear " +
                   std::to_string(tear) + "/4");
      Run run;
      setup(&run);
      run.faulty.CrashAtWrite(index, tear, 4);
      EXPECT_FALSE(run.cs->Clean(4).ok());
      ASSERT_TRUE(run.faulty.crashed());
      run.cs.reset();
      run.faulty.Reboot();
      auto reopened = ChunkStore::Open(&run.faulty, &run.secrets,
                                       &run.counter, options);
      ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
      for (const auto& [cid, expected] : run.acked) {
        auto data = (*reopened)->Read(cid);
        ASSERT_TRUE(data.ok()) << cid << ": " << data.status().ToString();
        if (cid == run.buffered) {
          EXPECT_TRUE(*data == expected || *data == run.buffered_data) << cid;
        } else {
          EXPECT_EQ(*data, expected) << cid;
        }
      }
      uint64_t checked = 0;
      ASSERT_TRUE((*reopened)->VerifyIntegrity(&checked).ok());
      EXPECT_EQ(checked, run.acked.size());
      cases++;
    }
  }
  EXPECT_EQ(cases, static_cast<int>(clean_writes) * 5);
}

// ------------------------------------------------------------ map pruning

// Ids written once and then freed (2PC staging and decision records take
// fresh ids every transaction) must not grow the map: Remove prunes the
// nodes it empties and the next checkpoint obsoletes their records.
TEST(ChunkStoreMapPruneTest, FreshIdChurnKeepsMapFlat) {
  TestEnv env;
  auto cs = env.Open(SmallSegments());
  ASSERT_TRUE(cs.ok());
  const ChunkId keep = (*cs)->AllocateChunkId();
  ASSERT_TRUE((*cs)->Write(keep, Slice("kept"), true).ok());

  // Marks after 5k, 10k, 15k and 20k cycles, each right after a
  // checkpoint: live bytes, and map bytes written since the last mark.
  std::vector<uint64_t> live, map_written;
  uint64_t map_mark = (*cs)->Stats().map_bytes;
  for (int i = 1; i <= 20000; i++) {
    const ChunkId cid = (*cs)->AllocateChunkId();
    ASSERT_TRUE((*cs)->Write(cid, Slice("transient"), false).ok());
    ASSERT_TRUE((*cs)->Deallocate(cid, i % 64 == 0).ok());
    if (i % 1000 == 0) {
      ASSERT_TRUE((*cs)->Checkpoint().ok());
    }
    if (i % 5000 == 0) {
      const ChunkStoreStats stats = (*cs)->Stats();
      live.push_back(stats.live_bytes);
      map_written.push_back(stats.map_bytes - map_mark);
      map_mark = stats.map_bytes;
    }
  }
  // The tree's height is the same from 5k ids to 20k (fanout 8, root at
  // level 4), so nothing but emptied nodes could add records to it. The
  // five live records of its spine may still grow by a byte or two each,
  // as the locations they hold need longer varints: stolen ciphertext is
  // exactly as long as its plaintext, where padding used to hide that. A
  // kept emptied node would add a whole record, 38 bytes at the least.
  EXPECT_LE(live.back(), live.front() + 10);
  EXPECT_LE(map_written.back(), map_written[1] + map_written[1] / 10);
  EXPECT_EQ((*cs)->Stats().live_chunks, 1u);
}

// A pruned node stays readable for snapshots that share it, diffs to and
// from a snapshot across the prune report exactly the freed ids, and a
// prune replayed at open accounts its records the same way as a live one.
TEST(ChunkStoreMapPruneTest, PruneSurvivesReopenVerifyAndDiff) {
  TestEnv env;
  const ChunkStoreOptions options = SmallSegments();  // Fanout 8.
  auto opened = env.Open(options);
  ASSERT_TRUE(opened.ok());
  std::unique_ptr<ChunkStore> cs = std::move(opened).value();
  const ChunkId keep = cs->AllocateChunkId();
  ASSERT_TRUE(cs->Write(keep, Slice("kept"), true).ok());

  // Fills whole leaves with fresh ids; returns the ids of the full leaves.
  auto fill_leaves = [&](int n) {
    std::vector<ChunkId> full;
    WriteBatch batch;
    while (full.size() < static_cast<size_t>(8 * n)) {
      const ChunkId cid = cs->AllocateChunkId();
      batch.Write(cid, Slice("leaf-" + std::to_string(cid)));
      if (cid % 8 == 0 || !full.empty()) full.push_back(cid);
    }
    TDB_CHECK(cs->Commit(batch, true).ok());
    return full;
  };
  auto free_all = [&](const std::vector<ChunkId>& cids) {
    WriteBatch batch;
    for (ChunkId cid : cids) batch.Deallocate(cid);
    TDB_CHECK(cs->Commit(batch, true).ok());
  };

  const std::vector<ChunkId> first = fill_leaves(2);
  auto base = cs->CreateSnapshot();
  ASSERT_TRUE(base.ok());
  free_all(first);
  auto delta = cs->CreateSnapshot();
  ASSERT_TRUE(delta.ok());
  for (ChunkId cid : first) {
    EXPECT_TRUE(cs->Read(cid).status().IsNotFound());
    EXPECT_TRUE(cs->ReadAtView(**base, cid).ok()) << cid;
  }
  auto diff = [&](const Snapshot& from, const Snapshot& to) {
    std::map<ChunkId, DiffKind> changes;
    TDB_CHECK(cs->DiffSnapshots(from, to,
                                [&](ChunkId cid, DiffKind kind,
                                    const MapEntry&) {
                                  changes[cid] = kind;
                                  return Status::OK();
                                })
                  .ok());
    return changes;
  };
  std::map<ChunkId, DiffKind> removed, added;
  for (ChunkId cid : first) {
    removed[cid] = DiffKind::kRemoved;
    added[cid] = DiffKind::kAdded;
  }
  EXPECT_EQ(diff(**base, **delta), removed);
  EXPECT_EQ(diff(**delta, **base), added);
  base->reset();
  delta->reset();

  // Prune after the last checkpoint, then crash: the replay prunes again.
  const std::vector<ChunkId> second = fill_leaves(1);
  ASSERT_TRUE(cs->Checkpoint().ok());
  free_all(second);
  const uint64_t live_chunks = cs->Stats().live_chunks;
  CrashCopy copy(env);
  cs.reset();
  uint64_t live_after_replay = 0;
  for (int open = 0; open < 2; open++) {
    opened = ChunkStore::Open(&copy.store, &env.secrets, &copy.counter,
                              options);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    cs = std::move(opened).value();
    if (open == 0) {
      EXPECT_GT(
          cs->metrics()->Snapshot().gauges["recovery.commits_replayed"], 0);
      live_after_replay = cs->Stats().live_bytes;
    } else {
      // The second open rebuilds accounting from the checkpointed tree
      // alone; a pruned record counted wrongly at the first would show.
      EXPECT_EQ(cs->Stats().live_bytes, live_after_replay);
    }
    uint64_t checked = 0;
    ASSERT_TRUE(cs->VerifyIntegrity(&checked).ok());
    EXPECT_EQ(checked, live_chunks);
    EXPECT_EQ(Slice(*cs->Read(keep)).ToString(), "kept");
    for (ChunkId cid : second) {
      EXPECT_TRUE(cs->Read(cid).status().IsNotFound());
    }
    ASSERT_TRUE(cs->Close().ok());
  }
}

}  // namespace
}  // namespace tdb::chunk
