// Large-object edge cases: part-boundary sizes (exact multiple, one byte
// over/under), the mid-stream-crash contract (no partial object is ever
// visible), and tamper detection on an interior part chunk.

#include "object/large_object.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <vector>

#include "chunk/chunk_store.h"
#include "common/check.h"
#include "crypto/cipher_suite.h"
#include "harness/region_map.h"
#include "platform/fault_injection.h"
#include "platform/mem_store.h"
#include "platform/one_way_counter.h"
#include "platform/secret_store.h"
#include "workload/workload.h"

namespace tdb::object {
namespace {

constexpr uint32_t kPartBytes = 256;

struct Env {
  platform::MemUntrustedStore base;
  platform::FaultInjectingStore faulty{&base};
  platform::MemSecretStore secrets;
  platform::MemOneWayCounter counter;
  std::unique_ptr<chunk::ChunkStore> chunks;
  std::unique_ptr<ObjectStore> objects;
  bool compression;

  explicit Env(bool compress = false, bool open = true)
      : compression(compress) {
    TDB_CHECK(secrets.Provision(Slice("lob-test-secret")).ok());
    if (open) {
      Status opened = OpenAll();
      TDB_CHECK(opened.ok(), opened.ToString());
    }
  }

  Status OpenAll() {
    objects.reset();
    chunks.reset();
    chunk::ChunkStoreOptions copts;
    copts.security = crypto::SecurityConfig::Modern();
    copts.segment_size = 8 * 1024;
    copts.map_fanout = 8;
    copts.compression = compression;
    auto cs = chunk::ChunkStore::Open(&faulty, &secrets, &counter, copts);
    TDB_RETURN_IF_ERROR(cs.status());
    chunks = std::move(cs).value();
    auto os = ObjectStore::Open(chunks.get());
    TDB_RETURN_IF_ERROR(os.status());
    objects = std::move(os).value();
    return RegisterLargeObjectClasses(objects.get());
  }

  void Restart() {
    TDB_CHECK(chunks->Close().ok());
    Status opened = OpenAll();
    TDB_CHECK(opened.ok(), opened.ToString());
  }

  /// Simulated power failure: drop the stack without Close(), clear the
  /// injected fault, reopen (recovery).
  Status Reboot() {
    objects.reset();
    chunks.reset();
    faulty.Reboot();
    return OpenAll();
  }
};

Buffer TestValue(uint64_t seed, size_t size) {
  return workload::ValuePayload(seed, static_cast<uint32_t>(size));
}

/// Writes `value` as a large object, anchors the manifest under `root`,
/// commits durably. Returns the manifest oid.
Result<ObjectId> WriteAnchored(Env* env, const std::string& root,
                               uint64_t tag, const Buffer& value,
                               size_t append_step) {
  LargeObjectWriter writer(env->objects.get(), kPartBytes);
  for (size_t off = 0; off < value.size(); off += append_step) {
    size_t n = std::min(append_step, value.size() - off);
    TDB_RETURN_IF_ERROR(writer.Append(Slice(value.data() + off, n)));
  }
  TDB_ASSIGN_OR_RETURN(std::unique_ptr<LargeObjectManifest> manifest,
                       writer.Finish(tag));
  Transaction txn(env->objects.get());
  TDB_ASSIGN_OR_RETURN(ObjectId oid, txn.Insert(std::move(manifest)));
  TDB_RETURN_IF_ERROR(env->objects->SetNamedRoot(root, oid));
  TDB_RETURN_IF_ERROR(txn.Commit(/*durable=*/true));
  return oid;
}

Status ReadBack(Env* env, ObjectId oid, Buffer* out) {
  ReadTransaction txn(env->objects.get());
  LargeObjectReader reader(&txn);
  TDB_RETURN_IF_ERROR(reader.Open(oid));
  return reader.ReadAll(out);
}

/// GetNamedRoot returns OK with kInvalidObjectId for an absent root; a
/// root may also dangle (point at a never-committed manifest) when a
/// crash separates the header write from the manifest commit. Both mean
/// "no object visible".
Result<ObjectId> VisibleRoot(Env* env, const std::string& root) {
  TDB_ASSIGN_OR_RETURN(ObjectId oid, env->objects->GetNamedRoot(root));
  if (oid == kInvalidObjectId) return Status::NotFound("no root");
  ReadTransaction txn(env->objects.get());
  auto manifest = txn.Take<LargeObjectManifest>(oid);
  TDB_RETURN_IF_ERROR(manifest.status());  // NotFound: dangling root.
  return oid;
}

// --- Part-boundary sizes ---------------------------------------------------

class BoundarySizeTest : public ::testing::TestWithParam<bool> {};

TEST_P(BoundarySizeTest, ExactMultipleOneOverOneUnder) {
  Env env(GetParam());
  struct Case {
    size_t size;
    size_t want_parts;
  };
  const Case cases[] = {
      {0, 0},                      // Empty object: manifest only.
      {1, 1},                      // Minimal.
      {kPartBytes - 1, 1},         // One byte under one part.
      {kPartBytes, 1},             // Exactly one part.
      {kPartBytes + 1, 2},         // One byte over: short second part.
      {3 * kPartBytes, 3},         // Exact multiple.
      {3 * kPartBytes + 1, 4},     // One over the multiple.
      {3 * kPartBytes - 1, 3},     // One under the multiple.
  };
  uint64_t tag = 1;
  for (const Case& c : cases) {
    SCOPED_TRACE("size=" + std::to_string(c.size));
    Buffer value = TestValue(90 + tag, c.size);
    // Odd append step so appends straddle part boundaries.
    auto oid = WriteAnchored(&env, "lob-" + std::to_string(tag), tag, value,
                             kPartBytes / 3 + 7);
    ASSERT_TRUE(oid.ok()) << oid.status().ToString();

    ReadTransaction txn(env.objects.get());
    LargeObjectReader reader(&txn);
    ASSERT_TRUE(reader.Open(*oid).ok());
    EXPECT_EQ(reader.size(), c.size);
    ASSERT_NE(reader.manifest(), nullptr);
    EXPECT_EQ(reader.manifest()->parts().size(), c.want_parts);

    // Chunked read with a buffer that never aligns with part boundaries.
    Buffer got;
    uint8_t buf[kPartBytes / 2 + 3];
    while (true) {
      auto n = reader.Read(buf, sizeof(buf));
      ASSERT_TRUE(n.ok()) << n.status().ToString();
      if (*n == 0) break;
      got.insert(got.end(), buf, buf + *n);
    }
    EXPECT_TRUE(got == value) << "streamed bytes differ at size " << c.size;
    tag++;
  }

  // All objects survive a clean restart byte-for-byte.
  env.Restart();
  tag = 1;
  for (const Case& c : cases) {
    SCOPED_TRACE("reopen size=" + std::to_string(c.size));
    auto oid = env.objects->GetNamedRoot("lob-" + std::to_string(tag));
    ASSERT_TRUE(oid.ok()) << oid.status().ToString();
    Buffer got;
    ASSERT_TRUE(ReadBack(&env, *oid, &got).ok());
    EXPECT_TRUE(got == TestValue(90 + tag, c.size));
    tag++;
  }
}

INSTANTIATE_TEST_SUITE_P(Codec, BoundarySizeTest, ::testing::Bool(),
                         [](const auto& info) {
                           return info.param ? std::string("On")
                                             : std::string("Off");
                         });

TEST(LargeObjectTest, ReadAllAfterPartialReadReturnsRemainder) {
  Env env;
  Buffer value = TestValue(7, 2 * kPartBytes + 17);
  auto oid = WriteAnchored(&env, "lob-partial", 7, value, 100);
  ASSERT_TRUE(oid.ok());

  ReadTransaction txn(env.objects.get());
  LargeObjectReader reader(&txn);
  ASSERT_TRUE(reader.Open(*oid).ok());
  uint8_t buf[19];
  auto n = reader.Read(buf, sizeof(buf));
  ASSERT_TRUE(n.ok());
  ASSERT_EQ(*n, sizeof(buf));
  Buffer rest;
  ASSERT_TRUE(reader.ReadAll(&rest).ok());
  EXPECT_EQ(rest.size(), value.size() - sizeof(buf));
  EXPECT_TRUE(Slice(rest) == Slice(value.data() + sizeof(buf), rest.size()));
}

TEST(LargeObjectTest, RemoveFreesManifestAndParts) {
  Env env;
  Buffer value = TestValue(8, 3 * kPartBytes);
  auto oid = WriteAnchored(&env, "lob-rm", 8, value, 333);
  ASSERT_TRUE(oid.ok());
  std::vector<ObjectId> parts;
  {
    ReadTransaction txn(env.objects.get());
    LargeObjectReader reader(&txn);
    ASSERT_TRUE(reader.Open(*oid).ok());
    parts = reader.manifest()->parts();
  }
  {
    Transaction txn(env.objects.get());
    ASSERT_TRUE(RemoveLargeObject(&txn, *oid).ok());
    ASSERT_TRUE(txn.Commit(true).ok());
  }
  // Manifest and every part are gone.
  ReadTransaction txn(env.objects.get());
  EXPECT_TRUE(txn.Take<LargeObjectManifest>(*oid).status().IsNotFound());
  for (ObjectId part : parts) {
    EXPECT_TRUE(txn.Take<LargeObjectPart>(part).status().IsNotFound());
  }
}

// --- Mid-stream crash ------------------------------------------------------

TEST(LargeObjectCrashTest, MidStreamCrashLeavesNoPartialObject) {
  Env env;
  // A committed object that must survive unharmed.
  Buffer stable = TestValue(1, 2 * kPartBytes + 5);
  auto stable_oid = WriteAnchored(&env, "lob-stable", 1, stable, 97);
  ASSERT_TRUE(stable_oid.ok()) << stable_oid.status().ToString();

  // Stream a second object and commit its manifest. Appended parts are
  // nondurable commits that buffer into the open commit group, so they
  // reach the store only with the manifest's durable flush (or a segment
  // roll).
  Buffer doomed = TestValue(2, 6 * kPartBytes);
  auto stream_doomed = [&doomed](Env* e) -> Status {
    LargeObjectWriter writer(e->objects.get(), kPartBytes);
    for (size_t off = 0; off < doomed.size(); off += 64) {
      TDB_RETURN_IF_ERROR(writer.Append(Slice(doomed.data() + off, 64)));
    }
    TDB_ASSIGN_OR_RETURN(std::unique_ptr<LargeObjectManifest> manifest,
                         writer.Finish(2));
    Transaction txn(e->objects.get());
    TDB_ASSIGN_OR_RETURN(ObjectId oid, txn.Insert(std::move(manifest)));
    TDB_RETURN_IF_ERROR(e->objects->SetNamedRoot("lob-doomed", oid));
    return txn.Commit(true);
  };
  // Count the writes that sequence takes on a probe environment, then
  // crash (torn) at the middle one.
  uint64_t doomed_writes = 0;
  {
    Env probe;
    ASSERT_TRUE(WriteAnchored(&probe, "lob-stable", 1, stable, 97).ok());
    const uint64_t before = probe.faulty.writes_seen();
    ASSERT_TRUE(stream_doomed(&probe).ok());
    doomed_writes = probe.faulty.writes_seen() - before;
  }
  ASSERT_GT(doomed_writes, 0u);
  env.faulty.CrashAtWrite(/*index=*/doomed_writes / 2, /*tear_num=*/2,
                          /*tear_den=*/4);
  Status streamed = stream_doomed(&env);
  ASSERT_FALSE(streamed.ok()) << "crash never fired";
  ASSERT_TRUE(env.faulty.crashed());

  // Recovery: the stable object is intact; the doomed one does not exist
  // in any form — its manifest was never committed, so no root resolves
  // and no partial state is reachable.
  ASSERT_TRUE(env.Reboot().ok());
  auto recovered_oid = env.objects->GetNamedRoot("lob-stable");
  ASSERT_TRUE(recovered_oid.ok());
  Buffer got;
  ASSERT_TRUE(ReadBack(&env, *recovered_oid, &got).ok());
  EXPECT_TRUE(got == stable);
  EXPECT_TRUE(VisibleRoot(&env, "lob-doomed").status().IsNotFound());
  uint64_t checked = 0;
  EXPECT_TRUE(env.chunks->VerifyIntegrity(&checked).ok());
}

TEST(LargeObjectCrashTest, CrashSweepOverManifestCommitWindow) {
  // Exhaustively crash at every write index of a small streamed commit;
  // after each recovery the object is either fully present (bit-exact) or
  // fully absent. Never partial.
  Buffer value = TestValue(3, 2 * kPartBytes + 31);
  uint64_t total_writes = 0;
  {
    Env probe;
    uint64_t before = probe.faulty.writes_seen();
    ASSERT_TRUE(WriteAnchored(&probe, "lob-x", 3, value, 77).ok());
    total_writes = probe.faulty.writes_seen() - before;
  }
  ASSERT_GT(total_writes, 0u);
  uint64_t full = 0, absent = 0;
  for (uint64_t index = 0; index < total_writes; index++) {
    for (uint32_t tear_num : {0u, 2u, 4u}) {
      SCOPED_TRACE("crash at write " + std::to_string(index) + " tear " +
                   std::to_string(tear_num) + "/4");
      Env env;
      env.faulty.CrashAtWrite(index, tear_num, 4);
      auto written = WriteAnchored(&env, "lob-x", 3, value, 77);
      ASSERT_FALSE(written.ok());
      ASSERT_TRUE(env.Reboot().ok());
      auto oid = VisibleRoot(&env, "lob-x");
      if (oid.ok()) {
        Buffer got;
        ASSERT_TRUE(ReadBack(&env, *oid, &got).ok())
            << "visible object must be fully readable";
        ASSERT_TRUE(got == value) << "visible object must be bit-exact";
        full++;
      } else {
        ASSERT_TRUE(oid.status().IsNotFound()) << oid.status().ToString();
        absent++;
      }
    }
  }
  // The commit point sits inside the window, so both outcomes occur: a
  // crash whose final write fully persisted (tear 4/4 at the commit
  // point) recovers the whole object; earlier crashes recover none of it.
  EXPECT_GT(absent, 0u);
  EXPECT_GT(full, 0u);
  std::cout << "LOB-CRASH-SWEEP writes=" << total_writes << " full=" << full
            << " absent=" << absent << std::endl;
}

// --- Tampered interior part ------------------------------------------------

TEST(LargeObjectTamperTest, TamperedMiddlePartIsDetected) {
  platform::MemUntrustedStore::Image image;
  uint64_t counter_value = 0;
  Buffer value = TestValue(4, 3 * kPartBytes);  // Exactly parts 0,1,2.
  {
    Env env;
    ASSERT_TRUE(WriteAnchored(&env, "lob-t", 4, value, 123).ok());
    ASSERT_TRUE(env.chunks->Close().ok());
    image = env.base.SnapshotImage();
    counter_value = env.counter.Read().value();
  }

  std::vector<harness::TamperRegion> payloads;
  for (const harness::TamperRegion& region : harness::ClassifyImage(image)) {
    if (region.cls == harness::RegionClass::kChunkPayload) {
      payloads.push_back(region);
    }
  }
  // At least the three part chunks plus the manifest (the image may also
  // hold object-store header versions, themselves sealed payloads).
  ASSERT_GE(payloads.size(), 4u) << "expected >= 3 parts + manifest";

  uint64_t detected = 0, masked = 0;
  for (size_t i = 0; i < payloads.size(); i++) {
    SCOPED_TRACE("payload region " + std::to_string(i));
    // Fresh stack over the tampered image, with the trusted state (secret
    // + one-way counter) carried over — tamper evaluation is meaningless
    // if the replay defense starts from a virgin counter.
    Env env(/*compress=*/false, /*open=*/false);
    platform::MemUntrustedStore::Image copy = image;
    auto& bytes = copy[payloads[i].file];
    bytes[payloads[i].offset + payloads[i].length / 2] ^= 0x40;
    env.base.RestoreImage(std::move(copy));
    while (env.counter.Read().value() < counter_value) {
      ASSERT_TRUE(env.counter.Increment().ok());
    }
    Status status = env.OpenAll();
    if (status.ok()) {
      auto oid = VisibleRoot(&env, "lob-t");
      if (oid.ok()) {
        Buffer got;
        status = ReadBack(&env, *oid, &got);
        if (status.ok()) {
          // Never silent: a readable object must be bit-exact. (Flipping
          // a superseded chunk version the live tree no longer references
          // may be fully masked.)
          ASSERT_TRUE(got == value) << "silent corruption of payload " << i;
          masked++;
          continue;
        }
      } else {
        status = oid.status();
      }
    }
    EXPECT_TRUE(status.IsTamperDetected() || status.IsReplayDetected() ||
                status.IsCorruption())
        << "payload " << i << ": " << status.ToString();
    detected++;
  }
  EXPECT_EQ(detected + masked, payloads.size());
  // The three part chunks and the manifest are all on the read path, so
  // at least those four flips must be detected — which covers the middle
  // part in particular.
  EXPECT_GE(detected, 4u);
  std::cout << "LOB-TAMPER payloads=" << payloads.size()
            << " detected=" << detected << " masked=" << masked << std::endl;
}

}  // namespace
}  // namespace tdb::object
