// The log format v3 (seal numbers in place of stored IVs, cid-only
// manifests, ciphertext stealing, CRC-32C frames) as the chunk store
// writes and recovers it, and the v1 and v2 images it must still open and
// upgrade: golden images written by the last v1 and v2 writers
// (tests/data/golden_v1_image and golden_v2_image, see make_image.cc in
// each), including a crash at every write of the upgrade.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <ostream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "chunk/chunk_store.h"
#include "chunk/log_format.h"
#include "chunk_test_env.h"
#include "common/coding.h"
#include "common/crc32c.h"
#include "common/metrics.h"
#include "common/random.h"
#include "platform/fault_injection.h"

namespace tdb::chunk {
namespace {

// One record of a segment file, parsed in the format its header names.
struct Frame {
  uint32_t segment = 0;
  uint64_t offset = 0;
  LogVersion version = LogVersion::kV3;
  RecordType type = RecordType::kData;
  uint8_t flags = 0;
  size_t header = 0;
  Buffer payload;
};

std::vector<Frame> Frames(const MemUntrustedStore& store) {
  std::vector<Frame> frames;
  for (const auto& [id, file] : SegmentFiles(store)) {
    uint32_t seg_id;
    LogVersion version;
    if (!DecodeSegmentHeader(file, &seg_id, &version).ok()) continue;
    uint64_t pos = kSegmentHeaderSize;
    RecordView view;
    while (pos < file.size() &&
           ParseRecord(Slice(file.data() + pos, file.size() - pos), &view,
                       version)
               .ok()) {
      frames.push_back({id, pos, version, view.type, view.flags,
                        view.record_size - view.payload.size(),
                        Slice(view.payload).ToBuffer()});
      pos += view.record_size;
    }
  }
  return frames;
}

// Rewrites `frame` in `store` with `edit` applied to its bytes (type byte
// first), then recomputes its CRC-32C the way an attacker who knows the
// format would, so only the cryptographic checks stand in the way.
template <typename Edit>
void RewriteFrame(MemUntrustedStore* store, const Frame& frame, Edit edit) {
  MemUntrustedStore::Image image = store->SnapshotImage();
  Buffer& file = image["seg-" + std::to_string(frame.segment)];
  uint8_t* record = file.data() + frame.offset;
  edit(record, record + frame.header);
  const size_t crc_at = frame.header - 4;
  uint32_t crc = Crc32cExtend(0, record, crc_at);
  crc = Crc32cExtend(crc, record + frame.header, frame.payload.size());
  Buffer crc_bytes;
  PutFixed32(&crc_bytes, crc);
  std::copy(crc_bytes.begin(), crc_bytes.end(), record + crc_at);
  store->RestoreImage(std::move(image));
}

size_t SegmentsOf(const MemUntrustedStore& store, LogVersion version) {
  size_t n = 0;
  for (const auto& [id, file] : SegmentFiles(store)) {
    uint32_t seg_id;
    LogVersion v;
    if (DecodeSegmentHeader(file, &seg_id, &v).ok() && v == version) n++;
  }
  return n;
}

// Segments of a format older than v3.
size_t LegacySegments(const MemUntrustedStore& store) {
  return SegmentsOf(store, LogVersion::kV1) +
         SegmentsOf(store, LogVersion::kV2);
}

Buffer RandomBytes(uint64_t seed, size_t size) {
  Random rng(seed);
  Buffer out;
  rng.Fill(&out, size);
  return out;
}

// ------------------------------------------------------- golden images

struct GoldenImage {
  MemUntrustedStore store;
  MemSecretStore secrets;
  MemOneWayCounter counter;
  std::map<ChunkId, Buffer> live;  // The durable prefix's chunks.
  std::set<ChunkId> gone;          // Deallocated or never durable.
};

Buffer ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  TDB_CHECK(in.good(), "missing fixture file");
  return Buffer(std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>());
}

Buffer FromHex(const std::string& hex) {
  Buffer out;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(
        static_cast<uint8_t>(std::stoi(hex.substr(i, 2), nullptr, 16)));
  }
  return out;
}

// A golden image: its directory under tests/data, the secret and the
// options it was written with.
struct GoldenSpec {
  const char* name;
  const char* dir;
  const char* secret;
  ChunkStoreOptions options;
};

// The options the v1 image was written with. v1 images do not record the
// map fanout, so it must be given.
ChunkStoreOptions GoldenOptions() {
  ChunkStoreOptions options;  // SHA-1 + 3DES.
  options.segment_size = 4 * 1024;
  options.map_fanout = 8;
  options.compression = true;
  return options;
}

// Prints a spec by its name. gtest would otherwise print its raw bytes,
// which hold string addresses that move from run to run, so the listed
// test names would never repeat.
void PrintTo(const GoldenSpec& spec, std::ostream* os) { *os << spec.name; }

GoldenSpec GoldenV1() {
  return {"V1", "golden_v1_image", "golden-v1-secret", GoldenOptions()};
}

// The v2 image records its fanout (8), so it opens with 0.
GoldenSpec GoldenV2() {
  ChunkStoreOptions options;
  options.security = crypto::SecurityConfig::Modern();
  options.segment_size = 4 * 1024;
  options.compression = true;
  return {"V2", "golden_v2_image", "golden-v2-secret", options};
}

void LoadGolden(GoldenImage* golden, const GoldenSpec& spec = GoldenV1()) {
  const std::string dir =
      std::string(TDB_TEST_DATA_DIR) + "/" + spec.dir + "/";
  MemUntrustedStore::Image image;
  for (const auto& file : std::filesystem::directory_iterator(dir)) {
    const std::string name = file.path().filename().string();
    if (name.rfind("anchor-", 0) == 0 || name.rfind("seg-", 0) == 0) {
      image[name] = ReadFile(dir + name);
    }
  }
  golden->store.RestoreImage(std::move(image));
  TDB_CHECK(golden->secrets.Provision(Slice(spec.secret)).ok());
  uint64_t value = std::stoull(Slice(ReadFile(dir + "counter")).ToString());
  while (*golden->counter.Read() < value) {
    TDB_CHECK(golden->counter.Increment().ok());
  }
  std::istringstream expected(Slice(ReadFile(dir + "expected")).ToString());
  std::string line;
  while (std::getline(expected, line)) {
    std::istringstream fields(line);
    std::string first, second;
    fields >> first >> second;
    if (first == "gone") {
      golden->gone.insert(std::stoull(second));
    } else {
      golden->live[std::stoull(first)] = FromHex(second);
    }
  }
}

void ExpectChunks(ChunkStore* cs, const GoldenImage& golden) {
  for (const auto& [cid, data] : golden.live) {
    auto got = cs->Read(cid);
    ASSERT_TRUE(got.ok()) << cid << ": " << got.status().ToString();
    EXPECT_EQ(*got, data) << cid;
  }
  for (ChunkId cid : golden.gone) {
    EXPECT_TRUE(cs->Read(cid).status().IsNotFound()) << cid;
  }
  uint64_t checked = 0;
  ASSERT_TRUE(cs->VerifyIntegrity(&checked).ok());
  EXPECT_EQ(checked, golden.live.size());
}

TEST(LogFormatV1Test, GoldenImageRecoversVerifiesAndCleansIntoV2) {
  GoldenImage golden;
  LoadGolden(&golden);
  ASSERT_GT(golden.live.size(), 30u);
  ASSERT_FALSE(golden.gone.empty());
  // seg-3 to seg-10; seg-11, which the nondurable tail rolled into, is
  // still empty.
  const size_t v1_segments = SegmentsOf(golden.store, LogVersion::kV1);
  ASSERT_EQ(v1_segments, 8u);
  ASSERT_EQ(SegmentsOf(golden.store, LogVersion::kV2), 0u);

  auto registry = std::make_shared<common::MetricsRegistry>();
  ChunkStoreOptions options = GoldenOptions();
  options.metrics = registry;
  {
    auto opened = ChunkStore::Open(&golden.store, &golden.secrets,
                                   &golden.counter, options);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    std::unique_ptr<ChunkStore> cs = std::move(opened).value();
    // The residual log's durable commits were replayed and its
    // nondurable tail dropped, and the upgrade at open re-sealed every
    // live record into v3 segments and dropped the v1 ones (cleaning
    // alone left a dense one behind).
    EXPECT_GT(registry->Snapshot().gauges["recovery.commits_replayed"], 0);
    EXPECT_EQ(LegacySegments(golden.store), 0u);
    EXPECT_GT(SegmentsOf(golden.store, LogVersion::kV3), 0u);
    ExpectChunks(cs.get(), golden);

    // Free every other chunk, so the v1 segments fall below the
    // utilization target, and clean: survivors move into v2 segments.
    WriteBatch kill;
    bool odd = false;
    for (auto it = golden.live.begin(); it != golden.live.end();) {
      if ((odd = !odd)) {
        kill.Deallocate(it->first);
        golden.gone.insert(it->first);
        it = golden.live.erase(it);
      } else {
        ++it;
      }
    }
    ASSERT_TRUE(cs->Commit(kill, true).ok());
    ASSERT_TRUE(cs->Checkpoint().ok());
    for (int i = 0; i < 10; i++) ASSERT_TRUE(cs->Clean(8).ok());
    EXPECT_GT(cs->Stats().relocated_records, 0u);
    EXPECT_LT(SegmentsOf(golden.store, LogVersion::kV1), v1_segments);
    ExpectChunks(cs.get(), golden);
    ASSERT_TRUE(cs->Close().ok());
  }

  // The upgraded image records its fanout: default options open it.
  options.map_fanout = 0;
  auto reopened = ChunkStore::Open(&golden.store, &golden.secrets,
                                   &golden.counter, options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->options().map_fanout, 8u);
  ExpectChunks(reopened->get(), golden);
  EXPECT_EQ(registry->audit().size(), 0u);
}

TEST(LogFormatV1Test, GoldenImageCrashDuringUpgradeReopens) {
  // A crash after the first v3 segment exists but before anything in it
  // is durable: the next open still sees a v1 anchor, drops the stray v3
  // segment and upgrades again.
  GoldenImage golden;
  LoadGolden(&golden);
  {
    MemUntrustedStore::Image image = golden.store.SnapshotImage();
    image["seg-12"] = EncodeSegmentHeader(12);
    golden.store.RestoreImage(std::move(image));
  }
  auto opened = ChunkStore::Open(&golden.store, &golden.secrets,
                                 &golden.counter, GoldenOptions());
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  ExpectChunks(opened->get(), golden);
  EXPECT_EQ(LegacySegments(golden.store), 0u);
}

TEST(LogFormatV2Test, GoldenImageUpgradesAtOpenAndReopens) {
  GoldenImage golden;
  LoadGolden(&golden, GoldenV2());
  ASSERT_GT(golden.live.size(), 30u);
  ASSERT_FALSE(golden.gone.empty());
  ASSERT_EQ(SegmentsOf(golden.store, LogVersion::kV2), 8u);
  auto registry = std::make_shared<common::MetricsRegistry>();
  ChunkStoreOptions options = GoldenV2().options;
  options.metrics = registry;
  {
    auto opened = ChunkStore::Open(&golden.store, &golden.secrets,
                                   &golden.counter, options);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    EXPECT_GT(registry->Snapshot().gauges["recovery.commits_replayed"], 0);
    EXPECT_EQ(LegacySegments(golden.store), 0u);
    EXPECT_EQ((*opened)->options().map_fanout, 8u);
    ExpectChunks(opened->get(), golden);
    ASSERT_TRUE((*opened)->Close().ok());
  }
  auto reopened = ChunkStore::Open(&golden.store, &golden.secrets,
                                   &golden.counter, options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  ExpectChunks(reopened->get(), golden);
  EXPECT_EQ(registry->audit().size(), 0u);
}

// A crash at every write the upgrading open makes (each torn at none,
// half and all of its bytes), then a reboot: the next open reaches the
// golden contents and a fully upgraded image, and so does the one after.
class GoldenUpgradeCrashTest : public ::testing::TestWithParam<GoldenSpec> {};

TEST_P(GoldenUpgradeCrashTest, CrashAnywhereInTheUpgrade) {
  const GoldenSpec& spec = GetParam();
  uint64_t open_writes = 0;
  {
    GoldenImage golden;
    LoadGolden(&golden, spec);
    platform::FaultInjectingStore faulty(&golden.store);
    auto opened = ChunkStore::Open(&faulty, &golden.secrets, &golden.counter,
                                   spec.options);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    open_writes = faulty.writes_seen();
  }
  ASSERT_GE(open_writes, 4u);
  int cases = 0;
  for (uint64_t index = 0; index < open_writes; index++) {
    for (uint32_t tear : {0u, 2u, 4u}) {
      SCOPED_TRACE("write " + std::to_string(index) + " tear " +
                   std::to_string(tear) + "/4");
      GoldenImage golden;
      LoadGolden(&golden, spec);
      {
        platform::FaultInjectingStore faulty(&golden.store);
        faulty.CrashAtWrite(index, tear, 4);
        auto crashed = ChunkStore::Open(&faulty, &golden.secrets,
                                        &golden.counter, spec.options);
        EXPECT_FALSE(crashed.ok());
        EXPECT_TRUE(faulty.crashed());
      }
      for (int open = 0; open < 2; open++) {
        auto opened = ChunkStore::Open(&golden.store, &golden.secrets,
                                       &golden.counter, spec.options);
        ASSERT_TRUE(opened.ok()) << opened.status().ToString();
        EXPECT_EQ(LegacySegments(golden.store), 0u);
        ExpectChunks(opened->get(), golden);
        ASSERT_TRUE((*opened)->Close().ok());
      }
      cases++;
    }
  }
  EXPECT_EQ(cases, static_cast<int>(open_writes * 3));
}

INSTANTIATE_TEST_SUITE_P(Golden, GoldenUpgradeCrashTest,
                         ::testing::Values(GoldenV1(), GoldenV2()),
                         [](const auto& info) {
                           return std::string(info.param.name);
                         });

// ------------------------------------------------------- v3 as written

TEST(LogFormatTest, DataRecordsStealCiphertextAboveOneBlock) {
  // AES-128: the seal number (one varint byte this early in a store's
  // life), then the ciphertext. Above one block it is as long as the
  // plaintext; up to one block it is padded, one block more for a whole
  // block. Frames are type, a one-byte length and a CRC.
  TestEnv env;
  ChunkStoreOptions options = SmallSegments();
  options.cache_bytes = 0;
  auto opened = env.Open(options);
  ASSERT_TRUE(opened.ok());
  std::unique_ptr<ChunkStore> cs = std::move(opened).value();
  const std::pair<size_t, size_t> kSizes[] = {
      {100, 6 + 1 + 100}, {17, 6 + 1 + 17}, {16, 6 + 1 + 32},
      {10, 6 + 1 + 16},   {0, 6 + 1 + 16}};
  for (const auto& [size, record] : kSizes) {
    const ChunkId cid = cs->AllocateChunkId();
    const uint64_t before = cs->Stats().data_bytes;
    ASSERT_TRUE(cs->Write(cid, RandomBytes(size, size), true).ok());
    EXPECT_EQ(cs->Stats().data_bytes - before, record) << "size " << size;
    auto back = cs->Read(cid);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_EQ(*back, RandomBytes(size, size));
  }
}

TEST(LogFormatTest, MapFanoutIsRecordedInTheImage) {
  TestEnv env;
  {
    auto cs = env.Open(SmallSegments());  // Fanout 8.
    ASSERT_TRUE(cs.ok());
    for (int i = 0; i < 100; i++) {
      ASSERT_TRUE(
          (*cs)->Write((*cs)->AllocateChunkId(), Slice("x"), i % 9 == 0).ok());
    }
    ASSERT_TRUE((*cs)->Close().ok());
  }
  ChunkStoreOptions options = SmallSegments();
  options.map_fanout = 16;
  auto mismatch = env.Open(options);
  EXPECT_EQ(mismatch.status().code(), Status::Code::kInvalidArgument)
      << mismatch.status().ToString();
  options.map_fanout = 0;
  auto taken = env.Open(options);
  ASSERT_TRUE(taken.ok()) << taken.status().ToString();
  EXPECT_EQ((*taken)->options().map_fanout, 8u);
  uint64_t checked = 0;
  ASSERT_TRUE((*taken)->VerifyIntegrity(&checked).ok());
  EXPECT_EQ(checked, 100u);
}

TEST(LogFormatTest, CommitSpanningASegmentRollRecovers) {
  TestEnv env;
  auto opened = env.Open(SmallSegments());
  ASSERT_TRUE(opened.ok());
  std::unique_ptr<ChunkStore> cs = std::move(opened).value();
  WriteBatch batch;
  std::map<ChunkId, Buffer> model;
  for (int i = 0; i < 10; i++) {
    const ChunkId cid = cs->AllocateChunkId();
    model[cid] = RandomBytes(cid, 1000);
    batch.Write(cid, model[cid]);
  }
  ASSERT_TRUE(cs->Commit(batch, true).ok());
  // The commit's records span three segments or more; its manifest
  // follows them in the last.
  std::set<uint32_t> spanned;
  for (const Frame& f : Frames(env.store)) {
    if (f.type == RecordType::kData) spanned.insert(f.segment);
  }
  EXPECT_GE(spanned.size(), 3u);

  CrashCopy copy(env);  // The commit is in the residual log.
  auto registry = std::make_shared<common::MetricsRegistry>();
  ChunkStoreOptions options = SmallSegments();
  options.metrics = registry;
  auto reopened =
      ChunkStore::Open(&copy.store, &env.secrets, &copy.counter, options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(registry->Snapshot().gauges["recovery.chunks_replayed"], 10);
  for (const auto& [cid, data] : model) {
    auto got = (*reopened)->Read(cid);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(*got, data);
  }
}

TEST(LogFormatTest, DeadRecordsOfAFailedBatchAreSkipped) {
  // Security off, so the manifests are readable here.
  TestEnv env;
  FailOneWriteStore failing(&env.store);
  const ChunkStoreOptions options =
      SmallSegments(crypto::SecurityConfig::Disabled());
  auto opened =
      ChunkStore::Open(&failing, &env.secrets, &env.counter, options);
  ASSERT_TRUE(opened.ok());
  std::unique_ptr<ChunkStore> cs = std::move(opened).value();
  const ChunkId kept = cs->AllocateChunkId();
  ASSERT_TRUE(cs->Write(kept, Slice("kept v1"), true).ok());
  ASSERT_TRUE(cs->Checkpoint().ok());

  // The batch's first records reach the tail; the segment roll after
  // them fails, and the batch is rolled back.
  WriteBatch doomed;
  const ChunkId fresh = cs->AllocateChunkId();
  doomed.Write(kept, Buffer(900, 1));
  doomed.Write(fresh, Buffer(900, 2));
  for (int i = 0; i < 6; i++) {
    doomed.Write(cs->AllocateChunkId(), Buffer(900, 3));
  }
  failing.FailNextWrite();
  ASSERT_FALSE(cs->Commit(doomed, false).ok());
  const ChunkId after = cs->AllocateChunkId();
  ASSERT_TRUE(cs->Write(after, Slice("after"), true).ok());

  // The next manifest skips the dead records before `after`'s.
  bool skipped = false;
  for (const Frame& f : Frames(env.store)) {
    if (f.type != RecordType::kCommit) continue;
    CommitManifest manifest;
    ASSERT_TRUE(DecodeManifest(f.payload, 0, &manifest).ok());
    if (!manifest.records.empty() && manifest.records.back() == after) {
      ASSERT_GE(manifest.records.size(), 2u);
      EXPECT_EQ(manifest.records.front(), kInvalidChunkId);
      skipped = true;
    }
  }
  EXPECT_TRUE(skipped);

  CrashCopy copy(env);
  auto reopened =
      ChunkStore::Open(&copy.store, &env.secrets, &copy.counter, options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(Slice(*(*reopened)->Read(kept)).ToString(), "kept v1");
  EXPECT_TRUE((*reopened)->Read(fresh).status().IsNotFound());
  EXPECT_EQ(Slice(*(*reopened)->Read(after)).ToString(), "after");
  uint64_t checked = 0;
  ASSERT_TRUE((*reopened)->VerifyIntegrity(&checked).ok());
  EXPECT_EQ(checked, 2u);
}

// A store with a checkpointed chunk and a durable commit of `residual`
// behind the checkpoint, as a crash before the store closes leaves it.
struct ResidualImage {
  TestEnv env;
  ChunkId checkpointed = 0;
  ChunkId residual = 0;
  std::unique_ptr<CrashCopy> copy;

  ResidualImage() {
    auto cs = env.Open(SmallSegments());
    TDB_CHECK(cs.ok());
    checkpointed = (*cs)->AllocateChunkId();
    TDB_CHECK((*cs)->Write(checkpointed, RandomBytes(1, 200), true).ok());
    TDB_CHECK((*cs)->Checkpoint().ok());
    residual = (*cs)->AllocateChunkId();
    TDB_CHECK((*cs)->Write(residual, RandomBytes(2, 200), true).ok());
    copy = std::make_unique<CrashCopy>(env);
  }

  // The crash copy's data records, counted from the last: 0 is
  // `residual`'s, 1 is `checkpointed`'s.
  Frame DataFrameOf(size_t index_from_end) {
    std::vector<Frame> data;
    for (const Frame& f : Frames(copy->store)) {
      if (f.type == RecordType::kData) data.push_back(f);
    }
    return data[data.size() - 1 - index_from_end];
  }

  Result<std::unique_ptr<ChunkStore>> Reopen(
      std::shared_ptr<common::MetricsRegistry> registry) {
    ChunkStoreOptions options = SmallSegments();
    options.metrics = std::move(registry);
    options.cache_bytes = 0;
    return ChunkStore::Open(&copy->store, &env.secrets, &copy->counter,
                            options);
  }
};

TEST(LogFormatTest, TamperedResidualDataRecordDetectedAtReopen) {
  // The residual commit lists its record by chunk id alone; its MAC
  // binds the record's hash, which recovery recomputes from the log.
  ResidualImage image;
  RewriteFrame(&image.copy->store, image.DataFrameOf(0),
               [](uint8_t*, uint8_t* payload) { payload[40] ^= 0x01; });
  auto registry = std::make_shared<common::MetricsRegistry>();
  auto reopened = image.Reopen(registry);
  ASSERT_FALSE(reopened.ok());
  EXPECT_TRUE(reopened.status().IsReplayDetected() ||
              reopened.status().IsTamperDetected())
      << reopened.status().ToString();
  EXPECT_GT(registry->audit().size(), 0u);
}

TEST(LogFormatTest, OverlongRecordLengthEndsTheScan) {
  // Neither the record hash nor the commit MAC covers a frame's length
  // bytes, so a residual record re-framed with a padded length varint
  // (and a fresh CRC-32C) must not parse: the scan stops in front of it
  // and the durable commit behind it is missing at reopen.
  ResidualImage image;
  const Frame frame = image.DataFrameOf(0);
  MemUntrustedStore::Image bytes = image.copy->store.SnapshotImage();
  Buffer& file = bytes["seg-" + std::to_string(frame.segment)];
  Buffer padded = {file[frame.offset]};  // The type byte.
  uint32_t len = static_cast<uint32_t>(frame.payload.size());
  for (; len >= 0x80; len >>= 7) {
    padded.push_back(static_cast<uint8_t>(len | 0x80));
  }
  padded.push_back(static_cast<uint8_t>(len | 0x80));  // Continues into
  padded.push_back(0);                                   // a needless 0.
  uint32_t crc = Crc32cExtend(0, padded.data(), padded.size());
  crc = Crc32cExtend(crc, frame.payload.data(), frame.payload.size());
  PutFixed32(&padded, crc);
  padded.insert(padded.end(), frame.payload.begin(), frame.payload.end());
  RecordView view;
  EXPECT_TRUE(ParseRecord(padded, &view).IsCorruption());
  const auto at = file.begin() + frame.offset;
  file.erase(at, at + frame.header + frame.payload.size());
  file.insert(file.begin() + frame.offset, padded.begin(), padded.end());
  image.copy->store.RestoreImage(std::move(bytes));

  auto registry = std::make_shared<common::MetricsRegistry>();
  auto reopened = image.Reopen(registry);
  ASSERT_FALSE(reopened.ok());
  EXPECT_TRUE(reopened.status().IsReplayDetected() ||
              reopened.status().IsTamperDetected())
      << reopened.status().ToString();
  EXPECT_GT(registry->audit().size(), 0u);
}

TEST(LogFormatTest, FlippedRecordFlagsDetected) {
  // In the residual log: marking a stolen record padded changes the
  // type byte the commit MAC binds.
  {
    ResidualImage image;
    RewriteFrame(&image.copy->store, image.DataFrameOf(0),
                 [](uint8_t* type, uint8_t*) { *type ^= kEntryPadded << 4; });
    auto reopened =
        image.Reopen(std::make_shared<common::MetricsRegistry>());
    ASSERT_FALSE(reopened.ok());
  }
  // Behind the checkpoint: the frame's flags must match the map entry's.
  {
    ResidualImage image;
    RewriteFrame(&image.copy->store, image.DataFrameOf(1),
                 [](uint8_t* type, uint8_t*) {
                   *type ^= kEntryCompressed << 4;
                 });
    auto registry = std::make_shared<common::MetricsRegistry>();
    auto reopened = image.Reopen(registry);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    EXPECT_TRUE(
        (*reopened)->Read(image.checkpointed).status().IsTamperDetected());
    EXPECT_TRUE((*reopened)->Read(image.residual).ok());
    EXPECT_GT(registry->audit().size(), 0u);
  }
}

TEST(LogFormatTest, FreshImageIsDeterministic) {
  // The same operations give the same bytes.
  auto build = [] {
    TestEnv env;
    auto cs = env.Open(SmallSegments());
    TDB_CHECK(cs.ok());
    for (int round = 0; round < 20; round++) {
      WriteBatch batch;
      for (int i = 0; i < 12; i++) {
        batch.Write(1 + (round * 7 + i) % 40,
                    RandomBytes(round * 100 + i, 5 + (i * 37) % 300));
      }
      if (round % 3 == 2) batch.Deallocate(1 + round % 40);
      TDB_CHECK((*cs)->Commit(batch, round % 4 != 1).ok());
    }
    TDB_CHECK((*cs)->Close().ok());
    return env.store.SnapshotImage();
  };
  EXPECT_TRUE(build() == build());
}

}  // namespace
}  // namespace tdb::chunk
