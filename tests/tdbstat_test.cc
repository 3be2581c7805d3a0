// tdbstat never writes to the image it inspects: builds a file-backed
// database with one indexed collection, runs `tdbstat --list` on it, and
// checks both the listing and that every file (segments, anchors, secret,
// one-way counter) is byte-identical afterwards. A plain open would not
// be: recovery and the closing checkpoint write the log and bump the
// counter, after which every earlier copy of the image reads as a replay.
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "chunk/chunk_store.h"
#include "collection/collection.h"
#include "collection/indexer.h"
#include "collection/key.h"
#include "common/metrics.h"
#include "crypto/cipher_suite.h"
#include "harness/blob.h"
#include "object/object_store.h"
#include "platform/file_store.h"
#include "platform/one_way_counter.h"
#include "platform/secret_store.h"

namespace tdb {
namespace {

namespace fs = std::filesystem;

std::map<std::string, std::string> ReadTree(const fs::path& root) {
  std::map<std::string, std::string> files;
  for (const auto& entry : fs::recursive_directory_iterator(root)) {
    if (!entry.is_regular_file()) continue;
    std::ifstream in(entry.path(), std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    files[entry.path().string()] = bytes.str();
  }
  return files;
}

// Runs a shell command; returns its standard output and stores its exit
// status (as pclose reports it, -1 if it could not start) in `status`.
std::string RunCommand(const std::string& command, int* status) {
  std::string output;
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) {
    *status = -1;
    return output;
  }
  char buf[256];
  while (fgets(buf, sizeof(buf), pipe) != nullptr) output += buf;
  *status = pclose(pipe);
  return output;
}

TEST(TdbstatTest, ListLeavesTheImageUntouched) {
  const fs::path root =
      fs::temp_directory_path() / ("tdbstat_list_" + std::to_string(getpid()));
  fs::remove_all(root);
  const std::string db = (root / "db").string();
  const std::string secret = (root / "secret").string();
  const std::string counter_file = (root / "counter").string();
  {
    platform::FileUntrustedStore store(db, /*sync_writes=*/false);
    platform::FileSecretStore secrets(secret);
    ASSERT_TRUE(secrets.Provision(Slice("tdbstat-test-secret")).ok());
    platform::FileOneWayCounter counter(counter_file, /*sync=*/false);
    chunk::ChunkStoreOptions options;
    options.security = crypto::SecurityConfig::Modern();
    auto chunks = chunk::ChunkStore::Open(&store, &secrets, &counter, options);
    ASSERT_TRUE(chunks.ok()) << chunks.status().ToString();
    auto objects = object::ObjectStore::Open(chunks->get());
    ASSERT_TRUE(objects.ok()) << objects.status().ToString();
    ASSERT_TRUE(harness::RegisterHarnessClasses(objects->get()).ok());
    auto colls = collection::CollectionStore::Open(objects->get());
    ASSERT_TRUE(colls.ok()) << colls.status().ToString();
    auto by_key = std::make_shared<
        collection::Indexer<harness::HarnessBlob, collection::IntKey>>(
        "by-key", collection::Uniqueness::kUnique,
        collection::IndexKind::kBTree,
        [](const harness::HarnessBlob& blob) {
          return collection::IntKey(static_cast<int64_t>(blob.key()));
        },
        collection::KeyMutability::kImmutable);
    collection::CTransaction ct(colls->get());
    auto licenses = ct.CreateCollection("licenses", by_key);
    ASSERT_TRUE(licenses.ok()) << licenses.status().ToString();
    for (uint64_t key = 0; key < 5; key++) {
      ASSERT_TRUE((*licenses)
                      ->Insert(&ct, std::make_unique<harness::HarnessBlob>(
                                        key, Buffer{1, 2, 3}))
                      .ok());
    }
    ASSERT_TRUE(ct.Commit(true).ok());
    ASSERT_TRUE((*chunks)->Close().ok());
  }
  const std::map<std::string, std::string> before = ReadTree(root);
  ASSERT_EQ(before.count(counter_file), 1u);

  const std::string command = "'" + std::string(TDBSTAT_PATH) + "' '" + db +
                              "' '" + secret + "' '" + counter_file +
                              "' --list 2>&1";
  int rc = 0;
  const std::string output = RunCommand(command, &rc);

  EXPECT_EQ(rc, 0) << output;
  EXPECT_NE(output.find("collections:  1"), std::string::npos) << output;
  EXPECT_NE(output.find("licenses"), std::string::npos) << output;
  EXPECT_NE(output.find("index by-key"), std::string::npos) << output;
  EXPECT_NE(output.find("btree  unique immutable-keys"), std::string::npos)
      << output;
  EXPECT_TRUE(ReadTree(root) == before)
      << "tdbstat --list changed a file under " << root;
  fs::remove_all(root);
}

// The cleaner and checkpoint stages are in the metrics tdbstat reports:
// opening the image checkpoints, and rebuilds the segment summaries.
TEST(TdbstatTest, JsonReportsCleanerAndCheckpointStages) {
  const fs::path root =
      fs::temp_directory_path() / ("tdbstat_json_" + std::to_string(getpid()));
  fs::remove_all(root);
  const std::string db = (root / "db").string();
  const std::string secret = (root / "secret").string();
  const std::string counter_file = (root / "counter").string();
  {
    platform::FileUntrustedStore store(db, /*sync_writes=*/false);
    platform::FileSecretStore secrets(secret);
    ASSERT_TRUE(secrets.Provision(Slice("tdbstat-test-secret")).ok());
    platform::FileOneWayCounter counter(counter_file, /*sync=*/false);
    chunk::ChunkStoreOptions options;
    options.security = crypto::SecurityConfig::Modern();
    auto chunks = chunk::ChunkStore::Open(&store, &secrets, &counter, options);
    ASSERT_TRUE(chunks.ok()) << chunks.status().ToString();
    for (int i = 0; i < 10; i++) {
      ASSERT_TRUE((*chunks)
                      ->Write((*chunks)->AllocateChunkId(), Slice("license"),
                              /*durable=*/true)
                      .ok());
    }
    ASSERT_TRUE((*chunks)->Close().ok());
  }
  const std::string command = "'" + std::string(TDBSTAT_PATH) + "' '" + db +
                              "' '" + secret + "' '" + counter_file +
                              "' --json";
  int rc = 0;
  const std::string output = RunCommand(command, &rc);
  ASSERT_EQ(rc, 0) << output;

  auto snap = common::MetricsSnapshot::FromJson(output);
  ASSERT_TRUE(snap.ok()) << snap.status().ToString() << "\n" << output;
  ASSERT_EQ(snap->histograms.count("chunk.clean_us"), 1u) << output;
  EXPECT_GT(snap->histograms["chunk.checkpoint_us"].count, 0u) << output;
  EXPECT_GT(snap->gauges["chunk.cleaner.summary_bytes"], 0) << output;
  EXPECT_EQ(snap->counters.count("chunk.cleaner.relocated_bytes"), 1u)
      << output;
  EXPECT_EQ(snap->counters.count("chunk.cleaner.rerelocated_bytes"), 1u)
      << output;
  fs::remove_all(root);
}

// tdbstat opens with default options, and an image records its own
// location-map fanout, so a store of 4 KiB segments and fanout 8 (the
// tests' shape) opens and verifies. Before the fanout was recorded, the
// default 64 misread its map nodes as "truncated byte range".
TEST(TdbstatTest, VerifyOpensSmallSegmentFanout8Store) {
  const fs::path root = fs::temp_directory_path() /
                        ("tdbstat_fanout_" + std::to_string(getpid()));
  fs::remove_all(root);
  const std::string db = (root / "db").string();
  const std::string secret = (root / "secret").string();
  const std::string counter_file = (root / "counter").string();
  constexpr int kChunks = 200;
  {
    platform::FileUntrustedStore store(db, /*sync_writes=*/false);
    platform::FileSecretStore secrets(secret);
    ASSERT_TRUE(secrets.Provision(Slice("tdbstat-test-secret")).ok());
    platform::FileOneWayCounter counter(counter_file, /*sync=*/false);
    chunk::ChunkStoreOptions options;
    options.security = crypto::SecurityConfig::Modern();
    options.segment_size = 4 * 1024;
    options.map_fanout = 8;
    auto chunks = chunk::ChunkStore::Open(&store, &secrets, &counter, options);
    ASSERT_TRUE(chunks.ok()) << chunks.status().ToString();
    for (int i = 0; i < kChunks; i++) {
      ASSERT_TRUE((*chunks)
                      ->Write((*chunks)->AllocateChunkId(),
                              Slice("license " + std::to_string(i)),
                              /*durable=*/i % 10 == 9)
                      .ok());
    }
    ASSERT_TRUE((*chunks)->Close().ok());
  }
  const std::string command = "'" + std::string(TDBSTAT_PATH) + "' '" + db +
                              "' '" + secret + "' '" + counter_file +
                              "' --verify 2>&1";
  int rc = 0;
  const std::string output = RunCommand(command, &rc);
  EXPECT_EQ(rc, 0) << output;
  EXPECT_EQ(output.find("integrity scrub"), std::string::npos) << output;
  EXPECT_NE(output.find("chunks:       " + std::to_string(kChunks) + " live"),
            std::string::npos)
      << output;
  fs::remove_all(root);
}

// --check gates on one well-formed snapshot: a valid snapshot passes, and
// the same file with a second document appended is rejected.
TEST(TdbstatTest, CheckRejectsTrailingDocument) {
  const fs::path path = fs::temp_directory_path() /
                        ("tdbstat_check_" + std::to_string(getpid()) + ".json");
  common::MetricsRegistry registry;
  registry.GetCounter("chunk.durable_commits")->Add(3);
  registry.GetHistogram("chunk.sync.latency_us")->Record(40);
  const std::string doc = registry.Snapshot().ToJson();
  const std::string command =
      "'" + std::string(TDBSTAT_PATH) + "' --check '" + path.string() + "' 2>&1";

  std::ofstream(path, std::ios::trunc) << doc;
  int rc = 0;
  std::string output = RunCommand(command, &rc);
  EXPECT_EQ(rc, 0) << output;

  std::ofstream(path, std::ios::app) << doc;
  output = RunCommand(command, &rc);
  EXPECT_NE(rc, 0) << output;
  EXPECT_NE(output.find("trailing bytes"), std::string::npos) << output;
  fs::remove(path);
}

// tdbstat on the golden log-format-v1 and v2 images: the upgrade at open
// lands in its read-only overlay, so neither image changes. The v2 image
// (SHA-256 + AES-128, tdbstat's suite) opens, upgrades and verifies; the
// v1 one was written with SHA-1 + 3DES, which tdbstat does not open.
TEST(TdbstatTest, GoldenImagesStayByteIdentical) {
  const struct {
    const char* dir;
    const char* secret;
    bool opens;
  } kImages[] = {{"golden_v1_image", "golden-v1-secret", false},
                 {"golden_v2_image", "golden-v2-secret", true}};
  for (const auto& golden : kImages) {
    SCOPED_TRACE(golden.dir);
    const fs::path source = fs::path(TDB_TEST_DATA_DIR) / golden.dir;
    const fs::path root = fs::temp_directory_path() /
                          ("tdbstat_golden_" + std::to_string(getpid()));
    fs::remove_all(root);
    const fs::path db = root / "db";
    fs::create_directories(db);
    size_t live = 0;
    for (const auto& file : fs::directory_iterator(source)) {
      const std::string name = file.path().filename().string();
      if (name.rfind("anchor-", 0) == 0 || name.rfind("seg-", 0) == 0) {
        fs::copy_file(file.path(), db / name);
      }
    }
    {
      std::ifstream expected(source / "expected");
      std::string line;
      while (std::getline(expected, line)) {
        if (line.rfind("gone ", 0) != 0) live++;
      }
    }
    const std::string secret = (root / "secret").string();
    const std::string counter_file = (root / "counter").string();
    ASSERT_TRUE(platform::FileSecretStore(secret)
                    .Provision(Slice(golden.secret))
                    .ok());
    uint64_t value = 0;
    std::ifstream(source / "counter") >> value;
    platform::FileOneWayCounter counter(counter_file, /*sync=*/false);
    while (*counter.Read() < value) ASSERT_TRUE(counter.Increment().ok());
    const std::map<std::string, std::string> before = ReadTree(root);

    int rc = 0;
    const std::string output = RunCommand(
        "'" + std::string(TDBSTAT_PATH) + "' '" + db.string() + "' '" +
            secret + "' '" + counter_file + "' --verify 2>&1",
        &rc);
    if (golden.opens) {
      EXPECT_EQ(rc, 0) << output;
      EXPECT_NE(output.find("chunks:       " + std::to_string(live) + " live"),
                std::string::npos)
          << output;
    } else {
      EXPECT_NE(rc, 0) << output;
    }
    EXPECT_TRUE(ReadTree(root) == before)
        << "tdbstat --verify changed a file under " << root;
    fs::remove_all(root);
  }
}

}  // namespace
}  // namespace tdb
