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
  FILE* pipe = popen(command.c_str(), "r");
  ASSERT_NE(pipe, nullptr);
  std::string output;
  char buf[256];
  while (fgets(buf, sizeof(buf), pipe) != nullptr) output += buf;
  const int rc = pclose(pipe);

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

}  // namespace
}  // namespace tdb
