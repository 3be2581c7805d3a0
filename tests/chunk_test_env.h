#ifndef TDB_TESTS_CHUNK_TEST_ENV_H_
#define TDB_TESTS_CHUNK_TEST_ENV_H_

// Test scaffolding shared by the chunk-store test binaries: in-memory
// platform substrates, small-segment options, crash copies of an image
// and a store that fails one write on demand.

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "chunk/chunk_store.h"
#include "common/check.h"
#include "platform/mem_store.h"
#include "platform/one_way_counter.h"
#include "platform/secret_store.h"

namespace tdb::chunk {

using platform::MemOneWayCounter;
using platform::MemSecretStore;
using platform::MemUntrustedStore;

// Bundles the platform substrates a chunk store needs.
struct TestEnv {
  MemUntrustedStore store;
  MemSecretStore secrets;
  MemOneWayCounter counter;

  TestEnv() { TDB_CHECK(secrets.Provision(Slice("test-master-secret")).ok()); }

  Result<std::unique_ptr<ChunkStore>> Open(ChunkStoreOptions options = {}) {
    return ChunkStore::Open(&store, &secrets, &counter, options);
  }
};

inline ChunkStoreOptions SmallSegments(crypto::SecurityConfig security =
                                    crypto::SecurityConfig::Modern()) {
  ChunkStoreOptions options;
  options.security = security;
  options.segment_size = 4 * 1024;
  options.map_fanout = 8;
  return options;
}

// A copy of `env`'s image and counter as they stand: what a crash at
// this point leaves behind, with the residual log still to replay.
struct CrashCopy {
  MemUntrustedStore store;
  MemOneWayCounter counter;

  explicit CrashCopy(TestEnv& env) {
    store.RestoreImage(env.store.SnapshotImage());
    const uint64_t value = env.counter.Read().value();
    for (uint64_t i = 0; i < value; i++) {
      TDB_CHECK(counter.Increment().ok());
    }
  }
};

// Passes everything through except the one Write it is told to fail: a
// single EIO from a device that keeps working afterwards.
class FailOneWriteStore final : public platform::UntrustedStore {
 public:
  explicit FailOneWriteStore(platform::UntrustedStore* base) : base_(base) {}
  void FailNextWrite() { fail_next_ = true; }

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
    if (fail_next_) {
      fail_next_ = false;
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
  bool fail_next_ = false;
};

// The store's segment files, by segment id.
inline std::map<uint32_t, Buffer> SegmentFiles(const MemUntrustedStore& store) {
  std::map<uint32_t, Buffer> files;
  for (auto& [name, bytes] : store.SnapshotImage()) {
    if (name.rfind("seg-", 0) == 0) {
      files[static_cast<uint32_t>(std::stoul(name.substr(4)))] = bytes;
    }
  }
  return files;
}

}  // namespace tdb::chunk

#endif  // TDB_TESTS_CHUNK_TEST_ENV_H_
