// Writes the golden log-format-v1 image in this directory. It is built
// against the tree as it stood before log format v2 (the last v1 writer),
// not by this repository's build:
//
//   g++ -std=c++20 -O2 -I<v1-tree>/src make_image.cc <v1 libtdb_*.a> \
//       -lpthread -o make_image && ./make_image <out-dir>
//
// The image holds a checkpoint, a residual log of durable commits behind
// it and a nondurable tail, written with security on (SHA-1 + 3DES),
// compression on, 4 KiB segments and map fanout 8. `expected` lists each
// chunk id the durable prefix leaves live with its hex contents, and
// "gone <cid>" for ids it deallocates or never made durable.
//
// The committed image was written with that tree's crypto worker pool set
// to zero threads, so every seal ran on the committing thread; set its
// thread-count option to 0 in `options` below to write it again.
#include <cstdio>
#include <fstream>
#include <map>
#include <string>

#include "chunk/chunk_store.h"
#include "common/coding.h"
#include "platform/mem_store.h"
#include "platform/one_way_counter.h"
#include "platform/secret_store.h"

using namespace tdb;

namespace {

// Deterministic contents: a compressible run for even versions, bytes
// from a linear congruential stream otherwise.
Buffer Contents(chunk::ChunkId cid, int version, size_t size) {
  Buffer out(size);
  uint32_t x = static_cast<uint32_t>(cid * 7919 + version * 104729 + 1);
  for (size_t i = 0; i < size; i++) {
    x = x * 1664525u + 1013904223u;
    out[i] = version % 2 == 0 ? static_cast<uint8_t>('a' + (i / 9) % 3)
                              : static_cast<uint8_t>(x >> 24);
  }
  return out;
}

void Check(const Status& s, const char* what) {
  if (!s.ok()) {
    std::fprintf(stderr, "%s: %s\n", what, s.ToString().c_str());
    std::exit(1);
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: make_image <out-dir>\n");
    return 2;
  }
  const std::string out = argv[1];
  platform::MemUntrustedStore store;
  platform::MemSecretStore secrets;
  platform::MemOneWayCounter counter;
  Check(secrets.Provision(Slice("golden-v1-secret")), "provision");
  chunk::ChunkStoreOptions options;
  options.segment_size = 4 * 1024;
  options.map_fanout = 8;
  options.compression = true;
  auto opened = chunk::ChunkStore::Open(&store, &secrets, &counter, options);
  Check(opened.status(), "open");
  std::unique_ptr<chunk::ChunkStore> cs = std::move(opened).value();

  // Sizes around the cipher block (8 bytes for 3DES) and a few larger.
  const size_t kSizes[] = {0, 1, 7, 8, 9, 15, 16, 17, 24, 31,
                           32, 33, 100, 255, 500, 1500};
  std::map<chunk::ChunkId, Buffer> durable;
  std::map<chunk::ChunkId, bool> gone;
  auto commit = [&](chunk::WriteBatch& batch,
                    std::map<chunk::ChunkId, Buffer>& staged,
                    std::vector<chunk::ChunkId>& freed, bool is_durable) {
    Check(cs->Commit(batch, is_durable), "commit");
    if (!is_durable) return;
    for (auto& [cid, data] : staged) {
      durable[cid] = data;
      gone.erase(cid);
    }
    for (chunk::ChunkId cid : freed) {
      durable.erase(cid);
      gone[cid] = true;
    }
  };

  // Before the checkpoint: 48 chunks over 8 commits, then overwrites and
  // deallocations, enough to fill several segments.
  std::vector<chunk::ChunkId> ids;
  for (int c = 0; c < 8; c++) {
    chunk::WriteBatch batch;
    std::map<chunk::ChunkId, Buffer> staged;
    std::vector<chunk::ChunkId> freed;
    for (int i = 0; i < 6; i++) {
      chunk::ChunkId cid = cs->AllocateChunkId();
      ids.push_back(cid);
      Buffer data = Contents(cid, c, kSizes[(c * 6 + i) % 16]);
      batch.Write(cid, data);
      staged[cid] = data;
    }
    commit(batch, staged, freed, true);
  }
  for (int round = 0; round < 3; round++) {
    chunk::WriteBatch batch;
    std::map<chunk::ChunkId, Buffer> staged;
    std::vector<chunk::ChunkId> freed;
    for (size_t i = round; i < ids.size(); i += 5) {
      Buffer data = Contents(ids[i], 10 + round, kSizes[(i + round) % 16]);
      batch.Write(ids[i], data);
      staged[ids[i]] = data;
    }
    // Ids at multiples of 6 are not rewritten by the residual log.
    const chunk::ChunkId freed_id = ids[6 * (round + 1)];
    batch.Deallocate(freed_id);
    staged.erase(freed_id);
    freed.push_back(freed_id);
    commit(batch, staged, freed, true);
  }
  Check(cs->Checkpoint(), "checkpoint");

  // The residual log: durable commits the anchor does not cover.
  for (int c = 0; c < 5; c++) {
    chunk::WriteBatch batch;
    std::map<chunk::ChunkId, Buffer> staged;
    std::vector<chunk::ChunkId> freed;
    for (size_t i = c + 1; i < ids.size(); i += 6) {
      Buffer data = Contents(ids[i], 20 + c, kSizes[(i * 3 + c) % 16]);
      batch.Write(ids[i], data);
      staged[ids[i]] = data;
    }
    chunk::ChunkId fresh = cs->AllocateChunkId();
    ids.push_back(fresh);
    Buffer data = Contents(fresh, 20 + c, kSizes[c * 3 % 16] + 40);
    batch.Write(fresh, data);
    staged[fresh] = data;
    if (c == 4) {
      batch.Deallocate(ids[24]);
      freed.push_back(ids[24]);
    }
    commit(batch, staged, freed, true);
  }

  // The nondurable tail: recovery drops it.
  for (int c = 0; c < 2; c++) {
    chunk::WriteBatch batch;
    std::map<chunk::ChunkId, Buffer> staged;
    std::vector<chunk::ChunkId> freed;
    // Large enough to roll the tail segment, which flushes the records
    // before the roll to the store with no manifest covering them.
    for (int i = 0; i < 3; i++) {
      chunk::ChunkId fresh = cs->AllocateChunkId();
      batch.Write(fresh, Contents(fresh, 31, 1500));
      gone[fresh] = true;
    }
    batch.Write(ids[c], Contents(ids[c], 31 + 2 * c, 48));
    commit(batch, staged, freed, false);
  }

  // Copy the image before the store closes (closing would checkpoint).
  platform::MemUntrustedStore::Image image = store.SnapshotImage();
  uint64_t counter_value = *counter.Read();
  for (const auto& [name, bytes] : image) {
    std::ofstream f(out + "/" + name, std::ios::binary);
    f.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  }
  std::ofstream(out + "/counter") << counter_value << "\n";
  std::ofstream expected(out + "/expected");
  for (const auto& [cid, data] : durable) {
    expected << cid << " " << ToHex(data) << "\n";
  }
  for (const auto& [cid, unused] : gone) expected << "gone " << cid << "\n";
  expected.close();
  std::printf("%zu files, counter %llu, %zu live chunks\n", image.size(),
              static_cast<unsigned long long>(counter_value), durable.size());
  std::_Exit(0);  // Skip the destructor's closing checkpoint.
}
