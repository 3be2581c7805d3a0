#ifndef PERFBENCH_STACK_H_
#define PERFBENCH_STACK_H_

// The single-device TDB stack shared by tpcb, lookup and scan: the paper's
// write-through disk (a virtual-clock SimulatedDiskStore over memory) with
// the one-way counter kept as a file on it (§7.2), a ChunkStore, an
// ObjectStore and a CollectionStore. In the traced run the decorators of
// layers.h sit at each boundary.

#include <memory>

#include "chunk/chunk_store.h"
#include "collection/collection.h"
#include "layers.h"
#include "object/object_store.h"
#include "platform/mem_store.h"
#include "platform/secret_store.h"
#include "platform/sim_disk.h"
#include "workload.h"

namespace perfbench {

class SimDevice {
 public:
  explicit SimDevice(bool traced)
      : disk_(&mem_),
        traced_store_(traced ? std::make_unique<TracedStore>(&disk_)
                             : nullptr),
        file_counter_(store()),
        traced_counter_(traced ? std::make_unique<TracedCounter>(
                                     &file_counter_)
                               : nullptr) {
    (void)secrets_.Provision(tdb::Slice("perfbench-secret")).ok();
  }
  SimDevice(const SimDevice&) = delete;
  SimDevice& operator=(const SimDevice&) = delete;

  tdb::platform::UntrustedStore* store() {
    if (traced_store_ != nullptr) return traced_store_.get();
    return &disk_;
  }
  tdb::platform::OneWayCounter* counter() {
    if (traced_counter_ != nullptr) return traced_counter_.get();
    return &file_counter_;
  }
  tdb::platform::SecretStore* secrets() { return &secrets_; }

  // The counter lives in a file on the device, so the image carries it.
  void SaveImage() { image_ = mem_.SnapshotImage(); }
  void RestoreImage() { mem_.RestoreImage(image_); }

  DeviceCounters Counters() const {
    DeviceCounters c;
    c.device_ms = disk_.simulated_seconds() * 1000.0;
    c.bytes_written = mem_.bytes_written();
    c.store_bytes = mem_.TotalBytes();
    return c;
  }

 private:
  tdb::platform::MemUntrustedStore mem_;
  tdb::platform::SimulatedDiskStore disk_;
  std::unique_ptr<TracedStore> traced_store_;
  tdb::platform::StoreBackedCounter file_counter_;
  std::unique_ptr<TracedCounter> traced_counter_;
  tdb::platform::MemSecretStore secrets_;
  tdb::platform::MemUntrustedStore::Image image_;
};

// Chunk-store options of the single-device workloads, after
// bench/workload/tpcb.cc: 256 KiB segments, the paper's 60% cleaner
// threshold and a long checkpoint interval; AES-128/SHA-256 with
// compression off.
inline tdb::chunk::ChunkStoreOptions SimChunkOptions(size_t cache_bytes) {
  tdb::chunk::ChunkStoreOptions o;
  o.security = tdb::crypto::SecurityConfig::Modern();
  o.compression = false;
  o.segment_size = 256 * 1024;
  o.max_utilization = 0.6;
  o.checkpoint_interval_bytes = 48ull * 1024 * 1024;
  o.cache_bytes = cache_bytes;
  return o;
}

// Chunk store -> (decorator) -> object store -> collection store.
class Stack {
 public:
  Stack(SimDevice* device, bool traced,
        const tdb::object::ObjectStoreOptions& object_options,
        size_t chunk_cache_bytes = 4 * 1024 * 1024)
      : device_(device),
        traced_(traced),
        object_options_(object_options),
        chunk_cache_bytes_(chunk_cache_bytes) {}

  // Opens (or reopens) every layer. `register_classes` registers the
  // workload's object classes on the fresh object store.
  template <typename RegisterFn>
  tdb::Status Open(RegisterFn register_classes) {
    auto chunks = tdb::chunk::ChunkStore::Open(
        device_->store(), device_->secrets(), device_->counter(),
        SimChunkOptions(chunk_cache_bytes_));
    TDB_RETURN_IF_ERROR(chunks.status());
    chunks_ = std::move(chunks).value();
    tdb::chunk::ChunkStoreInterface* top = chunks_.get();
    if (traced_) {
      decorator_ = std::make_unique<TracedChunks>(top, kChunkSpans);
      top = decorator_.get();
    }
    auto objects = tdb::object::ObjectStore::Open(top, object_options_);
    TDB_RETURN_IF_ERROR(objects.status());
    objects_ = std::move(objects).value();
    TDB_RETURN_IF_ERROR(register_classes(objects_.get()));
    auto colls = tdb::collection::CollectionStore::Open(objects_.get());
    TDB_RETURN_IF_ERROR(colls.status());
    collections_ = std::move(colls).value();
    return tdb::Status::OK();
  }

  tdb::Status Close() {
    collections_.reset();
    objects_.reset();
    decorator_.reset();
    tdb::Status s = chunks_ != nullptr ? chunks_->Close() : tdb::Status::OK();
    chunks_.reset();
    return s;
  }

  tdb::chunk::ChunkStore* chunks() const { return chunks_.get(); }
  tdb::object::ObjectStore* objects() const { return objects_.get(); }
  tdb::collection::CollectionStore* collections() const {
    return collections_.get();
  }

 private:
  SimDevice* device_;
  bool traced_;
  tdb::object::ObjectStoreOptions object_options_;
  size_t chunk_cache_bytes_;
  std::unique_ptr<tdb::chunk::ChunkStore> chunks_;
  std::unique_ptr<TracedChunks> decorator_;
  std::unique_ptr<tdb::object::ObjectStore> objects_;
  std::unique_ptr<tdb::collection::CollectionStore> collections_;
};

}  // namespace perfbench

#endif  // PERFBENCH_STACK_H_
