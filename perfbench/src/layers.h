#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

// Pass-through decorators at the layer boundaries the benchmark builds:
// the untrusted store and one-way counter (layer `platform`) and the chunk
// store interface (layer `chunk`, or `shard` above the sharded router).
// They forward every call unchanged and only open a span around it, so a
// decorated stack issues exactly the same calls as an undecorated one.
// They are installed in the traced run only.

#include <string>
#include <vector>

#include "chunk/chunk_store.h"
#include "platform/one_way_counter.h"
#include "platform/untrusted_store.h"
#include "tracer.h"

namespace perfbench {

class TracedStore final : public tdb::platform::UntrustedStore {
 public:
  explicit TracedStore(tdb::platform::UntrustedStore* base) : base_(base) {}

  tdb::Status Create(const std::string& name, bool overwrite) override {
    SpanScope span("platform.meta");
    return base_->Create(name, overwrite);
  }
  tdb::Status Remove(const std::string& name) override {
    SpanScope span("platform.meta");
    return base_->Remove(name);
  }
  bool Exists(const std::string& name) const override {
    SpanScope span("platform.meta");
    return base_->Exists(name);
  }
  tdb::Status Read(const std::string& name, uint64_t offset, size_t n,
                   tdb::Buffer* out) const override {
    SpanScope span("platform.read", n);
    return base_->Read(name, offset, n, out);
  }
  tdb::Status Write(const std::string& name, uint64_t offset,
                    tdb::Slice data) override {
    SpanScope span("platform.write", data.size());
    return base_->Write(name, offset, data);
  }
  tdb::Result<uint64_t> Size(const std::string& name) const override {
    SpanScope span("platform.meta");
    return base_->Size(name);
  }
  tdb::Status Truncate(const std::string& name, uint64_t size) override {
    SpanScope span("platform.meta");
    return base_->Truncate(name, size);
  }
  tdb::Status Sync(const std::string& name) override {
    SpanScope span("platform.sync");
    return base_->Sync(name);
  }
  std::vector<std::string> List() const override {
    SpanScope span("platform.meta");
    return base_->List();
  }

 private:
  tdb::platform::UntrustedStore* base_;
};

class TracedCounter final : public tdb::platform::OneWayCounter {
 public:
  explicit TracedCounter(tdb::platform::OneWayCounter* base) : base_(base) {}

  tdb::Result<uint64_t> Read() const override {
    SpanScope span("platform.counter_read");
    return base_->Read();
  }
  tdb::Result<uint64_t> Increment() override {
    SpanScope span("platform.counter");
    return base_->Increment();
  }

 private:
  tdb::platform::OneWayCounter* base_;
};

// Span names of one chunk-store-interface layer.
struct StoreSpanNames {
  const char* read;    // Read, ReadAtView, ReadAtViewShared, ReadManyAtView.
  const char* commit;  // Commit, CommitBuffered, Write, Deallocate.
  const char* wait;    // WaitDurable.
  const char* view;    // PinView.
  const char* other;   // Checkpoint, Clean, VerifyIntegrity, Close.
};
inline constexpr StoreSpanNames kChunkSpans{
    "chunk.read", "chunk.commit", "chunk.wait", "chunk.view", "chunk.other"};
inline constexpr StoreSpanNames kShardSpans{
    "shard.read", "shard.commit", "shard.wait", "shard.view", "shard.other"};

class TracedChunks final : public tdb::chunk::ChunkStoreInterface {
 public:
  TracedChunks(tdb::chunk::ChunkStoreInterface* base,
               const StoreSpanNames& names)
      : base_(base), names_(names) {}

  tdb::chunk::ChunkId AllocateChunkId() override {
    return base_->AllocateChunkId();
  }
  tdb::Result<tdb::Buffer> Read(tdb::chunk::ChunkId cid) override {
    SpanScope span(names_.read);
    return base_->Read(cid);
  }
  tdb::Status Commit(const tdb::chunk::WriteBatch& batch,
                     bool durable) override {
    SpanScope span(names_.commit);
    return base_->Commit(batch, durable);
  }
  tdb::Result<tdb::chunk::CommitHandle> CommitBuffered(
      const tdb::chunk::WriteBatch& batch, bool durable) override {
    SpanScope span(names_.commit);
    return base_->CommitBuffered(batch, durable);
  }
  tdb::Status WaitDurable(tdb::chunk::CommitHandle& handle) override {
    SpanScope span(names_.wait);
    return base_->WaitDurable(handle);
  }
  tdb::Status Write(tdb::chunk::ChunkId cid, tdb::Slice data,
                    bool durable) override {
    SpanScope span(names_.commit);
    return base_->Write(cid, data, durable);
  }
  tdb::Status Deallocate(tdb::chunk::ChunkId cid, bool durable) override {
    SpanScope span(names_.commit);
    return base_->Deallocate(cid, durable);
  }
  tdb::Status Checkpoint() override {
    SpanScope span(names_.other);
    return base_->Checkpoint();
  }
  tdb::Status Clean(int max_segments) override {
    SpanScope span(names_.other);
    return base_->Clean(max_segments);
  }
  tdb::Status VerifyIntegrity(uint64_t* chunks_checked) override {
    SpanScope span(names_.other);
    return base_->VerifyIntegrity(chunks_checked);
  }
  tdb::Result<std::shared_ptr<tdb::chunk::Snapshot>> PinView() override {
    SpanScope span(names_.view);
    return base_->PinView();
  }
  tdb::Result<tdb::Buffer> ReadAtView(const tdb::chunk::Snapshot& view,
                                      tdb::chunk::ChunkId cid) override {
    SpanScope span(names_.read);
    return base_->ReadAtView(view, cid);
  }
  tdb::Result<std::shared_ptr<const tdb::Buffer>> ReadAtViewShared(
      const tdb::chunk::Snapshot& view, tdb::chunk::ChunkId cid) override {
    SpanScope span(names_.read);
    return base_->ReadAtViewShared(view, cid);
  }
  tdb::Result<std::vector<tdb::Buffer>> ReadManyAtView(
      const tdb::chunk::Snapshot& view,
      const std::vector<tdb::chunk::ChunkId>& cids) override {
    SpanScope span(names_.read);
    return base_->ReadManyAtView(view, cids);
  }
  tdb::chunk::ChunkStoreStats Stats() const override { return base_->Stats(); }
  const std::shared_ptr<tdb::common::MetricsRegistry>& metrics()
      const override {
    return base_->metrics();
  }
  uint64_t next_chunk_id() const override { return base_->next_chunk_id(); }
  tdb::Status Close() override {
    SpanScope span(names_.other);
    return base_->Close();
  }

 private:
  tdb::chunk::ChunkStoreInterface* base_;
  StoreSpanNames names_;
};

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
