#ifndef TDB_WORKLOAD_LARGE_OBJECTS_H_
#define TDB_WORKLOAD_LARGE_OBJECTS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "common/metrics.h"
#include "common/random.h"
#include "object/large_object.h"
#include "object/object_store.h"
#include "workload/workload.h"

namespace tdb::workload {

/// Streaming large-object scenario: objects spanning many chunks are
/// written through LargeObjectWriter (parts flushed in nondurable
/// transactions as the stream goes), read back through LargeObjectReader
/// over a lock-free ReadTransaction snapshot, and removed part-by-part.
/// Sizes deliberately cycle through the boundary cases: an exact multiple
/// of the part size, one byte over, one byte under, and a random tail.
struct LargeObjectSpec {
  uint64_t seed = 1;
  uint32_t ops = 12;          // Scenario steps (write / read / remove).
  uint32_t part_bytes = 512;  // Part (chunk-payload) size.
  uint32_t max_parts = 4;     // Largest object is ~max_parts parts.
  double p_durable = 0.5;     // Chance a manifest/remove commit is durable.
  uint32_t remove_every = 4;  // Every k-th step removes (0 = never).
  uint32_t read_every = 2;    // Every k-th step verifies a read (0 = never).
};

/// Tag -> manifest-oid directory, persisted under a named root so a
/// reopened store can enumerate the surviving objects. Removing an object
/// appends a tombstone (an invalid oid) for its tag.
using LobDirectory = KeyDirectory<0x574C4F44>;  // "WLOD"

Status RegisterLargeObjectWorkloadClasses(object::ObjectStore* os);

/// Driver. CommitHook ids are tags; images are the raw value bytes (the
/// manifest commit is the visibility point, so mid-stream crashes must
/// expose either the whole value or nothing). Latency lands in
/// `workload.lob.{write,read,remove}_us`; counters `workload.lob.objects`
/// and `workload.lob.bytes`.
class LargeObjectDriver {
 public:
  /// `create` installs the empty directory in a durable setup commit.
  static Result<std::unique_ptr<LargeObjectDriver>> Open(
      object::ObjectStore* objects, const LargeObjectSpec& spec, bool create);

  /// Runs spec.ops steps: streamed writes with interleaved read
  /// verification (against the in-process model) and removes.
  Status Run(CommitHook* hook = nullptr);

  /// One scenario step (the benchmark's unit of work).
  Status RunStep(CommitHook* hook = nullptr);

  /// Writes one new large object of `total_bytes` (streamed); returns its
  /// tag. Exposed for benchmarks and edge tests.
  Result<uint64_t> WriteOne(uint64_t total_bytes, CommitHook* hook = nullptr);

  /// Reads `tag` back over a fresh snapshot and verifies it against the
  /// model (alternating ReadAll and bounded-buffer Read loops).
  Status ReadOne(uint64_t tag);

  /// Scans the committed directory into tag -> value bytes (streamed; the
  /// same keying the CommitHook sees).
  Status ScanAll(std::map<uint64_t, Buffer>* out);

  size_t live_objects() const { return model_.size(); }
  uint64_t bytes_written() const { return bytes_written_; }
  const LargeObjectSpec& spec() const { return spec_; }

 private:
  LargeObjectDriver(object::ObjectStore* objects, const LargeObjectSpec& spec);

  Status Attach();
  Status RemoveOne(uint64_t tag, CommitHook* hook);
  uint64_t PickSize();
  Result<uint64_t> PickLiveTag();

  object::ObjectStore* objects_;
  const LargeObjectSpec spec_;
  Random rng_;

  object::ObjectId directory_oid_ = object::kInvalidObjectId;
  std::map<uint64_t, object::ObjectId> manifests_;  // tag -> manifest oid.
  std::map<uint64_t, Buffer> model_;                // tag -> value bytes.
  uint64_t next_tag_ = 0;
  uint32_t step_ = 0;
  uint64_t bytes_written_ = 0;

  common::MetricsRegistry* registry_ = nullptr;
  common::Histogram* write_us_ = nullptr;
  common::Histogram* read_us_ = nullptr;
  common::Histogram* remove_us_ = nullptr;
  common::Counter* objects_count_ = nullptr;
  common::Counter* bytes_ = nullptr;
};

}  // namespace tdb::workload

#endif  // TDB_WORKLOAD_LARGE_OBJECTS_H_
