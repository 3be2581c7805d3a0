#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

// The interface every benchmark workload implements. A workload owns its
// devices, the TDB stack on top of them and a benchmark-side model of what
// it wrote; main.cc owns timing, tracing and reporting.

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "chunk/chunk_store.h"
#include "common/random.h"
#include "common/status.h"
#include "object/object_store.h"
#include "shard/sharded_chunk_store.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;  // Build the stack with the layer decorators.
  bool tiny = false;   // Small data sets and op counts (smoke runs).
};

// Device-level totals across every untrusted store of the workload.
struct DeviceCounters {
  double device_ms = 0;        // Modeled device time.
  uint64_t bytes_written = 0;  // Bytes written to the untrusted stores.
  uint64_t store_bytes = 0;    // Current size of every file they hold.
};

// Outcome of one operation.
struct OpResult {
  bool write = false;   // The op commits (durably) rather than only reads.
  bool cross = false;   // sharded_commit: the transfer spans two shards.
  uint64_t records = 0; // Records a read op returned.
};

class Workload {
 public:
  virtual ~Workload() = default;

  virtual int clients() const { return 1; }
  // Times setup is repeated for the setup_s median.
  virtual int setup_reps() const { return 9; }
  // Untimed ops run once after setup, before measuring.
  virtual uint64_t warmup_ops() const { return 0; }
  // Single-client workloads report count metrics over exactly this many
  // ops from the start of the measured phase, so they repeat exactly.
  virtual uint64_t count_window_ops() const = 0;
  // True when modeled device time is slept, i.e. already in wall time.
  virtual bool device_in_wall() const { return false; }
  // True when the stack has a shard layer.
  virtual bool has_shards() const { return false; }
  // A write-only mix has no read ops to time. Its read latency is that of
  // an audit after the run instead: AuditRead(i) for i < audit_reads() is a
  // point read of one record, in a seeded order, checked against the model.
  virtual uint64_t audit_reads() const { return 0; }
  virtual tdb::Status AuditRead(uint64_t /*i*/) { return tdb::Status::OK(); }

  // Builds the devices and the stack and loads the data set. Called once
  // per workload object.
  virtual tdb::Status Setup() = 0;
  // Runs the next op of `client`. Thread-safe across distinct clients.
  virtual tdb::Status RunOp(int client, OpResult* out) = 0;

  virtual DeviceCounters Device() const = 0;
  // Bytes of live user records (the space_amp denominator).
  virtual double LiveUserBytes() const = 0;
  virtual tdb::chunk::ChunkStoreStats ChunkStats() const = 0;
  virtual tdb::object::ObjectStoreStats ObjectStats() const = 0;
  virtual tdb::shard::RouterStats RouterStats() const { return {}; }
  // Lock-timeout retries inside ops so far (each counts as a failed
  // attempt).
  virtual uint64_t lock_retries() const { return 0; }

  // Copies the devices' contents (the database as of now, as a crash
  // would leave it) and the model.
  virtual void SaveImage() = 0;
  // Closes the stack and puts the saved image back on the devices, and the
  // saved model with it.
  virtual tdb::Status RestoreImage() = 0;
  // Closes the stack if open, reopens it over the same devices (recovery
  // plus the anchor/counter check) and reads one record back, checked
  // against the model when `check_model`.
  virtual tdb::Status Reopen(bool check_model) = 0;
  // The correctness gate: compares a full read-back against the model.
  virtual tdb::Status Verify() = 0;
};

// 0..n-1 in an order drawn from `seed` (Fisher-Yates).
inline std::vector<int32_t> SeededOrder(int32_t n, uint64_t seed) {
  std::vector<int32_t> order(n);
  for (int32_t i = 0; i < n; i++) order[i] = i;
  tdb::Random rng(seed);
  for (int32_t i = n - 1; i > 0; i--) {
    std::swap(order[i], order[rng.Uniform(static_cast<uint64_t>(i) + 1)]);
  }
  return order;
}

std::unique_ptr<Workload> MakeTpcb(const Options& options);
std::unique_ptr<Workload> MakeLookup(const Options& options);
std::unique_ptr<Workload> MakeScan(const Options& options);
std::unique_ptr<Workload> MakeShardedCommit(const Options& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
