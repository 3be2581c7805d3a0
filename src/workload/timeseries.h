#ifndef TDB_WORKLOAD_TIMESERIES_H_
#define TDB_WORKLOAD_TIMESERIES_H_

#include <cstdint>
#include <map>
#include <memory>

#include "collection/collection.h"
#include "common/metrics.h"
#include "common/random.h"
#include "object/object_store.h"
#include "workload/workload.h"

namespace tdb::workload {

/// Time-series scenario: an ordered B-tree collection keyed by timestamp.
/// Batches of monotonically increasing points are appended; window range
/// scans read the recent past; retention passes RemoveRange() everything
/// older than the window, feeding the freed chunks to the cleaner. The
/// driver is single-threaded and fully deterministic per spec.
struct TimeSeriesSpec {
  uint64_t seed = 1;
  uint32_t batches = 16;          // Append batches (one commit each).
  uint32_t points_per_batch = 8;
  uint32_t value_bytes = 64;
  uint64_t start_ts = 1000;
  uint64_t ts_stride = 10;        // Timestamp gap between points.
  /// Points with ts < newest - retention_window are deleted by retention.
  uint64_t retention_window = 600;
  uint32_t retention_every = 4;   // Retention after every k-th batch.
  uint32_t scan_every = 2;        // Window scan after every k-th batch.
  double p_durable = 0.5;
};

/// One data point: immutable timestamp key plus a value.
using TsPoint = KeyedRecord<0x54535054>;  // "TSPT"

Status RegisterTimeSeriesClasses(object::ObjectStore* os);

/// Driver. CommitHook ids are timestamps; images fold ts + value.
/// Latency lands in `workload.ts.{append,scan,retention}_us`; counters
/// `workload.ts.points`, `.retained_deletes`.
class TimeSeriesDriver {
 public:
  /// `create` creates the collection (a durable setup commit).
  static Result<std::unique_ptr<TimeSeriesDriver>> Open(
      collection::CollectionStore* collections, const TimeSeriesSpec& spec,
      bool create);

  /// Runs the whole spec: append batches with interleaved window scans
  /// (validated against the driver's internal model) and retention.
  Status Run(CommitHook* hook = nullptr);

  /// Runs one batch step (append + due scan/retention); wraps around
  /// after spec.batches steps. The benchmark's unit of work.
  Status RunStep(CommitHook* hook = nullptr);

  /// Scans the whole collection into ts -> point image.
  Status ScanAll(std::map<uint64_t, Buffer>* out);

  /// Points currently live in the driver's model (after retention).
  size_t model_size() const { return model_.size(); }
  uint64_t points_appended() const { return points_appended_; }
  uint64_t points_deleted() const { return points_deleted_; }

 private:
  TimeSeriesDriver(collection::CollectionStore* collections,
                   const TimeSeriesSpec& spec);

  Status AppendBatch(CommitHook* hook);
  Status ScanWindow();
  Status RunRetention(CommitHook* hook);

  collection::CollectionStore* collections_;
  const TimeSeriesSpec spec_;
  Random rng_;
  std::shared_ptr<collection::GenericIndexer> indexer_;

  std::map<uint64_t, Buffer> model_;  // ts -> value (current live set).
  uint64_t next_ts_ = 0;
  uint32_t step_ = 0;
  uint64_t points_appended_ = 0;
  uint64_t points_deleted_ = 0;

  common::MetricsRegistry* registry_ = nullptr;
  common::Histogram* append_us_ = nullptr;
  common::Histogram* scan_us_ = nullptr;
  common::Histogram* retention_us_ = nullptr;
  common::Counter* points_ = nullptr;
  common::Counter* retained_deletes_ = nullptr;
};

}  // namespace tdb::workload

#endif  // TDB_WORKLOAD_TIMESERIES_H_
