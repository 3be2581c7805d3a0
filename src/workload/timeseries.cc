#include "workload/timeseries.h"

#include <string>
#include <utility>

#include "collection/indexer.h"
#include "collection/key.h"

namespace tdb::workload {

namespace {

constexpr const char* kCollectionName = "tseries";
constexpr const char* kIndexName = "by-ts";

std::shared_ptr<collection::GenericIndexer> MakeTsIndexer() {
  return std::make_shared<collection::Indexer<TsPoint, collection::IntKey>>(
      kIndexName, collection::Uniqueness::kUnique,
      collection::IndexKind::kBTree,
      [](const TsPoint& point) {
        return collection::IntKey(static_cast<int64_t>(point.key()));
      },
      collection::KeyMutability::kImmutable);
}

}  // namespace

Status RegisterTimeSeriesClasses(object::ObjectStore* os) {
  return os->registry().Register<TsPoint>(TsPoint::kClassId);
}

TimeSeriesDriver::TimeSeriesDriver(collection::CollectionStore* collections,
                                   const TimeSeriesSpec& spec)
    : collections_(collections),
      spec_(spec),
      rng_(spec.seed * 0x9E3779B97F4A7C15ull + 3),
      next_ts_(spec.start_ts) {
  registry_ = collections_->object_store()->metrics().get();
  append_us_ = registry_->GetHistogram("workload.ts.append_us");
  scan_us_ = registry_->GetHistogram("workload.ts.scan_us");
  retention_us_ = registry_->GetHistogram("workload.ts.retention_us");
  points_ = registry_->GetCounter("workload.ts.points");
  retained_deletes_ = registry_->GetCounter("workload.ts.retained_deletes");
}

Result<std::unique_ptr<TimeSeriesDriver>> TimeSeriesDriver::Open(
    collection::CollectionStore* collections, const TimeSeriesSpec& spec,
    bool create) {
  std::unique_ptr<TimeSeriesDriver> driver(
      new TimeSeriesDriver(collections, spec));
  driver->indexer_ = MakeTsIndexer();
  TDB_RETURN_IF_ERROR(
      collections->RegisterIndexer(kCollectionName, driver->indexer_));
  if (create) {
    collection::CTransaction ct(collections);
    Result<object::WritableRef<collection::Collection>> coll =
        ct.CreateCollection(kCollectionName, driver->indexer_);
    if (!coll.ok()) return coll.status();
    TDB_RETURN_IF_ERROR(ct.Commit(true));
  }
  return driver;
}

Status TimeSeriesDriver::AppendBatch(CommitHook* hook) {
  common::ScopedTimer timer(registry_, append_us_);
  const bool durable = rng_.Bernoulli(spec_.p_durable);
  if (hook != nullptr) hook->BeginCommit();
  collection::CTransaction ct(collections_);
  Result<object::WritableRef<collection::Collection>> coll =
      ct.WriteCollection(kCollectionName);
  if (!coll.ok()) {
    if (hook != nullptr) hook->EndCommit(false, durable);
    return coll.status();
  }
  std::map<uint64_t, Buffer> appended;
  Status status;
  for (uint32_t i = 0; status.ok() && i < spec_.points_per_batch; i++) {
    // Monotonic timestamps with deterministic jitter inside the stride.
    const uint64_t ts =
        next_ts_ + (spec_.ts_stride > 1 ? rng_.Uniform(spec_.ts_stride) : 0);
    next_ts_ += spec_.ts_stride;
    Buffer payload = ValuePayload(rng_.Next(), spec_.value_bytes);
    Result<object::ObjectId> inserted =
        coll.value()->Insert(&ct, std::make_unique<TsPoint>(ts, payload));
    status = inserted.ok() ? Status::OK() : inserted.status();
    if (status.ok()) {
      if (hook != nullptr) hook->PendingWrite(ts, KeyedImage(ts, payload));
      appended[ts] = std::move(payload);
    }
  }
  if (status.ok()) status = ct.Commit(durable);
  if (hook != nullptr) hook->EndCommit(status.ok(), durable);
  TDB_RETURN_IF_ERROR(status);
  for (auto& [ts, payload] : appended) {
    model_[ts] = std::move(payload);
    points_appended_++;
    points_->Increment();
  }
  return Status::OK();
}

Status TimeSeriesDriver::ScanWindow() {
  common::ScopedTimer timer(registry_, scan_us_);
  if (model_.empty()) return Status::OK();
  const uint64_t newest = model_.rbegin()->first;
  const uint64_t lo =
      newest > spec_.retention_window ? newest - spec_.retention_window : 0;
  collection::CTransaction ct(collections_);
  Result<object::ReadonlyRef<collection::Collection>> coll =
      ct.ReadCollection(kCollectionName);
  if (!coll.ok()) return coll.status();
  collection::IntKey min(static_cast<int64_t>(lo));
  collection::IntKey max(static_cast<int64_t>(newest));
  TDB_ASSIGN_OR_RETURN(std::unique_ptr<collection::Iterator> it,
                       coll.value()->Query(&ct, *indexer_, &min, &max));
  // The scan must enumerate exactly the model's window, in ascending
  // order, with matching values.
  auto expect = model_.lower_bound(lo);
  Status status;
  for (; status.ok() && !it->end(); it->Next()) {
    Result<object::ReadonlyRef<TsPoint>> point = it->Read<TsPoint>();
    status = point.ok() ? Status::OK() : point.status();
    if (!status.ok()) break;
    if (expect == model_.end() || expect->first > newest) {
      status = Status::Corruption("window scan returned unexpected point ts " +
                                  std::to_string(point.value()->key()));
    } else if (point.value()->key() != expect->first ||
               Slice(point.value()->bytes()) != Slice(expect->second)) {
      status = Status::Corruption(
          "window scan mismatch at ts " + std::to_string(expect->first) +
          ": got ts " + std::to_string(point.value()->key()));
    } else {
      ++expect;
    }
  }
  if (status.ok() && expect != model_.end()) {
    status = Status::Corruption("window scan ended before ts " +
                                std::to_string(expect->first));
  }
  Status closed = it->Close();
  if (status.ok()) status = closed;
  Status aborted = ct.Abort();
  if (status.ok()) status = aborted;
  return status;
}

Status TimeSeriesDriver::RunRetention(CommitHook* hook) {
  common::ScopedTimer timer(registry_, retention_us_);
  if (model_.empty()) return Status::OK();
  const uint64_t newest = model_.rbegin()->first;
  if (newest <= spec_.retention_window) return Status::OK();
  const uint64_t cutoff = newest - spec_.retention_window;  // Keep >= cutoff.
  auto first_kept = model_.lower_bound(cutoff);
  if (first_kept == model_.begin()) return Status::OK();  // Nothing expires.
  const bool durable = rng_.Bernoulli(spec_.p_durable);
  if (hook != nullptr) hook->BeginCommit();
  collection::CTransaction ct(collections_);
  Result<object::WritableRef<collection::Collection>> coll =
      ct.WriteCollection(kCollectionName);
  Status status = coll.ok() ? Status::OK() : coll.status();
  size_t removed = 0;
  if (status.ok()) {
    collection::IntKey max(static_cast<int64_t>(cutoff) - 1);
    status = coll.value()->RemoveRange(&ct, *indexer_, nullptr, &max,
                                       &removed);
  }
  if (status.ok()) {
    const size_t expected =
        static_cast<size_t>(std::distance(model_.begin(), first_kept));
    if (removed != expected) {
      status = Status::Corruption(
          "retention removed " + std::to_string(removed) + " points, model "
          "expected " + std::to_string(expected));
    }
  }
  if (status.ok()) {
    if (hook != nullptr) {
      for (auto it = model_.begin(); it != first_kept; ++it) {
        hook->PendingRemove(it->first);
      }
    }
    status = ct.Commit(durable);
  }
  if (hook != nullptr) hook->EndCommit(status.ok(), durable);
  TDB_RETURN_IF_ERROR(status);
  points_deleted_ += removed;
  retained_deletes_->Add(static_cast<int64_t>(removed));
  model_.erase(model_.begin(), first_kept);
  return Status::OK();
}

Status TimeSeriesDriver::RunStep(CommitHook* hook) {
  TDB_RETURN_IF_ERROR(AppendBatch(hook));
  step_++;
  if (spec_.scan_every != 0 && step_ % spec_.scan_every == 0) {
    TDB_RETURN_IF_ERROR(ScanWindow());
  }
  if (spec_.retention_every != 0 && step_ % spec_.retention_every == 0) {
    TDB_RETURN_IF_ERROR(RunRetention(hook));
  }
  return Status::OK();
}

Status TimeSeriesDriver::Run(CommitHook* hook) {
  for (uint32_t batch = 0; batch < spec_.batches; batch++) {
    TDB_RETURN_IF_ERROR(RunStep(hook));
  }
  return Status::OK();
}

Status TimeSeriesDriver::ScanAll(std::map<uint64_t, Buffer>* out) {
  out->clear();
  collection::CTransaction ct(collections_);
  TDB_RETURN_IF_ERROR(ScanCollection<TsPoint>(
      &ct, kCollectionName, *indexer_,
      [](const TsPoint& point) {
        return std::pair(point.key(), KeyedImage(point.key(), point.bytes()));
      },
      out));
  return ct.Abort();
}

}  // namespace tdb::workload
