#include "workload/large_objects.h"

#include <algorithm>
#include <cstring>
#include <string>
#include <utility>

#include "common/check.h"

namespace tdb::workload {

namespace {

constexpr const char* kDirectoryRoot = "lob-dir";

}  // namespace

Status RegisterLargeObjectWorkloadClasses(object::ObjectStore* os) {
  TDB_RETURN_IF_ERROR(object::RegisterLargeObjectClasses(os));
  return os->registry().Register<LobDirectory>(LobDirectory::kClassId);
}

LargeObjectDriver::LargeObjectDriver(object::ObjectStore* objects,
                                     const LargeObjectSpec& spec)
    : objects_(objects),
      spec_(spec),
      rng_(spec.seed * 0x9E3779B97F4A7C15ull + 5) {
  registry_ = objects_->metrics().get();
  write_us_ = registry_->GetHistogram("workload.lob.write_us");
  read_us_ = registry_->GetHistogram("workload.lob.read_us");
  remove_us_ = registry_->GetHistogram("workload.lob.remove_us");
  objects_count_ = registry_->GetCounter("workload.lob.objects");
  bytes_ = registry_->GetCounter("workload.lob.bytes");
}

Result<std::unique_ptr<LargeObjectDriver>> LargeObjectDriver::Open(
    object::ObjectStore* objects, const LargeObjectSpec& spec, bool create) {
  if (spec.part_bytes == 0) {
    return Status::InvalidArgument("part_bytes must be positive");
  }
  std::unique_ptr<LargeObjectDriver> driver(
      new LargeObjectDriver(objects, spec));
  if (create) {
    object::Transaction txn(objects);
    TDB_ASSIGN_OR_RETURN(object::ObjectId dir_oid,
                         txn.Insert(std::make_unique<LobDirectory>()));
    driver->directory_oid_ = dir_oid;
    // Root anchored before the commit (see YcsbDriver::Load): a crash
    // between root write and commit leaves a dangling root, which Attach
    // treats as an empty directory.
    TDB_RETURN_IF_ERROR(objects->SetNamedRoot(kDirectoryRoot, dir_oid));
    TDB_RETURN_IF_ERROR(txn.Commit(true));
  } else {
    TDB_RETURN_IF_ERROR(driver->Attach());
  }
  return driver;
}

Status LargeObjectDriver::Attach() {
  TDB_ASSIGN_OR_RETURN(object::ObjectId dir_oid,
                       objects_->GetNamedRoot(kDirectoryRoot));
  if (dir_oid == object::kInvalidObjectId) return Status::OK();  // Empty.
  object::ReadTransaction txn(objects_);
  Result<std::unique_ptr<LobDirectory>> directory =
      txn.Take<LobDirectory>(dir_oid);
  if (!directory.ok()) {
    if (directory.status().IsNotFound()) return Status::OK();  // Dangling.
    return directory.status();
  }
  directory_oid_ = dir_oid;
  manifests_ = directory.value()->Replay();
  if (!manifests_.empty()) next_tag_ = manifests_.rbegin()->first + 1;
  // Rebuild the model from the store so ReadOne can verify after reopen.
  for (const auto& [tag, oid] : manifests_) {
    object::LargeObjectReader reader(&txn);
    TDB_RETURN_IF_ERROR(reader.Open(oid));
    Buffer value;
    TDB_RETURN_IF_ERROR(reader.ReadAll(&value));
    model_[tag] = std::move(value);
  }
  return Status::OK();
}

uint64_t LargeObjectDriver::PickSize() {
  const uint64_t parts = 1 + rng_.Uniform(std::max<uint32_t>(1, spec_.max_parts));
  const uint64_t base = parts * spec_.part_bytes;
  switch (rng_.Uniform(4)) {
    case 0: return base;                            // Exactly at a boundary.
    case 1: return base + 1;                        // One byte over.
    case 2: return base > 1 ? base - 1 : 1;         // One byte under.
    default: return base + rng_.Uniform(spec_.part_bytes);  // Random tail.
  }
}

Result<uint64_t> LargeObjectDriver::PickLiveTag() {
  if (model_.empty()) return Status::NotFound("no live large objects");
  auto it = model_.begin();
  std::advance(it, static_cast<int64_t>(rng_.Uniform(model_.size())));
  return it->first;
}

Result<uint64_t> LargeObjectDriver::WriteOne(uint64_t total_bytes,
                                             CommitHook* hook) {
  common::ScopedTimer timer(registry_, write_us_);
  const uint64_t tag = next_tag_++;
  const bool durable = rng_.Bernoulli(spec_.p_durable);
  Buffer value = ValuePayload(rng_.Next(), static_cast<uint32_t>(total_bytes));
  object::LargeObjectWriter writer(objects_, spec_.part_bytes);
  // Stream in appends that straddle part boundaries to exercise the
  // writer's internal buffering (not one part per Append).
  const size_t step = std::max<size_t>(1, spec_.part_bytes / 3 + 1);
  for (size_t off = 0; off < value.size(); off += step) {
    const size_t n = std::min(step, value.size() - off);
    TDB_RETURN_IF_ERROR(writer.Append(Slice(value.data() + off, n)));
  }
  TDB_ASSIGN_OR_RETURN(std::unique_ptr<object::LargeObjectManifest> manifest,
                       writer.Finish(tag));
  if (hook != nullptr) hook->BeginCommit();
  object::Transaction txn(objects_);
  Status status;
  object::ObjectId manifest_oid = object::kInvalidObjectId;
  Result<object::ObjectId> inserted = txn.Insert(std::move(manifest));
  status = inserted.ok() ? Status::OK() : inserted.status();
  if (status.ok()) {
    manifest_oid = inserted.value();
    Result<object::WritableRef<LobDirectory>> dir =
        txn.OpenWritable<LobDirectory>(directory_oid_);
    status = dir.ok() ? Status::OK() : dir.status();
    if (status.ok()) {
      dir.value()->Append(tag, manifest_oid);
      if (hook != nullptr) hook->PendingWrite(tag, value);
      status = txn.Commit(durable);
    }
  }
  if (hook != nullptr) hook->EndCommit(status.ok(), durable);
  TDB_RETURN_IF_ERROR(status);
  manifests_[tag] = manifest_oid;
  bytes_written_ += value.size();
  bytes_->Add(static_cast<int64_t>(value.size()));
  objects_count_->Increment();
  model_[tag] = std::move(value);
  return tag;
}

Status LargeObjectDriver::ReadOne(uint64_t tag) {
  common::ScopedTimer timer(registry_, read_us_);
  auto expect = model_.find(tag);
  if (expect == model_.end()) {
    return Status::InvalidArgument("tag " + std::to_string(tag) +
                                   " is not live");
  }
  object::ReadTransaction txn(objects_);
  object::LargeObjectReader reader(&txn);
  TDB_RETURN_IF_ERROR(reader.Open(manifests_[tag]));
  if (reader.size() != expect->second.size()) {
    return Status::Corruption("large object " + std::to_string(tag) +
                              " size mismatch: manifest says " +
                              std::to_string(reader.size()) + ", model says " +
                              std::to_string(expect->second.size()));
  }
  Buffer got;
  if (rng_.Bernoulli(0.5)) {
    TDB_RETURN_IF_ERROR(reader.ReadAll(&got));
  } else {
    // Bounded-buffer streaming: read through a buffer smaller than a part
    // so every part boundary is crossed mid-Read.
    Buffer chunk(std::max<size_t>(1, spec_.part_bytes / 2 + 3));
    while (true) {
      TDB_ASSIGN_OR_RETURN(size_t n, reader.Read(chunk.data(), chunk.size()));
      if (n == 0) break;
      got.insert(got.end(), chunk.begin(), chunk.begin() + n);
    }
  }
  if (Slice(got) != Slice(expect->second)) {
    return Status::Corruption("large object " + std::to_string(tag) +
                              " value mismatch");
  }
  return Status::OK();
}

Status LargeObjectDriver::RemoveOne(uint64_t tag, CommitHook* hook) {
  common::ScopedTimer timer(registry_, remove_us_);
  auto it = manifests_.find(tag);
  if (it == manifests_.end()) {
    return Status::InvalidArgument("tag " + std::to_string(tag) +
                                   " is not live");
  }
  const bool durable = rng_.Bernoulli(spec_.p_durable);
  if (hook != nullptr) hook->BeginCommit();
  object::Transaction txn(objects_);
  Status status = object::RemoveLargeObject(&txn, it->second);
  if (status.ok()) {
    Result<object::WritableRef<LobDirectory>> dir =
        txn.OpenWritable<LobDirectory>(directory_oid_);
    status = dir.ok() ? Status::OK() : dir.status();
    if (status.ok()) {
      dir.value()->Append(tag, object::kInvalidObjectId);
      if (hook != nullptr) hook->PendingRemove(tag);
      status = txn.Commit(durable);
    }
  }
  if (hook != nullptr) hook->EndCommit(status.ok(), durable);
  TDB_RETURN_IF_ERROR(status);
  manifests_.erase(tag);
  model_.erase(tag);
  return Status::OK();
}

Status LargeObjectDriver::RunStep(CommitHook* hook) {
  step_++;
  if (spec_.remove_every != 0 && step_ % spec_.remove_every == 0 &&
      !model_.empty()) {
    TDB_ASSIGN_OR_RETURN(uint64_t tag, PickLiveTag());
    TDB_RETURN_IF_ERROR(RemoveOne(tag, hook));
    return Status::OK();
  }
  TDB_ASSIGN_OR_RETURN(uint64_t written, WriteOne(PickSize(), hook));
  if (spec_.read_every != 0 && step_ % spec_.read_every == 0) {
    TDB_ASSIGN_OR_RETURN(uint64_t tag, PickLiveTag());
    TDB_RETURN_IF_ERROR(ReadOne(tag));
    (void)written;
  }
  return Status::OK();
}

Status LargeObjectDriver::Run(CommitHook* hook) {
  for (uint32_t op = 0; op < spec_.ops; op++) {
    TDB_RETURN_IF_ERROR(RunStep(hook));
  }
  return Status::OK();
}

Status LargeObjectDriver::ScanAll(std::map<uint64_t, Buffer>* out) {
  out->clear();
  TDB_ASSIGN_OR_RETURN(object::ObjectId dir_oid,
                       objects_->GetNamedRoot(kDirectoryRoot));
  if (dir_oid == object::kInvalidObjectId) return Status::OK();
  object::ReadTransaction txn(objects_);
  Result<std::unique_ptr<LobDirectory>> directory =
      txn.Take<LobDirectory>(dir_oid);
  if (!directory.ok()) {
    if (directory.status().IsNotFound()) return Status::OK();  // Dangling.
    return directory.status();
  }
  for (const auto& [tag, oid] : directory.value()->Replay()) {
    object::LargeObjectReader reader(&txn);
    TDB_RETURN_IF_ERROR(reader.Open(oid));
    Buffer value;
    TDB_RETURN_IF_ERROR(reader.ReadAll(&value));
    (*out)[tag] = std::move(value);
  }
  return Status::OK();
}

}  // namespace tdb::workload
