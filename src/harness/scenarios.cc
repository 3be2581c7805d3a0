// The per-layer scenarios of the crash/tamper engine (see engine.h). Each
// one maps the generic trace (or a workload driver) onto one store layer:
// how to open the layer, run it with oracle hooks, read its state back and
// probe a recovered stack. Everything else is the engine's.

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "collection/indexer.h"
#include "collection/key.h"
#include "harness/blob.h"
#include "harness/engine.h"
#include "workload/large_objects.h"
#include "workload/timeseries.h"
#include "workload/tpcb.h"
#include "workload/ycsb.h"

namespace tdb::harness {

Status RegisterHarnessClasses(object::ObjectStore* os) {
  return os->registry().Register<HarnessBlob>(HarnessBlob::kClassId);
}

namespace {

constexpr uint64_t kProbeKey = 0xF00D0000ull;  // Above every trace slot.
const Buffer kProbeBytes{0xAA, 0xBB, 0xCC};

/// Seals one commit attempt on every oracle, keeping boundaries aligned
/// across shards (non-participants repeat their state). The router
/// upgrades a multi-shard commit to durable, and a durable commit covers
/// only the shards it touches, except an empty one, which syncs them all.
Status SealCommit(std::vector<StateOracle>* oracles,
                  const std::set<int>& participants, bool durable_request,
                  size_t commit, Status status, InFlight* inflight) {
  const bool durable = durable_request || participants.size() > 1;
  for (size_t k = 0; k < oracles->size(); k++) {
    const bool covered = participants.empty()
                             ? durable
                             : participants.count(static_cast<int>(k)) > 0;
    (*oracles)[k].EndCommit(status.ok(), durable && covered);
  }
  if (!status.ok() && inflight != nullptr) {
    inflight->commit = static_cast<int>(commit);
    inflight->participants.assign(participants.begin(), participants.end());
  }
  return status;
}

void BeginCommit(std::vector<StateOracle>* oracles) {
  for (StateOracle& oracle : *oracles) oracle.BeginCommit();
}

/// layer=chunk (one ChunkStore) and layer=shard (the ShardedChunkStore
/// router, which places chunk id c on shard c % n): each trace commit is
/// one WriteBatch, and checkpoint flags become Checkpoint() calls.
class ChunkScenario final : public Scenario {
 public:
  using Scenario::Scenario;

  Status Run(Stack* stack, std::vector<StateOracle>* oracles,
             InFlight* inflight) override {
    chunk::ChunkStoreInterface* cs = stack->chunks.get();
    const size_t n = oracles->size();
    const std::vector<TraceCommit> trace = GenerateTrace(target().spec);
    std::map<uint32_t, chunk::ChunkId> slot_ids;
    for (size_t c = 0; c < trace.size(); c++) {
      chunk::WriteBatch batch;
      BeginCommit(oracles);
      std::set<int> participants;
      for (const TraceOp& op : trace[c].ops) {
        auto it = slot_ids.find(op.slot);
        if (op.kind == TraceOp::Kind::kWrite) {
          if (it == slot_ids.end()) {
            it = slot_ids.emplace(op.slot, cs->AllocateChunkId()).first;
          }
          Buffer payload = SlotPayload(op.payload_seed, op.size);
          batch.Write(it->second, payload);
          participants.insert(static_cast<int>(it->second % n));
          (*oracles)[it->second % n].PendingWrite(it->second,
                                                  std::move(payload));
        } else if (it != slot_ids.end()) {
          batch.Deallocate(it->second);
          participants.insert(static_cast<int>(it->second % n));
          (*oracles)[it->second % n].PendingRemove(it->second);
          slot_ids.erase(it);
        }
      }
      TDB_RETURN_IF_ERROR(SealCommit(oracles, participants, trace[c].durable,
                                     c, cs->Commit(batch, trace[c].durable),
                                     inflight));
      if (trace[c].checkpoint_after) {
        TDB_RETURN_IF_ERROR(cs->Checkpoint());
        for (StateOracle& oracle : *oracles) oracle.MarkAllDurable();
      }
    }
    return Status::OK();
  }

  Status ReadBack(Stack* stack, const std::set<uint64_t>& ids,
                  StateOracle::State* out, bool* detected) override {
    for (uint64_t id : ids) {
      Result<Buffer> read = stack->chunks->Read(id);
      if (read.ok()) {
        (*out)[id] = std::move(read).value();
      } else if (!read.status().IsNotFound()) {
        TDB_RETURN_IF_ERROR(SortReadError(read.status(), detected));
      }
    }
    return Status::OK();
  }
};

/// Opens the object store over the chunk layer with every class the
/// scenarios persist registered.
Status OpenObjects(Stack* stack) {
  TDB_ASSIGN_OR_RETURN(stack->objects,
                       object::ObjectStore::Open(stack->chunks.get()));
  return RegisterHarnessClasses(stack->objects.get());
}

/// layer=object (ObjectStore over one ChunkStore) and layer=objshard (over
/// the router, object id o on shard o % n): each trace commit is one
/// object transaction (insert / open-writable update / remove); checkpoint
/// flags are ignored. The chunk ops the transaction emits are modeled
/// exactly (a write of an object removed in the same transaction, and the
/// removal of one inserted in it, cancel out), so the participant set,
/// and with it the router's durability upgrade, matches the real batch.
class ObjectScenario final : public Scenario {
 public:
  using Scenario::Scenario;

  TearBuckets tears() const override {
    if (target().shards == 0) return {{0, 1, 2, 3, 4}, 4};
    return Scenario::tears();
  }

  Status Open(Stack* stack, bool) override { return OpenObjects(stack); }

  Status Run(Stack* stack, std::vector<StateOracle>* oracles,
             InFlight* inflight) override {
    const size_t n = oracles->size();
    const std::vector<TraceCommit> trace = GenerateTrace(target().spec);
    std::map<uint32_t, object::ObjectId> slot_oids;
    for (size_t c = 0; c < trace.size(); c++) {
      object::Transaction txn(stack->objects.get());
      BeginCommit(oracles);
      std::map<object::ObjectId, Buffer> writes;  // oid -> KeyedImage.
      std::set<object::ObjectId> inserted, removed;
      Status status = RunOps(&txn, trace[c], &slot_oids, &writes, &inserted,
                             &removed);
      if (!status.ok()) {
        // No chunk commit was attempted, so nothing is in flight; the
        // transaction's destructor aborts it.
        return SealCommit(oracles, {}, trace[c].durable, c, status, nullptr);
      }
      std::set<int> participants;
      for (auto& [oid, image] : writes) {
        participants.insert(static_cast<int>(oid % n));
        (*oracles)[oid % n].PendingWrite(oid, std::move(image));
      }
      for (object::ObjectId oid : removed) {
        if (inserted.count(oid) != 0) continue;  // Never reached the store.
        participants.insert(static_cast<int>(oid % n));
        (*oracles)[oid % n].PendingRemove(oid);
      }
      TDB_RETURN_IF_ERROR(SealCommit(oracles, participants, trace[c].durable,
                                     c, txn.Commit(trace[c].durable),
                                     inflight));
    }
    return Status::OK();
  }

  Status ReadBack(Stack* stack, const std::set<uint64_t>& ids,
                  StateOracle::State* out, bool* detected) override {
    object::Transaction txn(stack->objects.get());
    for (uint64_t oid : ids) {
      Result<object::ReadonlyRef<HarnessBlob>> ref =
          txn.OpenReadonly<HarnessBlob>(oid);
      if (ref.ok()) {
        (*out)[oid] =
            workload::KeyedImage(ref.value()->key(), ref.value()->bytes());
      } else if (!ref.status().IsNotFound()) {
        TDB_RETURN_IF_ERROR(SortReadError(ref.status(), detected));
      }
    }
    return txn.Abort();
  }

 private:
  static Status RunOps(object::Transaction* txn, const TraceCommit& commit,
                       std::map<uint32_t, object::ObjectId>* slot_oids,
                       std::map<object::ObjectId, Buffer>* writes,
                       std::set<object::ObjectId>* inserted,
                       std::set<object::ObjectId>* removed) {
    for (const TraceOp& op : commit.ops) {
      auto it = slot_oids->find(op.slot);
      if (op.kind == TraceOp::Kind::kWrite) {
        Buffer payload = SlotPayload(op.payload_seed, op.size);
        if (it == slot_oids->end()) {
          TDB_ASSIGN_OR_RETURN(
              object::ObjectId oid,
              txn->Insert(std::make_unique<HarnessBlob>(op.slot, payload)));
          it = slot_oids->emplace(op.slot, oid).first;
          inserted->insert(oid);
        } else {
          TDB_ASSIGN_OR_RETURN(object::WritableRef<HarnessBlob> ref,
                               txn->OpenWritable<HarnessBlob>(it->second));
          ref->set_bytes(payload);
        }
        (*writes)[it->second] = workload::KeyedImage(op.slot, payload);
      } else if (it != slot_oids->end()) {
        TDB_RETURN_IF_ERROR(txn->Remove(it->second));
        removed->insert(it->second);
        writes->erase(it->second);
        slot_oids->erase(it);
      }
    }
    return Status::OK();
  }
};

constexpr const char* kCollectionName = "harness";

/// layer=collection (collection -> object -> chunk): each trace commit is
/// one CTransaction over an int-keyed unique B-tree collection of
/// HarnessBlobs (key = slot): insert / iterator update / iterator remove.
/// The oracle is keyed by slot; read-back is a full index scan.
class CollectionScenario final : public Scenario {
 public:
  explicit CollectionScenario(Target target)
      : Scenario(std::move(target)),
        indexer_(std::make_shared<
                 collection::Indexer<HarnessBlob, collection::IntKey>>(
            "by-key", collection::Uniqueness::kUnique,
            collection::IndexKind::kBTree,
            [](const HarnessBlob& blob) {
              return collection::IntKey(static_cast<int64_t>(blob.key()));
            },
            collection::KeyMutability::kImmutable)) {}

  TearBuckets tears() const override { return {{0, 2, 4}, 4}; }

  /// `create` also creates the collection: a durable setup commit that
  /// runs before any crash is armed.
  Status Open(Stack* stack, bool create) override {
    TDB_RETURN_IF_ERROR(OpenObjects(stack));
    TDB_ASSIGN_OR_RETURN(
        stack->collections,
        collection::CollectionStore::Open(stack->objects.get()));
    TDB_RETURN_IF_ERROR(
        stack->collections->RegisterIndexer(kCollectionName, indexer_));
    if (!create) return Status::OK();
    collection::CTransaction ct(stack->collections.get());
    TDB_RETURN_IF_ERROR(
        ct.CreateCollection(kCollectionName, indexer_).status());
    return ct.Commit(true);
  }

  Status Run(Stack* stack, std::vector<StateOracle>* oracles,
             InFlight*) override {
    StateOracle& oracle = (*oracles)[0];
    for (const TraceCommit& commit : GenerateTrace(target().spec)) {
      collection::CTransaction ct(stack->collections.get());
      oracle.BeginCommit();
      Status status = RunOps(&ct, commit, &oracle);
      if (status.ok()) status = ct.Commit(commit.durable);
      oracle.EndCommit(status.ok(), commit.durable);
      TDB_RETURN_IF_ERROR(status);
    }
    return Status::OK();
  }

  Status ReadBack(Stack* stack, const std::set<uint64_t>&,
                  StateOracle::State* out, bool* detected) override {
    return SortReadError(Scan(stack, std::nullopt, out), detected);
  }

  /// A durable insert through the recovered index, found again by key.
  Status Probe(Stack* stack) override {
    {
      collection::CTransaction ct(stack->collections.get());
      TDB_ASSIGN_OR_RETURN(object::WritableRef<collection::Collection> coll,
                           ct.WriteCollection(kCollectionName));
      TDB_RETURN_IF_ERROR(
          coll->Insert(&ct, std::make_unique<HarnessBlob>(kProbeKey,
                                                          kProbeBytes))
              .status());
      TDB_RETURN_IF_ERROR(ct.Commit(true));
    }
    StateOracle::State found;
    TDB_RETURN_IF_ERROR(Scan(stack, kProbeKey, &found));
    if (found.size() != 1 || found[kProbeKey] != kProbeBytes) {
      return Status::Corruption("probe readback mismatch");
    }
    return Status::OK();
  }

 private:
  Status RunOps(collection::CTransaction* ct, const TraceCommit& commit,
                StateOracle* oracle) {
    TDB_ASSIGN_OR_RETURN(object::WritableRef<collection::Collection> coll,
                         ct->WriteCollection(kCollectionName));
    for (const TraceOp& op : commit.ops) {
      TDB_ASSIGN_OR_RETURN(
          std::unique_ptr<collection::Iterator> it,
          coll->Query(ct, *indexer_,
                      collection::IntKey(static_cast<int64_t>(op.slot))));
      Status status;
      if (op.kind == TraceOp::Kind::kWrite) {
        Buffer payload = SlotPayload(op.payload_seed, op.size);
        if (it->end()) {
          status = coll->Insert(ct, std::make_unique<HarnessBlob>(op.slot,
                                                                  payload))
                       .status();
        } else {
          Result<object::WritableRef<HarnessBlob>> ref =
              it->Write<HarnessBlob>();
          if (ref.ok()) ref.value()->set_bytes(payload);
          status = ref.status();
        }
        if (status.ok()) oracle->PendingWrite(op.slot, std::move(payload));
      } else {
        if (!it->end()) status = it->RemoveCurrent();
        if (status.ok()) oracle->PendingRemove(op.slot);
      }
      Status closed = it->Close();
      TDB_RETURN_IF_ERROR(status);
      TDB_RETURN_IF_ERROR(closed);
    }
    return Status::OK();
  }

  /// Scans the collection (or one key of it) into slot -> payload.
  Status Scan(Stack* stack, std::optional<uint64_t> key,
              StateOracle::State* out) {
    collection::CTransaction ct(stack->collections.get());
    TDB_ASSIGN_OR_RETURN(object::ReadonlyRef<collection::Collection> coll,
                         ct.ReadCollection(kCollectionName));
    Result<std::unique_ptr<collection::Iterator>> query =
        key ? coll->Query(&ct, *indexer_,
                          collection::IntKey(static_cast<int64_t>(*key)))
            : coll->Query(&ct, *indexer_);
    TDB_ASSIGN_OR_RETURN(std::unique_ptr<collection::Iterator> it,
                         std::move(query));
    for (; !it->end(); it->Next()) {
      TDB_ASSIGN_OR_RETURN(object::ReadonlyRef<HarnessBlob> ref,
                           it->Read<HarnessBlob>());
      if (!out->emplace(ref->key(), ref->bytes()).second) {
        return Status::Corruption("duplicate key " +
                                  std::to_string(ref->key()) +
                                  " in collection scan");
      }
    }
    TDB_RETURN_IF_ERROR(it->Close());
    return ct.Abort();
  }

  std::shared_ptr<collection::GenericIndexer> indexer_;
};

/// layer=ycsb|timeseries|largeobject|tpcb: a src/workload driver instead
/// of the synthetic trace. The spec's repro fields map deterministically
/// onto the driver spec: seed picks the YCSB mix (seed % 6) and all
/// payloads, commits sizes the operation count, slots the record count /
/// retention window / TPC-B account table. The drivers create their own
/// structures inside Run, so crash points cover the load phase too; the
/// oracle is keyed by the driver's logical key (record key, timestamp,
/// large-object tag, TPC-B table and row id).
class WorkloadScenario final : public Scenario {
 public:
  using Scenario::Scenario;

  TearBuckets tears() const override { return {{0, 2, 4}, 4}; }

  Status Open(Stack* stack, bool) override {
    TDB_RETURN_IF_ERROR(OpenObjects(stack));
    object::ObjectStore* os = stack->objects.get();
    TDB_RETURN_IF_ERROR(workload::RegisterYcsbClasses(os));
    TDB_RETURN_IF_ERROR(workload::RegisterTimeSeriesClasses(os));
    TDB_RETURN_IF_ERROR(workload::RegisterLargeObjectWorkloadClasses(os));
    TDB_RETURN_IF_ERROR(workload::RegisterTpcbClasses(os));
    TDB_ASSIGN_OR_RETURN(stack->collections,
                         collection::CollectionStore::Open(os));
    return Status::OK();
  }

  Status Run(Stack* stack, std::vector<StateOracle>* oracles,
             InFlight*) override {
    return Drive(stack, /*create=*/true, &(*oracles)[0], nullptr);
  }

  Status ReadBack(Stack* stack, const std::set<uint64_t>&,
                  StateOracle::State* out, bool* detected) override {
    return SortReadError(Drive(stack, /*create=*/false, nullptr, out),
                         detected);
  }

 private:
  /// Attaches the layer's driver, then runs it (create) or scans it.
  Status Drive(Stack* stack, bool create, workload::CommitHook* hook,
               StateOracle::State* scan) {
    const TraceSpec& spec = target().spec;
    const std::string& layer = target().layer;
    if (layer == "ycsb") {
      workload::YcsbSpec y;
      y.mix = workload::MixFromIndex(spec.seed);
      y.records = spec.slots;
      y.ops = spec.commits;
      y.value_bytes = 64;
      y.max_scan_len = 8;
      y.seed = spec.seed;
      y.p_durable = 0.5;
      y.max_inserts = spec.commits;  // Bounded keyspace growth.
      TDB_ASSIGN_OR_RETURN(
          std::unique_ptr<workload::YcsbDriver> driver,
          workload::YcsbDriver::Open(stack->objects.get(),
                                     stack->collections.get(), y, create,
                                     hook));
      return create ? driver->Run(/*stream=*/0, hook) : driver->Scan(scan);
    }
    if (layer == "timeseries") {
      workload::TimeSeriesSpec t;
      t.seed = spec.seed;
      t.batches = spec.commits;
      t.points_per_batch = 4;
      t.value_bytes = 48;
      t.start_ts = 1000;
      t.ts_stride = 10;
      // Roughly `slots` points stay live; everything older is
      // retention-fed to the cleaner.
      t.retention_window = t.ts_stride * std::max<uint64_t>(1, spec.slots);
      t.retention_every = 3;
      t.scan_every = 2;
      t.p_durable = 0.5;
      TDB_ASSIGN_OR_RETURN(std::unique_ptr<workload::TimeSeriesDriver> driver,
                           workload::TimeSeriesDriver::Open(
                               stack->collections.get(), t, create));
      return create ? driver->Run(hook) : driver->ScanAll(scan);
    }
    if (layer == "tpcb") {
      const uint32_t n = std::max<uint32_t>(1, spec.slots);
      const workload::TpcbSpec t{.accounts = n,
                                 .tellers = std::max<uint32_t>(1, n / 2),
                                 .branches = std::max<uint32_t>(1, n / 4),
                                 .history = n,
                                 .seed = spec.seed,
                                 .p_durable = 0.5};
      TDB_ASSIGN_OR_RETURN(
          std::unique_ptr<workload::TpcbDriver> driver,
          workload::TpcbDriver::Open(stack->collections.get(), t, create,
                                     hook));
      return create ? driver->Run(spec.commits, hook) : driver->Scan(scan);
    }
    workload::LargeObjectSpec l;
    l.seed = spec.seed;
    l.ops = spec.commits;
    l.part_bytes = 64;  // Small parts: every object spans several chunks.
    l.max_parts = 3;
    l.p_durable = 0.5;
    l.remove_every = 4;
    l.read_every = 2;
    TDB_ASSIGN_OR_RETURN(
        std::unique_ptr<workload::LargeObjectDriver> driver,
        workload::LargeObjectDriver::Open(stack->objects.get(), l, create));
    return create ? driver->Run(hook) : driver->ScanAll(scan);
  }
};

}  // namespace

TearBuckets Scenario::tears() const {
  if (target_.spec.preset == Preset::kStrict) {
    return {{0, 1, 2, 3, 4, 5, 6, 7, 8}, 8};
  }
  return {{0, 1, 2, 3, 4}, 4};
}

Status Scenario::Open(Stack*, bool) { return Status::OK(); }

Status Scenario::Probe(Stack* stack) {
  const size_t n = std::max<size_t>(2, oracles());
  if (stack->objects != nullptr) {
    // Consecutive oids round-robin the shards, so on a router this drives
    // a fresh 2PC over the recovered decision chains.
    std::vector<object::ObjectId> oids;
    object::Transaction txn(stack->objects.get());
    for (size_t k = 0; k < n; k++) {
      TDB_ASSIGN_OR_RETURN(
          object::ObjectId oid,
          txn.Insert(std::make_unique<HarnessBlob>(kProbeKey + k,
                                                   kProbeBytes)));
      oids.push_back(oid);
    }
    TDB_RETURN_IF_ERROR(txn.Commit(true));
    object::Transaction check(stack->objects.get());
    for (size_t k = 0; k < n; k++) {
      Result<object::ReadonlyRef<HarnessBlob>> ref =
          check.OpenReadonly<HarnessBlob>(oids[k]);
      if (!ref.ok() || ref.value()->key() != kProbeKey + k) {
        return Status::Corruption("probe readback mismatch");
      }
    }
    return check.Abort();
  }
  chunk::WriteBatch batch;
  std::vector<chunk::ChunkId> cids;
  for (size_t k = 0; k < n; k++) {
    cids.push_back(stack->chunks->AllocateChunkId());
    batch.Write(cids.back(), kProbeBytes);
  }
  TDB_RETURN_IF_ERROR(stack->chunks->Commit(batch, true));
  for (chunk::ChunkId cid : cids) {
    Result<Buffer> read = stack->chunks->Read(cid);
    if (!read.ok() || read.value() != kProbeBytes) {
      return Status::Corruption("probe readback mismatch");
    }
  }
  return Status::OK();
}

Result<std::unique_ptr<Scenario>> MakeScenario(const Target& target) {
  const std::string& layer = target.layer;
  const bool sharded = layer == "shard" || layer == "objshard";
  if (sharded != (target.shards > 0)) {
    return Status::InvalidArgument("layer " + layer + " with shards=" +
                                   std::to_string(target.shards));
  }
  std::unique_ptr<Scenario> scenario;
  if (layer == "chunk" || layer == "shard") {
    scenario = std::make_unique<ChunkScenario>(target);
  } else if (layer == "object" || layer == "objshard") {
    scenario = std::make_unique<ObjectScenario>(target);
  } else if (layer == "collection") {
    scenario = std::make_unique<CollectionScenario>(target);
  } else if (layer == "ycsb" || layer == "timeseries" ||
             layer == "largeobject" || layer == "tpcb") {
    scenario = std::make_unique<WorkloadScenario>(target);
  } else {
    return Status::InvalidArgument("unknown layer: " + layer);
  }
  return scenario;
}

}  // namespace tdb::harness
