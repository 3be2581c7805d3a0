#include "shard/sharded_chunk_store.h"

#include <algorithm>
#include <set>
#include <thread>

#include "common/coding.h"
#include "crypto/hmac.h"

namespace tdb::shard {

namespace {

// Reserved router-internal chunk-id space: the top bit. Application ids
// come from the router's allocator starting at 1, so they never reach it.
// Bits 62/61 discriminate the record kind; transaction ids stay far below
// 2^61 in any realistic lifetime.
constexpr chunk::ChunkId kReservedBit = 1ull << 63;
constexpr chunk::ChunkId kStageBase = kReservedBit | (1ull << 62);
constexpr chunk::ChunkId kDecisionBase = kReservedBit | (1ull << 61);
constexpr chunk::ChunkId kConfigCid = kReservedBit | 1;
constexpr chunk::ChunkId kChainBaseCid = kReservedBit | 2;

constexpr uint32_t kConfigMagic = 0x54444253;    // "TDBS"
constexpr uint32_t kPrepareMagic = 0x32504350;   // "2PCP"
constexpr uint32_t kDecisionMagic = 0x32504344;  // "2PCD"
constexpr uint32_t kChainBaseMagic = 0x32504342; // "2PCB"
constexpr uint32_t kRecordVersion = 1;

// Info string for deriving the 2PC chain key from the shard-0 secret; a
// separate key from the chunk layer's, so a component holding only chunk
// credentials still cannot mint coordinator decisions.
constexpr const char kChainKeyInfo[] = "tdb-2pc-chain-key-v1";

enum class RouterKind { kConfig, kChainBase, kStaging, kDecision, kUnknown };

RouterKind KindOf(chunk::ChunkId cid) {
  if (cid == kConfigCid) return RouterKind::kConfig;
  if (cid == kChainBaseCid) return RouterKind::kChainBase;
  if ((cid & kStageBase) == kStageBase) return RouterKind::kStaging;
  if ((cid & kDecisionBase) == kDecisionBase) return RouterKind::kDecision;
  return RouterKind::kUnknown;
}

Status MalformedTxnRecord(const char* what) {
  return Status::TamperDetected(std::string("malformed 2PC record: ") +
                                what);
}

Status GetDigest(Decoder* dec, crypto::Digest* out) {
  Slice bytes;
  TDB_RETURN_IF_ERROR(dec->GetLengthPrefixed(&bytes));
  if (bytes.size() > crypto::Digest::kMaxSize) {
    return Status::Corruption("digest too long");
  }
  *out = crypto::Digest(bytes.data(), bytes.size());
  return Status::OK();
}

// The public API's answer for an id of the router's reserved range.
Status ReservedRouterId() {
  return Status::InvalidArgument("chunk id in reserved router range");
}

}  // namespace

bool ShardedChunkStore::IsRouterChunk(chunk::ChunkId cid) {
  return (cid & kReservedBit) != 0;
}
chunk::ChunkId ShardedChunkStore::StagingCid(uint64_t txn_id) {
  return kStageBase | txn_id;
}
chunk::ChunkId ShardedChunkStore::DecisionCid(uint64_t txn_id) {
  return kDecisionBase | txn_id;
}
chunk::ChunkId ShardedChunkStore::ChainBaseCid() { return kChainBaseCid; }

ShardedChunkStore::~ShardedChunkStore() = default;

// ---------------------------------------------------------------------------
// Record codecs

crypto::Digest ShardedChunkStore::MacOf(Slice mac_input) const {
  if (mac_key_.empty()) return crypto::Digest();
  return crypto::Hmac::Mac(mac_hash_, Slice(mac_key_), mac_input);
}

Buffer ShardedChunkStore::EncodePrepare(uint64_t txn_id,
                                        uint64_t participants,
                                        uint32_t shard_index,
                                        const chunk::WriteBatch& ops,
                                        const crypto::Digest& prev_mac,
                                        crypto::Digest* mac) const {
  Buffer out;
  PutFixed32(&out, kPrepareMagic);
  PutFixed32(&out, kRecordVersion);
  PutFixed64(&out, txn_id);
  PutFixed32(&out, shard_index);
  PutFixed64(&out, participants);
  PutFixed32(&out, static_cast<uint32_t>(ops.ops_.size()));
  for (const auto& op : ops.ops_) {
    out.push_back(op.is_write ? 1 : 0);
    PutFixed64(&out, op.cid);
    if (op.is_write) PutLengthPrefixed(&out, Slice(op.data));
  }
  PutLengthPrefixed(&out, prev_mac.AsSlice());
  crypto::Digest m = MacOf(Slice(out));
  PutLengthPrefixed(&out, m.AsSlice());
  if (mac != nullptr) *mac = m;
  return out;
}

Status ShardedChunkStore::DecodePrepare(Slice payload,
                                        PrepareRecord* out) const {
  Decoder dec(payload);
  uint32_t magic = 0, version = 0, op_count = 0;
  TDB_RETURN_IF_ERROR(dec.GetFixed32(&magic));
  if (magic != kPrepareMagic) return MalformedTxnRecord("prepare magic");
  TDB_RETURN_IF_ERROR(dec.GetFixed32(&version));
  if (version != kRecordVersion) {
    return MalformedTxnRecord("prepare version");
  }
  TDB_RETURN_IF_ERROR(dec.GetFixed64(&out->txn_id));
  TDB_RETURN_IF_ERROR(dec.GetFixed32(&out->shard_index));
  TDB_RETURN_IF_ERROR(dec.GetFixed64(&out->participants));
  TDB_RETURN_IF_ERROR(dec.GetFixed32(&op_count));
  out->ops.Clear();
  for (uint32_t i = 0; i < op_count; i++) {
    Slice kind;
    TDB_RETURN_IF_ERROR(dec.GetBytes(1, &kind));
    uint64_t cid = 0;
    TDB_RETURN_IF_ERROR(dec.GetFixed64(&cid));
    if (kind[0] == 1) {
      Slice data;
      TDB_RETURN_IF_ERROR(dec.GetLengthPrefixed(&data));
      out->ops.Write(cid, data);
    } else if (kind[0] == 0) {
      out->ops.Deallocate(cid);
    } else {
      return MalformedTxnRecord("prepare op kind");
    }
  }
  TDB_RETURN_IF_ERROR(GetDigest(&dec, &out->prev_mac));
  const size_t mac_offset = payload.size() - dec.remaining();
  TDB_RETURN_IF_ERROR(GetDigest(&dec, &out->mac));
  if (!dec.done()) return MalformedTxnRecord("prepare trailing bytes");
  if (!mac_key_.empty() &&
      out->mac != MacOf(Slice(payload.data(), mac_offset))) {
    return Status::TamperDetected("2PC prepare record MAC mismatch");
  }
  return Status::OK();
}

Buffer ShardedChunkStore::EncodeDecision(uint64_t txn_id,
                                         uint64_t participants,
                                         uint32_t shard_index, bool commit,
                                         const crypto::Digest& prepare_mac,
                                         const crypto::Digest& prev_mac,
                                         crypto::Digest* mac) const {
  Buffer out;
  PutFixed32(&out, kDecisionMagic);
  PutFixed32(&out, kRecordVersion);
  PutFixed64(&out, txn_id);
  PutFixed32(&out, shard_index);
  PutFixed64(&out, participants);
  out.push_back(commit ? 1 : 0);
  PutLengthPrefixed(&out, prepare_mac.AsSlice());
  PutLengthPrefixed(&out, prev_mac.AsSlice());
  crypto::Digest m = MacOf(Slice(out));
  PutLengthPrefixed(&out, m.AsSlice());
  if (mac != nullptr) *mac = m;
  return out;
}

Status ShardedChunkStore::DecodeDecision(Slice payload,
                                         DecisionRecord* out) const {
  Decoder dec(payload);
  uint32_t magic = 0, version = 0;
  TDB_RETURN_IF_ERROR(dec.GetFixed32(&magic));
  if (magic != kDecisionMagic) return MalformedTxnRecord("decision magic");
  TDB_RETURN_IF_ERROR(dec.GetFixed32(&version));
  if (version != kRecordVersion) {
    return MalformedTxnRecord("decision version");
  }
  TDB_RETURN_IF_ERROR(dec.GetFixed64(&out->txn_id));
  TDB_RETURN_IF_ERROR(dec.GetFixed32(&out->shard_index));
  TDB_RETURN_IF_ERROR(dec.GetFixed64(&out->participants));
  Slice verdict;
  TDB_RETURN_IF_ERROR(dec.GetBytes(1, &verdict));
  if (verdict[0] > 1) return MalformedTxnRecord("decision verdict");
  out->commit = verdict[0] == 1;
  TDB_RETURN_IF_ERROR(GetDigest(&dec, &out->prepare_mac));
  TDB_RETURN_IF_ERROR(GetDigest(&dec, &out->prev_mac));
  const size_t mac_offset = payload.size() - dec.remaining();
  TDB_RETURN_IF_ERROR(GetDigest(&dec, &out->mac));
  if (!dec.done()) return MalformedTxnRecord("decision trailing bytes");
  if (!mac_key_.empty() &&
      out->mac != MacOf(Slice(payload.data(), mac_offset))) {
    return Status::TamperDetected("2PC decision record MAC mismatch");
  }
  return Status::OK();
}

Buffer ShardedChunkStore::EncodeChainBase(
    uint32_t shard_index, uint64_t through_txn,
    const crypto::Digest& chain_mac) const {
  Buffer out;
  PutFixed32(&out, kChainBaseMagic);
  PutFixed32(&out, kRecordVersion);
  PutFixed32(&out, shard_index);
  PutFixed64(&out, through_txn);
  PutLengthPrefixed(&out, chain_mac.AsSlice());
  PutLengthPrefixed(&out, MacOf(Slice(out)).AsSlice());
  return out;
}

Status ShardedChunkStore::DecodeChainBase(Slice payload, uint32_t shard_index,
                                          uint64_t* through_txn,
                                          crypto::Digest* chain_mac) const {
  Decoder dec(payload);
  uint32_t magic = 0, version = 0, index = 0;
  TDB_RETURN_IF_ERROR(dec.GetFixed32(&magic));
  if (magic != kChainBaseMagic) return MalformedTxnRecord("chain base magic");
  TDB_RETURN_IF_ERROR(dec.GetFixed32(&version));
  if (version != kRecordVersion) {
    return MalformedTxnRecord("chain base version");
  }
  TDB_RETURN_IF_ERROR(dec.GetFixed32(&index));
  if (index != shard_index) return MalformedTxnRecord("chain base fields");
  TDB_RETURN_IF_ERROR(dec.GetFixed64(through_txn));
  TDB_RETURN_IF_ERROR(GetDigest(&dec, chain_mac));
  const size_t mac_offset = payload.size() - dec.remaining();
  crypto::Digest mac;
  TDB_RETURN_IF_ERROR(GetDigest(&dec, &mac));
  if (!dec.done()) return MalformedTxnRecord("chain base trailing bytes");
  if (!mac_key_.empty() && mac != MacOf(Slice(payload.data(), mac_offset))) {
    return Status::TamperDetected("2PC chain base MAC mismatch");
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Open / config / recovery

void ShardedChunkStore::AuditTxn(const char* kind,
                                 const std::string& location,
                                 const std::string& message) {
  metrics_->audit().Record(kind, common::kRegionTxn, location, message);
}

Result<std::unique_ptr<ShardedChunkStore>> ShardedChunkStore::Open(
    const std::vector<ShardBackend>& backends,
    const chunk::ChunkStoreOptions& options) {
  const size_t n = backends.size();
  if (n == 0 || n > 64) {
    return Status::InvalidArgument("shard count must be in 1..64");
  }
  for (const ShardBackend& b : backends) {
    if (b.store == nullptr || b.counter == nullptr ||
        (options.security.enabled && b.secrets == nullptr)) {
      return Status::InvalidArgument("incomplete shard backend");
    }
  }
  std::unique_ptr<ShardedChunkStore> st(new ShardedChunkStore());
  st->metrics_ = options.metrics != nullptr
                     ? options.metrics
                     : std::make_shared<common::MetricsRegistry>();
  st->mac_hash_ = options.security.hash;
  for (size_t k = 0; k < n; k++) {
    chunk::ChunkStoreOptions opts = options;
    opts.metrics = st->metrics_;
    // Shards may share the master secret, hence the cipher key: their IV
    // streams must differ. One shard keeps the caller's seed, so N == 1
    // is a plain pass-through.
    if (n > 1) opts.iv_seed = options.iv_seed + "/shard" + std::to_string(k);
    TDB_ASSIGN_OR_RETURN(
        std::unique_ptr<chunk::ChunkStore> cs,
        chunk::ChunkStore::Open(backends[k].store, backends[k].secrets,
                                backends[k].counter, opts,
                                "shard" + std::to_string(k) + "."));
    st->shards_.push_back(std::move(cs));
  }
  st->chains_.resize(n);
  if (options.security.enabled) {
    TDB_ASSIGN_OR_RETURN(Buffer secret, backends[0].secrets->GetSecret());
    crypto::Digest key = crypto::Hmac::Mac(st->mac_hash_, Slice(secret),
                                           Slice(kChainKeyInfo));
    st->mac_key_.assign(key.data(), key.data() + key.size());
  }
  common::MetricsRegistry* r = st->metrics_.get();
#define TDB_BIND(kind, member, name) st->m_.member = r->Get##kind(name);
  TDB_ROUTER_METRICS(TDB_BIND, TDB_BIND)
#undef TDB_BIND
  // Intern the per-shard span names once; TraceEvents hold name pointers
  // long after this store is gone, so dynamic labels must not dangle.
  for (size_t k = 0; k < n; k++) {
    st->prepare_span_names_.push_back(common::InternTraceName(
        "shard" + std::to_string(k) + ".2pc.prepare"));
    st->decision_span_names_.push_back(common::InternTraceName(
        "shard" + std::to_string(k) + ".2pc.decision"));
  }
  if (n > 1) {
    // More workers than participants is waste: a 2PC has at most one task
    // per shard in flight.
    st->txn_pool_ = std::make_unique<ThreadPool>(
        std::min(options.txn_coordinator_threads, static_cast<int>(n)));
  }
  TDB_RETURN_IF_ERROR(st->CheckConfig());
  if (n > 1) TDB_RETURN_IF_ERROR(st->RecoverCrossShard());
  return st;
}

Status ShardedChunkStore::CheckConfig() {
  const size_t n = shards_.size();
  size_t missing = 0;
  for (size_t k = 0; k < n; k++) {
    Result<Buffer> cfg = shards_[k]->Read(kConfigCid);
    if (cfg.status().IsNotFound()) {
      missing++;
      continue;
    }
    TDB_RETURN_IF_ERROR(cfg.status());
    Decoder dec(Slice(cfg.value()));
    uint32_t magic = 0, version = 0, index = 0, count = 0;
    TDB_RETURN_IF_ERROR(dec.GetFixed32(&magic));
    TDB_RETURN_IF_ERROR(dec.GetFixed32(&version));
    TDB_RETURN_IF_ERROR(dec.GetFixed32(&index));
    TDB_RETURN_IF_ERROR(dec.GetFixed32(&count));
    if (magic != kConfigMagic || version != kRecordVersion) {
      AuditTxn("shard_config_malformed", "shard" + std::to_string(k),
               "unrecognized shard config record");
      return Status::TamperDetected("malformed shard config record");
    }
    if (count != n) {
      return Status::InvalidArgument(
          "shard count mismatch: image was created with " +
          std::to_string(count) + " shards, opened with " +
          std::to_string(n));
    }
    if (index != k) {
      return Status::InvalidArgument(
          "shard backend mismatch: backend " + std::to_string(k) +
          " holds the image of shard " + std::to_string(index));
    }
  }
  // A 1-shard router is a strict pass-through and never writes a config
  // record, so its image stays bit-identical to a plain ChunkStore's; a
  // config found above (count != 1 by construction) already failed.
  if (n == 1) return Status::OK();
  if (missing == 0) return Status::OK();
  if (missing != n) {
    return Status::InvalidArgument(
        "shard config present on some shards but missing on others "
        "(mixed or corrupted shard layout)");
  }
  for (size_t k = 0; k < n; k++) {
    if (shards_[k]->next_chunk_id() != 1) {
      return Status::InvalidArgument(
          "shard " + std::to_string(k) +
          " holds existing chunks but no shard config (image was not "
          "created with this shard layout)");
    }
  }
  for (size_t k = 0; k < n; k++) {
    Buffer cfg;
    PutFixed32(&cfg, kConfigMagic);
    PutFixed32(&cfg, kRecordVersion);
    PutFixed32(&cfg, static_cast<uint32_t>(k));
    PutFixed32(&cfg, static_cast<uint32_t>(n));
    TDB_RETURN_IF_ERROR(shards_[k]->Write(kConfigCid, Slice(cfg), true));
  }
  return Status::OK();
}

Status ShardedChunkStore::RecoverCrossShard() {
  // Roots the recovery trace: per-shard decision applies (and their
  // shard-level commits) for in-doubt transactions nest under this.
  common::TraceSpan recover_span("shard.recover_2pc");
  const size_t n = shards_.size();
  struct ShardScan {
    std::map<uint64_t, PrepareRecord> prepares;
    std::map<uint64_t, DecisionRecord> decisions;
  };
  std::vector<ShardScan> scans(n);
  uint64_t max_app = 0;
  uint64_t max_txn = 0;

  for (size_t k = 0; k < n; k++) {
    const std::string where = "shard" + std::to_string(k);
    TDB_ASSIGN_OR_RETURN(std::shared_ptr<chunk::Snapshot> view,
                         shards_[k]->PinView());
    std::vector<chunk::ChunkId> reserved;
    TDB_RETURN_IF_ERROR(shards_[k]->ForEachChunkAt(
        *view, [&](chunk::ChunkId cid, const chunk::MapEntry&) -> Status {
          if (IsRouterChunk(cid)) {
            if (cid != kConfigCid) reserved.push_back(cid);
          } else {
            max_app = std::max(max_app, cid);
          }
          return Status::OK();
        }));
    for (chunk::ChunkId cid : reserved) {
      // A failed read here is the shard's own tamper detection (already
      // audited there); propagate without a second event.
      TDB_ASSIGN_OR_RETURN(Buffer payload, shards_[k]->Read(cid));
      switch (KindOf(cid)) {
        case RouterKind::kStaging: {
          PrepareRecord rec;
          Status s = DecodePrepare(Slice(payload), &rec);
          if (s.ok() && (rec.shard_index != k || StagingCid(rec.txn_id) != cid ||
                         rec.participants == 0 ||
                         (n < 64 && (rec.participants >> n) != 0))) {
            s = MalformedTxnRecord("prepare fields");
          }
          if (!s.ok()) {
            AuditTxn("txn_prepare_invalid",
                     where + ".txn" + std::to_string(cid & ~kStageBase),
                     s.ToString());
            return s;
          }
          max_txn = std::max(max_txn, rec.txn_id);
          // Resolving the transaction below may write these ids, which
          // the scan has not seen: no later allocation may hand them out.
          for (const chunk::WriteBatch::Op& op : rec.ops.ops_) {
            max_app = std::max(max_app, op.cid);
          }
          scans[k].prepares.emplace(rec.txn_id, std::move(rec));
          break;
        }
        case RouterKind::kDecision: {
          DecisionRecord rec;
          Status s = DecodeDecision(Slice(payload), &rec);
          if (s.ok() && (rec.shard_index != k ||
                         DecisionCid(rec.txn_id) != cid)) {
            s = MalformedTxnRecord("decision fields");
          }
          if (!s.ok()) {
            AuditTxn("txn_decision_invalid",
                     where + ".txn" + std::to_string(cid & ~kDecisionBase),
                     s.ToString());
            return s;
          }
          max_txn = std::max(max_txn, rec.txn_id);
          scans[k].decisions.emplace(rec.txn_id, std::move(rec));
          break;
        }
        case RouterKind::kChainBase: {
          ShardChain& c = chains_[k];
          Status s = DecodeChainBase(Slice(payload), static_cast<uint32_t>(k),
                                     &c.base_through, &c.base_mac);
          if (!s.ok()) {
            AuditTxn("txn_chain_base_invalid", where, s.ToString());
            return s;
          }
          max_txn = std::max(max_txn, c.base_through);
          break;
        }
        default:
          AuditTxn("txn_record_unknown", where,
                   "unrecognized reserved chunk id " + std::to_string(cid));
          return Status::TamperDetected("unrecognized router chunk");
      }
    }
  }

  // Verify each shard's decision chain. The kept decisions must form ONE
  // linear chain in append order that starts at the chain base (the MAC of
  // the last dropped record; the zero digest when nothing was ever
  // dropped): each record's prev_mac is its predecessor's MAC (their own
  // MACs were checked at decode). An unlinked or forked record means a
  // decision was forged, reordered, resurrected or removed through
  // otherwise-legitimate chunk commits. Without a chain key there are no
  // MACs to link, and the records are kept in transaction order.
  auto key = [](const crypto::Digest& d) { return d.AsSlice().ToString(); };
  for (size_t k = 0; k < n; k++) {
    const std::string where = "shard" + std::to_string(k);
    ShardChain& c = chains_[k];
    std::vector<const DecisionRecord*> order;
    if (mac_key_.empty()) {
      for (const auto& [txn, d] : scans[k].decisions) order.push_back(&d);
    } else {
      std::map<std::string, const DecisionRecord*> by_prev;
      for (const auto& [txn, d] : scans[k].decisions) {
        if (!by_prev.emplace(key(d.prev_mac), &d).second) {
          AuditTxn("txn_decision_chain", where + ".txn" + std::to_string(txn),
                   "two decision records share one chain predecessor");
          return Status::TamperDetected("2PC decision chain fork on " +
                                        where);
        }
      }
      crypto::Digest at = c.base_mac;
      for (auto it = by_prev.find(key(at)); it != by_prev.end();
           it = by_prev.find(key(at))) {
        order.push_back(it->second);
        at = it->second->mac;
        by_prev.erase(it);
      }
      if (!by_prev.empty()) {
        AuditTxn("txn_decision_chain",
                 where + ".txn" +
                     std::to_string(by_prev.begin()->second->txn_id),
                 "decision chain linkage mismatch");
        return Status::TamperDetected("2PC decision chain break on " +
                                      where);
      }
    }
    std::set<std::string> positions = {key(c.base_mac)};
    for (const DecisionRecord* d : order) {
      if (scans[k].prepares.count(d->txn_id) != 0) {
        AuditTxn("txn_decision_chain",
                 where + ".txn" + std::to_string(d->txn_id),
                 "staging survived its own decision");
        return Status::TamperDetected("staging chunk outlived decision");
      }
      c.live.push_back(ChainEntry{d->txn_id, ++c.appended, d->mac});
      positions.insert(key(d->mac));
    }
    c.durable = c.appended;  // Recovered state is on disk.
    c.end = c.live.empty() ? c.base_mac : c.live.back().mac;
    if (mac_key_.empty()) continue;
    // A prepare hangs off the chain position that was the end when it was
    // written. Its transaction is newer than every dropped record: GC
    // drops a record only once no staging of its transaction remains, and
    // never past a shard's failed prepare. Staging at or below the base is
    // a replayed chunk whose decisions were dropped.
    for (const auto& [txn, p] : scans[k].prepares) {
      if (txn <= c.base_through) {
        AuditTxn("txn_prepare_chain", where + ".txn" + std::to_string(txn),
                 "staging older than the decision chain base");
        return Status::TamperDetected("2PC staging below chain base on " +
                                      where);
      }
      if (positions.count(key(p.prev_mac)) == 0) {
        AuditTxn("txn_prepare_chain", where + ".txn" + std::to_string(txn),
                 "prepare record does not link to the decision chain");
        return Status::TamperDetected("2PC prepare chain break on " + where);
      }
    }
  }

  // Resolve in-doubt transactions deterministically, oldest first: commit
  // iff every participant durably prepared (or some participant already
  // holds a commit decision); abort otherwise. Redo is idempotent — the
  // staged batch rewrites the same chunk states.
  size_t live = 0;
  for (const ShardChain& c : chains_) live += c.live.size();
  m_.decisions_live->Set(static_cast<int64_t>(live));

  std::set<uint64_t> in_doubt;
  for (size_t k = 0; k < n; k++) {
    for (const auto& [txn, p] : scans[k].prepares) in_doubt.insert(txn);
  }
  std::lock_guard<std::mutex> lock(txn_mu_);
  // Every record of an in-doubt transaction must outlive its resolution: a
  // crash part-way through leaves the rest to the next recovery, which
  // still needs them. Hold them unsettled until all are resolved.
  for (uint64_t txn : in_doubt) unsettled_[txn] = ~0ull;
  for (uint64_t txn : in_doubt) {
    uint64_t mask = 0;
    bool commit_seen = false;
    bool abort_seen = false;
    for (size_t k = 0; k < n; k++) {
      auto pit = scans[k].prepares.find(txn);
      if (pit != scans[k].prepares.end()) {
        if (mask != 0 && pit->second.participants != mask) {
          AuditTxn("txn_prepare_invalid", "txn" + std::to_string(txn),
                   "participant masks disagree across shards");
          return Status::TamperDetected("2PC participant mask mismatch");
        }
        mask = pit->second.participants;
      }
      auto dit = scans[k].decisions.find(txn);
      if (dit != scans[k].decisions.end()) {
        (dit->second.commit ? commit_seen : abort_seen) = true;
      }
    }
    // The coordinator writes commit decisions only after EVERY prepare
    // succeeded, and abort decisions only after some prepare failed —
    // one transaction can never legitimately carry both.
    if (commit_seen && abort_seen) {
      AuditTxn("txn_decision_invalid", "txn" + std::to_string(txn),
               "commit and abort decisions coexist across shards");
      return Status::TamperDetected("2PC decision conflict");
    }
    bool all_prepared = true;
    for (size_t p = 0; p < n; p++) {
      if ((mask & (1ull << p)) == 0) continue;
      if (scans[p].prepares.count(txn) == 0 &&
          scans[p].decisions.count(txn) == 0) {
        all_prepared = false;
      }
    }
    // An abort decision anywhere vetoes redo: "every participant
    // resolved" is NOT evidence of a committed transaction when some of
    // those resolutions were the unwind of a failed prepare — a
    // participant whose staging lingered (e.g. a device that recovered
    // after rejecting the prepare's ack) must be rolled back with its
    // peers, not replayed against them.
    const bool do_commit = commit_seen || (all_prepared && !abort_seen);
    for (size_t p = 0; p < n; p++) {
      auto pit = scans[p].prepares.find(txn);
      if (pit == scans[p].prepares.end()) continue;
      TDB_RETURN_IF_ERROR(ApplyDecisionLocked(
          static_cast<int>(p), txn, mask, do_commit,
          do_commit ? &pit->second.ops : nullptr, pit->second.mac,
          /*durable=*/true));
    }
    if (do_commit) {
      m_.recovered_commits->Increment();
    } else {
      m_.recovered_aborts->Increment();
    }
    // An in-doubt resolution is noteworthy but NOT a security detection
    // (the tamper sweeps assert the audit log stays exact), so it goes out
    // on the registry's incident channel — an attached FlightRecorder
    // captures a post-mortem bundle for it.
    metrics_->NotifyIncident(
        "2pc_in_doubt_resolved",
        "txn" + std::to_string(txn) +
            (do_commit ? " resolved commit" : " resolved abort") +
            " (recovery)");
  }

  for (uint64_t txn : in_doubt) unsettled_.erase(txn);

  next_txn_id_ = max_txn + 1;
  next_id_.store(max_app + 1);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Commit paths

void ShardedChunkStore::MarkDurableLocked(int k, uint64_t through) {
  ShardChain& c = chains_[static_cast<size_t>(k)];
  for (auto it = c.live.rbegin(); it != c.live.rend() && it->seq > c.durable;
       ++it) {
    if (it->seq > through) continue;
    auto u = unsettled_.find(it->txn_id);
    if (u == unsettled_.end()) continue;
    u->second &= ~(1ull << k);
    if (u->second == 0) unsettled_.erase(u);
  }
  c.durable = std::max(c.durable, through);
}

void ShardedChunkStore::BoundChainsLocked() {
  bool over = false;
  for (const ShardChain& c : chains_) over |= c.live.size() > kMaxLiveDecisions;
  if (!over) return;
  chunk::WriteBatch empty;
  for (size_t k = 0; k < shards_.size(); k++) {
    if (chains_[k].durable == chains_[k].appended) continue;
    if (shards_[k]->Commit(empty, true).ok()) {
      MarkDurableLocked(static_cast<int>(k), chains_[k].appended);
    }
  }
}

Status ShardedChunkStore::ApplyDecisionLocked(
    int k, uint64_t txn_id, uint64_t participants, bool commit,
    const chunk::WriteBatch* ops, const crypto::Digest& mac_of_prepare,
    bool durable) {
  // Parented under shard.2pc on the commit path and shard.recover_2pc at
  // recovery; the shard-level commit spans (seal / follower wait / group
  // flush) nest under this via the calling thread's context.
  common::TraceSpan span(
      common::TraceName::Interned(decision_span_names_[static_cast<size_t>(k)]));
  ShardChain& c = chains_[static_cast<size_t>(k)];
  crypto::Digest mac;
  Buffer record =
      EncodeDecision(txn_id, participants, static_cast<uint32_t>(k), commit,
                     mac_of_prepare, c.end, &mac);
  chunk::WriteBatch batch;
  if (commit && ops != nullptr) batch = *ops;
  batch.Write(DecisionCid(txn_id), Slice(record));
  batch.Deallocate(StagingCid(txn_id));
  // Drop the longest prefix of durable, settled records in the same
  // atomic batch, and move the chain base past them. Each drop rewrites
  // the base, so drops wait until kDecisionDropBatch records qualify.
  size_t drop = 0;
  while (drop < c.live.size()) {
    const ChainEntry& e = c.live[drop];
    if (e.seq > c.durable || e.seq > c.fence ||
        unsettled_.count(e.txn_id) != 0) {
      break;
    }
    drop++;
  }
  if (drop < kDecisionDropBatch) drop = 0;
  uint64_t through = c.base_through;
  for (size_t i = 0; i < drop; i++) {
    batch.Deallocate(DecisionCid(c.live[i].txn_id));
    through = std::max(through, c.live[i].txn_id);
  }
  if (drop > 0) {
    batch.Write(kChainBaseCid,
                Slice(EncodeChainBase(static_cast<uint32_t>(k), through,
                                      c.live[drop - 1].mac)));
  }
  Status s = shards_[k]->Commit(batch, durable);
  if (!s.ok()) {
    // The failed batch may yet reach k's log; keep k's chain from here.
    c.fence = std::min(c.fence, c.appended);
    // A shard that failed only the write of a batch it already applied
    // (its buffered records go out with its next flush) serves the new
    // record: the chain then continues from it, or the two would fork.
    Result<Buffer> kept = shards_[k]->Read(DecisionCid(txn_id));
    if (!kept.ok() || *kept != record) return s;
  }
  if (drop > 0) {
    c.base_through = through;
    c.base_mac = c.live[drop - 1].mac;
    c.live.erase(c.live.begin(), c.live.begin() + static_cast<ptrdiff_t>(drop));
    m_.decisions_dropped->Add(static_cast<int64_t>(drop));
  }
  c.live.push_back(ChainEntry{txn_id, ++c.appended, mac});
  c.end = mac;
  m_.decisions_live->Add(1 - static_cast<int64_t>(drop));
  if (durable && s.ok()) MarkDurableLocked(k, c.appended);
  return s;
}

Status ShardedChunkStore::CommitCrossShardLocked(
    const std::map<int, chunk::WriteBatch>& parts, bool durable) {
  if (parts.empty()) return Status::OK();  // Never writes a 2PC record.
  // Root span of the coordinator: every prepare, decision, and shard-level
  // commit below parents under it, so one durable multi-shard commit
  // renders as a single causal tree.
  common::TraceSpan txn_span("shard.2pc");
  // Health-monitor visibility: the prepare/decision window is open. Wedge
  // detection keys off the age of txn_inflight_since_us.
  struct InflightGuard {
    common::Gauge* inflight;
    common::Gauge* since;
    InflightGuard(common::Gauge* g, common::Gauge* s) : inflight(g), since(s) {
      since->Set(static_cast<int64_t>(common::MonotonicMicros()));
      inflight->Add(1);
    }
    ~InflightGuard() {
      // Clear `since` FIRST: a monitor sampling between the two stores sees
      // {inflight=1, since=0}, which the health rule skips, instead of a
      // stale timestamp that would age into a phantom wedged-2PC alarm.
      since->Set(0);
      inflight->Add(-1);
    }
  } inflight_guard(m_.txn_inflight, m_.txn_inflight_since_us);
  // Prepares must persist for the decision to be recoverable, so a
  // nondurable multi-shard commit is upgraded to durable.
  if (!durable) m_.durability_upgrades->Increment();
  const uint64_t txn = next_txn_id_++;
  uint64_t mask = 0;
  for (const auto& [k, b] : parts) mask |= 1ull << k;

  // Flatten the participant map so Phase 1 can fan out by index; std::map
  // iteration keeps shard order ascending, which the serial
  // (txn_coordinator_threads <= 1) path and Phase 2 preserve exactly.
  std::vector<int> keys;
  std::vector<const chunk::WriteBatch*> batches;
  keys.reserve(parts.size());
  batches.reserve(parts.size());
  for (const auto& [k, b] : parts) {
    keys.push_back(k);
    batches.push_back(&b);
  }
  const size_t nparts = keys.size();

  // Phase 1: durably stage each participant's sub-batch. The staging
  // chunk commit rides the shard's own MACed, chained, counter-stamped
  // log, so a torn or replayed prepare is detected as a torn/replayed
  // shard commit; the record's own MAC chains it to the decision log.
  // Participants touch disjoint shards (chains_[k], shards_[k]), so the
  // prepares run concurrently across txn_pool_ and the phase costs
  // ~max-of-participants. The pool re-installs this thread's trace context
  // around each task, so every prepare span still parents under shard.2pc.
  std::vector<crypto::Digest> prepare_macs(nparts);
  std::vector<Status> prepared(nparts, Status::OK());
  txn_pool_->ParallelFor(nparts, [&](size_t i) {
    const size_t k = static_cast<size_t>(keys[i]);
    common::TraceSpan prepare_span(
        common::TraceName::Interned(prepare_span_names_[k]));
    Buffer record = EncodePrepare(txn, mask, static_cast<uint32_t>(k),
                                  *batches[i], chains_[k].end,
                                  &prepare_macs[i]);
    prepared[i] = shards_[k]->Write(StagingCid(txn), Slice(record), true);
  });
  // An acknowledged prepare on k is a durable commit later in k's log
  // than every decision appended there so far.
  size_t failed = nparts;  // Lowest failing shard index (keys ascend).
  uint64_t decided = 0;    // Participants that get a decision record.
  for (size_t i = 0; i < nparts; i++) {
    if (prepared[i].ok()) {
      MarkDurableLocked(keys[i], chains_[keys[i]].appended);
      decided |= 1ull << keys[i];
    } else {
      // Its staging may still reach the log, linked to today's chain end:
      // keep the chain from here.
      ShardChain& c = chains_[static_cast<size_t>(keys[i])];
      c.fence = std::min(c.fence, c.appended);
      if (failed == nparts) failed = i;
    }
  }
  if (failed != nparts) {
    AuditTxn("txn_prepare_failed",
             "shard" + std::to_string(keys[failed]) + ".txn" +
                 std::to_string(txn),
             "2PC prepare failed, transaction aborted: " +
                 prepared[failed].ToString());
    // Roll back the participants that did prepare with durable abort
    // decisions. Best effort: a crash (or a failed abort write) here
    // leaves staging chunks that recovery aborts (not every participant
    // prepared) — but an abort that fails to persist must not vanish
    // silently, so it is audited.
    if (decided != 0) unsettled_[txn] = decided;
    for (size_t i = 0; i < nparts; i++) {
      if (!prepared[i].ok()) continue;
      Status aborted = ApplyDecisionLocked(keys[i], txn, mask, false, nullptr,
                                           prepare_macs[i], /*durable=*/true);
      if (!aborted.ok()) {
        AuditTxn("txn_abort_failed",
                 "shard" + std::to_string(keys[i]) + ".txn" +
                     std::to_string(txn),
                 "abort decision did not persist; staging left for "
                 "recovery: " + aborted.ToString());
      }
    }
    m_.cross_shard_aborts->Increment();
    return prepared[failed];
  }

  // Every participant staged durably: the transaction is decided, and the
  // caller is acknowledged once the decisions below are applied in memory.
  // Each participant applies its decision as ONE nondurable shard batch
  // {real ops, decision record, staging dealloc} that rides that shard's
  // next flush; a crash before it leaves staging that recovery redoes.
  // These are in-memory appends, so they run inline in shard order.
  unsettled_[txn] = mask;
  Status out = Status::OK();
  for (size_t i = 0; i < nparts; i++) {
    Status applied = ApplyDecisionLocked(keys[i], txn, mask, true, batches[i],
                                         prepare_macs[i], /*durable=*/false);
    if (out.ok() && !applied.ok()) out = applied;
  }
  // A commit whose decision failed to apply somewhere is NOT a completed
  // cross-shard commit: health rules and tests read these counters, so
  // success and failure are tallied apart. (The transaction itself still
  // commits logically — every participant staged — and recovery finishes
  // the redo from staging.)
  if (out.ok()) {
    m_.cross_shard_commits->Increment();
  } else {
    m_.cross_shard_commit_failures->Increment();
  }
  BoundChainsLocked();
  return out;
}

Result<chunk::CommitHandle> ShardedChunkStore::CommitBuffered(
    const chunk::WriteBatch& batch, bool durable) {
  auto done = [](Status s) {
    chunk::CommitHandle h;
    h.ticket_ = std::make_shared<chunk::internal::CommitTicket>();
    h.ticket_->done = true;
    h.ticket_->result = std::move(s);
    h.ticket_->route = -2;
    return h;
  };
  // A batch that touches one shard goes to it unchanged: same ops, same
  // order, so the shard logs what it would for the batch on its own.
  const int k = batch.empty() ? 0 : ShardOf(batch.ops_.front().cid);
  bool one_shard = !batch.empty() || shards_.size() == 1;
  for (const auto& op : batch.ops_) {
    if (IsRouterChunk(op.cid)) return ReservedRouterId();
    if (ShardOf(op.cid) != k) one_shard = false;
  }
  if (one_shard) {
    TDB_ASSIGN_OR_RETURN(chunk::CommitHandle h,
                         shards_[k]->CommitBuffered(batch, durable));
    h.ticket_->route = k;
    m_.single_shard_commits->Increment();
    return h;
  }
  if (batch.empty()) {
    if (!durable) return done(Status::OK());
    // An empty durable commit is a global sync point: flush every shard
    // so each one's earlier nondurable commits become durable.
    chunk::WriteBatch empty;
    for (const auto& s : shards_) {
      TDB_RETURN_IF_ERROR(s->Commit(empty, true));
    }
    return done(Status::OK());
  }
  std::map<int, chunk::WriteBatch> parts;
  for (const auto& op : batch.ops_) {
    chunk::WriteBatch& part = parts[ShardOf(op.cid)];
    if (op.is_write) {
      part.Write(op.cid, Slice(op.data));
    } else {
      part.Deallocate(op.cid);
    }
  }
  Status s;
  {
    std::lock_guard<std::mutex> lock(txn_mu_);
    s = CommitCrossShardLocked(parts, durable);
  }
  if (!s.ok()) return s;
  return done(Status::OK());
}

Status ShardedChunkStore::WaitDurable(chunk::CommitHandle& handle) {
  if (!handle.valid()) {
    return Status::InvalidArgument("invalid commit handle");
  }
  const int route = handle.ticket_->route;
  if (route >= 0) return shards_[route]->WaitDurable(handle);
  return handle.ticket_->result;
}

// ---------------------------------------------------------------------------
// Reads, views, maintenance

chunk::ChunkId ShardedChunkStore::AllocateChunkId() {
  if (shards_.size() == 1) return shards_[0]->AllocateChunkId();
  return next_id_.fetch_add(1);
}

uint64_t ShardedChunkStore::next_chunk_id() const {
  if (shards_.size() == 1) return shards_[0]->next_chunk_id();
  return next_id_.load();
}

Result<Buffer> ShardedChunkStore::Read(chunk::ChunkId cid) {
  if (IsRouterChunk(cid)) return ReservedRouterId();
  return shards_[ShardOf(cid)]->Read(cid);
}

Result<std::shared_ptr<chunk::Snapshot>> ShardedChunkStore::PinView() {
  if (shards_.size() == 1) return shards_[0]->PinView();
  // Serializing against the 2PC apply phase makes the composite view
  // atomic across shards: it can never include half of a multi-shard
  // transaction. Unrelated single-shard commits proceed concurrently.
  std::lock_guard<std::mutex> lock(txn_mu_);
  auto snap = std::make_shared<chunk::Snapshot>();
  snap->parts_.resize(shards_.size());
  uint64_t version = 0;
  for (size_t k = 0; k < shards_.size(); k++) {
    TDB_ASSIGN_OR_RETURN(snap->parts_[k], shards_[k]->PinView());
    version = std::max(version, snap->parts_[k]->version());
  }
  snap->version_ = version;
  return snap;
}

Result<const chunk::Snapshot*> ShardedChunkStore::ViewPart(
    const chunk::Snapshot& view, int k) const {
  if (shards_.size() == 1) return &view;
  if (view.parts_.size() != shards_.size()) {
    return Status::InvalidArgument("view does not match this sharded store");
  }
  return view.parts_[k].get();
}

Result<std::shared_ptr<const Buffer>> ShardedChunkStore::ReadAtViewShared(
    const chunk::Snapshot& view, chunk::ChunkId cid) {
  if (IsRouterChunk(cid)) return ReservedRouterId();
  const int k = ShardOf(cid);
  TDB_ASSIGN_OR_RETURN(const chunk::Snapshot* part, ViewPart(view, k));
  return shards_[k]->ReadAtViewShared(*part, cid);
}

Result<std::vector<Buffer>> ShardedChunkStore::ReadManyAtView(
    const chunk::Snapshot& view, const std::vector<chunk::ChunkId>& cids) {
  // A reserved id fails at its index; only shard reads below it can win.
  Status first = Status::OK();
  size_t first_at = cids.size();
  std::vector<std::vector<size_t>> at(shards_.size());  // Positions by shard.
  for (size_t i = 0; i < cids.size() && i < first_at; i++) {
    if (IsRouterChunk(cids[i])) {
      first = ReservedRouterId();
      first_at = i;
    } else {
      at[ShardOf(cids[i])].push_back(i);
    }
  }
  std::vector<Buffer> out(cids.size());
  std::vector<chunk::ChunkId> list;
  for (size_t k = 0; k < shards_.size(); k++) {
    const std::vector<size_t>& pos = at[k];
    if (pos.empty()) continue;
    TDB_ASSIGN_OR_RETURN(const chunk::Snapshot* part,
                         ViewPart(view, static_cast<int>(k)));
    list.clear();
    for (size_t i : pos) list.push_back(cids[i]);
    size_t failed;
    Status s = shards_[k]->ReadManyAt(
        *part, list,
        [&out, &pos](size_t j, Buffer b) { out[pos[j]] = std::move(b); },
        &failed);
    // Positions ascend within a shard, so the shard's lowest failing index
    // maps to its lowest failing position.
    if (!s.ok() && pos[failed] < first_at) {
      first_at = pos[failed];
      first = std::move(s);
    }
  }
  if (!first.ok()) return first;
  return out;
}

Status ShardedChunkStore::Checkpoint() {
  // A shard's checkpoint makes every decision appended on it before the
  // checkpoint began durable, which lets their records be dropped.
  std::vector<uint64_t> appended(shards_.size());
  {
    std::lock_guard<std::mutex> lock(txn_mu_);
    for (size_t k = 0; k < shards_.size(); k++) {
      appended[k] = chains_[k].appended;
    }
  }
  Status out = Status::OK();
  std::vector<bool> done(shards_.size(), false);
  for (size_t k = 0; k < shards_.size(); k++) {
    Status st = shards_[k]->Checkpoint();
    done[k] = st.ok();
    if (out.ok() && !st.ok()) out = st;
  }
  std::lock_guard<std::mutex> lock(txn_mu_);
  for (size_t k = 0; k < shards_.size(); k++) {
    if (done[k]) MarkDurableLocked(static_cast<int>(k), appended[k]);
  }
  return out;
}

Status ShardedChunkStore::Clean(int max_segments) {
  Status out = Status::OK();
  for (const auto& s : shards_) {
    Status st = s->Clean(max_segments);
    if (out.ok() && !st.ok()) out = st;
  }
  return out;
}

Status ShardedChunkStore::VerifyIntegrity(uint64_t* chunks_checked) {
  const size_t n = shards_.size();
  std::vector<Status> results(n, Status::OK());
  std::vector<uint64_t> counts(n, 0);
  if (n == 1) {
    results[0] = shards_[0]->VerifyIntegrity(&counts[0]);
  } else {
    // One scrub thread per shard.
    std::vector<std::thread> workers;
    workers.reserve(n);
    for (size_t k = 0; k < n; k++) {
      workers.emplace_back([this, k, &results, &counts] {
        results[k] = shards_[k]->VerifyIntegrity(&counts[k]);
      });
    }
    for (std::thread& t : workers) t.join();
  }
  uint64_t total = 0;
  for (uint64_t c : counts) total += c;
  if (chunks_checked != nullptr) *chunks_checked = total;
  for (const Status& s : results) {
    if (!s.ok()) return s;
  }
  return Status::OK();
}

Status ShardedChunkStore::Close() {
  Status out = Status::OK();
  for (const auto& s : shards_) {
    Status st = s->Close();
    if (out.ok() && !st.ok()) out = st;
  }
  return out;
}

chunk::ChunkStoreStats ShardedChunkStore::Stats() const {
  chunk::ChunkStoreStats agg;
  for (const auto& shard : shards_) agg.Add(shard->Stats());
  return agg;
}

RouterStats ShardedChunkStore::router_stats() const {
  RouterStats rs;
#define TDB_READ(kind, member, name) \
  rs.member = static_cast<uint64_t>(m_.member->value());
  TDB_ROUTER_METRICS(TDB_READ, TDB_METRIC_NONE)
#undef TDB_READ
  return rs;
}

}  // namespace tdb::shard
