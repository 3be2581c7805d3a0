// Recovery at open, and the upgrade of log format v1/v2 images to v3.
//
// This file is the only place that reads the older log formats: recovery's
// scan of the residual log, and the upgrade that re-seals every live
// record of a v1/v2 segment into v3 segments before the normalizing
// checkpoint, after which the old segments are dropped. Everything else in
// the chunk store reads v3 alone. See DESIGN.md, "Log format v3 and
// upgrade at open".
#include <algorithm>
#include <set>

#include "chunk/chunk_store.h"
#include "common/trace.h"

namespace tdb::chunk {

Status ChunkStore::Recover() {
  std::unique_lock<std::mutex> lock(mu_);
  common::TraceSpan span("chunk.recover");
  const uint64_t recover_start = common::MonotonicMicros();
  TDB_ASSIGN_OR_RETURN(AnchorState anchor, anchor_mgr_.Load());

  // Freshness floor: the hardware counter can never be behind the anchor.
  // The exact check happens after the residual log is scanned, against the
  // last durable commit's sealed counter value.
  if (suite_.enabled()) {
    TDB_ASSIGN_OR_RETURN(uint64_t cv, counter_->Read());
    if (cv < anchor.counter) {
      AuditDetect("counter_regression", common::kRegionCounter, "counter",
                  "one-way counter behind anchor");
      return Status::TamperDetected("one-way counter behind anchor");
    }
    counter_value_ = cv;
  }

  next_chunk_id_.store(anchor.next_chunk_id);
  seq_ = anchor.seq;
  has_root_ = anchor.has_root;
  root_loc_ = anchor.root_loc;
  root_hash_ = anchor.root_hash;
  ckpt_mac_ = anchor.ckpt_mac;
  scan_segment_ = anchor.scan_segment;
  scan_offset_ = anchor.scan_offset;
  anchored_ = anchor;
  // Every seal number below the lease may have been used by a session
  // that crashed: this one starts above it.
  next_seal_.store(anchor.seal_limit);
  seal_limit_.store(anchor.seal_limit);

  if (anchor.legacy_segments) TDB_RETURN_IF_ERROR(FindLegacySegments());
  const bool legacy = !legacy_segments_.empty();
  NodeLoader loader =
      legacy ? NodeLoader([this](uint32_t level, uint64_t index,
                                 const Location& loc,
                                 const crypto::Digest& hash) {
        return LoadLegacyMapNode(&level, index, loc, hash);
      })
             : MakeLoader();
  if (has_root_) {
    TDB_ASSIGN_OR_RETURN(
        std::shared_ptr<MapNode> root,
        legacy ? LoadLegacyMapNode(nullptr, 0, root_loc_, root_hash_)
               : LoadMapNode(nullptr, 0, root_loc_, root_hash_));
    map_.ResetToRoot(std::move(root));
    if (legacy) {
      // Load the whole map now, and mark the nodes of legacy segments (and
      // their ancestors) dirty: the normalizing checkpoint rewrites them
      // in v3, and nothing after this loads a node of a legacy segment.
      std::set<uint32_t> old;
      for (const auto& [id, version] : legacy_segments_) old.insert(id);
      TDB_RETURN_IF_ERROR(DirtyMapNodesIn(old, loader).status());
    }
  }
  // A segment's log format: v3 unless the upgrade has yet to drop it.
  auto version_of = [this](uint32_t segment) {
    auto it = legacy_segments_.find(segment);
    return it == legacy_segments_.end() ? LogVersion::kV3 : it->second;
  };

  // --- Scan the residual log ---------------------------------------------
  // Each commit in the form replay needs, from any format's manifest.
  struct ScannedCommit {
    CommitManifest manifest;  // Its records are resolved into `writes`.
    std::vector<std::pair<ChunkId, MapEntry>> writes;
    crypto::Digest mac;
    uint32_t end_segment;
    uint64_t end_offset;
  };
  // A v2/v3 data record since the last manifest, located and hashed by
  // the scan (the manifest lists only its chunk id).
  struct ScannedRecord {
    Location loc;
    uint8_t flags;
    crypto::Digest hash;
  };
  std::vector<ScannedCommit> commits;
  std::vector<ScannedRecord> pending;
  crypto::Digest prev = ckpt_mac_;
  const size_t mac_size = suite_.hash_size();

  // Authenticates and decodes the commit record `view` of a segment of
  // format `version`; false ends the scan there.
  auto scan_commit = [&](const RecordView& view, LogVersion version,
                         ScannedCommit* out) -> bool {
    if (view.payload.size() < mac_size) return false;
    Slice sealed_m(view.payload.data(), view.payload.size() - mac_size);
    crypto::Digest mac(view.payload.data() + sealed_m.size(), mac_size);
    if (version == LogVersion::kV1) {
      if (suite_.enabled() && mac != suite_.Mac(sealed_m)) return false;
      auto manifest_bytes = suite_.Open(sealed_m);
      CommitManifestV1 v1;
      if (!manifest_bytes.ok() ||
          !DecodeManifestV1(*manifest_bytes, mac_size, entry_hash_size(), &v1)
               .ok() ||
          v1.prev_mac != prev || !pending.empty()) {
        return false;
      }
      CommitManifest& m = out->manifest;
      m.seq = v1.seq;
      m.flags = v1.flags;
      m.next_chunk_id = v1.next_chunk_id;
      m.counter = v1.counter;
      m.deallocs = std::move(v1.deallocs);
      m.has_root = v1.has_root;
      m.root_loc = v1.root_loc;
      m.root_hash = v1.root_hash;
      for (const ManifestWrite& w : v1.writes) {
        out->writes.push_back({w.cid, MapEntry{true, w.flags, w.loc, w.hash}});
      }
    } else {
      if (suite_.enabled()) {
        Buffer input = CommitMacInput(
            version, prev, RecordTypeByte(RecordType::kCommit, view.flags),
            sealed_m, pending.size());
        for (const ScannedRecord& r : pending) PutDigest(&input, r.hash);
        if (mac != suite_.Mac(input)) return false;
      }
      const bool padded = (view.flags & kEntryPadded) != 0;
      auto manifest_bytes = version == LogVersion::kV3
                                ? suite_.OpenNumbered(sealed_m, padded)
                                : suite_.Open(sealed_m, padded);
      if (!manifest_bytes.ok() ||
          !DecodeManifest(*manifest_bytes, entry_hash_size(), &out->manifest)
               .ok() ||
          out->manifest.records.size() != pending.size()) {
        return false;
      }
      for (size_t i = 0; i < pending.size(); i++) {
        const ChunkId cid = out->manifest.records[i];
        if (cid == kInvalidChunkId) continue;  // Dead.
        out->writes.push_back(
            {cid, MapEntry{true, pending[i].flags, pending[i].loc,
                           pending[i].hash}});
      }
      pending.clear();
    }
    // Seq numbers must be consecutive within the residual chain (the
    // checkpoint's own seq is not in the anchor, so the first scanned
    // commit fixes the base).
    if (!commits.empty() &&
        out->manifest.seq != commits.back().manifest.seq + 1) {
      return false;
    }
    out->mac = mac;
    return true;
  };

  uint32_t seg = scan_segment_;
  uint64_t off = scan_offset_;
  bool stop = false;
  while (!stop) {
    const std::string name = SegmentName(seg);
    if (!store_->Exists(name)) break;
    auto size_or = store_->Size(name);
    if (!size_or.ok()) break;
    uint64_t file_size = *size_or;
    if (off >= file_size) {
      seg++;
      off = kSegmentHeaderSize;
      // Validate the next segment's header before scanning it: its id and
      // the format the segment must have.
      if (store_->Exists(SegmentName(seg))) {
        Buffer header;
        if (!store_->Read(SegmentName(seg), 0, kSegmentHeaderSize, &header)
                 .ok()) {
          break;
        }
        uint32_t seg_id;
        LogVersion version;
        if (!DecodeSegmentHeader(header, &seg_id, &version).ok() ||
            seg_id != seg || version != version_of(seg)) {
          break;
        }
      }
      continue;
    }
    const LogVersion version = version_of(seg);
    Buffer file;
    TDB_RETURN_IF_ERROR(
        store_->Read(name, off, static_cast<size_t>(file_size - off), &file));
    size_t pos = 0;
    while (pos < file.size()) {
      RecordView view;
      if (!ParseRecord(Slice(file.data() + pos, file.size() - pos), &view,
                       version)
               .ok()) {
        stop = true;  // Torn tail (or garbage): scanning ends here.
        break;
      }
      const Location loc{seg, static_cast<uint32_t>(off + pos),
                         static_cast<uint32_t>(view.payload.size())};
      if (view.type == RecordType::kData && version != LogVersion::kV1) {
        pending.push_back(
            {loc, view.flags,
             RecordHash(version, view.type, view.flags, view.payload)});
      } else if (view.type == RecordType::kCommit) {
        ScannedCommit commit;
        if (!scan_commit(view, version, &commit)) {
          stop = true;
          break;
        }
        prev = commit.mac;
        commit.end_segment = seg;
        commit.end_offset = off + pos + view.record_size;
        commits.push_back(std::move(commit));
      }
      pos += view.record_size;
    }
    off = file_size;
  }
  // --- Freshness: the last durable commit must match the counter ---------
  if (suite_.enabled()) {
    uint64_t last_counter = anchor.counter;
    for (const ScannedCommit& c : commits) {
      if (c.manifest.durable()) last_counter = c.manifest.counter;
    }
    // The hardware counter ahead of the log means the current log is stale
    // or truncated (the counter only advances after a successful sync).
    if (counter_value_ > last_counter) {
      AuditDetect("replay", common::kRegionLog, "log",
                  "stale or truncated database image (counter ahead of "
                  "log state)");
      return Status::ReplayDetected(
          "stale or truncated database image (counter behind log state)");
    }
    // It may lag by exactly one: crash after the log sync but before the
    // increment. Resynchronize; anything further is impossible for an
    // attacker without forging the MACed commit chain. (A failed group
    // flush re-seals the same counter target under the next seq, so
    // consecutive durable manifests may carry EQUAL counter values — the
    // hardware still never trails the last sealed value by two or more.)
    if (counter_value_ + 1 == last_counter) {
      TDB_ASSIGN_OR_RETURN(counter_value_, counter_->Increment());
    }
    if (counter_value_ != last_counter) {
      AuditDetect("counter_regression", common::kRegionCounter, "counter",
                  "one-way counter out of sync with log");
      return Status::TamperDetected("one-way counter out of sync with log");
    }
  }

  // --- Apply the durable prefix -------------------------------------------
  size_t last_durable = commits.size();
  while (last_durable > 0 && !commits[last_durable - 1].manifest.durable()) {
    last_durable--;
  }
  uint32_t tail_segment = scan_segment_;
  uint64_t tail_offset = scan_offset_;
  uint64_t replayed_chunks = 0;
  for (size_t i = 0; i < last_durable; i++) {
    const ScannedCommit& c = commits[i];
    replayed_chunks += c.writes.size();
    // In log order, so a later record of one id wins; deallocations last.
    for (const auto& [cid, entry] : c.writes) {
      TDB_RETURN_IF_ERROR(map_.Put(cid, entry, loader).status());
      AtomicMax(next_chunk_id_, cid + 1);
    }
    for (ChunkId cid : c.manifest.deallocs) {
      TDB_RETURN_IF_ERROR(map_.Remove(cid, loader).status());
    }
    AtomicMax(next_chunk_id_, c.manifest.next_chunk_id);
    seq_ = c.manifest.seq;
    chain_mac_ = c.mac;
    tail_segment = c.end_segment;
    tail_offset = c.end_offset;
    if (c.manifest.checkpoint() && c.manifest.has_root) {
      // A checkpoint whose anchor write was lost in the crash window.
      has_root_ = true;
      root_loc_ = c.manifest.root_loc;
      root_hash_ = c.manifest.root_hash;
      ckpt_mac_ = c.mac;
    }
  }
  if (last_durable == 0) chain_mac_ = ckpt_mac_;

  // --- Truncate away everything past the durable tail ---------------------
  TDB_RETURN_IF_ERROR(store_->Truncate(SegmentName(tail_segment), tail_offset));
  for (const std::string& name : store_->List()) {
    uint32_t id;
    if (ParseSegmentName(name, &id) && id > tail_segment) {
      TDB_RETURN_IF_ERROR(store_->Remove(name));
      legacy_segments_.erase(id);
    }
  }

  cur_segment_ = tail_segment;
  cur_offset_ = tail_offset;
  next_segment_id_ = tail_segment + 1;

  // Renew the seal lease before anything is sealed: the numbers from the
  // old limit on are this session's only once an anchor says so. The
  // anchor keeps the loaded checkpoint state, which replay started from.
  if (Encrypts()) {
    TDB_RETURN_IF_ERROR(RenewSealLeaseLocked(next_seal_.load() + 1));
  }

  TDB_RETURN_IF_ERROR(RebuildAccounting());
  if (!legacy_segments_.empty()) TDB_RETURN_IF_ERROR(UpgradeLegacySegments());

  // Normalize: a fresh checkpoint + anchor resets the crash windows, makes
  // discarded nondurable garbage unreachable, and re-syncs the counter.
  Status normalized = CheckpointLocked();
  if (normalized.ok() && !legacy_segments_.empty()) {
    normalized = DropLegacySegments();
  }
  m_.recovery_commits_replayed->Set(static_cast<int64_t>(last_durable));
  m_.recovery_chunks_replayed->Set(static_cast<int64_t>(replayed_chunks));
  m_.recovery_time_us->Set(
      static_cast<int64_t>(common::MonotonicMicros() - recover_start));
  return normalized;
}

Status ChunkStore::FindLegacySegments() {
  for (const std::string& name : store_->List()) {
    uint32_t id;
    if (!ParseSegmentName(name, &id)) continue;
    Buffer header;
    uint32_t header_id;
    LogVersion version;
    // A segment without a readable header holds no record either.
    if (store_->Read(name, 0, kSegmentHeaderSize, &header).ok() &&
        DecodeSegmentHeader(header, &header_id, &version).ok() &&
        version != LogVersion::kV3) {
      legacy_segments_[id] = version;
    }
  }
  return Status::OK();
}

Result<Buffer> ChunkStore::OpenLegacyRecord(const Location& loc,
                                            RecordType type,
                                            const crypto::Digest& hash,
                                            uint32_t* record_size) {
  const LogVersion version = legacy_segments_.at(loc.segment);
  const int region = type == RecordType::kMapNode ? common::kRegionMap
                                                  : common::kRegionPayload;
  *record_size = static_cast<uint32_t>(
      (version == LogVersion::kV1 ? kRecordHeaderSizeV1
                                  : RecordHeaderSize(version, loc.length)) +
      loc.length);
  Buffer bytes;
  Status read = store_->Read(SegmentName(loc.segment), loc.offset,
                             *record_size, &bytes);
  RecordView view;
  if (read.ok()) read = ParseRecord(bytes, &view, version);
  if (!read.ok() || view.type != type || view.payload.size() != loc.length) {
    AuditDetect("record_damaged", common::kRegionLog, LocationString(loc),
                read.ok() ? "type or length disagrees with location map"
                          : read.ToString());
    return Status::TamperDetected("legacy record damaged");
  }
  if (suite_.enabled() &&
      RecordHash(version, type, view.flags, view.payload) != hash) {
    AuditDetect("hash_mismatch", region, LocationString(loc),
                "record hash does not match map entry");
    return Status::TamperDetected("chunk hash mismatch");
  }
  // Every v1 payload is padded; a v2 frame says how it was sealed.
  auto plain = suite_.Open(view.payload, version == LogVersion::kV1 ||
                                             (view.flags & kEntryPadded));
  if (!plain.ok()) {
    AuditDetect("decrypt_failure", region, LocationString(loc),
                plain.status().ToString());
    return Status::TamperDetected("legacy record decryption failed");
  }
  return plain;
}

Result<std::shared_ptr<MapNode>> ChunkStore::LoadLegacyMapNode(
    const uint32_t* level, uint64_t index, const Location& loc,
    const crypto::Digest& hash) {
  if (legacy_segments_.count(loc.segment) == 0) {
    return LoadMapNode(level, index, loc, hash);
  }
  uint32_t record_size;
  TDB_ASSIGN_OR_RETURN(
      Buffer plain,
      OpenLegacyRecord(loc, RecordType::kMapNode, hash, &record_size));
  return DecodeMapNodeRecord(level, index, loc, hash, plain, record_size);
}

Status ChunkStore::UpgradeLegacySegments() {
  // New records go to a v3 segment.
  if (legacy_segments_.count(cur_segment_) > 0) {
    TDB_RETURN_IF_ERROR(OpenFreshSegment());
  }
  // The live data records of legacy segments (the whole map is loaded).
  std::vector<std::pair<ChunkId, MapEntry>> old;
  TDB_RETURN_IF_ERROR(map_.ForEach(
      map_.root(), MakeLoader(), [&](ChunkId cid, const MapEntry& entry) {
        if (legacy_segments_.count(entry.loc.segment) > 0) {
          old.push_back({cid, entry});
        }
        return Status::OK();
      }));
  // Re-seal each from its plaintext as stored (compressed if it was) under
  // a seal number, and commit them like relocations.
  for (size_t start = 0; start < old.size(); start += kUpgradeBatch) {
    const size_t end = std::min(old.size(), start + kUpgradeBatch);
    PreparedBatch batch;
    batch.writes.resize(end - start);
    for (size_t i = start; i < end; i++) {
      const auto& [cid, entry] = old[i];
      uint32_t record_size;
      TDB_ASSIGN_OR_RETURN(Buffer plain,
                           OpenLegacyRecord(entry.loc, RecordType::kData,
                                            entry.hash, &record_size));
      StagedWrite& w = batch.writes[i - start];
      w.cid = cid;
      w.flags = entry.flags & kEntryCompressed;
      TDB_ASSIGN_OR_RETURN(w.sealed, SealNextLocked(plain, &w.flags));
      w.hash = EntryHash(RecordType::kData, w.flags, w.sealed);
    }
    TDB_RETURN_IF_ERROR(BufferBatchLocked(batch));
    TDB_RETURN_IF_ERROR(
        FlushGroupLocked(kCommitClean | kCommitDurable, nullptr, nullptr));
  }
  return Status::OK();
}

Status ChunkStore::DropLegacySegments() {
  for (const auto& [id, version] : legacy_segments_) {
    TDB_RETURN_IF_ERROR(store_->Remove(SegmentName(id)));
    auto it = segments_.find(id);
    if (it == segments_.end()) continue;
    // What the map walk at open counted live here is obsolete now.
    m_.live_bytes->Add(-static_cast<int64_t>(it->second.live));
    m_.total_bytes->Add(-static_cast<int64_t>(it->second.total));
    m_.summary_bytes->Add(
        -static_cast<int64_t>(it->second.cids.size() * sizeof(ChunkId)));
    segments_.erase(it);
  }
  legacy_segments_.clear();
  m_.segments->Set(static_cast<int64_t>(segments_.size()));
  return WriteAnchor(anchored_);
}

}  // namespace tdb::chunk
