#include "chunk/chunk_store.h"

#include <algorithm>
#include <chrono>
#include <optional>

#include "common/check.h"
#include "common/lz.h"
#include "common/trace.h"

namespace tdb::chunk {

namespace {

// One chunk id's operations in a batch or a commit group: where the id
// first appears and which of its operations comes last.
struct IdOps {
  ChunkId cid;
  uint32_t first;
  uint32_t last;
};

// "The last operation on a chunk id wins": one IdOps per distinct id of
// the `n` operations (`cid_of(i)` is the id of operation i), in the order
// the ids first appear. Sorting (id, index) pairs groups each id's
// operations with one allocation and no hash map.
template <typename CidOf>
std::vector<IdOps> LastOpPerId(size_t n, CidOf cid_of) {
  std::vector<IdOps> ids(n);
  for (size_t i = 0; i < n; i++) {
    const auto at = static_cast<uint32_t>(i);
    ids[i] = IdOps{cid_of(i), at, at};
  }
  std::sort(ids.begin(), ids.end(), [](const IdOps& a, const IdOps& b) {
    return a.cid != b.cid ? a.cid < b.cid : a.first < b.first;
  });
  size_t kept = 0;
  for (size_t i = 0; i < n;) {
    size_t j = i;
    while (j + 1 < n && ids[j + 1].cid == ids[i].cid) j++;
    ids[kept++] = IdOps{ids[i].cid, ids[i].first, ids[j].first};
    i = j + 1;
  }
  ids.resize(kept);
  std::sort(ids.begin(), ids.end(), [](const IdOps& a, const IdOps& b) {
    return a.first < b.first;
  });
  return ids;
}

// Lexicographically sortable segment file names.
constexpr char kSegmentPrefix[] = "seg-";

// VerifyIntegrity fetches and validates in batches of this many chunks, so
// sealed bytes are buffered boundedly and each mutex hold stays short.
constexpr size_t kVerifyBatchChunks = 256;

// Decompression-bomb guard: a compressed record claiming a raw size above
// this is rejected as tampered without allocating.
constexpr size_t kMaxDecompressedChunk = size_t{1} << 30;

}  // namespace

// Parses "seg-<id>"; returns false for other files (anchors etc.).
bool ChunkStore::ParseSegmentName(const std::string& name, uint32_t* id) {
  if (name.rfind(kSegmentPrefix, 0) != 0) return false;
  uint64_t value = 0;
  for (size_t i = 4; i < name.size(); i++) {
    if (name[i] < '0' || name[i] > '9') return false;
    value = value * 10 + (name[i] - '0');
  }
  if (name.size() == 4 || value > UINT32_MAX) return false;
  *id = static_cast<uint32_t>(value);
  return true;
}

// ---------------------------------------------------------------------------
// WriteBatch

void WriteBatch::Write(ChunkId cid, Slice data) {
  ops_.push_back(Op{true, cid, data.ToBuffer()});
}

void WriteBatch::Write(ChunkId cid, Buffer&& data) {
  ops_.push_back(Op{true, cid, std::move(data)});
}

void WriteBatch::Deallocate(ChunkId cid) {
  ops_.push_back(Op{false, cid, Buffer()});
}

// ---------------------------------------------------------------------------
// Open / bootstrap / recovery

ChunkStore::ChunkStore(platform::UntrustedStore* store,
                       platform::OneWayCounter* counter,
                       const ChunkStoreOptions& options,
                       crypto::CipherSuite suite,
                       const std::string& metric_prefix)
    : store_(store),
      counter_(counter),
      options_(options),
      metric_prefix_(metric_prefix),
      suite_(std::move(suite)),
      anchor_mgr_(store, &suite_, entry_hash_size()),
      map_(options.map_fanout != 0 ? options.map_fanout : kDefaultMapFanout),
      metrics_(options.metrics != nullptr
                   ? options.metrics
                   : std::make_shared<common::MetricsRegistry>()),
      cache_(options.cache_bytes) {
  options_.map_fanout = map_.fanout();
  common::MetricsRegistry* r = metrics_.get();
#define TDB_BIND(kind, member, name) \
  m_.member = r->Get##kind(metric_prefix_ + name);
  TDB_CHUNK_STORE_METRICS(TDB_BIND, TDB_BIND)
#undef TDB_BIND
  common::Counter* evictions[] = {
      m_.cache_evictions_capacity, m_.cache_evictions_dealloc,
      m_.cache_evictions_failed_commit, m_.cache_evictions_relocation};
  cache_.AttachMetrics(evictions, m_.cache_bytes_used);
}

void ChunkStore::AuditDetect(const char* kind, int region,
                             const std::string& location,
                             const std::string& message) {
  // The prefix keeps (kind, location) dedup keys distinct across shards
  // sharing one registry: the same "seg 1 off 64" on two shards is two
  // different detections.
  metrics_->audit().Record(kind, region, metric_prefix_ + location, message);
}

std::string ChunkStore::LocationString(const Location& loc) {
  return "seg " + std::to_string(loc.segment) + " off " +
         std::to_string(loc.offset);
}

void ChunkStore::AtomicMax(std::atomic<uint64_t>& counter, uint64_t value) {
  uint64_t cur = counter.load();
  while (cur < value && !counter.compare_exchange_weak(cur, value)) {
  }
}

Status ChunkStore::DrawSeals(size_t n, uint64_t* first) {
  *first = next_seal_.fetch_add(n);
  if (*first + n <= seal_limit_.load()) {
    return Status::OK();
  }
  std::lock_guard<std::mutex> lock(mu_);
  return RenewSealLeaseLocked(*first + n);
}

Status ChunkStore::RenewSealLeaseLocked(uint64_t end) {
  if (end <= seal_limit_.load()) {
    return Status::OK();
  }
  // Only the limit changes: the checkpoint state stays the anchored one,
  // which recovery may still need to replay from.
  AnchorState next = anchored_;
  next.seal_limit = std::max(end, next_seal_.load()) + kSealLease;
  return WriteAnchor(next);
}

Result<Buffer> ChunkStore::SealNextLocked(Slice plain, uint8_t* flags) {
  uint64_t seal = 0;
  if (Encrypts()) {
    seal = next_seal_.fetch_add(1);
    TDB_RETURN_IF_ERROR(RenewSealLeaseLocked(seal + 1));
  }
  *flags |= SealFlags(plain.size());
  Buffer sealed = suite_.SealNumbered(plain, seal);
  m_.pad_bytes->Add(static_cast<int64_t>(
      sealed.size() - suite_.SealNumberSize(seal) - plain.size()));
  return sealed;
}

size_t ChunkStore::entry_hash_size() const {
  return std::min(suite_.hash_size(), kMapHashBytes);
}

crypto::Digest ChunkStore::RecordHash(LogVersion version, RecordType type,
                                      uint8_t flags, Slice payload) const {
  uint8_t prefix[2];
  const size_t n =
      RecordHashPrefix(version, RecordTypeByte(type, flags), prefix);
  crypto::Digest full = suite_.HashData(Slice(prefix, n), payload);
  size_t want = entry_hash_size();
  if (full.size() <= want || want == 0) return full;
  return crypto::Digest(full.data(), want);
}

ChunkStore::~ChunkStore() {
  if (open_.load()) Close().ok();
}

Result<std::unique_ptr<ChunkStore>> ChunkStore::Open(
    platform::UntrustedStore* store, platform::SecretStore* secrets,
    platform::OneWayCounter* counter, const ChunkStoreOptions& options) {
  return Open(store, secrets, counter, options, "");
}

Result<std::unique_ptr<ChunkStore>> ChunkStore::Open(
    platform::UntrustedStore* store, platform::SecretStore* secrets,
    platform::OneWayCounter* counter, const ChunkStoreOptions& options,
    const std::string& metric_prefix) {
  if (options.max_utilization <= 0.0 || options.max_utilization > 0.99) {
    return Status::InvalidArgument("max_utilization out of range");
  }
  Buffer secret;
  if (options.security.enabled) {
    TDB_ASSIGN_OR_RETURN(secret, secrets->GetSecret());
  }
  crypto::CipherSuite suite(options.security, secret,
                            Slice(options.iv_seed));
  std::unique_ptr<ChunkStore> cs(
      new ChunkStore(store, counter, options, std::move(suite),
                     metric_prefix));

  auto anchor = cs->anchor_mgr_.Load();
  if (anchor.ok()) {
    // The image's fanout wins; a v1 image records none.
    if (anchor->map_fanout != 0 && anchor->map_fanout != cs->map_.fanout()) {
      if (options.map_fanout != 0) {
        return Status::InvalidArgument(
            "map_fanout " + std::to_string(options.map_fanout) +
            " does not match the image's " +
            std::to_string(anchor->map_fanout));
      }
      cs->map_ = LocationMap(anchor->map_fanout);
      cs->options_.map_fanout = anchor->map_fanout;
    }
    // So does the image's iv_seed, which its seal numbers' IVs depend on.
    // A v3 anchor, whose seal limit is never 0, records one.
    if (anchor->seal_limit != 0 && anchor->iv_seed != options.iv_seed) {
      cs->options_.iv_seed = anchor->iv_seed;
      cs->suite_ = crypto::CipherSuite(options.security, secret,
                                       Slice(anchor->iv_seed));
    }
    TDB_RETURN_IF_ERROR(cs->Recover());
  } else if (anchor.status().IsNotFound()) {
    // Fresh store — unless segment files exist, which means the attacker
    // removed the anchor.
    for (const std::string& name : store->List()) {
      uint32_t id;
      if (ParseSegmentName(name, &id)) {
        cs->AuditDetect("anchor_missing", common::kRegionAnchor, "anchor",
                        "segments present but anchor missing");
        return Status::TamperDetected("segments present but anchor missing");
      }
    }
    if (!options.create_if_missing) {
      return Status::NotFound("no database and create_if_missing is false");
    }
    TDB_RETURN_IF_ERROR(cs->Bootstrap());
  } else {
    if (anchor.status().IsTamperDetected() ||
        anchor.status().IsCorruption()) {
      cs->AuditDetect("torn_anchor", common::kRegionAnchor, "anchor",
                      anchor.status().ToString());
    }
    return anchor.status();
  }
  cs->open_.store(true);
  return cs;
}

Status ChunkStore::Bootstrap() {
  std::unique_lock<std::mutex> lock(mu_);
  if (suite_.enabled()) {
    TDB_ASSIGN_OR_RETURN(counter_value_, counter_->Read());
  }
  // The first checkpoint seals before any anchor exists, under a first
  // lease of its own: a crash before its anchor leaves segments and no
  // anchor, which no open accepts, so nothing sealed here is ever read.
  seal_limit_.store(kSealLease);
  TDB_RETURN_IF_ERROR(OpenFreshSegment());
  return CheckpointLocked();
}

Status ChunkStore::RebuildAccounting() {
  segments_.clear();
  m_.live_bytes->Set(0);
  m_.total_bytes->Set(0);
  m_.live_chunks->Set(0);
  m_.summary_bytes->Set(0);
  for (const std::string& name : store_->List()) {
    uint32_t id;
    if (!ParseSegmentName(name, &id)) continue;
    TDB_ASSIGN_OR_RETURN(uint64_t size, store_->Size(name));
    segments_[id].total = size;
    m_.total_bytes->Add(static_cast<int64_t>(size));
  }
  if (!has_root_) {
    m_.segments->Set(static_cast<int64_t>(segments_.size()));
    return Status::OK();
  }
  NodeLoader loader = MakeLoader();
  // The summaries start from the live records alone: dead ones would fail
  // the cleaner's liveness check anyway.
  TDB_RETURN_IF_ERROR(map_.ForEachNode(
      map_.root(), loader, [&](const MapNode& node) {
        if (node.has_persisted) {
          AccountLive(node.persisted_loc.segment, node.persisted_size,
                      /*is_map=*/true);
        }
        if (node.level == 0) {
          for (uint32_t i = 0; i < node.entries.size(); i++) {
            const MapEntry& entry = node.entries[i];
            if (!entry.present) continue;
            AccountLive(entry.loc.segment, RecordBytes(entry.loc));
            NoteSummary(entry.loc.segment, node.index * map_.fanout() + i);
            m_.live_chunks->Add(1);
          }
        }
      }));
  // Nodes pruned during replay are gone from the tree, but the anchored
  // root still references their records until the next checkpoint, which
  // obsoletes them.
  for (const auto& [loc, size] : map_.pruned_records()) {
    AccountLive(loc.segment, size, /*is_map=*/true);
  }
  m_.segments->Set(static_cast<int64_t>(segments_.size()));
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Log tail

std::string ChunkStore::SegmentName(uint32_t id) {
  return kSegmentPrefix + std::to_string(id);
}

Status ChunkStore::OpenFreshSegment() {
  TDB_RETURN_IF_ERROR(FlushTail());
  // The tail moves only once the file exists, so a failed create leaves
  // it on the segment it was on.
  TDB_RETURN_IF_ERROR(
      store_->Create(SegmentName(next_segment_id_), /*overwrite=*/true));
  cur_segment_ = next_segment_id_++;
  cur_offset_ = 0;
  tail_buf_ = EncodeSegmentHeader(cur_segment_);
  segments_[cur_segment_] = SegInfo{};
  m_.segments->Set(static_cast<int64_t>(segments_.size()));
  return Status::OK();
}

Result<Location> ChunkStore::Append(RecordType type, uint8_t flags,
                                    Slice payload) {
  TDB_ASSIGN_OR_RETURN(Location loc, ReserveTail(type, payload));
  AppendRecord(&tail_buf_, type, flags, payload);
  return loc;
}

Result<Location> ChunkStore::AppendVerbatim(Slice record, size_t header) {
  TDB_ASSIGN_OR_RETURN(
      Location loc,
      ReserveTail(RecordType::kData,
                  Slice(record.data() + header, record.size() - header)));
  tail_buf_.insert(tail_buf_.end(), record.data(),
                   record.data() + record.size());
  return loc;
}

Result<Location> ChunkStore::ReserveTail(RecordType type, Slice payload) {
  const uint64_t payload_size = payload.size();
  const uint64_t record_size =
      RecordHeaderSize(LogVersion::kV3, payload_size) + payload_size;
  const uint64_t used = cur_offset_ + tail_buf_.size();
  // Roll to a fresh segment when full — unless this segment is still empty,
  // in which case an oversized record is allowed to live alone in it.
  if (used + record_size > options_.segment_size &&
      used > kSegmentHeaderSize) {
    TDB_RETURN_IF_ERROR(OpenFreshSegment());
  }
  Location loc;
  loc.segment = cur_segment_;
  loc.offset = static_cast<uint32_t>(cur_offset_ + tail_buf_.size());
  loc.length = static_cast<uint32_t>(payload_size);
  switch (type) {
    case RecordType::kData:
      m_.data_bytes->Add(static_cast<int64_t>(record_size));
      break;
    case RecordType::kMapNode:
      m_.map_bytes->Add(static_cast<int64_t>(record_size));
      break;
    case RecordType::kCommit:
      m_.commit_bytes->Add(static_cast<int64_t>(record_size));
      break;
  }
  m_.frame_bytes->Add(static_cast<int64_t>(record_size - payload_size));
  if (Encrypts()) {
    Decoder seal(payload);
    uint64_t unused;
    if (seal.GetVarint64(&unused).ok()) {
      m_.seal_bytes->Add(static_cast<int64_t>(payload_size - seal.remaining()));
    }
  }
  if (type != RecordType::kCommit) {
    m_.entry_hash_bytes->Add(static_cast<int64_t>(entry_hash_size()));
  }
  return loc;
}

Status ChunkStore::FlushTail() {
  if (tail_buf_.empty()) return Status::OK();
  const std::string name = SegmentName(cur_segment_);
  TDB_RETURN_IF_ERROR(store_->Write(name, cur_offset_, tail_buf_));
  segments_[cur_segment_].total += tail_buf_.size();
  m_.total_bytes->Add(static_cast<int64_t>(tail_buf_.size()));
  m_.bytes_appended->Add(static_cast<int64_t>(tail_buf_.size()));
  cur_offset_ += tail_buf_.size();
  residual_bytes_ += tail_buf_.size();
  if (std::find(dirty_files_.begin(), dirty_files_.end(), name) ==
      dirty_files_.end()) {
    dirty_files_.push_back(name);
  }
  tail_buf_.clear();
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Record reads

Result<Buffer> ChunkStore::FetchRawRecord(const Location& loc,
                                          RecordType expected,
                                          bool whole_record,
                                          uint8_t* flags) {
  const size_t record_size = RecordBytes(loc);
  Buffer bytes;
  if (loc.segment == cur_segment_ && loc.offset >= cur_offset_) {
    // The record sits in the unflushed tail buffer — a buffered group
    // commit read back before any flush. Records never straddle a flush
    // boundary (FlushTail writes the whole buffer), so the bytes are
    // either fully here or fully in the store.
    const uint64_t start = loc.offset - cur_offset_;
    if (start + record_size > tail_buf_.size()) {
      AuditDetect("record_mismatch", common::kRegionLog,
                  LocationString(loc), "tail record beyond buffer");
      return Status::TamperDetected("record does not match location map");
    }
    bytes = Slice(tail_buf_.data() + start, record_size).ToBuffer();
  } else {
    Status read = store_->Read(SegmentName(loc.segment), loc.offset,
                               record_size, &bytes);
    if (!read.ok()) {
      if (read.IsNotFound() || read.IsCorruption()) {
        AuditDetect("record_missing", common::kRegionLog,
                    LocationString(loc), read.ToString());
        return Status::TamperDetected("record missing: " + read.ToString());
      }
      return read;
    }
  }
  RecordView view;
  Status parsed = ParseRecord(bytes, &view);
  if (!parsed.ok()) {
    AuditDetect("record_damaged", common::kRegionLog, LocationString(loc),
                parsed.ToString());
    return Status::TamperDetected("record damaged: " + parsed.ToString());
  }
  if (view.type != expected || view.payload.size() != loc.length) {
    AuditDetect("record_mismatch", common::kRegionLog, LocationString(loc),
                "type or length disagrees with location map");
    return Status::TamperDetected("record does not match location map");
  }
  if (flags != nullptr) *flags = view.flags;
  // The payload is the record minus its header: drop the header in place.
  if (!whole_record) {
    bytes.erase(bytes.begin(), bytes.begin() + (record_size - loc.length));
  }
  return bytes;
}

Result<Buffer> ChunkStore::ReadRawRecord(const Location& loc,
                                         RecordType expected,
                                         const crypto::Digest& expected_hash,
                                         bool whole_record, uint8_t* flags) {
  uint8_t record_flags;
  TDB_ASSIGN_OR_RETURN(
      Buffer bytes, FetchRawRecord(loc, expected, whole_record, &record_flags));
  if (flags != nullptr) *flags = record_flags;
  const size_t header = whole_record ? bytes.size() - loc.length : 0;
  Slice payload(bytes.data() + header, bytes.size() - header);
  // The hash covers the frame's flags as they are on disk.
  if (suite_.enabled() &&
      EntryHash(expected, record_flags, payload) != expected_hash) {
    AuditDetect("hash_mismatch",
                expected == RecordType::kMapNode ? common::kRegionMap
                                                 : common::kRegionPayload,
                LocationString(loc), "record hash does not match map entry");
    return Status::TamperDetected("chunk hash mismatch");
  }
  return bytes;
}

Result<Buffer> ChunkStore::ValidateSealed(const MapEntry& entry,
                                          Buffer sealed) {
  {
    common::ScopedTimer timer(metrics_.get(), m_.read_verify_us);
    if (suite_.enabled() &&
        EntryHash(RecordType::kData, entry.flags, sealed) != entry.hash) {
      AuditDetect("hash_mismatch", common::kRegionPayload,
                  LocationString(entry.loc),
                  "record hash does not match map entry");
      return Status::TamperDetected("chunk hash mismatch");
    }
  }
  Buffer plain;
  {
    common::ScopedTimer timer(metrics_.get(), m_.read_decrypt_us);
    auto opened = suite_.OpenNumbered(sealed, entry.flags & kEntryPadded);
    if (!opened.ok()) {
      AuditDetect("decrypt_failure", common::kRegionPayload,
                  LocationString(entry.loc), opened.status().ToString());
      return Status::TamperDetected("chunk decryption failed: " +
                                    opened.status().ToString());
    }
    plain = std::move(opened).value();
  }
  if (entry.flags & kEntryCompressed) {
    common::ScopedTimer timer(metrics_.get(), m_.read_decompress_us);
    auto raw = LzDecompress(plain, kMaxDecompressedChunk);
    if (!raw.ok()) {
      // Decompression failure past an intact Merkle hash + decryption can
      // only mean the authenticated flags disagree with the payload (or a
      // store bug); surface it with the same severity as tampering.
      AuditDetect("decompress_failure", common::kRegionPayload,
                  LocationString(entry.loc), raw.status().ToString());
      return Status::TamperDetected("chunk decompression failed: " +
                                    raw.status().ToString());
    }
    return std::move(raw).value();
  }
  return plain;
}

Result<std::shared_ptr<MapNode>> ChunkStore::LoadMapNode(
    const uint32_t* level, uint64_t index, const Location& loc,
    const crypto::Digest& hash) {
  uint8_t flags;
  TDB_ASSIGN_OR_RETURN(
      Buffer sealed,
      ReadRawRecord(loc, RecordType::kMapNode, hash, false, &flags));
  auto plain = suite_.OpenNumbered(sealed, flags & kEntryPadded);
  if (!plain.ok()) {
    AuditDetect("decrypt_failure", common::kRegionMap, LocationString(loc),
                "map node decryption failed");
    return Status::TamperDetected("map node decryption failed");
  }
  return DecodeMapNodeRecord(level, index, loc, hash, *plain,
                             static_cast<uint32_t>(RecordBytes(loc)));
}

Result<std::shared_ptr<MapNode>> ChunkStore::DecodeMapNodeRecord(
    const uint32_t* level, uint64_t index, const Location& loc,
    const crypto::Digest& hash, Slice plain, uint32_t record_size) {
  TDB_ASSIGN_OR_RETURN(
      std::shared_ptr<MapNode> node,
      LocationMap::DecodeNode(plain, map_.fanout(), entry_hash_size()));
  if ((level != nullptr && node->level != *level) || node->index != index) {
    AuditDetect("map_node_mismatch", common::kRegionMap, LocationString(loc),
                "map node identity mismatch");
    return Status::TamperDetected("map node identity mismatch");
  }
  node->has_persisted = true;
  node->persisted_loc = loc;
  node->persisted_hash = hash;
  node->persisted_size = record_size;
  return node;
}

NodeLoader ChunkStore::MakeLoader() {
  return [this](uint32_t level, uint64_t index, const Location& loc,
                const crypto::Digest& hash) {
    return LoadMapNode(&level, index, loc, hash);
  };
}

Status ChunkStore::FetchAndValidate(const std::shared_ptr<MapNode>* root,
                                    std::span<const ChunkId> cids,
                                    const Deliver& deliver, size_t* failed) {
  *failed = cids.size();
  Status first = Status::OK();
  auto fail = [&](size_t i, Status s) {
    if (i < *failed) {
      *failed = i;
      first = std::move(s);
    }
  };
  // A view's records, fetched under mu_ and validated after it.
  struct Fetched {
    size_t i;
    MapEntry entry;
    Buffer sealed;
  };
  std::vector<Fetched> fetched;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const std::shared_ptr<MapNode>& from =
        root != nullptr ? *root : map_.root();
    NodeLoader loader = MakeLoader();
    for (size_t i = 0; i < cids.size(); i++) {
      auto found = map_.GetAt(from, cids[i], loader);
      if (!found.ok() || !found->has_value()) {
        fail(i, found.ok() ? Status::NotFound("chunk " +
                                              std::to_string(cids[i]))
                           : found.status());
        continue;
      }
      const MapEntry& entry = **found;
      uint8_t flags;
      auto sealed =
          FetchRawRecord(entry.loc, RecordType::kData, false, &flags);
      // The frame repeats the flags its map entry holds.
      if (sealed.ok() && flags != entry.flags) {
        AuditDetect("record_mismatch", common::kRegionLog,
                    LocationString(entry.loc),
                    "record flags disagree with location map");
        sealed = Status::TamperDetected("record does not match location map");
      }
      if (!sealed.ok()) {
        fail(i, sealed.status());
      } else if (root == nullptr) {
        auto plain = ValidateSealed(entry, std::move(sealed).value());
        if (!plain.ok()) {
          fail(i, plain.status());
          continue;
        }
        cache_.Put(cids[i], *plain, commit_version_);
        deliver(i, std::move(plain).value());
      } else {
        fetched.push_back({i, entry, std::move(sealed).value()});
      }
    }
  }
  // Validation runs outside mu_: concurrent view readers serialize only
  // on the fetch. Results are not cached — a view's state may predate the
  // chunk's current committed state, which is what the cache must hold.
  for (Fetched& f : fetched) {
    auto plain = ValidateSealed(f.entry, std::move(f.sealed));
    if (plain.ok()) {
      deliver(f.i, std::move(plain).value());
    } else {
      fail(f.i, plain.status());
    }
  }
  return first;
}

// ---------------------------------------------------------------------------
// Public operations

Result<Buffer> ChunkStore::Read(ChunkId cid) {
  if (!open_.load()) return Status::InvalidArgument("chunk store not open");
  common::TraceSpan span("chunk.read");
  common::ScopedTimer timer(metrics_.get(), m_.read_latency_us);
  // Cache entries hold already-validated plaintext of the chunk's last
  // committed state, so a hit skips the map walk, untrusted-store I/O,
  // hash check, and decryption entirely — AND takes only the cache's own
  // lock, never the commit mutex, so hot reads proceed while a commit
  // (or group sync) is in flight.
  Buffer plain;
  if (cache_.Get(cid, ChunkCache::kAnyVersion, &plain)) {
    m_.cache_hits->Increment();
    return plain;
  }
  size_t failed;
  TDB_RETURN_IF_ERROR(FetchAndValidate(
      nullptr, {&cid, 1}, [&plain](size_t, Buffer b) { plain = std::move(b); },
      &failed));
  if (cache_.enabled()) m_.cache_misses->Increment();
  return plain;
}

Status ChunkStore::Commit(const WriteBatch& batch, bool durable) {
  common::ScopedTimer timer(metrics_.get(), m_.commit_latency_us);
  return ChunkStoreInterface::Commit(batch, durable);
}

// ---------------------------------------------------------------------------
// ChunkStoreInterface conveniences

Status ChunkStoreInterface::Commit(const WriteBatch& batch, bool durable) {
  TDB_ASSIGN_OR_RETURN(CommitHandle handle, CommitBuffered(batch, durable));
  return WaitDurable(handle);
}

Status ChunkStoreInterface::Write(ChunkId cid, Slice data, bool durable) {
  WriteBatch batch;
  batch.Write(cid, data);
  return Commit(batch, durable);
}

Status ChunkStoreInterface::Deallocate(ChunkId cid, bool durable) {
  WriteBatch batch;
  batch.Deallocate(cid);
  return Commit(batch, durable);
}

Result<Buffer> ChunkStoreInterface::ReadAtView(const Snapshot& view,
                                               ChunkId cid) {
  TDB_ASSIGN_OR_RETURN(std::shared_ptr<const Buffer> data,
                       ReadAtViewShared(view, cid));
  return Buffer(*data);
}

// ---------------------------------------------------------------------------
// Commit machinery

Status ChunkStore::PrepareBatch(const WriteBatch& batch, PreparedBatch* out) {
  for (const WriteBatch::Op& op : batch.ops_) {
    if (op.cid == kInvalidChunkId) {
      return Status::InvalidArgument("invalid chunk id 0");
    }
  }
  // Normalize: the last operation on a chunk id wins, in the order the
  // ids first appear.
  const std::vector<IdOps> ids = LastOpPerId(
      batch.ops_.size(), [&](size_t i) { return batch.ops_[i].cid; });
  size_t n = 0;
  for (const IdOps& id : ids) n += batch.ops_[id.last].is_write ? 1 : 0;
  out->writes.resize(n);
  out->deallocs.reserve(ids.size() - n);
  size_t next_write = 0;
  for (const IdOps& id : ids) {
    const WriteBatch::Op& op = batch.ops_[id.last];
    if (op.is_write) {
      out->writes[next_write].cid = op.cid;
      out->writes[next_write].plain = &op.data;
      next_write++;
      m_.sealed_bytes->Add(static_cast<int64_t>(op.data.size()));
    } else {
      out->deallocs.push_back(op.cid);
    }
  }

  // Seal + hash the staged writes in batch order — on the committer's own
  // thread, outside the commit mutex, so concurrent committers overlap
  // their crypto. The batch's seal numbers are drawn up front with one
  // atomic add.
  common::TraceSpan span("chunk.seal");
  common::ScopedTimer timer(metrics_.get(), m_.seal_latency_us);
  uint64_t first_seal = 0;
  if (Encrypts() && n > 0) TDB_RETURN_IF_ERROR(DrawSeals(n, &first_seal));
  for (size_t i = 0; i < n; i++) {
    StagedWrite& w = out->writes[i];
    // Compress-before-encrypt: seal the LZ-compressed form when that is
    // actually smaller (recording the choice in the flags), the raw bytes
    // otherwise.
    Slice plain = *w.plain;
    Buffer compressed;
    if (options_.compression) {
      m_.compress_attempts->Increment();
      compressed = LzCompress(plain);
      if (compressed.size() < plain.size()) {
        w.flags = kEntryCompressed;
        m_.compressed_chunks->Increment();
        m_.compress_bytes_in->Add(static_cast<int64_t>(plain.size()));
        m_.compress_bytes_out->Add(static_cast<int64_t>(compressed.size()));
        plain = compressed;
      }
    }
    const uint64_t seal = first_seal + i;
    w.flags |= SealFlags(plain.size());
    w.sealed = suite_.SealNumbered(plain, seal);
    m_.pad_bytes->Add(static_cast<int64_t>(
        w.sealed.size() - suite_.SealNumberSize(seal) - plain.size()));
    w.hash = EntryHash(RecordType::kData, w.flags, w.sealed);
  }
  return Status::OK();
}

Status ChunkStore::BufferBatchLocked(const PreparedBatch& prep) {
  // Applied-op journal for rollback: a failed batch must leave the open
  // group exactly as it found it so groupmates are not poisoned.
  struct AppliedOp {
    bool was_write;
    ChunkId cid;
    std::optional<MapEntry> old_entry;
  };
  const size_t ops_start = group_ops_.size();
  std::vector<AppliedOp> applied;
  applied.reserve(prep.writes.size() + prep.deallocs.size());
  NodeLoader loader = MakeLoader();
  Status failed = Status::OK();
  size_t appended = 0;  // Data records this batch put in the log.

  for (const StagedWrite& w : prep.writes) {
    auto loc = w.frame_header != 0
                   ? AppendVerbatim(w.sealed, w.frame_header)
                   : Append(RecordType::kData, w.flags, w.sealed);
    if (!loc.ok()) {
      failed = loc.status();
      break;
    }
    appended++;
    NoteSummary(loc->segment, w.cid);
    if (w.plain == nullptr) {  // A relocation: it extends the survivor run.
      segments_[loc->segment].survivor_end = loc->offset + RecordBytes(*loc);
    }
    MapEntry entry;
    entry.present = true;
    entry.flags = w.flags;
    entry.loc = *loc;
    entry.hash = w.hash;
    group_ops_.push_back(
        PendingOp{OpKind::kWrite, w.cid, *loc, w.hash, w.flags});
    auto old = map_.Put(w.cid, entry, loader);
    if (!old.ok()) {
      failed = old.status();
      break;
    }
    applied.push_back(AppliedOp{true, w.cid, *old});
    AtomicMax(next_chunk_id_, w.cid + 1);
    AccountLive(loc->segment, RecordBytes(*loc));
    if (old->has_value()) {
      AccountLive((*old)->loc.segment,
                  -static_cast<int64_t>(RecordBytes((*old)->loc)));
    } else {
      m_.live_chunks->Add(1);
    }
  }
  if (failed.ok()) {
    for (ChunkId cid : prep.deallocs) {
      auto old = map_.Remove(cid, loader);
      if (!old.ok()) {
        failed = old.status();
        break;
      }
      group_ops_.push_back(
          PendingOp{OpKind::kDealloc, cid, Location(), crypto::Digest(), 0});
      applied.push_back(AppliedOp{false, cid, *old});
      if (old->has_value()) {
        AccountLive((*old)->loc.segment,
                    -static_cast<int64_t>(RecordBytes((*old)->loc)));
        m_.live_chunks->Add(-1);
      }
    }
  }
  if (failed.ok()) {
    // The applied state changed: bump the commit version so versioned
    // cache entries and newly pinned views order against this batch.
    commit_version_++;
    return Status::OK();
  }

  // Roll back this batch's partial application (reverse order). The data
  // records it appended stay in the log as dead bytes: they stay in the
  // open group as dead ops, which the manifest skips (its MAC still
  // covers them), and in their segment's summary, where the cleaner's
  // liveness check skips them. Rollback map I/O errors are best-effort:
  // the original failure is what the caller must handle either way.
  for (size_t i = applied.size(); i-- > 0;) {
    const AppliedOp& a = applied[i];
    const PendingOp& p = group_ops_[ops_start + i];
    if (a.was_write) {
      AccountLive(p.loc.segment, -static_cast<int64_t>(RecordBytes(p.loc)));
      if (a.old_entry.has_value()) {
        map_.Put(a.cid, *a.old_entry, loader).status().ok();
        AccountLive(a.old_entry->loc.segment, RecordBytes(a.old_entry->loc));
      } else {
        map_.Remove(a.cid, loader).status().ok();
        m_.live_chunks->Add(-1);
      }
    } else if (a.old_entry.has_value()) {
      map_.Put(a.cid, *a.old_entry, loader).status().ok();
      AccountLive(a.old_entry->loc.segment, RecordBytes(a.old_entry->loc));
      m_.live_chunks->Add(1);
    }
  }
  // The first `appended` ops are this batch's records, in log order.
  group_ops_.resize(ops_start + appended);
  for (size_t i = ops_start; i < group_ops_.size(); i++) {
    group_ops_[i].kind = OpKind::kDead;
    group_ops_[i].cid = kInvalidChunkId;
  }
  return failed;
}

Result<ChunkStore::SealResult> ChunkStore::SealGroupLocked(
    uint8_t flags, const NodeWriteResult* new_root) {
  const bool durable = flags & kCommitDurable;
  CommitManifest manifest;
  manifest.seq = seq_ + 1;
  manifest.flags = flags;
  // A durable commit seals the counter value it is ABOUT to establish; the
  // hardware counter is bumped only after the log write + sync succeed, so
  // failed commit attempts never advance it. Recovery compares the last
  // durable commit's sealed value with the hardware counter to detect
  // replayed or truncated logs (§3).
  const bool bump_counter = durable && suite_.enabled();
  manifest.counter = counter_value_ + (bump_counter ? 1 : 0);

  // Merge the buffered group into ONE manifest. Its records are the
  // group's data records in log order, dead ones included, so recovery
  // replays every write and the last write of an id wins. A deallocation
  // is listed if it is the last operation on its id across ALL buffered
  // batches: recovery applies it after the writes, so a write followed by
  // a groupmate's deallocate cannot resurrect.
  manifest.records.reserve(group_ops_.size());
  for (const PendingOp& op : group_ops_) {
    if (op.kind != OpKind::kDealloc) manifest.records.push_back(op.cid);
  }
  {
    const std::vector<IdOps> ids = LastOpPerId(
        group_ops_.size(), [&](size_t i) { return group_ops_[i].cid; });
    for (const IdOps& id : ids) {
      if (group_ops_[id.last].kind == OpKind::kDealloc) {
        manifest.deallocs.push_back(id.cid);
      }
    }
  }
  manifest.next_chunk_id = next_chunk_id_.load();
  if (new_root != nullptr) {
    manifest.has_root = true;
    manifest.root_loc = new_root->loc;
    manifest.root_hash = new_root->hash;
  }

  Buffer encoded = EncodeManifest(manifest);
  uint8_t record_flags = 0;
  TDB_ASSIGN_OR_RETURN(Buffer commit_payload,
                       SealNextLocked(encoded, &record_flags));
  crypto::Digest mac;
  if (suite_.enabled()) {
    Buffer input = CommitMacInput(
        LogVersion::kV3, chain_mac_,
        RecordTypeByte(RecordType::kCommit, record_flags), commit_payload,
        manifest.records.size());
    for (const PendingOp& op : group_ops_) {
      if (op.kind != OpKind::kDealloc) PutDigest(&input, op.hash);
    }
    mac = suite_.Mac(input);
  }
  PutDigest(&commit_payload, mac);
  TDB_ASSIGN_OR_RETURN(
      Location loc, Append(RecordType::kCommit, record_flags, commit_payload));
  Status flushed = FlushTail();
  if (!flushed.ok()) {
    // The record never reached the store, and seq_/chain_mac_ stay put:
    // drop it from the tail so the next flush re-seals the still-open
    // group under this seq. Left in place, it would reach the log beside
    // its re-sealed twin (same seq, same prev_mac), and recovery, which
    // stops at the second, would drop every commit acked after it.
    tail_buf_.resize(loc.offset - cur_offset_);
    return flushed;
  }

  seq_ = manifest.seq;
  chain_mac_ = mac;
  m_.commits->Increment();
  group_ops_.clear();

  SealResult res;
  res.counter_target = manifest.counter;
  res.bump_counter = bump_counter;
  res.mac = mac;
  return res;
}

void ChunkStore::CompleteTicketsLocked(
    std::vector<std::shared_ptr<internal::CommitTicket>>* tickets,
    const Status& status) {
  for (auto& ticket : *tickets) {
    ticket->result = status;
    ticket->done = true;
  }
  tickets->clear();
  group_cv_.notify_all();
}

void ChunkStore::AwaitGroupIdleLocked(std::unique_lock<std::mutex>& lock) {
  while (group_flushing_) group_cv_.wait(lock);
}

Status ChunkStore::FlushGroupLocked(uint8_t flags,
                                    const NodeWriteResult* new_root,
                                    std::unique_lock<std::mutex>* lock) {
  group_flushing_ = true;
  // Only one flush runs at a time, so flush_tickets_ is free here.
  std::vector<std::shared_ptr<internal::CommitTicket>>& tickets =
      flush_tickets_;
  tickets.swap(group_tickets_);

  auto seal = SealGroupLocked(flags, new_root);
  if (!seal.ok()) {
    group_flushing_ = false;
    CompleteTicketsLocked(&tickets, seal.status());
    return seal.status();
  }
  // Snapshot the dirty-file set under the lock. Only one flush runs at a
  // time (group_flushing_, which every other durable path awaits), so the
  // counter bumps of two flushes never interleave. A committer leading a
  // group passes its lock and the Sync + counter bump run OUTSIDE mu_:
  // followers keep sealing and buffering, and cache-miss readers keep
  // reading, while the flush I/O is in flight. Checkpoints and the
  // cleaner's relocation commit pass none and keep mu_ across the I/O:
  // they run inside maintenance, which rewrites the map root, scan
  // position and free list around this flush and must not see a commit
  // buffer in between.
  std::vector<std::string>& to_sync = syncing_files_;
  to_sync.swap(dirty_files_);
  const uint32_t sealed_segment = cur_segment_;
  const uint64_t sealed_offset = cur_offset_;
  if (lock != nullptr) lock->unlock();

  Status result = Status::OK();
  // Wall-clock marks for mirroring this flush into the other committers'
  // traces (only read when tracing is on; `bumped` flags that the bump
  // ran, since a fake test clock may legitimately report 0).
  const bool tracing = common::TracingEnabled();
  uint64_t t_flush0 = 0, t_sync1 = 0, t_bump0 = 0, t_bump1 = 0, t_flush1 = 0;
  bool bumped = false;
  if (tracing) t_flush0 = common::MonotonicMicros();
  {
    common::TraceSpan flush_span("chunk.group_flush");
    common::ScopedTimer flush_timer(metrics_.get(),
                                    m_.group_flush_latency_us);
    {
      common::TraceSpan sync_span("chunk.sync");
      common::ScopedTimer sync_timer(metrics_.get(), m_.sync_latency_us);
      for (const std::string& name : to_sync) {
        result = store_->Sync(name);
        if (!result.ok()) break;
      }
    }
    if (tracing) t_sync1 = common::MonotonicMicros();
    if (result.ok()) m_.log_syncs->Increment();
    if (result.ok() && seal->bump_counter) {
      bumped = true;
      if (tracing) t_bump0 = common::MonotonicMicros();
      common::TraceSpan bump_span("chunk.counter_bump");
      common::ScopedTimer bump_timer(metrics_.get(),
                                     m_.counter_bump_latency_us);
      auto cv = counter_->Increment();
      if (cv.ok()) {
        m_.counter_bumps->Increment();
        TDB_CHECK(*cv >= seal->counter_target,
                  "one-way counter regressed during commit");
      } else {
        result = cv.status();
      }
      if (tracing) t_bump1 = common::MonotonicMicros();
    }
  }
  if (tracing) t_flush1 = common::MonotonicMicros();
  if (lock != nullptr) lock->lock();

  if (tracing) {
    // Mirror the flush into every OTHER committer's trace (before the
    // tickets complete, so a follower that drains right after WaitDurable
    // returns already sees this work in its own tree). The flushing
    // thread's own trace recorded the real spans above; skip tickets that
    // share it.
    const uint64_t own_trace = common::CurrentTraceContext().trace_id;
    for (const auto& t : tickets) {
      if (!t->trace.valid() || t->trace.trace_id == own_trace) continue;
      const uint64_t flush_span_id = common::RecordExplicitSpan(
          t->trace, "chunk.group_flush", t_flush0, t_flush1);
      if (flush_span_id == 0) continue;
      const common::TraceContext flush_ctx{t->trace.trace_id, flush_span_id};
      common::RecordExplicitSpan(flush_ctx, "chunk.sync", t_flush0, t_sync1);
      if (bumped) {
        common::RecordExplicitSpan(flush_ctx, "chunk.counter_bump", t_bump0,
                                   t_bump1);
      }
    }
  }
  if (!result.ok()) {
    // Failed flush: files stay dirty for the next attempt, the counter
    // target is re-sealed by the next group (counter_value_ unchanged),
    // and the WHOLE group fails — durability is never acked without a
    // covering sync + bump.
    for (std::string& name : to_sync) {
      if (std::find(dirty_files_.begin(), dirty_files_.end(), name) ==
          dirty_files_.end()) {
        dirty_files_.push_back(std::move(name));
      }
    }
  } else {
    if (seal->bump_counter) counter_value_ = seal->counter_target;
    if (new_root != nullptr) {
      has_root_ = true;
      root_loc_ = new_root->loc;
      root_hash_ = new_root->hash;
      ckpt_mac_ = seal->mac;
      scan_segment_ = sealed_segment;
      scan_offset_ = static_cast<uint32_t>(sealed_offset);
      residual_bytes_ = 0;
      // The anchor is rewritten at checkpoints (and, rarely, to renew the
      // seal lease); between checkpoints the commit records themselves
      // carry the authenticated counter, so a durable commit costs exactly
      // one sequential log write (+ sync). A checkpoint renews the lease.
      AnchorState state;
      state.counter = counter_value_;
      state.seq = seq_;
      state.next_chunk_id = next_chunk_id_.load();
      state.has_root = true;
      state.root_loc = root_loc_;
      state.root_hash = root_hash_;
      state.ckpt_mac = ckpt_mac_;
      state.scan_segment = scan_segment_;
      state.scan_offset = scan_offset_;
      state.seal_limit = next_seal_.load() + kSealLease;
      result = WriteAnchor(state);
    }
  }
  to_sync.clear();
  if (result.ok()) {
    // One ack per committer in the group, plus one for a checkpoint's or
    // the cleaner's own commit.
    const uint64_t n = tickets.size();
    m_.durable_commits->Add(
        static_cast<int64_t>(n + (flags != kCommitDurable ? 1 : 0)));
    if (n > 0) {
      m_.commit_groups->Increment();
      m_.grouped_commits->Add(static_cast<int64_t>(n));
      m_.max_commits_per_group->SetMax(static_cast<int64_t>(n));
    }
    result = FreePendingSegments();
  }
  group_flushing_ = false;
  CompleteTicketsLocked(&tickets, result);
  return result;
}

Result<CommitHandle> ChunkStore::CommitBuffered(const WriteBatch& batch,
                                                bool durable) {
  if (!open_.load()) return Status::InvalidArgument("chunk store not open");
  PreparedBatch prep;
  TDB_RETURN_IF_ERROR(PrepareBatch(batch, &prep));

  CommitHandle handle;
  handle.ticket_ = std::make_shared<internal::CommitTicket>();
  // Capture the committer's causal context before the ticket can escape to
  // another thread: if this commit rides a group flush led by a different
  // committer, the leader mirrors its flush spans into this context.
  handle.ticket_->trace = common::CurrentTraceContext();

  std::unique_lock<std::mutex> lock(mu_);
  Status buffered = BufferBatchLocked(prep);
  if (!buffered.ok()) {
    // The failed batch was rolled back, but drop its ids from the cache
    // anyway so no stale plaintext can outlive a partial rollback.
    for (const StagedWrite& w : prep.writes) {
      cache_.Erase(w.cid, EvictCause::kFailedCommit);
    }
    for (ChunkId cid : prep.deallocs) {
      cache_.Erase(cid, EvictCause::kFailedCommit);
    }
    return buffered;
  }
  // Write-through: the batch's plaintext is the chunks' new committed
  // state, already in trusted memory — cache it without revalidation.
  if (cache_.enabled()) {
    for (const StagedWrite& w : prep.writes) {
      cache_.Put(w.cid, *w.plain, commit_version_);
    }
    for (ChunkId cid : prep.deallocs) {
      cache_.Erase(cid, EvictCause::kDealloc);
    }
  }

  if (durable) {
    // Join the open group; WaitDurable elects the leader that flushes it.
    handle.ticket_->durable = true;
    group_tickets_.push_back(handle.ticket_);
    // A leader may be sitting in its accumulation window — wake it so the
    // early-seal target is re-checked with this ticket counted.
    if (group_flushing_) group_cv_.notify_all();
  } else {
    // Applied and buffered; durability rides on the next group flush. (A
    // crash before that flush discards it — exactly the paper's
    // nondurable-commit contract, §3.1.)
    handle.ticket_->done = true;
  }
  return handle;
}

Status ChunkStore::WaitDurable(CommitHandle& handle) {
  if (!handle.valid()) {
    return Status::InvalidArgument("invalid commit handle");
  }
  std::shared_ptr<internal::CommitTicket> ticket = handle.ticket_;
  Status result;
  {
    std::unique_lock<std::mutex> lock(mu_);
    // Trace the leader/follower handoff: if this durable ticket ends up
    // completed by ANOTHER waiter's flush, record a follower-wait span so
    // the committer's causal tree shows the handoff (the leader's mirrored
    // flush spans land next to it, see FlushGroupLocked). Recorded
    // even when the leader finished before we first checked — "followed"
    // is about who produced durability, not about blocking.
    const bool trace_follow = common::TracingEnabled() && ticket->durable;
    const uint64_t wait_start =
        trace_follow ? common::MonotonicMicros() : 0;
    bool led = false;
    while (!ticket->done) {
      if (!group_flushing_) {
        // First pending waiter becomes the leader and flushes the whole
        // group (its own ticket included). It claims the group first, then
        // may sit in the accumulation window so concurrent committers
        // buffer into it; tickets are taken only at the flush, so a commit
        // that lands during the window rides it.
        led = true;
        group_flushing_ = true;
        AwaitGroupWindowLocked(lock);
        FlushGroupLocked(kCommitDurable, nullptr, &lock);
      } else {
        group_cv_.wait(lock);
      }
    }
    if (trace_follow && !led) {
      common::RecordExplicitSpan(common::CurrentTraceContext(),
                                 "chunk.follower_wait", wait_start,
                                 common::MonotonicMicros());
    }
    result = ticket->result;
  }
  if (!result.ok()) return result;
  // Deferred maintenance (auto-checkpoint, cleaning) runs after the ack,
  // outside any caller-held locks — e.g. the object store has already
  // released its transaction locks by now.
  return RunMaintenance();
}

void ChunkStore::AwaitGroupWindowLocked(std::unique_lock<std::mutex>& lock) {
  if (options_.group_commit_window_us == 0) return;
  const uint32_t target = options_.group_commit_target_commits;
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::microseconds(options_.group_commit_window_us);
  // CommitBuffered notifies group_cv_ on each enqueue while a leader is
  // waiting, so the early-seal target is checked promptly; otherwise the
  // wait simply expires at the deadline.
  while (!(target > 0 && group_tickets_.size() >= target) &&
         std::chrono::steady_clock::now() < deadline) {
    group_cv_.wait_until(lock, deadline);
  }
}

Status ChunkStore::RunMaintenance() {
  std::unique_lock<std::mutex> lock(mu_);
  if (!open_.load() || in_maintenance_) return Status::OK();
  // Bail before serializing against the group when nothing is owed: a
  // committer that just got acked may be the very one the next leader's
  // accumulation window is waiting for, and queueing it behind the window
  // here would starve group formation.
  if (!MaintenanceDueLocked()) return Status::OK();
  AwaitGroupIdleLocked(lock);
  TDB_RETURN_IF_ERROR(MaybeCheckpointLocked());
  return MaybeCleanLocked();
}

bool ChunkStore::MaintenanceDueLocked() {
  if (residual_bytes_ >= options_.checkpoint_interval_bytes) return true;
  if (ActiveSnapshots() > 0 || options_.max_clean_segments_per_commit <= 0) {
    return false;
  }
  // Same utilization trigger as MaybeCleanLocked (which re-checks after
  // the group goes idle; this is only an early out).
  const uint64_t target = std::max<uint64_t>(
      static_cast<uint64_t>(m_.live_bytes->value() /
                            options_.max_utilization),
      2 * static_cast<uint64_t>(options_.segment_size));
  return static_cast<uint64_t>(m_.total_bytes->value()) >
         target + options_.segment_size;
}

Status ChunkStore::WriteAnchor(AnchorState state) {
  state.map_fanout = map_.fanout();
  state.iv_seed = options_.iv_seed;
  state.legacy_segments = !legacy_segments_.empty();
  TDB_RETURN_IF_ERROR(anchor_mgr_.Write(state));
  anchored_ = state;
  // Seal numbers below the new limit are usable once it is durable.
  seal_limit_.store(std::max(seal_limit_.load(), state.seal_limit));
  return Status::OK();
}

Status ChunkStore::Checkpoint() {
  std::unique_lock<std::mutex> lock(mu_);
  if (!open_.load()) return Status::InvalidArgument("chunk store not open");
  AwaitGroupIdleLocked(lock);
  return CheckpointLocked();
}

Status ChunkStore::CheckpointLocked() {
  common::ScopedTimer timer(metrics_.get(), m_.checkpoint_us);
  NodeWriter writer = [this](Slice bytes) -> Result<NodeWriteResult> {
    uint8_t flags = 0;
    TDB_ASSIGN_OR_RETURN(Buffer sealed, SealNextLocked(bytes, &flags));
    TDB_ASSIGN_OR_RETURN(Location loc,
                         Append(RecordType::kMapNode, flags, sealed));
    NodeWriteResult res;
    res.loc = loc;
    res.hash = EntryHash(RecordType::kMapNode, flags, sealed);
    res.record_size = static_cast<uint32_t>(RecordBytes(loc));
    AccountLive(loc.segment, res.record_size, /*is_map=*/true);
    return res;
  };
  auto obsolete = [this](const Location& loc, uint32_t size) {
    AccountLive(loc.segment, -static_cast<int64_t>(size), /*is_map=*/true);
  };
  TDB_ASSIGN_OR_RETURN(NodeWriteResult root,
                       map_.WriteDirty(writer, obsolete));
  // The checkpoint leads a group that also carries the new root: any
  // buffered commits merge into its manifest and their tickets complete.
  TDB_RETURN_IF_ERROR(
      FlushGroupLocked(kCommitDurable | kCommitCheckpoint, &root, nullptr));
  m_.checkpoints->Increment();
  return Status::OK();
}

Status ChunkStore::MaybeCheckpointLocked() {
  if (residual_bytes_ < options_.checkpoint_interval_bytes) {
    return Status::OK();
  }
  return CheckpointLocked();
}

namespace {

// ChunkStoreStats::cache_evictions: the one field that is no instrument.
uint64_t CacheEvictions(const ChunkStoreStats& s) {
  return s.cache_evictions_capacity + s.cache_evictions_dealloc +
         s.cache_evictions_failed_commit + s.cache_evictions_relocation;
}

}  // namespace

void ChunkStoreStats::Add(const ChunkStoreStats& o) {
  const uint64_t max_group =
      std::max(max_commits_per_group, o.max_commits_per_group);
#define TDB_ADD(kind, member, name) member += o.member;
  TDB_CHUNK_STORE_METRICS(TDB_ADD, TDB_METRIC_NONE)
#undef TDB_ADD
  max_commits_per_group = max_group;
  cache_evictions = CacheEvictions(*this);
}

ChunkStoreStats ChunkStore::Stats() const {
  ChunkStoreStats s;
#define TDB_READ(kind, member, name) \
  s.member = static_cast<uint64_t>(m_.member->value());
  TDB_CHUNK_STORE_METRICS(TDB_READ, TDB_METRIC_NONE)
#undef TDB_READ
  s.cache_evictions = CacheEvictions(s);
  return s;
}

Status ChunkStore::Close() {
  std::unique_lock<std::mutex> lock(mu_);
  if (!open_.load()) return Status::OK();
  AwaitGroupIdleLocked(lock);
  Status s = CheckpointLocked();
  open_.store(false);
  return s;
}

// ---------------------------------------------------------------------------
// Cleaning

void ChunkStore::AccountLive(uint32_t segment, int64_t delta, bool is_map) {
  SegInfo& info = segments_[segment];
  info.live = static_cast<uint64_t>(static_cast<int64_t>(info.live) + delta);
  if (is_map) {
    info.live_map =
        static_cast<uint64_t>(static_cast<int64_t>(info.live_map) + delta);
  }
  // Two's-complement wraparound makes fetch_add with a negative delta
  // correct for unsigned atomics.
  m_.live_bytes->Add(delta);
}

void ChunkStore::NoteSummary(uint32_t segment, ChunkId cid) {
  std::vector<ChunkId>& cids = segments_[segment].cids;
  // Back-to-back overwrites of one chunk need one entry.
  if (!cids.empty() && cids.back() == cid) return;
  cids.push_back(cid);
  m_.summary_bytes->Add(sizeof(ChunkId));
}

size_t ChunkStore::ActiveSnapshots() {
  snapshots_.erase(std::remove_if(snapshots_.begin(), snapshots_.end(),
                                  [](const std::weak_ptr<Snapshot>& w) {
                                    return w.expired();
                                  }),
                   snapshots_.end());
  return snapshots_.size();
}

std::vector<uint32_t> ChunkStore::CleanCandidates(uint64_t target,
                                                  int max_segments) {
  std::set<uint32_t> pending(pending_free_.begin(), pending_free_.end());
  std::vector<std::pair<double, uint32_t>> candidates;  // (benefit, id)
  for (const auto& [id, info] : segments_) {
    // Segments holding live map nodes wait for a checkpoint to relocate
    // them; cleaning sticks to data-only segments so it never forces a
    // full map flush (bounded per-commit cost, §3.2.1). Segments at or
    // past the residual-log scan position hold the commit chain recovery
    // replays, so they become cleanable only after the next checkpoint.
    if (id == cur_segment_ || pending.count(id) || info.live_map > 0 ||
        id >= scan_segment_) {
      continue;
    }
    // Cleaning economy: relocating a victim costs its live bytes and only
    // frees its dead bytes. Victims denser than the utilization target
    // have no yield — they wait until more of their records die. Without
    // this, tight targets degenerate into copying the whole database per
    // commit (the paper's Fig. 11 knee is this copy cost growing).
    if (static_cast<double>(info.live) >
        options_.max_utilization * info.total) {
      continue;
    }
    // LFS cost-benefit (Rosenblum & Ousterhout, SOSP 1991): cleaning reads
    // the segment and rewrites its live fraction u to free 1-u, and space
    // freed from old data stays free longer than space freed from data
    // that is still being overwritten. Ids are handed out in order and
    // every append goes to the tail, so a segment's age is its distance
    // from the tail.
    const double u = info.total == 0 ? 0.0
                                     : static_cast<double>(info.live) /
                                           static_cast<double>(info.total);
    const double age = static_cast<double>(cur_segment_ - id);
    candidates.push_back({(1.0 - u) * age / (1.0 + u), id});
  }
  // Best benefit first; ties go to the older segment.
  std::sort(candidates.begin(), candidates.end(),
            [](const auto& a, const auto& b) {
              return a.first != b.first ? a.first > b.first
                                        : a.second < b.second;
            });
  std::vector<uint32_t> victims;
  uint64_t projected = static_cast<uint64_t>(m_.total_bytes->value());
  for (const auto& [benefit, id] : candidates) {
    if (static_cast<int>(victims.size()) >= max_segments) break;
    if (target != 0 && projected <= target) break;
    victims.push_back(id);
    projected -= segments_[id].total;
  }
  return victims;
}

Status ChunkStore::UnlockGarbageWithCheckpoint() {
  // Dead bytes parked in the residual region (or under live map nodes)
  // become cleanable only after a checkpoint advances the scan position
  // and relocates dirty map nodes. Checkpointing itself produces garbage
  // (it obsoletes the previous map records), so it is rate-limited: only
  // when it unlocks at least a segment of garbage AND enough residual log
  // has accumulated since the last checkpoint to be worth paying for.
  // Without the second condition, tight utilization targets degenerate
  // into checkpoint storms.
  uint64_t locked_dead = 0;
  for (const auto& [id, info] : segments_) {
    if (id == cur_segment_) continue;
    if (id >= scan_segment_ || info.live_map > 0) {
      locked_dead += info.total - info.live;
    }
  }
  if (locked_dead < options_.segment_size) return Status::OK();
  // Tighter utilization targets need garbage unlocked (and hence
  // checkpoints) more often — compactness is paid for with checkpoint
  // traffic, which is the paper's utilization/performance tradeoff.
  double slack = 1.0 - options_.max_utilization;
  uint64_t floor_bytes = std::max<uint64_t>(
      options_.segment_size,
      static_cast<uint64_t>(10.0 * options_.segment_size * slack));
  if (residual_bytes_ < floor_bytes) return Status::OK();

  // Segments pinned by a few surviving (clean) map nodes accumulate dead
  // bytes indefinitely; mark those nodes dirty so this checkpoint
  // relocates them and the segments become cleanable.
  std::set<uint32_t> stale_map_segments;
  for (const auto& [id, info] : segments_) {
    if (id >= scan_segment_ || info.live_map == 0) continue;
    if (static_cast<double>(info.live) <=
        options_.max_utilization * info.total) {
      stale_map_segments.insert(id);
      if (stale_map_segments.size() >= 8) break;
    }
  }
  if (!stale_map_segments.empty()) {
    TDB_RETURN_IF_ERROR(
        DirtyMapNodesIn(stale_map_segments, MakeLoader()).status());
  }
  return CheckpointLocked();
}

Result<bool> ChunkStore::DirtyMapNodesIn(const std::set<uint32_t>& victims,
                                         const NodeLoader& loader) {
  // Full tree walk: a child whose own record is outside every victim can
  // still have descendants inside one.
  std::function<Result<bool>(const std::shared_ptr<MapNode>&)> mark =
      [&](const std::shared_ptr<MapNode>& node) -> Result<bool> {
    bool any = node->has_persisted &&
               victims.count(node->persisted_loc.segment) > 0;
    if (node->level > 0) {
      for (uint32_t i = 0; i < map_.fanout(); i++) {
        if (!node->entries[i].present) continue;
        std::shared_ptr<MapNode> child = node->children[i];
        if (child == nullptr) {
          TDB_ASSIGN_OR_RETURN(
              child, loader(node->level - 1, node->index * map_.fanout() + i,
                            node->entries[i].loc, node->entries[i].hash));
          node->children[i] = child;
        }
        TDB_ASSIGN_OR_RETURN(bool child_any, mark(child));
        any = any || child_any;
      }
    }
    if (any) node->dirty = true;
    return any;
  };
  return mark(map_.root());
}

Status ChunkStore::MaybeCleanLocked() {
  if (in_maintenance_ || ActiveSnapshots() > 0 ||
      options_.max_clean_segments_per_commit <= 0) {
    return Status::OK();
  }
  const uint64_t target = std::max<uint64_t>(
      static_cast<uint64_t>(m_.live_bytes->value() /
                            options_.max_utilization),
      2 * static_cast<uint64_t>(options_.segment_size));
  if (static_cast<uint64_t>(m_.total_bytes->value()) <=
      target + options_.segment_size) {
    return Status::OK();
  }
  std::vector<uint32_t> victims =
      CleanCandidates(target, options_.max_clean_segments_per_commit);
  if (victims.empty()) {
    in_maintenance_ = true;
    Status unlocked = UnlockGarbageWithCheckpoint();
    in_maintenance_ = false;
    TDB_RETURN_IF_ERROR(unlocked);
    victims = CleanCandidates(target, options_.max_clean_segments_per_commit);
  }
  if (victims.empty()) return Status::OK();
  return CleanSegments(victims);
}

Status ChunkStore::Clean(int max_segments) {
  std::unique_lock<std::mutex> lock(mu_);
  if (!open_.load()) return Status::InvalidArgument("chunk store not open");
  if (in_maintenance_ || ActiveSnapshots() > 0 || max_segments <= 0) {
    return Status::OK();
  }
  AwaitGroupIdleLocked(lock);
  std::vector<uint32_t> victims = CleanCandidates(0, max_segments);
  if (victims.empty()) {
    in_maintenance_ = true;
    Status unlocked = UnlockGarbageWithCheckpoint();
    in_maintenance_ = false;
    TDB_RETURN_IF_ERROR(unlocked);
    victims = CleanCandidates(0, max_segments);
  }
  if (victims.empty()) return Status::OK();
  return CleanSegments(victims);
}

Status ChunkStore::CleanSegments(const std::vector<uint32_t>& victims) {
  common::ScopedTimer timer(metrics_.get(), m_.clean_us);
  in_maintenance_ = true;
  NodeLoader loader = MakeLoader();

  // The victims' live records, found from their summaries: a summarized
  // cid is live in a victim iff its map entry still points into one.
  // Records of overwritten, deallocated or rolled-back writes fail that
  // check. Ascending cid order is the order a full map walk yields, so
  // the relocation batch and the log image are the same as one.
  std::vector<ChunkId> cids;
  for (uint32_t id : victims) {
    const std::vector<ChunkId>& summary = segments_[id].cids;
    cids.insert(cids.end(), summary.begin(), summary.end());
  }
  std::sort(cids.begin(), cids.end());
  cids.erase(std::unique(cids.begin(), cids.end()), cids.end());
  std::vector<std::pair<ChunkId, MapEntry>> to_move;
  Status found = map_.GetSorted(
      cids, loader, [&](ChunkId cid, const MapEntry& entry) {
        if (std::find(victims.begin(), victims.end(), entry.loc.segment) !=
            victims.end()) {
          to_move.push_back({cid, entry});
        }
      });
  if (!found.ok()) {
    in_maintenance_ = false;
    return found;
  }
  // Relocate them. Whole records move verbatim, frame, seal number and
  // all, so their hashes and the cached plaintext stay valid.
  Status status = Status::OK();
  PreparedBatch relocations;
  relocations.writes.reserve(to_move.size());
  for (const auto& [cid, entry] : to_move) {
    auto raw = ReadRawRecord(entry.loc, RecordType::kData, entry.hash,
                             /*whole_record=*/true);
    if (!raw.ok()) {
      status = raw.status();
      break;
    }
    StagedWrite staged;
    staged.cid = cid;
    staged.sealed = std::move(raw).value();
    staged.flags = entry.flags;
    staged.hash = entry.hash;
    staged.frame_header = RecordBytes(entry.loc) - entry.loc.length;
    relocations.writes.push_back(std::move(staged));
    m_.relocated_records->Increment();
    m_.relocated_bytes->Add(static_cast<int64_t>(entry.loc.length));
    if (entry.loc.offset < segments_[entry.loc.segment].survivor_end) {
      m_.rerelocated_bytes->Add(static_cast<int64_t>(entry.loc.length));
    }
  }
  // Survivors get segments of their own: the tail rolls before them
  // (unless it is empty) and after them, so neither hot writes nor the
  // relocation manifest, which are dead soon, share their segments. Cold
  // records then collect in segments that seldom need cleaning again.
  // They still go to the tail in log order: recovery and the scan
  // position are unchanged.
  if (status.ok() && !relocations.writes.empty() &&
      cur_offset_ + tail_buf_.size() > kSegmentHeaderSize) {
    status = OpenFreshSegment();
  }
  if (status.ok() && !relocations.writes.empty()) {
    // Buffer the relocations into the open group: victim segments are all
    // behind the scan position, so a chunk rewritten by a buffered commit
    // can never also be a relocation candidate (its entry already points
    // at the tail region).
    status = BufferBatchLocked(relocations);
    if (status.ok()) status = OpenFreshSegment();
  }
  if (status.ok()) {
    // The relocation commit is durable so the victims become reclaimable
    // right away (the §3.2.2 rule) without forcing a map checkpoint —
    // victims never contain live map nodes. It merges with (and acks) any
    // buffered group commits.
    status = FlushGroupLocked(kCommitClean | kCommitDurable, nullptr, nullptr);
  }
  if (status.ok()) {
    for (uint32_t id : victims) pending_free_.push_back(id);
    status = FreePendingSegments();
    m_.cleaned_segments->Add(static_cast<int64_t>(victims.size()));
  }
  in_maintenance_ = false;
  return status;
}

Status ChunkStore::FreePendingSegments() {
  std::vector<uint32_t> keep;
  for (uint32_t id : pending_free_) {
    auto it = segments_.find(id);
    if (it == segments_.end()) continue;
    if (it->second.live != 0 || id == cur_segment_ ||
        id >= scan_segment_) {
      keep.push_back(id);  // Still referenced; try again later.
      continue;
    }
    TDB_RETURN_IF_ERROR(store_->Remove(SegmentName(id)));
    m_.total_bytes->Add(-static_cast<int64_t>(it->second.total));
    m_.summary_bytes->Add(
        -static_cast<int64_t>(it->second.cids.size() * sizeof(ChunkId)));
    segments_.erase(it);
  }
  pending_free_ = std::move(keep);
  m_.segments->Set(static_cast<int64_t>(segments_.size()));
  return Status::OK();
}

Status ChunkStore::VerifyIntegrity(uint64_t* chunks_checked) {
  if (!open_.load()) return Status::InvalidArgument("chunk store not open");
  common::TraceSpan span("chunk.verify");
  common::ScopedTimer timer(metrics_.get(), m_.verify_latency_us);
  uint64_t checked = 0;
  if (chunks_checked != nullptr) *chunks_checked = 0;

  // Pin the scrub's view of the map and collect the live ids under one
  // mutex hold. View registration pauses the cleaner, so their records
  // stay readable for the whole scrub without holding mu_; shared
  // ownership of the COW root keeps unpersisted nodes alive.
  std::shared_ptr<Snapshot> view;
  std::vector<ChunkId> cids;
  {
    std::lock_guard<std::mutex> lock(mu_);
    view = PinViewLocked();
    TDB_RETURN_IF_ERROR(map_.ForEach(
        view->root_, MakeLoader(),
        [&](ChunkId cid, const MapEntry&) -> Status {
          cids.push_back(cid);
          return Status::OK();
        }));
  }

  // Validate in bounded batches through the read core: each batch's
  // records are fetched under ONE brief mutex hold (buffered group commits
  // may still sit in the tail buffer) and validated outside it. Ids are
  // visited in map order and the lowest failing one is reported. The core
  // audits with the same keys (kind + location) as the per-read path, so a
  // chunk flagged by both collapses to one entry.
  for (size_t start = 0; start < cids.size(); start += kVerifyBatchChunks) {
    const size_t n = std::min(kVerifyBatchChunks, cids.size() - start);
    size_t failed;
    Status s = FetchAndValidate(&view->root_, {cids.data() + start, n},
                                [](size_t, Buffer) {}, &failed);
    checked += failed;
    if (!s.ok()) {
      m_.verified_chunks->Add(static_cast<int64_t>(checked));
      if (chunks_checked != nullptr) *chunks_checked = checked;
      return Status::TamperDetected("chunk " +
                                    std::to_string(cids[start + failed]) +
                                    ": " + s.ToString());
    }
  }
  m_.verified_chunks->Add(static_cast<int64_t>(checked));
  if (chunks_checked != nullptr) *chunks_checked = checked;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Snapshots

std::shared_ptr<Snapshot> ChunkStore::PinViewLocked() {
  // The COW root already reflects every applied (including buffered)
  // commit, and later commits clone nodes along their write paths,
  // leaving this root's subtree intact. Shared ownership keeps
  // unpersisted in-memory nodes alive for the view's lifetime;
  // registration pauses the cleaner so persisted records stay readable.
  auto view = std::make_shared<Snapshot>();
  view->root_ = map_.root();
  view->seq_ = seq_;
  view->version_ = commit_version_;
  snapshots_.push_back(view);
  return view;
}

Result<std::shared_ptr<Snapshot>> ChunkStore::CreateSnapshot() {
  std::unique_lock<std::mutex> lock(mu_);
  if (!open_.load()) return Status::InvalidArgument("chunk store not open");
  // Checkpoint first so the snapshot tree is fully persisted (cheap
  // incremental diffs need the hashes) and the root is anchored. This
  // also absorbs and acks any buffered group commits.
  AwaitGroupIdleLocked(lock);
  TDB_RETURN_IF_ERROR(CheckpointLocked());
  return PinViewLocked();
}

Result<std::shared_ptr<Snapshot>> ChunkStore::PinView() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!open_.load()) return Status::InvalidArgument("chunk store not open");
  // No checkpoint and no group-idle wait: a view of the applied state.
  m_.views_pinned->Increment();
  return PinViewLocked();
}

Result<std::shared_ptr<const Buffer>> ChunkStore::ReadAtViewShared(
    const Snapshot& view, ChunkId cid) {
  if (!open_.load()) return Status::InvalidArgument("chunk store not open");
  common::TraceSpan span("chunk.read_view");
  common::ScopedTimer timer(metrics_.get(), m_.read_latency_us);
  // A cache entry always holds a chunk's LAST committed state, stamped
  // with the commit version current at insertion. One stamped at or before
  // the view's version is therefore exactly the state the view observes —
  // served under the cache's own lock only, with shared ownership instead
  // of a copy (payloads are immutable once handed out).
  if (std::shared_ptr<const Buffer> hit =
          cache_.GetShared(cid, view.version_)) {
    m_.cache_hits->Increment();
    return hit;
  }
  Buffer plain;
  size_t failed;
  TDB_RETURN_IF_ERROR(FetchAndValidate(
      &view.root_, {&cid, 1},
      [&plain](size_t, Buffer b) { plain = std::move(b); }, &failed));
  if (cache_.enabled()) m_.cache_misses->Increment();
  return std::make_shared<const Buffer>(std::move(plain));
}

Result<std::vector<Buffer>> ChunkStore::ReadManyAtView(
    const Snapshot& view, const std::vector<ChunkId>& cids) {
  std::vector<Buffer> out(cids.size());
  size_t failed;
  TDB_RETURN_IF_ERROR(ReadManyAt(
      view, cids, [&out](size_t i, Buffer b) { out[i] = std::move(b); },
      &failed));
  return out;
}

Status ChunkStore::ReadManyAt(const Snapshot& view,
                              const std::vector<ChunkId>& cids,
                              const Deliver& deliver, size_t* failed) {
  *failed = cids.size();
  if (!open_.load()) {
    *failed = 0;
    return Status::InvalidArgument("chunk store not open");
  }
  common::TraceSpan span("chunk.read_view_many");
  std::vector<size_t> at;  // Position in `cids` of each miss.
  std::vector<ChunkId> misses;
  Buffer hit;
  for (size_t i = 0; i < cids.size(); i++) {
    if (cache_.Get(cids[i], view.version_, &hit)) {
      m_.cache_hits->Increment();
      deliver(i, std::move(hit));
    } else {
      at.push_back(i);
      misses.push_back(cids[i]);
    }
  }
  if (misses.empty()) return Status::OK();
  size_t miss_failed;
  Status s = FetchAndValidate(
      &view.root_, misses,
      [&deliver, &at](size_t j, Buffer b) { deliver(at[j], std::move(b)); },
      &miss_failed);
  if (!s.ok()) {
    *failed = at[miss_failed];
    return s;
  }
  if (cache_.enabled()) {
    m_.cache_misses->Add(static_cast<int64_t>(misses.size()));
  }
  return Status::OK();
}

Status ChunkStore::ForEachChunkAt(
    const Snapshot& snap,
    const std::function<Status(ChunkId, const MapEntry&)>& fn) {
  if (!open_.load()) return Status::InvalidArgument("chunk store not open");
  std::lock_guard<std::mutex> lock(mu_);
  return map_.ForEach(snap.root_, MakeLoader(), fn);
}

Status ChunkStore::DiffSnapshots(
    const Snapshot& base, const Snapshot& delta,
    const std::function<Status(ChunkId, DiffKind, const MapEntry&)>& fn) {
  if (!open_.load()) return Status::InvalidArgument("chunk store not open");
  std::lock_guard<std::mutex> lock(mu_);
  return map_.Diff(base.root_, delta.root_, MakeLoader(), fn);
}

}  // namespace tdb::chunk
