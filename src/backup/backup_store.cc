#include "backup/backup_store.h"

#include "common/check.h"
#include "common/coding.h"
#include "common/trace.h"
#include "crypto/hmac.h"

namespace tdb::backup {

namespace {

constexpr uint32_t kBackupMagic = 0x54424B50;  // "TBKP"
constexpr uint8_t kVersion = 1;
constexpr uint8_t kKindFull = 1;
constexpr uint8_t kKindIncremental = 2;

using chunk::ChunkId;

}  // namespace

Result<std::unique_ptr<BackupStore>> BackupStore::Open(
    chunk::ChunkStore* chunks, platform::ArchivalStore* archive,
    platform::SecretStore* secrets, const crypto::SecurityConfig& security) {
  Buffer secret;
  if (security.enabled) {
    TDB_ASSIGN_OR_RETURN(secret, secrets->GetSecret());
  }
  return std::unique_ptr<BackupStore>(
      new BackupStore(chunks, archive, security, std::move(secret)));
}

BackupStore::BackupStore(chunk::ChunkStore* chunks,
                         platform::ArchivalStore* archive,
                         const crypto::SecurityConfig& security, Buffer secret)
    : chunks_(chunks),
      archive_(archive),
      secret_(std::move(secret)),
      suite_(security, secret_, Slice("tdb-backup-iv")) {
  common::MetricsRegistry* r = chunks_->metrics().get();
  m_.fulls = r->GetCounter("backup.fulls");
  m_.incrementals = r->GetCounter("backup.incrementals");
  m_.chunks_written = r->GetCounter("backup.chunks_written");
  m_.bytes_written = r->GetCounter("backup.bytes_written");
  m_.restores = r->GetCounter("backup.restores");
  m_.chunks_restored = r->GetCounter("backup.chunks_restored");
  m_.create_latency_us = r->GetHistogram("backup.create.latency_us");
}

crypto::CipherSuite BackupStore::ArchiveSuite(uint64_t snapshot_seq) const {
  Buffer seed = Slice("tdb-backup-iv:").ToBuffer();
  PutFixed64(&seed, snapshot_seq);
  const std::string& iv_seed = chunks_->options().iv_seed;
  seed.insert(seed.end(), iv_seed.begin(), iv_seed.end());
  return crypto::CipherSuite(suite_.config(), secret_, seed);
}

Result<BackupInfo> BackupStore::CreateFull(const std::string& archive_name) {
  return Create(archive_name, /*full=*/true);
}

Result<BackupInfo> BackupStore::CreateIncremental(
    const std::string& archive_name) {
  if (!has_lineage_) {
    return Status::InvalidArgument(
        "no prior backup in this session; create a full backup first");
  }
  return Create(archive_name, /*full=*/false);
}

Result<BackupInfo> BackupStore::Create(const std::string& archive_name,
                                       bool full) {
  common::TraceSpan span("backup.create");
  common::ScopedTimer timer(chunks_->metrics().get(), m_.create_latency_us);
  TDB_ASSIGN_OR_RETURN(std::shared_ptr<chunk::Snapshot> snap,
                       chunks_->CreateSnapshot());

  // Leaf table of the snapshot: cid -> (hash, loc).
  std::map<ChunkId, ChunkState> current;
  TDB_RETURN_IF_ERROR(chunks_->ForEachChunkAt(
      *snap, [&](ChunkId cid, const chunk::MapEntry& entry) {
        current[cid] = ChunkState{entry.hash, entry.loc};
        return Status::OK();
      }));

  // Select the chunk states to carry and the removals.
  std::vector<ChunkId> to_write;
  std::vector<ChunkId> removed;
  if (full) {
    for (const auto& [cid, _] : current) to_write.push_back(cid);
  } else {
    for (const auto& [cid, state] : current) {
      auto it = last_table_.find(cid);
      bool unchanged =
          it != last_table_.end() &&
          (suite_.enabled() ? it->second.hash == state.hash
                            : it->second.loc == state.loc);
      if (!unchanged) to_write.push_back(cid);
    }
    for (const auto& [cid, _] : last_table_) {
      if (!current.count(cid)) removed.push_back(cid);
    }
  }

  // Serialize.
  Buffer body;
  PutFixed32(&body, kBackupMagic);
  body.push_back(kVersion);
  body.push_back(full ? kKindFull : kKindIncremental);
  uint64_t seq = full ? 0 : next_seq_;
  PutVarint64(&body, seq);
  // prev_mac is fixed-width (hash_size bytes): zeros for a full backup.
  if (full) {
    Buffer zeros(suite_.hash_size(), 0);
    chunk::PutDigest(&body, crypto::Digest(zeros.data(), zeros.size()));
  } else {
    chunk::PutDigest(&body, last_mac_);
  }
  PutVarint64(&body, to_write.size());
  PutVarint64(&body, removed.size());
  TDB_ASSIGN_OR_RETURN(std::vector<Buffer> plains,
                       chunks_->ReadManyAtView(*snap, to_write));
  crypto::CipherSuite sealer = ArchiveSuite(snap->seq());
  for (size_t i = 0; i < to_write.size(); i++) {
    Buffer sealed = sealer.Seal(plains[i]);
    PutVarint64(&body, to_write[i]);
    PutLengthPrefixed(&body, sealed);
  }
  for (ChunkId cid : removed) PutVarint64(&body, cid);

  crypto::Digest mac = suite_.Mac(body);
  Buffer trailer;
  PutFixed32(&trailer, Checksum32(body));
  chunk::PutDigest(&trailer, mac);

  TDB_ASSIGN_OR_RETURN(std::unique_ptr<platform::ArchiveWriter> writer,
                       archive_->NewArchive(archive_name));
  TDB_RETURN_IF_ERROR(writer->Append(body));
  TDB_RETURN_IF_ERROR(writer->Append(trailer));
  TDB_RETURN_IF_ERROR(writer->Close());

  // Advance the lineage only after the archive is safely written.
  has_lineage_ = true;
  next_seq_ = seq + 1;
  last_mac_ = mac;
  last_table_ = std::move(current);

  BackupInfo info;
  info.seq = seq;
  info.chunks = to_write.size();
  info.removed = removed.size();
  info.bytes = body.size() + trailer.size();
  (full ? m_.fulls : m_.incrementals)->Increment();
  m_.chunks_written->Add(static_cast<int64_t>(info.chunks));
  m_.bytes_written->Add(static_cast<int64_t>(info.bytes));
  return info;
}

Status BackupStore::Restore(const std::vector<std::string>& archive_names,
                            chunk::ChunkStore* target) {
  if (archive_names.empty()) {
    return Status::InvalidArgument("no archives to restore");
  }

  // Phase 1: read and validate the whole chain before touching `target`
  // ("the backup store restores only valid backups", §2).
  struct ParsedBackup {
    uint8_t kind;
    uint64_t seq;
    crypto::Digest prev_mac;
    crypto::Digest mac;
    std::vector<std::pair<ChunkId, Buffer>> writes;  // Plaintext.
    std::vector<ChunkId> removed;
  };
  std::vector<ParsedBackup> parsed;
  for (const std::string& name : archive_names) {
    TDB_ASSIGN_OR_RETURN(std::unique_ptr<platform::ArchiveReader> reader,
                         archive_->OpenArchive(name));
    const size_t trailer_size = 4 + suite_.hash_size();
    uint64_t total = reader->remaining();
    if (total < trailer_size) {
      return Status::TamperDetected("backup archive truncated: " + name);
    }
    Buffer body, trailer;
    TDB_RETURN_IF_ERROR(reader->Read(total - trailer_size, &body));
    TDB_RETURN_IF_ERROR(reader->Read(trailer_size, &trailer));

    common::AuditLog& audit = chunks_->metrics()->audit();
    Decoder tdec{Slice(trailer)};
    uint32_t cksum;
    TDB_RETURN_IF_ERROR(tdec.GetFixed32(&cksum));
    if (Checksum32(body) != cksum) {
      audit.Record("backup_tamper", common::kRegionUnknown, name,
                   "backup checksum mismatch");
      return Status::TamperDetected("backup checksum mismatch: " + name);
    }
    crypto::Digest mac;
    TDB_RETURN_IF_ERROR(chunk::GetDigest(&tdec, suite_.hash_size(), &mac));
    if (suite_.enabled() && mac != suite_.Mac(body)) {
      audit.Record("backup_tamper", common::kRegionUnknown, name,
                   "backup MAC invalid");
      return Status::TamperDetected("backup MAC invalid: " + name);
    }

    ParsedBackup backup;
    backup.mac = mac;
    Decoder dec{Slice(body)};
    uint32_t magic;
    TDB_RETURN_IF_ERROR(dec.GetFixed32(&magic));
    if (magic != kBackupMagic) {
      return Status::Corruption("not a backup archive: " + name);
    }
    Slice version, kind;
    TDB_RETURN_IF_ERROR(dec.GetBytes(1, &version));
    if (version[0] != kVersion) {
      return Status::Corruption("unsupported backup version");
    }
    TDB_RETURN_IF_ERROR(dec.GetBytes(1, &kind));
    backup.kind = kind[0];
    TDB_RETURN_IF_ERROR(dec.GetVarint64(&backup.seq));
    TDB_RETURN_IF_ERROR(
        chunk::GetDigest(&dec, suite_.hash_size(), &backup.prev_mac));
    uint64_t n_chunks, n_removed;
    TDB_RETURN_IF_ERROR(dec.GetVarint64(&n_chunks));
    TDB_RETURN_IF_ERROR(dec.GetVarint64(&n_removed));
    for (uint64_t i = 0; i < n_chunks; i++) {
      ChunkId cid;
      TDB_RETURN_IF_ERROR(dec.GetVarint64(&cid));
      Slice sealed;
      TDB_RETURN_IF_ERROR(dec.GetLengthPrefixed(&sealed));
      auto plain = suite_.Open(sealed);
      if (!plain.ok()) {
        audit.Record("backup_tamper", common::kRegionUnknown, name,
                     "backup chunk decryption failed");
        return Status::TamperDetected("backup chunk decryption failed");
      }
      backup.writes.push_back({cid, std::move(plain).value()});
    }
    for (uint64_t i = 0; i < n_removed; i++) {
      ChunkId cid;
      TDB_RETURN_IF_ERROR(dec.GetVarint64(&cid));
      backup.removed.push_back(cid);
    }
    if (!dec.done()) {
      return Status::Corruption("trailing bytes in backup: " + name);
    }
    parsed.push_back(std::move(backup));
  }

  // Chain validation: full first, then consecutive incrementals each
  // MAC-linked to its predecessor.
  if (parsed[0].kind != kKindFull || parsed[0].seq != 0) {
    return Status::InvalidArgument("restore chain must start with a full backup");
  }
  for (size_t i = 1; i < parsed.size(); i++) {
    if (parsed[i].kind != kKindIncremental) {
      return Status::InvalidArgument("full backup in the middle of a chain");
    }
    if (parsed[i].seq != parsed[i - 1].seq + 1) {
      return Status::InvalidArgument("incremental backups out of sequence");
    }
    if (suite_.enabled() && parsed[i].prev_mac != parsed[i - 1].mac) {
      chunks_->metrics()->audit().Record(
          "backup_tamper", common::kRegionUnknown, archive_names[i],
          "incremental does not chain to its predecessor");
      return Status::TamperDetected(
          "incremental does not chain to its predecessor");
    }
  }

  // Phase 2: apply, one durable commit per backup. When `target` is null
  // (Verify), validation alone was the point.
  if (target == nullptr) return Status::OK();
  common::TraceSpan span("backup.restore");
  for (const ParsedBackup& backup : parsed) {
    chunk::WriteBatch batch;
    for (const auto& [cid, plain] : backup.writes) batch.Write(cid, plain);
    for (ChunkId cid : backup.removed) batch.Deallocate(cid);
    if (!batch.empty()) {
      TDB_RETURN_IF_ERROR(target->Commit(batch, /*durable=*/true));
    }
    m_.chunks_restored->Add(static_cast<int64_t>(backup.writes.size()));
  }
  m_.restores->Increment();
  return Status::OK();
}

Status BackupStore::Verify(const std::vector<std::string>& archive_names) {
  return Restore(archive_names, /*target=*/nullptr);
}

}  // namespace tdb::backup
