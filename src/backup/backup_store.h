#ifndef TDB_BACKUP_BACKUP_STORE_H_
#define TDB_BACKUP_BACKUP_STORE_H_

#include <map>
#include <string>
#include <vector>

#include "chunk/chunk_store.h"
#include "common/result.h"
#include "crypto/cipher_suite.h"
#include "platform/archival_store.h"
#include "platform/secret_store.h"

namespace tdb::backup {

/// Summary of a created backup.
struct BackupInfo {
  uint64_t seq = 0;        // 0 for a full backup, then 1, 2, ... .
  uint64_t chunks = 0;     // Chunk states carried in this backup.
  uint64_t removed = 0;    // Deallocations carried (incrementals only).
  uint64_t bytes = 0;      // Archive size.
};

/// The paper's backup store (§2, [23]): creates full and incremental
/// backups from chunk-store snapshots and restores only valid backups, in
/// the same sequence as they were created.
///
/// Archives live in the (attacker-controlled) archival store, so every
/// chunk payload is re-encrypted into the archive and the whole archive is
/// MACed. Incrementals chain to their predecessor by MAC, which is what
/// enforces restore ordering: a reordered, truncated, or substituted chain
/// fails validation.
///
/// Incrementals are computed by comparing the new snapshot's leaf table
/// against the previous backup's (recorded at backup time), so the previous
/// snapshot handle can be released and log cleaning is not blocked between
/// backups. The first backup in a process must be full.
class BackupStore {
 public:
  /// None of the pointers are owned; all must outlive this object. Fails if
  /// `security` is enabled and no secret is provisioned.
  static Result<std::unique_ptr<BackupStore>> Open(
      chunk::ChunkStore* chunks, platform::ArchivalStore* archive,
      platform::SecretStore* secrets,
      const crypto::SecurityConfig& security);

  /// Snapshots the database and writes a complete copy.
  Result<BackupInfo> CreateFull(const std::string& archive_name);

  /// Writes only chunks added/changed since the previous backup, plus the
  /// ids removed since then. InvalidArgument if no prior backup exists in
  /// this session.
  Result<BackupInfo> CreateIncremental(const std::string& archive_name);

  /// Restores the given chain (one full backup followed by its
  /// incrementals, in creation order) into `target`. Validates every
  /// archive's integrity and the chain linkage before applying anything;
  /// a tampered or mis-sequenced chain restores nothing.
  Status Restore(const std::vector<std::string>& archive_names,
                 chunk::ChunkStore* target);

  /// Validates a chain (integrity of every archive + linkage/ordering)
  /// without applying anything — for verifying staged backups before
  /// shipping them to a remote server.
  Status Verify(const std::vector<std::string>& archive_names);

 private:
  struct ChunkState {
    crypto::Digest hash;
    chunk::Location loc;
  };

  BackupStore(chunk::ChunkStore* chunks, platform::ArchivalStore* archive,
              const crypto::SecurityConfig& security, Buffer secret);

  // The suite that seals the archive of the snapshot at `snapshot_seq`.
  // Its IV stream is seeded by the source image's iv_seed and that seq,
  // which every CreateSnapshot checkpoint advances durably, so no two
  // archives of a store share IVs, within a session or across sessions.
  crypto::CipherSuite ArchiveSuite(uint64_t snapshot_seq) const;

  Result<BackupInfo> Create(const std::string& archive_name, bool full);

  // Registry-backed instruments (on the chunk store's shared registry).
  struct Instruments {
    common::Counter* fulls = nullptr;
    common::Counter* incrementals = nullptr;
    common::Counter* chunks_written = nullptr;
    common::Counter* bytes_written = nullptr;
    common::Counter* restores = nullptr;
    common::Counter* chunks_restored = nullptr;
    common::Histogram* create_latency_us = nullptr;
  };

  chunk::ChunkStore* chunks_;
  platform::ArchivalStore* archive_;
  Buffer secret_;  // Master secret (empty with security disabled).
  // MACs and opens archives; its own IV stream is never used.
  crypto::CipherSuite suite_;
  Instruments m_;

  bool has_lineage_ = false;
  uint64_t next_seq_ = 0;
  crypto::Digest last_mac_;
  std::map<chunk::ChunkId, ChunkState> last_table_;
};

}  // namespace tdb::backup

#endif  // TDB_BACKUP_BACKUP_STORE_H_
