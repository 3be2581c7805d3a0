#ifndef TDB_BASELINE_WAL_H_
#define TDB_BASELINE_WAL_H_

#include <functional>
#include <string>
#include <vector>

#include "common/result.h"
#include "platform/untrusted_store.h"

namespace tdb::baseline {

/// Logical write-ahead-log records of the baseline engine. Each committed
/// transaction appends its operations followed by a commit marker; a
/// barrier marker records that all pages were flushed (recovery replays
/// committed operations after the last barrier).
enum class WalRecordType : uint8_t {
  kPut = 1,
  kDelete = 2,
  kCreateTree = 3,
  kCommit = 4,
  kBarrier = 5,
};

struct WalRecord {
  WalRecordType type;
  uint32_t tree_id = 0;
  Buffer key;    // kPut/kDelete key; kCreateTree name.
  Buffer value;  // kPut only.
};

/// Appender over the log file. Records are buffered per transaction and
/// written (one I/O) at commit; Sync() makes them durable.
class WalWriter {
 public:
  WalWriter(platform::UntrustedStore* store, std::string file);

  /// Opens (creating if needed); `tail` is the recovered end offset.
  Status Open(uint64_t tail);

  void Add(const WalRecord& record);
  /// Writes buffered records followed by a commit marker.
  Status Commit(bool sync);
  /// Appends a barrier marker (after a page flush).
  Status Barrier(bool sync);

  uint64_t tail() const { return tail_; }

 private:
  Status Append(Slice framed);

  platform::UntrustedStore* store_;
  std::string file_;
  uint64_t tail_ = 0;
  Buffer pending_;
};

/// Encodes one record with length/checksum framing.
void EncodeWalRecord(Buffer* dst, const WalRecord& record);

/// Scans the log, invoking `fn` for each intact record; stops silently at
/// the first torn/corrupt record (the crash tail). Returns the end offset
/// of the last intact record.
Result<uint64_t> ScanWal(platform::UntrustedStore* store,
                         const std::string& file,
                         const std::function<Status(const WalRecord&)>& fn);

}  // namespace tdb::baseline

#endif  // TDB_BASELINE_WAL_H_
