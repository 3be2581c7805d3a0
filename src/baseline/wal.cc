#include "baseline/wal.h"

#include "common/coding.h"

namespace tdb::baseline {

void EncodeWalRecord(Buffer* dst, const WalRecord& record) {
  Buffer payload;
  payload.push_back(static_cast<uint8_t>(record.type));
  PutVarint32(&payload, record.tree_id);
  PutLengthPrefixed(&payload, record.key);
  PutLengthPrefixed(&payload, record.value);
  PutFixed32(dst, static_cast<uint32_t>(payload.size()));
  PutFixed32(dst, Checksum32(payload));
  dst->insert(dst->end(), payload.begin(), payload.end());
}

WalWriter::WalWriter(platform::UntrustedStore* store, std::string file)
    : store_(store), file_(std::move(file)) {}

Status WalWriter::Open(uint64_t tail) {
  if (!store_->Exists(file_)) {
    TDB_RETURN_IF_ERROR(store_->Create(file_, false));
  }
  tail_ = tail;
  // Drop any torn bytes past the recovered tail.
  TDB_RETURN_IF_ERROR(store_->Truncate(file_, tail_));
  return Status::OK();
}

void WalWriter::Add(const WalRecord& record) {
  EncodeWalRecord(&pending_, record);
}

Status WalWriter::Append(Slice framed) {
  TDB_RETURN_IF_ERROR(store_->Write(file_, tail_, framed));
  tail_ += framed.size();
  return Status::OK();
}

Status WalWriter::Commit(bool sync) {
  WalRecord commit;
  commit.type = WalRecordType::kCommit;
  EncodeWalRecord(&pending_, commit);
  TDB_RETURN_IF_ERROR(Append(pending_));
  pending_.clear();
  if (sync) TDB_RETURN_IF_ERROR(store_->Sync(file_));
  return Status::OK();
}

Status WalWriter::Barrier(bool sync) {
  Buffer framed;
  WalRecord barrier;
  barrier.type = WalRecordType::kBarrier;
  EncodeWalRecord(&framed, barrier);
  TDB_RETURN_IF_ERROR(Append(framed));
  if (sync) TDB_RETURN_IF_ERROR(store_->Sync(file_));
  return Status::OK();
}

Result<uint64_t> ScanWal(platform::UntrustedStore* store,
                         const std::string& file,
                         const std::function<Status(const WalRecord&)>& fn) {
  if (!store->Exists(file)) return static_cast<uint64_t>(0);
  TDB_ASSIGN_OR_RETURN(uint64_t size, store->Size(file));
  Buffer data;
  TDB_RETURN_IF_ERROR(store->Read(file, 0, static_cast<size_t>(size), &data));
  uint64_t pos = 0;
  uint64_t intact_end = 0;
  while (pos + 8 <= data.size()) {
    uint32_t len = DecodeFixed32(data.data() + pos);
    uint32_t cksum = DecodeFixed32(data.data() + pos + 4);
    if (pos + 8 + len > data.size()) break;  // Torn tail.
    Slice payload(data.data() + pos + 8, len);
    if (Checksum32(payload) != cksum) break;
    WalRecord record;
    Decoder dec(payload);
    Slice type_byte;
    if (!dec.GetBytes(1, &type_byte).ok()) break;
    if (type_byte[0] < 1 || type_byte[0] > 5) break;
    record.type = static_cast<WalRecordType>(type_byte[0]);
    Slice key, value;
    if (!dec.GetVarint32(&record.tree_id).ok() ||
        !dec.GetLengthPrefixed(&key).ok() ||
        !dec.GetLengthPrefixed(&value).ok()) {
      break;
    }
    record.key = key.ToBuffer();
    record.value = value.ToBuffer();
    TDB_RETURN_IF_ERROR(fn(record));
    pos += 8 + len;
    intact_end = pos;
  }
  return intact_end;
}

}  // namespace tdb::baseline
