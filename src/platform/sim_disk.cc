#include "platform/sim_disk.h"

#include "common/coding.h"

namespace tdb::platform {

uint64_t SectorAtomicTornLength(uint64_t offset, uint64_t write_len,
                                uint64_t requested, uint32_t sector_bytes) {
  if (requested >= write_len) return write_len;
  if (sector_bytes == 0) return requested;
  // The persisted prefix ends at the highest absolute sector boundary not
  // past offset+requested; anything short of a full sector is lost.
  uint64_t boundary = (offset + requested) / sector_bytes * sector_bytes;
  return boundary <= offset ? 0 : boundary - offset;
}

Result<uint64_t> StoreBackedCounter::Read() const {
  if (!store_->Exists(file_)) return static_cast<uint64_t>(0);
  Buffer bytes;
  TDB_RETURN_IF_ERROR(store_->Read(file_, 0, 8, &bytes));
  return DecodeFixed64(bytes.data());
}

Result<uint64_t> StoreBackedCounter::Increment() {
  TDB_ASSIGN_OR_RETURN(uint64_t current, Read());
  if (!store_->Exists(file_)) {
    TDB_RETURN_IF_ERROR(store_->Create(file_, false));
  }
  uint64_t next = current + 1;
  uint8_t enc[8];  // Little-endian, as PutFixed64 writes it.
  for (int i = 0; i < 8; i++) enc[i] = static_cast<uint8_t>(next >> (8 * i));
  TDB_RETURN_IF_ERROR(store_->Write(file_, 0, Slice(enc, sizeof(enc))));
  TDB_RETURN_IF_ERROR(store_->Sync(file_));
  return next;
}

}  // namespace tdb::platform
