#ifndef TDB_HARNESS_BLOB_H_
#define TDB_HARNESS_BLOB_H_

#include <cstdint>

#include "common/slice.h"
#include "object/object.h"
#include "object/object_store.h"

namespace tdb::harness {

/// The harness's persistent test object: an immutable logical key (the
/// trace slot that created it) plus a mutable payload.
class HarnessBlob final : public object::Object {
 public:
  static constexpr object::ClassId kClassId = 0x48424C42;  // "HBLB"

  HarnessBlob() = default;
  HarnessBlob(uint64_t key, Buffer bytes)
      : key_(key), bytes_(std::move(bytes)) {}

  object::ClassId class_id() const override { return kClassId; }
  void Pickle(object::Pickler* pickler) const override;
  Status UnpickleFrom(object::Unpickler* unpickler) override;
  size_t ApproxSize() const override { return 48 + bytes_.size(); }

  uint64_t key() const { return key_; }
  const Buffer& bytes() const { return bytes_; }
  void set_bytes(Buffer bytes) { bytes_ = std::move(bytes); }

 private:
  uint64_t key_ = 0;
  Buffer bytes_;
};

/// Registers HarnessBlob with the store's class registry (call once after
/// ObjectStore::Open).
Status RegisterHarnessClasses(object::ObjectStore* os);

/// The oracle value of a blob: key and payload folded into one buffer, so
/// a key corruption is as detectable as a payload corruption.
Buffer BlobImage(uint64_t key, const Buffer& bytes);

}  // namespace tdb::harness

#endif  // TDB_HARNESS_BLOB_H_
