#ifndef TDB_HARNESS_BLOB_H_
#define TDB_HARNESS_BLOB_H_

#include "object/object_store.h"
#include "workload/workload.h"

namespace tdb::harness {

/// The harness's persistent test object: an immutable logical key (the
/// trace slot that created it) plus a mutable payload. Its oracle value is
/// workload::KeyedImage(key, bytes).
using HarnessBlob = workload::KeyedRecord<0x48424C42>;  // "HBLB"

/// Registers HarnessBlob with the store's class registry (call once after
/// ObjectStore::Open).
Status RegisterHarnessClasses(object::ObjectStore* os);

}  // namespace tdb::harness

#endif  // TDB_HARNESS_BLOB_H_
