#ifndef TDB_PLATFORM_FAULT_INJECTION_H_
#define TDB_PLATFORM_FAULT_INJECTION_H_

#include <cstdint>

#include "common/random.h"
#include "platform/sim_disk.h"
#include "platform/untrusted_store.h"

namespace tdb::platform {

/// Wraps any UntrustedStore and simulates a system crash: after a
/// configured number of write operations, the "power fails" — the crashing
/// write may be applied only partially (a torn write), and every subsequent
/// operation fails with IOError. Crash-recovery property tests drive a
/// workload through this wrapper, crash at a random point, then reopen the
/// database from the underlying store and check the durable-commit
/// invariants.
class FaultInjectingStore final : public UntrustedStore {
 public:
  /// Does not take ownership of `base`, which must outlive this wrapper.
  explicit FaultInjectingStore(UntrustedStore* base, uint64_t rng_seed = 1)
      : base_(base), rng_(rng_seed) {}

  /// Arms the crash: it fires on the (count+1)-th Write() from now.
  /// A torn fraction of that final write is applied (possibly none, possibly
  /// all of it — chosen pseudo-randomly, rounded down to a sector boundary).
  void CrashAfterWrites(uint64_t count) {
    writes_until_crash_ = count;
    armed_ = true;
    crashed_ = false;
    deterministic_tear_ = false;
  }

  /// Deterministic schedule for exhaustive sweeps: the crash fires on the
  /// (index+1)-th Write() from now, and the torn prefix of that write is
  /// `tear_num/tear_den` of its length, rounded down so the persisted
  /// prefix ends on a sector boundary (see SectorAtomicTornLength).
  /// tear_num >= tear_den persists the whole write (the crash then hits
  /// after the write reached the platter but before the caller learned so).
  ///
  /// The tear fraction is applied to the WHOLE crashing write, so a
  /// group-commit store that appends one merged multi-commit record in a
  /// single Write() spreads the tear points across the entire group. The
  /// fraction only reaches a given internal sector boundary if tear_den is
  /// at least the number of sectors the write spans; sweeps over merged
  /// appends must therefore enumerate proportionally finer buckets (the
  /// harness uses n/8 for the strict preset vs n/4 elsewhere) or interior
  /// commit boundaries of the merged record are silently skipped. The
  /// sector-atomic model itself is unchanged.
  void CrashAtWrite(uint64_t index, uint32_t tear_num, uint32_t tear_den,
                    uint32_t sector_bytes = kDefaultSectorBytes) {
    writes_until_crash_ = index;
    armed_ = true;
    crashed_ = false;
    crash_on_sync_ = false;
    deterministic_tear_ = true;
    tear_num_ = tear_num;
    tear_den_ = tear_den == 0 ? 1 : tear_den;
    sector_bytes_ = sector_bytes;
  }

  /// Total Write() calls passed through to the base store (the crashing
  /// torn write is not counted). Dry-running a workload unarmed yields the
  /// write count N that an exhaustive sweep enumerates as 0..N-1.
  uint64_t writes_seen() const { return writes_seen_; }

  /// Arms the crash to fire on the next Sync() instead of a write.
  void CrashOnNextSync() {
    crash_on_sync_ = true;
    armed_ = true;
    crashed_ = false;
  }

  bool crashed() const { return crashed_; }

  /// Clears the crash state so the store is usable again (models reboot —
  /// recovery then reads whatever the base store holds).
  void Reboot() {
    armed_ = false;
    crashed_ = false;
    crash_on_sync_ = false;
  }

  // UntrustedStore:
  Status Create(const std::string& name, bool overwrite) override {
    TDB_RETURN_IF_ERROR(CheckAlive());
    return base_->Create(name, overwrite);
  }
  Status Remove(const std::string& name) override {
    TDB_RETURN_IF_ERROR(CheckAlive());
    return base_->Remove(name);
  }
  bool Exists(const std::string& name) const override {
    return base_->Exists(name);
  }
  Status Read(const std::string& name, uint64_t offset, size_t n,
              Buffer* out) const override {
    if (crashed_) return Status::IOError("simulated crash");
    return base_->Read(name, offset, n, out);
  }
  Status Write(const std::string& name, uint64_t offset, Slice data) override;
  Result<uint64_t> Size(const std::string& name) const override {
    if (crashed_) return Status::IOError("simulated crash");
    return base_->Size(name);
  }
  Status Truncate(const std::string& name, uint64_t size) override {
    TDB_RETURN_IF_ERROR(CheckAlive());
    return base_->Truncate(name, size);
  }
  Status Sync(const std::string& name) override;
  std::vector<std::string> List() const override { return base_->List(); }

 private:
  Status CheckAlive() const {
    return crashed_ ? Status::IOError("simulated crash") : Status::OK();
  }

  UntrustedStore* base_;
  Random rng_;
  bool armed_ = false;
  bool crashed_ = false;
  bool crash_on_sync_ = false;
  bool deterministic_tear_ = false;
  uint32_t tear_num_ = 0;
  uint32_t tear_den_ = 1;
  uint32_t sector_bytes_ = kDefaultSectorBytes;
  uint64_t writes_until_crash_ = 0;
  uint64_t writes_seen_ = 0;
};

}  // namespace tdb::platform

#endif  // TDB_PLATFORM_FAULT_INJECTION_H_
