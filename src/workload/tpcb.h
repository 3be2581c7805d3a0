#ifndef TDB_WORKLOAD_TPCB_H_
#define TDB_WORKLOAD_TPCB_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>

#include "collection/collection.h"
#include "common/random.h"
#include "crypto/cipher_suite.h"
#include "workload/workload.h"

namespace tdb::workload {

/// TPC-B per the paper's §7.1: four tables of 100-byte records with 4-byte
/// unique ids. Each transaction adds one random delta to a random Account,
/// Teller and Branch row and inserts a History row holding the delta, so
/// Σaccount = Σteller = Σbranch = Σhistory after every commit.
struct TpcbSpec {
  uint32_t accounts = 10000;
  uint32_t tellers = 100;
  uint32_t branches = 10;
  uint32_t history = 25200;  // History rows loaded before the run.
  uint64_t seed = 42;
  /// Chance a transaction commits durably, drawn from a stream of its own
  /// so that it does not change the rows and deltas a seed picks.
  double p_durable = 1.0;
};

/// The CommitHook id of a row is `table << 32 | id`.
enum TpcbTable : int { kAccount, kTeller, kBranch, kHistory, kTpcbTables };

/// A row: id, balance (a history row's balance is its delta), 80 bytes of
/// padding.
struct TpcbRecord final : public object::Object {
  static constexpr object::ClassId kClassId = 200;

  TpcbRecord() = default;
  TpcbRecord(int32_t id, int64_t balance)
      : id(id), balance(balance), pad(80, 0x20) {}

  object::ClassId class_id() const override { return kClassId; }
  void Pickle(object::Pickler* p) const override {
    p->PutInt32(id);
    p->PutInt64(balance);
    p->PutBytes(pad);
  }
  Status UnpickleFrom(object::Unpickler* u) override {
    TDB_RETURN_IF_ERROR(u->GetInt32(&id));
    TDB_RETURN_IF_ERROR(u->GetInt64(&balance));
    return u->GetBytes(&pad);
  }
  size_t ApproxSize() const override { return sizeof(*this) + pad.size(); }

  int32_t id = 0;
  int64_t balance = 0;
  Buffer pad;
};

Status RegisterTpcbClasses(object::ObjectStore* os);
/// The oracle image of a row: id (4 bytes), balance (8 bytes).
Buffer TpcbImage(int32_t id, int64_t balance);

/// Runs TPC-B over the tables in `collections`; single-threaded and
/// deterministic per spec. A CommitHook sees every commit attempt (table
/// creations, load batches, transactions); without one the driver adds
/// no work to the store operations.
class TpcbDriver {
 public:
  /// `create` creates the tables (one nondurable commit each) and loads
  /// them in batches of 1000 rows, durable at the end of each table.
  /// `create=false` attaches, for Scan and ReadAccount only, to tables a
  /// crash may have left incomplete.
  static Result<std::unique_ptr<TpcbDriver>> Open(
      collection::CollectionStore* collections, const TpcbSpec& spec,
      bool create, CommitHook* hook = nullptr);

  /// Runs `count` transactions, continuing the driver's random stream.
  Status Run(uint64_t count, CommitHook* hook = nullptr);
  /// One account's balance, read in a transaction of its own.
  Result<int64_t> ReadAccount(int32_t id);
  /// Scans every table into `table << 32 | id` -> image.
  Status Scan(std::map<uint64_t, Buffer>* out);

 private:
  TpcbDriver(collection::CollectionStore* collections, const TpcbSpec& spec);

  collection::CollectionStore* collections_;
  const TpcbSpec spec_;
  Random rng_;
  Random durable_rng_;
  int32_t next_history_;
  std::shared_ptr<collection::GenericIndexer> indexer_;
};

/// The Figure 9-11 runs. The paper's sizes are Account 100,000 / Teller
/// 1,000 / Branch 100 / History 252,000 with 200,000 transactions; scale 1
/// is a tenth of them so every bench finishes in seconds.
struct TpcbConfig {
  int scale = 1;
  int txns = 10000;  // Response time is averaged over the later half.
  crypto::SecurityConfig security = crypto::SecurityConfig::Disabled();
  double max_utilization = 0.6;  // TDB only (the paper's default, §7.3).
  uint64_t seed = 42;

  TpcbSpec spec() const {
    const uint32_t s = static_cast<uint32_t>(scale);
    return TpcbSpec{.accounts = 10000 * s, .tellers = 100 * s,
                    .branches = 10 * s, .history = 25200 * s, .seed = seed};
  }
  /// The paper gives both systems 4 MB of cache at its sizes (scale 10);
  /// the cache scales with the tables to keep its cache pressure.
  uint64_t cache_bytes() const {
    return std::max<uint64_t>(4ull * 1024 * 1024 * scale / 10, 256 * 1024);
  }
  /// Applies the TPCB_SCALE / TPCB_TXNS environment overrides.
  void ApplyEnv();
};

struct TpcbResult {
  double avg_response_us = 0;  // Later-half average per transaction.
  double bytes_per_txn = 0;    // Store bytes written per txn, later half.
  // TDB only: the later half's log bytes per txn by record kind; the
  // relocated bytes are data records the cleaner moved.
  double data_per_txn = 0, relocated_per_txn = 0;
  double map_per_txn = 0, commit_per_txn = 0;
  uint64_t db_size_bytes = 0;  // Final database size.
  double utilization = 0;      // TDB only: final live/total.
  uint64_t txns = 0;
  double setup_seconds = 0;
};

/// TDB: the collection store over the full trusted stack, on an in-memory
/// store behind the simulated disk.
TpcbResult RunTdbTpcb(const TpcbConfig& config);
/// The Berkeley-DB-style baseline engine on the same simulated disk.
TpcbResult RunBaselineTpcb(const TpcbConfig& config);

}  // namespace tdb::workload

#endif  // TDB_WORKLOAD_TPCB_H_
