// Reproduces the paper's Figure 9 (TPC-B table sizes) and Figure 10
// (average TPC-B response time: Berkeley DB vs TDB vs TDB-S).
//
// Paper numbers (733 MHz P3, EIDE disk, WRITE_THROUGH):
//   BerkeleyDB 6.8 ms, TDB 3.8 ms (~56%), TDB-S 5.8 ms (~85%);
//   bytes written per transaction: BDB ~1100 vs TDB ~523.
// Absolute times differ on modern hardware with an in-memory store; the
// SHAPE to check is TDB < TDB-S < Baseline and TDB writing roughly half
// the bytes per transaction of the baseline. TDB rows also break their
// log bytes per transaction down by record kind: data (of which the
// cleaner's relocations), map and commit.

#include <cstdio>

#include "workload/tpcb.h"

int main() {
  using namespace tdb::workload;

  TpcbConfig config;
  config.ApplyEnv();
  const TpcbSpec spec = config.spec();

  std::printf("=== Figure 9: TPC-B collections and sizes (scale %d) ===\n",
              config.scale);
  std::printf("%-12s %10s   (paper, scale 10)\n", "Collection", "Size");
  std::printf("%-12s %10u   (100000)\n", "Account", spec.accounts);
  std::printf("%-12s %10u   (1000)\n", "Teller", spec.tellers);
  std::printf("%-12s %10u   (100)\n", "Branch", spec.branches);
  std::printf("%-12s %10u   (252000)\n", "History", spec.history);
  std::printf("\n");

  std::printf(
      "=== Figure 10: avg TPC-B response time (%d txns, later half "
      "measured) ===\n",
      config.txns);
  std::printf("%-12s %12s %14s %13s\n", "system", "avg us/txn", "bytes/txn",
              "db size");
  auto print_row = [](const char* label, const TpcbResult& r) {
    std::printf("%-12s %12.1f %14.0f %10.1f MB  (%llu txns, setup %.1fs)\n",
                label, r.avg_response_us, r.bytes_per_txn,
                r.db_size_bytes / (1024.0 * 1024.0),
                static_cast<unsigned long long>(r.txns), r.setup_seconds);
  };
  auto run_tdb = [&](const char* label,
                     tdb::crypto::SecurityConfig security) {
    TpcbConfig run = config;
    run.security = security;
    const TpcbResult r = RunTdbTpcb(run);
    print_row(label, r);
    std::printf("%-12s data %.0f (relocated %.0f)  map %.0f  commit %.0f "
                "B/txn\n", "", r.data_per_txn, r.relocated_per_txn,
                r.map_per_txn, r.commit_per_txn);
    return r;
  };

  const TpcbResult baseline = RunBaselineTpcb(config);
  print_row("BaselineDB", baseline);
  const TpcbResult tdb = run_tdb("TDB", tdb::crypto::SecurityConfig::Disabled());
  const TpcbResult tdbs =
      run_tdb("TDB-S", tdb::crypto::SecurityConfig::PaperTdbS());
  run_tdb("TDB-S/AES", tdb::crypto::SecurityConfig::Modern());

  std::printf("\n--- shape vs paper ---\n");
  std::printf("TDB / Baseline response ratio:   %.2f   (paper: 0.56)\n",
              tdb.avg_response_us / baseline.avg_response_us);
  std::printf("TDB-S / Baseline response ratio: %.2f   (paper: 0.85)\n",
              tdbs.avg_response_us / baseline.avg_response_us);
  std::printf("TDB / Baseline bytes per txn:    %.2f   (paper: 523/1100 = 0.48)\n",
              tdb.bytes_per_txn / baseline.bytes_per_txn);
  bool shape_ok = tdb.avg_response_us < tdbs.avg_response_us &&
                  tdb.bytes_per_txn < baseline.bytes_per_txn;
  std::printf("shape (TDB < TDB-S, TDB bytes < Baseline bytes): %s\n",
              shape_ok ? "HOLDS" : "VIOLATED");
  return shape_ok ? 0 : 1;
}
