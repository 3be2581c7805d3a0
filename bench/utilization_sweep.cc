// Reproduces the paper's Figure 11: TDB response time and database size as
// a function of the maximum database utilization (0.5 .. 0.9), with the
// Berkeley-DB-style baseline as the flat reference lines.
//
// Paper shape: response time dips slightly up to ~0.7 utilization (denser
// database -> more effective cache) then climbs as cleaning overhead
// dominates, while remaining comparable to Berkeley DB even near 0.9; the
// database size decreases monotonically with utilization and stays far
// below the baseline's (whose log grows unchecked).

#include <cstdio>

#include "workload/tpcb.h"

int main() {
  using namespace tdb::workload;

  TpcbConfig config;
  config.ApplyEnv();
  config.security = tdb::crypto::SecurityConfig::Disabled();  // As in §7.3.

  std::printf("=== Figure 11: TDB vs utilization (TPC-B, %d txns) ===\n",
              config.txns);

  TpcbResult baseline = RunBaselineTpcb(config);

  std::printf("%-12s %12s %12s %12s\n", "utilization", "avg us/txn",
              "db size MB", "achieved");
  double prev_size = 0;
  bool size_monotonic = true;
  for (double util : {0.5, 0.6, 0.7, 0.8, 0.9}) {
    TpcbConfig run = config;
    run.max_utilization = util;
    TpcbResult result = RunTdbTpcb(run);
    std::printf("%-12.1f %12.1f %12.1f %12.2f\n", util,
                result.avg_response_us,
                result.db_size_bytes / (1024.0 * 1024.0),
                result.utilization);
    if (prev_size != 0 && result.db_size_bytes > prev_size * 1.15) {
      size_monotonic = false;
    }
    prev_size = static_cast<double>(result.db_size_bytes);
  }
  std::printf("%-12s %12.1f %12.1f %12s  <- reference\n", "baseline",
              baseline.avg_response_us,
              baseline.db_size_bytes / (1024.0 * 1024.0), "-");
  std::printf("\ndb size decreases with utilization (paper Fig 11 right): %s\n",
              size_monotonic ? "HOLDS" : "VIOLATED");
  return 0;
}
