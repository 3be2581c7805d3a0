#!/usr/bin/env bash
# Tier-1 verification in one command: configure a fresh out-of-tree build,
# build everything, and run the full test suite.
#
#   tools/check.sh               # build into ./build-check, run ctest,
#                                # compile perfbench's drm_bench
#   BUILD_DIR=out tools/check.sh
#   tools/check.sh --asan        # AddressSanitizer build, harness smoke suite
#   tools/check.sh --tsan        # ThreadSanitizer build, harness smoke suite
#   tools/check.sh --bench-smoke # build benches, run each briefly
#   tools/check.sh --metrics     # bench --metrics-json -> tdbstat --check
#   tools/check.sh --workloads   # workload suite: tests + bench smoke
#   tools/check.sh --shards      # shard router + 2PC: tests, sweeps, bench
#   tools/check.sh --harness     # every crash/tamper sweep + coverage table
#   tools/check.sh --trace       # causal tracing: tests, export smoke,
#                                # overhead bench, health gate, OFF build
#   tools/check.sh --perfbench   # repo benchmark self-test (perfbench/)
#
# The sanitizer modes configure a separate build directory with
# -DTDB_SANITIZE=<address|thread> and run a smoke subset (the differential
# harness, the lock/transaction stress tests, the chunk-store group-commit
# tests, the object store and its cache, and the platform fault model)
# rather than the full suite, so they stay fast enough to run on every
# change.
#
# --bench-smoke catches bench bit-rot: every google-benchmark binary runs
# with a tiny min_time and every scripted bench runs at a reduced scale
# (TPCB_SCALE/TPCB_TXNS env knobs), so each executes end to end in seconds
# without producing meaningful numbers.
#
# Exits non-zero if configuration, the build, or any test fails.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"

sanitize=""
suffix=""
mode="${1:-}"
case "$mode" in
  --asan) sanitize="address" ; suffix="-asan" ;;
  --tsan) sanitize="thread"  ; suffix="-tsan" ;;
  --bench-smoke) suffix="-bench" ;;
  --metrics) suffix="" ;;
  --workloads) suffix="-workloads" ;;
  --shards) suffix="-shards" ;;
  --harness) suffix="-harness" ;;
  --trace) suffix="-trace" ;;
  --perfbench) suffix="-perfbench" ;;
  "") ;;
  *) echo "usage: tools/check.sh [--asan|--tsan|--bench-smoke|--metrics|--workloads|--shards|--harness|--trace|--perfbench]" >&2
     exit 2 ;;
esac

build_dir="${BUILD_DIR:-$repo_root/build-check$suffix}"

if [[ -n "$sanitize" ]]; then
  cmake -B "$build_dir" -S "$repo_root" -DTDB_SANITIZE="$sanitize"
  # Smoke subset: the harness sweeps (crash + tamper + self-test), the
  # multi-threaded 2PL stress and group-commit coordinator (the TSan
  # targets), the shard router's concurrent commits and cross-shard
  # transfer stress (acks at prepare, in-memory decisions, decision GC,
  # pinned composite views), the object store and its cache
  # (pin/dirty/eviction bookkeeping, Ref copies released on other
  # threads), the lock manager, the torn-write fault model, the wait-free
  # metrics registry (8-thread instrument stress), the workload drivers
  # and their crash/tamper sweeps (YCSB, time series, large objects,
  # TPC-B), the allocation budgets (which skip themselves under a
  # sanitizer's allocator), the decoder and JSON-reader fuzz corpora
  # (truncations and bit flips of store records and emitted artifacts),
  # the log format tests (the golden v1 and v2 images and their upgrade
  # at open, v3 recovery and tamper cases), the seal-number uniqueness
  # tests (concurrent committers drawing seal numbers among them), the
  # codec kernels under them (CBC ciphertext stealing, CRC-32C on both
  # dispatch paths), the collection store (every index kind under
  # churn through the five-operation index contract, the uniqueness
  # check and iterator-close ejection, refused index calls, the indexer
  # registry following commit and abort), the backup store
  # (full/incremental chains, tampered and mis-sequenced archives,
  # per-archive IV streams across sessions), and the large-object and
  # integration tests, which insert objects of several classes through
  # the per-class id blocks (as do the object store's id-block tests:
  # concurrent inserters of three classes, crash sweeps on one store and
  # on a 4-shard router).
  smoke_targets=(harness_test txn_stress_test chunk_store_test
                 object_store_test shard_store_test lock_manager_test
                 sim_disk_test metrics_test trace_test workload_test
                 alloc_budget_test codec_fuzz_test log_format_test
                 seal_number_test crypto_test common_test
                 collection_store_test backup_store_test
                 large_object_test integration_test)
  cmake --build "$build_dir" -j "$(nproc)" --target "${smoke_targets[@]}"
  for t in "${smoke_targets[@]}"; do
    echo "== $t ($sanitize sanitizer) =="
    "$build_dir/tests/$t" --gtest_brief=1
  done
elif [[ "$mode" == "--bench-smoke" ]]; then
  # Benches are only meaningful optimized: use a dedicated Release build
  # dir (never a possibly-Debug cache). bench_metrics.h backs this up by
  # stamping bench.build_optimized into every metrics snapshot and warning
  # on stderr when a bench binary was built without optimization.
  cmake -B "$build_dir" -S "$repo_root" -DCMAKE_BUILD_TYPE=Release
  gbenches=(crypto_micro commit_throughput chunk_micro index_micro
            cache_micro read_path workloads)
  scripted=(tpcb_response utilization_sweep footprint_table backup_micro
            cleaner_ablation recovery_micro)
  cmake --build "$build_dir" -j "$(nproc)" \
      --target "${gbenches[@]}" "${scripted[@]}"
  for b in "${gbenches[@]}"; do
    echo "== $b (google-benchmark smoke) =="
    "$build_dir/bench/$b" --benchmark_min_time=0.001 > /dev/null
  done
  for b in "${scripted[@]}"; do
    echo "== $b (scripted smoke) =="
    TPCB_SCALE=1 TPCB_TXNS=200 "$build_dir/bench/$b" > /dev/null
  done
  echo "bench smoke OK: ${#gbenches[@]} gbenches + ${#scripted[@]} scripted"
elif [[ "$mode" == "--workloads" ]]; then
  # The workload diversity suite end to end: deterministic scenario runs
  # with oracle checks, the scenario-layer crash/tamper sweeps, the
  # zipfian hot-key stress, large-object edge cases, and a short run of
  # every workload benchmark.
  cmake -B "$build_dir" -S "$repo_root" -DCMAKE_BUILD_TYPE=Release
  targets=(workload_test large_object_test txn_stress_test workloads)
  cmake --build "$build_dir" -j "$(nproc)" --target "${targets[@]}"
  for t in workload_test large_object_test txn_stress_test; do
    echo "== $t =="
    "$build_dir/tests/$t" --gtest_brief=1
  done
  echo "== workloads (google-benchmark smoke) =="
  "$build_dir/bench/workloads" --benchmark_min_time=0.001 > /dev/null
  echo "workloads check OK"
elif [[ "$mode" == "--shards" ]]; then
  # The shard router end to end: router/2PC unit tests (pass-through
  # image equality, forged/replayed decision records and chain bases,
  # in-doubt resolution, acked commits whose decisions were never
  # flushed, decision-record GC bounds and its crash sweep, an image
  # written before GC, mid-prepare Write-failure injection at every
  # prepare index, lingering failed prepares, Phase-2 apply-failure
  # accounting, the object-level cross-shard transfer crash sweep, the
  # concurrent cross-shard transfer stress), the chunk-level
  # crash/tamper/mid-2PC harness sweeps PLUS the object-level
  # cross-shard sweeps (layer=objshard: ObjectStore transactions
  # spanning shards, caught by the *Shard* filter), a short run of the
  # scaling + 2PC-latency benchmarks, and the repo benchmark's self-test,
  # which runs sharded_commit at tiny size with its full correctness
  # gate. The same shard_store_test/harness_test binaries run under
  # --asan and --tsan, so every sweep above is also sanitizer-covered.
  cmake -B "$build_dir" -S "$repo_root" -DCMAKE_BUILD_TYPE=Release
  targets=(shard_store_test harness_test shard_throughput)
  cmake --build "$build_dir" -j "$(nproc)" --target "${targets[@]}"
  echo "== shard_store_test =="
  "$build_dir/tests/shard_store_test" --gtest_brief=1
  echo "== harness_test (shard + objshard sweeps) =="
  "$build_dir/tests/harness_test" --gtest_brief=1 \
      --gtest_filter='*Shard*'
  echo "== shard_throughput (google-benchmark smoke) =="
  "$build_dir/bench/shard_throughput" --benchmark_min_time=0.001 > /dev/null
  echo "== perfbench --selftest =="
  CARGO_TARGET_DIR="$build_dir" python3 "$repo_root/perfbench/run.py" \
      --selftest
  echo "shards check OK"
elif [[ "$mode" == "--harness" ]]; then
  # The differential crash/tamper harness end to end: runs every sweep
  # binary (all ctest shards of every campaign, at every layer) and folds
  # their HARNESS-COVERAGE lines into one row per campaign: write points,
  # tear buckets, cases, recovery-time crashes, tamper sites per region
  # class, detected, masked, audit events and flight-recorder bundles.
  cmake -B "$build_dir" -S "$repo_root" -DCMAKE_BUILD_TYPE=Release
  targets=(harness_test workload_test robustness_test)
  cmake --build "$build_dir" -j "$(nproc)" --target "${targets[@]}"
  coverage="$build_dir/harness-coverage.txt"
  : > "$coverage"
  for t in "${targets[@]}"; do
    echo "== $t =="
    rc=0
    "$build_dir/tests/$t" --gtest_brief=1 > "$build_dir/$t.log" || rc=$?
    grep -v '^HARNESS-COVERAGE ' "$build_dir/$t.log" || true
    grep '^HARNESS-COVERAGE ' "$build_dir/$t.log" >> "$coverage" || true
    [[ $rc -eq 0 ]] || exit "$rc"
  done
  awk -f "$repo_root/tools/harness_table.awk" "$coverage"
  echo "harness check OK: coverage lines in $coverage"
elif [[ "$mode" == "--trace" ]]; then
  # Causal tracing end to end: the trace/flight-recorder/health unit
  # tests (including the cross-shard single-tree acceptance test), the
  # Perfetto export smoke (bench --trace-json -> tdbstat --trace), the
  # overhead ablation emitting BENCH_trace_overhead.json, and the offline
  # health gate on a snapshot from a healthy group-commit run.
  cmake -B "$build_dir" -S "$repo_root" -DCMAKE_BUILD_TYPE=Release
  targets=(trace_test metrics_test trace_overhead tdbstat commit_throughput)
  cmake --build "$build_dir" -j "$(nproc)" --target "${targets[@]}"
  echo "== trace_test =="
  "$build_dir/tests/trace_test" --gtest_brief=1
  echo "== metrics_test =="
  "$build_dir/tests/metrics_test" --gtest_brief=1
  echo "== trace_overhead (smoke) =="
  TDB_TRACE_BENCH_COMMITS="${TDB_TRACE_BENCH_COMMITS:-300}" \
      "$build_dir/bench/trace_overhead" \
      --json "$build_dir/BENCH_trace_overhead.json" \
      --trace-json "$build_dir/trace-smoke.json"
  echo "== tdbstat --trace =="
  "$build_dir/tools/tdbstat" --trace "$build_dir/trace-smoke.json"
  echo "== tdbstat --health =="
  health_json="$build_dir/trace-health.json"
  "$build_dir/bench/commit_throughput" \
      --benchmark_filter='BM_DurableCommit/real_time/threads:8' \
      --benchmark_min_time=0.05 \
      --metrics-json="$health_json" > /dev/null
  "$build_dir/tools/tdbstat" --health "$health_json"
  echo "trace check OK: BENCH_trace_overhead.json + trace-smoke.json in $build_dir"
elif [[ "$mode" == "--perfbench" ]]; then
  # The repo benchmark's self-test: builds perfbench/ (its own CMake
  # package) under the check build dir, runs the program's internal
  # checks, then a tiny run of every workload, plain and traced, each of
  # which must pass its correctness gate and print every contracted
  # metric.
  CARGO_TARGET_DIR="$build_dir" python3 "$repo_root/perfbench/run.py" \
      --selftest
  echo "perfbench check OK: build in $build_dir/perfbench"
elif [[ "$mode" == "--metrics" ]]; then
  # Observability round-trip: a short instrumented bench run emits a
  # metrics snapshot, and tdbstat --check validates it is well-formed and
  # that the acceptance instruments exist and are nonzero (commit-path
  # sync latency, lock wait time, deadlock-avoidance aborts).
  cmake -B "$build_dir" -S "$repo_root"
  cmake --build "$build_dir" -j "$(nproc)" --target commit_throughput tdbstat
  metrics_json="$build_dir/metrics-check.json"
  echo "== commit_throughput --metrics-json =="
  "$build_dir/bench/commit_throughput" \
      --benchmark_filter='BM_DurableCommit/real_time/threads:8|BM_TpcbDurable/real_time/threads:4|BM_LockConflict' \
      --benchmark_min_time=0.05 \
      --metrics-json="$metrics_json" > /dev/null
  echo "== tdbstat --check =="
  "$build_dir/tools/tdbstat" --check "$metrics_json" \
      --require chunk.sync.latency_us \
      --require chunk.counter_bump.latency_us \
      --require txn.commit.latency_us \
      --require txn.lock_wait_us \
      --require txn.deadlock_aborts \
      --require chunk.commits \
      --require object.pickle_bytes
  "$build_dir/tools/tdbstat" --snapshot "$metrics_json" > /dev/null
  echo "metrics check OK: $metrics_json"
else
  cmake -B "$build_dir" -S "$repo_root"
  cmake --build "$build_dir" -j "$(nproc)"
  ctest --test-dir "$build_dir" --output-on-failure -j "$(nproc)"
  # perfbench/ is its own CMake package, so the build above never compiles
  # the repo benchmark: compile (not run) drm_bench too, so a src/ change
  # that breaks the benchmark fails here rather than at benchmark time.
  echo "== perfbench drm_bench (compile only) =="
  cmake -B "$build_dir/perfbench" -S "$repo_root/perfbench"
  cmake --build "$build_dir/perfbench" -j "$(nproc)" --target drm_bench
fi
