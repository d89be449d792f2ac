#!/usr/bin/env bash
# Pre-merge gate: the tier-1 verify (configure + build + full ctest run,
# quick label first so sub-second suites fail fast), a build (no run) of the
# perfbench benchmark package, the fig6/fig8 paper
# benches gated bit-identical against their committed baselines, the real-socket
# testbed drill (3 daemons, kill -9, WAL replay), the transport bench
# gated against its committed baseline,
# an ASan/UBSan build of the test suite, a TSan build of the chaos/sim
# tests, a fixed-seed chaos smoke sweep, a degradation smoke (honest
# mining must hold >= 50% of baseline under a Sybil flood with the full
# defense stack on), an eclipse A/B smoke (the stock victim must stay
# eclipsed, the hardened one must heal) gated bit-identical against its
# committed bench baseline, a partition A/B smoke (the stock
# victim must stay behind an asymmetric routing cut, the hardened one must
# reconverge) gated against its committed bench baseline, and two
# store-recovery gates: the fsck demo
# round-trip against a real directory and the crash-at-every-syscall
# recovery sweep re-run under ASan. Run from anywhere; builds land in
# build/ (tier-1), build-perfbench/, build-asan/, and build-tsan/.
#
#   scripts/check.sh            # all stages
#   scripts/check.sh --no-asan  # tier-1 + chaos smoke only (skips ASan+TSan)
#   scripts/check.sh --no-tsan  # skip only the TSan stage
set -euo pipefail
cd "$(dirname "$0")/.."

run_asan=1
run_tsan=1
for arg in "$@"; do
  [ "$arg" = "--no-asan" ] && { run_asan=0; run_tsan=0; }
  [ "$arg" = "--no-tsan" ] && run_tsan=0
done

echo "==> tier-1: configure + build + ctest (fast tier first)"
cmake -B build -S .
cmake --build build -j
# Sub-second unit/property suites fail fast before the wall-clock tiers run.
ctest --test-dir build --output-on-failure -j "$(nproc)" -L quick
ctest --test-dir build --output-on-failure -j "$(nproc)" -LE quick

echo "==> perfbench: build only"
# perfbench/ is a CMake project of its own that compiles src/ against its
# own sources; nothing else builds it, so a header change that breaks it
# would otherwise first show up when the benchmark runs.
cmake -B build-perfbench -S perfbench
cmake --build build-perfbench -j --target perfbench

echo "==> testbed smoke: 3 real daemons, kill -9 drill, WAL replay, fsck"
(cd build/tools && ./banscore-lab testbed --nodes 3 --format json)

echo "==> chaos smoke: 20 fixed seeds of randomized fault injection"
./build/tools/banscore-lab chaos --seeds 20 --seed-base 1 --seconds 60

echo "==> degradation smoke: honest mining >= 50% of baseline under flood"
./build/tools/banscore-lab overload --defenses all --min-ratio 0.5 --format json

echo "==> eclipse smoke: stock victim stays eclipsed, hardened victim heals"
if ./build/tools/banscore-lab eclipse --defenses none --format json; then
  echo "FAIL: stock victim shed the eclipse without any defenses" >&2
  exit 1
fi
./build/tools/banscore-lab eclipse --defenses all --format json

echo "==> eclipse bench vs committed baseline: bit-identical"
# Every field is simulated (control fractions, heal times, defense counters),
# so even the timing-class fields must match.
./build/bench/bench_eclipse_resilience --json build/BENCH_eclipse.json > /dev/null
./build/tools/banscore-lab bench-diff \
  --old bench/baselines/BENCH_eclipse.json --new build/BENCH_eclipse.json \
  --tolerance 0.0 --timing-tolerance 0.0

echo "==> partition smoke: stock victim stays behind the cut, hardened reconverges"
if ./build/tools/banscore-lab partition --defenses none --format json; then
  echo "FAIL: stock victim reconverged across the routing cut without defenses" >&2
  exit 1
fi
./build/tools/banscore-lab partition --defenses all --format json

echo "==> partition bench vs committed baseline"
./build/bench/bench_partition --json build/BENCH_partition.json > /dev/null
./build/tools/banscore-lab bench-diff \
  --old bench/baselines/BENCH_partition.json --new build/BENCH_partition.json \
  --tolerance 0.0 --timing-tolerance 20.0

echo "==> paper figures vs committed baselines: fig6/fig8 bit-identical"
# Both reports hold only simulated quantities (fig6 hash rates, fig8 ban
# counts and sim-time means), so even the timing-class fields must match.
./build/bench/bench_fig6_mining_rate --json build/BENCH_fig6.json > /dev/null
./build/tools/banscore-lab bench-diff \
  --old bench/baselines/BENCH_fig6.json --new build/BENCH_fig6.json \
  --tolerance 0.0 --timing-tolerance 0.0
./build/bench/bench_fig8_defamation --json build/BENCH_fig8.json > /dev/null
./build/tools/banscore-lab bench-diff \
  --old bench/baselines/BENCH_fig8.json --new build/BENCH_fig8.json \
  --tolerance 0.0 --timing-tolerance 0.0

echo "==> fuzz smoke: 8 seeds x 1500 iters per harness + differential oracle"
# Deterministic structure-aware campaigns over the four wire-facing
# harnesses (codec, tracker, store, addrman) and the SHA-256 kernel
# differential (sha256), replaying the committed
# regression corpus first; the differential driver must match Table I
# exactly. Minimized repros for any failure land in build/fuzz-artifacts/.
./build/tools/banscore-lab fuzz --seeds 8 --iters 1500 \
  --corpus fuzz/corpus --artifacts build/fuzz-artifacts \
  --format json > build/fuzz-smoke.json

echo "==> perf trajectory: bench_hotpath vs committed baseline"
./build/bench/bench_hotpath --json build/BENCH_hotpath.json > /dev/null
# Deterministic counters must match the committed baseline exactly (same
# seed, same code => same events); timing fields only gate catastrophic
# (>20x) swings since CI machines differ.
./build/tools/banscore-lab bench-diff \
  --old bench/baselines/BENCH_hotpath.json --new build/BENCH_hotpath.json \
  --tolerance 0.0 --timing-tolerance 20.0

echo "==> transport bench vs committed baseline (sim vs real-socket flood)"
./build/bench/bench_transport --json build/BENCH_transport.json > /dev/null
./build/tools/banscore-lab bench-diff \
  --old bench/baselines/BENCH_transport.json --new build/BENCH_transport.json \
  --tolerance 0.0 --timing-tolerance 20.0

echo "==> store recovery smoke: fsck demo round-trip (torn tail -> repair -> verify)"
rm -rf build/fsck-smoke
if ./build/tools/banscore-lab fsck --dir build/fsck-smoke --demo torn --format json; then
  echo "FAIL: torn store verified healthy without repair" >&2
  exit 1
fi
./build/tools/banscore-lab fsck --dir build/fsck-smoke --repair yes --format json
./build/tools/banscore-lab fsck --dir build/fsck-smoke --format json

if [ "$run_asan" = 1 ]; then
  echo "==> sanitizers: ASan/UBSan build + ctest"
  cmake -B build-asan -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all -fno-omit-frame-pointer"
  cmake --build build-asan -j
  ASAN_OPTIONS=detect_leaks=0 UBSAN_OPTIONS=print_stacktrace=1 \
    ctest --test-dir build-asan --output-on-failure -j "$(nproc)"

  echo "==> store recovery sweep under ASan: crash at every syscall index"
  ASAN_OPTIONS=detect_leaks=0 UBSAN_OPTIONS=print_stacktrace=1 \
    ./build-asan/tests/store_tests --gtest_filter='StateStoreCrashSweep.*'

  echo "==> addrman property tests under ASan"
  ASAN_OPTIONS=detect_leaks=0 UBSAN_OPTIONS=print_stacktrace=1 \
    ./build-asan/tests/addrman_tests
fi

if [ "$run_tsan" = 1 ]; then
  # The simulator is single-threaded, but the bsobs metrics/span/
  # profiler planes are shared with scrape threads in obs_test and
  # span_test; TSan covers those and the chaos harness (which stresses the
  # event ring hardest).
  echo "==> sanitizers: TSan build + chaos/sim/obs ctest slice"
  cmake -B build-tsan -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="-fsanitize=thread -fno-omit-frame-pointer"
  cmake --build build-tsan -j
  TSAN_OPTIONS=halt_on_error=1 \
    ctest --test-dir build-tsan --output-on-failure -j "$(nproc)" \
    -R 'Chaos|Fault|Obs|Metrics|Span|Profiler|Transport'
fi

echo "==> all checks passed"
