#!/usr/bin/env sh
# ci_checks.sh — the full correctness-tooling gate, as CI runs it.
#
#   tools/ci_checks.sh [--fast]
#
# Stages (each fails the script on first error):
#   1. dev-warnings build: configure + build everything with
#      -DHSCONAS_DEV_WARNINGS=ON (-Wall -Wextra -Wshadow -Wconversion,
#      -Werror) and run the full ctest suite.
#   2. bench_compare self-diff smoke: the checked-in BENCH_kernels.json
#      ledger diffed against itself must report zero regressions.
#   3. hsconas_lint over the tree against the checked-in baseline.
#   4. layering gate: the src/ include graph checked against
#      tools/lint/layers.txt (forbidden edges, cycles, unmapped files).
#   5. fuzz smoke: when the toolchain links -fsanitize=fuzzer (clang),
#      each libFuzzer harness runs coverage-guided for ~30s over its
#      corpus; otherwise the always-built replay drivers re-run the
#      checked-in corpora once (the live path on gcc-only hosts).
#   6. clang-tidy over src/ and tools/ (skipped when not installed).
#   7. portable build (-DHSCONAS_NATIVE_KERNELS=OFF) + `ctest -L quant`:
#      every other tree compiles the tensor kernels for the build
#      machine's ISA, so only this one runs the scalar fallbacks of the
#      int8 GEMM and of the quantize / requantize / depthwise kernels.
#   8. ASan+UBSan build + full ctest, then an explicit `ctest -L quant`
#      re-run: the int8 GEMM, PTQ calibration, and quantized-search
#      suites exercise every integer accumulation/requantize path under
#      the overflow checkers (skipped with --fast).
#   9. TSan build + full ctest, then explicit `ctest -L kernels`,
#      `ctest -L obs`, and `ctest -L serving` re-runs (GEMM/fused-conv/
#      depthwise determinism, tracer/profiler and pool work-floor, and
#      batch-serving plus thread-local block pool suites, whose blocks
#      are freed on other threads than the ones that took them) under
#      TSan (skipped with --fast).
#  10. bench_serving closed-loop smoke: a reduced load-generation run
#      through the batch server must finish error-free (skipped with
#      --fast).
#
# Build trees live under ci-build-* in the repo root and are reused
# across runs, so local re-runs are incremental. See
# docs/STATIC_ANALYSIS.md for running any stage by hand.
set -eu

root="$(cd "$(dirname "$0")/.." && pwd)"
jobs="$(nproc 2>/dev/null || echo 2)"
fast=0
[ "${1:-}" = "--fast" ] && fast=1

stage() { printf '\n==== ci_checks: %s ====\n' "$1"; }

stage "dev-warnings build (-Werror) + full test suite"
# HSCONAS_FUZZ=ON builds the coverage-guided fuzz binaries when the
# compiler can link -fsanitize=fuzzer; on gcc the option degrades to the
# (always-built) corpus replay drivers, so it is safe to request here.
cmake -S "$root" -B "$root/ci-build-warn" -DHSCONAS_DEV_WARNINGS=ON \
  -DHSCONAS_FUZZ=ON -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "$root/ci-build-warn" -j "$jobs"
(cd "$root/ci-build-warn" && ctest --output-on-failure -j "$jobs")

stage "bench_compare self-diff smoke"
# Diffing the ledger against itself exercises the whole parse/match/report
# path and must come out clean; a real old-vs-new diff is a release step.
"$root/ci-build-warn/tools/bench_compare" \
  "$root/BENCH_kernels.json" "$root/BENCH_kernels.json"

stage "hsconas_lint invariant check"
"$root/ci-build-warn/tools/hsconas_lint" --root "$root" \
  --baseline "$root/tools/lint/baseline.txt"

stage "include-graph layering gate (tools/lint/layers.txt)"
# Layer rules only — the invariant check above already covered the line
# and semantic rules; this stage fails on any forbidden edge, module
# cycle, or file missing from the layer spec (zero baseline by policy).
"$root/ci-build-warn/tools/hsconas_lint" --root "$root" --layers \
  --only=layer-forbidden-edge,layer-cycle,layer-unmapped-file

stage "parser fuzz smoke (30s/target when libFuzzer links)"
fuzz_budget="${HSCONAS_FUZZ_SMOKE_SECS:-30}"
for t in json checkpoint genome calibration; do
  if [ -x "$root/ci-build-warn/tools/fuzz/fuzz_$t" ]; then
    # Coverage-guided run seeded from the checked-in corpus; any crash or
    # sanitizer report exits nonzero and fails the gate.
    "$root/ci-build-warn/tools/fuzz/fuzz_$t" \
      -max_total_time="$fuzz_budget" -print_final_stats=1 \
      "$root/tests/fuzz/corpus/$t"
  else
    echo "ci_checks: libFuzzer unavailable; replaying corpus for $t"
    "$root/ci-build-warn/tools/fuzz/fuzz_${t}_replay" \
      "$root/tests/fuzz/corpus/$t"
  fi
done

stage "clang-tidy (if installed)"
"$root/tools/run_clang_tidy.sh" -j "$jobs" "$root/ci-build-warn"

stage "portable build (HSCONAS_NATIVE_KERNELS=OFF) + quantization suites"
# The quantized suites pin bit-exact integer references, so they hold on
# the baseline ISA too: the non-VNNI GEMM microkernel, libm nearbyintf in
# the quantizer and the unvectorized requantize rows must agree with them.
cmake -S "$root" -B "$root/ci-build-portable" -DHSCONAS_NATIVE_KERNELS=OFF \
  -DCMAKE_BUILD_TYPE=Release -DHSCONAS_BUILD_BENCHES=OFF \
  -DHSCONAS_BUILD_EXAMPLES=OFF >/dev/null
cmake --build "$root/ci-build-portable" -j "$jobs" --target test_quant
(cd "$root/ci-build-portable" && ctest --output-on-failure -L quant)

if [ "$fast" -eq 1 ]; then
  stage "done (--fast: sanitizer stages skipped)"
  exit 0
fi

stage "address,undefined sanitizer build + full test suite"
cmake -S "$root" -B "$root/ci-build-asan" \
  -DHSCONAS_SANITIZE=address,undefined -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DHSCONAS_BUILD_BENCHES=OFF -DHSCONAS_BUILD_EXAMPLES=OFF >/dev/null
cmake --build "$root/ci-build-asan" -j "$jobs"
(cd "$root/ci-build-asan" && ctest --output-on-failure -j "$jobs")

stage "quantization suites under ASan/UBSan (ctest -L quant)"
# The int8 GEMM microkernel, the PTQ observer/freeze path, and the
# quantized search/checkpoint suites all run integer accumulations and
# requantize epilogues; the dedicated -L quant pass re-runs them serially
# under the address/overflow checkers so a UB shift or accumulator
# overflow cannot hide behind concurrent test noise.
(cd "$root/ci-build-asan" && ctest --output-on-failure -L quant)

stage "thread sanitizer build + full test suite"
cmake -S "$root" -B "$root/ci-build-tsan" \
  -DHSCONAS_SANITIZE=thread -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DHSCONAS_BUILD_BENCHES=OFF -DHSCONAS_BUILD_EXAMPLES=OFF >/dev/null
cmake --build "$root/ci-build-tsan" -j "$jobs"
(cd "$root/ci-build-tsan" && ctest --output-on-failure -j "$jobs")

stage "kernel determinism suites under TSan (ctest -L kernels)"
# The full suite above already ran these once; the dedicated -L kernels
# pass runs them serially so the multi-worker GEMM/conv interleavings are
# not starved by concurrent test processes on small CI machines. The
# depthwise suite runs the same shapes below the pool's work floor
# (inline on the caller) and above it (fanned out), at 1 and 3 workers;
# the score-mode suite compares forward-only candidate scoring with a
# train-mode forward at the same two pool sizes.
(cd "$root/ci-build-tsan" && ctest --output-on-failure -L kernels)

stage "tracer/profiler suites under TSan (ctest -L obs)"
# Same reasoning: the trace-ring and per-op profiler tests hammer the
# cross-thread recording paths; a serial re-run under TSan gives the
# watcher thread interleavings room to fire. The pool work-floor suite
# drives parallel_for on both sides of the floor on a 4-worker pool.
(cd "$root/ci-build-tsan" && ctest --output-on-failure -L obs)

stage "batch-serving suites under TSan (ctest -L serving)"
# The serving lanes, the dynamic-batching queue, the thread-local block
# pool (tests/tensor/workspace_test.cpp: tensor blocks and Scratch leases
# freed on another thread park there), and the ThreadPool
# reconfiguration guard are all cross-thread by construction; the serial
# -L serving re-run gives TSan clean interleavings to watch.
(cd "$root/ci-build-tsan" && ctest --output-on-failure -L serving)

stage "serving load-generator smoke (bench_serving, reduced load)"
# Closed-loop end-to-end pass through the batch server: nonzero exit means
# a request errored or produced non-finite logits.
"$root/ci-build-warn/bench/bench_serving" --clients=4 --requests=10 \
  --warmup=4 --workers=1,2 --batch-max=1,4 \
  --out="$root/ci-build-warn/BENCH_serving_smoke.json"

stage "all checks passed"
