#!/usr/bin/env bash
# Single entry point for every local gate, in cheap-to-expensive order:
#
#   1. scripts/check.sh        build, ctest, benches, ASan+UBSan suite
#   2. perfbench self-test     the benchmark builds and its fronts hold
#   3. scripts/check_tsan.sh   ThreadSanitizer over the concurrency tests
#   4. fault injection         SDF_FAULT_INJECTION=ON + TSan, armed-site tests
#   5. fuzz harnesses          front-door parsers under ASan+UBSan, ~60s each
#   6. scripts/check_tidy.sh   clang-tidy profile (skips if not installed)
#   7. sdf lint                zero-diagnostic gate over examples/specs/
#   8. explore counters        one-thread stats against the golden file
set -euo pipefail
cd "$(dirname "$0")/.."

scripts/check.sh

echo "==================== perfbench self-test ===================="
# perfbench/ compiles the library sources itself and calls the engine API
# directly; building it and checking its requests against the committed
# reference fronts catches an API change that breaks the benchmark.
python3 perfbench/run.py --self-test

scripts/check_tsan.sh

echo "==================== fault injection (tsan) ===================="
# Dedicated tree: the injection points are compiled in only here, so the
# production build stays injection-free.  TSan proves the pool's unwind
# paths (throwing worker, bad_alloc, delayed task) are race-free.
FAULT_BUILD=build-faultsan
FAULT_TESTS=(fault_injection_test parallel_explore_test anytime_test bind_cache_test)
cmake -B "$FAULT_BUILD" -DSDF_FAULT_INJECTION=ON -DSDF_SANITIZE=thread
cmake --build "$FAULT_BUILD" --target "${FAULT_TESTS[@]}" -j "$(nproc)"
for t in "${FAULT_TESTS[@]}"; do
  echo "-------------------- $t (fault+tsan) --------------------"
  "$FAULT_BUILD/tests/$t"
done

echo "==================== fuzz harnesses (asan+ubsan) ===================="
# Continuous fuzzing of the untrusted front doors: the spec parser
# (differential single-shot vs chunked), the lint pipeline, and the
# checkpoint loader.  Reuses the instrumented tree check.sh built, so
# crashes, leaks, and UB all abort.  ~60s per harness (override with
# SDF_FUZZ_TIME); the standalone driver uses a fixed seed, so a CI failure
# reproduces locally.  On a crash the reproducer is copied into
# fuzz/corpus/<harness>/ — commit it, and every future run replays it.
FUZZ_BUILD=build-addresssan
cmake -B "$FUZZ_BUILD" -DSDF_SANITIZE=address -DSDF_FUZZ=ON
cmake --build "$FUZZ_BUILD" --target fuzz_spec_parse fuzz_lint fuzz_checkpoint \
  -j "$(nproc)"
FUZZ_TIME="${SDF_FUZZ_TIME:-60}"
rm -f crash-*.bin
for h in spec_parse lint checkpoint; do
  echo "-------------------- fuzz_$h (${FUZZ_TIME}s) --------------------"
  if ! UBSAN_OPTIONS=halt_on_error=1 \
      "$FUZZ_BUILD/fuzz/fuzz_$h" -max_total_time="$FUZZ_TIME" \
      "fuzz/corpus/$h"; then
    cp -v crash-*.bin "fuzz/corpus/$h/" 2>/dev/null || true
    echo "check_all: fuzz_$h failed; reproducers copied to fuzz/corpus/$h" >&2
    exit 1
  fi
done

scripts/check_tidy.sh

echo "==================== kernel perf smoke ===================="
# Count-based, not wall-clock: asserts every bitset kernel agrees with a
# per-bit reference on word-boundary sizes AND touches fewer words than the
# per-bit model (ceil(bits/64) < bits).  Deterministic, so it cannot flake
# on a loaded CI box the way a timing threshold would.
KERNEL_BENCH=build/bench/bench_kernels
if [ ! -x "$KERNEL_BENCH" ]; then
  echo "check_all: $KERNEL_BENCH missing after check.sh" >&2
  exit 1
fi
"$KERNEL_BENCH" --smoke

echo "==================== sdf lint examples/specs ===================="
SDF=build/tools/sdf
if [ ! -x "$SDF" ]; then
  echo "check_all: $SDF missing after check.sh" >&2
  exit 1
fi
for spec in examples/specs/*.json; do
  echo "lint $spec"
  "$SDF" lint "$spec"
done

echo "============ explore counters: one-thread stats vs golden ============"
# Every deterministic counter of a one-thread `sdf explore --json` on the
# example specs (timings and the band block excluded) must equal the
# committed scripts/explore_counters.json.  A change that moves one on
# purpose regenerates the file with the same script and says why.
python3 scripts/explore_counters.py "$SDF" examples/specs/*.json \
  > /tmp/sdf_counters.$$
diff -u scripts/explore_counters.json /tmp/sdf_counters.$$ || {
  echo "check_all: explore counters moved (see diff above)" >&2
  exit 1
}
rm -f /tmp/sdf_counters.$$

echo "============ binding cache: front equivalence on examples ============"
# The cache may only change work counters, never verdicts: the JSON front
# with and without --no-bind-cache must be byte-identical, at one thread and
# with the cache shared by four band workers.  Only the "front" key is
# compared — stats legitimately differ (wall time, cache counters).
extract_front() {
  python3 -c 'import json,sys; print(json.dumps(json.load(sys.stdin)["front"], indent=1))'
}
for spec in examples/specs/*.json; do
  for threads in 1 4; do
    echo "front diff (threads=$threads) $spec"
    "$SDF" explore --json --no-stats --threads "$threads" "$spec" \
      | extract_front > /tmp/sdf_front_cache_on.$$
    "$SDF" explore --json --no-stats --threads "$threads" --no-bind-cache "$spec" \
      | extract_front > /tmp/sdf_front_cache_off.$$
    diff -u /tmp/sdf_front_cache_on.$$ /tmp/sdf_front_cache_off.$$ || {
      echo "check_all: cache-on/off fronts differ for $spec (threads=$threads)" >&2
      exit 1
    }
  done
done
rm -f /tmp/sdf_front_cache_on.$$ /tmp/sdf_front_cache_off.$$

echo "======== hierarchical solve: front equivalence, hier vs --no-hier ========"
# The hierarchical path decomposes the binding query; it may change only
# the node counters, never a verdict.  Fronts with and without --no-hier
# must be byte-identical on every example spec (settop/decoder exercise the
# not-decomposable fallback, nested.json the real per-group path), both
# at one thread and with the binding cache shared by four band workers.
for spec in examples/specs/*.json; do
  for threads in 1 4; do
    echo "hier front diff (threads=$threads) $spec"
    "$SDF" explore --json --no-stats --threads "$threads" "$spec" \
      | extract_front > /tmp/sdf_front_hier_on.$$
    "$SDF" explore --json --no-stats --threads "$threads" --no-hier "$spec" \
      | extract_front > /tmp/sdf_front_hier_off.$$
    diff -u /tmp/sdf_front_hier_on.$$ /tmp/sdf_front_hier_off.$$ || {
      echo "check_all: hier/no-hier fronts differ for $spec (threads=$threads)" >&2
      exit 1
    }
  done
done
# The equivalence above would be vacuous if the hierarchical path silently
# never engaged: assert it actually decomposes nested.json (sub-solves > 0)
# and correctly stands down on the paper models (sub-solves == 0).
"$SDF" explore --json examples/specs/nested.json | python3 -c '
import json, sys
stats = json.load(sys.stdin)["stats"]
assert stats["hier_subsolves"] > 0, "hier path never engaged on nested.json"
assert stats["solver_nodes"] < stats["solver_calls"], (
    "per-group memoization should need fewer nodes than queries on nested.json")
'
"$SDF" explore --json examples/specs/settop.json | python3 -c '
import json, sys
stats = json.load(sys.stdin)["stats"]
assert stats["hier_subsolves"] == 0, "hier path engaged on a flat-only spec"
'
rm -f /tmp/sdf_front_hier_on.$$ /tmp/sdf_front_hier_off.$$

echo "============ static analyzer: sound bounds, identical fronts ============"
# Two contracts, asserted per example spec:
#   1. The solved front lies inside the analyzer's whole-spec cost interval
#      (every front point costs at least the root lower bound — the bound
#      is a theorem, so a violation is a bug, not noise).
#   2. The analyzer may only remove solver work, never change results: the
#      JSON front with --no-analysis and with --analysis-bound must be
#      byte-identical to the default run.
for spec in examples/specs/*.json; do
  echo "analyze gate $spec"
  "$SDF" analyze --json "$spec" > /tmp/sdf_analysis.$$
  "$SDF" explore --json --no-stats "$spec" \
    | extract_front > /tmp/sdf_front_default.$$
  "$SDF" explore --json --no-stats --no-analysis "$spec" \
    | extract_front > /tmp/sdf_front_noanalysis.$$
  "$SDF" explore --json --no-stats --analysis-bound "$spec" \
    | extract_front > /tmp/sdf_front_abound.$$
  diff -u /tmp/sdf_front_default.$$ /tmp/sdf_front_noanalysis.$$ || {
    echo "check_all: --no-analysis changed the front for $spec" >&2
    exit 1
  }
  diff -u /tmp/sdf_front_default.$$ /tmp/sdf_front_abound.$$ || {
    echo "check_all: --analysis-bound changed the front for $spec" >&2
    exit 1
  }
  python3 - /tmp/sdf_analysis.$$ /tmp/sdf_front_default.$$ <<'PY'
import json, sys
analysis = json.load(open(sys.argv[1]))
front = json.load(open(sys.argv[2]))
roots = [c for c in analysis["clusters"] if c["root"]]
assert len(roots) == 1, "expected exactly one root cluster"
lo = roots[0]["lo"]
for point in front:
    assert point["cost"] >= lo - 1e-9, (
        f"front point at cost {point['cost']} below analyzer bound {lo}")
if front:
    assert roots[0]["reachable"], "nonempty front but root declared dead"
PY
done
rm -f /tmp/sdf_analysis.$$ /tmp/sdf_front_default.$$ \
      /tmp/sdf_front_noanalysis.$$ /tmp/sdf_front_abound.$$

echo "ALL GATES PASSED"
