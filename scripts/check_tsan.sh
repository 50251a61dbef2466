#!/usr/bin/env bash
# Data-race check for the parallel EXPLORE engine: builds the concurrency-
# relevant tests with ThreadSanitizer in a dedicated tree (sanitizers need
# whole-program instrumentation) and runs them.
#
#   scripts/check_tsan.sh            # -fsanitize=thread
#   SDF_SANITIZE=address scripts/check_tsan.sh   # AddressSanitizer instead
set -euo pipefail
cd "$(dirname "$0")/.."

SANITIZER="${SDF_SANITIZE:-thread}"
BUILD="build-${SANITIZER}san"
TESTS=(util_test dyn_bitset_test explore_test bind_test bind_cache_test
       parallel_explore_test anytime_test fault_injection_test)

cmake -B "$BUILD" -DSDF_SANITIZE="$SANITIZER"
cmake --build "$BUILD" --target "${TESTS[@]}" -j "$(nproc)"

# Every suite runs even after one fails, so a race in an early suite cannot
# hide one in a later suite; the script still exits non-zero if any failed.
FAILED=()
for t in "${TESTS[@]}"; do
  echo "==================== $t (${SANITIZER}san) ===================="
  "$BUILD/tests/$t" || FAILED+=("$t")
done
if ((${#FAILED[@]})); then
  echo "SANITIZER CHECKS FAILED (${SANITIZER}): ${FAILED[*]}" >&2
  exit 1
fi
echo "SANITIZER CHECKS PASSED (${SANITIZER})"
