#!/usr/bin/env bash
#===- tools/ci-soak.sh - Scheduled fault-injection & tuning soak tier -----===#
#
# Part of the lift-cpp project. MIT licensed.
#
# The scheduled (nightly / manually dispatched) soak job. Three stages,
# all bounded so the whole run stays well under an hour:
#
#   1. In-process seeded fault soak: runs the FaultSoak gtest with a much
#      wider seed sweep than the per-commit tier (LIFT_SOAK_SEEDS,
#      default 96). Every seeded run must either validate or fail as a
#      clean Expected<> with an E0513 diagnostic.
#   2. Out-of-process LIFT_FAULT_SEED sweep: drives the liftc CLI over
#      the example programs with probabilistic injection armed from the
#      environment (src/support/FaultInject.cpp). liftc's exit-code contract
#      is the oracle: 0 = ran, 1 = clean diagnostics; anything else
#      (internal error, signal) fails the soak.
#   3. Auto-tuner smoke: a bounded lift-tune search on two benchmarks
#      from a cold cache, then again warm — the warm run must answer
#      every workload from the cache (no "miss" in the report).
#   4. Native-backend fault sweep: the same LIFT_FAULT_SEED oracle as
#      stage 2, but with --backend=native so the probabilistic injection
#      also hits the toolchain sites (compile / dlopen / dlsym) and the
#      native launch path. A cold per-seed cache directory keeps the
#      compile site reachable on every seed. Skipped when no system C++
#      compiler is installed.
#   5. Native-objective tuner smoke: a bounded lift-tune search scored
#      by measured fast-mode wall-clock (--objective=native) instead of
#      cost units, under the same ExecLimits as everything else. The
#      run must produce a best lowering (the default derivation is
#      always in the space) and the native-check pass must hold the
#      exact-mode output bit-identical. Skipped without a toolchain.
#   6. Chaos stage: deterministic mid-execution cancellation. For each
#      mid-exec site (6 = barrier, 7 = group dispatch, 8 = step chunk)
#      a --count-faults run discovers how many injection opportunities
#      each example program has, then the first, middle, and last
#      occurrence are tripped with --inject-faults n,k. Barrier and
#      dispatch counts are thread-count-invariant so those trips must
#      surface as a clean exit 1 carrying E0515; step-chunk checkpoints
#      are per-worker, so a parallel run may legitimately finish before
#      the n-th tick (exit 0) — but a crash always fails the soak.
#   7. liftd under seeded service faults: a real daemon per seed with
#      probabilistic injection over the service sites while remote
#      clients hold the exit-code contract; the daemon must drain clean.
#   8. Pipeline graphs under seeded faults: the k-means convergence loop
#      through liftc --graph (docs/PIPELINES.md), every seed bounded by
#      the exported ExecLimits, the exit-code contract as the oracle,
#      alternating the reuse and naive allocators.
#
# Usage: tools/ci-soak.sh [build-dir]   (default build-soak)
#
#===----------------------------------------------------------------------===#
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build-soak}"
SOAK_SEEDS="${LIFT_SOAK_SEEDS:-96}"
SWEEP_SEEDS="${LIFT_SOAK_SWEEP:-32}"

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$BUILD_DIR" -j "$(nproc)"

# Every launch inherits a step budget and deadline (docs/RELIABILITY.md),
# so injected-fault pathologies surface as diagnostics, not hung jobs.
export LIFT_MAX_STEPS="${LIFT_MAX_STEPS:-50000000}"
export LIFT_TIMEOUT_MS="${LIFT_TIMEOUT_MS:-30000}"

echo "== Stage 1: in-process seeded fault soak ($SOAK_SEEDS seeds) =="
LIFT_SOAK_SEEDS="$SOAK_SEEDS" \
  "$BUILD_DIR/tests/lift_check_tests" --gtest_filter='FaultSoak.*'

echo "== Stage 2: LIFT_FAULT_SEED sweep over the liftc CLI ($SWEEP_SEEDS seeds) =="
for SEED in $(seq 1 "$SWEEP_SEEDS"); do
  for PROG in examples/il/dot.lift examples/il/square.lift; do
    STATUS=0
    LIFT_FAULT_SEED="$SEED" "$BUILD_DIR/tools/liftc" "$PROG" --run \
      --check-memory >/dev/null 2>&1 || STATUS=$?
    # 0 = ran to completion, 1 = rejected with diagnostics (the injected
    # fault surfaced cleanly). 2 is liftc's internal-error code and
    # >= 128 a signal: both mean a fault escaped the Expected<> paths.
    if [ "$STATUS" -ne 0 ] && [ "$STATUS" -ne 1 ]; then
      echo "soak: liftc $PROG crashed under LIFT_FAULT_SEED=$SEED" \
           "(exit $STATUS)" >&2
      exit 1
    fi
  done
done
echo "all $SWEEP_SEEDS seeds exited cleanly"

echo "== Stage 3: bounded auto-tuner smoke (cold, then warm cache) =="
TUNE_CACHE="$BUILD_DIR/soak-tune-cache"
rm -rf "$TUNE_CACHE"
"$BUILD_DIR/tools/lift-tune" nn convolution --max-evals 12 \
  --cache-dir "$TUNE_CACHE"
WARM_LOG="$BUILD_DIR/soak-tune-warm.log"
"$BUILD_DIR/tools/lift-tune" nn convolution --max-evals 12 \
  --cache-dir "$TUNE_CACHE" | tee "$WARM_LOG"
if grep -q "miss" "$WARM_LOG"; then
  echo "soak: warm lift-tune run re-evaluated instead of hitting the cache" >&2
  exit 1
fi

echo "== Stage 4: LIFT_FAULT_SEED sweep over the native backend ($SWEEP_SEEDS seeds) =="
if command -v c++ >/dev/null 2>&1 || command -v g++ >/dev/null 2>&1 || \
   command -v clang++ >/dev/null 2>&1 || [ -n "${LIFT_NATIVE_CXX:-}" ]; then
  NATIVE_CACHE="$BUILD_DIR/soak-native-cache"
  for SEED in $(seq 1 "$SWEEP_SEEDS"); do
    # Cold cache each seed so the injected compile fault stays reachable.
    rm -rf "$NATIVE_CACHE"
    for PROG in examples/il/dot.lift examples/il/square.lift; do
      STATUS=0
      LIFT_FAULT_SEED="$SEED" LIFT_NATIVE_CACHE_DIR="$NATIVE_CACHE" \
        "$BUILD_DIR/tools/liftc" "$PROG" --run --backend=native \
        >/dev/null 2>&1 || STATUS=$?
      if [ "$STATUS" -ne 0 ] && [ "$STATUS" -ne 1 ]; then
        echo "soak: liftc --backend=native $PROG crashed under" \
             "LIFT_FAULT_SEED=$SEED (exit $STATUS)" >&2
        exit 1
      fi
    done
  done
  rm -rf "$NATIVE_CACHE"
  echo "all $SWEEP_SEEDS native seeds exited cleanly"
else
  echo "no system C++ compiler; skipping the native sweep"
fi

echo "== Stage 5: bounded lift-tune search on the native wall-clock objective =="
if command -v c++ >/dev/null 2>&1 || command -v g++ >/dev/null 2>&1 || \
   command -v clang++ >/dev/null 2>&1 || [ -n "${LIFT_NATIVE_CXX:-}" ]; then
  # Candidate wall-clock scoring, still gated on simulator bit-identity
  # per candidate (docs/TUNING.md). Bounded evaluation budget, the
  # launch-wide ExecLimits exported above, a throwaway tune cache (time
  # scores are machine-specific and must not leak into committed runs),
  # and --native-check so the winner's exact-mode output is re-verified
  # bit-identical. lift-tune exits nonzero if any workload finds no
  # lowering at least as good as the default under the objective.
  NATIVE_TUNE_CACHE="$BUILD_DIR/soak-native-tune-cache"
  rm -rf "$NATIVE_TUNE_CACHE"
  LIFT_NATIVE_CACHE_DIR="$BUILD_DIR/soak-native-tune-artifacts" \
    "$BUILD_DIR/tools/lift-tune" nn convolution --objective=native \
    --native-repeats 3 --max-evals 12 --cache-dir "$NATIVE_TUNE_CACHE" \
    --native-check
  rm -rf "$NATIVE_TUNE_CACHE" "$BUILD_DIR/soak-native-tune-artifacts"
else
  echo "no system C++ compiler; skipping the native-objective tuner smoke"
fi

echo "== Stage 6: chaos stage — mid-execution cancellation at first/middle/last =="
for PROG in examples/il/dot.lift examples/il/square.lift; do
  for SITE in 6 7 8; do
    # Counting run: '// fault-count K N <site>' per site, nothing fails.
    TOTAL=$("$BUILD_DIR/tools/liftc" "$PROG" --run --count-faults \
              2>/dev/null |
            awk -v s="$SITE" '$2 == "fault-count" && $3 == s { print $4 }')
    TOTAL="${TOTAL:-0}"
    if [ "$TOTAL" -eq 0 ]; then
      echo "chaos: site $SITE never fires in $PROG; skipping"
      continue
    fi
    MID=$(( (TOTAL + 1) / 2 ))
    for NTH in 1 "$MID" "$TOTAL"; do
      STATUS=0
      ERR=$("$BUILD_DIR/tools/liftc" "$PROG" --run \
              --inject-faults "$NTH,$SITE" 2>&1 >/dev/null) || STATUS=$?
      if [ "$STATUS" -eq 1 ]; then
        # Cancelled cleanly: the diagnostic must be the mid-exec code.
        if ! printf '%s' "$ERR" | grep -q 'E0515'; then
          echo "chaos: $PROG site $SITE occurrence $NTH/$TOTAL failed" \
               "without an E0515 diagnostic" >&2
          printf '%s\n' "$ERR" >&2
          exit 1
        fi
      elif [ "$STATUS" -eq 0 ]; then
        # Only a per-worker step-chunk countdown may outrun the trip.
        if [ "$SITE" -ne 8 ]; then
          echo "chaos: $PROG site $SITE occurrence $NTH/$TOTAL did not" \
               "cancel the launch" >&2
          exit 1
        fi
      else
        echo "chaos: liftc $PROG crashed at site $SITE occurrence" \
             "$NTH/$TOTAL (exit $STATUS)" >&2
        exit 1
      fi
    done
    echo "chaos: $PROG site $SITE swept occurrences 1/$MID/$TOTAL of $TOTAL"
  done
done

echo "== Stage 7: liftd under seeded service faults, clients holding the exit-code contract =="
# A real liftd process per seed with probabilistic injection armed from
# the environment: the accept / request-read / request-write / queue-admit
# sites (and every runtime site the requests reach) fire at random while
# remote liftc clients run the example programs through the daemon. The
# oracle is the same as stage 2 plus the daemon's own lifecycle: clients
# may exit 0 (ran) or 1 (clean diagnostics after the bounded retry),
# never 2 or a signal; the daemon must survive every seed and drain to
# exit 0 on SIGTERM.
STORM_DIR=$(mktemp -d)
for SEED in $(seq 1 8); do
  SOCK="$STORM_DIR/liftd-$SEED.sock"
  DLOG="$STORM_DIR/liftd-$SEED.log"
  LIFT_FAULT_SEED="$SEED" "$BUILD_DIR/tools/liftd" --socket "$SOCK" \
    --max-inflight 2 --queue-depth 2 --drain-ms 5000 >"$DLOG" 2>&1 &
  DPID=$!
  for _ in $(seq 1 100); do
    grep -q "listening" "$DLOG" 2>/dev/null && break
    sleep 0.1
  done
  for PROG in examples/il/dot.lift examples/il/square.lift; do
    STATUS=0
    "$BUILD_DIR/tools/liftc" "$PROG" --run --remote="$SOCK" \
      --retry-attempts 12 --retry-base-us 2000 >/dev/null 2>&1 || STATUS=$?
    if [ "$STATUS" -ne 0 ] && [ "$STATUS" -ne 1 ]; then
      echo "soak: remote liftc $PROG broke the exit-code contract under" \
           "LIFT_FAULT_SEED=$SEED (exit $STATUS)" >&2
      kill -KILL "$DPID" 2>/dev/null || true
      exit 1
    fi
  done
  kill -TERM "$DPID"
  DSTATUS=0
  wait "$DPID" || DSTATUS=$?
  if [ "$DSTATUS" -ne 0 ]; then
    echo "soak: liftd did not drain cleanly under LIFT_FAULT_SEED=$SEED" \
         "(exit $DSTATUS)" >&2
    cat "$DLOG" >&2
    exit 1
  fi
done
rm -rf "$STORM_DIR"
echo "all 8 daemon seeds drained cleanly"

echo "== Stage 8: pipeline graphs under seeded fault injection ($SWEEP_SEEDS seeds) =="
# The k-means convergence loop (examples/graph/kmeans_loop.liftg,
# docs/PIPELINES.md) through liftc --graph with probabilistic injection
# armed from the environment: every runtime site a graph run reaches —
# including the graph-level sites 15 (stage dispatch) and 16 (buffer
# reuse) — fires at random across the ~34 stage launches of the loop.
# Bounded ExecLimits are inherited from the exports above, so an
# injected pathology surfaces as a diagnostic, never a hung soak. The
# oracle is liftc's exit-code contract: 0 = the graph ran (possibly with
# the E0812 not-converged warning), 1 = it unwound with clean E08xx
# diagnostics naming the failed stage; 2 or a signal means a fault
# escaped the Expected<> paths. Alternating reuse on/off keeps both
# allocator paths under fire.
for SEED in $(seq 1 "$SWEEP_SEEDS"); do
  REUSE_FLAG=""
  if [ $((SEED % 2)) -eq 0 ]; then
    REUSE_FLAG="--no-reuse-buffers"
  fi
  STATUS=0
  LIFT_FAULT_SEED="$SEED" "$BUILD_DIR/tools/liftc" \
    --graph=examples/graph/kmeans_loop.liftg $REUSE_FLAG \
    >/dev/null 2>&1 || STATUS=$?
  if [ "$STATUS" -ne 0 ] && [ "$STATUS" -ne 1 ]; then
    echo "soak: liftc --graph kmeans_loop crashed under" \
         "LIFT_FAULT_SEED=$SEED (exit $STATUS)" >&2
    exit 1
  fi
done
echo "all $SWEEP_SEEDS graph seeds exited cleanly"

echo "soak passed"
