#!/usr/bin/env bash
# The repository's benchmark: builds the standalone `benchmark/` package in
# release mode and measures each workload in its own process.
#
#   benchmark/run.sh                      all four workloads, end-to-end metrics
#   benchmark/run.sh --traced             all four workloads, per-layer metrics
#                                         (spans land in benchmark/out/<workload>.spans.json)
#   benchmark/run.sh --agree              two full sets back to back must agree within
#                                         the bounds; a third set with --seed 7 must pass
#                                         every check
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#                                         one workload, one process; the last line of
#                                         standard output is the result object
#
# --seed N (default 2015) seeds every traffic source and sweep. A run is one
# warm-up pass and five timed passes of fixed work, so --seconds is accepted
# and ignored.
#
# Run from anywhere; reads and writes only inside the checkout (build output
# under CARGO_TARGET_DIR, results and temporary files under benchmark/out/).
set -euo pipefail

HERE="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
ROOT="$(dirname "$HERE")"

# Share the root workspace's target directory unless the caller chose one; a
# relative choice is relative to the caller's directory, like cargo reads it.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$ROOT/target}"
case "$CARGO_TARGET_DIR" in
    /*) ;;
    *) CARGO_TARGET_DIR="$PWD/$CARGO_TARGET_DIR" ;;
esac

# Sweeps never use more threads than cores; the reference box has two.
CORES="$(nproc 2>/dev/null || echo 1)"
export NOC_SWEEP_THREADS="$(( CORES < 2 ? CORES : 2 ))"
export NOC_BENCH_RUSTC="$(rustc -V 2>/dev/null || echo unknown)"
export NOC_BENCH_COMMIT="$(git -C "$ROOT" rev-parse --short HEAD 2>/dev/null || echo unknown)"

cargo build --release --offline --quiet --manifest-path "$HERE/Cargo.toml" >&2
BIN="$CARGO_TARGET_DIR/release/noc-benchmark"
# The binary writes under benchmark/out/ of the directory it runs in.
cd "$ROOT"

MODE=all
SEED=2015
ARGS=("$@")
i=0
while (( i < ${#ARGS[@]} )); do
    case "${ARGS[$i]}" in
        --workload)
            # One workload in this process: hand every argument to the binary.
            exec "$BIN" "$@" ;;
        --traced) MODE=traced; i=$(( i + 1 )) ;;
        --agree) MODE=agree; i=$(( i + 1 )) ;;
        --seed) SEED="${ARGS[$(( i + 1 ))]:?--seed needs a value}"; i=$(( i + 2 )) ;;
        *) echo "unknown argument: ${ARGS[$i]}" >&2; sed -n '2,19p' "${BASH_SOURCE[0]}" >&2; exit 2 ;;
    esac
done

# Runs one workload in its own process and saves its metrics as the set $1
# (benchmark/out/$1/<workload>.txt). Fails if an operation failed.
run_one() {
    local set="$1" workload="$2" seed="$3" trace="$4"
    "$BIN" --workload "$workload" --seed "$seed" --trace "$trace" --save "$set"
    grep -qx 'failed 0' "benchmark/out/$set/$workload.txt" || { echo "FAILED OPERATIONS in $workload" >&2; return 1; }
}

status=0
if [[ "$MODE" != agree ]]; then
    for workload in $("$BIN" --list); do
        if [[ "$MODE" == traced ]]; then
            run_one traced "$workload" "$SEED" 1 || status=1
        else
            run_one latest "$workload" "$SEED" 0 || status=1
        fi
    done
    exit "$status"
fi

# --agree: two full sets of the same tree. The two runs of a workload are made
# one right after the other, because the noise of a shared host drifts over
# minutes and would otherwise be read as a difference between the sets.
for workload in $("$BIN" --list); do
    run_one agree-a "$workload" "$SEED" 0 || status=1
    run_one agree-b "$workload" "$SEED" 0 || status=1
done
"$BIN" --compare agree-a agree-b || status=1
for workload in $("$BIN" --list); do
    run_one agree-seed7 "$workload" 7 0 || status=1
done
if (( status == 0 )); then
    echo "AGREE: two sets within every bound; seed 7 passed every check"
else
    echo "DISAGREE: see the lines above" >&2
fi
exit "$status"
