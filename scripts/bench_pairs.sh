#!/usr/bin/env bash
# Parent-vs-change benchmark pairs: the procedure a performance PR reports
# from, in one command.
#
#   scripts/bench_pairs.sh <parent-ref> [--pairs N] [--seed S] [--record LABEL]
#                          [--check] [--parent-dir DIR] [--change-dir DIR]
#                          [workload…]
#
# Exports <parent-ref> and the change (the working tree's tracked and staged
# files; HEAD when the tree is clean) into two directories, builds each side
# into its own target directory inside its export, and runs
# `benchmark/run.sh --workload W --seed S --seconds 21 --trace 0` on both
# sides N times (default 10) per workload (default: all four), alternating
# which side runs first. Prints, per workload and end-to-end metric, one row
#
#   workload | metric | parent median [q1–q3] | change median [q1–q3] | Δ median | bound | change better in
#
# (the form CHANGES.md uses; bounds and directions from BENCHMARK.json), marks
# a row UNRESOLVED when the parent's own q1–q3 spread exceeds the bound, lists
# every run, and compares the `result_digest` of every run on both sides.
# Exits 1 when a digest differs between the sides or between runs of a side.
#
# --check also exits 1, after the table, when the change is behind on an
# end-to-end metric: worse in at least 80 % of the pairs, and worse in the
# median by more than max(3 %, the parent's q1–q3 width); it prints the
# workload and metric of every such row.
#
# --record LABEL appends the table as one object (one line) to the tracked
# BENCH_pairs.json at the repository root: label, parent and change commits,
# seed, pairs and, per workload, the `result_digest` and per end-to-end metric
# the parent / change [median, q1, q3], the Δ of the medians in percent and
# the pairs the change won. The change commit reads `worktree@<HEAD>` when the
# run measured uncommitted files. Reproduction rides beside speed: --record
# also runs one `--trace 1` fig_sweep per side and stores the three paper.*
# quantities (`power_ratio_nodvfs_over_rmsd`, `delay_ratio_rmsd_over_dmsd`,
# `rmsd_delay_peak_load`) as {parent, change} under "reproduction". Without a
# clean digest comparison and identical paper.* values nothing is written (and
# the exit status is 1).
#
# Light-load timings move a few percent with where the linker places the hot
# loops, which follows the checkout path: --parent-dir / --change-dir name the
# two exports (default: bench_pairs/{parent,change} under ${TMPDIR:-/tmp}), so
# a claim can be repeated from differently named directories. Reads only the
# result line (last line of standard output) and the digest line of each run.
set -euo pipefail

REPO="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
usage() { sed -n '2,44p' "${BASH_SOURCE[0]}" >&2; exit 2; }

PAIRS=10
SEED=2015
WORK="${TMPDIR:-/tmp}/bench_pairs"
PARENT_DIR="$WORK/parent"
CHANGE_DIR="$WORK/change"
PARENT_REF=""
RECORD=""
CHECK=""
WORKLOADS=()
while (( $# )); do
    case "$1" in
        --pairs) PAIRS="${2:?--pairs needs a value}"; shift 2 ;;
        --seed) SEED="${2:?--seed needs a value}"; shift 2 ;;
        --record) RECORD="${2:?--record needs a label}"; shift 2 ;;
        --check) CHECK=1; shift ;;
        --parent-dir) PARENT_DIR="${2:?--parent-dir needs a value}"; shift 2 ;;
        --change-dir) CHANGE_DIR="${2:?--change-dir needs a value}"; shift 2 ;;
        -h|--help) usage ;;
        -*) echo "unknown option: $1" >&2; usage ;;
        *) if [[ -z "$PARENT_REF" ]]; then PARENT_REF="$1"; else WORKLOADS+=("$1"); fi; shift ;;
    esac
done
[[ -n "$PARENT_REF" ]] || usage
if (( ${#WORKLOADS[@]} == 0 )); then
    mapfile -t WORKLOADS < <(sed -n 's/^ *{"name": "\([a-z_]*\)", "why".*/\1/p' "$REPO/BENCHMARK.json")
fi

# The change: tracked files as they stand in the working tree (plus anything
# staged); `git stash create` writes that tree as a dangling commit without
# touching the index, the stash list or the working tree.
CHANGE_REF="$(git -C "$REPO" stash create)"
CHANGE_REF="${CHANGE_REF:-HEAD}"

export_ref() { # <ref> <dir>
    rm -rf "$2"
    mkdir -p "$2"
    git -C "$REPO" archive "$1" | tar -x -C "$2"
}
echo "parent $(git -C "$REPO" rev-parse --short "$PARENT_REF") -> $PARENT_DIR" >&2
echo "change $(git -C "$REPO" rev-parse --short "$CHANGE_REF") -> $CHANGE_DIR" >&2
export_ref "$PARENT_REF" "$PARENT_DIR"
export_ref "$CHANGE_REF" "$CHANGE_DIR"

RUNS="$(mktemp -d)"
trap 'rm -rf "$RUNS"' EXIT
join_lines() { awk 'NR > 1 { printf ", " } { printf "%s", $0 }' "$1"; }

# One run: appends "<metric> <value>" lines to $RUNS/<workload>.<side>.<pair>
# and the digest to $RUNS/<workload>.<side>.digests. Each side builds into
# <its export>/target (run.sh's default), on its first run.
run_side() { # <side> <dir> <workload> <pair>
    local out
    out="$(cd "$2" && env -u CARGO_TARGET_DIR bash benchmark/run.sh \
        --workload "$3" --seed "$SEED" --seconds 21 --trace 0 2>/dev/null)"
    sed -n 's/^ *result_digest = //p' <<<"$out" >>"$RUNS/$3.$1.digests"
    tail -n 1 <<<"$out" | grep -o '"[a-z_]*": {"value": [^,]*' \
        | sed 's/"\([a-z_]*\)": {"value": /\1 /' >"$RUNS/$3.$1.$4"
    printf '  %-18s pair %2d %-6s pass_wall_s %s\n' "$3" "$4" "$1" \
        "$(awk '$1 == "pass_wall_s" { print $2 }' "$RUNS/$3.$1.$4")" >&2
}

for workload in "${WORKLOADS[@]}"; do
    for (( pair = 1; pair <= PAIRS; pair++ )); do
        if (( pair % 2 )); then
            run_side parent "$PARENT_DIR" "$workload" "$pair"
            run_side change "$CHANGE_DIR" "$workload" "$pair"
        else
            run_side change "$CHANGE_DIR" "$workload" "$pair"
            run_side parent "$PARENT_DIR" "$workload" "$pair"
        fi
    done
done

# "<name> <better> <bound>" per end-to-end metric.
METRICS="$(sed -n 's/^ *{"name": "\([a-z_]*\)", "unit": "[^"]*", "better": "\([a-z]*\)", "bound": \([0-9.]*\)}.*/\1 \2 \3/p' "$REPO/BENCHMARK.json")"

echo "seed $SEED, $PAIRS alternating pairs per workload, every run counted"
echo "workload | metric | parent median [q1–q3] | change median [q1–q3] | Δ median | bound | change better in"
status=0
for workload in "${WORKLOADS[@]}"; do
    while read -r metric better bound; do
        for side in parent change; do
            for (( pair = 1; pair <= PAIRS; pair++ )); do
                awk -v m="$metric" '$1 == m { print $2 }' "$RUNS/$workload.$side.$pair"
            done >"$RUNS/values.$side"
        done
        paste "$RUNS/values.parent" "$RUNS/values.change" | awk \
            -v w="$workload" -v m="$metric" -v better="$better" -v bound="$bound" \
            -v record="$RUNS/record.$workload" -v check="${CHECK:+$RUNS/check}" '
            # Quantile by linear interpolation between order statistics.
            function quantile(v, n, q,    pos, lo) {
                pos = 1 + (n - 1) * q; lo = int(pos)
                return lo >= n ? v[n] : v[lo] + (pos - lo) * (v[lo + 1] - v[lo])
            }
            function sorted(src, dst, n,    i, j, t) {
                for (i = 1; i <= n; i++) dst[i] = src[i]
                for (i = 2; i <= n; i++)
                    for (j = i; j > 1 && dst[j - 1] > dst[j]; j--) {
                        t = dst[j]; dst[j] = dst[j - 1]; dst[j - 1] = t
                    }
            }
            { n++; p[n] = $1; c[n] = $2
              if ((better == "lower" && $2 < $1) || (better == "higher" && $2 > $1)) won++
              if ((better == "lower" && $2 > $1) || (better == "higher" && $2 < $1)) behind++ }
            END {
                sorted(p, sp, n); sorted(c, sc, n)
                pm = quantile(sp, n, 0.5); cm = quantile(sc, n, 0.5)
                pq1 = quantile(sp, n, 0.25); pq3 = quantile(sp, n, 0.75)
                delta = pm != 0 ? sprintf("%+.1f %%", 100 * (cm - pm) / pm) : "n/a"
                note = (pm != 0 && (pq3 - pq1) / pm > bound) ? " — UNRESOLVED (parent q1–q3 wider than the bound)" : ""
                printf "%s | %s | %.6g [%.6g–%.6g] | %.6g [%.6g–%.6g] | %s | %g %% | %d/%d%s\n",
                    w, m, pm, pq1, pq3, cm, quantile(sc, n, 0.25), quantile(sc, n, 0.75),
                    delta, 100 * bound, won, n, note
                printf "    parent:"; for (i = 1; i <= n; i++) printf " %.6g", p[i]
                printf "\n    change:"; for (i = 1; i <= n; i++) printf " %.6g", c[i]
                printf "\n"
                printf "\"%s\": {\"parent\": [%.6g, %.6g, %.6g], \"change\": [%.6g, %.6g, %.6g], \"delta_pct\": %s, \"change_better_in\": %d}\n",
                    m, pm, pq1, pq3, cm, quantile(sc, n, 0.25), quantile(sc, n, 0.75),
                    pm != 0 ? sprintf("%.1f", 100 * (cm - pm) / pm) : "null", won >>record
                # --check: behind in >= 80 % of pairs and, relative to the
                # parent median, worse by more than max(3 %, parent q1–q3).
                scale = pm < 0 ? -pm : pm
                gap = scale ? (better == "lower" ? cm - pm : pm - cm) / scale : 0
                limit = scale && (pq3 - pq1) / scale > 0.03 ? (pq3 - pq1) / scale : 0.03
                if (check != "" && behind >= 0.8 * n && gap > limit)
                    printf "%s | %s | change behind in %d/%d pairs, median %.1f %% worse, limit %.1f %%\n",
                        w, m, behind, n, 100 * gap, 100 * limit >>check
            }'
    done <<<"$METRICS"
    digests="$(sort -u "$RUNS/$workload.parent.digests" "$RUNS/$workload.change.digests")"
    if [[ "$(wc -l <<<"$digests")" -eq 1 && -n "$digests" ]]; then
        echo "$workload | result_digest | $digests on both sides, all runs"
        printf '"%s": {"result_digest": "%s", "metrics": {%s}}\n' "$workload" "$digests" \
            "$(join_lines "$RUNS/record.$workload")" >>"$RUNS/record"
    else
        echo "$workload | result_digest | DIFFERS: parent $(sort -u "$RUNS/$workload.parent.digests" | tr '\n' ' ')vs change $(sort -u "$RUNS/$workload.change.digests" | tr '\n' ' ')"
        status=1
    fi
done

check_status=0
if [[ -n "$CHECK" ]]; then
    if [[ -s "$RUNS/check" ]]; then
        echo "check FAILED: the change is behind on"
        cat "$RUNS/check"
        check_status=1
    else
        echo "check passed: no end-to-end metric behind in >= 80 % of pairs by more than max(3 %, parent q1–q3)"
    fi
fi

# Reproduction beside speed: the paper.* quantities of one traced fig_sweep
# per side ("<metric> <value>" lines in $RUNS/paper.<side>), exact values.
paper_side() { # <side> <dir>
    (cd "$2" && env -u CARGO_TARGET_DIR bash benchmark/run.sh \
        --workload fig_sweep --seed "$SEED" --seconds 21 --trace 1 2>/dev/null) | tail -n 1 \
        | grep -o '"paper\.[a-z_]*": {"value": [^,]*' \
        | sed 's/"\(paper\.[a-z_]*\)": {"value": /\1 /' >"$RUNS/paper.$1" || true
}
if [[ -n "$RECORD" ]]; then
    paper_side parent "$PARENT_DIR"
    paper_side change "$CHANGE_DIR"
    if [[ ! -s "$RUNS/paper.parent" ]] || ! cmp -s "$RUNS/paper.parent" "$RUNS/paper.change"; then
        echo "fig_sweep | paper.* | DIFFERS: parent $(tr '\n' ' ' <"$RUNS/paper.parent")vs change $(tr '\n' ' ' <"$RUNS/paper.change")"
        status=1
    else
        while read -r metric value; do
            echo "fig_sweep | $metric | $value on both sides (traced run)"
        done <"$RUNS/paper.parent"
    fi
    paste -d ' ' "$RUNS/paper.parent" "$RUNS/paper.change" \
        | awk '{ printf "\"%s\": {\"parent\": %s, \"change\": %s}\n", $1, $2, $4 }' >"$RUNS/paper"
fi

# One object per recorded run, one per line inside a JSON array: the closing
# bracket moves down and the previous last row gains its comma.
if [[ -n "$RECORD" ]]; then
    if (( status )); then
        echo "--record $RECORD: digests or paper.* differ, nothing written" >&2
        exit 1
    fi
    HEAD_SHORT="$(git -C "$REPO" rev-parse --short HEAD)"
    [[ "$CHANGE_REF" == HEAD ]] && CHANGE_NAME="$HEAD_SHORT" || CHANGE_NAME="worktree@$HEAD_SHORT"
    FILE="$REPO/BENCH_pairs.json"
    if [[ -s "$FILE" ]]; then
        sed -i -e '$d' "$FILE"
        sed -i -e '$s/$/,/' "$FILE"
    else
        echo '[' >"$FILE"
    fi
    printf '{"label": "%s", "parent": "%s", "change": "%s", "seed": %s, "pairs": %s, "reproduction": {%s}, "workloads": {%s}}\n]\n' \
        "$RECORD" "$(git -C "$REPO" rev-parse --short "$PARENT_REF")" "$CHANGE_NAME" "$SEED" "$PAIRS" \
        "$(join_lines "$RUNS/paper")" "$(join_lines "$RUNS/record")" >>"$FILE"
    echo "recorded $RECORD in $FILE" >&2
fi
exit $(( status || check_status ))
