#!/usr/bin/env bash
# The full local CI gate: release build, the figure CLI's serial/parallel
# parity, the complete test suite (once — it covers every engine mode
# in-process), the benchmark package's tests, docs, and clippy with warnings
# promoted to errors. Run before every push.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

# The figure CLI end to end (saturation search, sweep grid, closed loop, power
# model, tables; ~2 s per run): Fig. 2 on the parallel grid and again with the
# sweep forced onto one worker must print the same bytes.
echo "==> figures --quality quick --fig 2: parallel vs NOC_SWEEP_THREADS=1"
fig_out="$(mktemp -d)"
trap 'rm -rf "$fig_out"' EXIT
figures=(cargo run --release --quiet --bin figures -- --quality quick --fig 2)
"${figures[@]}" >"$fig_out/parallel.txt"
NOC_SWEEP_THREADS=1 "${figures[@]}" >"$fig_out/serial.txt"
diff "$fig_out/parallel.txt" "$fig_out/serial.txt"

# The one target that writes snapshots to disk and resumes from them (journal
# resume, chaos kills, a warm start from a mid-run checkpoint; ~1 s). Examples
# are otherwise only compiled, by clippy below. The chaos kills it absorbs
# print panic messages, so its output is shown only if it fails.
echo "==> cargo run --release --quiet --example checkpoint_resume"
cargo run --release --quiet --example checkpoint_resume >"$fig_out/checkpoint_resume.txt" 2>&1 ||
    { cat "$fig_out/checkpoint_resume.txt"; exit 1; }

# The property suites (tests/{routing,traffic,simulator,policy}_properties.rs
# and tests/sparse_equivalence.rs) run as part of the workspace test pass
# below. Their inputs are sampled from per-case fixed seeds (see the proptest
# shim), so runs are reproducible; PROPTEST_CASES pins the case budget
# explicitly so local and CI runs cover the same corpus. Every engine mode —
# sparse with and without skipping, island workers — is selected in-process
# through the simulation's setters (tests/common/mod.rs), so one pass covers
# them all.
echo "==> cargo test -q (property suites at PROPTEST_CASES=${PROPTEST_CASES:-64}, fixed seeds)"
PROPTEST_CASES="${PROPTEST_CASES:-64}" cargo test -q

# The benchmark package drives the simulator through its public functions
# (run_cycles, run_cycles_with_workers, install_telemetry, counters, the
# EngineProfile fields); its own tests catch a break in that surface before
# the benchmark gate runs. In release, like the benchmark itself: the
# hundredth-scale smoke run has a 30 s wall-clock ceiling that a debug build
# of the simulator does not meet on a two-core host.
echo "==> cargo test -q --release --offline --manifest-path benchmark/Cargo.toml"
cargo test -q --release --offline --manifest-path benchmark/Cargo.toml

# The sampling profiler needs perf_event access, which CI cannot assume: it
# is only compiled here.
echo "==> python3 -m py_compile scripts/profile.py"
python3 -m py_compile scripts/profile.py

# Documentation is part of the contract: every public item is documented
# (#![warn(missing_docs)] + clippy -D warnings below), rustdoc links must
# resolve, and the runnable examples in the docs must stay green.
echo "==> RUSTDOCFLAGS=\"-D warnings\" cargo doc --no-deps"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --quiet

echo "==> cargo test -q --doc"
cargo test -q --doc

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "CI gate passed."
