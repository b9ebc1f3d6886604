#!/usr/bin/env bash
# Tier-1 gate: everything a change must pass before it lands.
# Run from the repository root.
set -euo pipefail

if [[ $# -gt 0 ]]; then
    echo "ci.sh: takes no arguments" >&2
    exit 2
fi

# The end-to-end benchmark's self-tests. perfbench is its own workspace
# that builds offline against the engine crates by path; its short mode
# drives all four workloads through their reference checks.
cargo test --release --offline --manifest-path perfbench/Cargo.toml

# The workspace has no external crates, so every step builds offline.
cargo build --release --offline
cargo test -q --offline --workspace
cargo clippy --offline --workspace --all-targets -- -D warnings
cargo fmt --check
# Docs build warning-free: no broken or private intra-doc links.
RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps

# Bench smoke: re-measures the hot-path kernels and validates the
# committed BENCH_hotpath.json baseline (fails on malformed JSON or a
# >2x regression of any fast kernel).
cargo run --release --offline -p decs-bench --bin hotpath -- --smoke

# Chaos smoke: re-runs the lossy-network matrix and the crash/restart
# schedules (hard-asserting that detections at every drop rate — and
# across every site crash/rejoin schedule — match the fault-free run,
# and that each schedule's sites actually restarted and rejoined) and
# validates the committed BENCH_chaos.json baseline.
cargo run --release --offline -p decs-bench --bin chaos -- --smoke

# Plan-sharing smoke: re-runs the overlap matrix (hard-asserting that the
# shared plan and independent compilation detect identically at every
# overlap point) and validates the committed BENCH_sharing.json baseline
# (fails on malformed JSON or a 50%-overlap speedup below 1.5x).
cargo run --release --offline -p decs-bench --bin sharing -- --smoke

# Ingest smoke: re-runs the columnar-vs-per-event legs (hard-asserting
# bit-identical detections on every leg) and validates the committed
# BENCH_ingest.json baseline (fails on malformed JSON, a single-thread
# columnar throughput under the 0.2 Meps floor, or — on the same machine
# class — a >20% relative regression against the baseline).
cargo run --release --offline -p decs-bench --bin ingest -- --smoke

# Recovery smoke: kills the coordinator mid-run at every snapshot
# interval (hard-asserting post-recovery detections match an
# uninterrupted, durability-off run) and validates the committed
# BENCH_recovery.json baseline.
cargo run --release --offline -p decs-bench --bin recovery -- --smoke

# Partition smoke: re-runs the replica-count matrix (hard-asserting that
# the N = 2 and N = 4 partitioned planes detect bit-identically to the
# single coordinator, and that cross-partition forwarding actually
# happened) and validates the committed BENCH_partition.json baseline.
cargo run --release --offline -p decs-bench --bin partition -- --smoke

# Timestamp-width smoke: re-measures the version-vector compare/join
# kernels at widths 2–128 and validates the committed
# BENCH_timewidth.json baseline (fails on malformed JSON, a >2x
# regression of a width-32 kernel, or a baseline width-32 speedup
# below 5x).
cargo run --release --offline -p decs-bench --bin timewidth -- --smoke

echo "ci.sh: all tier-1 checks passed"
