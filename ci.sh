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

# The paper-reproduction bins (E1-E5, E7, E9, E10, E12) print their
# tables; a bin whose verdict fails exits nonzero. E7 checks that <_p
# orders at least as many pairs as the forall-forall and min candidates,
# E9 that every sequence detects in every cell, idle latency is within
# one LAN link latency (0.5 ms) of busy latency and busy latency stays
# below g_g, E10 that edge-only sites send exactly one message per site
# per tick edge plus a Start beacon, that the coordinator sends exactly
# one ack per message (acks_sent == messages_processed), and that every
# batch interval detects the same.
for bin in fig1_intervals fig2_regions ex_orderings ex_clocks ordering_validity \
    restrictiveness detection_latency scalability context_matrix; do
    cargo run --release --offline --quiet -p decs-bench --bin "$bin"
done

echo "ci.sh: all tier-1 checks passed"
