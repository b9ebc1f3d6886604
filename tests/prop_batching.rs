//! Determinism-equivalence property suite for the batch interval: every
//! site ships each tick in its tick-edge batch, and a positive
//! `batch_interval` only adds mid-tick flushes. Whatever the workload,
//! site count, seed and interval, the engine with mid-tick flushes
//! produces **exactly** the same named detections with the same
//! composite timestamps, in the same order, as the edge-only engine: the
//! interval is a pure transport choice. The engine's agreement with a
//! detector fed the whole trace in release-key order is
//! `tests/prop_release_rule.rs`'s.

use decs::core::CompositeTimestamp;
use decs::distrib::{Engine, EngineConfig, Metrics};
use decs::simnet::ScenarioBuilder;
use decs::snoop::{Context, EventExpr as E};
use decs_chronos::{Granularity, Nanos};
use proptest::prelude::*;

const NAMES: [&str; 3] = ["A", "B", "C"];

/// Random workload: (ms offset, site, event index).
fn workload(sites: u32) -> impl Strategy<Value = Vec<(u64, u32, usize)>> {
    proptest::collection::vec((10u64..3000, 0..sites, 0usize..3), 0..50)
}

fn build(sites: u32, seed: u64, batch_interval: Nanos) -> Engine {
    let scenario = ScenarioBuilder::new(sites, seed)
        .global_granularity(Granularity::per_second(10).unwrap())
        .max_offset_ns(1_000_000)
        .build()
        .unwrap();
    Engine::new(
        &scenario,
        EngineConfig {
            batch_interval,
            ..EngineConfig::default()
        },
        &NAMES,
        // Three definitions: two over disjoint/overlapping primitives and
        // one referencing another named composite, so the coordinator's
        // shard cascade is exercised end to end.
        &[
            ("X", E::seq(E::prim("A"), E::prim("B")), Context::Chronicle),
            (
                "Y",
                E::and(E::prim("B"), E::prim("C")),
                Context::Unrestricted,
            ),
            ("Z", E::seq(E::prim("X"), E::prim("C")), Context::Chronicle),
        ],
    )
    .unwrap()
}

fn run(
    sites: u32,
    seed: u64,
    batch_interval: Nanos,
    trace: &[(u64, u32, usize)],
) -> (Vec<(String, CompositeTimestamp)>, Metrics) {
    let mut e = build(sites, seed, batch_interval);
    for &(ms, site, ev) in trace {
        e.inject(Nanos::from_millis(ms), site, NAMES[ev], vec![])
            .unwrap();
    }
    let det = e
        .run_for(Nanos::from_secs(8))
        .into_iter()
        .map(|d| (d.name.to_string(), d.occ.time))
        .collect();
    (det, e.metrics())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The core equivalence: batch interval must not change what is
    /// detected, when (composite time), or in what order.
    #[test]
    fn mid_tick_flushes_are_equivalent_to_edge_only(
        raw_trace in workload(6),
        sites in 1u32..7,
        seed in 0u64..1000,
        batch_ms in 1u64..60,
    ) {
        let trace: Vec<(u64, u32, usize)> = raw_trace
            .into_iter()
            .map(|(ms, site, ev)| (ms, site % sites, ev))
            .collect();
        let (edge, m0) = run(sites, seed, Nanos::ZERO, &trace);
        let (mid, m1) = run(sites, seed, Nanos::from_millis(batch_ms), &trace);
        prop_assert_eq!(&edge, &mid);
        // Both saw the full workload, and the mid-tick flushes really
        // went out.
        prop_assert_eq!(m0.events_received, trace.len() as u64);
        prop_assert_eq!(m1.events_received, trace.len() as u64);
        prop_assert!(m1.batches_received > m0.batches_received);
        prop_assert_eq!(m1.shard_count, 3);
    }

    /// Runs are bit-for-bit reproducible at every batch interval.
    #[test]
    fn batched_runs_are_reproducible(
        raw_trace in workload(4),
        sites in 1u32..5,
        seed in 0u64..500,
        batch_ms in 0u64..60,
    ) {
        let trace: Vec<(u64, u32, usize)> = raw_trace
            .into_iter()
            .map(|(ms, site, ev)| (ms, site % sites, ev))
            .collect();
        let (a, _) = run(sites, seed, Nanos::from_millis(batch_ms), &trace);
        let (b, _) = run(sites, seed, Nanos::from_millis(batch_ms), &trace);
        prop_assert_eq!(a, b);
    }
}
