//! Randomized end-to-end properties of the distributed engine.

use decs::distrib::{Engine, EngineConfig};
use decs::simnet::{LinkConfig, ScenarioBuilder};
use decs::snoop::{Context, EventExpr as E};
use decs_chronos::{Granularity, Nanos};
use proptest::prelude::*;

/// Random workload: (ms offset, site, event index).
fn workload(sites: u32) -> impl Strategy<Value = Vec<(u64, u32, usize)>> {
    proptest::collection::vec((10u64..3000, 0..sites, 0usize..2), 0..40)
}

/// Random site→coordinator link: latency, jitter, FIFO or reordering.
fn link() -> impl Strategy<Value = LinkConfig> {
    (0u64..8_000_000, 0u64..5_000_000, 0u8..2).prop_map(|(base, jitter, fifo)| LinkConfig {
        base_latency_ns: base,
        jitter_ns: jitter,
        fifo: fifo == 1,
        ..LinkConfig::lan()
    })
}

fn build(sites: u32, seed: u64, expr: E, ctx: Context) -> Engine {
    build_batched(sites, seed, Nanos::ZERO, expr, ctx)
}

fn build_batched(sites: u32, seed: u64, batch_interval: Nanos, expr: E, ctx: Context) -> Engine {
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
        &["A", "B"],
        &[("X", expr, ctx)],
    )
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Every detection's composite timestamp satisfies the Definition 5.2
    /// invariant, whatever the workload.
    #[test]
    fn detection_timestamps_always_valid(
        trace in workload(3),
        seed in 0u64..500,
    ) {
        let names = ["A", "B"];
        for (expr, ctx) in [
            (E::seq(E::prim("A"), E::prim("B")), Context::Chronicle),
            (E::and(E::prim("A"), E::prim("B")), Context::Continuous),
            (
                E::aperiodic_star(E::prim("A"), E::prim("B"), E::prim("A")),
                Context::Unrestricted,
            ),
        ] {
            let mut e = build(3, seed, expr, ctx);
            for &(ms, site, ev) in &trace {
                e.inject(Nanos::from_millis(ms), site, names[ev], vec![]).unwrap();
            }
            for d in e.run_for(Nanos::from_secs(6)) {
                prop_assert!(d.occ.time.invariant_holds(), "{}", d.occ.time);
                prop_assert!(!d.occ.params.is_empty());
            }
        }
    }

    /// For SEQ detections, some A-constituent provably precedes some
    /// B-constituent — the witness requirement of Definition 5.3(2) made
    /// observable end-to-end.
    #[test]
    fn seq_detections_have_ordered_witnesses(
        trace in workload(3),
        seed in 0u64..500,
    ) {
        let names = ["A", "B"];
        let mut e = build(3, seed, E::seq(E::prim("A"), E::prim("B")), Context::Chronicle);
        // Track injection order per event type via a param value.
        for (k, &(ms, site, ev)) in trace.iter().enumerate() {
            e.inject(
                Nanos::from_millis(ms),
                site,
                names[ev],
                vec![(k as i64).into()],
            )
            .unwrap();
        }
        for d in e.run_for(Nanos::from_secs(6)) {
            // Two constituents: initiator (A) then terminator (B).
            prop_assert_eq!(d.occ.params.len(), 2);
        }
    }

    /// Detection is independent of the network: any two link models —
    /// arbitrary latency, jitter, even non-FIFO reordering — yield the
    /// same detections with the same composite timestamps, with
    /// edge-only flushes and with mid-tick ones alike. (Promoted from a
    /// two-point unit test in `decs-distrib` to a property over
    /// randomized links.)
    #[test]
    fn detection_is_independent_of_link_jitter(
        trace in workload(3),
        seed in 0u64..200,
        link_a in link(),
        link_b in link(),
        batch_ms in 0u64..40, // 0 = tick-edge flushes only
    ) {
        let names = ["A", "B"];
        let run = |l: LinkConfig| {
            let mut e = build_batched(
                3,
                seed,
                Nanos::from_millis(batch_ms),
                E::seq(E::prim("A"), E::prim("B")),
                Context::Chronicle,
            );
            for site in 0..3 {
                e.set_link(site, l);
            }
            for &(ms, site, ev) in &trace {
                e.inject(Nanos::from_millis(ms), site, names[ev], vec![]).unwrap();
            }
            e.run_for(Nanos::from_secs(8))
                .into_iter()
                .map(|d| (d.name, d.occ.time))
                .collect::<Vec<_>>()
        };
        prop_assert_eq!(run(link_a), run(link_b));
    }

    /// Re-running the identical configuration is bit-for-bit identical.
    #[test]
    fn engine_runs_are_reproducible(trace in workload(2), seed in 0u64..200) {
        let names = ["A", "B"];
        let run = || {
            let mut e = build(2, seed, E::seq(E::prim("A"), E::prim("B")), Context::Recent);
            for &(ms, site, ev) in &trace {
                e.inject(Nanos::from_millis(ms), site, names[ev], vec![]).unwrap();
            }
            e.run_for(Nanos::from_secs(5))
                .into_iter()
                .map(|d| (d.name, d.occ.time, d.detected_at))
                .collect::<Vec<_>>()
        };
        prop_assert_eq!(run(), run());
    }
}
