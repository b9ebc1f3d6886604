//! The verdict delay, exactly: the first term of the delay model.
//!
//! A detection whose stamp has maximum global tick `G` is released once
//! every site's watermark exceeds `G`. A site raises its watermark to
//! `G + 1` in the batch it sends at the true instant its own clock enters
//! tick `G + 1`. On lossless links with one fixed latency `L`, that batch
//! reaches the coordinator `L` later, so
//!
//! ```text
//! detected_at = max over sites s of (edge_s(G + 1) + L)
//! ```
//!
//! where `edge_s(g)` is the first true instant at which site `s`'s clock
//! reads global tick `g`. The notification itself rides an earlier batch,
//! or the same one. The property holds with equality, not within a
//! tolerance, for SEQ, AND and OR definitions over five sites whose
//! clocks are offset by up to 3 ms. docs/OPERATIONS.md ("Why a detection
//! is this late") states the model for operators.

use decs::distrib::{Engine, EngineConfig};
use decs::simnet::{LinkConfig, ScenarioBuilder, SiteTimeSource};
use decs::snoop::{Context, EventExpr as E};
use decs_chronos::{Granularity, Nanos};
use proptest::prelude::*;

const SITES: u32 = 5;
const NAMES: [&str; 3] = ["A", "B", "C"];

fn definitions() -> Vec<(&'static str, E, Context)> {
    vec![
        ("S", E::seq(E::prim("A"), E::prim("B")), Context::Chronicle),
        ("N", E::and(E::prim("A"), E::prim("C")), Context::Continuous),
        ("O", E::or(E::prim("B"), E::prim("C")), Context::Chronicle),
    ]
}

/// The first true instant at which `clock` reads global tick `g` or
/// later (`g ≥ 1`), by binary search over its stamps. Before its epoch a
/// clock has no stamp, which reads as below every tick.
fn edge(clock: &SiteTimeSource, g: u64) -> Nanos {
    let reads = |t: u64| clock.stamp(Nanos(t)).is_ok_and(|p| p.global.get() >= g);
    // `lo` never reads `g`, `hi` always does.
    let (mut lo, mut hi) = (0u64, 1u64);
    assert!(!reads(lo), "every clock starts below tick {g}");
    while !reads(hi) {
        (lo, hi) = (hi, hi * 2);
    }
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if reads(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Nanos(hi)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every detection is produced at exactly the instant the model names.
    #[test]
    fn detection_delay_is_the_last_sites_next_edge_plus_latency(
        trace in proptest::collection::vec((10u64..3000, 0..SITES, 0usize..3), 8..60),
        seed in 0u64..1000,
        latency_us in 1u64..8_000,
    ) {
        let latency = Nanos::from_micros(latency_us);
        let sc = ScenarioBuilder::new(SITES, seed)
            .global_granularity(Granularity::per_second(10).unwrap())
            .max_offset_ns(3_000_000)
            .link(LinkConfig {
                base_latency_ns: latency.get(),
                jitter_ns: 0,
                fifo: true,
                drop_ppm: 0,
                dup_ppm: 0,
            })
            .build()
            .unwrap();
        let mut e = Engine::new(&sc, EngineConfig::default(), &NAMES, &definitions()).unwrap();
        for &(ms, site, ev) in &trace {
            e.inject(Nanos::from_millis(ms), site, NAMES[ev], vec![]).unwrap();
        }
        let detections = e.run_for(Nanos::from_secs(5));
        prop_assert!(!detections.is_empty(), "the trace must detect");
        prop_assert_eq!(e.metrics().retransmits, 0, "a lossless run resends nothing");
        let clocks: Vec<SiteTimeSource> = (0..SITES).map(|s| sc.time_source(s)).collect();
        for d in &detections {
            let g = d.occ.time.max_global();
            let model = clocks
                .iter()
                .map(|c| edge(c, g + 1).saturating_add(latency.get()))
                .max()
                .expect("sites");
            prop_assert_eq!(
                d.detected_at, model,
                "{} at tick {}: the last watermark past it should land at {}",
                d.name, g, model
            );
        }
    }
}
