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
//! clocks are offset by up to 3 ms.
//!
//! The second term is one lost batch. If site `s`'s batch sent at
//! `edge_s(G + 1)` is lost, its next batch (sent at `edge_s(G + 2)`) parks
//! at the coordinator, whose gap ack names the lost sequence number; the
//! site resends exactly that batch, and its arrival drains both. So site
//! `s`'s watermarks `G + 1` and `G + 2` both land at `edge_s(G + 2) + 3L`,
//! well under the retransmission timeout, and every other term is
//! unchanged. docs/OPERATIONS.md ("Why a detection is this late") states
//! the model for operators.

use decs::distrib::{Detection, Engine, EngineConfig};
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

/// An engine over `SITES` sites with one fixed link latency, every trace
/// event injected.
fn engine(seed: u64, latency: Nanos, trace: &[(u64, u32, usize)]) -> (Engine, Vec<SiteTimeSource>) {
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
    for &(ms, site, ev) in trace {
        e.inject(Nanos::from_millis(ms), site, NAMES[ev], vec![])
            .unwrap();
    }
    let clocks = (0..SITES).map(|s| sc.time_source(s)).collect();
    (e, clocks)
}

/// What a detection is, without when it happened.
fn what(
    ds: &[Detection],
) -> Vec<(
    &str,
    &decs::snoop::Occurrence<decs::core::CompositeTimestamp>,
)> {
    ds.iter().map(|d| (&*d.name, &d.occ)).collect()
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
        let (mut e, clocks) = engine(seed, latency, &trace);
        let detections = e.run_for(Nanos::from_secs(5));
        prop_assert!(!detections.is_empty(), "the trace must detect");
        prop_assert_eq!(e.metrics().retransmits, 0, "a lossless run resends nothing");
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

    /// One lost batch costs exactly two more link latencies after the
    /// site's next edge: the next batch parks, the gap ack goes back and
    /// the resend drains both. Detections are the lossless run's.
    #[test]
    fn one_lost_batch_is_repaired_one_batch_later(
        trace in proptest::collection::vec((10u64..3000, 0..SITES, 0usize..3), 8..60),
        seed in 0u64..1000,
        latency_us in 1u64..8_000,
        pick in 0usize..1000,
        lossy in 0..SITES,
    ) {
        let latency = Nanos::from_micros(latency_us);
        let (mut clean, _) = engine(seed, latency, &trace);
        let want = clean.run_for(Nanos::from_secs(5));
        prop_assert!(!want.is_empty(), "the trace must detect");
        // Lose `lossy`'s batch that raises its watermark past a detected
        // tick `g_lost`: a cut of one nanosecond at the instant it is sent.
        let g_lost = want[pick % want.len()].occ.time.max_global();
        let (mut e, clocks) = engine(seed, latency, &trace);
        let cut = edge(&clocks[lossy as usize], g_lost + 1);
        e.partition_site(lossy, cut, cut.saturating_add(1));
        let detections = e.run_for(Nanos::from_secs(5));
        prop_assert_eq!(what(&detections), what(&want));
        let m = e.metrics();
        prop_assert_eq!(e.fault_counters().partitioned, 1, "one batch lost");
        prop_assert_eq!((m.retransmits, m.gap_resends, m.reassembly_parks), (1, 1, 1));
        let l = latency.get();
        let repaired = edge(&clocks[lossy as usize], g_lost + 2).saturating_add(3 * l);
        let timeout = EngineConfig::default().retransmit_timeout.get();
        prop_assert!(repaired.get() - cut.get() < timeout.get(), "repaired before any timer");
        for d in &detections {
            let g = d.occ.time.max_global();
            let model = clocks
                .iter()
                .enumerate()
                .map(|(s, c)| {
                    if s == lossy as usize && (g == g_lost || g == g_lost + 1) {
                        repaired
                    } else {
                        edge(c, g + 1).saturating_add(l)
                    }
                })
                .max()
                .expect("sites");
            prop_assert_eq!(
                d.detected_at, model,
                "{} at tick {} (site {} lost its tick-{} edge batch)",
                d.name, g, lossy, g_lost + 1
            );
        }
    }
}
