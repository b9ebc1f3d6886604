//! A site ships each tick's occurrences in one batch at the instant its
//! clock enters the next tick, and the coordinator acks every in-order
//! delivery and re-acks every duplicate — it runs no periodic ack round —
//! so a site's window holds only its latest flush for a round trip. Ack
//! timing never decides what is detected. Even with a `g_g` coarser than
//! the retransmission timeout, so flushes come slower than it, over lossy
//! links an engine detects exactly what a fault-free engine detects: a
//! lost ack is covered by the next one or by the re-ack of a resent copy,
//! and may cost resent copies, never a lost or duplicated detection.

use decs::core::CompositeTimestamp;
use decs::distrib::{Engine, EngineConfig, Metrics};
use decs::simnet::{LinkConfig, ScenarioBuilder};
use decs::snoop::{Context, EventExpr as E};
use decs_chronos::{Granularity, Nanos};
use proptest::prelude::*;

const NAMES: [&str; 3] = ["A", "B", "C"];
/// Long enough past the last injection (3 s) for capped-backoff
/// retransmission and stabilization behind 300 ms flushes.
const HORIZON_SECS: u64 = 20;
/// The global tick, above the default 200 ms retransmission timeout: a
/// site's flushes are 300 ms apart.
const GG_MS: u64 = 300;

/// Random workload: (ms offset, site, event index).
fn workload(sites: u32) -> impl Strategy<Value = Vec<(u64, u32, usize)>> {
    proptest::collection::vec((10u64..3000, 0..sites, 0usize..3), 0..60)
}

/// An engine with `config` and `trace` injected, every site's link
/// dropping `drop_ppm` parts per million in both directions.
fn engine(
    sites: u32,
    seed: u64,
    config: EngineConfig,
    drop_ppm: u32,
    trace: &[(u64, u32, usize)],
) -> Engine {
    let scenario = ScenarioBuilder::new(sites, seed)
        .global_granularity(Granularity::from_millis(GG_MS).unwrap())
        .max_offset_ns(1_000_000)
        .build()
        .unwrap();
    let mut e = Engine::new(
        &scenario,
        config,
        &NAMES,
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
    .unwrap();
    for site in 0..sites {
        e.set_link_pair(site, LinkConfig::lan().with_faults(drop_ppm, 0));
    }
    for &(ms, site, ev) in trace {
        e.inject(Nanos::from_millis(ms), site, NAMES[ev], vec![])
            .unwrap();
    }
    e
}

/// Run `trace` to the horizon (see [`engine`]).
fn run(
    sites: u32,
    seed: u64,
    config: EngineConfig,
    drop_ppm: u32,
    trace: &[(u64, u32, usize)],
) -> (Vec<(String, CompositeTimestamp)>, Metrics, usize) {
    let mut e = engine(sites, seed, config, drop_ppm, trace);
    let det = e
        .run_for(Nanos::from_secs(HORIZON_SECS))
        .into_iter()
        .map(|d| (d.name.to_string(), d.occ.time))
        .collect();
    (det, e.metrics(), e.buffered())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn slow_heartbeats_over_lossy_links_detect_as_fault_free(
        raw_trace in workload(5),
        sites in 1u32..6,
        seed in 0u64..1000,
    ) {
        let trace: Vec<(u64, u32, usize)> = raw_trace
            .into_iter()
            .map(|(ms, site, ev)| (ms, site % sites, ev))
            .collect();
        let (clean, m0, _) = run(sites, seed, EngineConfig::default(), 0, &trace);
        prop_assert_eq!(m0.events_received, trace.len() as u64);
        let (lossy, m1, buffered) = run(sites, seed, EngineConfig::default(), 50_000, &trace);
        prop_assert_eq!(&clean, &lossy);
        prop_assert_eq!(m1.events_received, trace.len() as u64);
        prop_assert_eq!(buffered, 0);
    }
}

#[test]
fn slow_heartbeats_on_a_lossless_link_empty_every_window_after_each_edge() {
    // One event every 70 ms, round-robin over three sites: a site's
    // events are 210 ms apart, on 300 ms ticks. Without loss every flush
    // is acked a round trip after it was sent, long before the 200 ms
    // timeout, so flushes 300 ms apart cost no copy.
    let trace: Vec<(u64, u32, usize)> = (0..40u64)
        .map(|i| (50 + i * 70, (i % 3) as u32, (i % 3) as usize))
        .collect();
    let (clean, m, _) = run(3, 7, EngineConfig::default(), 0, &trace);
    assert_eq!((m.retransmits, m.duplicates_dropped), (0, 0));
    assert_eq!(m.acks_sent, m.messages_processed, "one ack per delivery");
    // A few milliseconds after every tick edge (clocks within 1 ms of
    // true time, LAN round trips) each site's window is empty: nothing is
    // sent between edges.
    let mut e = engine(3, 7, EngineConfig::default(), 0, &trace);
    let mut det = Vec::new();
    for edge in (GG_MS..=3_300).step_by(GG_MS as usize) {
        det.extend(e.run_until(Nanos::from_millis(edge + 3)));
        for site in 0..3u32 {
            assert_eq!(e.unacked(site), 0, "site {site} after the {edge} ms edge");
        }
    }
    det.extend(e.run_until(Nanos::from_secs(HORIZON_SECS)));
    let det: Vec<(String, CompositeTimestamp)> = det
        .into_iter()
        .map(|d| (d.name.to_string(), d.occ.time))
        .collect();
    assert_eq!(clean, det);
    assert_eq!(e.buffered(), 0);
}

#[test]
fn slow_heartbeats_with_followers_resend_nothing() {
    // The same trace plus a follower 5 ms behind each event, on the same
    // site and tick. Both ride their site's next edge batch, which is
    // acked on delivery, so with flushes 300 ms apart no site resends a
    // copy and every ack answers exactly one delivery.
    let trace: Vec<(u64, u32, usize)> = (0..40u64)
        .flat_map(|i| {
            let (ms, site, ev) = (50 + i * 70, (i % 3) as u32, (i % 3) as usize);
            [(ms, site, ev), (ms + 5, site, (ev + 1) % 3)]
        })
        .collect();
    let (det, m, buffered) = run(3, 7, EngineConfig::default(), 0, &trace);
    assert_eq!(m.events_received, trace.len() as u64);
    assert!(!det.is_empty(), "the trace must detect something");
    assert_eq!(buffered, 0);
    assert_eq!((m.retransmits, m.duplicates_dropped), (0, 0));
    assert_eq!(m.acks_sent, m.messages_processed, "one ack per delivery");
}
