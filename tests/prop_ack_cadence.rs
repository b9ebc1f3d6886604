//! The coordinator acks occurrence-only `Msg::Event`s on the watermark
//! cadence: the cumulative ack of a site's next heartbeat (or of the
//! periodic ack round) covers them. A site heartbeats at once when it
//! stamps an event in a tick it has not announced yet, so only events in
//! an already-announced tick wait for a later heartbeat. Ack timing never
//! decides what is detected. Even with heartbeats slower than the
//! retransmission timeout, over lossy links, an engine detects exactly
//! what a fault-free engine with the default configuration detects: slow
//! acks may cost resent copies, never a lost or duplicated detection.

use decs::core::CompositeTimestamp;
use decs::distrib::{Engine, EngineConfig, Metrics};
use decs::simnet::{LinkConfig, ScenarioBuilder};
use decs::snoop::{Context, EventExpr as E};
use decs_chronos::{Granularity, Nanos};
use proptest::prelude::*;

const NAMES: [&str; 3] = ["A", "B", "C"];
/// Long enough past the last injection (3 s) for capped-backoff
/// retransmission and stabilization behind 300 ms heartbeats.
const HORIZON_SECS: u64 = 20;

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
        .global_granularity(Granularity::per_second(10).unwrap())
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

/// Heartbeats every 300 ms against the default 200 ms retransmission
/// timeout.
fn slow_heartbeats() -> EngineConfig {
    EngineConfig {
        heartbeat_interval: Nanos::from_millis(300),
        ..EngineConfig::default()
    }
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
        let (slow, m1, buffered) = run(sites, seed, slow_heartbeats(), 50_000, &trace);
        prop_assert_eq!(&clean, &slow);
        prop_assert_eq!(m0.events_received, trace.len() as u64);
        prop_assert_eq!(m1.events_received, trace.len() as u64);
        prop_assert_eq!(buffered, 0);
    }
}

/// Whether the event at `ms` is certainly the first message of its site
/// in its 100 ms tick, given heartbeats every `heartbeat_ms` from 0 and
/// clocks within 1 ms of true time: it is over 1 ms from a tick edge,
/// and no heartbeat falls between its tick's start and it.
fn on_fresh_tick(ms: u64, heartbeat_ms: u64) -> bool {
    let start = ms / 100 * 100;
    let last_beat = ms / heartbeat_ms * heartbeat_ms;
    ms - start > 1 && ms >= 100 && last_beat + 1 < start
}

#[test]
fn slow_heartbeats_on_a_lossless_link_lean_on_the_ack_round() {
    // One event every 70 ms, round-robin over three sites: a site's
    // events are 210 ms apart, each on a tick the site has not stamped
    // before. Without loss the periodic ack round (100 ms) acks events
    // long before the 200 ms timeout, so even 300 ms heartbeats cost no
    // copy.
    let trace: Vec<(u64, u32, usize)> = (0..40u64)
        .map(|i| (50 + i * 70, (i % 3) as u32, (i % 3) as usize))
        .collect();
    let (clean, _, _) = run(3, 7, EngineConfig::default(), 0, &trace);
    let (slow, m, _) = run(3, 7, slow_heartbeats(), 0, &trace);
    assert_eq!(clean, slow);
    assert_eq!((m.retransmits, m.duplicates_dropped), (0, 0));
    // With the round off too, an event on a tick no heartbeat announced
    // yet is acked by the heartbeat that announces it, right behind it:
    // its site's window is empty a round trip later. Only events whose
    // tick a periodic heartbeat had already announced wait for the next
    // heartbeat, and only they are resent.
    let no_round = EngineConfig {
        ack_interval: Nanos::ZERO,
        ..slow_heartbeats()
    };
    let mut e = engine(3, 7, no_round, 0, &trace);
    let mut det = Vec::new();
    let mut fresh = 0;
    for &(ms, site, _) in &trace {
        if on_fresh_tick(ms, 300) {
            det.extend(e.run_until(Nanos::from_millis(ms + 2)));
            assert_eq!(e.unacked(site), 0, "event at {ms} ms on site {site}");
            fresh += 1;
        }
    }
    det.extend(e.run_until(Nanos::from_secs(HORIZON_SECS)));
    let det: Vec<(String, CompositeTimestamp)> = det
        .into_iter()
        .map(|d| (d.name.to_string(), d.occ.time))
        .collect();
    assert_eq!(clean, det);
    assert_eq!(e.buffered(), 0);
    let m = e.metrics();
    assert!(fresh > trace.len() / 2, "only {fresh} fresh-tick events");
    assert!(
        m.retransmits <= (trace.len() - fresh) as u64,
        "{} resends for {} events on announced ticks",
        m.retransmits,
        trace.len() - fresh
    );
}

#[test]
fn slow_heartbeats_without_the_ack_round_resend_same_tick_followers() {
    // The same trace plus a follower 5 ms behind each event, on the same
    // site and tick. The follower is not the tick's first event, so no
    // heartbeat announces it: with the round off it stays unacked until
    // the site's next heartbeat, past the timeout. Sites resend copies
    // the coordinator drops, and detections stay the same.
    let trace: Vec<(u64, u32, usize)> = (0..40u64)
        .flat_map(|i| {
            let (ms, site, ev) = (50 + i * 70, (i % 3) as u32, (i % 3) as usize);
            [(ms, site, ev), (ms + 5, site, (ev + 1) % 3)]
        })
        .collect();
    let (clean, _, _) = run(3, 7, EngineConfig::default(), 0, &trace);
    let (slow, m, _) = run(3, 7, slow_heartbeats(), 0, &trace);
    assert_eq!(clean, slow);
    assert_eq!((m.retransmits, m.duplicates_dropped), (0, 0));
    let no_round = EngineConfig {
        ack_interval: Nanos::ZERO,
        ..slow_heartbeats()
    };
    let (wasteful, m, buffered) = run(3, 7, no_round, 0, &trace);
    assert_eq!(clean, wasteful);
    assert_eq!(buffered, 0);
    assert!(m.retransmits > 0, "acks arrived before the timeout");
    assert!(m.duplicates_dropped > 0);
}
