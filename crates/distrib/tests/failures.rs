//! Failure injection: crashed sites stall the stability rule (as they
//! must — a silent site could still hold earlier events) and eviction
//! restores progress.

use decs_chronos::{Granularity, Nanos};
use decs_distrib::{Engine, EngineConfig};
use decs_simnet::{LinkConfig, Scenario, ScenarioBuilder};
use decs_snoop::{Context, EventExpr as E};

fn scenario(sites: u32) -> Scenario {
    ScenarioBuilder::new(sites, 31)
        .global_granularity(Granularity::per_second(10).unwrap())
        .max_offset_ns(1_000_000)
        .build()
        .unwrap()
}

fn seq_engine(sites: u32) -> Engine {
    Engine::new(
        &scenario(sites),
        EngineConfig::default(),
        &["A", "B"],
        &[("X", E::seq(E::prim("A"), E::prim("B")), Context::Chronicle)],
    )
    .unwrap()
}

#[test]
fn crashed_site_stalls_stability() {
    let mut e = seq_engine(3);
    // Site 2 dies immediately; sites 0 and 1 exchange a clean sequence.
    e.crash_site(Nanos::from_millis(1), 2);
    e.inject(Nanos::from_secs(1), 0, "A", vec![]).unwrap();
    e.inject(Nanos::from_secs(2), 1, "B", vec![]).unwrap();
    let det = e.run_for(Nanos::from_secs(5));
    // The events arrived but can never stabilize: site 2's watermark is
    // stuck at (or near) zero.
    assert!(det.is_empty(), "stability must stall on a silent site");
    assert_eq!(e.metrics().events_received, 2);
    assert_eq!(e.buffered(), 2);
}

#[test]
fn eviction_restores_progress() {
    let mut e = seq_engine(3);
    e.crash_site(Nanos::from_millis(1), 2);
    e.inject(Nanos::from_secs(1), 0, "A", vec![]).unwrap();
    e.inject(Nanos::from_secs(2), 1, "B", vec![]).unwrap();
    e.run_for(Nanos::from_secs(4));
    // Operator notices the stall and evicts the dead site.
    e.evict_site(Nanos::from_secs(4), 2);
    let det = e.run_for(Nanos::from_secs(6));
    assert_eq!(det.len(), 1, "eviction must unblock the buffer");
    assert_eq!(e.buffered(), 0);
}

#[test]
fn crash_after_an_edge_flush_preserves_the_flushed_tick() {
    let mut e = seq_engine(2);
    // Site 1 stamps B in tick 20, ships it in its 2.1 s edge batch, then
    // dies; site 0 stays alive.
    e.inject(Nanos::from_secs(1), 0, "A", vec![]).unwrap();
    e.inject(Nanos::from_millis(2_050), 1, "B", vec![]).unwrap();
    e.crash_site(Nanos::from_millis(2_150), 1);
    // The batch's watermark (21) already passed B's tick, so B releases
    // without an eviction; only later ticks wait on the dead site.
    let det = e.run_for(Nanos::from_secs(5));
    assert_eq!(det.len(), 1, "the flushed tick must detect");
    assert_eq!(e.buffered(), 0);
}

fn batched_seq_engine(sites: u32, batch_ms: u64) -> Engine {
    Engine::new(
        &scenario(sites),
        EngineConfig {
            batch_interval: Nanos::from_millis(batch_ms),
            ..EngineConfig::default()
        },
        &["A", "B"],
        &[("X", E::seq(E::prim("A"), E::prim("B")), Context::Chronicle)],
    )
    .unwrap()
}

#[test]
fn crash_before_the_edge_flush_loses_the_unflushed_tick_without_wedging() {
    // Sites flush at their tick edges: 0.0, 0.1, 0.2 … s. Site 1's B is
    // injected at 2.055 s (staged for the 2.1 s flush) and the site
    // crashes at 2.07 s — before that flush — so B dies in the site's
    // pending batch and never reaches the coordinator: a non-durable
    // site loses its unflushed tick. Had it been flushed, A (g=10) → B
    // (g=20) would have detected X.
    let mut e = seq_engine(2);
    e.inject(Nanos::from_secs(1), 0, "A", vec![]).unwrap();
    e.inject(Nanos::from_millis(2_055), 1, "B", vec![]).unwrap();
    e.crash_site(Nanos::from_millis(2_070), 1);
    // A second A after the crash: its tick (25) can never stabilize
    // against the dead site's stuck watermark (≈ 20), so it wedges the
    // stability buffer until the operator evicts.
    e.inject(Nanos::from_millis(2_500), 0, "A", vec![]).unwrap();
    e.run_for(Nanos::from_secs(5));
    // Both As arrived, B did not; the late A is stalled.
    assert_eq!(e.metrics().events_received, 2);
    assert_eq!(e.buffered(), 1);
    // Eviction must drain the buffer cleanly — no detection (B was lost),
    // but no wedged notification either.
    e.evict_site(Nanos::from_secs(6), 1);
    let det = e.run_for(Nanos::from_secs(3));
    assert!(det.is_empty(), "a lost constituent must not detect");
    assert_eq!(e.buffered(), 0, "eviction must not wedge the buffer");
}

#[test]
fn evict_with_flushed_batches_buffered_preserves_them() {
    // 30 ms batch interval: flushes land at …, 2.04, 2.07, 2.10 s. Site
    // 1's B is injected at 2.05 s and flushed in the 2.07 s batch, whose
    // watermark is still B's own tick; the site crashes *after* that
    // flush, at 2.08 s. Everything already flushed is buffered at the
    // coordinator awaiting the dead site's watermark; evicting while those
    // batch-delivered notifications sit in the stability buffer must
    // release them and detect X.
    let mut e = batched_seq_engine(2, 30);
    e.inject(Nanos::from_secs(1), 0, "A", vec![]).unwrap();
    e.inject(Nanos::from_millis(2_050), 1, "B", vec![]).unwrap();
    e.crash_site(Nanos::from_millis(2_080), 1);
    e.run_for(Nanos::from_secs(5));
    // A (g=10) stabilized long before the crash; B (g=20) is stuck behind
    // its own site's frozen watermark (20): stability needs it above 20.
    assert_eq!(e.metrics().events_received, 2);
    assert_eq!(e.buffered(), 1, "stability must stall on the silent site");
    e.evict_site(Nanos::from_secs(6), 1);
    let det = e.run_for(Nanos::from_secs(3));
    assert_eq!(det.len(), 1, "flushed-before-crash events must detect");
    assert_eq!(&*det[0].name, "X");
    assert_eq!(e.buffered(), 0);
}

#[test]
fn durable_restart_backlog_at_the_release_boundary_is_accepted() {
    // Site 1 announces tick 20 at 2.0 s, then loses its link from 2.05 to
    // 2.9 s: its 2.1 s edge batch carrying A (2.02 s) and B (2.06 s), both
    // tick 20, and its 2.2 s one carrying C (2.13 s, tick 21) are logged
    // but never delivered. It crashes at 2.3 s and restarts at 3.0 s,
    // resending that backlog behind its Hello. Meanwhile the
    // coordinator's minimum watermark is site 1's frozen 20, so it
    // releases every tick ≤ 19 and its stale horizon reaches 20: the
    // backlog's A and B sit exactly on it and must still be accepted.
    let dir = std::env::temp_dir().join(format!("decs-failures-boundary-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let events: [(u64, u32, &str); 8] = [
        (1_000, 2, "A"),
        (1_950, 0, "A"),
        (2_020, 1, "A"),
        (2_040, 2, "C"),
        (2_060, 1, "B"),
        (2_130, 1, "C"),
        (2_500, 0, "B"),
        (3_500, 2, "C"),
    ];
    let run = |faulty: bool| {
        let config = EngineConfig {
            site_durability: faulty,
            wal_dir: faulty.then(|| dir.to_string_lossy().into_owned()),
            ..EngineConfig::default()
        };
        let mut e = Engine::new(
            &scenario(3),
            config,
            &["A", "B", "C"],
            &[
                ("X", E::seq(E::prim("A"), E::prim("B")), Context::Chronicle),
                ("Y", E::and(E::prim("B"), E::prim("C")), Context::Continuous),
            ],
        )
        .unwrap();
        for &(ms, site, ev) in &events {
            e.inject(Nanos::from_millis(ms), site, ev, vec![]).unwrap();
        }
        let mut det = Vec::new();
        if faulty {
            e.partition_site(1, Nanos::from_millis(2_050), Nanos::from_millis(2_900));
            e.crash_site(Nanos::from_millis(2_300), 1);
            e.restart_site(Nanos::from_secs(3), 1);
            det = e.run_until(Nanos::from_millis(2_900));
            // Released through tick 19 (the As at 10 and 19); held from
            // tick 20 on are site 2's C (20) and site 0's B (25).
            assert_eq!(e.metrics().events_released, 2);
            assert_eq!(e.buffered(), 2);
        }
        det.extend(e.run_until(Nanos::from_secs(6)));
        let m = e.metrics();
        assert_eq!(
            m.stale_refused, 0,
            "faulty {faulty}: backlog refused as stale"
        );
        assert_eq!(m.events_received, events.len() as u64, "faulty {faulty}");
        assert_eq!(e.buffered(), 0, "faulty {faulty}");
        if faulty {
            assert_eq!((e.site_epoch(1), m.rejoins), (1, 1));
        }
        det.into_iter()
            .map(|d| (d.name.to_string(), d.occ.time))
            .collect::<Vec<_>>()
    };
    let clean = run(false);
    assert_eq!(clean.len(), 4, "{clean:?}");
    assert_eq!(run(true), clean);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn evicting_a_live_site_refuses_new_events_but_keeps_buffered_ones() {
    let mut e = seq_engine(3);
    // A clean pre-evict pair: A (site 0) then B (site 1).
    e.inject(Nanos::from_secs(1), 0, "A", vec![]).unwrap();
    e.inject(Nanos::from_secs(2), 1, "B", vec![]).unwrap();
    // Evict site 1 while it is alive and still heartbeating.
    e.evict_site(Nanos::from_millis(2_500), 1);
    // Everything site 1 sends from now on is refused at the coordinator…
    e.inject(Nanos::from_secs(3), 1, "B", vec![]).unwrap();
    e.inject(Nanos::from_secs(4), 0, "A", vec![]).unwrap();
    e.inject(Nanos::from_secs(5), 1, "B", vec![]).unwrap();
    let det = e.run_for(Nanos::from_secs(10));
    // …so only the pre-evict pair detects: the post-evict Bs would have
    // completed two more sequences.
    assert_eq!(det.len(), 1, "only the pre-evict pair may detect");
    let m = e.metrics();
    assert_eq!(m.evict_refused, 2, "both post-evict Bs are refused");
    // The evicted site's watermark is out of the stability minimum: the
    // late A (site 0) still releases and the buffer drains.
    assert_eq!(e.buffered(), 0, "evicted watermark must not gate stability");
    assert_eq!(m.events_received, 3);
}

#[test]
fn retransmitted_copy_of_delayed_event_is_deduplicated() {
    // Crash-mid-retransmission: the link is so slow (300 ms each way) that
    // the site's 200 ms retransmission timer fires while the original copy
    // is still *in flight* — delayed, not dropped. The site then crashes.
    // The coordinator receives both copies and must release exactly once.
    let mut e = seq_engine(2);
    e.set_link_pair(
        1,
        LinkConfig {
            base_latency_ns: 300_000_000,
            jitter_ns: 0,
            fifo: true,
            ..LinkConfig::lan()
        },
    );
    e.inject(Nanos::from_secs(1), 0, "A", vec![]).unwrap();
    e.inject(Nanos::from_secs(2), 1, "B", vec![]).unwrap();
    // Die after at least one retransmission round has re-sent B
    // (B is unacked for ≥ 600 ms round-trip ≫ the 200 ms timeout).
    e.crash_site(Nanos::from_millis(2_450), 1);
    let det = e.run_for(Nanos::from_secs(10));
    assert_eq!(det.len(), 1, "the duplicate copy must not double-detect");
    let m = e.metrics();
    assert_eq!(m.events_received, 2, "duplicates never enter the buffer");
    assert!(
        m.retransmits >= 1,
        "the slow link must force retransmission"
    );
    assert!(
        m.duplicates_dropped >= 1,
        "the redundant copy is counted and ignored"
    );
}

#[test]
fn injections_to_crashed_site_are_dropped() {
    let mut e = seq_engine(2);
    e.crash_site(Nanos::from_millis(1), 0);
    e.inject(Nanos::from_secs(1), 0, "A", vec![]).unwrap();
    e.run_for(Nanos::from_secs(2));
    assert_eq!(e.metrics().events_received, 0);
}

#[test]
fn healthy_link_sees_no_retransmits() {
    // A lossless LAN at a high event rate keeps every site's retransmit
    // buffer non-empty, so whenever the retransmission timer fires some
    // acks are still in flight. They are not losses: the timer restarts
    // on every ack that makes progress, and nothing is ever resent, on
    // the single coordinator's stream or on per-replica uplinks.
    for replicas in [1, 2] {
        let mut e = Engine::new(
            &scenario(4),
            EngineConfig {
                coordinator_replicas: replicas,
                ..EngineConfig::default()
            },
            &["A", "B"],
            &[
                ("X", E::seq(E::prim("A"), E::prim("B")), Context::Chronicle),
                ("Y", E::seq(E::prim("B"), E::prim("A")), Context::Chronicle),
            ],
        )
        .unwrap();
        for i in 0..8_000u64 {
            let ty = if i % 2 == 0 { "A" } else { "B" };
            let at = Nanos(1_000_000 + i * 250_000);
            e.inject(at, (i % 4) as u32, ty, vec![]).unwrap();
        }
        e.run_for(Nanos::from_secs(3));
        let m = e.metrics();
        // Each replica counts the events it subscribes to.
        assert!(m.events_received >= 8_000, "events lost");
        assert_eq!(m.retransmits, 0, "{replicas} replicas: healthy link resent");
        assert_eq!(m.duplicates_dropped, 0);
    }
}

/// Bursts of `burst` events, 100 µs apart, every `period_ms` from 0.1 s to
/// 2.5 s, alternating `A`/`B` and round-robin over `sites`: `(ns, site)`.
fn bursts(sites: u32, burst: u64, period_ms: u64) -> Vec<(u64, u32)> {
    let mut out = Vec::new();
    let mut start = 100_000_000;
    let mut round = 0u64;
    while start < 2_500_000_000 {
        let site = (round % u64::from(sites)) as u32;
        // Burst sizes vary: 1..=burst.
        let n = 1 + (round * 7) % burst;
        for k in 0..n {
            out.push((start + k * 100_000, site));
        }
        start += period_ms * 1_000_000;
        round += 1;
    }
    out
}

fn inject_bursts(e: &mut Engine, w: &[(u64, u32)]) {
    for (i, &(ns, site)) in w.iter().enumerate() {
        let ty = if i % 2 == 0 { "A" } else { "B" };
        e.inject(Nanos(ns), site, ty, vec![]).unwrap();
    }
}

#[test]
fn bursty_events_on_a_healthy_link_are_acked_without_copies() {
    // Default config on a lossless LAN: each site's edge batch carries its
    // burst and is acked one round trip later, well inside the
    // retransmission timeout, so no copy is ever resent and no duplicate
    // reaches the coordinator.
    let mut e = seq_engine(4);
    let w = bursts(4, 60, 45);
    inject_bursts(&mut e, &w);
    e.run_for(Nanos::from_secs(4));
    let m = e.metrics();
    assert_eq!(m.events_received, w.len() as u64);
    assert_eq!(m.retransmits, 0, "healthy link resent");
    assert_eq!(m.duplicates_dropped, 0);
    // Events are not acked one by one: one ack answers each site's batch
    // per tick (the Start beacon and 39 edges), and nothing else is acked.
    assert_eq!(m.messages_processed, 4 * 40);
    assert_eq!(m.acks_sent, m.messages_processed);
    for site in 0..4 {
        // At most the latest batch, still in flight.
        assert!(e.unacked(site) <= 1, "site {site}: {}", e.unacked(site));
    }
}

#[test]
fn unacked_windows_are_bounded_by_one_flush_plus_a_round_trip() {
    // Site 0 on the LAN, site 1 on a WAN link (40 ± 10 ms each way), on
    // the single coordinator's stream and on per-replica uplinks. A site
    // flushes at every tick edge, `g_g` apart, or with a batch interval
    // about that often, and the coordinator acks every in-order delivery.
    // So at any instant `t` a site's fullest stream holds unacked only the
    // flushes it sent in `(t - interval - rtt, t]`.
    let wan = LinkConfig::wan();
    let lan = LinkConfig::lan();
    let rtt = [
        2 * (lan.base_latency_ns + lan.jitter_ns),
        2 * (wan.base_latency_ns + wan.jitter_ns),
    ];
    let mut peaks = Vec::new();
    for (replicas, batch_ms) in [(1, 0u64), (2, 0), (1, 20), (2, 20)] {
        let config = EngineConfig {
            coordinator_replicas: replicas,
            batch_interval: Nanos::from_millis(batch_ms),
            ..EngineConfig::default()
        };
        let interval = if batch_ms == 0 {
            scenario(2).base.gg().nanos_per_tick()
        } else {
            config.batch_interval.get()
        };
        let mut e = Engine::new(
            &scenario(2),
            config,
            &["A", "B"],
            &[
                ("X", E::seq(E::prim("A"), E::prim("B")), Context::Chronicle),
                ("Y", E::seq(E::prim("B"), E::prim("A")), Context::Chronicle),
            ],
        )
        .unwrap();
        e.set_link_pair(1, wan);
        let w = bursts(2, 40, 30);
        inject_bursts(&mut e, &w);
        let mut peak = [0usize; 2];
        for ms in 1..=3_000u64 {
            e.run_until(Nanos::from_millis(ms));
            for site in 0..2u32 {
                let window = interval + rtt[site as usize];
                let flushes = (window / interval + 1) as usize;
                let unacked = e.unacked(site);
                assert!(
                    unacked <= flushes,
                    "{replicas} replicas, batch {batch_ms} ms, site {site} at {ms} ms: \
                     {unacked} unacked, bound {flushes}"
                );
                peak[site as usize] = peak[site as usize].max(unacked);
            }
        }
        peaks.push(peak);
        assert_eq!(e.metrics().retransmits, 0, "batch {batch_ms} ms");
    }
    // With edge flushes at most one batch is ever unacked, even over the
    // WAN (bound 3); 20 ms flushes keep five in flight there (bound 7).
    assert_eq!(peaks, vec![[1, 1], [1, 1], [1, 5], [1, 5]]);
}
