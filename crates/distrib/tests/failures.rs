//! Failure injection: crashed sites stall the stability rule (as they
//! must — a silent site could still hold earlier events) and eviction
//! restores progress.

use decs_chronos::{Granularity, Nanos};
use decs_distrib::{Engine, EngineConfig, ReleasePolicy};
use decs_simnet::{LinkConfig, Scenario, ScenarioBuilder};
use decs_snoop::{Context, EventExpr as E};

fn scenario(sites: u32) -> Scenario {
    ScenarioBuilder::new(sites, 31)
        .global_granularity(Granularity::per_second(10).unwrap())
        .max_offset_ns(1_000_000)
        .build()
        .unwrap()
}

fn seq_engine(sites: u32, policy: ReleasePolicy) -> Engine {
    Engine::new(
        &scenario(sites),
        EngineConfig {
            release_policy: policy,
            ..EngineConfig::default()
        },
        &["A", "B"],
        &[("X", E::seq(E::prim("A"), E::prim("B")), Context::Chronicle)],
    )
    .unwrap()
}

#[test]
fn crashed_site_stalls_stability() {
    let mut e = seq_engine(3, ReleasePolicy::Stable);
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
    let mut e = seq_engine(3, ReleasePolicy::Stable);
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
fn crash_after_sending_preserves_its_events() {
    let mut e = seq_engine(2, ReleasePolicy::Stable);
    // Site 1 sends B then dies; site 0 stays alive.
    e.inject(Nanos::from_secs(1), 0, "A", vec![]).unwrap();
    e.inject(Nanos::from_secs(2), 1, "B", vec![]).unwrap();
    e.crash_site(Nanos::from_millis(2_100), 1);
    e.run_for(Nanos::from_secs(5));
    // Stuck: site 1's watermark froze around tick 21 < B's tick + 2.
    e.evict_site(Nanos::from_secs(5), 1);
    let det = e.run_for(Nanos::from_secs(6));
    assert_eq!(det.len(), 1, "the pre-crash event must still detect");
}

#[test]
fn immediate_policy_does_not_stall_but_is_timing_dependent() {
    let mut e = seq_engine(3, ReleasePolicy::Immediate);
    e.crash_site(Nanos::from_millis(1), 2);
    e.inject(Nanos::from_secs(1), 0, "A", vec![]).unwrap();
    e.inject(Nanos::from_secs(2), 1, "B", vec![]).unwrap();
    let det = e.run_for(Nanos::from_secs(5));
    // No stability wait: the detection happens despite the dead site…
    assert_eq!(det.len(), 1);
    // …and the buffer is never used.
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
fn crash_mid_batch_loses_pending_events_without_wedging() {
    // 100 ms batch interval: flushes land at 0.0, 0.1, 0.2 … s. Site 1's B
    // is injected at 2.055 s (buffered for the 2.1 s flush) and the site
    // crashes at 2.07 s — before that flush — so B dies in the site's
    // pending buffer and never reaches the coordinator. Had it been
    // flushed, A (g=10) → B (g=20) would have detected X.
    let mut e = batched_seq_engine(2, 100);
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
    // Site 1's B is injected at 2.05 s and flushed in the 2.1 s batch;
    // the site crashes *after* that flush, at 2.15 s. Everything already
    // flushed is buffered at the coordinator awaiting the dead site's
    // watermark; evicting while those batch-delivered notifications sit
    // in the stability buffer must release them and detect X.
    let mut e = batched_seq_engine(2, 100);
    e.inject(Nanos::from_secs(1), 0, "A", vec![]).unwrap();
    e.inject(Nanos::from_millis(2_050), 1, "B", vec![]).unwrap();
    e.crash_site(Nanos::from_millis(2_150), 1);
    e.run_for(Nanos::from_secs(5));
    // A (g=10) stabilized long before the crash; B (g=20) is stuck behind
    // its own site's frozen watermark (≈ 21).
    assert_eq!(e.metrics().events_received, 2);
    assert_eq!(e.buffered(), 1, "stability must stall on the silent site");
    e.evict_site(Nanos::from_secs(6), 1);
    let det = e.run_for(Nanos::from_secs(3));
    assert_eq!(det.len(), 1, "flushed-before-crash events must detect");
    assert_eq!(&*det[0].name, "X");
    assert_eq!(e.buffered(), 0);
}

#[test]
fn evicting_a_live_site_refuses_new_events_but_keeps_buffered_ones() {
    let mut e = seq_engine(3, ReleasePolicy::Stable);
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
    let mut e = seq_engine(2, ReleasePolicy::Stable);
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
    let mut e = seq_engine(2, ReleasePolicy::Stable);
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
