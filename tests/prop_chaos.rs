//! Chaos suite: the ack/retransmit protocol makes detection a pure
//! function of the workload even over a lossy, duplicating, partitioning
//! network.
//!
//! Each case derives a fault schedule deterministically from a seed —
//! per-site message drop rates up to 20%, duplication rates up to 10%,
//! and a healing partition window per site — runs the same randomized
//! workload through a fault-free engine and a faulty one, and asserts the
//! detections are **bit-for-bit identical**: same composites, same
//! composite timestamps, same canonical order. 128 seeded schedules run
//! across the four `chaos_schedules_*` tests.
//!
//! A second property covers graceful degradation: with `auto_evict`, a
//! permanently dead site is suspected, evicted, and the engine converges
//! to exactly the detections of a run where that site never had events —
//! a dead site only suppresses composites that needed its events.

use decs::distrib::{Detection, Engine, EngineConfig};
use decs::simnet::{LinkConfig, ScenarioBuilder, SplitMix64};
use decs::snoop::{Context, EventExpr as E};
use decs_chronos::{Granularity, Nanos, Timeout};

const SITES: u32 = 3;
/// Workload injections stop here; partitions heal by `PARTITION_END_MS`.
const WORKLOAD_END_MS: u64 = 3_000;
const PARTITION_END_MS: u64 = 5_000;
/// Long enough past the last heal for capped-backoff retransmission
/// (3.2 s worst case) plus stabilization to finish.
const HORIZON_SECS: u64 = 25;

fn engine(seed: u64, auto_evict: bool) -> Engine {
    let scenario = ScenarioBuilder::new(SITES, seed)
        .global_granularity(Granularity::per_second(10).unwrap())
        .max_offset_ns(1_000_000)
        .build()
        .unwrap();
    Engine::new(
        &scenario,
        EngineConfig {
            auto_evict,
            // Suspect after 1 s of one-sided silence so the auto-evict
            // property converges well inside the horizon.
            stall_timeout: if auto_evict {
                Timeout::from_millis::<1_000>()
            } else {
                Timeout::from_millis::<5_000>()
            },
            ..EngineConfig::default()
        },
        &["A", "B"],
        &[("X", E::seq(E::prim("A"), E::prim("B")), Context::Chronicle)],
    )
    .unwrap()
}

/// Deterministic workload: (ms, site, event name) triples.
fn workload(rng: &mut SplitMix64) -> Vec<(u64, u32, &'static str)> {
    let n = rng.next_range(5, 40) as usize;
    (0..n)
        .map(|_| {
            let ms = rng.next_range(10, WORKLOAD_END_MS);
            let site = rng.next_below(u64::from(SITES)) as u32;
            let ev = if rng.next_below(2) == 0 { "A" } else { "B" };
            (ms, site, ev)
        })
        .collect()
}

fn inject_all(e: &mut Engine, w: &[(u64, u32, &'static str)]) {
    for &(ms, site, ev) in w {
        e.inject(Nanos::from_millis(ms), site, ev, vec![]).unwrap();
    }
}

fn keys(det: Vec<Detection>) -> Vec<(String, decs::core::CompositeTimestamp)> {
    det.into_iter()
        .map(|d| (d.name.to_string(), d.occ.time))
        .collect()
}

/// One chaos case: identical workload, one clean run, one run under a
/// seed-derived fault schedule. Returns (faults observed, retransmits).
fn chaos_case(seed: u64) -> (u64, u64) {
    let mut rng = SplitMix64::new(seed ^ 0xC4A0_5EED);
    let w = workload(&mut rng);

    let mut clean = engine(seed, false);
    inject_all(&mut clean, &w);
    let clean_det = keys(clean.run_for(Nanos::from_secs(HORIZON_SECS)));

    let mut faulty = engine(seed, false);
    for site in 0..SITES {
        let drop_ppm = rng.next_below(200_001) as u32; // ≤ 20%
        let dup_ppm = rng.next_below(100_001) as u32; // ≤ 10%
        faulty.set_link_pair(site, LinkConfig::lan().with_faults(drop_ppm, dup_ppm));
        // A healing partition: an outage of up to 2 s somewhere inside the
        // first PARTITION_END_MS milliseconds.
        let start = rng.next_below(PARTITION_END_MS - 2_000);
        let len = rng.next_range(100, 2_000);
        faulty.partition_site(
            site,
            Nanos::from_millis(start),
            Nanos::from_millis((start + len).min(PARTITION_END_MS)),
        );
    }
    inject_all(&mut faulty, &w);
    let faulty_det = keys(faulty.run_for(Nanos::from_secs(HORIZON_SECS)));

    assert_eq!(
        clean_det, faulty_det,
        "seed {seed}: detections must be bit-for-bit identical under faults"
    );
    assert_eq!(
        faulty.buffered(),
        0,
        "seed {seed}: the stability buffer must drain once partitions heal"
    );
    let c = faulty.fault_counters();
    let m = faulty.metrics();
    assert_eq!(
        m.parked_dropped, 0,
        "seed {seed}: default parked cap must not engage at this scale"
    );
    (c.dropped + c.duplicated + c.partitioned, m.retransmits)
}

fn run_block(seeds: std::ops::Range<u64>) {
    let mut faults = 0;
    let mut retransmits = 0;
    for seed in seeds {
        let (f, r) = chaos_case(seed);
        faults += f;
        retransmits += r;
    }
    // The schedules must actually exercise the machinery: across 32 cases
    // the links injected faults and the sites retransmitted through them.
    assert!(faults > 0, "fault schedules injected no faults");
    assert!(retransmits > 0, "no retransmissions were needed");
}

#[test]
fn chaos_schedules_block0_match_fault_free_detections() {
    run_block(0..32);
}

#[test]
fn chaos_schedules_block1_match_fault_free_detections() {
    run_block(32..64);
}

#[test]
fn chaos_schedules_block2_match_fault_free_detections() {
    run_block(64..96);
}

#[test]
fn chaos_schedules_block3_match_fault_free_detections() {
    run_block(96..128);
}

#[test]
fn auto_evict_suppresses_only_the_dead_sites_composites() {
    for seed in 0..8u64 {
        let mut rng = SplitMix64::new(seed ^ 0xDEAD_517E);
        // Workload on the surviving sites only; the dead site receives
        // nothing (its post-crash injections would be dropped anyway).
        let w: Vec<(u64, u32, &'static str)> = workload(&mut rng)
            .into_iter()
            .map(|(ms, site, ev)| (ms, site % (SITES - 1), ev))
            .collect();

        // Reference: all three sites healthy, same workload.
        let mut clean = engine(seed, false);
        inject_all(&mut clean, &w);
        let clean_det = keys(clean.run_for(Nanos::from_secs(HORIZON_SECS)));

        // Site 2 dies almost immediately and is never evicted manually:
        // the stall detector must suspect it and auto-evict.
        let mut dead = engine(seed, true);
        dead.crash_site(Nanos::from_millis(50), SITES - 1);
        inject_all(&mut dead, &w);
        let dead_det = keys(dead.run_for(Nanos::from_secs(HORIZON_SECS)));

        assert_eq!(
            clean_det, dead_det,
            "seed {seed}: composites not involving the dead site must survive"
        );
        let m = dead.metrics();
        assert_eq!(m.auto_evictions, 1, "seed {seed}: the dead site is evicted");
        assert_eq!(m.suspect_sites, 1, "seed {seed}: it stays suspect");
        assert_eq!(
            dead.buffered(),
            0,
            "seed {seed}: eviction must unwedge the stability buffer"
        );
    }
}

#[test]
fn stall_detector_observes_without_evicting_by_default() {
    // Default config: auto_evict off. A dead site is suspected (metrics
    // only) but never evicted, so stability stalls — the pre-PR behavior.
    let mut e = engine(7, false);
    e.crash_site(Nanos::from_millis(50), 2);
    e.inject(Nanos::from_secs(1), 0, "A", vec![]).unwrap();
    e.inject(Nanos::from_secs(2), 1, "B", vec![]).unwrap();
    let det = e.run_for(Nanos::from_secs(12));
    assert!(det.is_empty(), "no eviction ⟹ stability must stall");
    let m = e.metrics();
    assert_eq!(m.suspect_sites, 1);
    assert!(m.stall_ns > 0, "suspect time must accumulate");
    assert_eq!(m.auto_evictions, 0);
    assert_eq!(e.buffered(), 2);
}
