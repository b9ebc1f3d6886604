//! Rejoin suite: site crash → restart → epoch handshake is invisible to
//! detection.
//!
//! Each case derives a crash/restart schedule deterministically from a
//! seed — one site crashes somewhere in [1.5 s, 3 s), restarts at least
//! 0.5 s later (by 5 s), with per-site link drop/duplication faults layered
//! on top; in the two-victim schedule a second site crashes while the
//! first is down — and runs the same randomized workload through a fault-free
//! engine and a faulty one with **site durability** on. The oracle is the
//! fault-free run over the workload *minus the injections addressed to a
//! crashed site during its downtime* (a dead site drops injections; that
//! loss is the spec, not a bug). Detections must be bit-for-bit identical:
//! same composites, same composite timestamps, same canonical order.
//!
//! 32 schedules per victim count — 16 seeds × {plan sharing on/off} —
//! so the equality holds in both coordinator execution modes.
//!
//! A directed case pins the epoch filter itself: the victim's old
//! incarnation still has traffic in flight when its Hello lands, and that
//! traffic must be filtered, not consumed. Its non-durable leg restarts
//! the victim's sequence numbers at 0, so only the epoch drop keeps the
//! stragglers out; there the oracle also drops what a non-durable crash
//! loses by contract: the victim's unflushed tick and every flush still
//! on the link when the Hello lands.
//!
//! Two directed properties cover the eviction interaction:
//! * an auto-evicted site that later rejoins un-pins its watermark, clears
//!   suspicion, and post-rejoin composites detect exactly as fault-free;
//! * a durable site whose *unacked* pre-crash backlog reappears after the
//!   release order has passed it (evict → horizon advances → rejoin) has
//!   that backlog refused as stale — counted, not double-released.

use decs::distrib::{Detection, Engine, EngineConfig};
use decs::simnet::{LinkConfig, Scenario, ScenarioBuilder, SplitMix64};
use decs::snoop::{Context, EventExpr as E};
use decs_chronos::{Granularity, Nanos, Timeout};

const SITES: u32 = 3;
const WORKLOAD_END_MS: u64 = 3_000;
/// Past the last restart (5 s) plus capped-backoff retransmission (3.2 s
/// worst case) plus stabilization.
const HORIZON_SECS: u64 = 20;

/// Plan sharing on and off: the coordinator execution modes the equality
/// must hold under.
const SHARING: [bool; 2] = [true, false];

fn scenario(seed: u64) -> Scenario {
    ScenarioBuilder::new(SITES, seed)
        .global_granularity(Granularity::per_second(10).unwrap())
        .max_offset_ns(1_000_000)
        .build()
        .unwrap()
}

fn engine(seed: u64, sharing: bool, auto_evict: bool, wal_dir: Option<&std::path::Path>) -> Engine {
    Engine::new(
        &scenario(seed),
        EngineConfig {
            plan_sharing: sharing,
            auto_evict,
            stall_timeout: if auto_evict {
                Timeout::from_millis::<1_000>()
            } else {
                Timeout::from_millis::<5_000>()
            },
            site_durability: wal_dir.is_some(),
            wal_dir: wal_dir.map(|d| d.to_string_lossy().into_owned()),
            retransmit_jitter_seed: Some(seed),
            ..EngineConfig::default()
        },
        &["A", "B", "C"],
        &[
            ("X", E::seq(E::prim("A"), E::prim("B")), Context::Chronicle),
            (
                "Y",
                E::and(E::seq(E::prim("A"), E::prim("B")), E::prim("C")),
                Context::Chronicle,
            ),
            ("Z", E::or(E::prim("C"), E::prim("B")), Context::Chronicle),
        ],
    )
    .unwrap()
}

/// Deterministic workload: (ms, site, event name) triples.
fn workload(rng: &mut SplitMix64) -> Vec<(u64, u32, &'static str)> {
    let n = rng.next_range(10, 40) as usize;
    (0..n)
        .map(|_| {
            let ms = rng.next_range(10, WORKLOAD_END_MS);
            let site = rng.next_below(u64::from(SITES)) as u32;
            let ev = match rng.next_below(3) {
                0 => "A",
                1 => "B",
                _ => "C",
            };
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

fn wal_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("decs-rejoin-{}-{tag}", std::process::id()))
}

/// One rejoin case: each of `victims` crashes once and restarts. Every
/// victim after the first crashes while the one before it is still down,
/// so their downtimes overlap. Returns the retransmit count for the
/// aggregate machinery assertion.
fn rejoin_case(seed: u64, sharing: bool, victims: &[u32]) -> u64 {
    let mut rng = SplitMix64::new(seed ^ 0x7E70_1B5E);
    let w = workload(&mut rng);
    // (site, crash, restart). Half-millisecond offsets so a crash or
    // restart can never tie with an integer-millisecond injection in the
    // event queue.
    let half_ms = |ms: u64| Nanos(ms * 1_000_000 + 500_000);
    let mut down: Vec<(u32, Nanos, Nanos)> = Vec::new();
    let (mut lo, mut hi) = (1_500, 3_000);
    for &victim in victims {
        let crash_ms = rng.next_range(lo, hi);
        let restart_ms = rng.next_range(crash_ms + 500, 5_000);
        down.push((victim, half_ms(crash_ms), half_ms(restart_ms)));
        (lo, hi) = (crash_ms + 1, (restart_ms - 1).min(4_000));
    }

    // Oracle: the fault-free run never sees the injections a dead site
    // dropped during its downtime.
    let clean_w: Vec<(u64, u32, &'static str)> = w
        .iter()
        .copied()
        .filter(|&(ms, site, _)| {
            let at = Nanos::from_millis(ms);
            !down
                .iter()
                .any(|&(v, crash, restart)| site == v && at >= crash && at < restart)
        })
        .collect();
    let mut clean = engine(seed, sharing, false, None);
    inject_all(&mut clean, &clean_w);
    let clean_det = keys(clean.run_for(Nanos::from_secs(HORIZON_SECS)));

    let dir = wal_dir(&format!("{seed}-{}-{}", sharing as u8, victims.len()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut faulty = engine(seed, sharing, false, Some(&dir));
    for site in 0..SITES {
        let drop_ppm = rng.next_below(100_001) as u32; // ≤ 10%
        let dup_ppm = rng.next_below(50_001) as u32; // ≤ 5%
        faulty.set_link_pair(site, LinkConfig::lan().with_faults(drop_ppm, dup_ppm));
    }
    for &(victim, crash, restart) in &down {
        faulty.crash_site(crash, victim);
        faulty.restart_site(restart, victim);
    }
    inject_all(&mut faulty, &w);
    let faulty_det = keys(faulty.run_for(Nanos::from_secs(HORIZON_SECS)));

    assert_eq!(
        clean_det, faulty_det,
        "seed {seed} sharing {sharing}: crash/restart schedule {down:?} (site, crash, \
         restart) must be invisible to detection"
    );
    let m = faulty.metrics();
    let n = victims.len() as u64;
    assert_eq!(m.site_restarts, n, "seed {seed}: one restart per victim");
    assert!(m.rejoins >= n, "seed {seed}: a Hello never landed: {m:?}");
    assert_eq!(m.epoch_max, 1, "seed {seed}: one epoch bump per victim");
    assert_eq!(m.wal_errors, 0, "seed {seed}: site WAL must stay healthy");
    assert_eq!(
        m.stale_refused, 0,
        "seed {seed}: nothing is stale without an eviction"
    );
    assert_eq!(
        faulty.buffered(),
        0,
        "seed {seed}: the stability buffer must drain after the rejoin"
    );
    for &victim in victims {
        assert_eq!(faulty.site_epoch(victim), 1);
        assert_eq!(faulty.coordinator_site_epoch(victim), 1);
    }
    let _ = std::fs::remove_dir_all(&dir);
    m.retransmits
}

/// Every seed × config with `victims(seed)` crashing.
fn run_schedules(victims: impl Fn(u64) -> Vec<u32>) {
    let mut retransmits = 0;
    for sharing in SHARING {
        for seed in 0..16u64 {
            retransmits += rejoin_case(seed, sharing, &victims(seed));
        }
    }
    // The schedules must actually exercise the machinery: recovered
    // backlogs were retransmitted. On these LAN links a dead incarnation
    // rarely has traffic still in flight when its Hello lands, so the
    // epoch filter is pinned by
    // `old_epoch_traffic_in_flight_past_the_hello_is_filtered` instead.
    assert!(retransmits > 0, "no retransmissions across the schedules");
}

#[test]
fn rejoin_schedules_match_filtered_fault_free() {
    run_schedules(|seed| vec![(seed % u64::from(SITES)) as u32]);
}

#[test]
fn overlapping_crashes_of_two_sites_match_filtered_fault_free() {
    run_schedules(|_| vec![0, 2]);
}

#[test]
fn old_epoch_traffic_in_flight_past_the_hello_is_filtered() {
    // The victim's link is slow (800 ms each way) until it crashes, so the
    // batches and retransmissions its dead incarnation sent in its last
    // 800 ms are still in flight when it restarts 100 ms later. From the
    // crash on the link is instant and FIFO: the Hello lands before any
    // new-incarnation message, so everything the coordinator filters
    // arrives from the older epoch, after the Hello.
    let victim = 1u32;
    let slow = LinkConfig {
        base_latency_ns: 800_000_000,
        jitter_ns: 0,
        fifo: true,
        drop_ppm: 0,
        dup_ppm: 0,
    };
    let crash = Nanos(2_000_500_000);
    let restart = Nanos(2_100_500_000);
    for durable in [true, false] {
        for sharing in SHARING {
            for seed in 0..4u64 {
                let mut rng = SplitMix64::new(seed ^ 0x5_1077);
                let w = workload(&mut rng);
                let clock = scenario(seed).time_source(victim);
                // The flush carrying an injection is the victim's next
                // tick edge; a non-durable victim loses it unless it
                // reached the coordinator before the Hello.
                let lost_flush = |at: Nanos| {
                    clock.next_tick_edge(at).is_none_or(|edge| {
                        edge >= crash || edge.get() + slow.base_latency_ns > restart.get()
                    })
                };
                let clean_w: Vec<(u64, u32, &'static str)> = w
                    .iter()
                    .copied()
                    .filter(|&(ms, site, _)| {
                        let at = Nanos::from_millis(ms);
                        let down = at >= crash && at < restart;
                        let unflushed = !durable && at < crash && lost_flush(at);
                        !(site == victim && (down || unflushed))
                    })
                    .collect();
                let mut clean = engine(seed, sharing, false, None);
                inject_all(&mut clean, &clean_w);
                let clean_det = keys(clean.run_for(Nanos::from_secs(HORIZON_SECS)));

                let dir = wal_dir(&format!("in-flight-{seed}-{}", sharing as u8));
                let _ = std::fs::remove_dir_all(&dir);
                let mut faulty = engine(seed, sharing, false, durable.then_some(dir.as_path()));
                faulty.set_link_pair(victim, slow);
                faulty.crash_site(crash, victim);
                faulty.restart_site(restart, victim);
                inject_all(&mut faulty, &w);
                let mut faulty_det = keys(faulty.run_until(crash));
                faulty.set_link_pair(victim, LinkConfig::instant());
                faulty_det.extend(keys(faulty.run_for(Nanos::from_secs(HORIZON_SECS))));

                let case = format!("durable {durable} seed {seed} sharing {sharing}");
                assert_eq!(
                    clean_det, faulty_det,
                    "{case}: the rejoin must lose only the documented window"
                );
                let m = faulty.metrics();
                assert!(m.rejoins >= 1, "{case}: the Hello never landed: {m:?}");
                assert!(
                    m.epoch_filtered >= 1,
                    "{case}: no old-epoch straggler was filtered: {m:?}"
                );
                assert_eq!(faulty.buffered(), 0);
                let _ = std::fs::remove_dir_all(&dir);
            }
        }
    }
}

#[test]
fn auto_evicted_site_rejoins_unpins_watermark_and_detection_resumes() {
    for seed in 0..4u64 {
        // Pre-crash events land ≥ 500 ms before the crash on a healthy
        // link, so the victim's send window is fully acked at crash time
        // (nothing to refuse later); downtime injections are dropped by
        // the dead site; post-rejoin events span all sites again.
        let victim = 0u32;
        let w: Vec<(u64, u32, &'static str)> = vec![
            (500, 0, "A"),
            (600, 1, "B"),   // X and Z pre-crash
            (700, 2, "C"),   // completes Y pre-crash
            (3_000, 0, "A"), // downtime: dropped by the dead site
            (6_000, 0, "A"),
            (6_500, 1, "B"), // X and Z post-rejoin
            (7_000, 2, "C"), // completes Y post-rejoin
        ];
        let clean_w: Vec<(u64, u32, &'static str)> = w
            .iter()
            .copied()
            .filter(|&(ms, _, _)| ms != 3_000)
            .collect();

        let mut clean = engine(seed, true, true, None);
        inject_all(&mut clean, &clean_w);
        let clean_det = keys(clean.run_for(Nanos::from_secs(HORIZON_SECS)));

        let dir = wal_dir(&format!("evict-{seed}"));
        let _ = std::fs::remove_dir_all(&dir);
        let mut faulty = engine(seed, true, true, Some(&dir));
        faulty.crash_site(Nanos(1_200_500_000), victim);
        faulty.restart_site(Nanos(5_000_500_000), victim);
        inject_all(&mut faulty, &w);
        let faulty_det = keys(faulty.run_for(Nanos::from_secs(HORIZON_SECS)));

        assert_eq!(
            clean_det, faulty_det,
            "seed {seed}: evict → rejoin must lose only the downtime injection"
        );
        assert!(!faulty_det.is_empty());
        let m = faulty.metrics();
        assert_eq!(m.auto_evictions, 1, "seed {seed}: the stall detector fired");
        assert!(m.rejoins >= 1, "seed {seed}: the Hello never landed");
        assert_eq!(
            m.suspect_sites, 0,
            "seed {seed}: rejoin must clear suspicion"
        );
        assert_eq!(m.site_restarts, 1);
        // The watermark un-pinned: post-rejoin composites released through
        // the normal stability rule, draining the buffer completely.
        assert_eq!(faulty.buffered(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn evicted_backlog_arriving_after_its_release_slot_is_refused_as_stale() {
    // The one place the release order *can* be approached from behind: a
    // durable site crashes with an unacked (partition-stranded) event,
    // gets evicted, the release order passes the event's global tick, and
    // then the site rejoins and faithfully retransmits its backlog. The
    // coordinator must refuse the resurrected event — releasing it would
    // violate the canonical order every other consumer already observed.
    let victim = 0u32;
    let dir = wal_dir("stale-backlog");
    let _ = std::fs::remove_dir_all(&dir);
    let mut e = engine(11, true, true, Some(&dir));
    // Strand A: the victim's link is dead when A is injected at 1 s, so A
    // sits unacked in the WAL when the site crashes at 1.2 s.
    e.partition_site(victim, Nanos(800_000_000), Nanos(2_000_000_000));
    e.crash_site(Nanos(1_200_500_000), victim);
    e.inject(Nanos::from_secs(1), victim, "A", vec![]).unwrap();
    // The survivors keep going; after the auto-evict their B releases and
    // pushes the horizon far past A's tick.
    e.inject(Nanos(3_500_000_000), 1, "B", vec![]).unwrap();
    // Rejoin, then a fresh post-rejoin pair.
    e.restart_site(Nanos(5_000_500_000), victim);
    e.inject(Nanos::from_secs(6), victim, "A", vec![]).unwrap();
    e.inject(Nanos(6_500_000_000), 1, "B", vec![]).unwrap();
    let det = e.run_for(Nanos::from_secs(HORIZON_SECS));

    let m = e.metrics();
    assert_eq!(m.auto_evictions, 1);
    assert!(m.rejoins >= 1);
    assert!(
        m.stale_refused >= 1,
        "the resurrected pre-crash A must be refused: {m:?}"
    );
    // Exactly one X: the post-rejoin (A, B) pair. The stranded A is gone —
    // its composite was the price of evicting — and the 3.5 s B cannot
    // pair backwards.
    let xs: Vec<&Detection> = det.iter().filter(|d| &*d.name == "X").collect();
    assert_eq!(xs.len(), 1, "{det:?}");
    assert!(
        xs[0].occ.time.max_global() >= 60,
        "the surviving X must be the post-rejoin pair: {:?}",
        xs[0]
    );
    assert_eq!(e.buffered(), 0);
    let _ = std::fs::remove_dir_all(&dir);
}
