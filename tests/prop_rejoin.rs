//! Rejoin suite: site crash → restart → epoch handshake is invisible to
//! detection.
//!
//! Each case derives a crash/restart schedule deterministically from a
//! seed — one site crashes somewhere in [1.5 s, 3 s), restarts at least
//! 0.5 s later (by 5 s), with per-site link drop/duplication faults layered
//! on top — and runs the same randomized workload through a fault-free
//! engine and a faulty one with **site durability** on. The oracle is the
//! fault-free run over the workload *minus the injections addressed to the
//! crashed site during its downtime* (a dead site drops injections; that
//! loss is the spec, not a bug). Detections must be bit-for-bit identical:
//! same composites, same composite timestamps, same canonical order.
//!
//! 24 schedules — 6 seeds × {buffer GC on/off} × {plan sharing on/off} —
//! so the equality holds across every coordinator execution mode.
//!
//! Two directed properties cover the eviction interaction:
//! * an auto-evicted site that later rejoins un-pins its watermark, clears
//!   suspicion, and post-rejoin composites detect exactly as fault-free;
//! * a durable site whose *unacked* pre-crash backlog reappears after the
//!   release order has passed it (evict → horizon advances → rejoin) has
//!   that backlog refused as stale — counted, not double-released.

use decs::distrib::{Detection, Engine, EngineConfig};
use decs::simnet::{LinkConfig, ScenarioBuilder, SplitMix64};
use decs::snoop::{Context, EventExpr as E};
use decs_chronos::{Granularity, Nanos};

const SITES: u32 = 3;
const WORKLOAD_END_MS: u64 = 3_000;
/// Past the last restart (5 s) plus capped-backoff retransmission (3.2 s
/// worst case) plus stabilization.
const HORIZON_SECS: u64 = 20;

/// {buffer GC} × {plan sharing}: every coordinator execution mode the
/// equality must hold under.
const CONFIGS: [(bool, bool); 4] = [(true, true), (true, false), (false, true), (false, false)];

fn engine(
    seed: u64,
    (gc, sharing): (bool, bool),
    auto_evict: bool,
    wal_dir: Option<&std::path::Path>,
) -> Engine {
    let scenario = ScenarioBuilder::new(SITES, seed)
        .global_granularity(Granularity::per_second(10).unwrap())
        .max_offset_ns(1_000_000)
        .build()
        .unwrap();
    Engine::new(
        &scenario,
        EngineConfig {
            buffer_gc: gc,
            plan_sharing: sharing,
            auto_evict,
            stall_intervals: if auto_evict { 10 } else { 50 },
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

/// One rejoin case. Returns (retransmits, epoch-filtered) for aggregate
/// machinery assertions.
fn rejoin_case(seed: u64, cfg: (bool, bool)) -> (u64, u64) {
    let mut rng = SplitMix64::new(seed ^ 0x7E70_1B5E);
    let w = workload(&mut rng);
    let victim = rng.next_below(u64::from(SITES)) as u32;
    // Half-millisecond offsets so the crash/restart can never tie with an
    // integer-millisecond injection in the event queue.
    let crash_ms = rng.next_range(1_500, 3_000);
    let restart_ms = rng.next_range(crash_ms + 500, 5_000);
    let t_crash = Nanos(crash_ms * 1_000_000 + 500_000);
    let t_restart = Nanos(restart_ms * 1_000_000 + 500_000);

    // Oracle: the fault-free run never sees the injections the dead site
    // dropped during its downtime.
    let clean_w: Vec<(u64, u32, &'static str)> = w
        .iter()
        .copied()
        .filter(|&(ms, site, _)| {
            let at = Nanos::from_millis(ms);
            !(site == victim && at >= t_crash && at < t_restart)
        })
        .collect();
    let mut clean = engine(seed, cfg, false, None);
    inject_all(&mut clean, &clean_w);
    let clean_det = keys(clean.run_for(Nanos::from_secs(HORIZON_SECS)));

    let (gc, sharing) = cfg;
    let dir = wal_dir(&format!("{seed}-{}{}", gc as u8, sharing as u8));
    let _ = std::fs::remove_dir_all(&dir);
    let mut faulty = engine(seed, cfg, false, Some(&dir));
    for site in 0..SITES {
        let drop_ppm = rng.next_below(100_001) as u32; // ≤ 10%
        let dup_ppm = rng.next_below(50_001) as u32; // ≤ 5%
        faulty.set_link_pair(site, LinkConfig::lan().with_faults(drop_ppm, dup_ppm));
    }
    faulty.crash_site(t_crash, victim);
    faulty.restart_site(t_restart, victim);
    inject_all(&mut faulty, &w);
    let faulty_det = keys(faulty.run_for(Nanos::from_secs(HORIZON_SECS)));

    assert_eq!(
        clean_det, faulty_det,
        "seed {seed} cfg {cfg:?}: crash/restart of site {victim} over \
         [{t_crash:?}, {t_restart:?}) must be invisible to detection"
    );
    let m = faulty.metrics();
    assert_eq!(m.site_restarts, 1, "seed {seed}: exactly one restart");
    assert!(m.rejoins >= 1, "seed {seed}: the Hello never landed: {m:?}");
    assert_eq!(m.epoch_max, 1, "seed {seed}: one epoch bump");
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
    assert_eq!(faulty.site_epoch(victim), 1);
    assert_eq!(faulty.coordinator_site_epoch(victim), 1);
    let _ = std::fs::remove_dir_all(&dir);
    (m.retransmits, m.epoch_filtered)
}

#[test]
fn rejoin_schedules_match_filtered_fault_free() {
    let mut retransmits = 0;
    let mut filtered = 0;
    for cfg in CONFIGS {
        for seed in 0..6u64 {
            let (r, f) = rejoin_case(seed, cfg);
            retransmits += r;
            filtered += f;
        }
    }
    // The schedules must actually exercise the machinery: recovered
    // backlogs were retransmitted and old-incarnation stragglers were
    // epoch-filtered somewhere.
    assert!(retransmits > 0, "no retransmissions across the schedules");
    assert!(filtered > 0, "no old-epoch traffic was ever filtered");
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

        let cfg = (true, true);
        let mut clean = engine(seed, cfg, true, None);
        inject_all(&mut clean, &clean_w);
        let clean_det = keys(clean.run_for(Nanos::from_secs(HORIZON_SECS)));

        let dir = wal_dir(&format!("evict-{seed}"));
        let _ = std::fs::remove_dir_all(&dir);
        let mut faulty = engine(seed, cfg, true, Some(&dir));
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
    let cfg = (true, true);
    let dir = wal_dir("stale-backlog");
    let _ = std::fs::remove_dir_all(&dir);
    let mut e = engine(11, cfg, true, Some(&dir));
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
