//! Partition-count invariance: a detection plane split across N
//! coordinator replicas (rendezvous-partitioned definitions,
//! subscription-routed announcements, replica → replica relays) emits a
//! detection stream **bit-identical** (same composites, same composite
//! timestamps, same parameters, same canonical order) to the classic
//! single-coordinator deployment — for every N, across the full config
//! matrix, and across a replica crash + WAL recovery.
//!
//! 24 seeded comparisons: 6 seeds × {GC on/off} × {plan sharing on/off},
//! each run at N = 1 (classic plane), N = 2 and N = 4 and compared
//! pairwise. The definitions chain across partitions (the
//! third consumes the second, which consumes the first), so every run
//! exercises cross-replica forwarding, not just disjoint sub-planes.
//!
//! Why equivalence holds — the argument the suite checks: every buffered
//! item carries a partition key `(root release key, cascade depth,
//! cascade path)` whose lexicographic order *is* the single
//! coordinator's canonical release order; a replica releases its buffer
//! head only when the root is stable under the watermark rule **and**
//! the head's coarse position is at or below every peer's
//! depth-stratified promise, so no in-flight relay can ever claim an
//! earlier slot. The engine then merges the per-replica detection
//! streams by partition key below the promise cut.

use decs::distrib::{Detection, Engine, EngineConfig};
use decs::simnet::{Scenario, ScenarioBuilder, SplitMix64};
use decs::snoop::{Context, EventExpr as E, Occurrence};
use decs_chronos::{Granularity, Nanos};

const SITES: u32 = 3;
const WORKLOAD_END_MS: u64 = 3_000;
const HORIZON: Nanos = Nanos(12_000_000_000);

fn scenario(seed: u64) -> Scenario {
    ScenarioBuilder::new(SITES, seed)
        .global_granularity(Granularity::per_second(10).unwrap())
        .max_offset_ns(1_000_000)
        .build()
        .unwrap()
}

/// The config matrix: every combination of the switches that change how
/// much machinery sits between a routed announcement and a detection.
fn matrix() -> Vec<EngineConfig> {
    let mut out = Vec::new();
    for &buffer_gc in &[true, false] {
        for &plan_sharing in &[true, false] {
            out.push(EngineConfig {
                buffer_gc,
                plan_sharing,
                ..EngineConfig::default()
            });
        }
    }
    out
}

/// Non-temporal definitions that reference each other by name, so that
/// under partitioning the cascade is forced across replica boundaries
/// (X's owner relays into Y's, Y's into Z's).
fn defs() -> Vec<(&'static str, E, Context)> {
    vec![
        ("X", E::seq(E::prim("A"), E::prim("B")), Context::Chronicle),
        ("Y", E::and(E::prim("X"), E::prim("C")), Context::Recent),
        (
            "Z",
            E::or(E::prim("Y"), E::seq(E::prim("C"), E::prim("A"))),
            Context::Chronicle,
        ),
    ]
}

fn engine(seed: u64, mut config: EngineConfig, replicas: usize) -> Engine {
    config.coordinator_replicas = replicas;
    let d = defs();
    Engine::new(&scenario(seed), config, &["A", "B", "C"], &d).unwrap()
}

fn workload(seed: u64) -> Vec<(u64, u32, &'static str)> {
    let mut rng = SplitMix64::new(seed ^ 0x9A27_71E0);
    let n = rng.next_range(12, 48) as usize;
    let mut w: Vec<(u64, u32, &'static str)> = (0..n)
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
        .collect();
    w.sort();
    w
}

fn inject_all(e: &mut Engine, w: &[(u64, u32, &'static str)]) {
    for &(ms, site, ev) in w {
        e.inject(Nanos::from_millis(ms), site, ev, vec![]).unwrap();
    }
}

type Key = (String, Occurrence<decs::core::CompositeTimestamp>);

fn keys(det: Vec<Detection>) -> Vec<Key> {
    det.into_iter()
        .map(|d| (d.name.to_string(), d.occ))
        .collect()
}

/// One partition-invariance case: N = 1 vs N = 2 vs N = 4.
fn partition_case(seed: u64, cfg_idx: usize, config: EngineConfig) {
    let w = workload(seed);

    let run = |replicas: usize| {
        let mut e = engine(seed, config.clone(), replicas);
        inject_all(&mut e, &w);
        let det = keys(e.run_until(HORIZON));
        assert_eq!(
            e.buffered(),
            0,
            "seed {seed} cfg {cfg_idx} N={replicas}: stability buffers must drain"
        );
        (det, e.metrics())
    };

    let (single, _) = run(1);
    let (dual, m2) = run(2);
    let (quad, m4) = run(4);
    assert_eq!(
        single, dual,
        "seed {seed} cfg {cfg_idx}: N=2 must be bit-identical to N=1"
    );
    assert_eq!(
        single, quad,
        "seed {seed} cfg {cfg_idx}: N=4 must be bit-identical to N=1"
    );
    assert_eq!(m2.replica_count, 2);
    assert_eq!(m4.replica_count, 4);
    if !single.is_empty() {
        assert!(
            m2.routed_received > 0,
            "seed {seed} cfg {cfg_idx}: announcements must be subscription-routed"
        );
    }
}

fn run_block(seeds: std::ops::Range<u64>) {
    for seed in seeds {
        for (cfg_idx, config) in matrix().into_iter().enumerate() {
            partition_case(seed, cfg_idx, config);
        }
    }
}

#[test]
fn partition_block0_matches_single_coordinator() {
    run_block(0..2);
}

#[test]
fn partition_block1_matches_single_coordinator() {
    run_block(2..4);
}

#[test]
fn partition_block2_matches_single_coordinator() {
    run_block(4..6);
}

/// A replica crash mid-run, recovered from its per-replica WAL, leaves
/// the merged detection stream bit-identical to an uninterrupted
/// durability-off single-coordinator run. Exercises WAL replay of the
/// partitioned delivery path (routed announcements, peer relays, promise
/// state) plus post-recovery relay retransmission.
#[test]
fn replica_crash_and_recovery_is_invisible() {
    for seed in 0..6u64 {
        let w = workload(seed);
        let mut clean = engine(seed, EngineConfig::default(), 1);
        inject_all(&mut clean, &w);
        let expect = keys(clean.run_until(HORIZON));

        let dir =
            std::env::temp_dir().join(format!("decs-prop-partition-{}-{seed}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut rng = SplitMix64::new(seed ^ 0x0C1A_05E5_D1ED);
        let kill_event = rng.next_below(w.len() as u64) as usize;
        let kill_ms = w[kill_event].0 + rng.next_range(1, 900);
        let replicas = 2 + (seed % 2) as usize * 2; // N = 2 or 4
        let victim = rng.next_below(replicas as u64) as usize;

        let config = EngineConfig {
            coordinator_replicas: replicas,
            durability: true,
            wal_dir: Some(dir.to_string_lossy().into_owned()),
            ..EngineConfig::default()
        };
        let d = defs();
        let mut e = Engine::new(&scenario(seed), config, &["A", "B", "C"], &d).unwrap();
        inject_all(&mut e, &w);
        let mut det = keys(e.run_until(Nanos::from_millis(kill_ms)));
        e.crash_and_recover_replica(victim)
            .unwrap_or_else(|err| panic!("seed {seed}: replica recovery failed: {err}"));
        det.extend(keys(e.run_until(HORIZON)));

        assert_eq!(
            det, expect,
            "seed {seed} kill@{kill_ms}ms replica {victim}/{replicas}: detections \
             must be bit-identical to the uninterrupted single-coordinator run"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
