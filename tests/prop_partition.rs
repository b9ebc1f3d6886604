//! Partition-count invariance: a detection plane split across N
//! coordinator replicas (rendezvous-partitioned definitions,
//! subscription-routed announcements, replica → replica relays) emits a
//! detection stream **bit-identical** (same composites, same composite
//! timestamps, same parameters, same canonical order) to the classic
//! single-coordinator deployment — for every N, across the full config
//! matrix, and across a replica crash + WAL recovery.
//!
//! 24 seeded comparisons: 12 seeds × {plan sharing on/off}, each run at
//! N = 1 (classic plane), N = 2 and N = 4 and compared pairwise. The
//! definitions chain across partitions (the third consumes the second,
//! which consumes the first; the fourth also consumes the first), so each
//! block asserts that cascade events were relayed replica to replica at
//! both N, not just disjoint sub-planes.
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
use decs::simnet::{LinkConfig, Scenario, ScenarioBuilder, SplitMix64};
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

/// The config matrix: both plan-sharing modes, the one switch that
/// changes how much machinery sits between a routed announcement and a
/// detection.
fn matrix() -> Vec<EngineConfig> {
    [true, false]
        .into_iter()
        .map(|plan_sharing| EngineConfig {
            plan_sharing,
            ..EngineConfig::default()
        })
        .collect()
}

/// Non-temporal definitions that reference each other by name, so that
/// under partitioning the cascade is forced across replica boundaries.
/// Rendezvous placement puts X, Y and Z on one replica at N = 2, so W
/// (owned by the other) is what makes X's owner relay there; at N = 4,
/// Y's owner relays into Z's and X's into W's.
fn defs() -> Vec<(&'static str, E, Context)> {
    vec![
        ("X", E::seq(E::prim("A"), E::prim("B")), Context::Chronicle),
        ("Y", E::and(E::prim("X"), E::prim("C")), Context::Recent),
        (
            "Z",
            E::or(E::prim("Y"), E::seq(E::prim("C"), E::prim("A"))),
            Context::Chronicle,
        ),
        ("W", E::seq(E::prim("X"), E::prim("C")), Context::Chronicle),
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

/// One partition-invariance case: N = 1 vs N = 2 vs N = 4. Returns the
/// relayed cascade events at N = 2 and at N = 4.
fn partition_case(seed: u64, cfg_idx: usize, config: EngineConfig) -> (u64, u64) {
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
    (m2.relay_events, m4.relay_events)
}

fn run_block(seeds: std::ops::Range<u64>) {
    let (mut relayed2, mut relayed4) = (0, 0);
    for seed in seeds.clone() {
        for (cfg_idx, config) in matrix().into_iter().enumerate() {
            let (r2, r4) = partition_case(seed, cfg_idx, config);
            relayed2 += r2;
            relayed4 += r4;
        }
    }
    // The definitions chain across partitions, so each block must forward
    // cascade events replica to replica at both N, not just route
    // announcements.
    assert!(relayed2 > 0, "seeds {seeds:?}: N=2 relayed nothing");
    assert!(relayed4 > 0, "seeds {seeds:?}: N=4 relayed nothing");
}

#[test]
fn partition_block0_matches_single_coordinator() {
    run_block(0..4);
}

#[test]
fn partition_block1_matches_single_coordinator() {
    run_block(4..8);
}

#[test]
fn partition_block2_matches_single_coordinator() {
    run_block(8..12);
}

/// A replica's promise may not run ahead of its own watermark view. X's
/// owner (replica 0, by rendezvous placement) sees site 0 over a 60 ms
/// uplink; W's owner (replica 1) sees every site over the LAN. Site 0
/// stamps B at tick 20, completing X, and site 2 stamps C2 later in the
/// same tick. When the tick-21 beacons reach replica 1, its view passes
/// tick 20 while replica 0's view of site 0 is still at 20 and B is
/// still in flight to it. Replica 0's promise is then `(20, 0, 0, 0)`,
/// below C2's slot, so replica 1 holds C2 until X's depth-1 relay (whose
/// root B sorts first) arrives. A promise one tick ahead would let it
/// feed C2 first, and the recent-context `AND` would pair X only with C2,
/// where the single coordinator pairs it with C1 and then with C2.
#[test]
fn lagging_replica_promise_holds_a_peer_behind_its_relay() {
    let defs = [
        ("X", E::seq(E::prim("A"), E::prim("B")), Context::Chronicle),
        ("W", E::and(E::prim("X"), E::prim("C")), Context::Recent),
    ];
    let w = [
        (1_000, 0, "A"),
        (1_500, 1, "C"),
        (2_050, 0, "B"),
        (2_060, 2, "C"),
    ];
    let run = |replicas: usize| {
        let config = EngineConfig {
            coordinator_replicas: replicas,
            ..EngineConfig::default()
        };
        let mut e = Engine::new(&scenario(1), config, &["A", "B", "C"], &defs).unwrap();
        if replicas == 2 {
            let slow = LinkConfig {
                base_latency_ns: 60_000_000,
                jitter_ns: 0,
                ..LinkConfig::lan()
            };
            e.set_uplink(0, 0, slow);
        }
        inject_all(&mut e, &w);
        let det = keys(e.run_until(HORIZON));
        (det, e.metrics())
    };
    let (single, _) = run(1);
    let (dual, m) = run(2);
    let names: Vec<&str> = single.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(names, ["X", "W", "W"]);
    assert!(m.relay_events > 0, "X must be relayed to W's owner");
    assert_eq!(single, dual);
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
