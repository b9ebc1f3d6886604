//! Kill-anywhere replay equivalence: crash the coordinator at a
//! seed-derived point mid-run, recover from WAL + snapshot, and the
//! detection stream is **bit-identical** (same composites, same composite
//! timestamps, same parameters, same canonical order) to a run that never
//! crashed — and to a run with durability off entirely.
//!
//! 24 seeded runs: 12 seeds × {plan sharing on/off}, each with its own
//! kill point derived from the seed (different watermark phases, snapshot phases,
//! and in-flight message populations at crash time). Every run carries
//! padding a seed-chosen size ([`pad`]), so the coordinator's log crosses
//! the compaction rule at seed-dependent points and most kills land
//! after at least one snapshot.
//!
//! Why equivalence holds — the argument the suite checks: the WAL records
//! every input the coordinator *consumed in order* before its effects
//! apply, so replay rebuilds the exact pre-crash state; inputs received
//! but not yet consumed (parked out-of-order messages) are lost with the
//! process, but the cumulative-ack protocol never acked them, so their
//! sites retransmit and release *content* is unchanged — the canonical
//! release key (max global tick, site, per-site arrival index) does not
//! depend on when a message (re)arrives. Timer stamps survive because the
//! crashed node's timer queue entries outlive it in the simulator (as an
//! OS timer file or cron would not — hence the recovery harness re-arms
//! them too, idempotently).

use decs::distrib::{Detection, Engine, EngineConfig};
use decs::simnet::{Scenario, ScenarioBuilder, SplitMix64};
use decs::snoop::{Context, EventExpr as E, Occurrence, Value};
use decs_chronos::{Granularity, Nanos};
use std::path::PathBuf;

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
/// changes how much machinery sits between a released notification and a
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

fn defs() -> Vec<(&'static str, E, Context)> {
    vec![
        ("X", E::seq(E::prim("A"), E::prim("B")), Context::Chronicle),
        (
            "Y",
            E::and(E::seq(E::prim("A"), E::prim("B")), E::prim("C")),
            Context::Recent,
        ),
        ("Z", E::or(E::prim("C"), E::prim("B")), Context::Chronicle),
    ]
}

/// The definitions' three primitive events, and `PAD`, which none reads.
const PRIMITIVES: [&str; 4] = ["A", "B", "C", "PAD"];

fn engine(seed: u64, mut config: EngineConfig, wal_dir: Option<&PathBuf>) -> Engine {
    config.durability = wal_dir.is_some();
    config.wal_dir = wal_dir.map(|p| p.to_string_lossy().into_owned());
    let d = defs();
    let mut e = Engine::new(&scenario(seed), config, &PRIMITIVES, &d).unwrap();
    pad(&mut e, seed);
    e
}

/// Log volume, so the coordinator compacts: every site injects a `PAD`
/// with a string parameter every 20 ms while the workload runs. The
/// string is 1 to 3 KiB, chosen by the seed, which varies when the log
/// crosses the compaction rule (about one snapshot per two or three
/// global ticks at 2 KiB). No definition reads `PAD`, so detections do not
/// change; without the padding a run logs about 20 KiB in all, below the
/// rule's 64 KiB floor, and would never compact.
fn pad(e: &mut Engine, seed: u64) {
    let bytes = 1_024 + (seed % 5) as usize * 512;
    for ms in (5..WORKLOAD_END_MS).step_by(20) {
        for site in 0..SITES {
            e.inject(
                Nanos::from_millis(ms),
                site,
                "PAD",
                vec![Value::Str("p".repeat(bytes))],
            )
            .unwrap();
        }
    }
}

fn workload(seed: u64) -> Vec<(u64, u32, &'static str)> {
    let mut rng = SplitMix64::new(seed ^ 0x4EC0_4E4D);
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

/// One kill-anywhere case. The kill point is the true time of a
/// seed-chosen workload event plus a seed-chosen sub-second offset, so
/// crashes land mid-stabilization, between snapshots, and between
/// heartbeats with equal indifference. Returns whether the coordinator
/// had compacted its log before the kill.
fn recovery_case(seed: u64, cfg_idx: usize, config: EngineConfig) -> bool {
    let w = workload(seed);

    // Reference: durability off, never crashes.
    let mut clean = engine(seed, config.clone(), None);
    inject_all(&mut clean, &w);
    let expect = keys(clean.run_until(HORIZON));

    // Durable run, killed at the seed-derived point and recovered.
    let dir = std::env::temp_dir().join(format!(
        "decs-prop-recovery-{}-{seed}-{cfg_idx}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let mut rng = SplitMix64::new(seed ^ 0x0C1A_05E5_B00F);
    let kill_event = rng.next_below(w.len() as u64) as usize;
    let kill_ms = w[kill_event].0 + rng.next_range(1, 900);
    let mut e = engine(seed, config, Some(&dir));
    inject_all(&mut e, &w);
    let mut det = keys(e.run_until(Nanos::from_millis(kill_ms)));
    let snapshotted = e.metrics().snapshots_taken > 0;
    e.crash_and_recover_coordinator()
        .unwrap_or_else(|err| panic!("seed {seed} cfg {cfg_idx}: recovery failed: {err}"));
    det.extend(keys(e.run_until(HORIZON)));

    assert_eq!(
        det, expect,
        "seed {seed} cfg {cfg_idx} kill@{kill_ms}ms: detections must be \
         bit-identical to the uninterrupted, durability-off run"
    );
    assert_eq!(e.buffered(), 0, "seed {seed}: stability buffer must drain");
    let m = e.metrics();
    assert!(m.wal_appends > 0, "seed {seed}: WAL must have logged");
    let _ = std::fs::remove_dir_all(&dir);
    snapshotted
}

/// Run a block of seeds through both configs. At least half of a block's
/// kills must come after a compaction, so what the block checks is
/// replay from a snapshot; `tests/recovery_failures.rs` checks replay
/// from genesis with logs too small to compact.
fn run_block(seeds: std::ops::Range<u64>) {
    let mut cases = 0;
    let mut snapshotted = 0;
    for seed in seeds.clone() {
        for (cfg_idx, config) in matrix().into_iter().enumerate() {
            cases += 1;
            snapshotted += usize::from(recovery_case(seed, cfg_idx, config));
        }
    }
    assert!(
        2 * snapshotted >= cases,
        "seeds {seeds:?}: only {snapshotted} of {cases} kills came after a snapshot"
    );
}

#[test]
fn kill_anywhere_block0_replays_equivalently() {
    run_block(0..4);
}

#[test]
fn kill_anywhere_block1_replays_equivalently() {
    run_block(4..8);
}

#[test]
fn kill_anywhere_block2_replays_equivalently() {
    run_block(8..12);
}

/// Temporal operators across a crash: a `Plus` definition arms detector
/// timers at the coordinator; the crash must preserve both the armed
/// timers (re-armed by recovery from the snapshot/WAL due times) and the
/// stamps of fires that already happened (logged part-by-part).
#[test]
fn temporal_definitions_survive_crashes() {
    let mut snapshotted = 0;
    for seed in 0..8u64 {
        let d = vec![
            (
                "P",
                E::plus(E::prim("A"), 3), // A + 3 global ticks
                Context::Chronicle,
            ),
            ("X", E::seq(E::prim("A"), E::prim("B")), Context::Chronicle),
        ];
        let config = EngineConfig::default();
        let w = workload(seed);

        let mut clean = Engine::new(&scenario(seed), config.clone(), &PRIMITIVES, &d).unwrap();
        pad(&mut clean, seed);
        inject_all(&mut clean, &w);
        let expect = keys(clean.run_until(HORIZON));
        assert!(
            expect.iter().any(|(n, _)| n == "P"),
            "seed {seed}: the Plus definition must actually fire"
        );

        let dir = std::env::temp_dir().join(format!(
            "decs-prop-recovery-plus-{}-{seed}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut rng = SplitMix64::new(seed ^ 0x7E3A_0123);
        let kill_ms = rng.next_range(500, 4_000);
        let durable = EngineConfig {
            durability: true,
            wal_dir: Some(dir.to_string_lossy().into_owned()),
            ..config
        };
        let mut e = Engine::new(&scenario(seed), durable, &PRIMITIVES, &d).unwrap();
        pad(&mut e, seed);
        inject_all(&mut e, &w);
        let mut det = keys(e.run_until(Nanos::from_millis(kill_ms)));
        snapshotted += usize::from(e.metrics().snapshots_taken > 0);
        e.crash_and_recover_coordinator().unwrap();
        det.extend(keys(e.run_until(HORIZON)));
        assert_eq!(
            det, expect,
            "seed {seed} kill@{kill_ms}ms: temporal detections must survive"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
    assert!(
        snapshotted >= 4,
        "timers must also be restored from snapshots: {snapshotted} of 8 kills after one"
    );
}

/// Crashing twice in one run composes: recover, run, crash again, recover
/// again — still bit-identical.
#[test]
fn double_crash_still_replays_equivalently() {
    for seed in 0..4u64 {
        let config = EngineConfig::default();
        let w = workload(seed);
        let mut clean = engine(seed, config.clone(), None);
        inject_all(&mut clean, &w);
        let expect = keys(clean.run_until(HORIZON));

        let dir = std::env::temp_dir().join(format!(
            "decs-prop-recovery-double-{}-{seed}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut e = engine(seed, config, Some(&dir));
        inject_all(&mut e, &w);
        let mut det = keys(e.run_until(Nanos::from_millis(1_000)));
        e.crash_and_recover_coordinator().unwrap();
        det.extend(keys(e.run_until(Nanos::from_millis(2_500))));
        e.crash_and_recover_coordinator().unwrap();
        det.extend(keys(e.run_until(HORIZON)));
        assert_eq!(det, expect, "seed {seed}: double crash must compose");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
