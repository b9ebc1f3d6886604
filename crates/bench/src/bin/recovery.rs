//! E17 — durability: crash-recovery cost as a function of the snapshot
//! interval.
//!
//! One fixed seeded workload runs through the durable engine; the
//! coordinator is killed at a fixed mid-run point and recovered from its
//! WAL + latest snapshot. The sweep varies the snapshot interval (in
//! watermark ticks; `0` rows mean snapshots disabled, i.e. recovery
//! replays the whole log). Every row records the WAL volume at the kill
//! point, how many records replay had to re-consume, the wall-clock
//! recovery time, and whether the post-recovery detections are
//! **bit-for-bit identical** to an uninterrupted, durability-off run —
//! the replay-equivalence headline, here measured rather than only
//! asserted.
//!
//! Run: `cargo run --release -p decs-bench --bin recovery` (full, writes
//! `BENCH_recovery.json` in the current directory).
//! `--smoke` runs a reduced workload, hard-asserts detection equality at
//! every interval, and validates the committed `BENCH_recovery.json`
//! (malformed JSON, a diverged row, or a no-op recovery fail with a
//! nonzero exit).

use decs_chronos::{Granularity, Nanos};
use decs_core::CompositeTimestamp;
use decs_distrib::{Engine, EngineConfig};
use decs_simnet::{Scenario, ScenarioBuilder, SplitMix64};
use decs_snoop::{Context, EventExpr as E, Occurrence};
use std::fmt::Write as _;

const SITES: u32 = 3;
const SEED: u64 = 42;
/// Snapshot intervals swept, in watermark ticks; 0 = snapshots disabled.
const INTERVALS: [u64; 4] = [0, 16, 4, 1];
const KILL_MS: u64 = 2_000;

struct Row {
    snapshot_interval: u64,
    kill_ms: u64,
    detections: usize,
    match_clean: bool,
    wal_appends: u64,
    wal_kib: f64,
    snapshots_taken: u64,
    recovery_replayed: u64,
    recovery_ms: f64,
}

type Keys = Vec<(String, Occurrence<CompositeTimestamp>)>;

fn scenario() -> Scenario {
    ScenarioBuilder::new(SITES, SEED)
        .global_granularity(Granularity::per_second(10).unwrap())
        .max_offset_ns(1_000_000)
        .build()
        .unwrap()
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

/// Deterministic workload shared by every interval: `events` injections
/// over the first 4 s on random sites.
fn workload(events: usize) -> Vec<(u64, u32, &'static str)> {
    let mut rng = SplitMix64::new(0xE17_4EC0);
    (0..events)
        .map(|_| {
            let ms = rng.next_range(10, 4_000);
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

fn engine(wal_dir: Option<&std::path::Path>, interval: u64) -> Engine {
    let config = EngineConfig {
        durability: wal_dir.is_some(),
        snapshot_interval: if interval == 0 { u64::MAX } else { interval },
        wal_dir: wal_dir.map(|p| p.to_string_lossy().into_owned()),
        ..EngineConfig::default()
    };
    let d = defs();
    Engine::new(&scenario(), config, &["A", "B", "C"], &d).unwrap()
}

fn inject_all(e: &mut Engine, w: &[(u64, u32, &'static str)]) {
    for &(ms, site, ev) in w {
        e.inject(Nanos::from_millis(ms), site, ev, vec![]).unwrap();
    }
}

fn keys(det: Vec<decs_distrib::Detection>) -> Keys {
    det.into_iter()
        .map(|d| (d.name.to_string(), d.occ))
        .collect()
}

fn run_case(interval: u64, w: &[(u64, u32, &'static str)], horizon_secs: u64, clean: &Keys) -> Row {
    let dir = std::env::temp_dir().join(format!(
        "decs-bench-recovery-{}-{interval}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let mut e = engine(Some(&dir), interval);
    inject_all(&mut e, w);
    let mut det = keys(e.run_until(Nanos::from_millis(KILL_MS)));
    e.crash_and_recover_coordinator()
        .expect("recovery must succeed");
    det.extend(keys(e.run_until(Nanos::from_secs(horizon_secs))));
    let m = e.metrics();
    let row = Row {
        snapshot_interval: interval,
        kill_ms: KILL_MS,
        detections: det.len(),
        match_clean: det == *clean,
        wal_appends: m.wal_appends,
        wal_kib: m.wal_bytes as f64 / 1024.0,
        snapshots_taken: m.snapshots_taken,
        recovery_replayed: m.recovery_replayed,
        recovery_ms: m.recovery_ns as f64 / 1e6,
    };
    let _ = std::fs::remove_dir_all(&dir);
    row
}

fn run_matrix(events: usize, horizon_secs: u64) -> Vec<Row> {
    let w = workload(events);
    // Reference: durability off, never crashes.
    let mut e = engine(None, 0);
    inject_all(&mut e, &w);
    let clean = keys(e.run_until(Nanos::from_secs(horizon_secs)));
    INTERVALS
        .iter()
        .map(|&interval| run_case(interval, &w, horizon_secs, &clean))
        .collect()
}

fn render_json(mode: &str, rows: &[Row]) -> String {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut j = String::new();
    let _ = writeln!(j, "{{");
    let _ = writeln!(j, "  \"bench\": \"recovery\",");
    let _ = writeln!(j, "  \"schema\": 1,");
    let _ = writeln!(j, "  \"mode\": \"{mode}\",");
    let _ = writeln!(j, "  \"threads\": {threads},");
    let _ = writeln!(j, "  \"rows\": [");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(
            j,
            "    {{\"snapshot_interval\": {}, \"kill_ms\": {}, \"detections\": {}, \
             \"match_clean\": {}, \"wal_appends\": {}, \"wal_kib\": {:.1}, \
             \"snapshots_taken\": {}, \"recovery_replayed\": {}, \"recovery_ms\": {:.3}}}{comma}",
            r.snapshot_interval,
            r.kill_ms,
            r.detections,
            r.match_clean,
            r.wal_appends,
            r.wal_kib,
            r.snapshots_taken,
            r.recovery_replayed,
            r.recovery_ms
        );
    }
    let _ = writeln!(j, "  ]");
    let _ = writeln!(j, "}}");
    j
}

/// Pull `"field": <value>` out of the row with the given snapshot
/// interval. The baseline is our own emission, so substring scanning is
/// an adequate parser — anything it can't find is treated as malformed.
fn extract<'a>(json: &'a str, interval: u64, field: &str) -> Option<&'a str> {
    let obj = &json[json.find(&format!("\"snapshot_interval\": {interval},"))?..];
    let obj = &obj[..obj.find('}')?];
    let at = obj.find(&format!("\"{field}\":"))? + field.len() + 4;
    let rest = &obj[at..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim())
}

fn check_rows(rows: &[Row]) -> bool {
    let mut failed = false;
    for r in rows {
        if !r.match_clean {
            eprintln!(
                "FAIL — detections diverged from the uninterrupted run at interval {}",
                r.snapshot_interval
            );
            failed = true;
        }
        if r.wal_appends == 0 {
            eprintln!(
                "FAIL — WAL logged nothing at interval {} (durability inert?)",
                r.snapshot_interval
            );
            failed = true;
        }
        if r.snapshot_interval == 1 && r.snapshots_taken == 0 {
            eprintln!("FAIL — interval 1 took no snapshots");
            failed = true;
        }
    }
    // Snapshots exist to bound replay: the no-snapshot row must replay at
    // least as much as the tightest-interval row.
    let replay_of = |i: u64| {
        rows.iter()
            .find(|r| r.snapshot_interval == i)
            .map(|r| r.recovery_replayed)
    };
    if let (Some(none), Some(tight)) = (replay_of(0), replay_of(1)) {
        if none < tight {
            eprintln!("FAIL — snapshots increased replay ({none} < {tight})");
            failed = true;
        }
        if none == 0 {
            eprintln!("FAIL — no-snapshot recovery replayed nothing");
            failed = true;
        }
    }
    failed
}

fn smoke(baseline_path: &str) -> i32 {
    let rows = run_matrix(40, 20);
    let json = render_json("smoke", &rows);
    std::fs::create_dir_all("target").ok();
    std::fs::write("target/BENCH_recovery_smoke.json", &json).ok();
    print!("{json}");

    let mut failed = check_rows(&rows);

    let Ok(baseline) = std::fs::read_to_string(baseline_path) else {
        eprintln!("smoke: FAIL — missing baseline {baseline_path}");
        return 1;
    };
    for &interval in &INTERVALS {
        match extract(&baseline, interval, "match_clean") {
            Some("true") => {}
            Some(v) => {
                eprintln!("smoke: FAIL — baseline interval {interval} has match_clean = {v}");
                failed = true;
            }
            None => {
                eprintln!("smoke: FAIL — baseline is malformed (no row for interval {interval})");
                failed = true;
            }
        }
    }
    match extract(&baseline, 0, "recovery_replayed").and_then(|v| v.parse::<u64>().ok()) {
        Some(n) if n > 0 => {}
        _ => {
            eprintln!("smoke: FAIL — baseline no-snapshot recovery replayed nothing");
            failed = true;
        }
    }
    if failed {
        1
    } else {
        eprintln!("smoke: OK");
        0
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--smoke") {
        std::process::exit(smoke("BENCH_recovery.json"));
    }

    eprintln!("E17 — recovery cost vs snapshot interval (full run)");
    let rows = run_matrix(200, 30);
    assert!(!check_rows(&rows), "full run failed its invariants");
    let json = render_json("full", &rows);
    std::fs::write("BENCH_recovery.json", &json).expect("write BENCH_recovery.json");
    print!("{json}");
    eprintln!("wrote BENCH_recovery.json");
}
