//! E15 — chaos: detection under a lossy network, as a function of the
//! message drop rate.
//!
//! One fixed seeded workload runs through the distributed engine at drop
//! rates 0% / 1% / 5% / 20% (applied to both directions of every
//! site↔coordinator link, with 2% duplication on the lossy legs). For
//! every rate the bench records the detection count, whether the
//! detections are **bit-for-bit identical** to the fault-free run (the
//! chaos suite's headline, here measured rather than only asserted), the
//! mean stability latency, and the retransmission overhead (retransmits,
//! acks, duplicates dropped, link-level drops).
//!
//! A second matrix runs **crash/restart schedules**: durable sites are
//! killed mid-run and restarted (single crash, crash under a lossy
//! network, two staggered crashes). Each row records bit-identity against
//! a fault-free oracle on the same workload filtered of the injections
//! the dead site never saw, plus the lifecycle metrics — restarts,
//! rejoins, epoch reached, Hello→consumed rejoin latency, and the mean
//! stability latency of the post-rejoin releases.
//!
//! Run: `cargo run --release -p decs-bench --bin chaos` (full, writes
//! `BENCH_chaos.json` in the current directory).
//! `--smoke` runs a reduced workload, hard-asserts detection equality at
//! every drop rate *and* every crash schedule, and validates the
//! committed `BENCH_chaos.json` (malformed JSON, a non-matching row, a
//! schedule row with no rejoin, or zero retransmissions on the lossy
//! legs fail with a nonzero exit).

use decs_chronos::{Granularity, Nanos};
use decs_core::CompositeTimestamp;
use decs_distrib::{Engine, EngineConfig};
use decs_simnet::{LinkConfig, ScenarioBuilder, SplitMix64};
use decs_snoop::{Context, EventExpr as E};
use std::fmt::Write as _;

const SITES: u32 = 4;
const DROP_PPM: [u32; 4] = [0, 10_000, 50_000, 200_000];
/// Duplication rate on the lossy legs (0 on the clean leg).
const DUP_PPM: u32 = 20_000;

struct Row {
    drop_ppm: u32,
    detections: usize,
    match_clean: bool,
    mean_stability_ms: f64,
    retransmits: u64,
    acks_sent: u64,
    duplicates_dropped: u64,
    link_dropped: u64,
    retx_per_msg: f64,
}

type Keys = Vec<(String, CompositeTimestamp)>;

/// Deterministic workload shared by every rate: `events` injections over
/// the first 3 s on random sites.
fn workload(events: usize) -> Vec<(u64, u32, &'static str)> {
    let mut rng = SplitMix64::new(0xE15_C4A05);
    (0..events)
        .map(|_| {
            let ms = rng.next_range(10, 3_000);
            let site = rng.next_below(u64::from(SITES)) as u32;
            let ev = if rng.next_below(2) == 0 { "A" } else { "B" };
            (ms, site, ev)
        })
        .collect()
}

fn run_case(drop_ppm: u32, w: &[(u64, u32, &'static str)], horizon_secs: u64) -> (Keys, Row) {
    let scenario = ScenarioBuilder::new(SITES, 42)
        .global_granularity(Granularity::per_second(10).unwrap())
        .max_offset_ns(1_000_000)
        .build()
        .unwrap();
    let mut e = Engine::new(
        &scenario,
        EngineConfig::default(),
        &["A", "B"],
        &[("X", E::seq(E::prim("A"), E::prim("B")), Context::Chronicle)],
    )
    .unwrap();
    if drop_ppm > 0 {
        for site in 0..SITES {
            e.set_link_pair(site, LinkConfig::lan().with_faults(drop_ppm, DUP_PPM));
        }
    }
    for &(ms, site, ev) in w {
        e.inject(Nanos::from_millis(ms), site, ev, vec![]).unwrap();
    }
    let det = e.run_for(Nanos::from_secs(horizon_secs));
    let keys: Keys = det
        .into_iter()
        .map(|d| (d.name.to_string(), d.occ.time))
        .collect();
    let m = e.metrics();
    let c = e.fault_counters();
    let row = Row {
        drop_ppm,
        detections: keys.len(),
        match_clean: true, // filled by the caller against the 0% run
        mean_stability_ms: m.mean_stability_latency_ns() as f64 / 1e6,
        retransmits: m.retransmits,
        acks_sent: m.acks_sent,
        duplicates_dropped: m.duplicates_dropped,
        link_dropped: c.dropped,
        retx_per_msg: if m.messages_processed == 0 {
            0.0
        } else {
            m.retransmits as f64 / m.messages_processed as f64
        },
    };
    (keys, row)
}

/// One crash/restart schedule: `crashes` holds `(site, crash_ms,
/// restart_ms)` actions. Both instants land at +500 µs so they never tie
/// with a whole-millisecond injection in the event queue.
struct Schedule {
    name: &'static str,
    drop_ppm: u32,
    crashes: &'static [(u32, u64, u64)],
}

const SCHEDULES: [Schedule; 3] = [
    Schedule {
        name: "single_crash",
        drop_ppm: 0,
        crashes: &[(1, 1_200, 2_700)],
    },
    Schedule {
        name: "crash_lossy",
        drop_ppm: 50_000,
        crashes: &[(2, 1_500, 3_200)],
    },
    Schedule {
        name: "double_crash",
        drop_ppm: 10_000,
        crashes: &[(0, 900, 2_000), (3, 1_800, 3_300)],
    },
];

struct CrashRow {
    name: &'static str,
    drop_ppm: u32,
    detections: usize,
    match_clean: bool,
    site_restarts: u64,
    rejoins: u64,
    epoch_max: u64,
    rejoin_latency_ms: f64,
    post_rejoin_stability_ms: f64,
    retransmits: u64,
    retx_per_msg: f64,
}

fn crash_engine(config: EngineConfig) -> Engine {
    let scenario = ScenarioBuilder::new(SITES, 42)
        .global_granularity(Granularity::per_second(10).unwrap())
        .max_offset_ns(1_000_000)
        .build()
        .unwrap();
    Engine::new(
        &scenario,
        config,
        &["A", "B"],
        &[("X", E::seq(E::prim("A"), E::prim("B")), Context::Chronicle)],
    )
    .unwrap()
}

/// An injection at whole-ms `ms` reaches a site crashed over
/// `(crash+500 µs, restart+500 µs)` iff it is outside `(crash, restart]`.
fn survives(s: &Schedule, ms: u64, site: u32) -> bool {
    !s.crashes
        .iter()
        .any(|&(cs, crash, restart)| site == cs && ms > crash && ms <= restart)
}

fn run_crash_case(s: &Schedule, w: &[(u64, u32, &'static str)], horizon_secs: u64) -> CrashRow {
    // Fault-free oracle on the same workload minus the injections the
    // dead site never saw: those occurrences exist nowhere, so the clean
    // run must not count them either.
    let clean: Keys = {
        let mut e = crash_engine(EngineConfig::default());
        for &(ms, site, ev) in w.iter().filter(|&&(ms, site, _)| survives(s, ms, site)) {
            e.inject(Nanos::from_millis(ms), site, ev, vec![]).unwrap();
        }
        e.run_for(Nanos::from_secs(horizon_secs))
            .into_iter()
            .map(|d| (d.name.to_string(), d.occ.time))
            .collect()
    };

    let dir = std::env::temp_dir().join(format!("decs-chaos-{}-{}", std::process::id(), s.name));
    let _ = std::fs::remove_dir_all(&dir);
    let mut e = crash_engine(EngineConfig {
        site_durability: true,
        wal_dir: Some(dir.to_string_lossy().into_owned()),
        retransmit_jitter_seed: Some(0xE15),
        ..EngineConfig::default()
    });
    if s.drop_ppm > 0 {
        for site in 0..SITES {
            e.set_link_pair(site, LinkConfig::lan().with_faults(s.drop_ppm, DUP_PPM));
        }
    }
    let mut restart_max = 0u64;
    for &(site, crash, restart) in s.crashes {
        e.crash_site(Nanos(crash * 1_000_000 + 500_000), site);
        e.restart_site(Nanos(restart * 1_000_000 + 500_000), site);
        restart_max = restart_max.max(restart);
    }
    for &(ms, site, ev) in w {
        e.inject(Nanos::from_millis(ms), site, ev, vec![]).unwrap();
    }
    // Split the run at the last restart so the stability latency of the
    // post-rejoin releases can be isolated from the pre-crash steady state.
    let mut det = e.run_until(Nanos::from_millis(restart_max));
    let at_rejoin = e.metrics();
    det.extend(e.run_until(Nanos::from_secs(horizon_secs)));
    let m = e.metrics();
    let _ = std::fs::remove_dir_all(&dir);

    let keys: Keys = det
        .into_iter()
        .map(|d| (d.name.to_string(), d.occ.time))
        .collect();
    let post_released = m.events_released - at_rejoin.events_released;
    let post_sum = m.stability_latency_sum_ns - at_rejoin.stability_latency_sum_ns;
    CrashRow {
        name: s.name,
        drop_ppm: s.drop_ppm,
        detections: keys.len(),
        match_clean: keys == clean,
        site_restarts: m.site_restarts,
        rejoins: m.rejoins,
        epoch_max: m.epoch_max,
        rejoin_latency_ms: m.rejoin_latency_ns as f64 / 1e6,
        post_rejoin_stability_ms: if post_released == 0 {
            0.0
        } else {
            (post_sum / u128::from(post_released)) as f64 / 1e6
        },
        retransmits: m.retransmits,
        retx_per_msg: if m.messages_processed == 0 {
            0.0
        } else {
            m.retransmits as f64 / m.messages_processed as f64
        },
    }
}

fn run_crash_matrix(events: usize, horizon_secs: u64) -> Vec<CrashRow> {
    let w = workload(events);
    SCHEDULES
        .iter()
        .map(|s| run_crash_case(s, &w, horizon_secs))
        .collect()
}

fn run_matrix(events: usize, horizon_secs: u64) -> Vec<Row> {
    let w = workload(events);
    let mut clean_keys: Option<Keys> = None;
    let mut rows = Vec::new();
    for &ppm in &DROP_PPM {
        let (keys, mut row) = run_case(ppm, &w, horizon_secs);
        match &clean_keys {
            None => clean_keys = Some(keys),
            Some(clean) => row.match_clean = *clean == keys,
        }
        rows.push(row);
    }
    rows
}

fn render_json(mode: &str, rows: &[Row], crash_rows: &[CrashRow]) -> String {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut j = String::new();
    let _ = writeln!(j, "{{");
    let _ = writeln!(j, "  \"bench\": \"chaos\",");
    let _ = writeln!(j, "  \"schema\": 2,");
    let _ = writeln!(j, "  \"mode\": \"{mode}\",");
    let _ = writeln!(j, "  \"threads\": {threads},");
    let _ = writeln!(j, "  \"rows\": [");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(
            j,
            "    {{\"drop_ppm\": {}, \"detections\": {}, \"match_clean\": {}, \
             \"mean_stability_ms\": {:.2}, \"retransmits\": {}, \"acks_sent\": {}, \
             \"duplicates_dropped\": {}, \"link_dropped\": {}, \"retx_per_msg\": {:.4}}}{comma}",
            r.drop_ppm,
            r.detections,
            r.match_clean,
            r.mean_stability_ms,
            r.retransmits,
            r.acks_sent,
            r.duplicates_dropped,
            r.link_dropped,
            r.retx_per_msg
        );
    }
    let _ = writeln!(j, "  ],");
    let _ = writeln!(j, "  \"crash_rows\": [");
    for (i, r) in crash_rows.iter().enumerate() {
        let comma = if i + 1 < crash_rows.len() { "," } else { "" };
        let _ = writeln!(
            j,
            "    {{\"schedule\": \"{}\", \"drop_ppm\": {}, \"detections\": {}, \
             \"match_clean\": {}, \"site_restarts\": {}, \"rejoins\": {}, \
             \"epoch_max\": {}, \"rejoin_latency_ms\": {:.3}, \
             \"post_rejoin_stability_ms\": {:.2}, \"retransmits\": {}, \
             \"retx_per_msg\": {:.4}}}{comma}",
            r.name,
            r.drop_ppm,
            r.detections,
            r.match_clean,
            r.site_restarts,
            r.rejoins,
            r.epoch_max,
            r.rejoin_latency_ms,
            r.post_rejoin_stability_ms,
            r.retransmits,
            r.retx_per_msg
        );
    }
    let _ = writeln!(j, "  ]");
    let _ = writeln!(j, "}}");
    j
}

/// Pull `"field": <value>` out of the row with the given drop rate. The
/// baseline is our own emission, so substring scanning is an adequate
/// parser — anything it can't find is treated as malformed.
fn extract<'a>(json: &'a str, drop_ppm: u32, field: &str) -> Option<&'a str> {
    let obj = &json[json.find(&format!("\"drop_ppm\": {drop_ppm},"))?..];
    let obj = &obj[..obj.find('}')?];
    let at = obj.find(&format!("\"{field}\":"))? + field.len() + 4;
    let rest = &obj[at..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim())
}

/// Pull `"field": <value>` out of the crash row with the given schedule
/// name.
fn extract_sched<'a>(json: &'a str, name: &str, field: &str) -> Option<&'a str> {
    let obj = &json[json.find(&format!("\"schedule\": \"{name}\","))?..];
    let obj = &obj[..obj.find('}')?];
    let at = obj.find(&format!("\"{field}\":"))? + field.len() + 4;
    let rest = &obj[at..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim())
}

fn smoke(baseline_path: &str) -> i32 {
    let rows = run_matrix(40, 20);
    let crash_rows = run_crash_matrix(40, 20);
    let json = render_json("smoke", &rows, &crash_rows);
    std::fs::create_dir_all("target").ok();
    std::fs::write("target/BENCH_chaos_smoke.json", &json).ok();
    print!("{json}");

    let mut failed = false;
    for r in &rows {
        if !r.match_clean {
            eprintln!(
                "smoke: FAIL — detections diverged from the fault-free run at {} ppm",
                r.drop_ppm
            );
            failed = true;
        }
        if r.drop_ppm >= 50_000 && r.retransmits == 0 {
            eprintln!(
                "smoke: FAIL — no retransmissions at {} ppm (protocol inert?)",
                r.drop_ppm
            );
            failed = true;
        }
    }
    for (r, s) in crash_rows.iter().zip(&SCHEDULES) {
        if !r.match_clean {
            eprintln!(
                "smoke: FAIL — schedule {} diverged from its fault-free oracle",
                r.name
            );
            failed = true;
        }
        let expected = s.crashes.len() as u64;
        if r.site_restarts != expected || r.rejoins < expected || r.epoch_max != 1 {
            eprintln!(
                "smoke: FAIL — schedule {} lifecycle off: restarts {} (want {}), \
                 rejoins {}, epoch_max {}",
                r.name, r.site_restarts, expected, r.rejoins, r.epoch_max
            );
            failed = true;
        }
    }

    let Ok(baseline) = std::fs::read_to_string(baseline_path) else {
        eprintln!("smoke: FAIL — missing baseline {baseline_path}");
        return 1;
    };
    for &ppm in &DROP_PPM {
        match extract(&baseline, ppm, "match_clean") {
            Some("true") => {}
            Some(v) => {
                eprintln!("smoke: FAIL — baseline row {ppm} ppm has match_clean = {v}");
                failed = true;
            }
            None => {
                eprintln!("smoke: FAIL — baseline is malformed (no row for {ppm} ppm)");
                failed = true;
            }
        }
    }
    match extract(&baseline, 0, "detections").and_then(|v| v.parse::<u64>().ok()) {
        Some(d) if d > 0 => {}
        _ => {
            eprintln!("smoke: FAIL — baseline fault-free run detected nothing");
            failed = true;
        }
    }
    for s in &SCHEDULES {
        match extract_sched(&baseline, s.name, "match_clean") {
            Some("true") => {}
            Some(v) => {
                eprintln!(
                    "smoke: FAIL — baseline schedule {} has match_clean = {v}",
                    s.name
                );
                failed = true;
            }
            None => {
                eprintln!(
                    "smoke: FAIL — baseline is malformed (no crash row for {})",
                    s.name
                );
                failed = true;
            }
        }
        match extract_sched(&baseline, s.name, "rejoins").and_then(|v| v.parse::<u64>().ok()) {
            Some(n) if n >= s.crashes.len() as u64 => {}
            _ => {
                eprintln!(
                    "smoke: FAIL — baseline schedule {} recorded no rejoin",
                    s.name
                );
                failed = true;
            }
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
        std::process::exit(smoke("BENCH_chaos.json"));
    }

    eprintln!("E15 — detection vs drop rate (full run)");
    let rows = run_matrix(200, 30);
    for r in &rows {
        assert!(
            r.match_clean,
            "detections diverged at {} ppm — the reliability layer is broken",
            r.drop_ppm
        );
    }
    eprintln!("E15 — detection across crash/restart schedules");
    let crash_rows = run_crash_matrix(200, 30);
    for r in &crash_rows {
        assert!(
            r.match_clean,
            "schedule {} diverged — site recovery is broken",
            r.name
        );
    }
    let json = render_json("full", &rows, &crash_rows);
    std::fs::write("BENCH_chaos.json", &json).expect("write BENCH_chaos.json");
    print!("{json}");
    eprintln!("wrote BENCH_chaos.json");
}
