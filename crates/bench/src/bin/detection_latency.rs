//! E9 (extension) — detection latency vs `g_g` and heartbeat interval.
//!
//! The stability rule delays releasing a notification until every site's
//! watermark passes its global tick, so a detection waits for every site
//! to announce the next tick and end-to-end latency grows with the global
//! granularity. How long a site's watermark lags its clock depends on how
//! busy it is: an idle site announces a new tick only with its next
//! heartbeat, a busy one as soon as it stamps an event in the tick. This
//! experiment sweeps `g_g` and the heartbeat over a cross-site sequence
//! workload on idle sites and on busy ones (each also injecting an
//! unsubscribed filler every millisecond), reports the coordinator's mean
//! stability latency and the end-to-end detection latency, and checks the
//! verdict: all 40 sequences detect in every cell, idle latency grows with
//! the heartbeat, busy latency does not, and busy latency stays below one
//! `g_g` (a rule that waited out an extra tick would sit above it).
//!
//! Run: `cargo run --release -p decs-bench --bin detection_latency`
//! (exit 1 when a check fails)

use decs_bench::print_table;
use decs_chronos::{Granularity, Nanos};
use decs_distrib::{Engine, EngineConfig};
use decs_simnet::ScenarioBuilder;
use decs_snoop::{Context, EventExpr as E};

const PAIRS: usize = 40;
const GG_MS: [u64; 4] = [10, 50, 100, 200];
const HB_MS: [u64; 3] = [5, 20, 100];
/// Largest spread of a busy leg's mean e2e latency across the heartbeat
/// sweep at one `g_g`: one LAN link latency. A busy site announces each
/// tick within a filler spacing (1 ms) of its start, so a heartbeat can
/// only beat that by part of the spacing; the measured spreads are at
/// most 0.02 ms, where the idle legs spread by 47–95 ms.
const BUSY_SPREAD_MS: f64 = 0.5;

struct Leg {
    detections: usize,
    mean_stability_ms: f64,
    mean_e2e_ms: f64,
}

fn run(gg_ms: u64, hb_ms: u64, busy: bool) -> Leg {
    let scenario = ScenarioBuilder::new(4, 99)
        .max_offset_ns(1_000_000)
        .max_drift_ppb(5_000)
        .global_granularity(Granularity::from_millis(gg_ms).unwrap())
        .build()
        .unwrap();
    let mut engine = Engine::new(
        &scenario,
        EngineConfig {
            heartbeat_interval: Nanos::from_millis(hb_ms),
            ..EngineConfig::default()
        },
        &["A", "B", "F"],
        &[("X", E::seq(E::prim("A"), E::prim("B")), Context::Chronicle)],
    )
    .unwrap();

    // A;B pairs, 4·g_g apart so each pair is provably ordered; pairs are
    // spaced well apart.
    let mut b_times = Vec::new();
    let start = 1_000_000_000u64;
    let mut t = start;
    for k in 0..PAIRS as u64 {
        let site_a = (k % 4) as u32;
        let site_b = ((k + 1) % 4) as u32;
        engine.inject(Nanos(t), site_a, "A", vec![]).unwrap();
        let tb = t + 4 * gg_ms * 1_000_000;
        engine.inject(Nanos(tb), site_b, "B", vec![]).unwrap();
        b_times.push(tb);
        t = tb + 10 * gg_ms * 1_000_000;
    }
    if busy {
        // The filler, a quarter millisecond apart across sites so no two
        // injections tie, from the first pair to past the last.
        let mut f = start + 500_000;
        while f < t {
            for site in 0..4u32 {
                let at = Nanos(f + u64::from(site) * 250_000);
                engine.inject(at, site, "F", vec![]).unwrap();
            }
            f += 1_000_000;
        }
    }
    let detections = engine.run_for(Nanos(t + 5_000_000_000));
    let m = engine.metrics();
    // End-to-end: detection true time − terminator injection true time.
    let mut e2e_sum = 0f64;
    for (d, tb) in detections.iter().zip(&b_times) {
        e2e_sum += (d.detected_at.get().saturating_sub(*tb)) as f64 / 1e6;
    }
    Leg {
        detections: detections.len(),
        mean_stability_ms: m.mean_stability_latency_ns() as f64 / 1e6,
        mean_e2e_ms: if detections.is_empty() {
            f64::NAN
        } else {
            e2e_sum / detections.len() as f64
        },
    }
}

fn main() {
    println!("E9 — detection latency vs global granularity and heartbeat,");
    println!("idle sites vs busy sites (filler every 1 ms)\n");
    let mut rows = Vec::new();
    let mut failures = Vec::new();
    for gg_ms in GG_MS {
        let cells: Vec<(Leg, Leg)> = HB_MS
            .iter()
            .map(|&hb_ms| (run(gg_ms, hb_ms, false), run(gg_ms, hb_ms, true)))
            .collect();
        for (&hb_ms, (idle, busy)) in HB_MS.iter().zip(&cells) {
            rows.push(vec![
                format!("{gg_ms}"),
                format!("{hb_ms}"),
                format!("{}/{}", idle.detections, busy.detections),
                format!("{:.2}", idle.mean_stability_ms),
                format!("{:.2}", idle.mean_e2e_ms),
                format!("{:.2}", busy.mean_stability_ms),
                format!("{:.2}", busy.mean_e2e_ms),
            ]);
            if idle.detections != PAIRS || busy.detections != PAIRS {
                failures.push(format!(
                    "g_g {gg_ms} ms, heartbeat {hb_ms} ms: {}/{} of {PAIRS} detected",
                    idle.detections, busy.detections
                ));
            }
        }
        let idle: Vec<f64> = cells.iter().map(|(i, _)| i.mean_e2e_ms).collect();
        if !idle.windows(2).all(|w| w[0] < w[1]) {
            failures.push(format!(
                "g_g {gg_ms} ms: idle latency {idle:.2?} does not grow with the heartbeat"
            ));
        }
        let busy: Vec<f64> = cells.iter().map(|(_, b)| b.mean_e2e_ms).collect();
        let spread = busy.iter().copied().fold(f64::MIN, f64::max)
            - busy.iter().copied().fold(f64::MAX, f64::min);
        if spread > BUSY_SPREAD_MS {
            failures.push(format!(
                "g_g {gg_ms} ms: busy latency {busy:.2?} spreads {spread:.2} ms \
                 across heartbeats (bound {BUSY_SPREAD_MS} ms)"
            ));
        }
        if busy.iter().any(|&b| b >= gg_ms as f64) {
            failures.push(format!(
                "g_g {gg_ms} ms: busy latency {busy:.2?} is not below one g_g"
            ));
        }
    }
    print_table(
        &[
            "g_g (ms)",
            "heartbeat (ms)",
            "detected idle/busy",
            "idle stab (ms)",
            "idle e2e (ms)",
            "busy stab (ms)",
            "busy e2e (ms)",
        ],
        &[9, 15, 19, 15, 14, 15, 14],
        &rows,
    );
    println!("\nexpected shape: a detection waits until every site has announced the");
    println!("tick after B's. B lands on a tick boundary, so that wait is either a");
    println!("link latency or one more g_g, by the stamping site's clock offset (one");
    println!("site in four here): busy e2e ≈ 0.25 g_g + link latency, below g_g in");
    println!("every row; idle e2e adds up to a heartbeat. All {PAIRS} sequences detect");
    println!("in every cell.");
    if failures.is_empty() {
        println!("\nverdict: reproduced");
    } else {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }
}
