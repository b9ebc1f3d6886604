//! E9 (extension) — detection latency vs `g_g`, idle sites vs busy ones.
//!
//! The stability rule delays releasing a notification until every site's
//! watermark passes its global tick, so a detection waits for every site
//! to announce the next tick and end-to-end latency grows with the global
//! granularity. Every site announces a new tick with one batch at the
//! instant its clock enters it, so how busy a site is should not matter.
//! This experiment sweeps `g_g` over a cross-site sequence workload on
//! idle sites and on busy ones (each also injecting an unsubscribed
//! filler every millisecond), reports the coordinator's mean stability
//! latency and the end-to-end detection latency, and checks the verdict:
//! all 40 sequences detect in every cell, idle latency is within one LAN
//! link latency of busy latency, and busy latency stays below one `g_g`
//! (a rule that waited out an extra tick would sit above it).
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
/// Largest gap between the idle and the busy leg's mean e2e latency at
/// one `g_g`: one LAN link latency. Both legs announce each tick at its
/// edge, so they differ only by link jitter.
const IDLE_GAP_MS: f64 = 0.5;

struct Leg {
    detections: usize,
    mean_stability_ms: f64,
    mean_e2e_ms: f64,
}

fn run(gg_ms: u64, busy: bool) -> Leg {
    let scenario = ScenarioBuilder::new(4, 99)
        .max_offset_ns(1_000_000)
        .max_drift_ppb(5_000)
        .global_granularity(Granularity::from_millis(gg_ms).unwrap())
        .build()
        .unwrap();
    let mut engine = Engine::new(
        &scenario,
        EngineConfig::default(),
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
    println!("E9 — detection latency vs global granularity,");
    println!("idle sites vs busy sites (filler every 1 ms)\n");
    let mut rows = Vec::new();
    let mut failures = Vec::new();
    for gg_ms in GG_MS {
        let (idle, busy) = (run(gg_ms, false), run(gg_ms, true));
        rows.push(vec![
            format!("{gg_ms}"),
            format!("{}/{}", idle.detections, busy.detections),
            format!("{:.2}", idle.mean_stability_ms),
            format!("{:.2}", idle.mean_e2e_ms),
            format!("{:.2}", busy.mean_stability_ms),
            format!("{:.2}", busy.mean_e2e_ms),
        ]);
        if idle.detections != PAIRS || busy.detections != PAIRS {
            failures.push(format!(
                "g_g {gg_ms} ms: {}/{} of {PAIRS} detected",
                idle.detections, busy.detections
            ));
        }
        let gap = (idle.mean_e2e_ms - busy.mean_e2e_ms).abs();
        if gap.is_nan() || gap > IDLE_GAP_MS {
            failures.push(format!(
                "g_g {gg_ms} ms: idle latency {:.2} ms is {gap:.2} ms from busy latency \
                 {:.2} ms (bound {IDLE_GAP_MS} ms)",
                idle.mean_e2e_ms, busy.mean_e2e_ms
            ));
        }
        if busy.mean_e2e_ms.is_nan() || busy.mean_e2e_ms >= gg_ms as f64 {
            failures.push(format!(
                "g_g {gg_ms} ms: busy latency {:.2} ms is not below one g_g",
                busy.mean_e2e_ms
            ));
        }
    }
    print_table(
        &[
            "g_g (ms)",
            "detected idle/busy",
            "idle stab (ms)",
            "idle e2e (ms)",
            "busy stab (ms)",
            "busy e2e (ms)",
        ],
        &[9, 19, 15, 14, 15, 14],
        &rows,
    );
    println!("\nexpected shape: a detection waits until every site has announced the");
    println!("tick after B's. B lands on a tick boundary, so that wait is either a");
    println!("link latency or one more g_g, by the stamping site's clock offset (one");
    println!("site in four here): e2e ≈ 0.25 g_g + link latency, below g_g in every");
    println!("row. Each site announces a tick at its edge, busy or idle, so the idle");
    println!("and busy columns agree within a link latency. All {PAIRS} sequences");
    println!("detect in every cell.");
    if failures.is_empty() {
        println!("\nverdict: reproduced");
    } else {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }
}
