//! E10 (extension) — scalability with the number of sites, and with the
//! batched notification protocol.
//!
//! Fixed aggregate event rate, growing site count: how do simulation
//! throughput, message counts, stability-buffer occupancy, and detections
//! behave? The watermark rule needs *every* site's heartbeat, so the
//! stability latency is governed by the slowest site — flat in sites —
//! while message volume grows linearly: each site adds one heartbeat per
//! global tick on top of its events. Batching coalesces each site's
//! interval of events plus the watermark into one message, collapsing
//! that per-message coordinator work.
//!
//! Run: `cargo run -p decs-bench --release --bin scalability [batch_ms]`
//! where `batch_ms` is the batch flush interval in milliseconds for the
//! site sweep (default 0 = per-event transport). A second table sweeps the
//! batch interval at a fixed site count regardless of the argument.

use decs_bench::print_table;
use decs_chronos::{Granularity, Nanos};
use decs_distrib::{Engine, EngineConfig, Metrics};
use decs_simnet::ScenarioBuilder;
use decs_snoop::{Context, EventExpr as E};
use decs_workloads::{ArrivalModel, WorkloadSpec};
use std::time::Instant;

struct RunOutcome {
    events: usize,
    detections: usize,
    metrics: Metrics,
    elapsed: f64,
}

fn run(sites: u32, batch_ms: u64) -> RunOutcome {
    let scenario = ScenarioBuilder::new(sites, 2024)
        .max_offset_ns(1_000_000)
        .global_granularity(Granularity::per_second(10).unwrap())
        .build()
        .unwrap();
    let mut engine = Engine::new(
        &scenario,
        EngineConfig {
            batch_interval: Nanos::from_millis(batch_ms),
            ..EngineConfig::default()
        },
        &["A", "B"],
        &[("X", E::seq(E::prim("A"), E::prim("B")), Context::Chronicle)],
    )
    .unwrap();
    // ~2000 events/s aggregate over 2 s, split across sites.
    let spec = WorkloadSpec {
        sites,
        duration: Nanos::from_secs(2),
        arrivals: ArrivalModel::Poisson {
            mean_ns: 500_000 * u64::from(sites),
        },
        event_types: 2,
        seed: 5,
    };
    let trace = spec.generate();
    let names = ["A", "B"];
    for inj in &trace {
        engine
            .inject(inj.at, inj.site, names[inj.event], inj.values.clone())
            .unwrap();
    }
    let wall = Instant::now();
    let detections = engine.run_for(Nanos::from_secs(5));
    RunOutcome {
        events: trace.len(),
        detections: detections.len(),
        metrics: engine.metrics(),
        elapsed: wall.elapsed().as_secs_f64(),
    }
}

fn main() {
    let batch_ms: u64 = std::env::args()
        .nth(1)
        .map(|a| a.parse().expect("batch_ms must be a number"))
        .unwrap_or(0);
    println!("E10 — scalability vs number of sites (fixed aggregate rate)");
    println!("site transport: {}\n", transport(batch_ms));
    let mut rows = Vec::new();
    for sites in [1u32, 2, 4, 8, 16, 32] {
        let r = run(sites, batch_ms);
        let m = &r.metrics;
        rows.push(vec![
            format!("{sites}"),
            format!("{}", r.events),
            format!("{}", m.events_released),
            format!("{}", m.messages_processed),
            format!("{}", m.batches_received),
            format!("{}", r.detections),
            format!("{}", m.max_buffered),
            format!("{:.1}", m.mean_stability_latency_ns() as f64 / 1e6),
            format!("{:.0}", r.events as f64 / r.elapsed),
        ]);
    }
    print_table(
        &[
            "sites",
            "events",
            "released",
            "msgs proc",
            "batches",
            "detections",
            "max buf",
            "stab lat(ms)",
            "events/s(wall)",
        ],
        &[6, 8, 9, 10, 8, 11, 8, 13, 15],
        &rows,
    );

    // Second sweep: fixed sites, growing batch interval. A site
    // heartbeats once per global tick (g_g = 100 ms), so batch_ms = 100
    // is the like-for-like comparison: same watermark cadence, events
    // riding along for free.
    let sites = 8u32;
    let gg_ms = 100;
    println!("\nbatch-interval sweep at {sites} sites (heartbeat = g_g = {gg_ms} ms)\n");
    let baseline = run(sites, 0);
    let mut rows = Vec::new();
    for bms in [0u64, 5, 10, 20, 50, 100] {
        let r = run(sites, bms);
        let m = &r.metrics;
        let reduction =
            baseline.metrics.messages_processed as f64 / m.messages_processed.max(1) as f64;
        assert_eq!(
            r.detections, baseline.detections,
            "batch {bms} ms must detect exactly what per-event transport does"
        );
        if bms == gg_ms {
            assert!(
                reduction >= 2.0,
                "batch = g_g must cut messages at least 2x, got {reduction:.2}x"
            );
        }
        rows.push(vec![
            format!("{}", bms),
            format!("{}", m.messages_processed),
            format!("{}", m.batches_received),
            format!("{}", m.batch_size_max),
            format!("{:.2}x", reduction),
            format!("{}", r.detections),
            format!("{:.1}", m.mean_stability_latency_ns() as f64 / 1e6),
        ]);
    }
    print_table(
        &[
            "batch(ms)",
            "msgs proc",
            "batches",
            "max batch",
            "msg reduction",
            "detections",
            "stab lat(ms)",
        ],
        &[10, 10, 8, 10, 14, 11, 13],
        &rows,
    );
    println!("\nexpected shape: per-event messages ≈ events + one heartbeat per site");
    println!("per tick; batching folds both into one message per site per interval,");
    println!("so at batch = g_g the coordinator processes ≥2x fewer messages");
    println!("with identical detections (both asserted). The coordinator's");
    println!("stability wait shrinks as the batch interval grows: events wait");
    println!("for the flush at their site instead.");
}

fn transport(batch_ms: u64) -> String {
    if batch_ms == 0 {
        "per-event (Msg::Event + Msg::Heartbeat)".to_string()
    } else {
        format!("batched (Msg::Batch every {batch_ms} ms)")
    }
}
