//! E10 (extension) — scalability with the number of sites, and with the
//! batch interval.
//!
//! Fixed aggregate event rate, growing site count: how do simulation
//! throughput, message counts, stability-buffer occupancy, and detections
//! behave? The watermark rule needs *every* site's watermark, so the
//! stability latency is governed by the slowest site — flat in sites.
//! Every site ships each tick's events and its watermark in one batch at
//! the tick edge, so message volume is one message per site per tick,
//! whatever the event rate; a positive batch interval adds mid-tick
//! flushes on top.
//!
//! Run: `cargo run -p decs-bench --release --bin scalability [batch_ms]`
//! where `batch_ms` is the mid-tick flush interval in milliseconds for the
//! site sweep (default 0 = tick-edge flushes only). A second table sweeps
//! the batch interval at a fixed site count regardless of the argument.

use decs_bench::print_table;
use decs_chronos::{Granularity, Nanos};
use decs_distrib::{Engine, EngineConfig, Metrics};
use decs_simnet::{ScenarioBuilder, SiteTimeSource};
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
    // Mid-tick, so every edge flush the sites send is delivered by then.
    let horizon = Nanos::from_millis(5_050);
    let detections = engine.run_for(horizon);
    if batch_ms == 0 {
        // On this lossless LAN every message is an edge flush.
        let flushes: u64 = (0..sites)
            .map(|i| edge_flushes(&scenario.time_source(i), horizon))
            .sum();
        let m = engine.metrics();
        assert_eq!(
            m.messages_processed, flushes,
            "{sites} sites: one message per site per tick edge, plus its Start beacon"
        );
        assert_eq!(
            m.acks_sent, m.messages_processed,
            "{sites} sites: one ack per delivered message, and no other"
        );
    }
    RunOutcome {
        events: trace.len(),
        detections: detections.len(),
        metrics: engine.metrics(),
        elapsed: wall.elapsed().as_secs_f64(),
    }
}

/// The batches an edge-only site sends by `horizon`: its `Start` beacon
/// (when its clock has started at time 0) and one per tick edge its clock
/// crosses.
fn edge_flushes(clock: &SiteTimeSource, horizon: Nanos) -> u64 {
    let mut n = u64::from(clock.stamp(Nanos::ZERO).is_ok());
    let mut t = Nanos::ZERO;
    while let Some(edge) = clock.next_tick_edge(t).filter(|&e| e <= horizon) {
        n += 1;
        t = edge;
    }
    n
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
            "detections",
            "max buf",
            "stab lat(ms)",
            "events/s(wall)",
        ],
        &[6, 8, 9, 10, 11, 8, 13, 15],
        &rows,
    );

    // Second sweep: fixed sites, growing mid-tick flush interval
    // (g_g = 100 ms; 0 = tick-edge flushes only).
    let sites = 8u32;
    println!("\nbatch-interval sweep at {sites} sites (g_g = 100 ms)\n");
    let baseline = run(sites, 0);
    let mut rows = Vec::new();
    for bms in [0u64, 5, 10, 20, 50, 100] {
        let r = run(sites, bms);
        let m = &r.metrics;
        assert_eq!(
            r.detections, baseline.detections,
            "batch {bms} ms must detect exactly what edge-only flushes do"
        );
        rows.push(vec![
            format!("{}", bms),
            format!("{}", m.messages_processed),
            format!("{}", m.batch_size_max),
            format!("{}", r.detections),
            format!("{:.1}", m.mean_stability_latency_ns() as f64 / 1e6),
        ]);
    }
    print_table(
        &[
            "batch(ms)",
            "msgs proc",
            "max batch",
            "detections",
            "stab lat(ms)",
        ],
        &[10, 10, 10, 11, 13],
        &rows,
    );
    println!("\nexpected shape: edge-only sites send exactly one message per site per");
    println!("tick edge plus a Start beacon each (asserted), whatever the event rate;");
    println!("mid-tick flushes add messages and detect the same (asserted). The");
    println!("coordinator's stability wait grows as the interval shrinks: events");
    println!("sent mid-tick only wait at the coordinator for the next edge.");
}

fn transport(batch_ms: u64) -> String {
    if batch_ms == 0 {
        "one Msg::Batch per tick edge".to_string()
    } else {
        format!("Msg::Batch per tick edge and every {batch_ms} ms")
    }
}
