//! Multi-exchange stock monitoring — the classic active-database workload.
//!
//! Three exchange sites publish price updates with their own (drifting)
//! clocks. The global detector watches for:
//!
//! * `cross_exchange_momentum` — a trade on exchange 0 strictly followed
//!   by a trade on exchange 1 (sequence across sites: only counts when the
//!   `2g_g` order can actually prove the order);
//! * `quiet_halt` — a halt with no trade in the preceding window
//!   (`not(trade)[halt_armed, halt]` shaped with explicit events);
//! * `burst` — `A*` accumulation of price updates between two trades.
//!
//! Run with `cargo run --example stock_monitor`.

use decs::distrib::{Engine, EngineConfig};
use decs::simnet::ScenarioBuilder;
use decs::snoop::{Context, EventExpr as E};
use decs::workloads::{scenarios::names, stock_trace};
use decs_chronos::{Granularity, Nanos};

fn main() {
    let sites = 3;
    let scenario = ScenarioBuilder::new(sites, 7)
        .global_granularity(Granularity::per_second(10).unwrap())
        .build()
        .unwrap();
    println!(
        "{} exchanges, Π = {:.1} ms, g_g = {}",
        sites,
        scenario.precision().nanos() as f64 / 1e6,
        scenario.base.gg()
    );

    let defs: Vec<(&str, E, Context)> = vec![
        (
            "cross_exchange_momentum",
            E::seq(E::prim("trade"), E::prim("trade")),
            Context::Chronicle,
        ),
        (
            "burst",
            E::aperiodic_star(E::prim("trade"), E::prim("price_update"), E::prim("trade")),
            Context::Continuous,
        ),
        (
            "halted_after_trade",
            E::seq(E::prim("trade"), E::prim("halt")),
            Context::Recent,
        ),
    ];
    let mut engine = Engine::new(&scenario, EngineConfig::default(), names::STOCK, &defs).unwrap();

    // Replay a deterministic 2-second ticker trace.
    let trace = stock_trace(sites, Nanos::from_secs(2), 99);
    println!("injecting {} market events", trace.len());
    for inj in &trace {
        engine
            .inject(
                inj.at,
                inj.site,
                names::STOCK[inj.event],
                inj.values.clone(),
            )
            .unwrap();
    }

    let detections = engine.run_for(Nanos::from_secs(4));
    let mut counts = std::collections::BTreeMap::new();
    for d in &detections {
        *counts.entry(d.name.clone()).or_insert(0u64) += 1;
    }
    println!("\ndetections by composite event:");
    for (name, n) in &counts {
        println!("  {name:<28} {n}");
    }
    let m = engine.metrics();
    println!("\nengine metrics:");
    println!("  events received      {}", m.events_received);
    println!("  events released      {}", m.events_released);
    println!("  detections           {}", m.detections);
    println!("  reassembly parks     {}", m.reassembly_parks);
    println!("  max buffered         {}", m.max_buffered);
    println!(
        "  mean stability lag   {:.2} ms",
        m.mean_stability_latency_ns() as f64 / 1e6
    );

    // A burst detection accumulates price updates between two trades —
    // show one with its parameter count.
    if let Some(b) = detections.iter().find(|d| &*d.name == "burst") {
        println!(
            "\nexample burst: {} constituents, stamped {}",
            b.occ.params.len(),
            b.occ.time
        );
    }
    assert!(m.events_received > 0);
}
