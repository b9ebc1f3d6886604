//! Supply-chain tracking — site-local detection + event masks.
//!
//! Warehouses are sites; each detects its *local* composite events
//! (`dispatch_cycle = pick ; pack ; ship`) on its own clock, and the
//! global detector correlates across warehouses:
//!
//! * `relay` — a dispatch cycle at one warehouse strictly followed by a
//!   dispatch cycle at another (provable under the `2g_g` order only);
//! * `cold_chain_breach` — a temperature reading above the threshold
//!   (mask `{1 >= 8}` on the shared `temp` feed) between a ship and the
//!   next delivery confirmation.
//!
//! Run with `cargo run --example supply_chain`.

use decs::distrib::{Engine, EngineConfig};
use decs::sentinel::parse_expr;
use decs::simnet::ScenarioBuilder;
use decs::snoop::Context;
use decs_chronos::{Granularity, Nanos};

fn main() {
    let scenario = ScenarioBuilder::new(3, 2026)
        .global_granularity(Granularity::per_second(10).unwrap())
        .build()
        .unwrap();

    let local_cycle = parse_expr("(pick ; pack) ; ship").unwrap();
    let relay = parse_expr("dispatch_cycle ; dispatch_cycle").unwrap();
    // A warm reading (≥ 8 °C) inside a ship→deliver window.
    let breach = parse_expr("A(ship, temp{1 >= 8}, deliver)").unwrap();

    let mut engine = Engine::with_local(
        &scenario,
        EngineConfig::default(),
        &["pick", "pack", "ship", "deliver", "temp"],
        &[("dispatch_cycle", local_cycle, Context::Chronicle)],
        &[
            ("relay", relay, Context::Chronicle),
            ("cold_chain_breach", breach, Context::Unrestricted),
        ],
    )
    .unwrap();

    // Warehouse 0 dispatches a parcel…
    let s = Nanos::from_millis;
    engine.inject(s(1_000), 0, "pick", vec![]).unwrap();
    engine.inject(s(1_400), 0, "pack", vec![]).unwrap();
    engine
        .inject(s(2_000), 0, "ship", vec![0i64.into(), 4i64.into()])
        .unwrap();
    // …temperature spikes in transit (site 1 sensor, 9 °C)…
    engine
        .inject(s(3_000), 1, "temp", vec![7i64.into(), 9i64.into()])
        .unwrap();
    // …and a cool reading that must NOT trigger (3 °C)…
    engine
        .inject(s(3_300), 1, "temp", vec![7i64.into(), 3i64.into()])
        .unwrap();
    // …warehouse 1 relays the parcel with its own full cycle…
    engine.inject(s(4_000), 1, "pick", vec![]).unwrap();
    engine.inject(s(4_300), 1, "pack", vec![]).unwrap();
    engine
        .inject(s(5_000), 1, "ship", vec![1i64.into(), 5i64.into()])
        .unwrap();
    // …delivery confirmed at site 2.
    engine.inject(s(6_000), 2, "deliver", vec![]).unwrap();

    let detections = engine.run_for(Nanos::from_secs(9));
    println!("supply-chain detections:");
    for d in &detections {
        println!("  {:<22} @ {}", d.name, d.occ.time);
    }
    println!(
        "\nlocal dispatch cycles: warehouse0={}, warehouse1={}",
        engine.local_detections(0),
        engine.local_detections(1)
    );

    let count = |n: &str| detections.iter().filter(|d| &*d.name == n).count();
    assert_eq!(engine.local_detections(0), 1);
    assert_eq!(engine.local_detections(1), 1);
    assert_eq!(count("dispatch_cycle"), 2, "both local cycles reported");
    assert_eq!(count("relay"), 1, "cycle@w0 strictly before cycle@w1");
    // Two ship events open two A-windows; the single warm reading falls
    // inside both ship@2s and (being before 5s) only the first window.
    assert!(count("cold_chain_breach") >= 1, "warm reading detected");
    println!("\nsupply chain OK");
}
