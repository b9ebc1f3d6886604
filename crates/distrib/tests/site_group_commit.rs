//! Group commit of a durable site's staged occurrences: a site syncs its
//! log once per occurrence-carrying batch, never per staged occurrence,
//! so a tick's occurrences share one sync however many there are. Sync
//! counts never enter simulated time, so durability changes no detection.

use decs_chronos::{Granularity, Nanos};
use decs_distrib::{Engine, EngineConfig};
use decs_simnet::ScenarioBuilder;
use decs_snoop::{Context, EventExpr as E};
use std::collections::BTreeSet;
use std::path::Path;

const SITES: u32 = 4;
/// Global tick length (`g_g` = 100 ms).
const TICK_NS: u64 = 100_000_000;
/// Ticks that receive injections; the run ends ten ticks after them.
const TICKS: u64 = 30;

/// Site `s` gets `(7k + 3s) % 4` injections in tick `k`: none in a
/// quarter of its ticks, up to three in others. Returns
/// `(true time, site, event)`, each strictly inside its tick.
fn injections() -> Vec<(Nanos, u32, &'static str)> {
    let mut out = Vec::new();
    for k in 0..TICKS {
        for s in 0..SITES {
            let n = (7 * k + 3 * u64::from(s)) % 4;
            for j in 0..n {
                let at = k * TICK_NS + 10_000_000 + j * 25_000_000 + u64::from(s) * 1_000_000;
                let ev = ["A", "B", "C"][((k + u64::from(s) + j) % 3) as usize];
                out.push((Nanos(at), s, ev));
            }
        }
    }
    out
}

/// Edge-only flushes on perfect clocks with zero offset, so site `s`
/// stamps an injection at true time `t` in global tick `t / g_g`.
fn engine(wal_dir: Option<&Path>) -> Engine {
    let scenario = ScenarioBuilder::new(SITES, 5)
        .global_granularity(Granularity::per_second(10).unwrap())
        .max_drift_ppb(0)
        .max_offset_ns(0)
        .build()
        .unwrap();
    let config = EngineConfig {
        site_durability: wal_dir.is_some(),
        wal_dir: wal_dir.map(|p| p.to_string_lossy().into_owned()),
        ..EngineConfig::default()
    };
    let mut e = Engine::new(
        &scenario,
        config,
        &["A", "B", "C"],
        &[
            ("X", E::seq(E::prim("A"), E::prim("B")), Context::Chronicle),
            ("Y", E::and(E::prim("B"), E::prim("C")), Context::Recent),
        ],
    )
    .unwrap();
    for (at, site, ev) in injections() {
        e.inject(at, site, ev, vec![]).unwrap();
    }
    e
}

#[test]
fn durable_sites_sync_once_per_tick_with_injections() {
    let dir = std::env::temp_dir().join(format!("decs-group-commit-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let horizon = Nanos((TICKS + 10) * TICK_NS);
    let mut durable = engine(Some(&dir));
    let det = durable.run_until(horizon);
    assert_eq!(durable.metrics().wal_errors, 0);
    let inj = injections();
    for s in 0..SITES {
        let ticks: BTreeSet<u64> = inj
            .iter()
            .filter(|(_, site, _)| *site == s)
            .map(|(at, _, _)| at.get() / TICK_NS)
            .collect();
        let staged = inj.iter().filter(|(_, site, _)| *site == s).count();
        assert!(
            staged > ticks.len(),
            "site {s}: some tick must stage several"
        );
        // The Epoch, then one sync per edge batch that carries the tick's
        // occurrences. Staged frames, empty batches and acks ride along.
        assert_eq!(
            durable.site_wal_syncs(s),
            1 + ticks.len() as u64,
            "site {s}: {staged} occurrences in {} ticks",
            ticks.len()
        );
    }

    let plain = engine(None).run_until(horizon);
    assert!(!plain.is_empty());
    let key = |d: &decs_distrib::Detection| (d.name.clone(), d.occ.clone(), d.detected_at);
    assert_eq!(
        det.iter().map(key).collect::<Vec<_>>(),
        plain.iter().map(key).collect::<Vec<_>>()
    );
    let _ = std::fs::remove_dir_all(&dir);
}
