//! Tick-edge watermarks: a busy site announces each new global tick as
//! soon as it stamps an event in it, so its watermark lags by a link
//! latency, not by up to a heartbeat or batch interval.

use decs_chronos::{Granularity, Nanos};
use decs_distrib::{Engine, EngineConfig};
use decs_simnet::{LinkConfig, ScenarioBuilder};
use decs_snoop::{Context, EventExpr as E};

const SITES: u32 = 4;
/// Cross-site `A;B` pairs.
const PAIRS: u64 = 20;
/// The run's horizon: the last pair ends near 4.5 s.
const RUN_MS: u64 = 5_500;

/// Every site injects the unsubscribed filler `F` once per millisecond
/// from 0.5 s to 5 s, so every site stamps an event early in every tick.
/// Pair `k` puts `A` on site `k % 4` and `B` four ticks later on the next
/// site. Returns the engine and each `B`'s injection time.
fn busy_engine(config: EngineConfig) -> (Engine, Vec<Nanos>) {
    let scenario = ScenarioBuilder::new(SITES, 17)
        .global_granularity(Granularity::per_second(10).unwrap())
        .max_offset_ns(1_000_000)
        .build()
        .unwrap();
    let mut e = Engine::new(
        &scenario,
        config,
        &["A", "B", "F"],
        &[("X", E::seq(E::prim("A"), E::prim("B")), Context::Chronicle)],
    )
    .unwrap();
    for ms in 500..5_000u64 {
        for site in 0..SITES {
            // Sites a quarter millisecond apart: no two injections tie.
            let at = Nanos(ms * 1_000_000 + u64::from(site) * 250_000);
            e.inject(at, site, "F", vec![]).unwrap();
        }
    }
    let mut b_times = Vec::new();
    for k in 0..PAIRS {
        let a = Nanos((600 + 200 * k) * 1_000_000 + 125_000);
        let b = a + 400_000_000;
        e.inject(a, (k % 4) as u32, "A", vec![]).unwrap();
        e.inject(b, ((k + 1) % 4) as u32, "B", vec![]).unwrap();
        b_times.push(b);
    }
    (e, b_times)
}

/// Mean detection delay (ms) of the pairs, each detection measured from
/// its terminator's injection.
fn mean_delay_ms(heartbeat_ms: u64) -> f64 {
    let (mut e, b_times) = busy_engine(EngineConfig {
        heartbeat_interval: Nanos::from_millis(heartbeat_ms),
        // Above heartbeat + round trip: slow heartbeats cost no resends.
        retransmit_timeout: Nanos::from_millis(500),
        ..EngineConfig::default()
    });
    let det = e.run_for(Nanos::from_millis(RUN_MS));
    assert_eq!(det.len(), PAIRS as usize, "{heartbeat_ms} ms heartbeats");
    let total: u64 = det
        .iter()
        .zip(&b_times)
        .map(|(d, b)| d.detected_at.get() - b.get())
        .sum();
    total as f64 / PAIRS as f64 / 1e6
}

#[test]
fn busy_sites_detect_as_fast_with_slow_heartbeats() {
    // Release waits for every site's watermark to pass the terminator's
    // tick + 1. Busy sites announce that tick when they stamp their first
    // event in it, so the heartbeat interval drops out of the delay: the
    // two means differ only by link jitter, well inside one link latency.
    let fast = mean_delay_ms(20);
    let slow = mean_delay_ms(200);
    let latency_ms = LinkConfig::lan().base_latency_ns as f64 / 1e6;
    assert!(
        (fast - slow).abs() <= latency_ms,
        "mean delay {fast:.3} ms at 20 ms heartbeats, {slow:.3} ms at 200 ms"
    );
}

#[test]
fn edge_flushes_add_no_batches() {
    // An edge flush pushes the next periodic flush one batch interval
    // out, so a busy site still flushes about once per interval.
    let batch = Nanos::from_millis(20);
    let (mut e, _) = busy_engine(EngineConfig {
        batch_interval: batch,
        ..EngineConfig::default()
    });
    let det = e.run_for(Nanos::from_millis(RUN_MS));
    assert_eq!(det.len(), PAIRS as usize);
    let m = e.metrics();
    let per_site = RUN_MS * 1_000_000 / batch.get() + 1;
    assert!(
        m.batches_received <= u64::from(SITES) * per_site,
        "{} batches from {SITES} sites, bound {per_site} each",
        m.batches_received
    );
}
