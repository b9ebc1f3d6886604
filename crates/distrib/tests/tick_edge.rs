//! Tick-edge watermarks: every site announces each new global tick at
//! the instant its clock enters it, idle or busy, so its watermark lags
//! by a link latency, not by up to a heartbeat or batch interval.

use decs_chronos::{Granularity, Nanos};
use decs_distrib::{Engine, EngineConfig};
use decs_simnet::{LinkConfig, ScenarioBuilder};
use decs_snoop::{Context, EventExpr as E};

const SITES: u32 = 4;
/// Cross-site `A;B` pairs.
const PAIRS: u64 = 20;
/// The run's horizon: the last pair ends near 4.5 s.
const RUN_MS: u64 = 5_500;

/// Pair `k` puts `A` on site `k % 4` and `B` four ticks later on the next
/// site. When `busy`, every site also injects the unsubscribed filler `F`
/// once per millisecond from 0.5 s to 5 s, so every site stamps an event
/// early in every tick. Returns the engine and each `B`'s injection time.
fn engine(config: EngineConfig, busy: bool) -> (Engine, Vec<Nanos>) {
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
    for ms in (500..5_000u64).filter(|_| busy) {
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
fn mean_delay_ms(busy: bool) -> f64 {
    let (mut e, b_times) = engine(EngineConfig::default(), busy);
    let det = e.run_for(Nanos::from_millis(RUN_MS));
    assert_eq!(det.len(), PAIRS as usize, "busy: {busy}");
    let total: u64 = det
        .iter()
        .zip(&b_times)
        .map(|(d, b)| d.detected_at.get() - b.get())
        .sum();
    total as f64 / PAIRS as f64 / 1e6
}

#[test]
fn idle_sites_detect_as_fast_as_busy_ones() {
    // Release waits for every site's watermark to pass the terminator's
    // tick. Each site announces the next tick at the instant its clock
    // enters it, whether or not it stamps anything there, so an idle
    // site's watermark lags exactly as little as a busy one's: the two
    // means differ only by link jitter, well inside one link latency.
    let busy = mean_delay_ms(true);
    let idle = mean_delay_ms(false);
    let latency_ms = LinkConfig::lan().base_latency_ns as f64 / 1e6;
    assert!(
        (busy - idle).abs() <= latency_ms,
        "mean delay {busy:.3} ms on busy sites, {idle:.3} ms on idle ones"
    );
}

#[test]
fn edge_flushes_add_no_batches() {
    // An edge flush pushes the next periodic flush one batch interval
    // out, so a busy site still flushes about once per interval.
    let batch = Nanos::from_millis(20);
    let (mut e, _) = engine(
        EngineConfig {
            batch_interval: batch,
            ..EngineConfig::default()
        },
        true,
    );
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
