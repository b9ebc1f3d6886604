//! Cross-crate integration: the distributed engine against a centralized
//! oracle, and robustness properties of the full pipeline.

use decs::distrib::{Engine, EngineConfig};
use decs::simnet::{LinkConfig, ScenarioBuilder};
use decs::snoop::{CentralDetector, Context, EventExpr as E};
use decs::workloads::{ArrivalModel, WorkloadSpec};
use decs_chronos::{Granularity, Nanos};

fn scenario(sites: u32, seed: u64) -> decs::simnet::Scenario {
    ScenarioBuilder::new(sites, seed)
        .global_granularity(Granularity::per_second(10).unwrap())
        .max_offset_ns(1_000_000)
        .max_drift_ppb(5_000)
        .build()
        .unwrap()
}

/// When events are separated by ≫ 2·g_g in true time, the distributed
/// detector must agree exactly with a centralized oracle that sees the
/// true-time order — the partial order resolves every pair.
#[test]
fn well_separated_events_match_centralized_oracle() {
    let expr = E::seq(E::prim("A"), E::prim("B"));
    let names = ["A", "B"];
    for ctx in [Context::Chronicle, Context::Recent, Context::Continuous] {
        // Workload: alternating A/B across 3 sites, 500 ms apart (g_g = 100 ms).
        let mut injections = Vec::new();
        for k in 0..20u64 {
            let ev = if k % 2 == 0 { 0 } else { 1 };
            injections.push((Nanos(1_000_000_000 + k * 500_000_000), (k % 3) as u32, ev));
        }

        // Oracle: centralized detector over the true-time order.
        let mut oracle = CentralDetector::new();
        for n in names {
            oracle.register(n).unwrap();
        }
        oracle.define("X", &expr, ctx).unwrap();
        let mut oracle_count = 0;
        for &(at, _, ev) in &injections {
            oracle_count += oracle
                .feed_bare(names[ev], at.get() / 1_000_000)
                .unwrap()
                .len();
        }

        // Distributed run.
        let mut engine = Engine::new(
            &scenario(3, 77),
            EngineConfig::default(),
            &names,
            &[("X", expr.clone(), ctx)],
        )
        .unwrap();
        for &(at, site, ev) in &injections {
            engine.inject(at, site, names[ev], vec![]).unwrap();
        }
        let detections = engine.run_for(Nanos::from_secs(30));
        assert_eq!(
            detections.len(),
            oracle_count,
            "distributed ≠ oracle under {ctx}"
        );
    }
}

/// Detections are a pure function of the workload: different network
/// seeds, latencies and jitters must yield identical detections.
#[test]
fn network_permutation_invariance() {
    let spec = WorkloadSpec {
        sites: 4,
        duration: Nanos::from_secs(2),
        arrivals: ArrivalModel::Poisson {
            mean_ns: 40_000_000,
        },
        event_types: 2,
        seed: 3,
    };
    let trace = spec.generate();
    let names = ["A", "B"];
    let run = |link: LinkConfig, engine_seed: u64| {
        let mut e = Engine::new(
            &scenario(4, engine_seed),
            EngineConfig::default(),
            &names,
            &[("X", E::and(E::prim("A"), E::prim("B")), Context::Chronicle)],
        )
        .unwrap();
        for s in 0..4 {
            e.set_link(s, link);
        }
        for inj in &trace {
            e.inject(inj.at, inj.site, names[inj.event], inj.values.clone())
                .unwrap();
        }
        e.run_for(Nanos::from_secs(6))
            .into_iter()
            .map(|d| (d.name.to_string(), d.occ.time))
            .collect::<Vec<_>>()
    };
    // Same scenario seed (same clocks!) but wildly different networks.
    let base = run(LinkConfig::instant(), 10);
    let lan = run(LinkConfig::lan(), 10);
    let wan = run(LinkConfig::wan(), 10);
    assert!(!base.is_empty());
    assert_eq!(base, lan);
    assert_eq!(base, wan);
}

/// Concurrent events never satisfy SEQ, regardless of arrival order; and
/// the same events DO satisfy AND.
#[test]
fn concurrency_blocks_seq_but_not_and() {
    let names = ["A", "B"];
    let mk = |expr: E| {
        let mut e = Engine::new(
            &scenario(2, 5),
            EngineConfig::default(),
            &names,
            &[("X", expr, Context::Chronicle)],
        )
        .unwrap();
        // 20 ms apart — inside one 100 ms global tick: concurrent.
        e.inject(Nanos::from_millis(1000), 0, "A", vec![]).unwrap();
        e.inject(Nanos::from_millis(1020), 1, "B", vec![]).unwrap();
        e.run_for(Nanos::from_secs(3)).len()
    };
    assert_eq!(mk(E::seq(E::prim("A"), E::prim("B"))), 0);
    assert_eq!(mk(E::and(E::prim("A"), E::prim("B"))), 1);
}

/// The AND of two concurrent cross-site events carries a two-member
/// composite timestamp — the paper's set-valued t_occ, observable through
/// the whole pipeline.
#[test]
fn and_of_concurrent_events_has_set_timestamp() {
    let names = ["A", "B"];
    let mut e = Engine::new(
        &scenario(2, 5),
        EngineConfig::default(),
        &names,
        &[("X", E::and(E::prim("A"), E::prim("B")), Context::Chronicle)],
    )
    .unwrap();
    e.inject(Nanos::from_millis(1000), 0, "A", vec![]).unwrap();
    e.inject(Nanos::from_millis(1020), 1, "B", vec![]).unwrap();
    let det = e.run_for(Nanos::from_secs(3));
    assert_eq!(det.len(), 1);
    let ts = &det[0].occ.time;
    assert_eq!(ts.len(), 2, "expected a two-member Max timestamp, got {ts}");
    let sites: Vec<u32> = ts.iter().map(|m| m.site().get()).collect();
    assert_eq!(sites, vec![0, 1]);
}

/// Stress: a multi-operator definition over a Poisson workload completes,
/// stays deterministic, and releases everything once watermarks pass.
#[test]
fn stress_many_events_deterministic() {
    let spec = WorkloadSpec {
        sites: 5,
        duration: Nanos::from_secs(1),
        arrivals: ArrivalModel::Bursty {
            burst: 4,
            intra_ns: 2_000_000,
            gap_ns: 50_000_000,
        },
        event_types: 3,
        seed: 9,
    };
    let trace = spec.generate();
    let names = ["A", "B", "C"];
    let expr = E::or(
        E::seq(E::prim("A"), E::prim("B")),
        E::aperiodic_star(E::prim("A"), E::prim("B"), E::prim("C")),
    );
    let run = || {
        let mut e = Engine::new(
            &scenario(5, 21),
            EngineConfig::default(),
            &names,
            &[("X", expr.clone(), Context::Continuous)],
        )
        .unwrap();
        for inj in &trace {
            e.inject(inj.at, inj.site, names[inj.event], inj.values.clone())
                .unwrap();
        }
        let d = e.run_for(Nanos::from_secs(4));
        let m = e.metrics();
        (d.len(), m.events_released, m.events_received, e.buffered())
    };
    let (d1, released1, received1, buffered1) = run();
    let (d2, ..) = run();
    assert_eq!(d1, d2);
    assert!(d1 > 0);
    assert_eq!(buffered1, 0, "everything must be released by the horizon");
    // Every *received* notification is eventually released. (A couple of
    // injections in the first millisecond may be dropped pre-epoch by
    // sites whose clocks start with a negative offset.)
    assert_eq!(released1, received1);
    assert!(received1 >= trace.len() as u64 - 5);
}

/// Satellite of the rejoin PR: retransmission jitter. Sites that lost
/// messages in the same outage arm their retransmission timers from the
/// same instants with the same backoff schedule, so without jitter every
/// retry round fires in lockstep across all of them — a thundering herd
/// aimed at the link the moment it heals. `retransmit_jitter_seed` gives
/// each site an independent seeded perturbation of every delay; this
/// test traces both runs and asserts the herd actually spreads while
/// detections stay bit-identical.
#[test]
fn retransmit_jitter_spreads_the_thundering_herd() {
    use decs::simnet::TraceEntry;

    // (per-site sorted retransmit instants during the outage, detections)
    fn run(jitter: Option<u64>) -> (Vec<Vec<u64>>, Vec<(String, u64)>) {
        let config = EngineConfig {
            trace_capacity: 100_000,
            retransmit_jitter_seed: jitter,
            ..EngineConfig::default()
        };
        // Identical, perfect clocks: every site flushes at the same tick
        // edges, so their first sends into the outage arm their
        // retransmission timers at the same instant — maximal lockstep.
        let lockstep_clocks = ScenarioBuilder::new(3, 99)
            .global_granularity(Granularity::per_second(10).unwrap())
            .max_offset_ns(0)
            .max_drift_ppb(0)
            .build()
            .unwrap();
        let mut e = Engine::new(
            &lockstep_clocks,
            config,
            &["A", "B"],
            &[("X", E::seq(E::prim("A"), E::prim("B")), Context::Chronicle)],
        )
        .unwrap();
        for site in 0..3 {
            e.partition_site(site, Nanos::from_millis(350), Nanos::from_secs(10));
        }
        for site in 0..3 {
            // The same injection instant everywhere: identical unacked
            // windows.
            e.inject(Nanos::from_millis(400), site, "A", vec![])
                .unwrap();
        }
        e.inject(Nanos::from_secs(12), 0, "B", vec![]).unwrap();
        let det: Vec<(String, u64)> = e
            .run_until(Nanos::from_secs(20))
            .into_iter()
            .map(|d| (d.name.to_string(), d.occ.time.max_global()))
            .collect();
        // Each site's sends lost to the outage after the initial
        // (identical) 400 ms injection, counted per instant.
        let mut drops = vec![std::collections::BTreeMap::<u64, usize>::new(); 3];
        for entry in e.trace().entries() {
            if let TraceEntry::Drop { at, from, .. } = entry {
                if (from.0 as usize) < 3 && at.get() > 450_000_000 {
                    *drops[from.0 as usize].entry(at.get()).or_default() += 1;
                }
            }
        }
        // Filter the tick-edge batches out: an edge flush is a lone send,
        // while a retry round resends the whole unacked window at one
        // instant.
        let times = drops
            .into_iter()
            .map(|d| {
                d.into_iter()
                    .filter(|&(_, n)| n > 1)
                    .map(|(at, _)| at)
                    .collect()
            })
            .collect();
        (times, det)
    }

    let (lockstep, det_plain) = run(None);
    let (spread, det_jitter) = run(Some(0xD1CE));
    // Both runs retried several rounds per site through the outage.
    for site in 0..3 {
        assert!(lockstep[site].len() >= 4, "too few rounds to compare");
        assert_eq!(
            lockstep[site].len(),
            spread[site].len(),
            "jitter must not change the number of retry rounds here"
        );
    }
    // Without jitter the herd is real: every site's rounds coincide.
    assert_eq!(lockstep[0], lockstep[1]);
    assert_eq!(lockstep[1], lockstep[2]);
    // With jitter the same rounds spread: no two sites share a schedule,
    // and most rounds have all three sites at pairwise distinct instants.
    assert_ne!(spread[0], spread[1]);
    assert_ne!(spread[1], spread[2]);
    assert_ne!(spread[0], spread[2]);
    let rounds = spread[0].len();
    let distinct_rounds = (0..rounds)
        .filter(|&i| {
            spread[0][i] != spread[1][i]
                && spread[1][i] != spread[2][i]
                && spread[0][i] != spread[2][i]
        })
        .count();
    assert!(
        distinct_rounds * 2 >= rounds,
        "jitter left {distinct_rounds}/{rounds} rounds fully spread"
    );
    // And the jitter is latency-only: detections are bit-identical.
    assert_eq!(det_plain, det_jitter);
    assert!(!det_plain.is_empty());
}

/// A partition of every site from the coordinator stops all watermark
/// progress, so the stall detector must not count it as any one site's
/// silence: when the outage outlasts `stall_timeout`, the first rise after
/// the heal still suspects nobody, and with `auto_evict` every site stays
/// in. Detections equal a fault-free run's, with or without retransmit
/// jitter spreading the sites' first post-heal deliveries.
#[test]
fn a_global_outage_longer_than_the_stall_timeout_evicts_nobody() {
    fn run(outage: bool, jitter: Option<u64>) -> (Vec<(String, u64)>, decs::distrib::Metrics) {
        let config = EngineConfig {
            auto_evict: true,
            retransmit_jitter_seed: jitter,
            ..EngineConfig::default()
        };
        let mut e = Engine::new(
            &scenario(3, 99),
            config,
            &["A", "B"],
            &[("X", E::seq(E::prim("A"), E::prim("B")), Context::Chronicle)],
        )
        .unwrap();
        if outage {
            assert!(Nanos::from_millis(9_650) > EngineConfig::default().stall_timeout.get());
            for site in 0..3 {
                e.partition_site(site, Nanos::from_millis(350), Nanos::from_secs(10));
            }
        }
        for site in 0..3 {
            e.inject(Nanos::from_millis(400), site, "A", vec![])
                .unwrap();
        }
        // Composites that need sites 1 and 2 after the heal: an eviction
        // of either would refuse their notifications.
        e.inject(Nanos::from_secs(11), 1, "A", vec![]).unwrap();
        e.inject(Nanos::from_secs(12), 2, "B", vec![]).unwrap();
        e.inject(Nanos::from_millis(12_500), 1, "B", vec![])
            .unwrap();
        let det = e
            .run_until(Nanos::from_secs(20))
            .into_iter()
            .map(|d| (d.name.to_string(), d.occ.time.max_global()))
            .collect();
        (det, e.metrics())
    }
    let (expect, _) = run(false, None);
    assert!(!expect.is_empty());
    for jitter in [None, Some(0xD1CE)] {
        let (det, m) = run(true, jitter);
        assert_eq!(
            (m.auto_evictions, m.suspect_sites),
            (0, 0),
            "jitter {jitter:?}: a global outage is nobody's stall"
        );
        assert_eq!(det, expect, "jitter {jitter:?}: detections");
    }
}
