//! Site-local detection: composite events detected *at the sites*, their
//! set-valued timestamps propagated to the coordinator, and global
//! composites built on top of them — the paper's two-level architecture.

use decs_chronos::{Granularity, Nanos};
use decs_distrib::{Engine, EngineConfig};
use decs_simnet::{Scenario, ScenarioBuilder};
use decs_snoop::{Context, EventExpr as E};

fn scenario(sites: u32) -> Scenario {
    ScenarioBuilder::new(sites, 808)
        .global_granularity(Granularity::per_second(10).unwrap())
        .max_offset_ns(1_000_000)
        .build()
        .unwrap()
}

#[test]
fn local_composites_are_detected_at_sites() {
    let mut e = Engine::with_local(
        &scenario(2),
        EngineConfig::default(),
        &["req", "resp"],
        &[(
            "round_trip",
            E::seq(E::prim("req"), E::prim("resp")),
            Context::Chronicle,
        )],
        &[],
    )
    .unwrap();
    // One round trip on site 0, one on site 1 — each detected locally.
    e.inject(Nanos::from_secs(1), 0, "req", vec![]).unwrap();
    e.inject(Nanos::from_secs(2), 0, "resp", vec![]).unwrap();
    e.inject(Nanos::from_secs(3), 1, "req", vec![]).unwrap();
    e.inject(Nanos::from_secs(4), 1, "resp", vec![]).unwrap();
    e.run_for(Nanos::from_secs(6));
    assert_eq!(e.local_detections(0), 1);
    assert_eq!(e.local_detections(1), 1);
    // Locality: a req on site 0 and a resp on site 1 never pair —
    // each site's graph only sees its own events.
    let mut e2 = Engine::with_local(
        &scenario(2),
        EngineConfig::default(),
        &["req", "resp"],
        &[(
            "round_trip",
            E::seq(E::prim("req"), E::prim("resp")),
            Context::Chronicle,
        )],
        &[],
    )
    .unwrap();
    e2.inject(Nanos::from_secs(1), 0, "req", vec![]).unwrap();
    e2.inject(Nanos::from_secs(2), 1, "resp", vec![]).unwrap();
    e2.run_for(Nanos::from_secs(4));
    assert_eq!(e2.local_detections(0) + e2.local_detections(1), 0);
}

#[test]
fn global_composite_over_local_composites() {
    // Global: round_trip@site0 ; round_trip@site1 — a sequence of *local
    // composite* events, each carrying its own Max timestamp.
    let mut e = Engine::with_local(
        &scenario(2),
        EngineConfig::default(),
        &["req", "resp"],
        &[(
            "round_trip",
            E::seq(E::prim("req"), E::prim("resp")),
            Context::Chronicle,
        )],
        &[(
            "cascade",
            E::seq(E::prim("round_trip"), E::prim("round_trip")),
            Context::Chronicle,
        )],
    )
    .unwrap();
    e.inject(Nanos::from_secs(1), 0, "req", vec![]).unwrap();
    e.inject(Nanos::from_secs(2), 0, "resp", vec![]).unwrap();
    e.inject(Nanos::from_secs(3), 1, "req", vec![]).unwrap();
    e.inject(Nanos::from_secs(4), 1, "resp", vec![]).unwrap();
    let det = e.run_for(Nanos::from_secs(7));
    let cascades: Vec<_> = det.iter().filter(|d| &*d.name == "cascade").collect();
    assert_eq!(cascades.len(), 1, "detections: {det:?}");
    // The cascade's parameters accumulate all four constituents.
    assert_eq!(cascades[0].occ.params.len(), 4);
}

#[test]
fn concurrent_local_composites_do_not_form_a_global_sequence() {
    let mut e = Engine::with_local(
        &scenario(2),
        EngineConfig::default(),
        &["req", "resp"],
        &[(
            "round_trip",
            E::seq(E::prim("req"), E::prim("resp")),
            Context::Chronicle,
        )],
        &[(
            "cascade",
            E::seq(E::prim("round_trip"), E::prim("round_trip")),
            Context::Chronicle,
        )],
    )
    .unwrap();
    // Both round trips complete within the same global tick (100 ms):
    // their Max timestamps are concurrent → no cascade.
    e.inject(Nanos::from_millis(1000), 0, "req", vec![])
        .unwrap();
    e.inject(Nanos::from_millis(1030), 0, "resp", vec![])
        .unwrap();
    e.inject(Nanos::from_millis(1010), 1, "req", vec![])
        .unwrap();
    e.inject(Nanos::from_millis(1040), 1, "resp", vec![])
        .unwrap();
    let det = e.run_for(Nanos::from_secs(4));
    assert_eq!(e.local_detections(0), 1);
    assert_eq!(e.local_detections(1), 1);
    assert!(
        det.iter().all(|d| &*d.name != "cascade"),
        "concurrent local composites must not sequence: {det:?}"
    );
}

#[test]
fn global_and_over_locals_carries_multi_member_timestamp() {
    let mut e = Engine::with_local(
        &scenario(2),
        EngineConfig::default(),
        &["req", "resp"],
        &[(
            "round_trip",
            E::seq(E::prim("req"), E::prim("resp")),
            Context::Chronicle,
        )],
        &[(
            "both_sites_active",
            E::and(E::prim("round_trip"), E::prim("round_trip")),
            Context::Chronicle,
        )],
    )
    .unwrap();
    e.inject(Nanos::from_millis(1000), 0, "req", vec![])
        .unwrap();
    e.inject(Nanos::from_millis(1030), 0, "resp", vec![])
        .unwrap();
    e.inject(Nanos::from_millis(1010), 1, "req", vec![])
        .unwrap();
    e.inject(Nanos::from_millis(1040), 1, "resp", vec![])
        .unwrap();
    let det = e.run_for(Nanos::from_secs(4));
    let and_det: Vec<_> = det
        .iter()
        .filter(|d| &*d.name == "both_sites_active")
        .collect();
    assert_eq!(and_det.len(), 1);
    // The Max of two concurrent local timestamps keeps a member per site —
    // the paper's set-valued t_occ, produced by real sites over a network.
    assert_eq!(and_det[0].occ.time.len(), 2, "{}", and_det[0].occ.time);
}

#[test]
fn local_temporal_operator_uses_site_clock() {
    // Local `req + 5` (5 global ticks = 500 ms): fires at each site with
    // the site's own stamp.
    let mut e = Engine::with_local(
        &scenario(2),
        EngineConfig::default(),
        &["req"],
        &[(
            "request_timeout",
            E::plus(E::prim("req"), 5),
            Context::Chronicle,
        )],
        &[],
    )
    .unwrap();
    e.inject(Nanos::from_secs(1), 1, "req", vec![]).unwrap();
    let det = e.run_for(Nanos::from_secs(3));
    let timeouts: Vec<_> = det
        .iter()
        .filter(|d| &*d.name == "request_timeout")
        .collect();
    assert_eq!(timeouts.len(), 1);
    let member = timeouts[0].occ.time.members()[0];
    assert_eq!(member.site().get(), 1, "stamped by site 1's clock");
    // ≈ 1.5 s of site-1 clock time → global tick ≈ 15.
    assert!((14..=16).contains(&member.global().get()), "{member}");
}
