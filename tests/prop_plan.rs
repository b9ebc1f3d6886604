//! Equivalence property suite for the shared, hash-consed plan IR.
//!
//! The contract is exact: compiling a definition set into **one shared
//! plan** (`plan_sharing: true`, the default) must produce the same named
//! detections — same composite timestamps, same accumulated parameters,
//! same order — as compiling every definition **independently**
//! (`plan_sharing: false`, the same engine in its unshared mode — the
//! differential oracle), for arbitrary overlapping definition sets across
//! all five parameter contexts, with buffer GC on or off.

use decs::distrib::{Engine, EngineConfig, Metrics};
use decs::simnet::ScenarioBuilder;
use decs::snoop::{Context, EventExpr, EventExpr as E};
use decs_chronos::{Granularity, Nanos};
use decs_core::CompositeTimestamp;
use proptest::prelude::*;

const NAMES: [&str; 3] = ["A", "B", "C"];

const CTXS: [Context; 5] = [
    Context::Unrestricted,
    Context::Recent,
    Context::Chronicle,
    Context::Continuous,
    Context::Cumulative,
];

/// Candidate definition bodies, built so random picks overlap: several
/// share the `Seq(A, B)` core, `ANY`/`NOT` share their primitive slots,
/// picking the same body twice under one context (common at 1–6 picks
/// from 6 shapes × 5 contexts) shares the whole tree, and the last body
/// is a **stateless** `Or` over primitives, which shares across *all*
/// contexts (stateful operators cons-key by context; forwarders don't).
/// Timer operators are excluded on purpose — they are never shared (each
/// keeps a private node), and `tests/prop_distributed.rs` already covers
/// their engine path.
fn bodies() -> Vec<EventExpr> {
    let ab = E::seq(E::prim("A"), E::prim("B"));
    vec![
        ab.clone(),
        E::and(ab.clone(), E::prim("C")),
        E::or(ab, E::prim("C")),
        E::any(2, vec![E::prim("A"), E::prim("B"), E::prim("C")]),
        E::not(E::prim("B"), E::prim("A"), E::prim("C")),
        E::or(E::prim("A"), E::prim("C")),
    ]
}

/// Random workload: (ms offset, site, event index).
fn workload(sites: u32) -> impl Strategy<Value = Vec<(u64, u32, usize)>> {
    proptest::collection::vec((10u64..3000, 0..sites, 0usize..3), 0..40)
}

/// One run: compile the picked `(body, context)` definitions with or
/// without plan sharing, inject the trace, and collect the full
/// detections (name, timestamp, parameters — via `Occurrence` equality).
fn run(
    seed: u64,
    plan_sharing: bool,
    buffer_gc: bool,
    picks: &[(usize, usize)],
    trace: &[(u64, u32, usize)],
) -> (
    Vec<(String, decs::snoop::Occurrence<CompositeTimestamp>)>,
    Metrics,
) {
    let scenario = ScenarioBuilder::new(4, seed)
        .global_granularity(Granularity::per_second(10).unwrap())
        .max_offset_ns(1_000_000)
        .build()
        .unwrap();
    let pool = bodies();
    let names: Vec<String> = (0..picks.len()).map(|i| format!("D{i}")).collect();
    let defs: Vec<(&str, EventExpr, Context)> = picks
        .iter()
        .zip(&names)
        .map(|(&(b, c), name)| (name.as_str(), pool[b].clone(), CTXS[c]))
        .collect();
    let mut e = Engine::new(
        &scenario,
        EngineConfig {
            plan_sharing,
            buffer_gc,
            ..EngineConfig::default()
        },
        &NAMES,
        &defs,
    )
    .unwrap();
    for &(ms, site, ev) in trace {
        e.inject(Nanos::from_millis(ms), site, NAMES[ev], vec![])
            .unwrap();
    }
    let det = e
        .run_for(Nanos::from_secs(6))
        .into_iter()
        .map(|d| (d.name.to_string(), d.occ))
        .collect();
    (det, e.metrics())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The tentpole contract: the shared plan detects exactly what
    /// independent compilation detects, in every sampled configuration.
    #[test]
    fn shared_plan_is_bit_identical_to_independent_compilation(
        raw_trace in workload(4),
        picks in proptest::collection::vec((0usize..6, 0usize..5), 1..6),
        seed in 0u64..1000,
        buffer_gc in prop_oneof![Just(true), Just(false)],
    ) {
        let (shared, m_shared) = run(seed, true, buffer_gc, &picks, &raw_trace);
        let (unshared, m_unshared) = run(seed, false, buffer_gc, &picks, &raw_trace);
        prop_assert_eq!(&shared, &unshared, "picks={:?}", picks);
        // Both runs saw the same workload.
        prop_assert_eq!(m_shared.events_received, m_unshared.events_received);
        prop_assert_eq!(m_shared.events_released, m_unshared.events_released);
        // The oracle really compiled independently…
        prop_assert_eq!(m_unshared.shared_nodes, 0);
        prop_assert_eq!(m_unshared.sharing_ratio, 0.0);
        // …and the plan never has more nodes than the independent graphs.
        prop_assert!(m_shared.plan_nodes <= m_unshared.plan_nodes);
        // A duplicated `(body, context)` pick provably shares at least one
        // node (same structure, same context ⇒ cons hit on the whole
        // tree); so does any duplicated pick of the stateless body 5
        // (forwarder cons keys carry no context).
        let mut sorted: Vec<(usize, usize)> = picks
            .iter()
            .map(|&(b, c)| (b, if b == 5 { 0 } else { c }))
            .collect();
        sorted.sort_unstable();
        sorted.dedup();
        if sorted.len() < picks.len() {
            prop_assert!(m_shared.shared_nodes > 0, "picks={:?}", picks);
        }
    }
}

/// Deterministic spot check: the stateless `Or(A, C)` body under all five
/// contexts collapses to **one** plan node bound by five definitions —
/// forwarder cons keys carry no context (a forwarder holds no state for a
/// context to consume), so sharing crosses context boundaries. Stateful
/// bodies do the opposite: the same `Seq(A,B) ∧ C` under five contexts
/// shares nothing, because consumption contexts change operator state.
#[test]
fn five_contexts_over_one_body_share_and_match() {
    let trace: Vec<(u64, u32, usize)> = (0..30)
        .map(|i| (100 + i * 90, (i % 4) as u32, (i % 3) as usize))
        .collect();
    let stateless: Vec<(usize, usize)> = (0..5).map(|c| (5, c)).collect();
    let (shared, m_shared) = run(7, true, true, &stateless, &trace);
    let (unshared, m_unshared) = run(7, false, true, &stateless, &trace);
    assert_eq!(shared, unshared);
    assert!(!shared.is_empty(), "workload must actually detect");
    assert_eq!(m_unshared.shared_nodes, 0);
    // One Or node where independent compilation builds five.
    assert_eq!(m_shared.plan_nodes, 1);
    assert_eq!(m_shared.shared_nodes, 1);
    assert!(m_shared.sharing_ratio > 0.0);

    let stateful: Vec<(usize, usize)> = (0..5).map(|c| (1, c)).collect();
    let (s2, m2) = run(7, true, true, &stateful, &trace);
    let (u2, m2u) = run(7, false, true, &stateful, &trace);
    assert_eq!(s2, u2);
    assert_eq!(m2.shared_nodes, 0, "contexts must keep stateful ops apart");
    assert_eq!(m2.plan_nodes, m2u.plan_nodes);
}

/// Duplicate definitions under one context are the extreme case: the
/// second definition adds zero plan nodes.
#[test]
fn duplicate_definitions_add_no_plan_nodes() {
    let picks_one = vec![(0, 2)];
    let picks_two = vec![(0, 2), (0, 2)];
    let trace: Vec<(u64, u32, usize)> = (0..20)
        .map(|i| (100 + i * 120, (i % 4) as u32, (i % 2) as usize))
        .collect();
    let (one, m_one) = run(3, true, true, &picks_one, &trace);
    let (two, m_two) = run(3, true, true, &picks_two, &trace);
    assert_eq!(m_one.plan_nodes, m_two.plan_nodes);
    assert_eq!(m_two.shared_nodes, 1); // the one Seq node, bound twice
    assert!(!one.is_empty());
    // D1 mirrors D0 occurrence-for-occurrence.
    assert_eq!(two.len(), 2 * one.len());
}
