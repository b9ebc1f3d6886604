//! The stability rule against an independent reference.
//!
//! The coordinator releases a notification with maximum global tick `g`
//! once every site's watermark exceeds `g`, in release-key order
//! `(max global, site, per-site arrival)`. A site's watermark promises
//! that its later notifications sit at or above it, so no later key can
//! sort before a released one: the detector must see exactly the sequence
//! a fresh [`PlanDetector`] sees when fed the whole trace sorted by that
//! key up front. This suite checks that on traces dense in same-tick and
//! adjacent-tick cross-site events (the `2g_g`-concurrent cases the rule
//! releases without waiting out) over jittery, reordering links, per
//! event and batched.
//!
//! The reference computes each stamp from the scenario's clocks — it never
//! looks inside the engine. A `PLUS` definition puts coordinator-clock
//! timer fires between the release rounds; its detections must follow the
//! `A`s in canonical order, each stamped about two ticks after its
//! initiator. Every healthy run refuses nothing as stale.

use decs::core::{CompositeTimestamp, PrimitiveTimestamp};
use decs::distrib::{Engine, EngineConfig};
use decs::simnet::{LinkConfig, Scenario, ScenarioBuilder};
use decs::snoop::{Context, EventExpr as E, Occurrence, PlanDetector};
use decs_chronos::{Granularity, Nanos};
use proptest::prelude::*;

const SITES: u32 = 4;
const NAMES: [&str; 3] = ["A", "B", "C"];
/// `g_g` = 100 ms; `PLUS_TICKS` is the offset of the temporal definition.
const GG_MS: u64 = 100;
const PLUS_TICKS: u64 = 2;
const START_MS: u64 = 1_000;

/// The non-temporal definitions: SEQ, AND, NOT (guard GC), ANY
/// (Unrestricted GC) and a cascade level over SEQ.
fn definitions() -> Vec<(&'static str, E, Context)> {
    vec![
        ("S", E::seq(E::prim("A"), E::prim("B")), Context::Chronicle),
        ("N", E::and(E::prim("A"), E::prim("C")), Context::Continuous),
        (
            "G",
            E::not(E::prim("B"), E::prim("A"), E::prim("C")),
            Context::Chronicle,
        ),
        (
            "Y",
            E::any(2, vec![E::prim("A"), E::prim("B"), E::prim("C")]),
            Context::Unrestricted,
        ),
        ("Q", E::seq(E::prim("S"), E::prim("C")), Context::Recent),
    ]
}

/// A dense trace: strictly increasing injection times 1–40 ms apart
/// (a `g_g` holds several events, from several sites), as
/// (gap ms, site, event index). It opens mid-tick with A and B from two
/// sites in one tick and C from a third in the next, so every case holds
/// both kinds of cross-site pair whatever the draw.
fn trace() -> impl Strategy<Value = Vec<(u64, u32, usize)>> {
    proptest::collection::vec((1u64..40, 0..SITES, 0usize..3), 16..48).prop_map(|rest| {
        let mut t = vec![(30, 0, 0), (20, 1, 1), (100, 2, 2)];
        t.extend(rest);
        t
    })
}

/// Jittery, possibly reordering site links.
fn link() -> impl Strategy<Value = LinkConfig> {
    (0u64..8_000_000, 0u64..6_000_000, 0u8..2).prop_map(|(base, jitter, fifo)| LinkConfig {
        base_latency_ns: base,
        jitter_ns: jitter,
        fifo: fifo == 1,
        ..LinkConfig::lan()
    })
}

fn scenario(seed: u64) -> Scenario {
    ScenarioBuilder::new(SITES, seed)
        .global_granularity(Granularity::from_millis(GG_MS).unwrap())
        .max_offset_ns(1_000_000)
        .build()
        .unwrap()
}

/// One injection: true time, site, event index and the stamp the site
/// gives it.
type Stamped = (Nanos, u32, usize, CompositeTimestamp);

/// Absolute injection times and each injection's stamp, read from the
/// scenario's clock for its site at its true time.
fn stamped(sc: &Scenario, trace: &[(u64, u32, usize)]) -> Vec<Stamped> {
    let mut at = START_MS * 1_000_000;
    trace
        .iter()
        .map(|&(gap, site, ev)| {
            at += gap * 1_000_000;
            let p = sc.time_source(site).stamp(Nanos(at)).unwrap();
            let ts =
                CompositeTimestamp::singleton(PrimitiveTimestamp::new(p.site, p.global, p.local));
            (Nanos(at), site, ev, ts)
        })
        .collect()
}

/// The reference: a fresh detector fed every notification in
/// `(max global, site, per-site arrival)` order. Returns the detections
/// and the `A` occurrences in that order (the `PLUS` initiators).
fn reference(
    events: &[Stamped],
) -> (
    Vec<Occurrence<CompositeTimestamp>>,
    Vec<Occurrence<CompositeTimestamp>>,
) {
    let mut d: PlanDetector<CompositeTimestamp> = PlanDetector::new();
    for n in NAMES {
        d.register(n).unwrap();
    }
    for (name, expr, ctx) in definitions() {
        d.define(name, &expr, ctx).unwrap();
    }
    // Injection times strictly increase, so the trace index is each
    // site's arrival order.
    let mut keyed: Vec<(u64, u32, usize)> = events
        .iter()
        .enumerate()
        .map(|(k, (_, site, _, ts))| (ts.max_global(), *site, k))
        .collect();
    keyed.sort_unstable();
    let a = d.catalog().lookup("A").unwrap();
    let (mut detected, mut initiators) = (Vec::new(), Vec::new());
    for (_, _, k) in keyed {
        let (_, _, ev, ts) = &events[k];
        let ty = d.catalog().lookup(NAMES[*ev]).unwrap();
        let occ = Occurrence::primitive(ty, ts.clone(), vec![(k as i64).into()]);
        if ty == a {
            initiators.push(occ.clone());
        }
        detected.extend(d.feed(occ).detected);
    }
    (detected, initiators)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Engine detections equal the reference's, in order, whatever the
    /// links; `PLUS` fires follow their initiators in canonical order.
    #[test]
    fn early_release_matches_key_sorted_reference(
        trace in trace(),
        seed in 0u64..1_000,
        links in proptest::collection::vec(link(), SITES as usize..SITES as usize + 1),
        batch_ms in prop_oneof![Just(0u64), Just(30)],
    ) {
        let sc = scenario(seed);
        let events = stamped(&sc, &trace);
        // The trace holds the cases the rule releases early: cross-site
        // pairs in one tick and in adjacent ticks.
        let cross = |gap: u64| {
            events.windows(2).any(|w| {
                w[0].1 != w[1].1 && w[1].3.max_global() == w[0].3.max_global() + gap
            })
        };
        prop_assert!(cross(0) && cross(1), "trace lacks concurrent cross-site pairs");

        let mut defs = definitions();
        defs.push(("T", E::plus(E::prim("A"), PLUS_TICKS), Context::Chronicle));
        let mut engine = Engine::new(
            &sc,
            EngineConfig {
                batch_interval: Nanos::from_millis(batch_ms),
                ..EngineConfig::default()
            },
            &NAMES,
            &defs,
        )
        .unwrap();
        for (site, l) in links.iter().enumerate() {
            engine.set_link(site as u32, *l);
        }
        for (k, (at, site, ev, _)) in events.iter().enumerate() {
            engine.inject(*at, *site, NAMES[*ev], vec![(k as i64).into()]).unwrap();
        }
        let detections = engine.run_for(Nanos::from_secs(10));
        let m = engine.metrics();
        prop_assert_eq!(m.stale_refused, 0, "a healthy run refused a notification");
        prop_assert_eq!(m.events_received, events.len() as u64);
        prop_assert_eq!(engine.buffered(), 0);

        let (want, initiators) = reference(&events);
        let (fired, got): (Vec<_>, Vec<_>) = detections.into_iter().partition(|d| &*d.name == "T");
        let got: Vec<_> = got.into_iter().map(|d| d.occ).collect();
        prop_assert!(!want.is_empty());
        prop_assert_eq!(got.len(), want.len());
        prop_assert!(got == want, "engine detections differ from the key-sorted reference");

        prop_assert_eq!(fired.len(), initiators.len());
        for (f, a) in fired.iter().zip(&initiators) {
            prop_assert_eq!(&f.occ.params, &a.params, "PLUS fired out of canonical order");
            // Armed at release, which the coordinator's clock reads from
            // one tick before to two ticks after the initiator's tick
            // (clock skew, the rest of the tick, link time); fired
            // `PLUS_TICKS` later.
            let (g, ga) = (f.occ.time.max_global(), a.time.max_global());
            prop_assert!(
                ga + PLUS_TICKS - 1 <= g && g <= ga + PLUS_TICKS + 2,
                "PLUS fire at tick {} for an initiator at {}", g, ga
            );
        }
    }
}
