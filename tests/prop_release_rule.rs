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
//!
//! Two more checks use the same stamps. Site-local detection is compared
//! with a two-level reference: one detector per site, then the
//! coordinator's. And E11 shows what the rule buys: a naive function
//! that feeds events in arrival order matches release order on a calm
//! link, but diverges on some traces once the link jitter exceeds `2g_g`.

use decs::core::{CompositeTimestamp, PrimitiveTimestamp};
use decs::distrib::{Engine, EngineConfig};
use decs::simnet::{LinkConfig, Scenario, ScenarioBuilder, SplitMix64};
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

/// Detections and `A` occurrences (the `PLUS` initiators), in feed order.
type Fed = (
    Vec<Occurrence<CompositeTimestamp>>,
    Vec<Occurrence<CompositeTimestamp>>,
);

/// A fresh detector fed the trace's events in `order` (trace indices).
fn feed_in_order(events: &[Stamped], order: impl IntoIterator<Item = usize>) -> Fed {
    let mut d: PlanDetector<CompositeTimestamp> = PlanDetector::new();
    for n in NAMES {
        d.register(n).unwrap();
    }
    for (name, expr, ctx) in definitions() {
        d.define(name, &expr, ctx).unwrap();
    }
    let a = d.catalog().lookup("A").unwrap();
    let (mut detected, mut initiators) = (Vec::new(), Vec::new());
    for k in order {
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

/// The reference: a fresh detector fed every notification in
/// `(max global, site, per-site arrival)` order. Returns the detections
/// and the `A` occurrences in that order (the `PLUS` initiators).
fn reference(events: &[Stamped]) -> Fed {
    // Injection times strictly increase, so the trace index is each
    // site's arrival order.
    let mut keyed: Vec<(u64, u32, usize)> = events
        .iter()
        .enumerate()
        .map(|(k, (_, site, _, ts))| (ts.max_global(), *site, k))
        .collect();
    keyed.sort_unstable();
    feed_in_order(events, keyed.into_iter().map(|(_, _, k)| k))
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

/// Primitives, site-local definitions and global definitions of the
/// site-local property. The two local definitions read disjoint
/// primitives, so a trigger completes at most one of them and the
/// property does not depend on how a site orders one trigger's
/// completions.
const LOCAL_NAMES: [&str; 4] = ["A", "B", "C", "D"];

fn local_definitions() -> Vec<(&'static str, E, Context)> {
    vec![
        ("L1", E::seq(E::prim("A"), E::prim("B")), Context::Chronicle),
        ("L2", E::and(E::prim("C"), E::prim("D")), Context::Chronicle),
    ]
}

fn global_over_locals() -> Vec<(&'static str, E, Context)> {
    vec![
        (
            "G",
            E::seq(E::prim("L1"), E::prim("L2")),
            Context::Chronicle,
        ),
        ("H", E::and(E::prim("L2"), E::prim("A")), Context::Recent),
    ]
}

/// A dense four-type trace that opens with an `L1` on site 0 and, three
/// ticks later, an `L2` on site 1, so every case detects both local
/// definitions and `G`.
fn local_trace() -> impl Strategy<Value = Vec<(u64, u32, usize)>> {
    proptest::collection::vec((1u64..40, 0..SITES, 0usize..4), 16..48).prop_map(|rest| {
        let mut t = vec![(30, 0, 0), (20, 0, 1), (300, 1, 2), (20, 1, 3)];
        t.extend(rest);
        t
    })
}

/// The two-level reference: each site's own detector fed that site's
/// stamps in injection order, then one coordinator detector fed every
/// primitive and local detection sorted by `(max global, site, per-site
/// arrival)`. A site sends a primitive before the local detections it
/// triggers. A local detection is reported on release, before its own
/// cascade. Returns `(name, occurrence)` in detection order.
fn two_level_reference(events: &[Stamped]) -> Vec<(String, Occurrence<CompositeTimestamp>)> {
    let mut coord: PlanDetector<CompositeTimestamp> = PlanDetector::new();
    for n in LOCAL_NAMES {
        coord.register(n).unwrap();
    }
    for (name, _, _) in local_definitions() {
        coord.register(name).unwrap();
    }
    for (name, expr, ctx) in global_over_locals() {
        coord.define(name, &expr, ctx).unwrap();
    }
    let mut notes = Vec::new();
    for site in 0..SITES {
        let mut local: PlanDetector<CompositeTimestamp> = PlanDetector::new();
        for n in LOCAL_NAMES {
            local.register(n).unwrap();
        }
        for (name, expr, ctx) in local_definitions() {
            local.define(name, &expr, ctx).unwrap();
        }
        let mut arrival = 0u64;
        for (k, (_, s, ev, ts)) in events.iter().enumerate() {
            if *s != site {
                continue;
            }
            let ty = local.catalog().lookup(LOCAL_NAMES[*ev]).unwrap();
            let occ = Occurrence::primitive(ty, ts.clone(), vec![(k as i64).into()]);
            let detected = local.feed(occ.clone()).detected;
            for o in std::iter::once(occ).chain(detected) {
                let name = local.catalog().name(o.ty).to_owned();
                let is_local = o.ty != ty;
                let o = Occurrence {
                    ty: coord.catalog().lookup(&name).unwrap(),
                    ..o
                };
                notes.push(((o.time.max_global(), site, arrival), is_local, o));
                arrival += 1;
            }
        }
    }
    notes.sort_unstable_by_key(|&(key, _, _)| key);
    let mut out = Vec::new();
    for (_, is_local, occ) in notes {
        if is_local {
            out.push((coord.catalog().name(occ.ty).to_owned(), occ.clone()));
        }
        for d in coord.feed(occ).detected {
            out.push((coord.catalog().name(d.ty).to_owned(), d));
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Site-local detection end to end: local `SEQ` and `AND` detected at
    /// the sites, global definitions over them at the coordinator, on
    /// jittery links, per event and batched, equal the two-level
    /// reference in order.
    #[test]
    fn site_local_detection_matches_two_level_reference(
        trace in local_trace(),
        seed in 0u64..1_000,
        links in proptest::collection::vec(link(), SITES as usize..SITES as usize + 1),
        batch_ms in prop_oneof![Just(0u64), Just(30)],
    ) {
        let sc = scenario(seed);
        let events = stamped(&sc, &trace);
        let mut engine = Engine::with_local(
            &sc,
            EngineConfig {
                batch_interval: Nanos::from_millis(batch_ms),
                ..EngineConfig::default()
            },
            &LOCAL_NAMES,
            &local_definitions(),
            &global_over_locals(),
        )
        .unwrap();
        for (site, l) in links.iter().enumerate() {
            engine.set_link(site as u32, *l);
        }
        for (k, (at, site, ev, _)) in events.iter().enumerate() {
            engine.inject(*at, *site, LOCAL_NAMES[*ev], vec![(k as i64).into()]).unwrap();
        }
        let detections = engine.run_for(Nanos::from_secs(10));
        prop_assert_eq!(engine.metrics().stale_refused, 0);
        prop_assert_eq!(engine.buffered(), 0);

        let want = two_level_reference(&events);
        let locals = want.iter().filter(|(n, _)| n.starts_with('L')).count() as u64;
        prop_assert!(want.iter().any(|(n, _)| n == "G"), "trace detects no global composite");
        prop_assert_eq!((0..SITES).map(|s| engine.local_detections(s)).sum::<u64>(), locals);
        let got: Vec<_> = detections.into_iter().map(|d| (d.name.to_string(), d.occ)).collect();
        prop_assert_eq!(got.len(), want.len());
        prop_assert!(got == want, "engine detections differ from the two-level reference");
    }
}

/// Arrival order is not a chronology. The naive alternative to the
/// stability rule feeds each notification the moment it arrives: event
/// `k`'s link delay is drawn uniformly from `[base, base + jitter]`, a
/// site's stream is reassembled in FIFO order as the coordinator does,
/// and a fresh detector sees the events in delivery order. Returns the
/// detections.
fn arrival_order(
    events: &[Stamped],
    base: u64,
    jitter: u64,
    rng: &mut SplitMix64,
) -> Vec<Occurrence<CompositeTimestamp>> {
    let mut fifo_tail = [0u64; SITES as usize];
    let mut delivered: Vec<(u64, usize)> = events
        .iter()
        .enumerate()
        .map(|(k, (at, site, _, _))| {
            let arrives = at.get() + base + rng.next_below(jitter + 1);
            let tail = &mut fifo_tail[*site as usize];
            *tail = (*tail).max(arrives);
            (*tail, k)
        })
        .collect();
    delivered.sort_unstable();
    feed_in_order(events, delivered.into_iter().map(|(_, k)| k)).0
}

/// An E11-style trace from `rng`: bursts of one to four events 1–40 ms
/// apart on one site (same-site events may share a tick); a change of
/// site waits at least `2g_g` more, so cross-site events never share or
/// neighbor a tick and release-key order is injection order.
fn e11_trace(rng: &mut SplitMix64) -> Vec<(u64, u32, usize)> {
    let mut trace = Vec::new();
    let mut site = rng.next_below(u64::from(SITES)) as u32;
    while trace.len() < 32 {
        for _ in 0..rng.next_range(1, 4) {
            trace.push((rng.next_range(1, 40), site, rng.next_below(3) as usize));
        }
        site = (site + 1 + rng.next_below(u64::from(SITES) - 1) as u32) % SITES;
        trace.push((
            2 * GG_MS + rng.next_range(1, 40),
            site,
            rng.next_below(3) as usize,
        ));
    }
    trace
}

/// E11: over 256 seeded traces, feeding on arrival matches canonical
/// release on a calm link (constant latency, where arrival order is
/// release-key order by construction) and diverges on some traces once
/// the jitter exceeds `2g_g`. Prints the divergence rate per link.
#[test]
fn arrival_order_diverges_from_release_order_only_on_hostile_links() {
    const SEEDS: u64 = 256;
    // (label, base ms, jitter ms)
    let links = [("calm", 1, 0), ("wan", 40, 10), ("hostile", 50, 3 * GG_MS)];
    let mut diverged = [0u64; 3];
    for seed in 0..SEEDS {
        let mut rng = SplitMix64::new(seed);
        let sc = scenario(seed);
        let events = stamped(&sc, &e11_trace(&mut rng));
        let (want, _) = reference(&events);
        for (i, &(_, base, jitter)) in links.iter().enumerate() {
            let got = arrival_order(&events, base * 1_000_000, jitter * 1_000_000, &mut rng);
            if got != want {
                diverged[i] += 1;
            }
        }
    }
    for ((label, base, jitter), n) in links.iter().zip(diverged) {
        eprintln!("E11 {label} ({base} ms + [0, {jitter}] ms): {n}/{SEEDS} traces diverge");
    }
    assert_eq!(diverged[0], 0, "a calm link delivered out of release order");
    assert!(
        diverged[2] > 0,
        "a hostile link never reordered a detection"
    );
}
