//! Equivalence property suite for the hot-path optimizations.
//!
//! Two contracts, both exact (not approximations):
//!
//! 1. **Relation kernels** — the cached-bound fast paths on
//!    `CompositeTimestamp` (`relation`, `happens_before`, `concurrent`,
//!    `weak_leq`, `max_op`) agree with the literal Definition 5.3/5.9
//!    pairwise scans (`*_naive`) on arbitrary member sets, including the
//!    band-separated shapes the fast paths short-circuit on.
//! 2. **Banded SEQ buffer** — the band-sorted initiator buffer behind
//!    `SEQ` (binary-searched certainly-before prefix, full `<_p` checks
//!    only inside the uncertainty band) emits exactly what the linear
//!    arrival-order scan emits, in the same order, with the same
//!    consumption, under every parameter context.
//! 3. **Watermark-driven buffer GC** — the engine, which always collects
//!    its operator buffers as the watermark advances, produces exactly the
//!    named detections, with the same composite timestamps and in the same
//!    order, as a bare `PlanDetector` that is fed the same occurrences in
//!    release-key order and never collected. Meanwhile it evicts state and
//!    holds less than the reference keeps. This is the contract that makes
//!    GC a pure memory optimization.

use decs::core::{cts, max_op, max_op_naive, CompositeTimestamp, PrimitiveTimestamp};
use decs::distrib::{Engine, EngineConfig, Metrics};
use decs::simnet::{Scenario, ScenarioBuilder};
use decs::snoop::{Context, EventExpr as E, Occurrence, PlanDetector};
use decs_chronos::{Granularity, Nanos};
use proptest::prelude::*;

/// Raw member triples for one stamp. Local ticks are derived from global
/// ticks plus jitter so each site's clock is monotone (Proposition 4.1 —
/// without it the member relation is not even a partial order and
/// `max(ST)` can be empty). `shift` is added to every global tick so pairs
/// of stamps drawn with different shifts exercise the band-separated fast
/// paths, not just the overlapping-band fallback.
fn members(shift: u64) -> impl Strategy<Value = Vec<(u32, u64, u64)>> {
    proptest::collection::vec((0u32..6, 0u64..12, 0u64..10), 1..6).prop_map(move |triples| {
        triples
            .into_iter()
            .map(|(s, g, j)| (s, g + shift, (g + shift) * 10 + j))
            .collect()
    })
}

/// A normalized composite stamp (`cts` goes through `max(ST)`).
fn stamp(shift: u64) -> impl Strategy<Value = CompositeTimestamp> {
    members(shift).prop_map(|t| cts(&t))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every fast-path kernel agrees with its naive oracle, pairwise.
    #[test]
    fn fast_kernels_equal_naive_oracles(
        a in stamp(0),
        shift in 0u64..30,
        b_raw in members(0),
    ) {
        // Shifting globals by `shift` and locals by `10·shift` preserves
        // per-site monotonicity and lands `b` 0–30 ticks above `a`.
        let b = cts(
            &b_raw
                .into_iter()
                .map(|(s, g, l)| (s, g + shift, l + shift * 10))
                .collect::<Vec<_>>(),
        );
        for (x, y) in [(&a, &b), (&b, &a), (&a, &a)] {
            prop_assert_eq!(x.relation(y), x.relation_naive(y));
            prop_assert_eq!(x.happens_before(y), x.happens_before_naive(y));
            prop_assert_eq!(x.concurrent(y), x.concurrent_naive(y));
            prop_assert_eq!(x.weak_leq(y), x.weak_leq_naive(y));
        }
        prop_assert_eq!(max_op(&a, &b), max_op_naive(&a, &b));
        prop_assert_eq!(max_op(&b, &a), max_op_naive(&b, &a));
    }

    /// Same contract at version-vector widths: 32- and 128-site stamps
    /// with partially overlapping site ranges and a band shift, so the
    /// merge-walk kernels (not just the narrow shapes above) are held to
    /// the naive oracles. Site bases up to 80 with width 128 also wrap
    /// the 64-bit `site_mask`, exercising mask-collision fall-through.
    #[test]
    fn fast_kernels_equal_naive_oracles_wide(
        wa in prop_oneof![Just(32usize), Just(128usize)],
        wb in prop_oneof![Just(32usize), Just(128usize)],
        base_a in 0u32..80,
        base_b in 0u32..80,
        g0 in 0u64..8,
        shift in 0u64..8,
        jitter in 0u64..400,
    ) {
        let wide = |base: u32, g0: u64, w: usize, salt: u64| {
            let m: Vec<(u32, u64, u64)> = (0..w as u32)
                .map(|i| {
                    let g = g0 + u64::from(i % 3);
                    (base + i, g, g * 1000 + salt + u64::from(i))
                })
                .collect();
            cts(&m)
        };
        let a = wide(base_a, g0, wa, 0);
        let b = wide(base_b, g0 + shift, wb, jitter);
        for (x, y) in [(&a, &b), (&b, &a), (&a, &a)] {
            prop_assert_eq!(x.relation(y), x.relation_naive(y));
            prop_assert_eq!(x.happens_before(y), x.happens_before_naive(y));
            prop_assert_eq!(x.concurrent(y), x.concurrent_naive(y));
            prop_assert_eq!(x.weak_leq(y), x.weak_leq_naive(y));
        }
        prop_assert_eq!(max_op(&a, &b), max_op_naive(&a, &b));
        prop_assert_eq!(max_op(&b, &a), max_op_naive(&b, &a));
    }
}

/// Banded SEQ buffer vs the linear arrival-order scan.
mod banded_seq {
    use super::*;
    use decs::snoop::{EventTime, Occurrence, PlanDetector};

    /// A random initiator/terminator stream. Each element is `(is_term,
    /// stamp)`; stamps use the same site-monotone construction as
    /// [`members`], with a per-element band shift so streams mix
    /// band-separated pairs (the binary-searched prefix) with overlapping
    /// ones (the full in-band `<_p` checks).
    fn stream() -> impl Strategy<Value = Vec<(bool, CompositeTimestamp)>> {
        let element = (0u64..2, 0u64..40, members(0)).prop_map(|(kind, shift, raw)| {
            let stamp = cts(&raw
                .into_iter()
                .map(|(s, g, l)| (s, g + shift, l + shift * 10))
                .collect::<Vec<_>>());
            (kind == 1, stamp)
        });
        proptest::collection::vec(element, 1..24)
    }

    /// The linear-scan oracle: `buffer_initiator`/`pair_terminator`
    /// semantics (arrival-order buffer, `init <_p term` predicate, the
    /// context's exact consumption rule), reimplemented independently of
    /// the banded production path. Each terminator's pairs are reported in
    /// the plan's canonical merge order (a stable sort by stamp).
    fn oracle(
        ctx: Context,
        a: decs::snoop::EventId,
        b: decs::snoop::EventId,
        x: decs::snoop::EventId,
        stream: &[(bool, CompositeTimestamp)],
    ) -> Vec<Occurrence<CompositeTimestamp>> {
        let mut inits: Vec<Occurrence<CompositeTimestamp>> = Vec::new();
        let mut out = Vec::new();
        for (is_term, t) in stream {
            if !is_term {
                let occ = Occurrence::bare(a, t.clone());
                if ctx == Context::Recent {
                    if let Some(existing) = inits.first() {
                        if occ.time.before(&existing.time) {
                            continue; // older than the buffered one: ignore
                        }
                        inits.clear();
                    }
                }
                inits.push(occ);
                continue;
            }
            let term = Occurrence::bare(b, t.clone());
            let hit = |i: &Occurrence<CompositeTimestamp>| i.time.before(&term.time);
            let round = out.len();
            match ctx {
                Context::Unrestricted => {
                    for init in inits.iter().filter(|i| hit(i)) {
                        out.push(Occurrence::combine(x, init, &term));
                    }
                }
                Context::Recent => {
                    if let Some(init) = inits.first() {
                        if hit(init) {
                            out.push(Occurrence::combine(x, init, &term));
                        }
                    }
                }
                Context::Chronicle => {
                    if let Some(pos) = inits.iter().position(&hit) {
                        let init = inits.remove(pos);
                        out.push(Occurrence::combine(x, &init, &term));
                    }
                }
                Context::Continuous => {
                    let mut kept = Vec::new();
                    for init in inits.drain(..) {
                        if hit(&init) {
                            out.push(Occurrence::combine(x, &init, &term));
                        } else {
                            kept.push(init);
                        }
                    }
                    inits = kept;
                }
                Context::Cumulative => {
                    let mut kept = Vec::new();
                    let mut used = Vec::new();
                    for init in inits.drain(..) {
                        if hit(&init) {
                            used.push(init);
                        } else {
                            kept.push(init);
                        }
                    }
                    inits = kept;
                    if !used.is_empty() {
                        let mut parts: Vec<&Occurrence<CompositeTimestamp>> = used.iter().collect();
                        parts.push(&term);
                        out.push(Occurrence::combine_all(x, parts.iter().copied()));
                    }
                }
            }
            out[round..].sort_by(|p, q| p.time.canonical_cmp(&q.time));
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The production `SEQ` detector (banded buffer) emits exactly
        /// what the linear oracle emits, in the same order, under every
        /// parameter context.
        #[test]
        fn banded_seq_equals_linear_oracle(stream in stream()) {
            for ctx in [
                Context::Unrestricted,
                Context::Recent,
                Context::Chronicle,
                Context::Continuous,
                Context::Cumulative,
            ] {
                let mut d: PlanDetector<CompositeTimestamp> = PlanDetector::new();
                let a = d.register("A").unwrap();
                let b = d.register("B").unwrap();
                let x = d.define("X", &E::seq(E::prim("A"), E::prim("B")), ctx).unwrap();
                let mut detected = Vec::new();
                for (is_term, t) in &stream {
                    let ty = if *is_term { b } else { a };
                    detected.extend(d.feed(Occurrence::bare(ty, t.clone())).detected);
                }
                let expected = oracle(ctx, a, b, x, &stream);
                prop_assert_eq!(&expected, &detected, "{}", ctx);
            }
        }
    }
}

const NAMES: [&str; 3] = ["A", "B", "C"];

/// A NOT definition (the operator whose buffers GC actually reclaims), an
/// ANY under Unrestricted (the structural-truncation rule), and a
/// cross-definition sequence for the shard cascade.
fn definitions() -> Vec<(&'static str, E, Context)> {
    vec![
        (
            "N",
            E::not(E::prim("B"), E::prim("A"), E::prim("C")),
            Context::Chronicle,
        ),
        (
            "W",
            E::any(2, vec![E::prim("A"), E::prim("B"), E::prim("C")]),
            Context::Unrestricted,
        ),
        ("Z", E::seq(E::prim("N"), E::prim("B")), Context::Chronicle),
    ]
}

/// Named detections: (definition, composite timestamp), in order.
type Named = Vec<(String, CompositeTimestamp)>;

/// One trace entry: (ms, site, event index).
type Trace = [(u64, u32, usize)];

/// Rounds in which NOT's openers are cancelled and its guards go dead:
/// A opens, B cancels it, A opens again, C closes (N fires for the
/// second A), spread over `sites`.
fn guard_heavy(rounds: u64, sites: u32) -> Vec<(u64, u32, usize)> {
    (0..rounds)
        .flat_map(|round| {
            let t = 60 + round * 70;
            [(t, 0, 0), (t + 20, 1, 1), (t + 40, 2, 0), (t + 60, 0, 2)]
                .map(|(ms, site, ev)| (ms, site % sites, ev))
        })
        .collect()
}

fn scenario(sites: u32, seed: u64) -> Scenario {
    ScenarioBuilder::new(sites, seed)
        .global_granularity(Granularity::per_second(10).unwrap())
        .max_offset_ns(1_000_000)
        .build()
        .unwrap()
}

/// The engine's detections and metrics for `trace`.
fn run(sc: &Scenario, trace: &Trace) -> (Named, Metrics) {
    let mut e = Engine::new(sc, EngineConfig::default(), &NAMES, &definitions()).unwrap();
    for &(ms, site, ev) in trace {
        e.inject(Nanos::from_millis(ms), site, NAMES[ev], vec![])
            .unwrap();
    }
    let det = e
        .run_for(Nanos::from_secs(8))
        .into_iter()
        .map(|d| (d.name.to_string(), d.occ.time))
        .collect();
    (det, e.metrics())
}

/// The reference: a bare plan fed every injection, stamped from the
/// scenario's clock for its site, in release-key order `(max global,
/// site, per-site arrival)`, and never collected. A site receives its
/// injections in true-time order, same-instant ones in trace order.
/// Returns the detections and the occupancy the plan ends with.
fn reference(sc: &Scenario, trace: &Trace) -> (Named, usize) {
    let mut d: PlanDetector<CompositeTimestamp> = PlanDetector::new();
    for n in NAMES {
        d.register(n).unwrap();
    }
    for (name, expr, ctx) in definitions() {
        d.define(name, &expr, ctx).unwrap();
    }
    let mut keyed: Vec<(u64, u32, u64, usize, CompositeTimestamp)> = trace
        .iter()
        .enumerate()
        .map(|(k, &(ms, site, _))| {
            let p = sc.time_source(site).stamp(Nanos::from_millis(ms)).unwrap();
            let ts =
                CompositeTimestamp::singleton(PrimitiveTimestamp::new(p.site, p.global, p.local));
            (p.global.get(), site, ms, k, ts)
        })
        .collect();
    keyed.sort_unstable_by_key(|&(g, site, ms, k, _)| (g, site, ms, k));
    let mut det = Vec::new();
    for (_, _, _, k, ts) in keyed {
        let ty = d.catalog().lookup(NAMES[trace[k].2]).unwrap();
        for o in d.feed(Occurrence::primitive(ty, ts, Vec::new())).detected {
            det.push((d.catalog().name(o.ty).to_string(), o.time));
        }
    }
    (det, d.buffered_occupancy())
}

/// The engine against the never-collected reference: the same detections
/// in order, some state evicted, and a peak below what the reference
/// keeps.
fn check_gc(sites: u32, seed: u64, trace: &Trace) -> Result<(), proptest::TestCaseError> {
    let sc = scenario(sites, seed);
    let (got, m) = run(&sc, trace);
    let (want, kept) = reference(&sc, trace);
    prop_assert!(!want.is_empty(), "the trace must detect");
    prop_assert_eq!(&got, &want);
    prop_assert!(m.gc_evicted > 0, "GC must reclaim the dead NOT state");
    prop_assert!(
        m.node_buffer_peak < kept,
        "GC peak {} must be below the {} entries the reference keeps",
        m.node_buffer_peak,
        kept
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The GC equivalence: collecting operator buffers as the watermark
    /// advances must not change what is detected, when, or in what order.
    /// Every trace opens with four guard-heavy rounds, so each case has
    /// dead state to reclaim.
    #[test]
    fn buffer_gc_is_equivalent_to_no_gc(
        raw_trace in proptest::collection::vec((10u64..3000, 0u32..6, 0usize..3), 0..50),
        sites in 1u32..7,
        seed in 0u64..1000,
    ) {
        let mut trace = guard_heavy(4, sites);
        trace.extend(raw_trace.into_iter().map(|(ms, site, ev)| (ms, site % sites, ev)));
        check_gc(sites, seed, &trace)?;
    }
}

/// Deterministic dense workload where the NOT definition's guards and
/// cancelled openers pile up: GC must actually evict, keep its peak below
/// what the never-collected reference holds, and still detect
/// identically.
#[test]
fn gc_evicts_on_a_guard_heavy_workload() {
    check_gc(3, 7, &guard_heavy(40, 3)).unwrap();
}
