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
//! 3. **Watermark-driven buffer GC** — the engine with `buffer_gc` on
//!    produces exactly the same named detections, with the same composite
//!    timestamps, in the same order, as with GC off. This is the contract
//!    that makes GC a pure memory optimization.

use decs::core::{cts, max_op, max_op_naive, CompositeTimestamp};
use decs::distrib::{Engine, EngineConfig, Metrics};
use decs::simnet::ScenarioBuilder;
use decs::snoop::{Context, EventExpr as E};
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

/// Random workload: (ms offset, site, event index).
fn workload(sites: u32) -> impl Strategy<Value = Vec<(u64, u32, usize)>> {
    proptest::collection::vec((10u64..3000, 0..sites, 0usize..3), 0..50)
}

fn build(sites: u32, seed: u64, buffer_gc: bool) -> Engine {
    let scenario = ScenarioBuilder::new(sites, seed)
        .global_granularity(Granularity::per_second(10).unwrap())
        .max_offset_ns(1_000_000)
        .build()
        .unwrap();
    Engine::new(
        &scenario,
        EngineConfig {
            buffer_gc,
            ..EngineConfig::default()
        },
        &NAMES,
        // A NOT definition (the operator whose buffers GC actually
        // reclaims), an ANY under Unrestricted (the structural-truncation
        // rule), and a cross-definition sequence for the shard cascade.
        &[
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
        ],
    )
    .unwrap()
}

fn run(
    sites: u32,
    seed: u64,
    buffer_gc: bool,
    trace: &[(u64, u32, usize)],
) -> (Vec<(String, CompositeTimestamp)>, Metrics) {
    let mut e = build(sites, seed, buffer_gc);
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The GC equivalence: collecting operator buffers as the watermark
    /// advances must not change what is detected, when, or in what order.
    #[test]
    fn buffer_gc_is_equivalent_to_no_gc(
        raw_trace in workload(6),
        sites in 1u32..7,
        seed in 0u64..1000,
    ) {
        let trace: Vec<(u64, u32, usize)> = raw_trace
            .into_iter()
            .map(|(ms, site, ev)| (ms, site % sites, ev))
            .collect();
        let (plain, m_off) = run(sites, seed, false, &trace);
        let (gc, m_on) = run(sites, seed, true, &trace);
        prop_assert_eq!(&plain, &gc);
        // Same workload on both sides; the off run really had GC off.
        prop_assert_eq!(m_off.events_received, m_on.events_received);
        prop_assert_eq!(m_off.gc_evicted, 0);
        // GC never leaves *more* state buffered.
        prop_assert!(m_on.node_buffered <= m_off.node_buffered);
    }
}

/// Deterministic dense workload where the NOT definition's guards and
/// cancelled openers pile up: GC must actually evict, bound occupancy below
/// the no-GC run, and still detect identically (checked by the property
/// above; re-checked here on this specific trace).
#[test]
fn gc_evicts_on_a_guard_heavy_workload() {
    let mut trace = Vec::new();
    for round in 0..40u64 {
        let t = 60 + round * 70;
        trace.push((t, 0u32, 0usize)); // A opens
        trace.push((t + 20, 1, 1)); // B cancels it
        trace.push((t + 40, 2, 0)); // A opens again
        trace.push((t + 60, 0, 2)); // C closes → N fires for the 2nd A
    }
    let (plain, m_off) = run(3, 7, false, &trace);
    let (gc, m_on) = run(3, 7, true, &trace);
    assert_eq!(plain, gc);
    assert!(!gc.is_empty(), "workload must actually detect");
    assert!(m_on.gc_evicted > 0, "GC must reclaim the dead NOT state");
    assert!(
        m_on.node_buffer_peak < m_off.node_buffer_peak,
        "GC peak {} must be below no-GC peak {}",
        m_on.node_buffer_peak,
        m_off.node_buffer_peak
    );
}
