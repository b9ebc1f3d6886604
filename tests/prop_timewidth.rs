//! Width-sweep property suite for the version-vector timestamp kernels.
//!
//! Two contracts, both exact:
//!
//! 1. **Kernels ≡ oracles** — the per-site merge-walk kernels behind
//!    `relation`/`happens_before`/`concurrent`/`weak_leq` and the
//!    survivor-merge behind `max_op` agree with the literal Definition
//!    5.3/5.9 member scans on stamps of width 2–128: partially shared
//!    site sets, multi-member same-site runs, overlapping and separated
//!    bands, and `site_mask` bit collisions (site spans > 64 wrap the
//!    64-bit mask).
//! 2. **End-to-end** — a stream of wide-stamped occurrences detects
//!    identically through both sharing modes of the plan detector (the
//!    hash-consed shared plan and its unshared mode), across all five
//!    parameter contexts at once (one definition per context, spanning
//!    SEQ's banded buffer, ANY's m-of-n join and NOT's guard checks),
//!    with watermark GC on or off.

use decs::core::{cts, max_op, max_op_naive, CompositeTimestamp};
use decs::snoop::{Context, EventExpr as E, Occurrence, PlanDetector, Value};
use proptest::prelude::*;

/// Sampled stamp widths, 2 to 128 members.
fn width() -> impl Strategy<Value = usize> {
    prop_oneof![Just(2usize), Just(8), Just(32), Just(128)]
}

/// A width-`w` stamp: sites `base..base+w`, globals `g0 + (i % spread)`,
/// locals derived from globals so each site's clock is monotone. Every
/// fifth site contributes a second member one global tick later with the
/// *same* local tick (simultaneous, so `max(ST)` keeps both) — a
/// multi-member same-site run, the shape the kernels summarize.
fn wide_stamp(base: u32, g0: u64, w: usize, spread: u64, salt: u64) -> CompositeTimestamp {
    let mut members = Vec::new();
    for i in 0..w as u32 {
        let g = g0 + (u64::from(i) % spread.max(1));
        let l = g * 1000 + salt + u64::from(i) % 400;
        members.push((base + i, g, l));
        if i % 5 == 0 {
            members.push((base + i, g + 1, l));
        }
    }
    cts(&members)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Contract 1: every vector kernel is bit-identical to its naive
    /// member-scan oracle on wide pairs, in both orders and reflexively.
    #[test]
    fn vector_kernels_equal_naive_oracles_across_widths(
        wa in width(),
        wb in width(),
        base_a in 0u32..80,
        base_b in 0u32..80,
        g0 in 0u64..6,
        shift in 0u64..6,
        spread_a in 1u64..4,
        spread_b in 1u64..4,
        salt_b in 0u64..400,
    ) {
        let a = wide_stamp(base_a, g0, wa, spread_a, 0);
        let b = wide_stamp(base_b, g0 + shift, wb, spread_b, salt_b);
        for (x, y) in [(&a, &b), (&b, &a), (&a, &a)] {
            prop_assert_eq!(x.relation(y), x.relation_naive(y));
            prop_assert_eq!(x.happens_before(y), x.happens_before_naive(y));
            prop_assert_eq!(x.concurrent(y), x.concurrent_naive(y));
            prop_assert_eq!(x.weak_leq(y), x.weak_leq_naive(y));
        }
        let j = max_op(&a, &b);
        prop_assert_eq!(&j, &max_op_naive(&a, &b));
        prop_assert_eq!(&max_op(&b, &a), &j);
        prop_assert!(j.invariant_holds());
    }

    /// The `site_mask` is 64-bit (bit `site % 64`), so sites exactly 64
    /// apart collide. Stamps built purely from colliding site pairs must
    /// still classify and join exactly: a collision may only *disable*
    /// the disjoint-mask O(1) tier, never corrupt the answer.
    #[test]
    fn site_mask_collisions_stay_exact(
        k in 0u32..64,
        g0 in 0u64..6,
        shift in 0u64..6,
        extra_sites in proptest::collection::vec(0u32..3, 0..3),
        salt_b in 0u64..400,
    ) {
        // `a` on {k, k+64}, `b` on {k+64, k+128} plus a few more
        // 64-apart echoes: every site of `b` shares a mask bit with a
        // *different* site of `a`.
        let ga = g0;
        let gb = g0 + shift;
        let a = cts(&[(k, ga, ga * 1000 + 1), (k + 64, ga, ga * 1000 + 2)]);
        let mut bm = vec![
            (k + 64, gb, gb * 1000 + salt_b),
            (k + 128, gb, gb * 1000 + salt_b + 1),
        ];
        for (i, e) in extra_sites.iter().enumerate() {
            bm.push((k + 64 * (e + 1), gb, gb * 1000 + salt_b + 2 + i as u64));
        }
        let b = cts(&bm);
        prop_assert_eq!(a.site_mask() & b.site_mask() != 0, true, "fixture must collide");
        for (x, y) in [(&a, &b), (&b, &a)] {
            prop_assert_eq!(x.relation(y), x.relation_naive(y));
            prop_assert_eq!(x.happens_before(y), x.happens_before_naive(y));
            prop_assert_eq!(x.concurrent(y), x.concurrent_naive(y));
            prop_assert_eq!(x.weak_leq(y), x.weak_leq_naive(y));
        }
        prop_assert_eq!(max_op(&a, &b), max_op_naive(&a, &b));
    }
}

// --- Contract 2: end-to-end detection equivalence -----------------------

const NAMES: [&str; 3] = ["A", "B", "C"];

/// One definition per context: SEQ (banded buffer), ANY (m-of-n join),
/// NOT (guard checks), AND, and SEQ under Cumulative (the `combine_all`
/// emission path).
fn define_all(d: &mut PlanDetector<CompositeTimestamp>) {
    for n in NAMES {
        d.register(n).unwrap();
    }
    let defs = [
        (
            "D0",
            E::seq(E::prim("A"), E::prim("B")),
            Context::Unrestricted,
        ),
        (
            "D1",
            E::any(2, vec![E::prim("A"), E::prim("B"), E::prim("C")]),
            Context::Recent,
        ),
        (
            "D2",
            E::not(E::prim("B"), E::prim("A"), E::prim("C")),
            Context::Chronicle,
        ),
        (
            "D3",
            E::and(E::prim("A"), E::prim("B")),
            Context::Continuous,
        ),
        (
            "D4",
            E::seq(E::prim("A"), E::prim("C")),
            Context::Cumulative,
        ),
    ];
    for (name, expr, ctx) in defs {
        d.define(name, &expr, ctx).unwrap();
    }
}

/// Trace element: (event 0..3, band delta, width, base site, payload).
type Row = (usize, u64, usize, u32, Vec<u64>);

fn trace() -> impl Strategy<Value = Vec<Row>> {
    proptest::collection::vec(
        (
            0usize..3,
            0u64..3,
            width(),
            0u32..8,
            proptest::collection::vec(0u64..50, 0..2),
        ),
        0..28,
    )
}

/// Materialize the rows: bands are cumulative (so watermarks stay valid),
/// stamps use the same generator as the kernel contract.
fn occurrences(
    d_catalog: &decs::snoop::Catalog,
    rows: &[Row],
) -> Vec<(Occurrence<CompositeTimestamp>, u64)> {
    let mut band = 2u64;
    rows.iter()
        .map(|(ev, delta, w, base, payload)| {
            band += delta;
            let ty = d_catalog.lookup(NAMES[*ev]).unwrap();
            let stamp = wide_stamp(*base, band, *w, 2, u64::from(*base) * 7);
            let values: Vec<Value> = payload.iter().map(|&v| Value::Int(v as i64)).collect();
            let occ = if values.is_empty() {
                Occurrence::bare(ty, stamp)
            } else {
                Occurrence::primitive(ty, stamp, values)
            };
            (occ, band)
        })
        .collect()
}

/// Detections keyed portably: catalogs may intern different `EventId`s
/// for the same definition name across backends, so compare by name.
type Detections = Vec<(String, CompositeTimestamp, decs::snoop::ParamList)>;

fn keyed(cat: &decs::snoop::Catalog, detected: Vec<Occurrence<CompositeTimestamp>>) -> Detections {
    detected
        .into_iter()
        .map(|o| (cat.name(o.ty).to_owned(), o.time, o.params))
        .collect()
}

/// Run the trace through a [`PlanDetector`] in either sharing mode,
/// optionally advancing the watermark after every feed (GC).
fn run_plan(unshared: bool, gc: bool, rows: &[Row]) -> Detections {
    let mut d: PlanDetector<CompositeTimestamp> = if unshared {
        PlanDetector::unshared()
    } else {
        PlanDetector::new()
    };
    define_all(&mut d);
    let rows = occurrences(d.catalog(), rows);
    let mut out = Vec::new();
    for (occ, band) in rows {
        let r = d.feed(occ);
        assert!(r.timers.is_empty(), "definitions are timer-free");
        out.extend(keyed(d.catalog(), r.detected));
        if gc {
            d.advance_watermark(band);
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Wide-stamp streams detect identically in both sharing modes, with
    /// GC on or off.
    #[test]
    fn wide_stamp_detections_identical_across_backends(rows in trace()) {
        let reference = run_plan(true, false, &rows);
        for (unshared, gc) in [(true, true), (false, false), (false, true)] {
            let got = run_plan(unshared, gc, &rows);
            prop_assert_eq!(&reference, &got, "unshared={} gc={}", unshared, gc);
        }
    }
}
