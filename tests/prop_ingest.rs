//! Equivalence property suite for the columnar ingestion path.
//!
//! The contract is exact: feeding a workload through the struct-of-arrays
//! [`EventBatch`] path (`PlanDetector::feed_batch_columnar`, arbitrarily
//! chunked, with the low watermark advanced after each chunk) must produce
//! the same named detections — same composite timestamps, same
//! accumulated parameters, same order — as feeding every occurrence
//! individually through `PlanDetector::feed` and advancing the watermark
//! after each one, for arbitrary traces across all five parameter
//! contexts, with buffer GC on or off, with plan sharing on or off. Rows
//! carry composite stamps from three sites and arrive in the
//! coordinator's canonical release order `(global, site, arrival)`, the
//! shape perfbench's `snoop_replay` times. A deterministic companion test
//! pins the arena no-resurrection guarantee: handles minted before a
//! generation reset never resolve afterwards.

use decs::core::{cts, CompositeTimestamp};
use decs::snoop::{
    Context, EventBatch, EventExpr as E, EventId, Occurrence, ParamArena, PlanDetector, Value,
};
use proptest::prelude::*;

const NAMES: [&str; 3] = ["A", "B", "C"];

const CTXS: [Context; 5] = [
    Context::Unrestricted,
    Context::Recent,
    Context::Chronicle,
    Context::Continuous,
    Context::Cumulative,
];

/// One timer-free definition per context. Bodies span the operator set:
/// binary Seq/And/Or, n-ary Any, and NOT (whose middle negative slot
/// makes parameter consumption order-sensitive — the sharpest probe for a
/// reordered feed).
fn build(unshared: bool) -> (PlanDetector<CompositeTimestamp>, Vec<EventId>) {
    let mut d = if unshared {
        PlanDetector::unshared()
    } else {
        PlanDetector::new()
    };
    let ids = NAMES.iter().map(|n| d.register(n).unwrap()).collect();
    let ab = E::seq(E::prim("A"), E::prim("B"));
    let bodies = [
        ab.clone(),
        E::and(ab.clone(), E::prim("C")),
        E::or(ab, E::prim("C")),
        E::any(2, vec![E::prim("A"), E::prim("B"), E::prim("C")]),
        E::not(E::prim("B"), E::prim("A"), E::prim("C")),
    ];
    for (i, (body, ctx)) in bodies.iter().zip(CTXS).enumerate() {
        d.define(&format!("D{i}"), body, ctx).unwrap();
    }
    (d, ids)
}

/// One stamped input row: (global tick, event index, stamp, payload).
type Row = (u64, usize, CompositeTimestamp, Vec<u64>);

/// Random workload rows (tick delta, site, event index, parameter
/// payload), stamped and put in canonical release order. Deltas of 0 keep
/// several rows on one tick, at one site or concurrently at several;
/// non-empty payloads force arena-backed parameter staging.
fn workload() -> impl Strategy<Value = Vec<Row>> {
    proptest::collection::vec(
        (
            0u64..3,
            0u32..3,
            0usize..3,
            proptest::collection::vec(0u64..50, 0..3),
        ),
        0..60,
    )
    .prop_map(|rows| {
        let mut g = 1;
        let mut stamped: Vec<(u64, u32, usize, usize, Vec<u64>)> = rows
            .into_iter()
            .enumerate()
            .map(|(i, (delta, site, ev, payload))| {
                g += delta;
                (g, site, i, ev, payload)
            })
            .collect();
        stamped.sort_by_key(|r| (r.0, r.1, r.2));
        stamped
            .into_iter()
            .map(|(g, site, i, ev, payload)| {
                // Local ticks rise with arrival at every site.
                let local = g * 100 + i as u64;
                (g, ev, cts(&[(site, g, local)]), payload)
            })
            .collect()
    })
}

type Detections = Vec<(String, Occurrence<CompositeTimestamp>)>;

fn named(
    d: &PlanDetector<CompositeTimestamp>,
    r: Vec<Occurrence<CompositeTimestamp>>,
) -> Detections {
    r.into_iter()
        .map(|o| (d.catalog().name(o.ty).to_string(), o))
        .collect()
}

fn values(payload: &[u64]) -> Vec<Value> {
    payload.iter().map(|&v| Value::Int(v as i64)).collect()
}

/// Oracle: one `feed` call per row, in order, with the watermark advanced
/// to the row's tick after it when GC is on.
fn run_per_event(unshared: bool, gc: bool, trace: &[Row]) -> Detections {
    let (mut d, ids) = build(unshared);
    let mut out = Vec::new();
    for (g, ev, ts, payload) in trace {
        let r = d.feed(Occurrence::primitive(ids[*ev], ts.clone(), values(payload)));
        assert!(r.timers.is_empty(), "timer-free definitions");
        out.extend(named(&d, r.detected));
        if gc {
            d.advance_watermark(*g);
        }
    }
    out
}

/// Candidate: the same rows staged struct-of-arrays and fed through
/// `feed_batch_columnar` in `chunk`-sized batches (chunk ≥ trace length ⇒
/// one whole-batch call), with the watermark advanced after each chunk
/// when GC is on. The staging batch is reused across chunks, so the
/// arena's generation counter actually advances mid-run.
fn run_columnar(unshared: bool, gc: bool, chunk: usize, trace: &[Row]) -> Detections {
    let (mut d, ids) = build(unshared);
    let mut batch = EventBatch::new();
    let mut out = Vec::new();
    for rows in trace.chunks(chunk.max(1)) {
        batch.clear();
        for (_, ev, ts, payload) in rows {
            if payload.is_empty() {
                batch.push_bare(ids[*ev], ts.clone());
            } else {
                batch.push(ids[*ev], ts.clone(), values(payload));
            }
        }
        let r = d.feed_batch_columnar(&batch);
        assert!(r.timers.is_empty(), "timer-free definitions");
        out.extend(named(&d, r.detected));
        if gc {
            d.advance_watermark(rows.last().expect("non-empty chunk").0);
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The tentpole contract: columnar ingestion detects exactly what
    /// per-event feeding detects, in every sampled configuration.
    #[test]
    fn columnar_ingest_is_bit_identical_to_per_event_feeds(
        trace in workload(),
        unshared in prop_oneof![Just(false), Just(true)],
        buffer_gc in prop_oneof![Just(true), Just(false)],
        chunk in 1usize..64,
    ) {
        let oracle = run_per_event(unshared, buffer_gc, &trace);
        let columnar = run_columnar(unshared, buffer_gc, chunk, &trace);
        prop_assert_eq!(
            &columnar, &oracle,
            "unshared={} gc={} chunk={}",
            unshared, buffer_gc, chunk
        );
    }
}

/// The arena's generation discipline, end to end: owned handles minted
/// before a `reset` never resolve afterwards — not even when the reset
/// arena re-fills the same slots — while interned bare handles are
/// immortal by construction.
#[test]
fn arena_reset_never_resurrects_owned_handles() {
    let (_, ids) = build(false);
    let (a, b) = (ids[0], ids[1]);

    let mut arena = ParamArena::new();
    let bare = arena.intern_bare(a);
    let old: Vec<_> = (0..8)
        .map(|i| arena.alloc(b, vec![Value::Int(i)]))
        .collect();
    for (i, &h) in old.iter().enumerate() {
        let params = arena.get(h).expect("live before reset");
        assert_eq!(params[0].values[0], Value::Int(i as i64));
    }

    arena.reset();
    // Refill every slot the old handles pointed at.
    let fresh: Vec<_> = (0..8)
        .map(|i| arena.alloc(b, vec![Value::Int(100 + i)]))
        .collect();
    for &h in &old {
        assert_eq!(arena.get(h), None, "stale handle resolved after reset");
    }
    for (i, &h) in fresh.iter().enumerate() {
        let params = arena.get(h).expect("fresh handles live");
        assert_eq!(params[0].values[0], Value::Int(100 + i as i64));
    }
    // Bare handles survive any number of resets.
    assert!(arena.get(bare).is_some());
    arena.reset();
    assert!(arena.get(bare).is_some());
}
