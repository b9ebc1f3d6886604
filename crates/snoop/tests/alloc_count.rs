//! Allocation accounting for the ANY/SEQ join sites.
//!
//! Like `crates/core/tests/alloc_count.rs`, this is a dedicated test
//! binary with exactly one `#[test]` so the counting global allocator sees
//! no concurrent traffic.
//!
//! The fixtures use *bare* occurrences (one empty parameter tuple) under
//! `CentralTime`, so the one allocation inherent to an emission is its
//! concatenated parameter slice (`Arc<[ParamTuple]>`) — every other count
//! is join-site or routing overhead. A tuple holds no values, or one
//! non-string value, in place and shares longer ones, so copying tuples
//! into that slice allocates nothing either way. What it pins:
//!
//! * `SeqNode` termination (the banded buffer) allocates exactly one
//!   count per emitted pairing — the matched-index staging reuses the
//!   buffer's scratch, independent of how many initiators match;
//! * `AnyNode` m-of-n detection allocates exactly the emission — no
//!   per-part occurrence clones, no parts or slot vec;
//! * a warm `PlanDetector` batch through two definitions sharing a `SEQ`
//!   body plus a `NOT` allocates exactly one count per operator emission,
//!   plus the returned detection vec — no per-delivery emission vec, no
//!   per-definition result vec, no replay-log entry, and no cascade clone
//!   of a detection no definition subscribes to;
//! * a warm batch through a `wide_plan`-shaped plan (`AND`/`SEQ` under
//!   Recent and Chronicle over shared bodies, `NOT`, `ANY(2)` and one
//!   cascade level) allocates exactly one params slice per executed
//!   emission plus the result vec: triggers and cascaded detections route
//!   by reference, and a replayed shared emission is free;
//! * `CompositeTimestamp::singleton` — the stamp of every event a site
//!   emits and every coordinator timer fire — allocates nothing;
//! * a primitive with one `Int` parameter, or none, allocates exactly its
//!   list, and combining two of them allocates exactly the new list.

use decs_core::{pts, CompositeTimestamp};
use decs_snoop::nodes::any::AnyNode;
use decs_snoop::nodes::seq::SeqNode;
use decs_snoop::nodes::{OperatorNode, Sink};
use decs_snoop::{CentralTime, Context, EventExpr as E, EventId, Occurrence, PlanDetector, Value};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs_during<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let before = ALLOCS.load(Ordering::Relaxed);
    let r = f();
    (ALLOCS.load(Ordering::Relaxed) - before, r)
}

fn bare(ty: u32, t: u64) -> Occurrence<CentralTime> {
    Occurrence::bare(EventId(ty), CentralTime(t))
}

#[test]
fn join_sites_allocate_only_per_emission() {
    // --- SEQ: Unrestricted keeps initiators, so repeated terminations are
    // a steady state; M matched initiators must cost exactly M emission
    // Arcs once buffers and scratch are warm.
    const M: usize = 32;
    let mut seq: SeqNode<CentralTime> = SeqNode::new(Context::Unrestricted);
    let mut em: Vec<Occurrence<CentralTime>> = Vec::new();
    let mut tr: Vec<(u64, u64)> = Vec::new();
    {
        let mut sink = Sink::new(EventId(9), &mut em, &mut tr);
        for i in 0..M {
            seq.on_child(0, &bare(0, i as u64 + 1), &mut sink);
        }
        // Warm up: first termination grows the scratch and emissions vec.
        seq.on_child(1, &bare(1, 100), &mut sink);
    }
    assert_eq!(em.len(), M, "fixture drifted: not all initiators matched");
    em.clear();
    em.reserve(M);
    let term = bare(1, 101);
    let (n, ()) = allocs_during(|| {
        let mut sink = Sink::new(EventId(9), &mut em, &mut tr);
        seq.on_child(1, &term, &mut sink);
    });
    assert_eq!(em.len(), M);
    assert_eq!(
        n, M,
        "SEQ termination with {M} matches must allocate exactly one params slice per emission"
    );

    // --- ANY(2 of N): Unrestricted re-fires on every arrival once m slots
    // are populated; a detection must cost exactly the emission's params
    // slice, regardless of how many slots the node has.
    const N: usize = 64;
    let mut any: AnyNode<CentralTime> = AnyNode::new(Context::Unrestricted, 2, N);
    let mut em: Vec<Occurrence<CentralTime>> = Vec::new();
    {
        let mut sink = Sink::new(EventId(9), &mut em, &mut tr);
        any.on_child(0, &bare(0, 1), &mut sink);
        // Warm up slot scratch + emissions (this arrival already detects).
        any.on_child(N - 1, &bare(1, 2), &mut sink);
    }
    assert_eq!(em.len(), 1, "fixture drifted: warm-up did not detect");
    em.clear();
    em.reserve(2);
    let arrival = bare(1, 3);
    let (n, ()) = allocs_during(|| {
        let mut sink = Sink::new(EventId(9), &mut em, &mut tr);
        any.on_child(N - 1, &arrival, &mut sink);
    });
    assert_eq!(em.len(), 1);
    assert_eq!(n, 1, "ANY detection must allocate exactly one params slice");

    // --- Plan path: `SEQ(A, B)` is one node shared by S1 and S2 (S1
    // executes it, S2 replays its log), and N negates over A..C. Each round
    // `G A B C D` emits four times — the shared body at B, S1 and N at C,
    // S2 at D — and detects three times (S1, N, S2; none is routed
    // anywhere). A watermark between rounds retires the dead guard, so a
    // warm round is a steady state.
    let mut plan: PlanDetector<CentralTime> = PlanDetector::new();
    let [a, b, c, d, g] = ["A", "B", "C", "D", "G"].map(|n| plan.register(n).unwrap());
    let body = || E::seq(E::prim("A"), E::prim("B"));
    let chronicle = Context::Chronicle;
    plan.define("S1", &E::seq(body(), E::prim("C")), chronicle)
        .unwrap();
    plan.define("S2", &E::seq(body(), E::prim("D")), chronicle)
        .unwrap();
    let not = E::not(E::prim("G"), E::prim("A"), E::prim("C"));
    plan.define("N", &not, chronicle).unwrap();
    assert_eq!(
        plan.shared_node_count(),
        1,
        "fixture drifted: body not shared"
    );
    const EMISSIONS: usize = 4;
    const DETECTIONS: usize = 3;
    let round = |t: u64| -> Vec<Occurrence<CentralTime>> {
        [g, a, b, c, d]
            .iter()
            .zip(t..)
            .map(|(&ty, t)| bare(ty.0, t))
            .collect()
    };
    for r in 0..4 {
        let out = plan.feed_batch(round(10 * r));
        assert_eq!(out.detected.len(), DETECTIONS, "fixture drifted: round {r}");
        plan.advance_watermark(10 * r + 10);
    }
    let batch = round(40);
    let (n, out) = allocs_during(|| plan.feed_batch(batch));
    assert_eq!(out.detected.len(), DETECTIONS);
    assert_eq!(
        n,
        EMISSIONS + 1,
        "a warm plan batch must allocate exactly one params slice per emission plus the result vec"
    );

    wide_plan_allocates_once_per_emission();

    // --- Singleton stamps live in the inline member buffer.
    let t = pts(3, 41, 410);
    let (n, stamp) = allocs_during(|| CompositeTimestamp::singleton(t));
    assert_eq!(stamp.members(), &[t]);
    assert_eq!(n, 0, "a singleton stamp must not allocate");

    // --- A lone scalar lives in place in its tuple.
    let values = vec![Value::Int(7)];
    let (n, a) = allocs_during(|| Occurrence::primitive(EventId(0), CentralTime(1), values));
    assert_eq!(n, 1, "a one-Int primitive must allocate exactly its list");
    let (n, _) = allocs_during(|| bare(0, 1));
    assert_eq!(n, 1, "a bare primitive must allocate exactly its list");
    let b = Occurrence::primitive(EventId(1), CentralTime(2), vec![Value::Int(8)]);
    let (n, ab) = allocs_during(|| Occurrence::combine(EventId(9), &a, &b));
    assert_eq!(ab.params[1].values[0], Value::Int(8));
    assert_eq!(
        n, 1,
        "combining scalar tuples must allocate exactly the list"
    );
}

/// A `wide_plan`-shaped plan: `AND` and `SEQ` definitions under Recent and
/// Chronicle over shared `SEQ(T0, T1)` bodies, a `NOT`, an `ANY(2)`, and a
/// cascade level `C = AND(A1, Q1)` over two named composites. In a warm
/// batch every allocation is either a detection's params slice, one of the
/// two bodies' executed emissions (their second binders replay the log for
/// free), or the growth of the returned detection vec: a trigger or a
/// cascaded detection is never copied into a definition on its way in.
fn wide_plan_allocates_once_per_emission() {
    let mut plan: PlanDetector<CentralTime> = PlanDetector::new();
    let t = ["T0", "T1", "T2", "T3", "T4", "T5"].map(|n| plan.register(n).unwrap());
    let p = E::prim;
    let body = || E::seq(p("T0"), p("T1"));
    let (recent, chronicle) = (Context::Recent, Context::Chronicle);
    plan.define("A1", &E::and(body(), p("T2")), recent).unwrap();
    plan.define("A2", &E::and(body(), p("T3")), recent).unwrap();
    plan.define("Q1", &E::seq(body(), p("T4")), chronicle)
        .unwrap();
    plan.define("Q2", &E::seq(body(), p("T5")), chronicle)
        .unwrap();
    plan.define("N", &E::not(p("T5"), p("T0"), p("T2")), chronicle)
        .unwrap();
    let any = E::any(2, vec![p("T0"), p("T2"), p("T4")]);
    plan.define("Y", &any, recent).unwrap();
    plan.define("C", &E::and(p("A1"), p("Q1")), recent).unwrap();
    assert_eq!(
        plan.shared_node_count(),
        2,
        "fixture drifted: bodies not shared"
    );
    assert_eq!(plan.stage_count(), 2, "fixture drifted: no cascade level");
    let round = |t0: u64| -> Vec<Occurrence<CentralTime>> {
        [0, 1, 2, 3, 4, 5, 2, 3, 4]
            .iter()
            .zip(t0..)
            .map(|(&i, at)| bare(t[i].0, at))
            .collect()
    };
    let named =
        ["A1", "A2", "Q1", "Q2", "N", "Y", "C"].map(|n| (n, plan.catalog().lookup(n).unwrap()));
    for r in 0..4 {
        let out = plan.feed_batch(round(10 * r));
        for (n, id) in named {
            assert!(
                out.detected.iter().any(|o| o.ty == id),
                "fixture drifted: round {r} detects no {n}"
            );
        }
        plan.advance_watermark(10 * r + 10);
    }
    let batch = round(40);
    let (n, out) = allocs_during(|| plan.feed_batch(batch));
    const BODY_EMISSIONS: usize = 2;
    let detections = out.detected.len();
    // What pushing the detections one by one into a fresh vec costs.
    let (result_vec, _) = allocs_during(|| {
        let mut v = Vec::new();
        for o in &out.detected {
            v.push(o.clone());
        }
        v
    });
    assert_eq!(
        n,
        detections + BODY_EMISSIONS + result_vec,
        "a warm wide_plan-shaped batch must allocate exactly one params slice per executed \
         emission plus the result vec ({detections} detections)"
    );
}
