//! The paper's extension claim, tested as a metamorphic property: on a
//! single site, the distributed semantics (composite timestamps, `<_p`,
//! `Max`) must detect *exactly* the same composite events as the
//! centralized semantics (total order, `max`) — because same-site
//! timestamps are totally ordered by their local ticks.
//!
//! We generate random event traces and random expressions, run the one
//! plan engine over both time domains, and compare detection counts and
//! occurrence times.

use decs_core::{cts, CompositeTimestamp};
use decs_snoop::{CentralTime, Context, EventExpr, EventTime, Occurrence, PlanDetector};
use proptest::prelude::*;

/// Build a random expression over primitive names "A", "B", "C".
fn expr_strategy() -> impl Strategy<Value = EventExpr> {
    let leaf = prop_oneof![
        Just(EventExpr::prim("A")),
        Just(EventExpr::prim("B")),
        Just(EventExpr::prim("C")),
    ];
    leaf.prop_recursive(3, 16, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| EventExpr::and(a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| EventExpr::or(a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| EventExpr::seq(a, b)),
            (inner.clone(), inner.clone(), inner.clone())
                .prop_map(|(g, o, c)| EventExpr::not(g, o, c)),
            (inner.clone(), inner.clone(), inner.clone())
                .prop_map(|(o, m, c)| EventExpr::aperiodic(o, m, c)),
            (inner.clone(), inner.clone(), inner)
                .prop_map(|(o, m, c)| EventExpr::aperiodic_star(o, m, c)),
        ]
    })
}

fn context_strategy() -> impl Strategy<Value = Context> {
    prop_oneof![
        Just(Context::Unrestricted),
        Just(Context::Recent),
        Just(Context::Chronicle),
        Just(Context::Continuous),
        Just(Context::Cumulative),
    ]
}

/// A trace of (event index 0..3, strictly increasing tick).
fn trace_strategy() -> impl Strategy<Value = Vec<(usize, u64)>> {
    proptest::collection::vec((0usize..3, 1u64..4), 0..24).prop_map(|gaps| {
        let mut t = 0;
        gaps.into_iter()
            .map(|(e, gap)| {
                t += gap;
                (e, t)
            })
            .collect()
    })
}

/// Single-site composite timestamp for local tick `t` (global = t / 10).
fn dist_time(t: u64) -> CompositeTimestamp {
    cts(&[(1, t / 10, t)])
}

/// A parameterless occurrence of `name` at `time`.
fn primitive<T: EventTime>(d: &PlanDetector<T>, name: &str, time: T) -> Occurrence<T> {
    Occurrence::primitive(d.catalog().lookup(name).unwrap(), time, vec![])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn single_site_distributed_equals_centralized(
        expr in expr_strategy(),
        ctx in context_strategy(),
        trace in trace_strategy(),
    ) {
        let names = ["A", "B", "C"];

        let mut central: PlanDetector<CentralTime> = PlanDetector::new();
        let mut distrib: PlanDetector<CompositeTimestamp> = PlanDetector::new();
        for n in names {
            central.register(n).unwrap();
            distrib.register(n).unwrap();
        }
        central.define("X", &expr, ctx).unwrap();
        distrib.define("X", &expr, ctx).unwrap();

        let mut central_dets: Vec<Occurrence<CentralTime>> = Vec::new();
        let mut distrib_dets: Vec<Occurrence<CompositeTimestamp>> = Vec::new();
        for &(e, t) in &trace {
            let rc = central.feed(primitive(&central, names[e], CentralTime(t)));
            prop_assert!(rc.timers.is_empty());
            central_dets.extend(rc.detected);
            let rd = distrib.feed(primitive(&distrib, names[e], dist_time(t)));
            distrib_dets.extend(rd.detected);
        }

        prop_assert_eq!(
            central_dets.len(),
            distrib_dets.len(),
            "detection counts diverge for {} [{}]",
            expr,
            ctx
        );
        for (c, d) in central_dets.iter().zip(distrib_dets.iter()) {
            // The distributed occurrence time must be the single-site stamp
            // of the same tick the centralized detector reported.
            let tick = c.time.get();
            prop_assert_eq!(&d.time, &dist_time(tick), "time diverges for {}", expr);
            // And the constituent parameter lists must match in shape.
            prop_assert_eq!(c.params.len(), d.params.len());
        }
    }
}
