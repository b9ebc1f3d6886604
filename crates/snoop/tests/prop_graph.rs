//! Randomized graph-level properties: masks filter soundly, detection
//! counts are monotone in the context hierarchy for SEQ, and feeding is
//! deterministic.

use decs_snoop::{CentralDetector, Context, EventExpr as E, Mask, Value};
use proptest::prelude::*;

fn trace_strategy() -> impl Strategy<Value = Vec<(usize, i64)>> {
    // (event 0/1, integer parameter)
    proptest::collection::vec((0usize..2, 0i64..200), 0..30)
}

fn run_counts(expr: &E, ctx: Context, trace: &[(usize, i64)]) -> usize {
    let names = ["A", "B"];
    let mut d = CentralDetector::new();
    for n in names {
        d.register(n).unwrap();
    }
    d.define("X", expr, ctx).unwrap();
    let mut count = 0;
    for (k, &(ev, v)) in trace.iter().enumerate() {
        count += d
            .feed(names[ev], k as u64 + 1, vec![Value::Int(v)])
            .unwrap()
            .len();
    }
    count
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// Masked detection counts equal unmasked detection over the filtered
    /// trace: filtering inside the graph ≡ filtering the input.
    #[test]
    fn mask_equals_prefiltering(trace in trace_strategy(), bound in 0i64..200) {
        let masked = E::seq(
            E::masked(E::prim("A"), Mask::AtLeast { index: 0, min: bound }),
            E::prim("B"),
        );
        let plain = E::seq(E::prim("A"), E::prim("B"));
        let filtered: Vec<(usize, i64)> = trace
            .iter()
            .copied()
            .filter(|&(ev, v)| ev != 0 || v >= bound)
            .collect();
        for ctx in [Context::Chronicle, Context::Unrestricted, Context::Continuous] {
            prop_assert_eq!(
                run_counts(&masked, ctx, &trace),
                run_counts(&plain, ctx, &filtered),
                "ctx {} bound {}", ctx, bound
            );
        }
    }

    /// Chronicle, Continuous and Recent detection counts never exceed the
    /// unrestricted count (restriction property of the contexts).
    #[test]
    fn restricted_contexts_detect_no_more_than_unrestricted(trace in trace_strategy()) {
        let expr = E::seq(E::prim("A"), E::prim("B"));
        let unrestricted = run_counts(&expr, Context::Unrestricted, &trace);
        for ctx in [Context::Recent, Context::Chronicle, Context::Continuous, Context::Cumulative] {
            prop_assert!(run_counts(&expr, ctx, &trace) <= unrestricted, "{ctx}");
        }
    }

    /// AND is commutative in its operands (same counts).
    #[test]
    fn and_is_commutative(trace in trace_strategy()) {
        let ab = E::and(E::prim("A"), E::prim("B"));
        let ba = E::and(E::prim("B"), E::prim("A"));
        for ctx in Context::ALL {
            prop_assert_eq!(run_counts(&ab, ctx, &trace), run_counts(&ba, ctx, &trace));
        }
    }

    /// OR counts are the sum of the operands' occurrence counts.
    #[test]
    fn or_counts_everything(trace in trace_strategy()) {
        let expr = E::or(E::prim("A"), E::prim("B"));
        prop_assert_eq!(run_counts(&expr, Context::Chronicle, &trace), trace.len());
    }

    /// Feeding the same trace twice into fresh detectors is identical
    /// (no hidden global state besides occurrence uids).
    #[test]
    fn detection_is_deterministic(trace in trace_strategy()) {
        let expr = E::aperiodic_star(E::prim("A"), E::prim("B"), E::prim("A"));
        let a = run_counts(&expr, Context::Continuous, &trace);
        let b = run_counts(&expr, Context::Continuous, &trace);
        prop_assert_eq!(a, b);
    }
}
