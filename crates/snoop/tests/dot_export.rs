//! Graphviz export of shared plans.

use decs_snoop::{CentralTime, Context, EventExpr as E, PlanDetector};

/// Two definitions over the same `Seq(A, B)` body, one of which extends
/// it with a `; C` tail.
fn shared_plan() -> PlanDetector<CentralTime> {
    let mut p: PlanDetector<CentralTime> = PlanDetector::new();
    for n in ["A", "B", "C"] {
        p.register(n).unwrap();
    }
    let body = E::seq(E::prim("A"), E::prim("B"));
    p.define("X", &body, Context::Chronicle).unwrap();
    p.define("Y", &E::seq(body, E::prim("C")), Context::Chronicle)
        .unwrap();
    p
}

#[test]
fn plan_dot_renders_each_shared_node_once() {
    let p = shared_plan();
    let dot = p.to_dot();
    assert!(dot.starts_with("digraph decs_plan {"));
    assert!(dot.ends_with("}\n"));
    // Two unique operator boxes (inner SEQ shared by X and Y, outer SEQ
    // private to Y) — not the three an unshared render would show.
    assert_eq!(p.plan_node_count(), 2);
    assert_eq!(dot.matches("shape=box").count(), 2);
    // The shared SEQ is marked with a double border; exactly one node is.
    assert_eq!(p.shared_node_count(), 1);
    assert_eq!(dot.matches("peripheries=2").count(), 1);
    // Event sources render once each.
    for n in ["\"A\"", "\"B\"", "\"C\""] {
        assert_eq!(dot.matches(n).count(), 1, "{n} duplicated in:\n{dot}");
    }
}

#[test]
fn plan_dot_clusters_definitions_with_fanout_edges() {
    let dot = shared_plan().to_dot();
    // One cluster outline per definition, holding its named composite.
    for d in 0..2 {
        assert!(dot.contains(&format!("subgraph cluster_def{d}")));
    }
    for n in ["\"X\"", "\"Y\""] {
        assert!(dot.contains(n), "missing {n} in:\n{dot}");
    }
    assert_eq!(dot.matches("doubleoctagon").count(), 2);
    // A dashed fan-out edge leaves the shared root for each definition.
    assert_eq!(dot.matches("style=dashed").count(), 2);
    // The shared inner SEQ (node 0) feeds both X's cluster and Y's
    // private outer SEQ.
    assert!(dot.contains("n0 -> def0 [style=dashed]"));
    assert!(dot.contains("n0 -> n1"));
    assert!(dot.contains("n1 -> def1 [style=dashed]"));
}

#[test]
fn plan_dot_is_deterministic() {
    assert_eq!(shared_plan().to_dot(), shared_plan().to_dot());
}
