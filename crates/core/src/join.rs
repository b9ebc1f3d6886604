//! Joining procedures and the `Max` operator (Definitions 5.7–5.9,
//! Theorem 5.4).
//!
//! When a composite event node fires, the timestamps of its constituents
//! must be combined into the timestamp it propagates upward. In the
//! centralized semantics this is `t_occ = max(t1, t2)`; in the distributed
//! semantics it is the **`Max` operator**. The paper gives two
//! characterizations:
//!
//! * **Definition 5.9** (case analysis):
//!   ```text
//!   Max(T1, T2) = T1        if T2 < T1
//!               = T2        if T1 < T2
//!               = T1 ⊎ T2   if concurrent or incomparable
//!   ```
//!   where `⊎` is plain union for concurrent sets (Definition 5.7) and
//!   "keep the mutually-undominated members" for incomparable sets
//!   (Definition 5.8).
//! * **Theorem 5.4** (soundness): `Max(T1, T2) = max(T1 ∪ T2)` — the
//!   maximal set of the combined constituents.
//!
//! **Reproduction finding.** These two characterizations *disagree* on the
//! ordered branches. Example: `T2 = {(s1,8,85),(s2,8,87)} <_p
//! T1 = {(s1,9,90)}` (the single member of `T1` has the same-site
//! predecessor `(s1,8,85)`), yet `(s2,8,87)` is concurrent with `(s1,9,90)`
//! and therefore belongs to `max(T1 ∪ T2)`; Definition 5.9 would discard
//! it. We take the theorem as normative — [`max_op`] always computes
//! `max(T1 ∪ T2)`, making Theorem 5.4 true by construction, keeping the
//! composite-timestamp invariant, and making the operator associative and
//! commutative (which timestamp propagation through an event graph needs).
//! The literal case analysis is kept as [`max_op_def59`] so the divergence
//! can be measured (see the `ordering_validity` experiment).

use crate::composite::{max_set, CompositeTimestamp};
use crate::primitive::PrimitiveTimestamp;
use crate::relation::CompositeRelation;
use std::cell::RefCell;

thread_local! {
    /// Reusable staging buffer for [`max_op`]'s survivor merge. The merge
    /// writes the canonical result members here, then copies them into the
    /// result: a single member is stored in place (zero allocations), a
    /// wider result in one shared body (one allocation up to four members,
    /// two beyond) — the per-call `T1 ∪ T2` materialization and the
    /// `max_set` re-sort of the naive path are gone entirely.
    static MAX_SCRATCH: RefCell<Vec<PrimitiveTimestamp>> = const { RefCell::new(Vec::new()) };
}

/// Definition 5.7: joining of **concurrent** timestamps — the duplicate-free
/// union of the member sets.
///
/// Requires `t1 ~ t2`; when the precondition holds the union is already
/// pairwise concurrent, so the result satisfies the composite-timestamp
/// invariant. Verified by `debug_assert` and the property suite.
pub fn join_concurrent(t1: &CompositeTimestamp, t2: &CompositeTimestamp) -> CompositeTimestamp {
    debug_assert!(t1.concurrent(t2), "join_concurrent requires t1 ~ t2");
    let out = CompositeTimestamp::from_primitives(t1.iter().copied().chain(t2.iter().copied()));
    debug_assert!(out.invariant_holds());
    out
}

/// Definition 5.8: joining of **incomparable** timestamps — keep from each
/// side exactly the members not dominated by any member of the other side:
///
/// ```text
/// { t ∈ T1 : ¬∃t' ∈ T2, t < t' } ∪ { t ∈ T2 : ¬∃t' ∈ T1, t < t' }
/// ```
///
/// (The paper's scan drops the negations; without them the definition would
/// *keep only* dominated members and violate Theorem 5.4, so the negated
/// reading is the intended one.)
pub fn join_incomparable(t1: &CompositeTimestamp, t2: &CompositeTimestamp) -> CompositeTimestamp {
    let keep1 = t1
        .iter()
        .filter(|t| !t2.iter().any(|t_other| t.happens_before(t_other)))
        .copied();
    let keep2 = t2
        .iter()
        .filter(|t| !t1.iter().any(|t_other| t.happens_before(t_other)))
        .copied();
    let out = CompositeTimestamp::from_primitives(keep1.chain(keep2));
    debug_assert!(out.invariant_holds());
    out
}

/// The `Max` operator, in the normative (Theorem 5.4) form:
/// `Max(T1, T2) = max(T1 ∪ T2)`.
///
/// Members of either input dominated by any member of the other are
/// dropped; the rest are united. This coincides with Definition 5.9 on the
/// concurrent and incomparable branches, and differs from its ordered
/// branches only in *keeping* undominated members the case analysis would
/// discard (see the module docs).
pub fn max_op(t1: &CompositeTimestamp, t2: &CompositeTimestamp) -> CompositeTimestamp {
    // Band-dominance fast path (exact): with disjoint site masks every
    // member pair is cross-site, so a band gap of more than one global tick
    // means every member of the earlier side is dominated by every member
    // of the later side — `max(T1 ∪ T2)` is the later side verbatim (it is
    // already normalized by construction).
    if t1.site_mask() & t2.site_mask() == 0 {
        if t1.max_global() + 1 < t2.min_global() {
            return t2.clone();
        }
        if t2.max_global() + 1 < t1.min_global() {
            return t1.clone();
        }
    }
    MAX_SCRATCH.with(|scratch| {
        let mut buf = scratch.borrow_mut();
        buf.clear();
        merge_survivors(t1, t2, &mut buf);
        let out = CompositeTimestamp::from_canonical_slice(&buf);
        debug_assert!(out.invariant_holds());
        out
    })
}

/// The version-vector merge behind [`max_op`]: writes the canonical member
/// list of `max(T1 ∪ T2)` into `out` in one O(|T1| + |T2|) walk, with no
/// O(n·m) domination scan and no re-sort.
///
/// Both member slices are sorted by `(site, global, local)`, so the walk
/// advances site by site in merged order. Within one composite, a site's
/// run shares a single local tick (Theorem 5.1), which collapses the
/// Definition 5.1 domination test for a member `t = (s, g, l)` of `T1` to
///
/// * *same-site dominator*: `T2` has a run at `s` with `l < L2(s)`, or
/// * *cross-site dominator*: some `T2` member at a site ≠ `s` has a global
///   tick beyond the `2g_g` horizon — `g + 1 < max_global_excluding₂(s)`
///
/// (symmetrically for members of `T2`), both answered in O(1) from the
/// run headers and cached second-order bounds. Survivors stream out in
/// canonical order because each side's runs are already sorted and a
/// shared site's surviving runs share one local tick, letting a plain
/// two-pointer global-tick merge (with duplicate drop) interleave them.
fn merge_survivors(
    t1: &CompositeTimestamp,
    t2: &CompositeTimestamp,
    out: &mut Vec<PrimitiveTimestamp>,
) {
    let m1 = t1.members();
    let m2 = t2.members();
    let (mut i, mut j) = (0, 0);
    while i < m1.len() || j < m2.len() {
        // Decide which side(s) own the next site in merged order.
        let next_site_1 = m1.get(i).map(|t| t.site());
        let next_site_2 = m2.get(j).map(|t| t.site());
        match (next_site_1, next_site_2) {
            (Some(s1), Some(s2)) if s1 == s2 => {
                // Shared site: the lower-local run is wholly dominated by
                // the higher-local run (same-site, Theorem 5.1); equal
                // locals keep both runs, merged by global tick.
                let l1 = m1[i].local().get();
                let l2 = m2[j].local().get();
                let end1 = run_end(m1, i);
                let end2 = run_end(m2, j);
                if l1 < l2 {
                    push_run(m1, i..end1, None, out); // dominated: emit none
                    push_run(m2, j..end2, Some((t1, s2)), out);
                } else if l2 < l1 {
                    push_run(m2, j..end2, None, out);
                    push_run(m1, i..end1, Some((t2, s1)), out);
                } else {
                    merge_shared_runs(t1, t2, m1, i..end1, m2, j..end2, out);
                }
                i = end1;
                j = end2;
            }
            (Some(s1), s2) if s2.is_none_or(|s2| s1 < s2) => {
                // Site only in T1 (all consumed T2 sites are smaller, all
                // remaining are larger): no same-site dominator exists.
                let end1 = run_end(m1, i);
                push_run(m1, i..end1, Some((t2, s1)), out);
                i = end1;
            }
            _ => {
                let s2 = next_site_2.expect("side 2 non-exhausted");
                let end2 = run_end(m2, j);
                push_run(m2, j..end2, Some((t1, s2)), out);
                j = end2;
            }
        }
    }
    debug_assert!(!out.is_empty(), "max(T1 ∪ T2) of non-empty sets");
}

/// Index one past the end of the site run starting at `start`.
fn run_end(m: &[PrimitiveTimestamp], start: usize) -> usize {
    let site = m[start].site();
    let mut end = start + 1;
    while end < m.len() && m[end].site() == site {
        end += 1;
    }
    end
}

/// Emit the members of one run that survive cross-site domination by
/// `other` (`None` means the whole run is already same-site dominated).
/// Survivors are the run's tail: the run is sorted by global tick and the
/// domination bound `g + 1 < horizon` only cuts from the low end.
fn push_run(
    m: &[PrimitiveTimestamp],
    range: std::ops::Range<usize>,
    other: Option<(&CompositeTimestamp, decs_chronos::SiteId)>,
    out: &mut Vec<PrimitiveTimestamp>,
) {
    let Some((other, site)) = other else { return };
    let horizon = other.max_global_excluding(site);
    let survivors = m[range]
        .iter()
        .skip_while(|t| t.global().get().saturating_add(1) < horizon);
    out.extend(survivors);
}

/// Merge two equal-local runs at one shared site: interleave by global
/// tick, drop exact duplicates, and apply each side's cross-site
/// domination bound against the *other* composite.
#[allow(clippy::too_many_arguments)]
fn merge_shared_runs(
    t1: &CompositeTimestamp,
    t2: &CompositeTimestamp,
    m1: &[PrimitiveTimestamp],
    r1: std::ops::Range<usize>,
    m2: &[PrimitiveTimestamp],
    r2: std::ops::Range<usize>,
    out: &mut Vec<PrimitiveTimestamp>,
) {
    let site = m1[r1.start].site();
    let horizon1 = t2.max_global_excluding(site); // dominates T1 members
    let horizon2 = t1.max_global_excluding(site); // dominates T2 members
    let (mut i, mut j) = (r1.start, r2.start);
    while i < r1.end || j < r2.end {
        let g1 = (i < r1.end).then(|| m1[i].global().get());
        let g2 = (j < r2.end).then(|| m2[j].global().get());
        match (g1, g2) {
            (Some(g1), Some(g2)) if g1 == g2 => {
                // Shared member: survives (nothing in either side dominates
                // a member the other side also holds — Theorem 5.1 keeps
                // each side free of internal domination).
                out.push(m1[i]);
                i += 1;
                j += 1;
            }
            (Some(g1), g2) if g2.is_none_or(|g2| g1 < g2) => {
                if g1.saturating_add(1) >= horizon1 {
                    out.push(m1[i]);
                }
                i += 1;
            }
            _ => {
                let g2 = g2.expect("side 2 non-exhausted");
                if g2.saturating_add(1) >= horizon2 {
                    out.push(m2[j]);
                }
                j += 1;
            }
        }
    }
}

/// Reference implementation of the `Max` operator: always materializes
/// `T1 ∪ T2` and filters through [`max_set`]. This *is* the general path of
/// [`max_op`]; it is exposed separately as the oracle for the fast-path
/// equivalence suite and the "before" side of the hot-path benchmarks.
pub fn max_op_naive(t1: &CompositeTimestamp, t2: &CompositeTimestamp) -> CompositeTimestamp {
    let combined: Vec<_> = t1.iter().copied().chain(t2.iter().copied()).collect();
    let out = CompositeTimestamp::from_primitives(max_set(&combined));
    debug_assert!(out.invariant_holds());
    out
}

/// The `Max` operator as the *literal* Definition 5.9 case analysis.
/// Kept for fidelity experiments; production code should use [`max_op`].
pub fn max_op_def59(t1: &CompositeTimestamp, t2: &CompositeTimestamp) -> CompositeTimestamp {
    match t1.relation(t2) {
        CompositeRelation::After => t1.clone(),
        CompositeRelation::Before => t2.clone(),
        CompositeRelation::Concurrent => join_concurrent(t1, t2),
        CompositeRelation::Incomparable => join_incomparable(t1, t2),
    }
}

/// Theorem 5.4 as an executable predicate against [`max_op`]:
/// `Max(T1, T2) = max(T1 ∪ T2)`. True by construction for `max_op`; applied
/// to [`max_op_def59`] by the experiments to expose the divergence.
pub fn theorem_5_4_holds(t1: &CompositeTimestamp, t2: &CompositeTimestamp) -> bool {
    let combined: Vec<_> = t1.iter().copied().chain(t2.iter().copied()).collect();
    let expected = max_set(&combined);
    max_op(t1, t2).members() == expected.as_slice()
}

/// Does the literal Definition 5.9 agree with Theorem 5.4 on this pair?
pub fn def59_agrees(t1: &CompositeTimestamp, t2: &CompositeTimestamp) -> bool {
    max_op_def59(t1, t2) == max_op(t1, t2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cts;

    #[test]
    fn max_picks_later_when_strictly_dominating() {
        let early = cts(&[(1, 1, 10), (2, 2, 20)]);
        let late = cts(&[(1, 8, 80), (2, 9, 90)]);
        assert_eq!(max_op(&early, &late), late);
        assert_eq!(max_op(&late, &early), late);
        assert!(def59_agrees(&early, &late));
    }

    #[test]
    fn max_unions_when_concurrent() {
        let t1 = cts(&[(1, 8, 80)]);
        let t2 = cts(&[(2, 8, 82), (3, 9, 91)]);
        assert!(t1.concurrent(&t2));
        let m = max_op(&t1, &t2);
        assert_eq!(m, cts(&[(1, 8, 80), (2, 8, 82), (3, 9, 91)]));
        assert!(def59_agrees(&t1, &t2));
    }

    #[test]
    fn join_concurrent_dedups() {
        let t1 = cts(&[(1, 8, 80), (2, 8, 82)]);
        let t2 = cts(&[(2, 8, 82), (3, 9, 91)]);
        let m = join_concurrent(&t1, &t2);
        assert_eq!(m.len(), 3);
    }

    #[test]
    fn max_drops_dominated_when_incomparable() {
        // t1 = {(s1,9,90),(s2,1,15)}... note normalization: (s2,1,15) is
        // dominated by (s1,9,90)? cross-site 1+1 < 9 → yes, so build sets
        // whose members are genuinely concurrent.
        let t1 = cts(&[(1, 9, 90), (2, 8, 85)]);
        let t2 = cts(&[(1, 8, 82), (2, 9, 95)]);
        assert!(t1.incomparable(&t2)); // same-site pairs ordered both ways
        let m = max_op(&t1, &t2);
        assert_eq!(m, cts(&[(1, 9, 90), (2, 9, 95)]));
        assert!(def59_agrees(&t1, &t2));
    }

    #[test]
    fn incomparable_join_keeps_concurrent_members_of_both() {
        let t1 = cts(&[(1, 9, 90), (3, 9, 93)]);
        let t2 = cts(&[(1, 9, 91), (4, 8, 85)]);
        assert!(t1.incomparable(&t2)); // (s1,90) < (s1,91), others concurrent
        let m = max_op(&t1, &t2);
        assert_eq!(m, cts(&[(1, 9, 91), (3, 9, 93), (4, 8, 85)]));
        assert_eq!(join_incomparable(&t1, &t2), m);
    }

    #[test]
    fn def59_diverges_on_ordered_branch_with_undominated_member() {
        // The reproduction finding from the module docs: T2 <_p T1 but T2
        // still contains a member concurrent with everything in T1.
        let t2 = cts(&[(1, 8, 85), (2, 8, 87)]);
        let t1 = cts(&[(1, 9, 90)]);
        assert!(t2.happens_before(&t1));
        let literal = max_op_def59(&t2, &t1);
        let normative = max_op(&t2, &t1);
        assert_eq!(literal, t1); // Definition 5.9 discards (s2,8,87)
        assert_eq!(normative, cts(&[(1, 9, 90), (2, 8, 87)]));
        assert!(!def59_agrees(&t2, &t1));
        // The normative result still satisfies Theorem 5.4; the literal
        // one does not.
        assert!(theorem_5_4_holds(&t2, &t1));
    }

    #[test]
    fn theorem_5_4_spot_checks() {
        let cases = [
            (cts(&[(1, 1, 10)]), cts(&[(1, 8, 80)])),
            (cts(&[(1, 8, 80)]), cts(&[(2, 8, 82), (3, 9, 91)])),
            (
                cts(&[(1, 9, 90), (2, 8, 85)]),
                cts(&[(1, 8, 82), (2, 9, 95)]),
            ),
            (
                cts(&[(1, 9, 90), (3, 9, 93)]),
                cts(&[(1, 9, 91), (4, 8, 85)]),
            ),
            (cts(&[(5, 4, 44)]), cts(&[(5, 4, 44)])),
            (cts(&[(1, 8, 85), (2, 8, 87)]), cts(&[(1, 9, 90)])),
        ];
        for (a, b) in &cases {
            assert!(theorem_5_4_holds(a, b), "Theorem 5.4 fails for {a}, {b}");
            assert!(theorem_5_4_holds(b, a), "Theorem 5.4 fails for {b}, {a}");
        }
    }

    #[test]
    fn max_is_commutative_and_idempotent() {
        let t1 = cts(&[(1, 9, 90), (2, 8, 85)]);
        let t2 = cts(&[(1, 8, 82), (2, 9, 95)]);
        assert_eq!(max_op(&t1, &t2), max_op(&t2, &t1));
        assert_eq!(max_op(&t1, &t1), t1);
    }

    #[test]
    fn max_is_associative() {
        let a = cts(&[(1, 9, 90)]);
        let b = cts(&[(2, 8, 85)]);
        let c = cts(&[(3, 9, 93), (4, 8, 81)]);
        let left = max_op(&max_op(&a, &b), &c);
        let right = max_op(&a, &max_op(&b, &c));
        assert_eq!(left, right);
    }

    /// Deterministic mini-fuzz mirroring `ordering::tests`: the merge-walk
    /// `max_op` must equal `max(T1 ∪ T2)` (Theorem 5.4) on every pair of a
    /// dense sample of small composites, including shared members, shared
    /// sites with unequal locals, and multi-member same-site runs.
    #[test]
    fn merge_walk_equals_naive_on_dense_sample() {
        let mut samples = Vec::new();
        let mut state = 0x2545f4914f6cdd1du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..120 {
            let n = 1 + (next() % 4) as usize;
            let mut raw = Vec::new();
            for _ in 0..n {
                let site = (next() % 4) as u32 + 1;
                let g = next() % 6;
                let l = (g / 2) * 10 + u64::from(site);
                raw.push(crate::pts(site, g, l));
            }
            samples.push(CompositeTimestamp::from_primitives(raw));
        }
        for a in &samples {
            for b in &samples {
                let fast = max_op(a, b);
                let slow = max_op_naive(a, b);
                assert_eq!(fast, slow, "Max({a}, {b})");
                assert!(fast.invariant_holds());
                assert!(theorem_5_4_holds(a, b));
            }
        }
    }

    #[test]
    fn result_always_satisfies_invariant() {
        let t1 = cts(&[(1, 9, 90), (2, 8, 85)]);
        let t2 = cts(&[(1, 8, 82), (2, 9, 95)]);
        assert!(max_op(&t1, &t2).invariant_holds());
        assert!(max_op_def59(&t1, &t2).invariant_holds());
    }
}
