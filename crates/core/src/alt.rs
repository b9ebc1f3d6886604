//! The candidate composite orderings analyzed (and mostly rejected) in
//! Section 5.1, implemented over [`RawTimestampSet`] so they can also be
//! applied to non-normalized (Schwiderski-style \[10\]) timestamp sets.
//!
//! The paper's quantifier analysis enumerates the ways of lifting the
//! primitive `<` to sets:
//!
//! | name | definition | verdict |
//! |---|---|---|
//! | `<_p1` (`∃∃`) | `∃t1∈T1 ∃t2∈T2: t1<t2` | **invalid** — not transitive |
//! | `<_p` (`∀∃` back) | `∀t2∈T2 ∃t1∈T1: t1<t2` | **chosen** — least restricted, dual of `>_g` |
//! | `<_g` (`∀∃` fwd) | `∀t1∈T1 ∃t2∈T2: t1<t2` | valid, the other least-restricted dual |
//! | `<_p2` (`∀∀`) | `∀t1∈T1 ∀t2∈T2: t1<t2` | valid but more restricted than `<_p` |
//! | `<_p3` (min) | `∀t2∈T2: min(T1) < t2` | valid but more restricted than `<_p` |
//! | `schwiderski` | see [`lt_schwiderski`] | **not transitive** on raw sets (Section 5.1 counterexample) |
//!
//! The validity table is regenerated mechanically by the `ordering_validity`
//! experiment binary, which searches for irreflexivity/transitivity
//! violations of each candidate over randomized universes.

use crate::composite::RawTimestampSet;

/// `<_p1` — the pure existential lifting `∃t1∈a ∃t2∈b: t1 < t2`.
/// Satisfies requirement 1 (witnesses) but is **not transitive**.
pub fn lt_p1(a: &RawTimestampSet, b: &RawTimestampSet) -> bool {
    a.members()
        .iter()
        .any(|t1| b.members().iter().any(|t2| t1.happens_before(t2)))
}

/// `<_p` — the paper's chosen ordering: `∀t2∈b ∃t1∈a: t1 < t2`
/// (*every* member of the later set has a predecessor in the earlier set).
/// Least restricted together with its dual [`lt_g`].
pub fn lt_p(a: &RawTimestampSet, b: &RawTimestampSet) -> bool {
    !b.is_empty()
        && b.members()
            .iter()
            .all(|t2| a.members().iter().any(|t1| t1.happens_before(t2)))
}

/// `<_g` — the dual least-restricted ordering: `∀t1∈a ∃t2∈b: t1 < t2`
/// (*every* member of the earlier set has a successor in the later set).
pub fn lt_g(a: &RawTimestampSet, b: &RawTimestampSet) -> bool {
    !a.is_empty()
        && a.members()
            .iter()
            .all(|t1| b.members().iter().any(|t2| t1.happens_before(t2)))
}

/// `<_p2` — the universal lifting `∀t1∈a ∀t2∈b: t1 < t2`. A valid strict
/// partial order, but strictly more restricted than `<_p`.
pub fn lt_p2(a: &RawTimestampSet, b: &RawTimestampSet) -> bool {
    !a.is_empty()
        && !b.is_empty()
        && a.members()
            .iter()
            .all(|t1| b.members().iter().all(|t2| t1.happens_before(t2)))
}

/// `<_p3` — the min-anchored lifting: with `m` the member of `a` having the
/// minimum global tick (tie-broken by the canonical container order),
/// `∀t2∈b: m < t2`. Valid but more restricted than `<_p`.
pub fn lt_p3(a: &RawTimestampSet, b: &RawTimestampSet) -> bool {
    let Some(min) = a.members().iter().min_by_key(|t| (t.global().get(), **t)) else {
        return false;
    };
    !b.is_empty() && b.members().iter().all(|t2| min.happens_before(t2))
}

/// A reconstruction of the "happen before" of Schwiderski's dissertation
/// \[10\] on (possibly non-normalized) timestamp sets: the later set must
/// contain a member that dominates *some* member of the earlier set, and no
/// member of the earlier set may dominate any member of the later set:
///
/// ```text
/// a <_s b  ⇔  (∃t1∈a ∃t2∈b: t1 < t2) ∧ ¬(∃t2∈b ∃t1∈a: t2 < t1)
/// ```
///
/// This is the natural "some witness forward, no witness backward" reading;
/// like every definition built from existential witnesses over sets that may
/// contain stale (non-maximal) members, it fails transitivity — the
/// `ordering_validity` experiment finds counterexamples mechanically, which
/// is the paper's Section 5.1 point against \[10\].
pub fn lt_schwiderski(a: &RawTimestampSet, b: &RawTimestampSet) -> bool {
    lt_p1(a, b) && !lt_p1(b, a)
}

/// Identifier for a candidate ordering, used by experiments and benches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Candidate {
    /// `∃∃` (`<_p1`).
    ExistsExists,
    /// The paper's `<_p` (`∀t2 ∃t1`).
    ForallExistsBack,
    /// The dual `<_g` (`∀t1 ∃t2`).
    ForallExistsFwd,
    /// `∀∀` (`<_p2`).
    ForallForall,
    /// Min-anchored (`<_p3`).
    MinAnchored,
    /// Reconstructed ordering of \[10\].
    Schwiderski,
}

impl Candidate {
    /// All candidates, in the paper's order of discussion.
    pub const ALL: [Candidate; 6] = [
        Candidate::ExistsExists,
        Candidate::ForallExistsBack,
        Candidate::ForallExistsFwd,
        Candidate::ForallForall,
        Candidate::MinAnchored,
        Candidate::Schwiderski,
    ];

    /// The paper's name for this candidate.
    pub fn name(self) -> &'static str {
        match self {
            Candidate::ExistsExists => "<_p1 (∃∃)",
            Candidate::ForallExistsBack => "<_p (∀t2∃t1)",
            Candidate::ForallExistsFwd => "<_g (∀t1∃t2)",
            Candidate::ForallForall => "<_p2 (∀∀)",
            Candidate::MinAnchored => "<_p3 (min)",
            Candidate::Schwiderski => "[10] (reconstr.)",
        }
    }

    /// Evaluate the candidate on a pair of sets.
    pub fn eval(self, a: &RawTimestampSet, b: &RawTimestampSet) -> bool {
        match self {
            Candidate::ExistsExists => lt_p1(a, b),
            Candidate::ForallExistsBack => lt_p(a, b),
            Candidate::ForallExistsFwd => lt_g(a, b),
            Candidate::ForallForall => lt_p2(a, b),
            Candidate::MinAnchored => lt_p3(a, b),
            Candidate::Schwiderski => lt_schwiderski(a, b),
        }
    }
}

/// Search `universe` for a transitivity violation of `cand`: a triple
/// `(a, b, c)` with `a < b`, `b < c` but not `a < c`. Returns the first
/// violating triple found.
pub fn find_transitivity_violation(
    cand: Candidate,
    universe: &[RawTimestampSet],
) -> Option<(&RawTimestampSet, &RawTimestampSet, &RawTimestampSet)> {
    for a in universe {
        for b in universe {
            if !cand.eval(a, b) {
                continue;
            }
            for c in universe {
                if cand.eval(b, c) && !cand.eval(a, c) {
                    return Some((a, b, c));
                }
            }
        }
    }
    None
}

/// Search `universe` for an irreflexivity violation of `cand`.
pub fn find_irreflexivity_violation(
    cand: Candidate,
    universe: &[RawTimestampSet],
) -> Option<&RawTimestampSet> {
    universe.iter().find(|a| cand.eval(a, a))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pts;

    fn raw(triples: &[(u32, u64, u64)]) -> RawTimestampSet {
        RawTimestampSet::new(triples.iter().map(|&(s, g, l)| pts(s, g, l)))
    }

    #[test]
    fn section_5_1_example_1_lt_p_vs_lt_p2() {
        // T(e1) = {(s1,8,80),(s2,7,70)}, T(e2) = {(s3,9,90)}:
        // satisfies <_p but not <_p2 (8 vs 9 is concurrent).
        let t1 = raw(&[(1, 8, 80), (2, 7, 70)]);
        let t2 = raw(&[(3, 9, 90)]);
        assert!(lt_p(&t1, &t2));
        assert!(!lt_p2(&t1, &t2));
    }

    #[test]
    fn section_5_1_example_2_lt_p_vs_lt_p3() {
        // T(e1) = {(s1,8,80),(s2,7,70)}, T(e2) = {(s1,8,81),(s2,7,71)}:
        // satisfies <_p but not <_p3, because the min member (s2,7,70)
        // does not precede (s1,8,81) (cross-site gap only 1).
        let t1 = raw(&[(1, 8, 80), (2, 7, 70)]);
        let t2 = raw(&[(1, 8, 81), (2, 7, 71)]);
        assert!(lt_p(&t1, &t2));
        assert!(!lt_p3(&t1, &t2));
    }

    #[test]
    fn exists_exists_not_transitive() {
        // a = {(s1,0,0)}, b = {(s1,0,1),(s2,9,0)}, c = {(s3,5,0)}:
        // a <_p1 b (0<1 same site), b <_p1 c (hmm pick witnesses) —
        // construct directly: b's member (s2,9,0)... use explicit triple:
        let a = raw(&[(1, 9, 90)]);
        let b = raw(&[(1, 9, 91), (2, 0, 0)]);
        let c = raw(&[(3, 2, 20)]);
        assert!(lt_p1(&a, &b)); // (s1,9,90) < (s1,9,91)
        assert!(lt_p1(&b, &c)); // (s2,0,0) < (s3,2,20)
        assert!(!lt_p1(&a, &c)); // 9 vs 2: no member pair is <
    }

    #[test]
    fn chosen_ordering_agrees_with_composite_impl() {
        let t1 = raw(&[(1, 8, 80), (2, 7, 70)]);
        let t2 = raw(&[(1, 8, 81), (2, 7, 71)]);
        let c1 = t1.normalize().unwrap();
        let c2 = t2.normalize().unwrap();
        assert_eq!(lt_p(&t1, &t2), c1.happens_before(&c2));
    }

    #[test]
    fn duality_lt_p_lt_g() {
        // T(e1) <_g T(e2) ⇔ T(e2) >_g T(e1) and the pair (<_p, >_g) are
        // duals: a <_p b uses predecessors in a; a <_g b uses successors
        // in b. They coincide on singletons.
        let a = raw(&[(1, 1, 10)]);
        let b = raw(&[(2, 5, 50)]);
        assert_eq!(lt_p(&a, &b), lt_g(&a, &b));
        // And differ on wider sets.
        let t1 = raw(&[(1, 8, 80), (2, 7, 70)]);
        let t2 = raw(&[(3, 9, 90)]);
        assert!(lt_p(&t1, &t2));
        assert!(!lt_g(&t1, &t2)); // (s1,8,80) has no successor: 8 vs 9 concurrent
    }

    #[test]
    fn forall_forall_implies_chosen() {
        let t1 = raw(&[(1, 1, 10), (2, 1, 11)]);
        let t2 = raw(&[(3, 5, 50), (4, 6, 60)]);
        assert!(lt_p2(&t1, &t2));
        assert!(lt_p(&t1, &t2));
        assert!(lt_g(&t1, &t2));
        assert!(lt_p3(&t1, &t2));
    }

    #[test]
    fn schwiderski_counterexample_on_raw_sets() {
        // Raw (non-normalized) sets in the spirit of the Section 5.1
        // counterexample: stale members create one-way witnesses that chain
        // without closing. With X = {(s1,0,0),(s2,6,60)}, Y = {(s3,5,50)},
        // Z = {(s4,9,90),(s2,4,45)}: X <_s Y and Y <_s Z, but Z's stale
        // member (s2,4,45) precedes X's stale member (s2,6,60) on site s2,
        // which blocks X <_s Z.
        let x = raw(&[(1, 0, 0), (2, 6, 60)]);
        let y = raw(&[(3, 5, 50)]);
        let z = raw(&[(4, 9, 90), (2, 4, 45)]);
        assert!(lt_schwiderski(&x, &y));
        assert!(lt_schwiderski(&y, &z));
        assert!(!lt_schwiderski(&x, &z));
        let universe = vec![x, y, z];
        assert!(find_transitivity_violation(Candidate::Schwiderski, &universe).is_some());
        // Ours has no violation on the same universe.
        assert!(find_transitivity_violation(Candidate::ForallExistsBack, &universe).is_none());
    }

    #[test]
    fn all_candidates_irreflexive_on_normalized_sets() {
        let universe = vec![
            raw(&[(1, 8, 80), (2, 7, 70)]),
            raw(&[(3, 9, 90)]),
            raw(&[(1, 1, 10)]),
        ];
        for cand in Candidate::ALL {
            assert!(
                find_irreflexivity_violation(cand, &universe).is_none(),
                "{} reflexive",
                cand.name()
            );
        }
    }

    #[test]
    fn exists_exists_reflexive_on_raw_sets() {
        // A raw set with two same-site ordered members is `<_p1`-related to
        // itself — stark evidence the candidate is broken.
        let u = vec![raw(&[(1, 1, 10), (1, 2, 20)])];
        assert_eq!(
            find_irreflexivity_violation(Candidate::ExistsExists, &u),
            Some(&u[0])
        );
    }

    #[test]
    fn candidate_names_unique() {
        let mut names: Vec<&str> = Candidate::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Candidate::ALL.len());
    }

    #[test]
    fn empty_sets_never_related() {
        let empty = RawTimestampSet::new(std::iter::empty());
        let t = raw(&[(1, 1, 10)]);
        for cand in Candidate::ALL {
            assert!(!cand.eval(&empty, &empty), "{}", cand.name());
            // An empty set has no witnesses, so no direction may hold.
            assert!(!cand.eval(&empty, &t), "{}", cand.name());
            assert!(!cand.eval(&t, &empty), "{}", cand.name());
        }
    }
}
