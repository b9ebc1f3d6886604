//! The temporal relationship on composite timestamps (Definition 5.3,
//! Theorems 5.2/5.3).
//!
//! Section 5.1 derives the ordering from three requirements: (1) witnesses —
//! `T(e1) <_p T(e2)` must imply some member pair is `<`-related; (2) it must
//! be a *strict partial order* (irreflexive + transitive); (3) it must be
//! **least restricted** — no valid ordering strictly contains it. The
//! quantifier analysis shows the pure-existential candidate `∃∃` fails
//! transitivity, and that exactly two dual least-restricted orders remain:
//!
//! ```text
//! T(e1) <_p T(e2)  ⇔  ∀t2 ∈ T(e2) ∃t1 ∈ T(e1): t1 < t2
//! T(e1) <_g T(e2)  ⇔  ∀t1 ∈ T(e1) ∃t2 ∈ T(e2): t1 < t2
//! ```
//!
//! The paper (and this crate) adopts `<_p`: *every member of the later
//! timestamp is preceded by some member of the earlier one*. The dual `<_g`
//! and the rejected candidates live in [`crate::alt`].
//!
//! On top of `<_p` the paper defines:
//! * concurrency `~` — *all* member pairs concurrent;
//! * `⪯̃` (weaker-less-than-or-equal) — all member pairs `⪯`, which by
//!   Theorem 5.3 is equivalent to `~ ∨ <_p`;
//! * incomparability — none of the above.

use crate::composite::CompositeTimestamp;
use crate::relation::CompositeRelation;

impl CompositeTimestamp {
    /// Definition 5.3(2): happen-before `<_p` —
    /// `∀t2 ∈ other ∃t1 ∈ self: t1 < t2`.
    ///
    /// Fast paths (both *exact*, relied on by `tests/prop_fastpath.rs`):
    ///
    /// 1. **Disjoint site masks** — every member pair is cross-site, so
    ///    `t1 < t2 ⇔ g1 + 1 < g2`. The `∀∃` quantifiers collapse to the
    ///    band bounds: `<_p ⇔ min_global(self) + 1 < min_global(other)`.
    /// 2. **Band separation** (`max_global(self) + 1 < min_global(other)`)
    ///    — every *cross-site* pair is ordered. If `self` spans ≥ 2 sites,
    ///    each `t2` has a cross-site predecessor, so `<_p` holds outright.
    ///
    /// Anything else runs the O(|sites|) version-vector merge-walk
    /// ([`Self::happens_before_vv`]) — the literal `∀∃` scan survives only
    /// as the oracle ([`Self::happens_before_naive`]).
    pub fn happens_before(&self, other: &Self) -> bool {
        if self.site_mask() & other.site_mask() == 0 {
            return self.min_global() + 1 < other.min_global();
        }
        if self.max_global() + 1 < other.min_global() && self.single_site().is_none() {
            return true;
        }
        self.happens_before_vv(other)
    }

    /// The `<_p` kernel on the per-site version-vector summary: a single
    /// merge-walk over both [`site_runs`](CompositeTimestamp::site_runs)
    /// sequences, O(|sites(self)| + |sites(other)|). Exact — no fallback.
    ///
    /// Per opposing site `s` (a run of `other` with shared local tick
    /// `L2(s)` and smallest global `minG2(s)`), the `∃t1: t1 < t2` witness
    /// for *every* member of the run exists iff
    ///
    /// * `self` has a run at `s` with `L1(s) < L2(s)` (a same-site
    ///   predecessor works for the whole run at once — Theorem 5.1 gives
    ///   each run a single local tick), **or**
    /// * some cross-site member of `self` precedes even the run's earliest
    ///   member: `min_global_excluding(s) + 1 < minG2(s)` (the hardest
    ///   member of the run is the one with the smallest global tick; other
    ///   members may also use same-site witnesses, but a run that fails
    ///   both bounds has an unwitnessed member).
    pub fn happens_before_vv(&self, other: &Self) -> bool {
        // Hand-rolled index walk (not `site_runs().peekable()`): the runs
        // are contiguous in the sorted member slices, and a width sweep
        // measured the iterator-adaptor form paying ~3x per site in
        // `Peekable` bookkeeping.
        let m1 = self.members();
        let m2 = other.members();
        // Lockstep lane: when the site sequences are identical and every
        // position is ordered by local tick, each run of `other` has its
        // same-site witness and `<_p` holds — the shape every
        // same-derivation SEQ compare produces, verified by a single zip.
        // Sound because the per-site condition is a *disjunction*: a local
        // witness alone settles a site, so only `true` can be concluded
        // here; any deviation falls through to the general walk.
        if m1.len() == m2.len()
            && m1
                .iter()
                .zip(m2)
                .all(|(a, b)| a.site() == b.site() && a.local().get() < b.local().get())
        {
            return true;
        }
        let mut i = 0;
        let mut j = 0;
        while j < m2.len() {
            let p2 = &m2[j];
            let site = p2.site();
            while i < m1.len() && m1[i].site() < site {
                i += 1;
            }
            if !(i < m1.len() && m1[i].site() == site && m1[i].local().get() < p2.local().get()) {
                // `p2` is the run's smallest global (runs sort by global).
                let min_excl = self.min_global_excluding(site);
                if min_excl.saturating_add(1) >= p2.global().get() {
                    return false;
                }
            }
            j += 1;
            while j < m2.len() && m2[j].site() == site {
                j += 1;
            }
        }
        true
    }

    /// Reference implementation of `<_p`: the literal Definition 5.3 `∀∃`
    /// scan, O(|self|·|other|). Kept as the equivalence oracle for the
    /// fast-path property suite and the "before" side of the hot-path
    /// benchmarks.
    pub fn happens_before_naive(&self, other: &Self) -> bool {
        other
            .iter()
            .all(|t2| self.iter().any(|t1| t1.happens_before(t2)))
    }

    /// Definition 5.3(1): concurrency `~` — every member pair concurrent.
    ///
    /// Fast paths (exact): with disjoint site masks every pair is
    /// cross-site, and `t1 ~ t2 ⇔ |g1 − g2| ≤ 1`, so all pairs are
    /// concurrent iff the bands overlap within one tick in both directions.
    /// With overlapping masks, band separation refutes concurrency as soon
    /// as any cross-site pair exists (both sets single-site on the *same*
    /// site is the only shape without one). Everything else runs the
    /// O(|sites|) merge-walk ([`Self::concurrent_vv`]).
    pub fn concurrent(&self, other: &Self) -> bool {
        if self.site_mask() & other.site_mask() == 0 {
            return self.max_global() <= other.min_global().saturating_add(1)
                && other.max_global() <= self.min_global().saturating_add(1);
        }
        if self.max_global() + 1 < other.min_global() || other.max_global() + 1 < self.min_global()
        {
            match (self.single_site(), other.single_site()) {
                (Some(s1), Some(s2)) if s1 == s2 => {} // all pairs same-site
                _ => return false,
            }
        }
        self.concurrent_vv(other)
    }

    /// The `~` kernel on the version-vector summary, O(|sites|), exact.
    ///
    /// All-pairs concurrency decomposes per site `s` of `self`:
    ///
    /// * *same-site pairs* (runs shared by both sides) are concurrent iff
    ///   the runs' local ticks are equal (Theorem 5.1's criterion);
    /// * *cross-site pairs* `t1@s × t2@s'≠s` are concurrent iff their
    ///   global ticks differ by at most one — over whole runs:
    ///   `maxG1(s) ≤ min_global_excluding₂(s) + 1` and
    ///   `max_global_excluding₂(s) ≤ minG1(s) + 1`.
    ///
    /// Iterating the sites of `self` covers every pair: each cross pair has
    /// its `t1` at some site of `self`, and each shared site is visited.
    pub fn concurrent_vv(&self, other: &Self) -> bool {
        // Hand-rolled like `happens_before_vv` — see the note there.
        let m1 = self.members();
        let m2 = other.members();
        let mut i = 0;
        let mut j = 0;
        while i < m1.len() {
            let site = m1[i].site();
            let min_g1 = m1[i].global().get();
            let l1 = m1[i].local().get();
            let mut i2 = i + 1;
            while i2 < m1.len() && m1[i2].site() == site {
                i2 += 1;
            }
            let max_g1 = m1[i2 - 1].global().get();
            while j < m2.len() && m2[j].site() < site {
                j += 1;
            }
            if j < m2.len() && m2[j].site() == site && m2[j].local().get() != l1 {
                return false;
            }
            if max_g1 > other.min_global_excluding(site).saturating_add(1) {
                return false;
            }
            if other.max_global_excluding(site) > min_g1.saturating_add(1) {
                return false;
            }
            i = i2;
        }
        true
    }

    /// Reference implementation of `~`: the literal all-pairs scan.
    pub fn concurrent_naive(&self, other: &Self) -> bool {
        self.iter()
            .all(|t1| other.iter().all(|t2| t1.concurrent(t2)))
    }

    /// Definition 5.4: `⪯̃` — every member pair satisfies the primitive `⪯`.
    ///
    /// Theorem 5.3 proves this equivalent to `self ~ other ∨ self <_p other`
    /// (checked by the property suite).
    ///
    /// Fast path (exact): with disjoint site masks, `t1 ⪯ t2 ⇔ ¬(t2 < t1)
    /// ⇔ g1 ≤ g2 + 1`, so the all-pairs condition collapses to
    /// `max_global(self) ≤ min_global(other) + 1`. Overlapping masks run
    /// the O(|sites|) merge-walk ([`Self::weak_leq_vv`]).
    pub fn weak_leq(&self, other: &Self) -> bool {
        if self.site_mask() & other.site_mask() == 0 {
            return self.max_global() <= other.min_global().saturating_add(1);
        }
        self.weak_leq_vv(other)
    }

    /// The `⪯̃` kernel on the version-vector summary, O(|sites|), exact.
    /// Same decomposition as [`Self::concurrent_vv`] with the one-sided
    /// primitive `⪯` conditions: shared runs need `L1(s) ≤ L2(s)`, cross
    /// pairs need `maxG1(s) ≤ min_global_excluding₂(s) + 1`.
    pub fn weak_leq_vv(&self, other: &Self) -> bool {
        // Hand-rolled like `happens_before_vv` — see the note there.
        let m1 = self.members();
        let m2 = other.members();
        let mut i = 0;
        let mut j = 0;
        while i < m1.len() {
            let site = m1[i].site();
            let l1 = m1[i].local().get();
            let mut i2 = i + 1;
            while i2 < m1.len() && m1[i2].site() == site {
                i2 += 1;
            }
            let max_g1 = m1[i2 - 1].global().get();
            while j < m2.len() && m2[j].site() < site {
                j += 1;
            }
            if j < m2.len() && m2[j].site() == site && l1 > m2[j].local().get() {
                return false;
            }
            if max_g1 > other.min_global_excluding(site).saturating_add(1) {
                return false;
            }
            i = i2;
        }
        true
    }

    /// Reference implementation of `⪯̃`: the literal all-pairs scan.
    pub fn weak_leq_naive(&self, other: &Self) -> bool {
        self.iter().all(|t1| other.iter().all(|t2| t1.weak_leq(t2)))
    }

    /// Definition 5.3(3): incomparable — neither `<_p` in either direction
    /// nor `~`.
    pub fn incomparable(&self, other: &Self) -> bool {
        !self.happens_before(other) && !other.happens_before(self) && !self.concurrent(other)
    }

    /// Classify the pair into the exhaustive [`CompositeRelation`].
    ///
    /// `Before`/`After` are checked first: for composite timestamps the
    /// `<_p` and `~` cases are mutually exclusive (a `<`-related member pair
    /// cannot be concurrent), so the order of checks does not change the
    /// result; it only fixes the tie-break for the impossible overlap.
    ///
    /// Fast path (exact): disjoint site masks decide the full
    /// classification from the cached global-tick bands alone — no member
    /// scan. The mutual exclusivity argument carries over: `min1 + 1 <
    /// min2` contradicts `max2 ≤ min1 + 1`, so the O(1) branch can never
    /// disagree with the check order of the scan. Overlapping masks
    /// compose the O(|sites|) `_vv` kernels, so classification is
    /// O(|sites|) too, never O(n·m).
    pub fn relation(&self, other: &Self) -> CompositeRelation {
        if self.site_mask() & other.site_mask() == 0 {
            let (min1, max1) = (self.min_global(), self.max_global());
            let (min2, max2) = (other.min_global(), other.max_global());
            return if min1 + 1 < min2 {
                CompositeRelation::Before
            } else if min2 + 1 < min1 {
                CompositeRelation::After
            } else if max1 <= min2 + 1 && max2 <= min1 + 1 {
                CompositeRelation::Concurrent
            } else {
                CompositeRelation::Incomparable
            };
        }
        // Masks overlap. Band-separation shortcuts first — they are two
        // compares against cached bounds and decide the common steady-state
        // shape (successive detections a full band apart) before any
        // dispatch overhead.
        if self.max_global() + 1 < other.min_global() && self.single_site().is_none() {
            return CompositeRelation::Before;
        }
        if other.max_global() + 1 < self.min_global() && other.single_site().is_none() {
            return CompositeRelation::After;
        }
        // Tiny in-band pairs: at ≤4 member pairs the literal scans beat
        // the three-kernel composition's dispatch overhead (measured at
        // width 2), and they are exact by definition.
        if self.len() * other.len() <= 4 {
            return self.relation_naive(other);
        }
        // Otherwise compose the exact `_vv` kernels directly — going
        // through the `happens_before`/`concurrent` wrappers would re-test
        // the mask and band tiers up to three times per classification.
        if self.happens_before_vv(other) {
            CompositeRelation::Before
        } else if other.happens_before_vv(self) {
            CompositeRelation::After
        } else if self.concurrent_vv(other) {
            CompositeRelation::Concurrent
        } else {
            CompositeRelation::Incomparable
        }
    }

    /// Reference implementation of [`Self::relation`] built entirely from
    /// the naive scans — the oracle for the fast-path equivalence suite.
    pub fn relation_naive(&self, other: &Self) -> CompositeRelation {
        if self.happens_before_naive(other) {
            CompositeRelation::Before
        } else if other.happens_before_naive(self) {
            CompositeRelation::After
        } else if self.concurrent_naive(other) {
            CompositeRelation::Concurrent
        } else {
            CompositeRelation::Incomparable
        }
    }
}

/// Free-function form of [`CompositeTimestamp::relation`], convenient for
/// mapping over pair collections.
pub fn composite_relation(a: &CompositeTimestamp, b: &CompositeTimestamp) -> CompositeRelation {
    a.relation(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cts;

    #[test]
    fn paper_example_lt_p_but_not_lt_p2() {
        // Section 5.1 example 1: T(e1) = {(s1,8,80),(s2,7,70)},
        // T(e2) = {(s3,9,90)} satisfies <_p (9 has predecessor 7: 7 < 9-1)
        // even though not all pairs are < (8 vs 9 is concurrent).
        let t1 = cts(&[(1, 8, 80), (2, 7, 70)]);
        let t2 = cts(&[(3, 9, 90)]);
        assert!(t1.happens_before(&t2));
        assert_eq!(t1.relation(&t2), CompositeRelation::Before);
        assert_eq!(t2.relation(&t1), CompositeRelation::After);
    }

    #[test]
    fn paper_example_same_sites_lt_p() {
        // Section 5.1 example 2: T(e1) = {(s1,8,80),(s2,7,70)} <_p
        // T(e2) = {(s1,8,81),(s2,7,71)} because each member of T(e2) has a
        // same-site predecessor.
        let t1 = cts(&[(1, 8, 80), (2, 7, 70)]);
        let t2 = cts(&[(1, 8, 81), (2, 7, 71)]);
        assert!(t1.happens_before(&t2));
        assert!(!t2.happens_before(&t1));
    }

    #[test]
    fn concurrency_needs_all_pairs() {
        let t1 = cts(&[(1, 8, 80)]);
        let t2 = cts(&[(2, 8, 82), (3, 9, 91)]);
        assert!(t1.concurrent(&t2));
        let t3 = cts(&[(2, 8, 82), (3, 10, 100)]);
        assert!(!t1.concurrent(&t3)); // 8 vs 10 is ordered
    }

    #[test]
    fn irreflexivity() {
        let t = cts(&[(1, 8, 80), (2, 7, 70)]);
        assert!(!t.happens_before(&t));
        assert_eq!(t.relation(&t), CompositeRelation::Concurrent);
    }

    #[test]
    fn transitivity_spot_check() {
        let a = cts(&[(1, 1, 10), (2, 2, 20)]);
        let b = cts(&[(1, 4, 40), (3, 4, 45)]);
        let c = cts(&[(2, 7, 70)]);
        assert!(a.happens_before(&b));
        assert!(b.happens_before(&c));
        assert!(a.happens_before(&c));
    }

    #[test]
    fn incomparable_example() {
        // t1 = {(s1,9,90),(s2,8,85)}, t2 = {(s1,8,82),(s2,9,95)}:
        // crossing timestamps — same-site pairs are ordered in opposite
        // directions, so neither `<_p` nor `~` holds.
        let t1 = cts(&[(1, 9, 90), (2, 8, 85)]);
        let t2 = cts(&[(1, 8, 82), (2, 9, 95)]);
        assert!(t1.incomparable(&t2));
        assert_eq!(t1.relation(&t2), CompositeRelation::Incomparable);
        assert_eq!(t2.relation(&t1), CompositeRelation::Incomparable);
    }

    #[test]
    fn weak_leq_equivalence_theorem_5_3_spots() {
        let samples = [
            cts(&[(1, 8, 80), (2, 7, 70)]),
            cts(&[(1, 8, 81), (2, 7, 71)]),
            cts(&[(3, 9, 90)]),
            cts(&[(1, 1, 10), (2, 9, 90)]),
            cts(&[(2, 8, 85)]),
        ];
        for a in &samples {
            for b in &samples {
                let lhs = a.weak_leq(b);
                let rhs = a.concurrent(b) || a.happens_before(b);
                assert_eq!(lhs, rhs, "Theorem 5.3 fails for {a} vs {b}");
            }
        }
    }

    #[test]
    fn relation_flip_symmetry() {
        let samples = [
            cts(&[(1, 8, 80), (2, 7, 70)]),
            cts(&[(3, 9, 90)]),
            cts(&[(1, 9, 95), (2, 1, 15)]),
            cts(&[(1, 1, 10), (2, 9, 90)]),
        ];
        for a in &samples {
            for b in &samples {
                assert_eq!(a.relation(b).flip(), b.relation(a));
            }
        }
    }

    /// Deterministic mini-fuzz: the version-vector kernels must agree with
    /// the literal Definition 5.3 scans on every pair of a dense sample of
    /// small composites (shared sites, same-site runs, band overlaps and
    /// separations all occur). The wide regime lives in
    /// `tests/prop_timewidth.rs`; this pins the tricky narrow shapes.
    #[test]
    fn vv_kernels_equal_naive_on_dense_sample() {
        let mut samples = Vec::new();
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..160 {
            let n = 1 + (next() % 4) as usize;
            let mut raw = Vec::new();
            for _ in 0..n {
                let site = (next() % 4) as u32 + 1;
                let g = next() % 6;
                // Locals shared across adjacent globals so normalization
                // produces multi-member same-site runs (same local, two
                // globals — the shape `single_site_detection` pins).
                let l = (g / 2) * 10 + u64::from(site);
                raw.push(crate::pts(site, g, l));
            }
            samples.push(crate::composite::CompositeTimestamp::from_primitives(raw));
        }
        for a in &samples {
            for b in &samples {
                assert_eq!(
                    a.happens_before_vv(b),
                    a.happens_before_naive(b),
                    "<_p mismatch for {a} vs {b}"
                );
                assert_eq!(
                    a.concurrent_vv(b),
                    a.concurrent_naive(b),
                    "~ mismatch for {a} vs {b}"
                );
                assert_eq!(
                    a.weak_leq_vv(b),
                    a.weak_leq_naive(b),
                    "⪯̃ mismatch for {a} vs {b}"
                );
                assert_eq!(a.relation(b), a.relation_naive(b), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn worked_example_from_section_5() {
        // Clocks k=1, l=2, m=3; the five composite timestamps of the worked
        // example at the end of Section 5.1.
        let e1 = cts(&[(1, 9_154_827, 91_548_276), (3, 9_154_827, 91_548_277)]);
        let e2 = cts(&[(2, 9_154_827, 91_548_276), (1, 9_154_827, 91_548_277)]);
        let e3 = cts(&[(3, 9_154_827, 91_548_276), (2, 9_154_827, 91_548_277)]);
        let e4 = cts(&[(1, 9_154_828, 91_548_288), (2, 9_154_827, 91_548_277)]);
        let e5 = cts(&[(1, 9_154_829, 91_548_289), (2, 9_154_828, 91_548_287)]);
        // e1, e2, e3 are pairwise *incomparable*: their globals all fall in
        // the same window, but each pair shares a site whose local ticks are
        // ordered, so they are neither concurrent nor `<_p`-related.
        assert!(e1.incomparable(&e2));
        assert!(e2.incomparable(&e3));
        assert!(e1.incomparable(&e3));
        // T(e4) ~ T(e3) and T(e3) < T(e5), as the paper states.
        assert!(e4.concurrent(&e3));
        assert!(e3.happens_before(&e5));
    }
}
