//! The time-domain abstraction the operator semantics is generic over.
//!
//! Definition 3.1 / Section 5.3 of the paper: an event is a boolean function
//! over the *time stamp domain*. What the operator state machines actually
//! need from that domain is:
//!
//! 1. the exhaustive temporal relation between two stamps
//!    (before/after/concurrent/incomparable);
//! 2. the `Max` operation that combines constituent stamps into the stamp
//!    of a composite occurrence (`t_occ = max(…)` centralized, the
//!    Definition 5.9 `Max` operator distributed);
//! 3. "is this stamp before *some* member of a set?", asked of many
//!    stamps against one set (NOT's guards): a [`EventTime::Frontier`]
//!    summarizes the set once, and [`EventTime::before_some`] answers
//!    from it exactly.
//!
//! [`EventTime`] captures exactly that. [`CentralTime`] instantiates it with
//! totally ordered clock ticks (Section 3); `decs_core::CompositeTimestamp`
//! instantiates it with the Section 5 partial order, where both operations
//! run on the per-site version-vector kernels (`relation` via the merge
//! walks in `decs_core::ordering`, `max` via the survivor merge in
//! `decs_core::join`): O(|sites|) per call with no allocation beyond the
//! joined stamp itself, so wide composites are cheap in the hot operator
//! paths (banded SEQ compares, NOT guard checks, ANY joins).

use decs_core::{max_op, CompositeRelation, CompositeTimestamp, PrimitiveTimestamp, SiteId};
use std::cmp::Ordering;
use std::fmt::Debug;

/// The operations the Snoop operator semantics needs from a time domain.
pub trait EventTime: Clone + Debug + PartialEq + Send + Sync + 'static {
    /// The exhaustive temporal relation between `self` and `other`.
    fn relation(&self, other: &Self) -> CompositeRelation;

    /// The `Max` of two stamps: the occurrence time of a composite event
    /// whose latest constituents carry `self` and `other`.
    fn max(&self, other: &Self) -> Self;

    /// An arbitrary-but-fixed *total* order over stamps, used only to merge
    /// one routing round's detections across definitions into one canonical,
    /// reproducible sequence. It must be consistent with equality, and for
    /// totally ordered domains it must agree with [`EventTime::relation`];
    /// for partially ordered domains (composite timestamps) incomparable
    /// stamps are ordered by representation. It carries no temporal
    /// meaning beyond that.
    fn canonical_cmp(&self, other: &Self) -> Ordering;

    /// Whether this stamp is *settled* relative to a low watermark: `true`
    /// guarantees `self.before(u)` for **every** stamp `u` the driver can
    /// still deliver, where the driver promises that every future stamp's
    /// global ticks (all members, for composite stamps) are `≥ low`.
    ///
    /// Operator nodes use this to garbage-collect buffered state whose
    /// relation to all future arrivals is already decided (the watermark
    /// analogue of the `2g_g` band-separation fast path). The conservative
    /// default — never settled — keeps GC a no-op for time domains that do
    /// not opt in; it is always sound because eviction only ever *relies*
    /// on `settled`, never on its negation.
    fn settled(&self, _low: u64) -> bool {
        false
    }

    /// Inclusive upper bound on this stamp's global ticks (all members, for
    /// composite stamps), for **band ordering** of buffered occurrences:
    /// `global_upper_bound() + 1 < low` implies [`EventTime::settled`]`(low)`,
    /// so a buffer sorted by this key has a binary-searchable prefix of
    /// stamps that certainly happen-before any stamp whose globals are all
    /// `≥ low`. The default (`u64::MAX`) claims no bound, which keeps the
    /// prefix empty and band ordering equal to arrival ordering — a sound
    /// no-op for time domains that do not opt in.
    fn global_upper_bound(&self) -> u64 {
        u64::MAX
    }

    /// Inclusive lower bound on this stamp's global ticks: every member's
    /// global tick is `≥` this, so any stamp settled at this bound (see
    /// [`EventTime::settled`]) certainly happens before `self`. The default
    /// (0) claims no bound, disabling the certainly-before shortcut.
    fn global_lower_bound(&self) -> u64 {
        0
    }

    /// Strict happen-before. The default classifies the full relation;
    /// both in-repo domains override it with a one-way kernel.
    fn before(&self, other: &Self) -> bool {
        self.relation(other) == CompositeRelation::Before
    }

    /// A summary of a stamp set, built once by [`EventTime::frontier`], that
    /// answers repeated [`EventTime::before_some`] queries against the set
    /// without re-enumerating it.
    type Frontier;

    /// Summarize `set` for [`EventTime::before_some`].
    fn frontier<'a>(set: impl IntoIterator<Item = &'a Self>) -> Self::Frontier
    where
        Self: 'a;

    /// Whether `self` happens before **some** member of `set`, where
    /// `frontier` was built by [`EventTime::frontier`] from the same `set`.
    ///
    /// Exactness contract: the answer equals
    /// `set.into_iter().any(|g| self.before(g))` for every stamp and every
    /// set, the empty set included. An implementation may answer from the
    /// frontier alone or fall back to scanning `set` (which is why the set
    /// is passed again), but it never approximates.
    fn before_some<'a>(
        &self,
        frontier: &Self::Frontier,
        set: impl IntoIterator<Item = &'a Self>,
    ) -> bool
    where
        Self: 'a;

    /// Weak less-than-or-equal (`⪯` / `⪯̃`): before or concurrent.
    fn wleq(&self, other: &Self) -> bool {
        matches!(
            self.relation(other),
            CompositeRelation::Before | CompositeRelation::Concurrent
        )
    }
}

/// Centralized time: non-negative physical clock ticks, totally ordered
/// (Section 3 of the paper). Equal ticks are reported as `Concurrent`
/// (simultaneity is the same-clock special case of concurrency).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct CentralTime(pub u64);

impl CentralTime {
    /// The tick count.
    pub const fn get(self) -> u64 {
        self.0
    }

    /// The tick `delta` ticks later.
    pub const fn plus(self, delta: u64) -> Self {
        CentralTime(self.0 + delta)
    }
}

impl std::fmt::Display for CentralTime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t{}", self.0)
    }
}

impl EventTime for CentralTime {
    fn relation(&self, other: &Self) -> CompositeRelation {
        match self.0.cmp(&other.0) {
            std::cmp::Ordering::Less => CompositeRelation::Before,
            std::cmp::Ordering::Greater => CompositeRelation::After,
            std::cmp::Ordering::Equal => CompositeRelation::Concurrent,
        }
    }

    fn before(&self, other: &Self) -> bool {
        self.0 < other.0
    }

    /// The largest tick of the set (0 for the empty set, which no tick is
    /// below): `t` is before some member iff it is before the largest.
    type Frontier = u64;

    fn frontier<'a>(set: impl IntoIterator<Item = &'a Self>) -> u64 {
        set.into_iter().map(|t| t.0).max().unwrap_or(0)
    }

    fn before_some<'a>(&self, frontier: &u64, _set: impl IntoIterator<Item = &'a Self>) -> bool {
        self.0 < *frontier
    }

    fn max(&self, other: &Self) -> Self {
        CentralTime(self.0.max(other.0))
    }

    fn canonical_cmp(&self, other: &Self) -> Ordering {
        self.0.cmp(&other.0)
    }

    /// Total order: every future tick `≥ low` is strictly after `self`
    /// exactly when `self < low`.
    fn settled(&self, low: u64) -> bool {
        self.0 < low
    }

    fn global_upper_bound(&self) -> u64 {
        self.0
    }

    fn global_lower_bound(&self) -> u64 {
        self.0
    }
}

/// Sites a [`SiteFrontier`] tabulates; members at higher site ids are
/// left to the literal scan.
const FRONTIER_SITES: usize = 64;

/// [`EventTime::Frontier`] of composite stamps.
///
/// A singleton query `p = (s, G, L)` is before a singleton member
/// `q = (s', G', L')` iff (Definition 4.7) `s = s' ∧ L < L'` or
/// `s ≠ s' ∧ G + 1 < G'`. So "before some singleton member" needs only the
/// largest local tick at `p`'s own site and the largest global tick at
/// any *other* site. The frontier keeps the first per site, and the top
/// two globals from distinct sites for the second: if the top global sits
/// at `p`'s site, the runner-up from another site is the one that counts.
/// Both are over singleton members at sites below `FRONTIER_SITES`;
/// any other member sets `spill`, and queries scan those members
/// literally. Wide queries scan the whole set.
#[derive(Debug, Clone)]
pub struct SiteFrontier {
    /// Largest local tick per site id; 0 where the site has no member
    /// (no local tick is below 0, so an empty slot never answers `true`).
    locals: [u64; FRONTIER_SITES],
    /// Site and value of the largest global tick.
    top: Option<(SiteId, u64)>,
    /// Largest global tick at a site other than `top`'s; 0 when none.
    second: u64,
    /// Whether the set has members the table does not cover.
    spill: bool,
}

/// Whether a [`SiteFrontier`] tabulates `t` (otherwise it is scanned).
fn tabulated(t: &CompositeTimestamp) -> Option<&PrimitiveTimestamp> {
    match t.members() {
        [p] if (p.site().get() as usize) < FRONTIER_SITES => Some(p),
        _ => None,
    }
}

impl SiteFrontier {
    fn add(&mut self, p: &PrimitiveTimestamp) {
        let (site, global) = (p.site(), p.global().get());
        let local = &mut self.locals[site.get() as usize];
        *local = (*local).max(p.local().get());
        match self.top {
            None => self.top = Some((site, global)),
            Some((s, top)) if s == site => self.top = Some((s, top.max(global))),
            Some((_, top)) if global > top => {
                // The old top sits at a site other than `site` and bounds
                // every other global, so it is the new runner-up.
                self.second = top;
                self.top = Some((site, global));
            }
            Some(_) => self.second = self.second.max(global),
        }
    }
}

impl EventTime for CompositeTimestamp {
    fn relation(&self, other: &Self) -> CompositeRelation {
        CompositeTimestamp::relation(self, other)
    }

    /// The one-way `<_p` kernel, skipping the other three classifications.
    /// [`CompositeTimestamp::relation`] returns `Before` iff
    /// `happens_before` holds, in every branch, for stamps from
    /// site-monotone clocks (Proposition 4.1) — every stamp the engine
    /// builds. (With locals running against globals, `a <_p b` and
    /// `b <_p a` can both hold literally, and `relation` reports one.)
    fn before(&self, other: &Self) -> bool {
        self.happens_before(other)
    }

    type Frontier = SiteFrontier;

    fn frontier<'a>(set: impl IntoIterator<Item = &'a Self>) -> SiteFrontier {
        let mut f = SiteFrontier {
            locals: [0; FRONTIER_SITES],
            top: None,
            second: 0,
            spill: false,
        };
        for t in set {
            match tabulated(t) {
                Some(p) => f.add(p),
                None => f.spill = true,
            }
        }
        f
    }

    /// O(1) for a singleton `self` over a set of singletons; the literal
    /// scan for wide stamps.
    fn before_some<'a>(&self, f: &SiteFrontier, set: impl IntoIterator<Item = &'a Self>) -> bool {
        let [p] = self.members() else {
            return set.into_iter().any(|g| self.before(g));
        };
        let site = p.site();
        if f.locals
            .get(site.get() as usize)
            .is_some_and(|&max| p.local().get() < max)
        {
            return true;
        }
        let other_site_max = match f.top {
            Some((s, top)) if s != site => top,
            _ => f.second,
        };
        if p.global().get().saturating_add(1) < other_site_max {
            return true;
        }
        f.spill
            && set
                .into_iter()
                .any(|g| tabulated(g).is_none() && self.before(g))
    }

    fn max(&self, other: &Self) -> Self {
        max_op(self, other)
    }

    fn canonical_cmp(&self, other: &Self) -> Ordering {
        // Normalized member lists are sorted, so lexicographic comparison
        // is a total order consistent with `PartialEq`.
        self.members().cmp(other.members())
    }

    /// `<_p` against any future stamp `u` (all of whose member globals are
    /// `≥ low`) requires, per Definition 5.3, a member of `self` before
    /// each member of `u`. When `max_global(self) + 1 < low`, every
    /// cross-site pair is ordered by the `2g_g` rule
    /// (`g₁ + 1 < low ≤ g₂`), and every same-site pair follows from
    /// Proposition 4.1's site-monotone clocks (larger global tick at one
    /// site implies larger local tick). The cached bound makes this O(1).
    fn settled(&self, low: u64) -> bool {
        self.max_global() + 1 < low
    }

    fn global_upper_bound(&self) -> u64 {
        self.max_global()
    }

    fn global_lower_bound(&self) -> u64 {
        self.min_global()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use decs_core::cts;

    /// SplitMix64: the seeded, dependency-free generator of the
    /// differential tests in this crate.
    pub(crate) struct SplitMix(pub(crate) u64);

    impl SplitMix {
        pub(crate) fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform in `0..n`.
        pub(crate) fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// A random valid stamp of 1–4 members with globals in `g..g + 2` for a
    /// `g` drawn from `base..base + 4`, so members are pairwise concurrent
    /// (Theorem 5.1). Sites come from 0–3, rarely from 64–65 (which a
    /// [`SiteFrontier`] does not tabulate).
    ///
    /// * `consistent`: one member per site, with local tick
    ///   `3·global + jitter` — site-monotone clocks (Proposition 4.1), the
    ///   shape every stamp the engine builds has.
    /// * otherwise: locals are drawn independently of globals, and a
    ///   second member may join a used site with that site's local tick.
    ///   Same-site members with a larger global but a smaller local then
    ///   occur, the only shape in which a set's runner-up global from
    ///   another site decides `before_some`.
    pub(crate) fn random_stamp(
        rng: &mut SplitMix,
        base: u64,
        consistent: bool,
    ) -> CompositeTimestamp {
        let g = base + rng.below(4);
        let mut members: Vec<(u32, u64, u64)> = Vec::new();
        for _ in 0..1 + rng.below(4) {
            let site = if rng.below(16) == 0 {
                64 + rng.below(2) as u32
            } else {
                rng.below(4) as u32
            };
            let global = g + rng.below(2);
            let used = members.iter().find(|m| m.0 == site).map(|m| m.2);
            match (consistent, used) {
                (true, Some(_)) => {}
                (true, None) => members.push((site, global, 3 * global + rng.below(3))),
                (false, Some(local)) => members.push((site, global, local)),
                (false, None) => members.push((site, global, rng.below(4))),
            }
        }
        cts(&members)
    }

    /// The literal definition `before_some` must reproduce.
    fn any_before<T: EventTime>(q: &T, set: &[T]) -> bool {
        set.iter().any(|g| q.before(g))
    }

    #[test]
    fn composite_before_some_matches_literal_scan() {
        let mut rng = SplitMix(0x5EED_F00D);
        let (mut empty, mut ties, mut runner_up) = (0, 0, 0);
        for i in 0..60_000 {
            let consistent = i % 3 == 0;
            let q = random_stamp(&mut rng, 10, consistent);
            let mut set: Vec<CompositeTimestamp> = (0..rng.below(6))
                .map(|_| random_stamp(&mut rng, 10, consistent))
                .collect();
            if let [p] = q.members() {
                if rng.below(3) == 0 {
                    // Put the set's top global at the query's own site, so
                    // only a runner-up from another site can witness.
                    set.push(cts(&[(p.site().get(), 14, rng.below(4))]));
                }
            }
            let f = CompositeTimestamp::frontier(&set);
            let got = q.before_some(&f, &set);
            assert_eq!(got, any_before(&q, &set), "query {q} set {set:?}");
            // Coverage of the paths the corpus is meant to reach.
            empty += set.is_empty() as u32;
            if let [p] = q.members() {
                let here = |g: &&CompositeTimestamp| g.single_site() == Some(p.site());
                ties += set
                    .iter()
                    .filter(here)
                    .any(|g| g.members()[0].local() == p.local()) as u32;
                let top = set.iter().map(|g| g.max_global()).max();
                let top_here = set.iter().filter(here).any(|g| Some(g.max_global()) == top);
                let local_witness = set.iter().filter(here).any(|g| q.before(g));
                runner_up += (got && top_here && !local_witness) as u32;
            }
        }
        assert!(
            empty > 100 && ties > 100 && runner_up > 100,
            "corpus coverage: {empty} empty sets, {ties} ties, {runner_up} runner-up witnesses"
        );
    }

    #[test]
    fn central_before_some_matches_literal_scan() {
        let mut rng = SplitMix(7);
        for _ in 0..10_000 {
            let q = CentralTime(rng.below(8));
            let set: Vec<CentralTime> = (0..rng.below(5))
                .map(|_| CentralTime(rng.below(8)))
                .collect();
            let f = CentralTime::frontier(&set);
            assert_eq!(q.before_some(&f, &set), any_before(&q, &set), "{q} {set:?}");
        }
    }

    /// The one-way kernels agree with the full classification. For
    /// composite stamps this holds under site-monotone clocks: with locals
    /// running against globals, `a <_p b` and `b <_p a` can both hold
    /// literally, and `relation` reports one of them.
    #[test]
    fn before_matches_relation() {
        let mut rng = SplitMix(0xC0FFEE);
        for _ in 0..40_000 {
            let a = random_stamp(&mut rng, 10, true);
            let b = random_stamp(&mut rng, 10, true);
            let want = EventTime::relation(&a, &b) == CompositeRelation::Before;
            assert_eq!(EventTime::before(&a, &b), want, "{a} {b}");
            let (x, y) = (CentralTime(rng.below(8)), CentralTime(rng.below(8)));
            let want = x.relation(&y) == CompositeRelation::Before;
            assert_eq!(x.before(&y), want, "{x} {y}");
        }
    }

    #[test]
    fn central_time_total_order() {
        let a = CentralTime(3);
        let b = CentralTime(7);
        assert_eq!(a.relation(&b), CompositeRelation::Before);
        assert_eq!(b.relation(&a), CompositeRelation::After);
        assert_eq!(a.relation(&a), CompositeRelation::Concurrent);
        assert!(a.before(&b));
        assert!(!b.before(&a));
        assert!(a.wleq(&b));
        assert!(a.wleq(&a));
        assert!(!b.wleq(&a));
    }

    #[test]
    fn central_time_max_and_plus() {
        assert_eq!(
            EventTime::max(&CentralTime(3), &CentralTime(7)),
            CentralTime(7)
        );
        assert_eq!(
            EventTime::max(&CentralTime(9), &CentralTime(7)),
            CentralTime(9)
        );
        assert_eq!(CentralTime(3).plus(4), CentralTime(7));
        assert_eq!(CentralTime(5).to_string(), "t5");
    }

    #[test]
    fn composite_timestamp_implements_event_time() {
        let a = cts(&[(1, 1, 10)]);
        let b = cts(&[(2, 5, 50)]);
        assert_eq!(EventTime::relation(&a, &b), CompositeRelation::Before);
        assert!(a.before(&b));
        // Max through the trait is the paper's Max operator.
        let c = cts(&[(1, 8, 80)]);
        let d = cts(&[(2, 8, 82)]);
        assert_eq!(EventTime::max(&c, &d), cts(&[(1, 8, 80), (2, 8, 82)]));
    }

    #[test]
    fn central_settled_iff_below_watermark() {
        assert!(CentralTime(4).settled(5));
        assert!(!CentralTime(5).settled(5));
        assert!(!CentralTime(9).settled(5));
    }

    #[test]
    fn composite_settled_implies_before_future_stamps() {
        let old = cts(&[(1, 3, 30), (2, 4, 41)]);
        assert!(old.settled(6)); // max_global 4, 4 + 1 < 6
        assert!(!old.settled(5)); // band gap of exactly 1: undecided
                                  // Any stamp whose globals are ≥ the watermark is provably after.
        for probe in [cts(&[(3, 6, 60)]), cts(&[(1, 7, 70), (2, 6, 62)])] {
            assert!(old.before(&probe));
        }
    }

    #[test]
    fn band_bounds_bracket_settled() {
        // The contract band ordering relies on: upper + 1 < low ⇒ settled(low),
        // and lower is a floor on every member global.
        let t = CentralTime(7);
        assert_eq!(t.global_upper_bound(), 7);
        assert_eq!(t.global_lower_bound(), 7);
        assert!(t.settled(9)); // 7 + 1 < 9
        let c = cts(&[(1, 3, 30), (2, 4, 42)]);
        assert_eq!(c.global_upper_bound(), 4);
        assert_eq!(c.global_lower_bound(), 3);
        assert!(c.settled(6)); // 4 + 1 < 6
        assert!(!c.settled(5));
    }

    #[test]
    fn central_never_incomparable() {
        for i in 0..10u64 {
            for j in 0..10u64 {
                let r = CentralTime(i).relation(&CentralTime(j));
                assert_ne!(r, CompositeRelation::Incomparable);
            }
        }
    }
}
