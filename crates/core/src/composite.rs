//! Distributed composite timestamps (Definitions 5.1/5.2, Theorem 5.1).
//!
//! In a centralized system the timestamp of a composite event is the single
//! *latest* occurrence time of its constituents (`t_occ`). Under the
//! `2g_g`-partial order "latest" is no longer unique: several constituent
//! timestamps can each fail to be dominated. Definition 5.1 therefore takes
//! the **set of maximal timestamps**:
//!
//! ```text
//! max(ST) = { t ∈ ST : ∀t1 ∈ ST, ¬(t < t1) }
//! ```
//!
//! (The paper's scan prints the condition as `t < t1`; the negated form is
//! the intended one — it is the only reading under which Theorem 5.1 and all
//! of the paper's examples hold.)
//!
//! Theorem 5.1: all members of `max(ST)` are pairwise *concurrent*. A
//! [`CompositeTimestamp`] enforces this by construction — any input set is
//! normalized through [`max_set`] — so the "latest" and "concurrency"
//! properties the paper stresses are carried by the type itself.
//!
//! [`RawTimestampSet`] is the *unnormalized* counterpart used to model the
//! timestamp sets of Schwiderski's dissertation \[10\], which does not enforce
//! maximality; the Section 5.1 counterexample experiments need it.

use crate::error::{CoreError, Result};
use crate::primitive::PrimitiveTimestamp;
use decs_chronos::SiteId;
use std::fmt;
use std::hash::{Hash, Hasher};

/// Definition 5.1: the set of maximal timestamps of `ST` — members not
/// happening-before any other member. Duplicates are removed; the result is
/// in canonical (container) order.
pub fn max_set(st: &[PrimitiveTimestamp]) -> Vec<PrimitiveTimestamp> {
    let mut out: Vec<PrimitiveTimestamp> = st
        .iter()
        .filter(|t| !st.iter().any(|t1| t.happens_before(t1)))
        .copied()
        .collect();
    out.sort_unstable();
    out.dedup();
    out
}

/// How many members are stored inline before spilling to the heap. Member
/// sets are tiny in practice (one per participating site, bounded by the
/// fan-in of the event expression), so four covers the common cases.
const INLINE_MEMBERS: usize = 4;

/// Inline-first member storage: up to [`INLINE_MEMBERS`] primitive
/// timestamps live directly in the struct (no allocation, cache-friendly);
/// larger sets spill to a `Vec`. Always holds members in canonical sorted
/// order; all reads go through [`MemberVec::as_slice`].
#[derive(Debug, Clone)]
enum MemberVec {
    Inline {
        len: u8,
        buf: [PrimitiveTimestamp; INLINE_MEMBERS],
    },
    Heap(Vec<PrimitiveTimestamp>),
}

impl MemberVec {
    /// Padding value for unused inline slots; never observable through
    /// `as_slice`.
    const FILL: PrimitiveTimestamp = PrimitiveTimestamp::new(
        SiteId(0),
        decs_chronos::GlobalTicks(0),
        decs_chronos::LocalTicks(0),
    );

    fn from_sorted(v: Vec<PrimitiveTimestamp>) -> Self {
        if v.len() <= INLINE_MEMBERS {
            let mut buf = [Self::FILL; INLINE_MEMBERS];
            buf[..v.len()].copy_from_slice(&v);
            MemberVec::Inline {
                len: v.len() as u8,
                buf,
            }
        } else {
            MemberVec::Heap(v)
        }
    }

    fn as_slice(&self) -> &[PrimitiveTimestamp] {
        match self {
            MemberVec::Inline { len, buf } => &buf[..*len as usize],
            MemberVec::Heap(v) => v,
        }
    }

    fn into_vec(self) -> Vec<PrimitiveTimestamp> {
        match self {
            MemberVec::Inline { len, buf } => buf[..len as usize].to_vec(),
            MemberVec::Heap(v) => v,
        }
    }
}

/// All construction-time caches of a [`CompositeTimestamp`], computed in
/// two linear passes over the canonical member slice (the second pass only
/// exists to make the "excluding the achieving site" bounds exact when
/// several sites tie on the band edge).
struct Caches {
    min_global: u64,
    max_global: u64,
    site_mask: u64,
    min_site: SiteId,
    max_site: SiteId,
    min2_global: u64,
    max2_global: u64,
}

impl Caches {
    fn compute(members: &[PrimitiveTimestamp]) -> Self {
        debug_assert!(!members.is_empty());
        let mut min_global = members[0].global().get();
        let mut max_global = min_global;
        let mut site_mask = 0u64;
        let mut min_site = members[0].site();
        let mut max_site = members[0].site();
        for t in members {
            let g = t.global().get();
            if g < min_global {
                min_global = g;
                min_site = t.site();
            }
            if g > max_global {
                max_global = g;
                max_site = t.site();
            }
            site_mask |= 1u64 << (t.site().get() % 64);
        }
        let mut min2_global = u64::MAX;
        let mut max2_global = 0u64;
        for t in members {
            let g = t.global().get();
            if t.site() != min_site {
                min2_global = min2_global.min(g);
            }
            if t.site() != max_site {
                max2_global = max2_global.max(g);
            }
        }
        Caches {
            min_global,
            max_global,
            site_mask,
            min_site,
            max_site,
            min2_global,
            max2_global,
        }
    }
}

/// One per-site entry of a composite timestamp's **version-vector
/// summary**: the contiguous run of members at a single site, collapsed to
/// the quantities the `2g_g` relation can see.
///
/// Theorem 5.1 makes the summary lossless: members of one composite
/// timestamp are pairwise concurrent, and two same-site primitive stamps
/// are concurrent iff their *local* ticks are equal — so every member of a
/// site's run shares one local tick, and the run is characterized by
/// `(site, local, min_global, max_global)` plus the member globals
/// themselves (which stay in the member slice). Cross-site comparisons only
/// ever look at global ticks, same-site comparisons only at local ticks,
/// so the kernels in [`crate::ordering`]/[`crate::join`] can work entirely
/// on runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SiteRun {
    /// The site all members of this run occurred at.
    pub site: SiteId,
    /// The shared local tick of the run (Theorem 5.1: same-site members of
    /// a normalized set are simultaneous, i.e. equal-local).
    pub local: u64,
    /// Smallest global tick among the run's members.
    pub min_global: u64,
    /// Largest global tick among the run's members.
    pub max_global: u64,
}

/// Iterator over the per-site version-vector summary of a composite
/// timestamp. Members are stored sorted by `(site, global, local)`, so each
/// site's run is a contiguous slice and the summary is produced by a single
/// linear walk — no allocation, no side table.
#[derive(Debug, Clone)]
pub struct SiteRuns<'a> {
    rest: &'a [PrimitiveTimestamp],
}

impl Iterator for SiteRuns<'_> {
    type Item = SiteRun;

    fn next(&mut self) -> Option<SiteRun> {
        let first = *self.rest.first()?;
        let site = first.site();
        let mut i = 1;
        while i < self.rest.len() && self.rest[i].site() == site {
            i += 1;
        }
        let last = self.rest[i - 1];
        self.rest = &self.rest[i..];
        Some(SiteRun {
            site,
            local: first.local().get(),
            min_global: first.global().get(),
            max_global: last.global().get(),
        })
    }
}

/// A distributed composite event timestamp: a non-empty set of pairwise
/// concurrent, maximal primitive timestamps (Definition 5.2).
///
/// Members are stored sorted in the canonical container order (site, then
/// global, then local), so equal timestamp sets compare equal with `==`.
/// Sets of up to four members are stored inline (no heap allocation).
///
/// Derived quantities are cached at construction so the hot comparison
/// kernels ([`crate::ordering`], [`crate::join`]) can decide most relations
/// in O(1) — and everything else in O(|sites|) — without the O(n·m) member
/// scan:
///
/// * [`min_global`](Self::min_global) / [`max_global`](Self::max_global) —
///   the global-tick *band* of the member set;
/// * [`site_mask`](Self::site_mask) — a 64-bit Bloom-style bitmap of member
///   sites (bit `site % 64`). Disjoint masks prove the site sets are
///   disjoint, i.e. every member pair is cross-site and therefore decided
///   by global ticks alone;
/// * the *second-order* band bounds
///   ([`min_global_excluding`](Self::min_global_excluding) /
///   [`max_global_excluding`](Self::max_global_excluding)) — the band
///   recomputed with any one site removed, which is what the `∃` side of
///   the Definition 5.3 quantifiers needs per opposing site;
/// * the per-site **version-vector summary** itself is *implicit*: members
///   are sorted by site, so [`site_runs`](Self::site_runs) yields the
///   sorted `(site, local, min_global, max_global)` vector by walking the
///   member slice — it costs nothing at construction, nothing to clone,
///   and can never drift out of sync with the members.
#[derive(Debug, Clone)]
pub struct CompositeTimestamp {
    members: MemberVec,
    min_global: u64,
    max_global: u64,
    site_mask: u64,
    /// Site of (one member achieving) `min_global` / `max_global`, plus the
    /// band bounds recomputed over all members *not* at that site. Together
    /// these answer `min/max_global_excluding(s)` for any `s` in O(1):
    /// if `s` differs from the achieving site the full-band bound stands,
    /// otherwise the second-order bound is exact by definition.
    min_site: SiteId,
    max_site: SiteId,
    /// `u64::MAX` when every member sits at `min_site` (no outside member).
    min2_global: u64,
    /// `0` when every member sits at `max_site`; safe as a sentinel because
    /// the kernels only compare it as a *dominator* bound (`g + 1 < max2`),
    /// which no global tick satisfies against 0.
    max2_global: u64,
}

impl PartialEq for CompositeTimestamp {
    fn eq(&self, other: &Self) -> bool {
        // Caches are pure functions of the members; comparing them first is
        // a cheap reject.
        self.site_mask == other.site_mask
            && self.min_global == other.min_global
            && self.max_global == other.max_global
            && self.members.as_slice() == other.members.as_slice()
    }
}

impl Eq for CompositeTimestamp {}

impl Hash for CompositeTimestamp {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Hash exactly what the pre-cache derive hashed (the member list),
        // so hashes stay stable across the layout change.
        self.members.as_slice().hash(state);
    }
}

impl CompositeTimestamp {
    /// Internal constructor: takes a member list already in canonical form
    /// (sorted, deduped, maximal) and computes the cached bounds/bitmap.
    fn from_sorted_members(members: Vec<PrimitiveTimestamp>) -> Self {
        let caches = Caches::compute(&members);
        Self::assemble(MemberVec::from_sorted(members), caches)
    }

    /// Alloc-conscious internal constructor for the join kernels: builds
    /// from a borrowed canonical slice (sorted, deduped, maximal), copying
    /// into the inline buffer when it fits — a result of ≤ 4 members costs
    /// no allocation at all, which is what lets [`crate::join::max_op`]
    /// stage its merge in a reusable scratch buffer.
    pub(crate) fn from_canonical_slice(members: &[PrimitiveTimestamp]) -> Self {
        debug_assert!(members.windows(2).all(|w| w[0] < w[1]), "not canonical");
        // Pairwise concurrency ⟺ maximality for a sorted deduped set; the
        // check is alloc-free on purpose (the alloc-count suite measures
        // this constructor under debug assertions).
        debug_assert!(
            members
                .iter()
                .enumerate()
                .all(|(i, a)| members[i + 1..].iter().all(|b| a.concurrent(b))),
            "not a maximal set"
        );
        let caches = Caches::compute(members);
        let members = if members.len() <= INLINE_MEMBERS {
            let mut buf = [MemberVec::FILL; INLINE_MEMBERS];
            buf[..members.len()].copy_from_slice(members);
            MemberVec::Inline {
                len: members.len() as u8,
                buf,
            }
        } else {
            MemberVec::Heap(members.to_vec())
        };
        Self::assemble(members, caches)
    }

    fn assemble(members: MemberVec, caches: Caches) -> Self {
        CompositeTimestamp {
            members,
            min_global: caches.min_global,
            max_global: caches.max_global,
            site_mask: caches.site_mask,
            min_site: caches.min_site,
            max_site: caches.max_site,
            min2_global: caches.min2_global,
            max2_global: caches.max2_global,
        }
    }

    /// A composite timestamp with a single member — the form every
    /// primitive event's timestamp takes when it enters the composite world.
    pub fn singleton(t: PrimitiveTimestamp) -> Self {
        Self::from_canonical_slice(&[t])
    }

    /// Build from constituent primitive timestamps, normalizing through
    /// `max(ST)`. Errors if the input is empty (Definition 5.2 requires at
    /// least one constituent; an empty set would even break irreflexivity of
    /// the composite ordering). Also errors if `max(ST)` is empty, which
    /// happens only when members whose global ticks contradict their local
    /// order form a `<` cycle.
    pub fn try_from_primitives<I>(iter: I) -> Result<Self>
    where
        I: IntoIterator<Item = PrimitiveTimestamp>,
    {
        let st: Vec<PrimitiveTimestamp> = iter.into_iter().collect();
        if st.is_empty() {
            return Err(CoreError::EmptyTimestamp);
        }
        let members = max_set(&st);
        if members.is_empty() {
            return Err(CoreError::EmptyTimestamp);
        }
        Ok(Self::from_sorted_members(members))
    }

    /// Build from constituent primitive timestamps, normalizing through
    /// `max(ST)`.
    ///
    /// # Panics
    /// Panics if the iterator is empty or `max(ST)` is empty (a `<` cycle
    /// among non-conforming members); use [`Self::try_from_primitives`]
    /// for fallible construction.
    pub fn from_primitives<I>(iter: I) -> Self
    where
        I: IntoIterator<Item = PrimitiveTimestamp>,
    {
        Self::try_from_primitives(iter)
            .expect("composite timestamp needs at least one member in max(ST)")
    }

    /// The members, sorted in canonical order.
    pub fn members(&self) -> &[PrimitiveTimestamp] {
        self.members.as_slice()
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.as_slice().len()
    }

    /// Composite timestamps are never empty, but the idiomatic pair of
    /// `len` is provided for completeness.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Iterate over members.
    pub fn iter(&self) -> impl Iterator<Item = &PrimitiveTimestamp> {
        self.members.as_slice().iter()
    }

    /// Whether `t` is one of the members.
    pub fn contains(&self, t: &PrimitiveTimestamp) -> bool {
        self.members.as_slice().binary_search(t).is_ok()
    }

    /// Theorem 5.1 / Definition 5.2 invariant check: all members pairwise
    /// concurrent and none dominated. Always true for values built through
    /// the public constructors; exposed for property tests and debugging.
    pub fn invariant_holds(&self) -> bool {
        let members = self.members.as_slice();
        !members.is_empty()
            && members
                .iter()
                .enumerate()
                .all(|(i, a)| members[i + 1..].iter().all(|b| a.concurrent(b)))
    }

    /// The largest global tick among members — an upper anchor used by
    /// watermark logic and the Figure 2 lines. Cached at construction: O(1).
    pub fn max_global(&self) -> u64 {
        self.max_global
    }

    /// The smallest global tick among members. Cached at construction: O(1).
    pub fn min_global(&self) -> u64 {
        self.min_global
    }

    /// Bloom-style bitmap of member sites: bit `site % 64` is set for every
    /// member. Disjoint masks (`a & b == 0`) *prove* the two member sets
    /// occupy disjoint sites — every member pair is cross-site and the
    /// `2g_g` relation is decided by global ticks alone. Overlapping masks
    /// prove nothing (two different sites can share a bit); callers must
    /// fall back to the member scan.
    pub fn site_mask(&self) -> u64 {
        self.site_mask
    }

    /// The per-site **version-vector summary**: one [`SiteRun`] per member
    /// site, in ascending site order. Derived by a linear walk over the
    /// sorted member slice (site runs are contiguous), so it costs no
    /// memory and can never desynchronize from the members. The O(|sites|)
    /// merge-walk kernels in [`crate::ordering`] and [`crate::join`] are
    /// built on this view.
    pub fn site_runs(&self) -> SiteRuns<'_> {
        SiteRuns {
            rest: self.members.as_slice(),
        }
    }

    /// Smallest global tick among members *not* at `site`; `u64::MAX` when
    /// no such member exists. O(1) from the cached second-order bounds.
    ///
    /// This is the `∃`-side bound the Definition 5.3 kernels need: a member
    /// of `other` at `site` has a cross-site predecessor in `self` iff
    /// `self.min_global_excluding(site) + 1` (saturating) is below its
    /// global tick.
    pub fn min_global_excluding(&self, site: SiteId) -> u64 {
        if site == self.min_site {
            self.min2_global
        } else {
            self.min_global
        }
    }

    /// Largest global tick among members *not* at `site`; `0` when no such
    /// member exists (safe: the kernels only use it as a strict dominator
    /// bound `g + 1 < max`, which never holds against 0). O(1).
    pub fn max_global_excluding(&self, site: SiteId) -> u64 {
        if site == self.max_site {
            self.max2_global
        } else {
            self.max_global
        }
    }

    /// `Some(site)` when every member occurred at the same site (members
    /// are sorted by site first, so first == last suffices), else `None`.
    pub fn single_site(&self) -> Option<SiteId> {
        let members = self.members.as_slice();
        let first = members[0].site();
        if members[members.len() - 1].site() == first {
            Some(first)
        } else {
            None
        }
    }

    /// Consume into the member vector.
    pub fn into_members(self) -> Vec<PrimitiveTimestamp> {
        self.members.into_vec()
    }
}

impl From<PrimitiveTimestamp> for CompositeTimestamp {
    fn from(t: PrimitiveTimestamp) -> Self {
        CompositeTimestamp::singleton(t)
    }
}

impl fmt::Display for CompositeTimestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("{")?;
        for (i, t) in self.members().iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{t}")?;
        }
        f.write_str("}")
    }
}

/// An *unnormalized* set of primitive timestamps — the shape of composite
/// timestamps in Schwiderski's dissertation \[10\], which does not enforce the
/// maximality/concurrency invariant. Used by [`crate::alt`] to reproduce the
/// paper's Section 5.1 comparison and counterexamples.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RawTimestampSet {
    members: Vec<PrimitiveTimestamp>,
}

impl RawTimestampSet {
    /// Build from members verbatim (sorted + deduped for canonical equality,
    /// but *not* filtered to maximal elements).
    pub fn new<I>(iter: I) -> Self
    where
        I: IntoIterator<Item = PrimitiveTimestamp>,
    {
        let mut members: Vec<PrimitiveTimestamp> = iter.into_iter().collect();
        members.sort_unstable();
        members.dedup();
        RawTimestampSet { members }
    }

    /// The members.
    pub fn members(&self) -> &[PrimitiveTimestamp] {
        &self.members
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Normalize into a paper-conformant composite timestamp.
    pub fn normalize(&self) -> Result<CompositeTimestamp> {
        CompositeTimestamp::try_from_primitives(self.members.iter().copied())
    }

    /// Whether this set already satisfies the Definition 5.2 invariant.
    pub fn is_normalized(&self) -> bool {
        !self.members.is_empty() && max_set(&self.members) == self.members
    }
}

impl From<CompositeTimestamp> for RawTimestampSet {
    fn from(c: CompositeTimestamp) -> Self {
        RawTimestampSet {
            members: c.into_members(),
        }
    }
}

impl fmt::Display for RawTimestampSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("{")?;
        for (i, t) in self.members.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{t}")?;
        }
        f.write_str("}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{cts, pts};

    #[test]
    fn max_set_keeps_only_undominated() {
        // (s1,8,80) dominates (s1,7,70) (same site) and (s2,2,20)
        // (cross-site gap > 1), but is concurrent with (s2,7,72).
        let st = vec![pts(1, 8, 80), pts(1, 7, 70), pts(2, 2, 20), pts(2, 7, 72)];
        let m = max_set(&st);
        assert_eq!(m, vec![pts(1, 8, 80), pts(2, 7, 72)]);
    }

    #[test]
    fn max_set_of_totally_concurrent_set_is_identity() {
        let st = vec![pts(1, 8, 80), pts(2, 8, 81), pts(3, 9, 90)];
        assert_eq!(max_set(&st).len(), 3);
    }

    #[test]
    fn max_set_dedups() {
        let st = vec![pts(1, 8, 80), pts(1, 8, 80)];
        assert_eq!(max_set(&st), vec![pts(1, 8, 80)]);
    }

    #[test]
    fn theorem_5_1_members_pairwise_concurrent() {
        let c = cts(&[
            (1, 8, 80),
            (1, 7, 70),
            (2, 2, 20),
            (2, 7, 72),
            (3, 8, 85),
            (3, 1, 10),
        ]);
        assert!(c.invariant_holds());
        for a in c.iter() {
            for b in c.iter() {
                assert!(a.concurrent(b), "{a} !~ {b}");
            }
        }
    }

    #[test]
    fn empty_input_is_rejected() {
        assert_eq!(
            CompositeTimestamp::try_from_primitives(std::iter::empty()).unwrap_err(),
            CoreError::EmptyTimestamp
        );
    }

    #[test]
    #[should_panic(expected = "at least one member")]
    fn from_primitives_panics_on_empty() {
        let _ = CompositeTimestamp::from_primitives(std::iter::empty());
    }

    #[test]
    fn singleton_and_from_impl() {
        let t = pts(4, 9, 99);
        let c: CompositeTimestamp = t.into();
        assert_eq!(c.len(), 1);
        assert!(c.contains(&t));
        assert!(!c.is_empty());
    }

    #[test]
    fn singleton_matches_the_vec_construction() {
        use std::collections::hash_map::DefaultHasher;
        let hash = |c: &CompositeTimestamp| {
            let mut h = DefaultHasher::new();
            c.hash(&mut h);
            h.finish()
        };
        for t in [
            pts(0, 0, 0),
            pts(4, 9, 99),
            pts(63, u64::MAX, 7),
            pts(64, 3, 1),
        ] {
            let new = CompositeTimestamp::singleton(t);
            let old = CompositeTimestamp::from_sorted_members(vec![t]);
            assert_eq!(new.members(), old.members());
            assert!(matches!(new.members, MemberVec::Inline { len: 1, .. }));
            assert_eq!(
                (new.min_global, new.max_global, new.site_mask),
                (old.min_global, old.max_global, old.site_mask)
            );
            assert_eq!((new.min_site, new.max_site), (old.min_site, old.max_site));
            assert_eq!(
                (new.min2_global, new.max2_global),
                (old.min2_global, old.max2_global)
            );
            assert_eq!(hash(&new), hash(&old));
        }
    }

    #[test]
    fn canonical_equality_ignores_input_order() {
        let a = cts(&[(1, 8, 80), (2, 7, 72)]);
        let b = cts(&[(2, 7, 72), (1, 8, 80)]);
        assert_eq!(a, b);
    }

    #[test]
    fn global_anchors() {
        let c = cts(&[(3, 8, 81), (6, 7, 72)]);
        assert_eq!(c.max_global(), 8);
        assert_eq!(c.min_global(), 7);
    }

    #[test]
    fn display_matches_paper_set_syntax() {
        let c = cts(&[(3, 8, 81), (6, 7, 72)]);
        assert_eq!(c.to_string(), "{(s3, 8, 81), (s6, 7, 72)}");
    }

    #[test]
    fn raw_set_preserves_dominated_members() {
        // The Section 5.1 counterexample set from [10]: not normalized.
        let raw = RawTimestampSet::new(vec![pts(1, 8, 80), pts(2, 2, 80)]);
        assert_eq!(raw.len(), 2);
        assert!(!raw.is_normalized());
        let normalized = raw.normalize().unwrap();
        assert_eq!(normalized.members(), &[pts(1, 8, 80)]);
    }

    #[test]
    fn raw_set_roundtrip_from_composite() {
        let c = cts(&[(1, 8, 80), (2, 7, 72)]);
        let raw: RawTimestampSet = c.clone().into();
        assert!(raw.is_normalized());
        assert_eq!(raw.normalize().unwrap(), c);
    }

    #[test]
    fn max_set_with_chain_keeps_top() {
        // s1 chain 1 -> 5 -> 9 locally: only the top survives.
        let st = vec![pts(1, 1, 10), pts(1, 5, 50), pts(1, 9, 90)];
        assert_eq!(max_set(&st), vec![pts(1, 9, 90)]);
    }

    #[test]
    fn normalization_is_idempotent() {
        let c = cts(&[(1, 8, 80), (2, 7, 72), (1, 2, 20)]);
        let again = CompositeTimestamp::from_primitives(c.iter().copied());
        assert_eq!(c, again);
    }

    #[test]
    fn cached_bounds_match_member_scan() {
        let sets = [
            cts(&[(1, 8, 80)]),
            cts(&[(3, 8, 81), (6, 7, 72)]),
            cts(&[(1, 8, 80), (2, 8, 81), (3, 9, 90), (4, 8, 82), (5, 9, 91)]),
        ];
        for c in &sets {
            let scan_min = c.iter().map(|t| t.global().get()).min().unwrap();
            let scan_max = c.iter().map(|t| t.global().get()).max().unwrap();
            assert_eq!(c.min_global(), scan_min);
            assert_eq!(c.max_global(), scan_max);
            for t in c.iter() {
                assert_ne!(c.site_mask() & (1u64 << (t.site().get() % 64)), 0);
            }
        }
    }

    #[test]
    fn inline_to_heap_spill_is_transparent() {
        // 5 pairwise-concurrent members: one past the inline capacity.
        let big = cts(&[(1, 8, 80), (2, 8, 81), (3, 9, 90), (4, 8, 82), (5, 9, 91)]);
        assert_eq!(big.len(), 5);
        assert!(big.invariant_holds());
        let small = cts(&[(1, 8, 80), (2, 8, 81), (3, 9, 90), (4, 8, 82)]);
        assert_eq!(small.len(), 4);
        // Round-trip through the member vector preserves equality either way.
        for c in [&big, &small] {
            let again = CompositeTimestamp::from_primitives(c.clone().into_members());
            assert_eq!(&again, c);
        }
    }

    #[test]
    fn single_site_detection() {
        assert_eq!(cts(&[(3, 8, 81)]).single_site(), Some(SiteId(3)));
        assert_eq!(
            cts(&[(3, 8, 80), (3, 9, 80)]).single_site(),
            Some(SiteId(3))
        );
        assert_eq!(cts(&[(3, 8, 81), (6, 7, 72)]).single_site(), None);
    }

    #[test]
    fn site_runs_summarize_member_runs() {
        // Three sites; s3 has a two-member run (same local, two globals).
        let c = cts(&[(1, 8, 80), (3, 8, 81), (3, 9, 81), (6, 8, 72)]);
        let runs: Vec<_> = c.site_runs().collect();
        assert_eq!(runs.len(), 3);
        assert_eq!(
            (
                runs[0].site,
                runs[0].local,
                runs[0].min_global,
                runs[0].max_global
            ),
            (SiteId(1), 80, 8, 8)
        );
        assert_eq!(
            (
                runs[1].site,
                runs[1].local,
                runs[1].min_global,
                runs[1].max_global
            ),
            (SiteId(3), 81, 8, 9)
        );
        assert_eq!(
            (
                runs[2].site,
                runs[2].local,
                runs[2].min_global,
                runs[2].max_global
            ),
            (SiteId(6), 72, 8, 8)
        );
        // The summary is sorted by site and loses nothing the relation can
        // see: reconstructed per-site bounds match a member scan.
        for r in &runs {
            let globals: Vec<u64> = c
                .iter()
                .filter(|t| t.site() == r.site)
                .map(|t| t.global().get())
                .collect();
            assert_eq!(r.min_global, *globals.iter().min().unwrap());
            assert_eq!(r.max_global, *globals.iter().max().unwrap());
            assert!(c
                .iter()
                .filter(|t| t.site() == r.site)
                .all(|t| t.local().get() == r.local));
        }
    }

    #[test]
    fn excluding_bounds_match_member_scan() {
        let sets = [
            cts(&[(1, 8, 80)]),
            cts(&[(3, 8, 80), (3, 9, 80)]),
            cts(&[(3, 8, 81), (6, 7, 72)]),
            cts(&[(1, 8, 80), (2, 8, 81), (3, 9, 90), (4, 8, 82), (5, 9, 91)]),
            // Two sites tying on the band edge: the excluding bound for the
            // achieving site must see the other achiever.
            cts(&[(1, 7, 70), (2, 7, 71), (3, 8, 85)]),
        ];
        for c in &sets {
            for probe in 0..8u32 {
                let site = SiteId(probe);
                let outside: Vec<u64> = c
                    .iter()
                    .filter(|t| t.site() != site)
                    .map(|t| t.global().get())
                    .collect();
                let scan_min = outside.iter().copied().min().unwrap_or(u64::MAX);
                let scan_max = outside.iter().copied().max().unwrap_or(0);
                assert_eq!(c.min_global_excluding(site), scan_min, "{c} \\ s{probe}");
                assert_eq!(c.max_global_excluding(site), scan_max, "{c} \\ s{probe}");
            }
        }
    }

    #[test]
    fn from_canonical_slice_equals_vec_constructor() {
        let sets = [
            cts(&[(1, 8, 80)]),
            cts(&[(3, 8, 81), (6, 7, 72)]),
            cts(&[(1, 8, 80), (2, 8, 81), (3, 9, 90), (4, 8, 82), (5, 9, 91)]),
        ];
        for c in &sets {
            let rebuilt = CompositeTimestamp::from_canonical_slice(c.members());
            assert_eq!(&rebuilt, c);
            assert_eq!(rebuilt.min_global(), c.min_global());
            assert_eq!(rebuilt.max_global(), c.max_global());
            assert_eq!(rebuilt.site_mask(), c.site_mask());
        }
    }

    #[test]
    fn hash_is_member_list_hash() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        // The cached bounds must not contribute to the hash: equal member
        // lists (however stored — inline or heap) hash identically to the
        // bare slice, as the pre-cache derive did.
        let c = cts(&[(3, 8, 81), (6, 7, 72)]);
        let mut h1 = DefaultHasher::new();
        c.hash(&mut h1);
        let mut h2 = DefaultHasher::new();
        c.members().hash(&mut h2);
        assert_eq!(h1.finish(), h2.finish());
    }
}
