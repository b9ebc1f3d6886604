//! The composite stamp's two storage forms agree with a naive member scan,
//! and the values every layer moves stay small.
//!
//! A `CompositeTimestamp` stores a single member in place and derives its
//! bounds from it; two or more members live in a shared body whose bounds
//! are cached at construction. Neither form is visible through the API,
//! so the property recomputes every accessor from `members()` alone on
//! member sets of width 1–8, with sites past 64 so `site_mask` bits
//! collide. A second property pins that a singleton built directly and
//! one normalized from a one-element list are the same value to `==`,
//! `Hash` and `canonical_cmp`.
//!
//! `hot_sizes_stay_small` is the size gate: stamps, occurrences,
//! parameter tuples and protocol messages are copied at every hop of the pipeline (simnet's
//! queue, the site's send window, the stability buffer, the plan's
//! waves), so a change that inflates them fails here, not only in a
//! benchmark.

use decs::chronos::SiteId;
use decs::core::{pts, CompositeTimestamp, PrimitiveTimestamp};
use decs::distrib::Msg;
use decs::snoop::{EventTime, Occurrence, ParamTuple};
use proptest::prelude::*;
use std::cmp::Ordering;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// Sites from three pools whose ids collide mod 64 (0–7, 60–69 and
/// 120–135), so both shared sites and shared mask bits are common.
fn site() -> impl Strategy<Value = u32> {
    prop_oneof![0u32..8, 60u32..70, 120u32..136]
}

/// One to eight members within one global tick of each other: every
/// cross-site pair is concurrent, and a same-site pair survives `max(ST)`
/// only when its locals are equal, so the drawn locals are few.
fn members() -> impl Strategy<Value = Vec<PrimitiveTimestamp>> {
    (
        0u64..1_000,
        proptest::collection::vec((site(), 0u64..2, 0u64..3), 1..9),
    )
        .prop_map(|(g0, v)| v.into_iter().map(|(s, dg, l)| pts(s, g0 + dg, l)).collect())
}

fn hash_of<T: Hash + ?Sized>(x: &T) -> u64 {
    let mut h = DefaultHasher::new();
    x.hash(&mut h);
    h.finish()
}

/// Global ticks of the members not at `site`.
fn globals_outside(c: &CompositeTimestamp, site: SiteId) -> impl Iterator<Item = u64> + '_ {
    c.members()
        .iter()
        .filter(move |t| t.site() != site)
        .map(|t| t.global().get())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn accessors_match_a_member_scan(v in members()) {
        let c = CompositeTimestamp::from_primitives(v);
        let m = c.members();
        prop_assert!(!m.is_empty() && m.len() <= 8);
        prop_assert_eq!(c.len(), m.len());
        prop_assert!(m.windows(2).all(|w| w[0] < w[1]));
        let globals = || m.iter().map(|t| t.global().get());
        prop_assert_eq!(c.min_global(), globals().min().unwrap());
        prop_assert_eq!(c.max_global(), globals().max().unwrap());
        let mask = m.iter().fold(0u64, |acc, t| acc | 1u64 << (t.site().get() % 64));
        prop_assert_eq!(c.site_mask(), mask);
        let sites: Vec<SiteId> = m.iter().map(|t| t.site()).collect();
        let single = sites.iter().all(|s| *s == sites[0]).then_some(sites[0]);
        prop_assert_eq!(c.single_site(), single);
        // Every member site, each site that shares its mask bit, and the
        // smallest site with no member at all.
        let absent = (0u32..).map(SiteId).find(|s| !sites.contains(s)).unwrap();
        let probes = sites
            .iter()
            .flat_map(|s| [*s, SiteId(s.get() + 64)])
            .chain([absent]);
        for s in probes {
            prop_assert_eq!(
                c.min_global_excluding(s),
                globals_outside(&c, s).min().unwrap_or(u64::MAX),
                "min excluding {:?} of {}", s, c
            );
            prop_assert_eq!(
                c.max_global_excluding(s),
                globals_outside(&c, s).max().unwrap_or(0),
                "max excluding {:?} of {}", s, c
            );
        }
        // Rebuilding from the members is the same value.
        let again = CompositeTimestamp::from_primitives(m.iter().copied());
        prop_assert_eq!(&again, &c);
        prop_assert_eq!(hash_of(&again), hash_of(m));
    }

    #[test]
    fn singleton_agrees_with_from_primitives(s in site(), g in 0u64..1_000, l in 0u64..1_000) {
        let t = pts(s, g, l);
        let a = CompositeTimestamp::singleton(t);
        let b = CompositeTimestamp::from_primitives([t]);
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(hash_of(&a), hash_of(&b));
        prop_assert_eq!(hash_of(&a), hash_of(&[t][..]));
        prop_assert_eq!(a.canonical_cmp(&b), Ordering::Equal);
        prop_assert_eq!(a.members(), &[t][..]);
    }
}

#[test]
fn hot_sizes_stay_small() {
    use std::mem::size_of;
    assert!(size_of::<CompositeTimestamp>() <= 32);
    assert!(size_of::<Occurrence<CompositeTimestamp>>() <= 64);
    // A tuple holds no values, or one scalar, in place; composite
    // parameter lists are arrays of these.
    assert!(size_of::<ParamTuple>() <= 32);
    // The largest variant is `Relay` (sequence number, promise vector,
    // shared payload); occurrences travel behind an `Arc`.
    assert!(size_of::<Msg>() <= 40);
}
