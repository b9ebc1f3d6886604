//! Allocation accounting for the hot timestamp kernels.
//!
//! This file is its own integration-test binary with exactly one `#[test]`
//! so the counting global allocator sees no traffic from sibling tests
//! (the libtest harness runs tests of one binary concurrently; a second
//! test here would pollute the counters).
//!
//! What it pins:
//!
//! * the relation kernels (`relation`/`happens_before`/`concurrent`/
//!   `weak_leq`) allocate nothing at any width — they walk the version
//!   vector summary in place;
//! * cloning any stamp allocates nothing: a single member is stored in
//!   place and a wider stamp shares one immutable body behind an `Arc`;
//! * `max_op` allocates nothing when the result has one member (the merge
//!   stages in a reusable thread-local scratch, and the member is stored
//!   in place), nor on its dominance fast path at any width (the result
//!   is a clone of one side);
//! * a multi-member `max_op` result allocates its shared body: exactly one
//!   allocation for up to four members (they live in the body), exactly
//!   two for a wider one (the body plus its exact-size member vec);
//! * the retired naive path (`max_op_naive`, kept as the oracle) pays
//!   multiple allocations per call, so the scratch route is a real saving,
//!   not an accounting trick.

use decs_core::{max_op, max_op_naive, pts, CompositeTimestamp};
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

/// Allocations observed while running `f`.
fn allocs_during<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let before = ALLOCS.load(Ordering::Relaxed);
    let r = f();
    (ALLOCS.load(Ordering::Relaxed) - before, r)
}

/// A wide composite: `width` distinct sites in one global-tick window,
/// pairwise concurrent, so nothing is normalized away.
fn wide(base_site: u32, g: u64, width: u32) -> CompositeTimestamp {
    CompositeTimestamp::from_primitives(
        (0..width).map(|i| pts(base_site + i, g + u64::from(i % 2), 100 + u64::from(i))),
    )
}

#[test]
fn kernels_are_alloc_free_on_the_hot_path() {
    // Overlapping site sets: these pairs miss the O(1) mask fast paths and
    // exercise the merge-walk kernels proper.
    let a32 = wide(0, 10, 32);
    let b32 = wide(16, 10, 32); // sites 16..48 overlap a32's 0..32
    let a2 = wide(0, 10, 2);
    let b2 = wide(1, 10, 2);

    // Warm up the thread-local scratch (its first growth is a one-time
    // allocation) and any lazy test-harness state.
    let _ = max_op(&a32, &b32);
    let _ = max_op(&a2, &b2);

    // 1. Relation kernels: zero allocations at every width.
    let (n, _) = allocs_during(|| {
        for (x, y) in [(&a32, &b32), (&a2, &b2), (&a32, &a32)] {
            std::hint::black_box(x.relation(y));
            std::hint::black_box(x.happens_before(y));
            std::hint::black_box(x.concurrent(y));
            std::hint::black_box(x.weak_leq(y));
        }
    });
    assert_eq!(n, 0, "relation kernels must not allocate");

    // 2. Cloning allocates nothing at any width.
    let one = CompositeTimestamp::singleton(pts(3, 10, 7));
    let (n, _) = allocs_during(|| {
        for c in [&one, &a2, &a32] {
            std::hint::black_box(c.clone());
        }
    });
    assert_eq!(n, 0, "cloning a stamp must not allocate");

    // 3. max_op with a single-member result allocates nothing, whether the
    //    merge produces it (same site, later local) or the dominance fast
    //    path returns one side; the fast path is allocation-free at any
    //    width.
    let later = CompositeTimestamp::singleton(pts(3, 11, 8));
    let far = wide(8, 20, 32); // sites disjoint from a2, > 2 ticks later
    let (n, m) = allocs_during(|| std::hint::black_box(max_op(&one, &later)));
    assert_eq!(m, later, "fixture drifted: merge kept both members");
    assert_eq!(n, 0, "single-member max_op must not allocate");
    let (n, m) = allocs_during(|| std::hint::black_box(max_op(&a2, &far)));
    assert_eq!(m, far, "fixture drifted: fast path missed");
    assert_eq!(n, 0, "the dominance fast path must not allocate");

    // 4. A multi-member result of up to four members allocates exactly
    //    once (its shared body); a wider one exactly twice (the body and
    //    its member vec).
    for (x, y) in [(&one, &a2), (&a2, &b2)] {
        let (n, m) = allocs_during(|| std::hint::black_box(max_op(x, y)));
        assert!(
            (2..=4).contains(&m.len()),
            "fixture drifted: result width {}",
            m.len()
        );
        assert_eq!(n, 1, "a ≤ 4-member max_op must allocate only its body");
    }
    let (n, m) = allocs_during(|| std::hint::black_box(max_op(&a32, &b32)));
    assert!(m.len() > 4, "fixture drifted: wide union fit in the body");
    assert_eq!(
        n, 2,
        "wide max_op must allocate only its body and member vec"
    );

    // 5. The naive oracle pays for staging (union vec, max_set's survivor
    //    vec, renormalization) on the same inputs — the scratch route is a
    //    measured saving of ≥ 3 allocations per narrow join and ≥ 2 per
    //    wide one.
    let (n_naive_narrow, _) = allocs_during(|| std::hint::black_box(max_op_naive(&a2, &b2)));
    assert!(
        n_naive_narrow >= 3,
        "oracle baseline shifted: naive narrow max_op made {n_naive_narrow} allocs"
    );
    let (n_naive_wide, _) = allocs_during(|| std::hint::black_box(max_op_naive(&a32, &b32)));
    assert!(
        n_naive_wide >= 3,
        "oracle baseline shifted: naive wide max_op made {n_naive_wide} allocs"
    );
}
