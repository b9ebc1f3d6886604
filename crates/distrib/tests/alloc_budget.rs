//! The engine's allocation budget per event.
//!
//! Like `crates/snoop/tests/alloc_count.rs`, this is a dedicated test
//! binary with exactly one `#[test]` so the counting global allocator sees
//! no concurrent traffic.
//!
//! What it pins:
//!
//! * a seeded `fanin`-shaped run (independent two-primitive `SEQ`s under
//!   Chronicle and Recent, one `Int` parameter per event, lossless links)
//!   allocates, inside `run_until`, at most one count per primitive (its
//!   parameter list; the lone `Int` lives in place in its tuple) plus one
//!   per detection (its combined list), plus a fixed allowance per
//!   delivered batch and per release round for the buffers those move;
//! * a warm `WalWriter::append` allocates nothing: the frame is encoded
//!   into a buffer the writer keeps.

use decs_chronos::{Granularity, Nanos};
use decs_core::{pts, CompositeTimestamp};
use decs_distrib::durability::WalSink;
use decs_distrib::{Engine, EngineConfig, Msg, WalRecord, WalWriter};
use decs_simnet::{ScenarioBuilder, SplitMix64};
use decs_snoop::{Context, EventExpr as E, EventId, Occurrence, Value};
use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{self, Write};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

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

fn allocs_during<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let before = ALLOCS.load(Ordering::Relaxed);
    let r = f();
    (ALLOCS.load(Ordering::Relaxed) - before, r)
}

const SITES: u32 = 8;
const DEFS: usize = 8;
const EVENTS: usize = 6_000;
const SPAN_MS: u64 = 1_500;
const START_MS: u64 = 100;
const TAIL_MS: u64 = 2_000;
/// Virtual length of one `run_until` call.
const SLICE_MS: u64 = 100;
/// Allocations allowed per delivered batch, its occurrence vector and
/// that vector's `Arc` among them.
const PER_BATCH: usize = 4;
/// Allocations allowed per release round.
const PER_ROUND: usize = 4;

/// A warm append's frame goes here.
struct Discard;

impl Write for Discard {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl WalSink for Discard {
    fn sync_data(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[test]
fn engine_allocates_once_per_primitive_and_detection() {
    let scenario = ScenarioBuilder::new(SITES, 1)
        .global_granularity(Granularity::per_second(10).unwrap())
        .max_offset_ns(1_000_000)
        .build()
        .unwrap();
    let mut prims = Vec::new();
    let mut defs = Vec::new();
    for d in 0..DEFS {
        let (a, b) = (format!("F{d}a"), format!("F{d}b"));
        let ctx = [Context::Chronicle, Context::Recent][d % 2];
        defs.push((format!("S{d}"), E::seq(E::prim(&a), E::prim(&b)), ctx));
        prims.push(a);
        prims.push(b);
    }
    let prim_names: Vec<&str> = prims.iter().map(String::as_str).collect();
    let def_refs: Vec<(&str, E, Context)> = defs
        .iter()
        .map(|(n, e, c)| (n.as_str(), e.clone(), *c))
        .collect();
    let mut e = Engine::new(&scenario, EngineConfig::default(), &prim_names, &def_refs).unwrap();
    let mut rng = SplitMix64::new(7);
    let (start, end) = (START_MS * 1_000_000, (START_MS + SPAN_MS) * 1_000_000);
    let mut at: Vec<(u64, u32, usize)> = (0..EVENTS)
        .map(|_| {
            let t = rng.next_range(start, end);
            let site = rng.next_below(u64::from(SITES)) as u32;
            (t, site, rng.next_below(prims.len() as u64) as usize)
        })
        .collect();
    at.sort_unstable();
    for (i, &(t, site, ty)) in at.iter().enumerate() {
        e.inject(Nanos(t), site, &prims[ty], vec![Value::Int(i as i64)])
            .unwrap();
    }

    let horizon = START_MS + SPAN_MS + TAIL_MS;
    let mut detections = 0;
    let mut allocs = 0;
    for k in 1..=horizon.div_ceil(SLICE_MS) {
        let until = Nanos::from_millis((k * SLICE_MS).min(horizon));
        let (n, det) = allocs_during(|| e.run_until(until));
        allocs += n;
        detections += det.len();
    }
    let m = e.metrics();
    assert_eq!(
        m.events_released, EVENTS as u64,
        "fixture drifted: not all released"
    );
    assert!(
        detections > EVENTS / 4,
        "fixture drifted: {detections} detections"
    );
    let batches = m.batches_received as usize;
    let rounds = m.release_batches as usize;
    let budget = EVENTS + detections + PER_BATCH * batches + PER_ROUND * rounds;
    assert!(
        allocs <= budget,
        "{allocs} allocations inside run_until exceed the budget of {budget}: {EVENTS} \
         primitives + {detections} detections + {PER_BATCH} per batch ({batches}) + \
         {PER_ROUND} per release round ({rounds})"
    );

    wal_append_allocates_nothing_once_warm();
}

/// The coordinator's commonest record: a delivered batch of stamped
/// primitives, each with one `Int` parameter.
fn wal_append_allocates_nothing_once_warm() {
    let events = (0..16u64)
        .map(|i| {
            let ts = CompositeTimestamp::singleton(pts(1, 5, 50 + i));
            Occurrence::primitive(EventId(i as u32), ts, vec![Value::Int(i as i64)])
        })
        .collect();
    let rec = WalRecord::Delivered {
        site: 1,
        at: 5_000_000,
        msg: Msg::Batch {
            seq: 3,
            epoch: 0,
            watermark: 5,
            events: Arc::new(events),
        },
    };
    let mut w = WalWriter::with_sink(Box::new(Discard), "wal.log".into());
    w.append(&rec).unwrap();
    let (n, r) = allocs_during(|| w.append(&rec));
    r.unwrap();
    assert_eq!(n, 0, "a warm WAL append must allocate nothing");
}
