//! E13 — hot-path timestamp kernels and watermark-driven buffer GC.
//!
//! Three measurements, emitted as `BENCH_hotpath.json`:
//!
//! 1. **Relation kernels** — ns/op of the cached-bound fast paths
//!    (`relation`, `happens_before`, `max_op`) against the literal
//!    Definition 5.3/5.9 pairwise scans (`*_naive`), on band-separated
//!    pairs (where the `1·g_g`-gap fast path short-circuits) and on
//!    overlapping-band pairs (where both fall back to the scan).
//! 2. **Buffer occupancy** — operator-buffer entries after a 1M-event
//!    NOT/ANY-heavy stream with GC on (bounded) vs GC off at smaller N
//!    (linear growth; the NOT workload is also quadratic in scan time
//!    without GC, which is why its no-GC leg uses a small N).
//! 3. **Detection latency** — a distributed-engine run with GC on and off:
//!    identical detections, comparable stability latency.
//!
//! Run: `cargo run --release -p decs-bench --bin hotpath` (full, writes
//! `BENCH_hotpath.json` in the current directory).
//! `--smoke` runs a quick pass, validates the committed
//! `BENCH_hotpath.json` (malformed JSON or a >2x slowdown of any fast
//! kernel fails with a nonzero exit) and writes its own results under
//! `target/`.

use decs_bench::concurrent_composite;
use decs_chronos::{Granularity, Nanos};
use decs_core::{max_op, max_op_naive};
use decs_distrib::{Engine, EngineConfig};
use decs_simnet::ScenarioBuilder;
use decs_snoop::{CentralDetector, Context, EventExpr as E};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// Best-of-3 wall-clock ns per call of `f`, after one warmup pass.
fn time_ns<O>(iters: u64, mut f: impl FnMut() -> O) -> f64 {
    for _ in 0..iters / 4 {
        black_box(f());
    }
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let start = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        best = best.min(start.elapsed().as_nanos() as f64 / iters as f64);
    }
    best
}

struct Kernel {
    name: &'static str,
    naive_ns: f64,
    fast_ns: f64,
}

impl Kernel {
    fn speedup(&self) -> f64 {
        self.naive_ns / self.fast_ns
    }
}

/// The kernel matrix: each entry measures one relation kernel on one pair
/// shape, fast path vs naive oracle.
fn bench_kernels(iters: u64) -> Vec<Kernel> {
    // Width-4 stamps. Band-separated pairs (gap ≫ 1 global tick) hit the
    // O(1) cached-bound paths; overlapping pairs fall through to the scan.
    let sep_a = concurrent_composite(1, 100, 4);
    let sep_b = concurrent_composite(1, 200, 4); // same sites, far band
    let dis_b = concurrent_composite(10, 200, 4); // disjoint sites, far band
    let ovl_a = concurrent_composite(1, 100, 4);
    let ovl_b = concurrent_composite(5, 100, 4); // overlapping band
    let mut out = Vec::new();
    let mut kernel = |name, naive_ns, fast_ns| {
        out.push(Kernel {
            name,
            naive_ns,
            fast_ns,
        })
    };
    kernel(
        "relation_band_separated_w4",
        time_ns(iters, || sep_a.relation_naive(&sep_b)),
        time_ns(iters, || sep_a.relation(&sep_b)),
    );
    kernel(
        "relation_disjoint_sites_w4",
        time_ns(iters, || sep_a.relation_naive(&dis_b)),
        time_ns(iters, || sep_a.relation(&dis_b)),
    );
    kernel(
        "relation_overlapping_w4",
        time_ns(iters, || ovl_a.relation_naive(&ovl_b)),
        time_ns(iters, || ovl_a.relation(&ovl_b)),
    );
    kernel(
        "happens_before_band_separated_w4",
        time_ns(iters, || sep_a.happens_before_naive(&sep_b)),
        time_ns(iters, || sep_a.happens_before(&sep_b)),
    );
    kernel(
        // max_op's dominance shortcut needs disjoint site masks *and* the
        // band gap (same-site pairs would need the local clocks compared).
        "max_op_disjoint_dominant_w4",
        time_ns(iters, || max_op_naive(&sep_a, &dis_b)),
        time_ns(iters, || max_op(&sep_a, &dis_b)),
    );
    out
}

struct OccRow {
    workload: &'static str,
    gc: bool,
    events: u64,
    final_occupancy: usize,
    peak_occupancy: usize,
    evicted: u64,
    throughput_meps: f64,
}

/// Drive a `CentralDetector` with `events` primitive occurrences of the
/// given NOT- or ANY-heavy workload, sampling occupancy as it goes.
fn occupancy_run(workload: &'static str, gc: bool, events: u64) -> OccRow {
    let mut d = CentralDetector::new();
    for n in ["A", "B", "C"] {
        d.register(n).unwrap();
    }
    match workload {
        // Guards + cancelled openers strand state in the NOT node.
        "not_chronicle" => d
            .define(
                "X",
                &E::not(E::prim("B"), E::prim("A"), E::prim("C")),
                Context::Chronicle,
            )
            .unwrap(),
        // Unrestricted ANY buffers grow although only the tops are live.
        "any_unrestricted" => d
            .define(
                "X",
                &E::any(2, vec![E::prim("A"), E::prim("B")]),
                Context::Unrestricted,
            )
            .unwrap(),
        _ => unreachable!("unknown workload"),
    };
    d.set_buffer_gc(gc);
    let mut peak = 0usize;
    let start = Instant::now();
    for i in 0..events {
        let (name, tick) = match workload {
            "not_chronicle" => (
                ["A", "B", "A", "C"][(i % 4) as usize],
                (i / 4) * 10 + (i % 4),
            ),
            _ => (["A", "B"][(i % 2) as usize], i),
        };
        d.feed_bare(name, tick).unwrap();
        if i % 1024 == 0 {
            peak = peak.max(d.buffered_occupancy());
        }
    }
    let secs = start.elapsed().as_secs_f64();
    OccRow {
        workload,
        gc,
        events,
        final_occupancy: d.buffered_occupancy(),
        peak_occupancy: peak.max(d.buffered_occupancy()),
        evicted: d.gc_evicted(),
        throughput_meps: events as f64 / secs / 1e6,
    }
}

struct LatencyRow {
    detections: usize,
    mean_stability_ms: f64,
    gc_evicted: u64,
    node_buffer_peak: usize,
    retransmits: u64,
    acks_sent: u64,
    duplicates_dropped: u64,
    parked_peak: usize,
    suspect_sites: usize,
    plan_nodes: usize,
    shared_nodes: usize,
    sharing_ratio: f64,
}

/// Distributed-engine leg: the NOT workload across 4 sites, GC on or off.
fn latency_run(buffer_gc: bool) -> LatencyRow {
    let scenario = ScenarioBuilder::new(4, 42)
        .max_offset_ns(1_000_000)
        .global_granularity(Granularity::from_millis(100).unwrap())
        .build()
        .unwrap();
    let mut engine = Engine::new(
        &scenario,
        EngineConfig {
            buffer_gc,
            ..EngineConfig::default()
        },
        &["A", "B", "C"],
        &[(
            "X",
            E::not(E::prim("B"), E::prim("A"), E::prim("C")),
            Context::Chronicle,
        )],
    )
    .unwrap();
    for round in 0..50u64 {
        let t = 1_000_000_000 + round * 1_600_000_000;
        engine.inject(Nanos(t), 0, "A", vec![]).unwrap();
        engine
            .inject(Nanos(t + 400_000_000), 1, "B", vec![])
            .unwrap();
        engine
            .inject(Nanos(t + 800_000_000), 2, "A", vec![])
            .unwrap();
        engine
            .inject(Nanos(t + 1_200_000_000), 3, "C", vec![])
            .unwrap();
    }
    let detections = engine.run_for(Nanos::from_secs(90));
    let m = engine.metrics();
    LatencyRow {
        detections: detections.len(),
        mean_stability_ms: m.mean_stability_latency_ns() as f64 / 1e6,
        gc_evicted: m.gc_evicted,
        node_buffer_peak: m.node_buffer_peak,
        retransmits: m.retransmits,
        acks_sent: m.acks_sent,
        duplicates_dropped: m.duplicates_dropped,
        parked_peak: m.parked_peak,
        suspect_sites: m.suspect_sites,
        plan_nodes: m.plan_nodes,
        shared_nodes: m.shared_nodes,
        sharing_ratio: m.sharing_ratio,
    }
}

fn render_json(
    mode: &str,
    kernels: &[Kernel],
    occupancy: &[OccRow],
    latency: &[(bool, LatencyRow)],
) -> String {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut j = String::new();
    let _ = writeln!(j, "{{");
    let _ = writeln!(j, "  \"bench\": \"hotpath\",");
    let _ = writeln!(j, "  \"schema\": 1,");
    let _ = writeln!(j, "  \"mode\": \"{mode}\",");
    let _ = writeln!(j, "  \"threads\": {threads},");
    let _ = writeln!(j, "  \"kernels\": [");
    for (i, k) in kernels.iter().enumerate() {
        let comma = if i + 1 < kernels.len() { "," } else { "" };
        let _ = writeln!(
            j,
            "    {{\"name\": \"{}\", \"naive_ns\": {:.2}, \"fast_ns\": {:.2}, \
             \"speedup\": {:.2}, \"fast_mops\": {:.1}}}{comma}",
            k.name,
            k.naive_ns,
            k.fast_ns,
            k.speedup(),
            1e3 / k.fast_ns
        );
    }
    let _ = writeln!(j, "  ],");
    let _ = writeln!(j, "  \"occupancy\": [");
    for (i, r) in occupancy.iter().enumerate() {
        let comma = if i + 1 < occupancy.len() { "," } else { "" };
        let _ = writeln!(
            j,
            "    {{\"workload\": \"{}\", \"gc\": {}, \"events\": {}, \
             \"final_occupancy\": {}, \"peak_occupancy\": {}, \"evicted\": {}, \
             \"throughput_meps\": {:.2}}}{comma}",
            r.workload,
            r.gc,
            r.events,
            r.final_occupancy,
            r.peak_occupancy,
            r.evicted,
            r.throughput_meps
        );
    }
    let _ = writeln!(j, "  ],");
    let _ = writeln!(j, "  \"latency\": [");
    for (i, (gc, r)) in latency.iter().enumerate() {
        let comma = if i + 1 < latency.len() { "," } else { "" };
        let _ = writeln!(
            j,
            "    {{\"gc\": {gc}, \"detections\": {}, \"mean_stability_ms\": {:.2}, \
             \"gc_evicted\": {}, \"node_buffer_peak\": {}, \"retransmits\": {}, \
             \"acks_sent\": {}, \"duplicates_dropped\": {}, \"parked_peak\": {}, \
             \"suspect_sites\": {}, \"plan_nodes\": {}, \"shared_nodes\": {}, \
             \"sharing_ratio\": {:.3}}}{comma}",
            r.detections,
            r.mean_stability_ms,
            r.gc_evicted,
            r.node_buffer_peak,
            r.retransmits,
            r.acks_sent,
            r.duplicates_dropped,
            r.parked_peak,
            r.suspect_sites,
            r.plan_nodes,
            r.shared_nodes,
            r.sharing_ratio
        );
    }
    let _ = writeln!(j, "  ]");
    let _ = writeln!(j, "}}");
    j
}

/// Pull `"field": <number>` out of the kernel object named `name`. The
/// baseline file is our own emission, so plain substring scanning is an
/// adequate parser — anything it can't find is treated as malformed.
fn extract(json: &str, name: &str, field: &str) -> Option<f64> {
    let obj = &json[json.find(&format!("\"name\": \"{name}\""))?..];
    let obj = &obj[..obj.find('}')?];
    let at = obj.find(&format!("\"{field}\":"))? + field.len() + 4;
    let rest = &obj[at..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

fn smoke(baseline_path: &str) -> i32 {
    let kernels = bench_kernels(200_000);
    let occ = occupancy_run("not_chronicle", true, 20_000);
    let json = render_json("smoke", &kernels, &[occ], &[]);
    std::fs::create_dir_all("target").ok();
    std::fs::write("target/BENCH_hotpath_smoke.json", &json).ok();
    print!("{json}");

    let Ok(baseline) = std::fs::read_to_string(baseline_path) else {
        eprintln!("smoke: FAIL — missing baseline {baseline_path}");
        return 1;
    };
    let mut failed = false;
    // Absolute ns are only comparable when the baseline was produced on a
    // machine with the same parallelism (a proxy for "the same class of
    // hardware"); on a mismatch only the machine-independent speedup
    // ratios below are enforced. Pre-schema baselines carry no stamp and
    // keep the old always-compare behaviour.
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let base_threads = {
        let at = baseline
            .find("\"threads\":")
            .map(|i| i + "\"threads\":".len());
        at.and_then(|i| {
            let rest = &baseline[i..];
            let end = rest.find([',', '\n']).unwrap_or(rest.len());
            rest[..end].trim().parse::<usize>().ok()
        })
    };
    let comparable = base_threads.is_none() || base_threads == Some(threads);
    if !comparable {
        eprintln!(
            "smoke: note — baseline ran on {} thread(s), this machine has {}; \
             skipping absolute-ns kernel comparisons",
            base_threads.unwrap(),
            threads
        );
    }
    for k in &kernels {
        let Some(base_fast) = extract(&baseline, k.name, "fast_ns") else {
            eprintln!(
                "smoke: FAIL — baseline is malformed (no fast_ns for {})",
                k.name
            );
            failed = true;
            continue;
        };
        if comparable && k.fast_ns > 2.0 * base_fast {
            eprintln!(
                "smoke: FAIL — {} regressed {:.2} ns → {:.2} ns (>2x)",
                k.name, base_fast, k.fast_ns
            );
            failed = true;
        }
    }
    // The committed artifact must still carry the headline: the
    // band-separated relation kernel at ≥2x over the naive scan.
    match extract(&baseline, "relation_band_separated_w4", "speedup") {
        Some(s) if s >= 2.0 => {}
        Some(s) => {
            eprintln!("smoke: FAIL — baseline band-separated speedup {s:.2} < 2x");
            failed = true;
        }
        None => {
            eprintln!("smoke: FAIL — baseline is malformed (no band-separated speedup)");
            failed = true;
        }
    }
    if failed {
        1
    } else {
        eprintln!("smoke: OK");
        0
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--smoke") {
        std::process::exit(smoke("BENCH_hotpath.json"));
    }

    eprintln!("E13 — hot-path kernels + buffer GC (full run)");
    let kernels = bench_kernels(2_000_000);
    let occupancy = vec![
        occupancy_run("not_chronicle", true, 1_000_000),
        // The no-GC NOT leg is small on purpose: dead guards make every
        // closer scan O(buffered²), which is part of what GC removes.
        occupancy_run("not_chronicle", false, 20_000),
        occupancy_run("any_unrestricted", true, 1_000_000),
        occupancy_run("any_unrestricted", false, 1_000_000),
    ];
    let latency = vec![(true, latency_run(true)), (false, latency_run(false))];
    let json = render_json("full", &kernels, &occupancy, &latency);
    std::fs::write("BENCH_hotpath.json", &json).expect("write BENCH_hotpath.json");
    print!("{json}");
    eprintln!("wrote BENCH_hotpath.json");
}
