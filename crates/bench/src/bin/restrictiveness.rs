//! E7 (extension) — quantifying "least restricted".
//!
//! The paper argues `<_p` is the least restricted valid ordering. This
//! experiment measures, over random universes, the fraction of timestamp
//! pairs each valid candidate can order (in either direction), sweeping
//! the timestamp-set width and the time horizon (event density). The
//! expected shape: `<_p` ≥ every other valid candidate on every row, with
//! the gap growing with set width; `∃∃` orders the most pairs but is
//! invalid (E5).
//!
//! Run: `cargo run -p decs-bench --bin restrictiveness`

use decs_bench::{print_table, random_composite};
use decs_core::alt::Candidate;
use decs_core::RawTimestampSet;
use decs_simnet::SplitMix64;

fn main() {
    println!("E7 — comparability rate (% of random pairs ordered) by candidate\n");

    let mut rng = SplitMix64::new(7_777);
    const PAIRS: usize = 30_000;

    let mut rows = Vec::new();
    for (width, horizon) in [
        (1usize, 300u64),
        (2, 300),
        (4, 300),
        (6, 300),
        (4, 60),
        (4, 1200),
    ] {
        let mut counts = vec![0u64; Candidate::ALL.len()];
        let mut concurrent = 0u64;
        for _ in 0..PAIRS {
            let a = RawTimestampSet::from(random_composite(&mut rng, 5, horizon, width));
            let b = RawTimestampSet::from(random_composite(&mut rng, 5, horizon, width));
            for (i, cand) in Candidate::ALL.iter().enumerate() {
                if cand.eval(&a, &b) || cand.eval(&b, &a) {
                    counts[i] += 1;
                }
            }
            let an = a.normalize().unwrap();
            let bn = b.normalize().unwrap();
            if an.concurrent(&bn) {
                concurrent += 1;
            }
        }
        assert!(
            counts[1] >= counts[3] && counts[1] >= counts[4],
            "w≤{width}, h={horizon}: <_p must order at least as many pairs as ∀∀ and min: {counts:?}"
        );
        let pct = |c: u64| format!("{:.1}%", 100.0 * c as f64 / PAIRS as f64);
        rows.push(vec![
            format!("w≤{width}, h={horizon}"),
            pct(counts[0]), // ∃∃ (invalid, upper envelope)
            pct(counts[1]), // <_p
            pct(counts[2]), // <_g
            pct(counts[3]), // ∀∀
            pct(counts[4]), // min
            pct(counts[5]), // [10]
            pct(concurrent),
        ]);
    }
    print_table(
        &[
            "universe", "∃∃*", "<_p", "<_g", "∀∀", "min", "[10]*", "~ rate",
        ],
        &[14, 8, 8, 8, 8, 8, 8, 8],
        &rows,
    );
    println!("\n  (* = not a valid strict partial order; shown as envelope only)");
    println!("\nexpected shape, checked on each row: <_p ≥ ∀∀ and <_p ≥ min;");
    println!("the advantage grows with set width; everything shrinks as the");
    println!("horizon shrinks (denser events ⇒ more concurrency).");
}
