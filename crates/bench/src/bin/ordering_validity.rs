//! E5 — mechanical validity check of every candidate ordering
//! (Section 5.1's analysis + the counterexample against \[10\]).
//!
//! For each candidate we search randomized universes of (a) normalized
//! composite timestamps and (b) raw Schwiderski-style sets for
//! irreflexivity and transitivity violations. We also quantify how often
//! the literal Definition 5.9 `Max` diverges from Theorem 5.4's
//! `max(T1 ∪ T2)` (the paper-internal inconsistency documented in
//! DESIGN.md), and how often Theorem 5.3's "iff" converse fails.
//!
//! Run: `cargo run -p decs-bench --bin ordering_validity`

use decs_bench::{print_table, random_composite, random_raw_set};
use decs_core::alt::{find_irreflexivity_violation, find_transitivity_violation, Candidate};
use decs_core::join::{def59_agrees, max_op};
use decs_core::properties::thm_5_3_iff;
use decs_core::RawTimestampSet;
use decs_simnet::SplitMix64;

fn main() {
    println!("E5 / Section 5.1 — validity of candidate composite orderings\n");

    let mut rng = SplitMix64::new(20_240_607);
    const ROUNDS: usize = 60;
    const UNIVERSE: usize = 24;

    // (candidate, irreflexive-on-raw, transitive-on-raw, transitive-on-normalized)
    let mut rows = Vec::new();
    for cand in Candidate::ALL {
        let mut refl_raw = 0usize;
        let mut trans_raw = 0usize;
        let mut trans_norm = 0usize;
        for _ in 0..ROUNDS {
            let raw: Vec<RawTimestampSet> = (0..UNIVERSE)
                .map(|_| random_raw_set(&mut rng, 4, 120, 4))
                .collect();
            let norm: Vec<RawTimestampSet> = (0..UNIVERSE)
                .map(|_| RawTimestampSet::from(random_composite(&mut rng, 4, 120, 4)))
                .collect();
            if find_irreflexivity_violation(cand, &raw).is_some() {
                refl_raw += 1;
            }
            if find_transitivity_violation(cand, &raw).is_some() {
                trans_raw += 1;
            }
            if find_transitivity_violation(cand, &norm).is_some() {
                trans_norm += 1;
            }
        }
        let verdict = if refl_raw == 0 && trans_raw == 0 && trans_norm == 0 {
            "strict partial order"
        } else {
            "NOT a partial order"
        };
        rows.push(vec![
            cand.name().to_string(),
            format!("{refl_raw}/{ROUNDS}"),
            format!("{trans_raw}/{ROUNDS}"),
            format!("{trans_norm}/{ROUNDS}"),
            verdict.to_string(),
        ]);
    }
    print_table(
        &[
            "candidate",
            "refl.viol(raw)",
            "trans.viol(raw)",
            "trans.viol(norm)",
            "verdict",
        ],
        &[18, 15, 16, 17, 22],
        &rows,
    );

    println!("\npaper's conclusions, reproduced mechanically:");
    println!("  ∃∃ (<_p1) and the [10]-style ordering fail; <_p, <_g, ∀∀, min are valid;");
    println!("  <_p/<_g remain valid even on raw (non-maximal) sets.\n");

    // Definition 5.9 vs Theorem 5.4 divergence rate.
    let mut pairs = 0u64;
    let mut diverged = 0u64;
    let mut thm53_pairs = 0u64;
    let mut thm53_fail = 0u64;
    for _ in 0..20_000 {
        let a = random_composite(&mut rng, 4, 120, 4);
        let b = random_composite(&mut rng, 4, 120, 4);
        pairs += 1;
        if !def59_agrees(&a, &b) {
            diverged += 1;
            // The divergence is always an ordered pair where the "earlier"
            // set keeps an undominated member.
            debug_assert!(a.happens_before(&b) || b.happens_before(&a));
            let m = max_op(&a, &b);
            debug_assert!(m.invariant_holds());
        }
        thm53_pairs += 1;
        if !thm_5_3_iff(&a, &b) {
            thm53_fail += 1;
        }
    }
    println!("fidelity findings over {pairs} random normalized pairs:");
    println!(
        "  Definition 5.9 (case analysis) ≠ Theorem 5.4 (max of union): {diverged} pairs ({:.2}%)",
        100.0 * diverged as f64 / pairs as f64
    );
    println!(
        "  Theorem 5.3 converse (⪯̃ ⇒ ~ ∨ <) fails:                    {thm53_fail} pairs ({:.2}%)",
        100.0 * thm53_fail as f64 / thm53_pairs as f64
    );
    println!("  (both findings documented in DESIGN.md §1; we take Thm 5.4 as normative)");
}
