//! Shared helpers for the experiment binaries:
//! seeded random timestamp universes and a minimal fixed-width table
//! printer (so every experiment prints paper-style rows).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use decs_core::{pts, CompositeTimestamp, PrimitiveTimestamp, RawTimestampSet};
use decs_simnet::SplitMix64;

/// Deterministically sample a conforming primitive timestamp:
/// sites `< sites`, local ticks `< horizon`, global = local / 10.
pub fn random_primitive(rng: &mut SplitMix64, sites: u32, horizon: u64) -> PrimitiveTimestamp {
    let site = rng.next_below(u64::from(sites)) as u32 + 1;
    let local = rng.next_below(horizon);
    pts(site, local / 10, local)
}

/// Sample a normalized composite timestamp with up to `width` constituents.
pub fn random_composite(
    rng: &mut SplitMix64,
    sites: u32,
    horizon: u64,
    width: usize,
) -> CompositeTimestamp {
    let n = rng.next_range(1, width as u64) as usize;
    CompositeTimestamp::from_primitives((0..n).map(|_| random_primitive(rng, sites, horizon)))
}

/// Sample a *raw* (possibly non-maximal) timestamp set, as \[10\] would
/// carry.
pub fn random_raw_set(
    rng: &mut SplitMix64,
    sites: u32,
    horizon: u64,
    width: usize,
) -> RawTimestampSet {
    let n = rng.next_range(1, width as u64) as usize;
    RawTimestampSet::new((0..n).map(|_| random_primitive(rng, sites, horizon)))
}

/// Print a fixed-width table row.
pub fn row(cells: &[String], widths: &[usize]) -> String {
    let mut out = String::new();
    for (i, c) in cells.iter().enumerate() {
        let w = widths.get(i).copied().unwrap_or(12);
        out.push_str(&format!("{c:<w$} "));
    }
    out.trim_end().to_string()
}

/// Print a table: header, separator, rows.
pub fn print_table(header: &[&str], widths: &[usize], rows: &[Vec<String>]) {
    println!(
        "{}",
        row(
            &header.iter().map(|s| (*s).to_string()).collect::<Vec<_>>(),
            widths
        )
    );
    let total: usize = widths.iter().sum::<usize>() + widths.len();
    println!("{}", "─".repeat(total));
    for r in rows {
        println!("{}", row(r, widths));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(1);
        for _ in 0..50 {
            assert_eq!(
                random_composite(&mut a, 4, 200, 5),
                random_composite(&mut b, 4, 200, 5)
            );
        }
    }

    #[test]
    fn composite_generator_respects_invariant() {
        let mut rng = SplitMix64::new(2);
        for _ in 0..200 {
            assert!(random_composite(&mut rng, 5, 300, 6).invariant_holds());
        }
    }

    #[test]
    fn table_rows_align() {
        let r = row(&["ab".into(), "c".into()], &[4, 3]);
        assert_eq!(r, "ab   c");
    }
}
