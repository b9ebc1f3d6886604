//! WAL frame codec properties: roundtrip fidelity and total (panic-free)
//! behavior under arbitrary corruption.
//!
//! The recovery path trusts the WAL scanner with whatever bytes a crash
//! left on disk, so the scanner's contract is checked adversarially here:
//!
//! * **Roundtrip** — any record sequence framed by the writer scans back
//!   to exactly the same records with a `Clean` tail.
//! * **Truncation** — every possible prefix of a valid log scans without
//!   panicking to a prefix of the original records; nothing fabricated.
//! * **Bit flips** — flipping any single bit anywhere in the image never
//!   panics, never fabricates a record, and at worst costs the frames
//!   from the damaged one onward (everything before is still recovered).
//! * **Garbage** — scanning arbitrary random bytes never panics and the
//!   decoder never allocates from an attacker-sized length prefix.

use decs::distrib::durability::{frame_record, scan_bytes, WalRecord, WalTail};
use decs::distrib::Msg;
use decs::snoop::{EventId, Occurrence, Value};
use proptest::prelude::*;

/// An arbitrary (but valid) composite-timestamped occurrence. Local ticks
/// are derived from global ticks so generated stamps are self-consistent —
/// contradictory stamps (local order opposing global order at one site)
/// cannot come out of a real clock and make `max_set` degenerate.
fn occurrence() -> impl Strategy<Value = Occurrence<decs::core::CompositeTimestamp>> {
    (
        0u32..8,
        proptest::collection::vec((0u32..4, 0u64..50), 1..4),
        proptest::collection::vec(-100i64..100, 0..3),
    )
        .prop_map(|(ty, members, ints)| {
            let members: Vec<(u32, u64, u64)> = members
                .into_iter()
                .map(|(site, g)| (site, g, g * 10 + u64::from(site)))
                .collect();
            let ts = decs::core::cts(&members);
            let values: Vec<Value> = ints.into_iter().map(Value::Int).collect();
            Occurrence::primitive(EventId(ty), ts, values)
        })
}

/// A *wide* composite-timestamped occurrence: `width` sites drawn from a
/// shifted base so stamps overlap partially. Exercises the summarized
/// (version-vector) timestamp representation through the WAL wire format,
/// which carries members only — the decoder rebuilds the per-site summary.
fn wide_occurrence() -> impl Strategy<Value = Occurrence<decs::core::CompositeTimestamp>> {
    (
        0u32..8,
        prop_oneof![Just(2usize), Just(8), Just(32), Just(128)],
        0u32..64,
        0u64..50,
    )
        .prop_map(|(ty, width, base, g0)| {
            let members: Vec<(u32, u64, u64)> = (0..width)
                .map(|i| {
                    let site = base + i as u32;
                    let g = g0 + (i as u64 % 2);
                    (site, g, g * 10 + u64::from(site))
                })
                .collect();
            Occurrence::primitive(EventId(ty), decs::core::cts(&members), Vec::new())
        })
}

fn msg() -> impl Strategy<Value = Msg> {
    prop_oneof![
        (
            0u64..1000,
            0u64..4,
            0u64..100,
            proptest::collection::vec(occurrence(), 0..3)
        )
            .prop_map(|(seq, epoch, watermark, events)| Msg::Batch {
                seq,
                epoch,
                watermark,
                events: std::sync::Arc::new(events)
            }),
        (0u64..1000, 1u64..4, 0u64..100).prop_map(|(seq, epoch, watermark)| Msg::Hello {
            seq,
            epoch,
            watermark
        }),
    ]
}

fn record() -> impl Strategy<Value = WalRecord> {
    prop_oneof![
        (0u32..4, 0u64..10_000_000, msg()).prop_map(|(site, at, msg)| WalRecord::Delivered {
            site,
            at,
            msg
        }),
        (0u64..64, 0u64..10_000_000, 0u32..4, 0u64..50, 0u64..500).prop_map(
            |(tag, at, site, global, local)| WalRecord::TimerFired {
                tag,
                at,
                site,
                global,
                local
            }
        ),
        (0u32..4, 0u64..10_000_000).prop_map(|(site, at)| WalRecord::Evicted { site, at }),
        (1u64..100).prop_map(|count| WalRecord::Drained { count }),
    ]
}

fn image(records: &[WalRecord]) -> (Vec<u8>, Vec<usize>) {
    let mut bytes = Vec::new();
    let mut boundaries = vec![0usize];
    for r in records {
        bytes.extend_from_slice(&frame_record(r));
        boundaries.push(bytes.len());
    }
    (bytes, boundaries)
}

/// Number of whole frames that survive when the image is cut at `len`.
fn frames_below(boundaries: &[usize], len: usize) -> usize {
    boundaries.iter().filter(|&&b| b > 0 && b <= len).count()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn roundtrip_is_exact(records in proptest::collection::vec(record(), 0..12)) {
        let (bytes, _) = image(&records);
        let scan = scan_bytes(&bytes);
        prop_assert_eq!(scan.records, records);
        prop_assert_eq!(scan.valid_len, bytes.len() as u64);
        prop_assert_eq!(scan.tail, WalTail::Clean);
    }

    #[test]
    fn every_truncation_scans_to_a_prefix(
        records in proptest::collection::vec(record(), 1..8),
        cut_sel in 0u64..1_000_000,
    ) {
        let (bytes, boundaries) = image(&records);
        // Scale the selector onto 0..=len so every cut point is reachable.
        let cut = ((bytes.len() as u64 + 1) * cut_sel / 1_000_000) as usize;
        let scan = scan_bytes(&bytes[..cut]);
        let whole = frames_below(&boundaries, cut);
        // Exactly the whole frames before the cut survive; a cut on a
        // frame boundary is a clean tail, anywhere else is torn.
        prop_assert_eq!(scan.records.len(), whole);
        prop_assert_eq!(&scan.records[..], &records[..whole]);
        if boundaries.contains(&cut) {
            prop_assert_eq!(scan.tail, WalTail::Clean);
        } else {
            prop_assert!(matches!(scan.tail, WalTail::Torn { .. }), "tail must be torn");
        }
    }

    #[test]
    fn any_single_bit_flip_fails_cleanly(
        records in proptest::collection::vec(record(), 1..6),
        pos_sel in 0u64..1_000_000,
        bit in 0u8..8,
    ) {
        let (mut bytes, boundaries) = image(&records);
        let pos = (bytes.len() as u64 * pos_sel / 1_000_000) as usize;
        bytes[pos] ^= 1 << bit;
        // Must not panic; must not fabricate. The flip lands inside some
        // frame k (or its header): frames before k always survive; frame
        // k itself survives only in the astronomically unlikely event of
        // a CRC collision that still decodes — in which case the decoded
        // record could differ, so we only assert the prefix property for
        // frames strictly before the damaged one.
        let scan = scan_bytes(&bytes);
        let damaged_frame = boundaries[1..]
            .iter()
            .position(|&b| pos < b)
            .unwrap_or(records.len());
        prop_assert!(scan.records.len() >= damaged_frame);
        prop_assert_eq!(&scan.records[..damaged_frame], &records[..damaged_frame]);
        if scan.records.len() < records.len() {
            prop_assert!(!matches!(scan.tail, WalTail::Clean));
        }
    }

    #[test]
    fn arbitrary_garbage_never_panics(bytes in proptest::collection::vec(0u8..=255, 0..512)) {
        let scan = scan_bytes(&bytes);
        // The valid prefix re-frames to exactly the bytes it claims.
        let (reframed, _) = image(&scan.records);
        prop_assert_eq!(reframed.len() as u64, scan.valid_len);
        prop_assert_eq!(&bytes[..scan.valid_len as usize], &reframed[..]);
    }

    #[test]
    fn wide_stamp_roundtrip_rebuilds_summary(
        occs in proptest::collection::vec(wide_occurrence(), 2..5),
    ) {
        // Summarized (wide) timestamps through the WAL: the wire format
        // carries members only, so the scan must hand back stamps whose
        // rebuilt summaries drive the vector kernels to the same answers
        // as the naive member-scan oracles on the originals.
        let records: Vec<WalRecord> = occs
            .iter()
            .enumerate()
            .map(|(i, occ)| WalRecord::Delivered {
                site: i as u32,
                at: i as u64,
                msg: Msg::Batch {
                    seq: i as u64,
                    epoch: 0,
                    watermark: 0,
                    events: std::sync::Arc::new(vec![occ.clone()]),
                },
            })
            .collect();
        let (bytes, _) = image(&records);
        let scan = scan_bytes(&bytes);
        prop_assert_eq!(scan.tail, WalTail::Clean);
        prop_assert_eq!(&scan.records[..], &records[..]);
        let mut back = Vec::new();
        for r in &scan.records {
            if let WalRecord::Delivered { msg: Msg::Batch { events, .. }, .. } = r {
                back.extend(events.iter().map(|occ| occ.time.clone()));
            }
        }
        prop_assert_eq!(back.len(), occs.len());
        for (a, occ_a) in back.iter().zip(&occs) {
            prop_assert_eq!(a, &occ_a.time);
            for (b, occ_b) in back.iter().zip(&occs) {
                prop_assert_eq!(a.relation(b), occ_a.time.relation_naive(&occ_b.time));
                prop_assert_eq!(
                    decs::core::max_op(a, b),
                    decs::core::max_op_naive(&occ_a.time, &occ_b.time)
                );
            }
        }
    }

    #[test]
    fn corrupting_a_crc_costs_only_the_suffix(
        records in proptest::collection::vec(record(), 2..8),
        frame_sel in 0u64..1_000_000,
    ) {
        let (mut bytes, boundaries) = image(&records);
        let k = (records.len() as u64 * frame_sel / 1_000_000) as usize;
        // Flip a byte of frame k's stored CRC (offset 4..8 in the frame).
        bytes[boundaries[k] + 5] ^= 0xFF;
        let scan = scan_bytes(&bytes);
        prop_assert_eq!(scan.records.len(), k);
        prop_assert_eq!(&scan.records[..], &records[..k]);
        prop_assert!(matches!(scan.tail, WalTail::Corrupt { .. }), "tail must be corrupt");
        prop_assert_eq!(scan.valid_len, boundaries[k] as u64);
    }
}
