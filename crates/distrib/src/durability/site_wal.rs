//! Per-site write-ahead log: crash-recoverable outbound state.
//!
//! A site's contribution to end-to-end correctness is its *unacked send
//! window*: every sequence number it allocated must eventually be
//! delivered, or the coordinator's in-order frontier stalls forever. With
//! site durability on, each site logs every allocation **before** the
//! message leaves, plus every cumulative ack and every event staged for a
//! future batch. Recovery folds the log back into the retransmit buffer,
//! sequence counter and pending batch the crashed incarnation held, so
//! the restarted site resumes retransmission with no holes in the
//! sequence space that ever carried an occurrence.
//!
//! The log shares the coordinator WAL's frame format, its recovery scan
//! ([`WalWriter::open`]) and its compaction rule
//! ([`WalWriter::compaction_due`]); only the record type differs. Each
//! site logs into its own subdirectory (`<wal_dir>/site-<i>`), so
//! coordinator and site logs never interleave. A site compacts its log to
//! [`compaction_records`] of its live state after an ack or at a tick
//! edge, so the log stays bounded however long the site runs.
//!
//! A frame is synced before the site acts on it only if losing it could
//! re-sequence an occurrence ([`SiteWalRecord::must_sync`]): sends that
//! carry occurrences, epochs and Hellos. Everything else is appended
//! unsynced and reaches the disk with the next synced frame or the
//! writer's periodic sync. Each sync makes its whole prefix durable and
//! the scanner stops at the first bad frame, so a power loss drops only a
//! suffix of those unsynced frames.
//!
//! * Staged occurrences are group-committed: the occurrence-carrying
//!   batch that ships them syncs them with itself, before it leaves. A
//!   process crash loses none of them (each frame is written to the file
//!   as it is staged, and the restarted site re-reads it), but a power
//!   loss loses the occurrences staged since the last carrying send: at
//!   most one batch interval, the window a non-durable site loses on any
//!   crash.
//! * Losing an ack makes the recovered retransmit window a superset, and
//!   the coordinator drops the re-sent copies as duplicates.
//! * Losing an empty batch lets the restarted site reuse its sequence
//!   slot: the coordinator's epoch transition lowers its frontier to the
//!   Hello's sequence number, and consuming a watermark promise twice is
//!   harmless because the tracker keeps the maximum.

use super::codec::{CodecError, Decode, Encode, Reader};
use super::wal::WalWriter;
use crate::protocol::Msg;
use decs_core::CompositeTimestamp;
use decs_snoop::Occurrence;
use std::collections::BTreeMap;
use std::io;

/// One durable site-side input.
#[derive(Debug, Clone, PartialEq)]
pub enum SiteWalRecord {
    /// The site (re)started into incarnation `epoch`. Written once at the
    /// head of every incarnation's suffix; recovery takes the maximum.
    Epoch {
        /// The incarnation epoch.
        epoch: u64,
    },
    /// A sequence number was allocated to `msg` and the message is about
    /// to be sent. Logged *before* the send, so the recovered retransmit
    /// buffer is a superset of what the coordinator might have seen.
    Sent {
        /// The message, verbatim (its own `seq` field is the allocation).
        msg: Msg,
    },
    /// A cumulative acknowledgement for everything below `cum_seq` was
    /// accepted; the retransmit buffer was trimmed.
    Acked {
        /// The next sequence number the coordinator expects.
        cum_seq: u64,
    },
    /// An occurrence was staged into the pending batch. A later
    /// `Sent { msg: Msg::Batch { .. } }` consumes the whole staged set.
    Staged {
        /// The stamped occurrence awaiting the next flush.
        occ: Occurrence<CompositeTimestamp>,
    },
}

impl SiteWalRecord {
    /// Whether the frame must be durable before the site acts on it: true
    /// when losing it could re-sequence an occurrence. A lost
    /// occurrence-carrying send would be re-staged and re-sent under a
    /// reused sequence number, and its sync also makes every staged
    /// occurrence before it durable. Epochs and Hellos are rare and stay
    /// synced. Staged occurrences wait for that next carrying send; acks
    /// and empty batches are safe to lose (see the module docs).
    pub fn must_sync(&self) -> bool {
        match self {
            SiteWalRecord::Acked { .. } | SiteWalRecord::Staged { .. } => false,
            SiteWalRecord::Sent { msg } => match msg {
                Msg::Batch { events, .. } => !events.is_empty(),
                _ => true,
            },
            SiteWalRecord::Epoch { .. } => true,
        }
    }

    /// Append the frame to a site log, syncing it when
    /// [`SiteWalRecord::must_sync`] says so. A site writes every record
    /// of its live log through here; compaction images go through
    /// [`WalWriter::compact`], which syncs the whole image.
    pub fn log_to(&self, w: &mut WalWriter) -> io::Result<()> {
        w.append(self)?;
        if self.must_sync() {
            w.sync()?;
        }
        Ok(())
    }
}

impl Encode for SiteWalRecord {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            SiteWalRecord::Epoch { epoch } => {
                out.push(0);
                epoch.encode(out);
            }
            SiteWalRecord::Sent { msg } => {
                out.push(1);
                msg.encode(out);
            }
            SiteWalRecord::Acked { cum_seq } => {
                out.push(2);
                cum_seq.encode(out);
            }
            SiteWalRecord::Staged { occ } => {
                out.push(3);
                occ.encode(out);
            }
        }
    }
}

impl Decode for SiteWalRecord {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match u8::decode(r)? {
            0 => Ok(SiteWalRecord::Epoch {
                epoch: u64::decode(r)?,
            }),
            1 => Ok(SiteWalRecord::Sent {
                msg: Msg::decode(r)?,
            }),
            2 => Ok(SiteWalRecord::Acked {
                cum_seq: u64::decode(r)?,
            }),
            3 => Ok(SiteWalRecord::Staged {
                occ: Occurrence::decode(r)?,
            }),
            _ => Err(CodecError::Invalid("SiteWalRecord tag")),
        }
    }
}

/// The outbound state a site log folds back into.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct SiteWalState {
    /// Highest incarnation epoch recorded (the crashed incarnation's).
    pub epoch: u64,
    /// Next sequence number to allocate: one past every allocation and at
    /// least every ack.
    pub next_seq: u64,
    /// Sent-but-unacked messages by sequence number — the retransmit
    /// buffer the crashed incarnation still owed the coordinator.
    pub retx: BTreeMap<u64, Msg>,
    /// Occurrences staged for a batch that never flushed.
    pub staged: Vec<Occurrence<CompositeTimestamp>>,
}

/// Fold a record sequence (what [`WalWriter::open`] read back) into
/// recovered outbound state. Pure, so tests can drive it with hand-built
/// logs.
pub fn fold_records(records: &[SiteWalRecord]) -> SiteWalState {
    let mut st = SiteWalState::default();
    for rec in records {
        match rec {
            SiteWalRecord::Epoch { epoch } => st.epoch = st.epoch.max(*epoch),
            SiteWalRecord::Sent { msg } => {
                let seq = match msg {
                    Msg::Batch { seq, .. } | Msg::Hello { seq, .. } => *seq,
                    // Only sequence-numbered messages are ever logged.
                    _ => continue,
                };
                st.next_seq = st.next_seq.max(seq + 1);
                if matches!(msg, Msg::Batch { .. }) {
                    // The flush consumed everything staged so far.
                    st.staged.clear();
                }
                st.retx.insert(seq, msg.clone());
            }
            SiteWalRecord::Acked { cum_seq } => {
                // An ack also proves allocations below it happened, even
                // if their Sent frames sat in a torn tail.
                st.next_seq = st.next_seq.max(*cum_seq);
                st.retx = st.retx.split_off(cum_seq);
            }
            SiteWalRecord::Staged { occ } => st.staged.push(occ.clone()),
        }
    }
    st
}

/// The compaction image of outbound state: one `Epoch`, one `Acked`
/// baseline, one `Sent` per retransmit entry, one `Staged` per pending
/// occurrence. It folds back to the state it was built from.
pub fn compaction_records(st: &SiteWalState) -> Vec<SiteWalRecord> {
    let mut out = Vec::with_capacity(2 + st.retx.len() + st.staged.len());
    out.push(SiteWalRecord::Epoch { epoch: st.epoch });
    let acked = st.retx.keys().next().copied().unwrap_or(st.next_seq);
    out.push(SiteWalRecord::Acked { cum_seq: acked });
    for msg in st.retx.values() {
        out.push(SiteWalRecord::Sent { msg: msg.clone() });
    }
    for occ in &st.staged {
        out.push(SiteWalRecord::Staged { occ: occ.clone() });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::durability::wal::{frame_record, scan_bytes_as, WalTail, WAL_TMP_FILE};
    use decs_core::cts;
    use decs_snoop::EventId;

    fn ev(seq: u64, epoch: u64, g: u64) -> Msg {
        Msg::Batch {
            seq,
            epoch,
            watermark: g + 1,
            events: std::sync::Arc::new(vec![Occurrence::bare(EventId(1), cts(&[(0, g, g * 10)]))]),
        }
    }

    #[test]
    fn record_roundtrip() {
        let recs = vec![
            SiteWalRecord::Epoch { epoch: 3 },
            SiteWalRecord::Sent { msg: ev(5, 3, 9) },
            SiteWalRecord::Acked { cum_seq: 6 },
            SiteWalRecord::Staged {
                occ: Occurrence::bare(EventId(2), cts(&[(1, 4, 40)])),
            },
        ];
        let mut image = Vec::new();
        for r in &recs {
            image.extend_from_slice(&frame_record(r));
        }
        let scan = scan_bytes_as::<SiteWalRecord>(&image);
        assert_eq!(scan.records, recs);
        assert_eq!(scan.tail, WalTail::Clean);
    }

    #[test]
    fn fold_rebuilds_unacked_window() {
        let st = fold_records(&[
            SiteWalRecord::Epoch { epoch: 0 },
            SiteWalRecord::Sent { msg: ev(0, 0, 1) },
            SiteWalRecord::Sent { msg: ev(1, 0, 2) },
            SiteWalRecord::Sent { msg: ev(2, 0, 3) },
            SiteWalRecord::Acked { cum_seq: 2 },
            SiteWalRecord::Sent { msg: ev(3, 0, 4) },
        ]);
        assert_eq!(st.next_seq, 4);
        assert_eq!(st.retx.keys().copied().collect::<Vec<_>>(), vec![2, 3]);
        assert!(st.staged.is_empty());
    }

    #[test]
    fn ack_beyond_sent_frames_advances_next_seq() {
        // Sent frames 0..3 were lost to a torn tail, but the ack proves
        // they existed and were delivered: recovery must not re-allocate.
        let st = fold_records(&[SiteWalRecord::Acked { cum_seq: 3 }]);
        assert_eq!(st.next_seq, 3);
        assert!(st.retx.is_empty());
    }

    #[test]
    fn batch_send_consumes_staged() {
        let occ1 = Occurrence::bare(EventId(1), cts(&[(0, 1, 10)]));
        let occ2 = Occurrence::bare(EventId(1), cts(&[(0, 2, 20)]));
        let st = fold_records(&[
            SiteWalRecord::Staged { occ: occ1.clone() },
            SiteWalRecord::Staged { occ: occ2 },
            SiteWalRecord::Sent {
                msg: Msg::Batch {
                    seq: 0,
                    epoch: 0,
                    watermark: 3,
                    events: std::sync::Arc::new(vec![]),
                },
            },
            SiteWalRecord::Staged { occ: occ1.clone() },
        ]);
        assert_eq!(st.staged, vec![occ1]);
        assert_eq!(st.next_seq, 1);
    }

    #[test]
    fn epoch_takes_maximum() {
        let st = fold_records(&[
            SiteWalRecord::Epoch { epoch: 2 },
            SiteWalRecord::Epoch { epoch: 1 },
        ]);
        assert_eq!(st.epoch, 2);
    }

    #[test]
    fn compaction_roundtrips_through_fold() {
        let st = fold_records(&[
            SiteWalRecord::Epoch { epoch: 1 },
            SiteWalRecord::Sent { msg: ev(0, 1, 1) },
            SiteWalRecord::Sent { msg: ev(1, 1, 2) },
            SiteWalRecord::Acked { cum_seq: 1 },
            SiteWalRecord::Staged {
                occ: Occurrence::bare(EventId(3), cts(&[(2, 7, 70)])),
            },
        ]);
        let st2 = fold_records(&compaction_records(&st));
        assert_eq!(st2, st);
    }

    fn temp_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("decs-site-wal-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Recover the site log in `dir` the way a restarting site does.
    fn recover(dir: &std::path::Path) -> SiteWalState {
        fold_records(&WalWriter::open::<SiteWalRecord>(dir).unwrap().1)
    }

    #[test]
    fn stale_partial_temp_file_is_ignored_by_recovery() {
        let dir = temp_dir("stale-tmp");
        let live = vec![
            SiteWalRecord::Epoch { epoch: 1 },
            SiteWalRecord::Sent { msg: ev(0, 1, 1) },
            SiteWalRecord::Sent { msg: ev(1, 1, 2) },
        ];
        let mut w = WalWriter::create(&dir).unwrap();
        for r in &live {
            r.log_to(&mut w).unwrap();
        }
        // A compaction that crashed mid-write: half an image in the
        // temporary file, the live log untouched.
        let mut partial = Vec::new();
        for r in &[
            SiteWalRecord::Epoch { epoch: 2 },
            SiteWalRecord::Acked { cum_seq: 9 },
        ] {
            partial.extend_from_slice(&frame_record(r));
        }
        partial.truncate(partial.len() - 3);
        std::fs::write(dir.join(WAL_TMP_FILE), &partial).unwrap();
        let (mut w, records) = WalWriter::open::<SiteWalRecord>(&dir).unwrap();
        assert_eq!(records, live);
        let st = fold_records(&live);
        // The next compaction overwrites the stale temporary file.
        w.compact(&compaction_records(&st)).unwrap();
        assert_eq!(recover(&dir), st);
        assert!(!dir.join(WAL_TMP_FILE).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compacted_log_folds_to_the_image_and_what_follows() {
        let dir = temp_dir("compact");
        let mut w = WalWriter::create(&dir).unwrap();
        let history = [
            SiteWalRecord::Epoch { epoch: 0 },
            SiteWalRecord::Sent { msg: ev(0, 0, 1) },
            SiteWalRecord::Sent { msg: ev(1, 0, 2) },
            SiteWalRecord::Acked { cum_seq: 1 },
            SiteWalRecord::Sent { msg: ev(2, 0, 3) },
            SiteWalRecord::Staged {
                occ: Occurrence::bare(EventId(3), cts(&[(2, 7, 70)])),
            },
        ];
        for r in &history {
            r.log_to(&mut w).unwrap();
        }
        let mut st = fold_records(&history);
        st.epoch += 1;
        w.compact(&compaction_records(&st)).unwrap();
        assert_eq!(recover(&dir), st);
        // The writer appends to the compacted log, not the temporary file
        // it was written as.
        SiteWalRecord::Sent { msg: ev(3, 1, 4) }
            .log_to(&mut w)
            .unwrap();
        let after = recover(&dir);
        assert_eq!(after.next_seq, 4);
        assert_eq!(
            after.retx.keys().copied().collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_dir_recovers_fresh_state() {
        let dir = temp_dir("missing");
        assert_eq!(recover(&dir), SiteWalState::default());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
