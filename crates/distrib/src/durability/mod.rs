//! Durability: one compacting write-ahead log per node, and crash
//! recovery from it.
//!
//! The distributed detector's correctness story (release order is a pure
//! function of the workload) extends to crashes: if the coordinator's
//! nondeterministic inputs are logged before their effects apply, a
//! restarted coordinator that replays the log arrives at bit-identical
//! state — and therefore emits bit-identical detections — to one that
//! never crashed. This module supplies the pieces:
//!
//! * [`codec`] — a total, panic-free binary codec with CRC-32 framing;
//! * [`wal`] — the append-only log, its compaction rule and its recovery
//!   scan, shared by both kinds of node;
//! * [`snapshot`] — the image of the coordinator's state that compaction
//!   rewrites its log to, so replay cost is bounded by the records since
//!   the last compaction, not the run length;
//! * [`site_wal`] — the site-side log of sequence allocations, acks and
//!   staged batch events, so a crashed **site** recovers its unacked send
//!   window and resumes retransmission (see `Msg::Hello` for the rejoin
//!   handshake it feeds).
//!
//! Both kinds of node keep exactly one file, `wal.log`, and treat it the
//! same way ([`WalWriter`]). At a quiescent point (the coordinator's end
//! of a release round, a site's ack or tick edge) a node rewrites its log
//! to an image of its state once the bytes appended since the last image
//! reach max(64 KiB, 2 × that image's size)
//! ([`WalWriter::compaction_due`]): a constant rule, not a setting, that
//! bounds every log and the write amplification of rewriting it. The
//! rewrite ([`WalWriter::compact`]) goes through `wal.log.tmp` and a
//! rename, so a crash leaves the old log or the new one, and only does
//! I/O: no detection or virtual time depends on when it happens. Recovery
//! ([`WalWriter::open`]) truncates a torn or corrupt tail and refuses a
//! frame this build cannot decode, leaving every byte in place: the
//! coordinator then refuses to recover, and a site restarts un-logged.
//!
//! Inputs the coordinator receives but has not yet *consumed in order*
//! (parked out-of-order messages) are outside the durability boundary on
//! purpose: the ack/retransmit protocol already guarantees their
//! redelivery, because the coordinator only acknowledges the in-order
//! prefix it has appended to its log. Appended is not synced: the log is
//! synced every 64 appends and at each compaction, so a power loss at the
//! coordinator (unlike a process crash, which leaves the page cache
//! intact) can lose messages it has already acked. See
//! `tests/prop_recovery.rs` for the kill-anywhere replay-equivalence
//! suite built on these pieces.

pub mod codec;
pub mod site_wal;
pub mod snapshot;
pub mod wal;

pub use codec::{crc32, from_bytes, to_bytes, CodecError, Decode, Encode, Reader};
pub use site_wal::{compaction_records, fold_records, SiteWalRecord, SiteWalState};
pub use snapshot::{ArmedTimer, BufferedNotification, CoordinatorSnapshot, PendingDetection};
pub use wal::{
    frame_record, read_wal_as, scan_bytes_as, WalRecord, WalScan, WalSink, WalTail, WalWriter,
    COMPACT_MIN_BYTES, WAL_FILE, WAL_TMP_FILE,
};
