//! Coordinator durability: one compacting write-ahead log per node, and
//! crash recovery from it.
//!
//! The distributed detector's correctness story (release order is a pure
//! function of the workload) extends to crashes: if the coordinator's
//! nondeterministic inputs are logged before their effects apply, a
//! restarted coordinator that replays the log arrives at bit-identical
//! state — and therefore emits bit-identical detections — to one that
//! never crashed. This module supplies the pieces:
//!
//! * [`codec`] — a total, panic-free binary codec with CRC-32 framing;
//! * [`wal`] — the append-only log of coordinator inputs, with torn-tail
//!   detection and truncation on resume;
//! * [`snapshot`] — the watermark-aligned image of the coordinator's
//!   state that compaction rewrites the log to, so replay cost is bounded
//!   by the records since the last compaction, not the run length;
//! * [`site_wal`] — the site-side log of sequence allocations, acks and
//!   staged batch events, so a crashed **site** recovers its unacked send
//!   window and resumes retransmission (see `Msg::Hello` for the rejoin
//!   handshake it feeds).
//!
//! Both kinds of node keep exactly one file, `wal.log`, and compact it the
//! same way: [`WalWriter::replace`] writes the image to `wal.log.tmp`,
//! syncs it, renames it over the log and syncs the directory. A crash at
//! any point leaves either the old log or the new one; a leftover
//! `wal.log.tmp` is never read.
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
pub use site_wal::{
    compaction_records, fold_records, recover_site_state, SiteWalRecord, SiteWalState,
};
pub use snapshot::{ArmedTimer, BufferedNotification, CoordinatorSnapshot, PendingDetection};
pub use wal::{
    frame_record, read_wal, read_wal_as, scan_bytes, scan_bytes_as, WalRecord, WalScan, WalSink,
    WalTail, WalWriter, WAL_FILE, WAL_TMP_FILE,
};
