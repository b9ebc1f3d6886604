//! Coordinator durability: write-ahead log, operator-state snapshots, and
//! crash recovery.
//!
//! The distributed detector's correctness story (release order is a pure
//! function of the workload) extends to crashes: if the coordinator's
//! nondeterministic inputs are logged before their effects apply, a
//! restarted coordinator that replays the log arrives at bit-identical
//! state — and therefore emits bit-identical detections — to one that
//! never crashed. This module supplies the three pieces:
//!
//! * [`codec`] — a total, panic-free binary codec with CRC-32 framing;
//! * [`wal`] — the append-only log of coordinator inputs, with torn-tail
//!   detection and truncation on resume;
//! * [`snapshot`] — periodic watermark-aligned checkpoints so replay cost
//!   is bounded by the WAL suffix, not the run length;
//! * [`site_wal`] — the site-side log of sequence allocations, acks and
//!   staged batch events, so a crashed **site** recovers its unacked send
//!   window and resumes retransmission (see `Msg::Hello` for the rejoin
//!   handshake it feeds).
//!
//! Inputs the coordinator receives but has not yet *consumed in order*
//! (parked out-of-order messages) are outside the durability boundary on
//! purpose: the ack/retransmit protocol already guarantees their
//! redelivery, because the coordinator only acknowledges the in-order
//! prefix it has appended to its log. Appended is not synced: the log is
//! synced every 64 appends and before each snapshot, so a power loss at
//! the coordinator (unlike a process crash, which leaves the page cache
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
pub use snapshot::{
    ArmedTimer, BufferedNotification, CoordinatorSnapshot, PendingDetection, SnapshotStore,
};
pub use wal::{
    frame_record, read_wal, read_wal_as, scan_bytes, scan_bytes_as, WalRecord, WalScan, WalSink,
    WalTail, WalWriter, WAL_FILE,
};
