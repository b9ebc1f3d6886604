//! Snapshots of the coordinator's full recoverable state.
//!
//! A snapshot is taken at the end of a release round — a quiescent point:
//! the detector has no half-processed batch, the stability buffer holds
//! exactly the not-yet-stable notifications, and the garbage collector has
//! just run. It is not a file of its own: the coordinator compacts its
//! write-ahead log to one `WalRecord::Snapshot` holding the image (see
//! `WalWriter::compact`), and later inputs append after it, so recovery =
//! `restore(image)` + `replay(the records after it)`. The log is the one
//! durable artifact.
//!
//! Parked (out-of-order) messages are deliberately **excluded**: the
//! cumulative-ack protocol only acknowledges the in-order prefix, so a
//! parked message is by construction unacked at its site and will be
//! retransmitted to the recovered coordinator. This keeps the invariant
//! *acked ⇒ appended to the WAL; unacked ⇒ retransmitted*. Appended is
//! not synced: the coordinator acks a message up to 63 appends before it
//! syncs it, so a power loss (unlike a process crash) can lose a message
//! from both the log and its site's retransmit window.

use super::codec::{CodecError, Decode, Encode, Reader};
use crate::metrics::Metrics;
use decs_core::CompositeTimestamp;
use decs_snoop::{Occurrence, PlanState};

/// One entry of the coordinator's stability (reassembly → release) buffer.
#[derive(Debug, Clone, PartialEq)]
pub struct BufferedNotification {
    /// `max_global` component of the canonical release key.
    pub max_global: u64,
    /// Site component of the canonical release key.
    pub site: u32,
    /// Arrival index component of the canonical release key.
    pub arrival: u64,
    /// The buffered occurrence.
    pub occ: Occurrence<CompositeTimestamp>,
    /// True time the notification arrived, for stability-latency metrics.
    pub arrived_ns: u64,
}

impl Encode for BufferedNotification {
    fn encode(&self, out: &mut Vec<u8>) {
        self.max_global.encode(out);
        self.site.encode(out);
        self.arrival.encode(out);
        self.occ.encode(out);
        self.arrived_ns.encode(out);
    }
}
impl Decode for BufferedNotification {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(BufferedNotification {
            max_global: u64::decode(r)?,
            site: u32::decode(r)?,
            arrival: u64::decode(r)?,
            occ: Occurrence::decode(r)?,
            arrived_ns: u64::decode(r)?,
        })
    }
}

/// A detector timer the coordinator had armed (and not yet seen fire) at
/// snapshot time. Recovery re-arms each one at `max(due_ns, now)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArmedTimer {
    /// Simulation timer tag.
    pub tag: u64,
    /// Owning detector shard (`ShardId` is `usize`; stored as `u64`).
    pub shard: u64,
    /// Detector-side timer id within the shard.
    pub timer: u64,
    /// Absolute true time the timer is due, nanoseconds.
    pub due_ns: u64,
}

impl Encode for ArmedTimer {
    fn encode(&self, out: &mut Vec<u8>) {
        self.tag.encode(out);
        self.shard.encode(out);
        self.timer.encode(out);
        self.due_ns.encode(out);
    }
}
impl Decode for ArmedTimer {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(ArmedTimer {
            tag: u64::decode(r)?,
            shard: u64::decode(r)?,
            timer: u64::decode(r)?,
            due_ns: u64::decode(r)?,
        })
    }
}

/// A detection the coordinator had produced but the engine had not yet
/// drained at snapshot time.
#[derive(Debug, Clone, PartialEq)]
pub struct PendingDetection {
    /// The composite occurrence.
    pub occ: Occurrence<CompositeTimestamp>,
    /// True time of detection, nanoseconds.
    pub detected_at_ns: u64,
}

impl Encode for PendingDetection {
    fn encode(&self, out: &mut Vec<u8>) {
        self.occ.encode(out);
        self.detected_at_ns.encode(out);
    }
}
impl Decode for PendingDetection {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(PendingDetection {
            occ: Occurrence::decode(r)?,
            detected_at_ns: u64::decode(r)?,
        })
    }
}

/// Everything needed to rebuild a coordinator, minus what the records
/// after it and the sites' retransmissions re-supply.
#[derive(Debug, Clone, PartialEq)]
pub struct CoordinatorSnapshot {
    /// Operator buffer state of the coordinator's plan.
    pub detector: PlanState<CompositeTimestamp>,
    /// Per-site stream reassembly state: `(next_seq, arrivals, evicted,
    /// epoch)`. Parked messages are intentionally absent (see module
    /// docs).
    pub streams: Vec<(u64, u64, bool, u64)>,
    /// Per-site watermarks of the stability tracker.
    pub watermarks: Vec<u64>,
    /// The stability buffer, in canonical release order.
    pub buffer: Vec<BufferedNotification>,
    /// Armed, un-fired detector timers.
    pub timers: Vec<ArmedTimer>,
    /// Next simulation timer tag to mint.
    pub next_tag: u64,
    /// Detections produced but not yet drained by the engine.
    pub detections: Vec<PendingDetection>,
    /// Total detections ever drained (so replayed `Drained` records and
    /// post-recovery drains stay aligned).
    pub drained: u64,
    /// Metrics just before the snapshot was written (recovery restores
    /// them, counts the snapshot itself, then adds replay effects, keeping
    /// counters consistent with a crash-free run up to redelivery noise).
    pub metrics: Metrics,
    /// Low-watermark of the last operator-buffer GC round.
    pub last_gc_low: u64,
    /// Per-site stall detector state: `(last_advance, suspect)` — the
    /// progress-clock reading (ns) when the site's watermark last rose,
    /// and whether it is suspect.
    pub stall: Vec<(u64, bool)>,
    /// The stall detector's clock: `(progress_ns, last_rise_ns)` — the
    /// progress clock and the true time of the last watermark rise.
    pub stall_clock: (u64, u64),
    /// High-water mark of the canonical release order (largest released
    /// max-global, advanced by GC too) — the stale-refusal horizon.
    pub release_horizon: u64,
}

impl Encode for CoordinatorSnapshot {
    fn encode(&self, out: &mut Vec<u8>) {
        self.detector.encode(out);
        self.streams.encode(out);
        self.watermarks.encode(out);
        self.buffer.encode(out);
        self.timers.encode(out);
        self.next_tag.encode(out);
        self.detections.encode(out);
        self.drained.encode(out);
        self.metrics.encode(out);
        self.last_gc_low.encode(out);
        self.stall.encode(out);
        self.stall_clock.encode(out);
        self.release_horizon.encode(out);
    }
}
impl Decode for CoordinatorSnapshot {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(CoordinatorSnapshot {
            detector: PlanState::decode(r)?,
            streams: Vec::decode(r)?,
            watermarks: Vec::decode(r)?,
            buffer: Vec::decode(r)?,
            timers: Vec::decode(r)?,
            next_tag: u64::decode(r)?,
            detections: Vec::decode(r)?,
            drained: u64::decode(r)?,
            metrics: Metrics::decode(r)?,
            last_gc_low: u64::decode(r)?,
            stall: Vec::decode(r)?,
            stall_clock: <(u64, u64)>::decode(r)?,
            release_horizon: u64::decode(r)?,
        })
    }
}
