//! Watermark-aligned snapshots of the coordinator's full recoverable
//! state.
//!
//! A snapshot is taken at the end of a release round — a quiescent point:
//! the detector has no half-processed batch, the stability buffer holds
//! exactly the not-yet-stable notifications, and the garbage collector has
//! just run. The snapshot records how many WAL records preceded it, so
//! recovery = `restore(snapshot)` + `replay(wal[snapshot.wal_records..])`.
//!
//! Parked (out-of-order) messages are deliberately **excluded**: the
//! cumulative-ack protocol only acknowledges the in-order prefix, so a
//! parked message is by construction unacked at its site and will be
//! retransmitted to the recovered coordinator. This keeps the invariant
//! *acked ⇒ in the WAL; unacked ⇒ retransmitted* — nothing is ever owed
//! to both or neither.
//!
//! Snapshot files are written atomically (temp file + rename) as
//! `snap-{wal_records:020}.bin` with a whole-payload CRC-32 header; the
//! store keeps the two newest and prunes the rest. Recovery picks the
//! newest *valid* snapshot whose `wal_records` does not exceed the valid
//! WAL prefix — a torn log can be shorter than the newest snapshot
//! believed, in which case the previous snapshot (or genesis) is used.

use super::codec::{crc32, from_bytes, to_bytes, CodecError, Decode, Encode, Reader};
use crate::metrics::Metrics;
use decs_core::CompositeTimestamp;
use decs_snoop::{Occurrence, PlanState};
use std::io;
use std::path::{Path, PathBuf};

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

/// Everything needed to rebuild a coordinator, minus what the WAL suffix
/// and the sites' retransmissions re-supply.
#[derive(Debug, Clone, PartialEq)]
pub struct CoordinatorSnapshot {
    /// Number of WAL records already applied when this snapshot was taken.
    /// Recovery replays the log from this offset.
    pub wal_records: u64,
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
    /// Metrics as of the snapshot (recovery restores them and then adds
    /// replay effects, keeping counters consistent with a crash-free run
    /// up to redelivery noise).
    pub metrics: Metrics,
    /// Low-watermark of the last operator-buffer GC round.
    pub last_gc_low: u64,
    /// Per-site stall detector state: `(last_wm, stalled_checks, suspect)`.
    pub stall: Vec<(u64, u64, bool)>,
    /// High-water mark of the canonical release order (largest released
    /// max-global, advanced by GC too) — the stale-refusal horizon.
    pub release_horizon: u64,
}

impl Encode for CoordinatorSnapshot {
    fn encode(&self, out: &mut Vec<u8>) {
        self.wal_records.encode(out);
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
        self.release_horizon.encode(out);
    }
}
impl Decode for CoordinatorSnapshot {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(CoordinatorSnapshot {
            wal_records: u64::decode(r)?,
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
            release_horizon: u64::decode(r)?,
        })
    }
}

/// How many snapshot files to retain (newest first).
const KEEP: usize = 2;

/// Directory-backed snapshot store.
#[derive(Debug)]
pub struct SnapshotStore {
    dir: PathBuf,
}

impl SnapshotStore {
    /// Open (creating if necessary) the store in `dir`.
    pub fn open(dir: &Path) -> io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        Ok(SnapshotStore {
            dir: dir.to_path_buf(),
        })
    }

    /// Delete every snapshot file — the fresh-start (`create`) path.
    pub fn reset(&self) -> io::Result<()> {
        for (_, path) in self.list()? {
            std::fs::remove_file(path)?;
        }
        Ok(())
    }

    fn list(&self) -> io::Result<Vec<(u64, PathBuf)>> {
        let mut out = Vec::new();
        for entry in std::fs::read_dir(&self.dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if let Some(rest) = name.strip_prefix("snap-") {
                if let Some(num) = rest.strip_suffix(".bin") {
                    if let Ok(n) = num.parse::<u64>() {
                        out.push((n, entry.path()));
                    }
                }
            }
        }
        out.sort();
        Ok(out)
    }

    /// Persist `snap` atomically and prune all but the `KEEP` newest.
    pub fn save(&self, snap: &CoordinatorSnapshot) -> io::Result<()> {
        let payload = to_bytes(snap);
        let mut bytes = Vec::with_capacity(payload.len() + 4);
        bytes.extend_from_slice(&crc32(&payload).to_le_bytes());
        bytes.extend_from_slice(&payload);
        let final_path = self.dir.join(format!("snap-{:020}.bin", snap.wal_records));
        let tmp_path = self.dir.join("snap.tmp");
        std::fs::write(&tmp_path, &bytes)?;
        std::fs::rename(&tmp_path, &final_path)?;
        let listed = self.list()?;
        if listed.len() > KEEP {
            for (_, path) in &listed[..listed.len() - KEEP] {
                std::fs::remove_file(path)?;
            }
        }
        Ok(())
    }

    /// Load the newest valid snapshot whose `wal_records` is ≤
    /// `max_wal_records` (the valid WAL prefix length). Corrupt or
    /// too-new snapshot files are skipped, not fatal: the WAL alone can
    /// always rebuild the coordinator from genesis.
    pub fn load_best(&self, max_wal_records: u64) -> io::Result<Option<CoordinatorSnapshot>> {
        for (n, path) in self.list()?.into_iter().rev() {
            if n > max_wal_records {
                continue;
            }
            let bytes = std::fs::read(&path)?;
            if bytes.len() < 4 {
                continue;
            }
            let crc = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
            let payload = &bytes[4..];
            if crc32(payload) != crc {
                continue;
            }
            match from_bytes::<CoordinatorSnapshot>(payload) {
                Ok(snap) if snap.wal_records == n => return Ok(Some(snap)),
                _ => continue,
            }
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(wal_records: u64) -> CoordinatorSnapshot {
        CoordinatorSnapshot {
            wal_records,
            detector: PlanState {
                nodes: Vec::new(),
                execs: Vec::new(),
                defs: Vec::new(),
            },
            streams: vec![(3, 5, false, 0), (0, 0, true, 2)],
            watermarks: vec![4, u64::MAX],
            buffer: Vec::new(),
            timers: vec![ArmedTimer {
                tag: 1,
                shard: 0,
                timer: 2,
                due_ns: 9_000,
            }],
            next_tag: 2,
            detections: Vec::new(),
            drained: 7,
            metrics: Metrics::default(),
            last_gc_low: 1,
            stall: vec![(4, 0, false), (0, 3, true)],
            release_horizon: 2,
        }
    }

    #[test]
    fn store_roundtrip_prune_and_fallback() {
        let dir = std::env::temp_dir().join(format!("decs-snap-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = SnapshotStore::open(&dir).unwrap();
        store.save(&sample(10)).unwrap();
        store.save(&sample(20)).unwrap();
        store.save(&sample(30)).unwrap();
        // Pruned to the two newest.
        assert_eq!(store.list().unwrap().len(), 2);
        // Newest within budget wins.
        assert_eq!(store.load_best(u64::MAX).unwrap().unwrap().wal_records, 30);
        // A WAL torn back below the newest snapshot falls back to the
        // previous one...
        assert_eq!(store.load_best(25).unwrap().unwrap().wal_records, 20);
        // ...and below every snapshot means genesis replay.
        assert!(store.load_best(5).unwrap().is_none());
        // A corrupted newest snapshot is skipped, not fatal.
        let newest = store.list().unwrap().last().unwrap().1.clone();
        let mut bytes = std::fs::read(&newest).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&newest, &bytes).unwrap();
        assert_eq!(store.load_best(u64::MAX).unwrap().unwrap().wal_records, 20);
        store.reset().unwrap();
        assert!(store.load_best(u64::MAX).unwrap().is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
