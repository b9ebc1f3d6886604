//! Durability: WAL appends, snapshotting, and crash recovery. See
//! [`crate::durability`] for the formats and the recovery invariants.

use super::{CoordinatorNode, RawDetection, ReplayCtx};
use crate::durability::{
    read_wal, ArmedTimer, BufferedNotification, CoordinatorSnapshot, PendingDetection,
    SnapshotStore, WalRecord, WalWriter,
};
use decs_chronos::{GlobalTicks, LocalTicks, Nanos, SiteId};
use decs_core::{CompositeTimestamp, PrimitiveTimestamp};
use decs_snoop::{ShardId, TimerId};
use std::io;
use std::path::Path;

impl CoordinatorNode {
    /// Append one record to the WAL (no-op during replay or with
    /// durability off) and refresh the WAL metrics. Durability I/O errors
    /// are **fail-stop**: a coordinator that silently stopped logging
    /// would recover into a state that *looks* valid and detects wrongly,
    /// so on the first error the node records the failure and thereafter
    /// drops every input unprocessed (see `wal_failed`).
    pub(super) fn wal_append(&mut self, rec: WalRecord) {
        if self.replaying {
            return;
        }
        if let Some(w) = self.wal.as_mut() {
            match w.append(&rec) {
                Ok(()) => {
                    self.metrics.wal_appends = w.appends();
                    self.metrics.wal_bytes = w.bytes();
                }
                Err(e) => self.wal_fail(e),
            }
        }
    }

    /// Enter the fail-stop state on a durability I/O error.
    pub(super) fn wal_fail(&mut self, e: io::Error) {
        self.metrics.wal_errors += 1;
        if self.wal_failed.is_none() {
            self.wal_failed = Some(e.to_string());
        }
        self.wal = None;
        self.snapshots = None;
    }

    /// Record that the engine drained `count` finished detections, so a
    /// recovered coordinator does not re-report them.
    pub(crate) fn note_drained(&mut self, count: u64) {
        if count == 0 {
            return;
        }
        self.drained += count;
        if self.wal.is_some() && !self.replaying {
            self.wal_append(WalRecord::Drained { count });
        }
    }

    /// Enable durability with a **fresh** log: any previous WAL and
    /// snapshots in `dir` are discarded. `snapshot_interval` is in global
    /// ticks of minimum-watermark advance between snapshots.
    pub fn set_durability(&mut self, dir: &Path, snapshot_interval: u64) -> io::Result<()> {
        let store = SnapshotStore::open(dir)?;
        store.reset()?;
        let wal = WalWriter::create(dir)?;
        self.metrics.wal_appends = 0;
        self.metrics.wal_bytes = 0;
        self.wal = Some(wal);
        self.snapshots = Some(store);
        self.snapshot_interval = snapshot_interval;
        self.last_snapshot_wm = 0;
        Ok(())
    }

    /// Take a snapshot if the minimum watermark advanced enough since the
    /// last one. Called at the end of every release round (a quiescent
    /// point for the detector).
    pub(super) fn maybe_snapshot(&mut self) {
        if self.replaying || self.snapshots.is_none() || self.wal.is_none() {
            return;
        }
        if self.part.is_some() {
            // Replica durability is WAL-only: the snapshot format does not
            // cover the partition state (pbuffer, promises, relay windows),
            // so recovery always replays the full log. The relay windows
            // are rebuilt by that replay; the post-recovery retransmission
            // round resends them and peers dedup.
            return;
        }
        let wm = self.tracker.min_watermark();
        // `u64::MAX` means every site is evicted — the watermark is the
        // empty-min sentinel, not progress.
        if wm == u64::MAX || wm <= self.last_snapshot_wm {
            return;
        }
        if wm - self.last_snapshot_wm < self.snapshot_interval {
            return;
        }
        self.last_snapshot_wm = wm;
        self.take_snapshot();
    }

    pub(super) fn take_snapshot(&mut self) {
        let wal = self.wal.as_mut().expect("durability on");
        // The snapshot claims "wal_records inputs are already applied
        // here", so those records must be on disk before the claim is.
        if let Err(e) = wal.sync() {
            self.wal_fail(e);
            return;
        }
        let wal_records = wal.appends();
        let mut timers: Vec<ArmedTimer> = self
            .timer_map
            .iter()
            .map(|(&tag, &(shard, timer_id))| ArmedTimer {
                tag,
                shard: shard as u64,
                timer: timer_id.0,
                due_ns: self.timer_due.get(&tag).copied().unwrap_or(0),
            })
            .collect();
        timers.sort_by_key(|t| t.tag);
        let snap = CoordinatorSnapshot {
            wal_records,
            detector: self.detector.save_state(),
            streams: self
                .streams
                .iter()
                .map(|s| (s.next, s.arrivals, s.evicted, s.epoch))
                .collect(),
            watermarks: (0..self.streams.len())
                .map(|i| self.tracker.site_watermark(i))
                .collect(),
            buffer: self
                .buffer
                .ordered()
                .into_iter()
                .map(
                    |((max_global, site, arrival), occ, arrived)| BufferedNotification {
                        max_global,
                        site,
                        arrival,
                        occ: occ.clone(),
                        arrived_ns: arrived.get(),
                    },
                )
                .collect(),
            timers,
            next_tag: self.next_tag,
            detections: self
                .detections
                .iter()
                .map(|d| PendingDetection {
                    occ: d.occ.clone(),
                    detected_at_ns: d.detected_at.get(),
                })
                .collect(),
            drained: self.drained,
            metrics: self.metrics.clone(),
            last_gc_low: self.last_gc_low,
            stall: self
                .streams
                .iter()
                .map(|s| (s.last_advance, s.suspect))
                .collect(),
            stall_clock: (self.progress_ns, self.last_rise_at),
            release_horizon: self.release_horizon,
        };
        if let Err(e) = self.snapshots.as_ref().expect("durability on").save(&snap) {
            self.wal_fail(e);
            return;
        }
        self.metrics.snapshots_taken += 1;
    }

    pub(super) fn restore_snapshot(&mut self, snap: CoordinatorSnapshot) -> io::Result<()> {
        let sites = self.streams.len();
        if snap.streams.len() != sites
            || snap.watermarks.len() != sites
            || snap.stall.len() != sites
        {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "snapshot site count mismatch",
            ));
        }
        if snap
            .buffer
            .iter()
            .any(|b| b.site as usize >= self.buffer.site_count())
        {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "snapshot buffers a notification from an unknown site",
            ));
        }
        self.detector.restore_state(snap.detector).map_err(|e| {
            io::Error::new(io::ErrorKind::InvalidData, format!("detector restore: {e}"))
        })?;
        for ((stream, &(next, arrivals, evicted, epoch)), &(last_advance, suspect)) in
            self.streams.iter_mut().zip(&snap.streams).zip(&snap.stall)
        {
            stream.next = next;
            stream.arrivals = arrivals;
            stream.evicted = evicted;
            stream.epoch = epoch;
            stream.last_advance = last_advance;
            stream.suspect = suspect;
            stream.rejoined_at = None;
            // Parked messages are outside the durability boundary: they
            // were never acked, so their sites retransmit them.
            stream.parked.clear();
        }
        self.parked_total = 0;
        for (i, &wm) in snap.watermarks.iter().enumerate() {
            self.tracker.update(i, wm);
        }
        self.buffer.clear();
        for b in snap.buffer {
            self.buffer.insert(
                (b.max_global, b.site, b.arrival),
                b.occ,
                Nanos(b.arrived_ns),
            );
        }
        self.timer_map.clear();
        self.timer_due.clear();
        for t in &snap.timers {
            self.timer_map
                .insert(t.tag, (t.shard as ShardId, TimerId(t.timer)));
            self.timer_due.insert(t.tag, t.due_ns);
        }
        self.next_tag = snap.next_tag;
        self.detections = snap
            .detections
            .into_iter()
            .map(|d| RawDetection {
                occ: d.occ,
                detected_at: Nanos(d.detected_at_ns),
            })
            .collect();
        self.drained = snap.drained;
        self.metrics = snap.metrics;
        self.last_gc_low = snap.last_gc_low;
        self.release_horizon = snap.release_horizon;
        (self.progress_ns, self.last_rise_at) = snap.stall_clock;
        Ok(())
    }

    /// Replay one WAL record through the normal consumption path.
    pub(super) fn replay_record(&mut self, rec: WalRecord) -> io::Result<()> {
        match rec {
            WalRecord::Delivered { site, at, msg } => {
                let site = site as usize;
                if site >= self.streams.len() {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "WAL names an unknown site",
                    ));
                }
                let Some(seq) = Self::seq_of(&msg) else {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "WAL Delivered carries an unsequenced message",
                    ));
                };
                // The WAL is the in-order consumption stream, so the
                // reassembly frontier follows it directly.
                self.streams[site].next = seq + 1;
                let mut ctx = ReplayCtx { now: Nanos(at) };
                self.handle_in_order(site, msg, &mut ctx);
            }
            WalRecord::TimerFired {
                tag,
                at,
                site,
                global,
                local,
            } => {
                self.timer_due.remove(&tag);
                let Some((shard, timer_id)) = self.timer_map.remove(&tag) else {
                    // A fire for a timer the snapshot no longer tracked —
                    // tolerated, same as the live idempotence rule.
                    return Ok(());
                };
                let ts = CompositeTimestamp::singleton(PrimitiveTimestamp::new(
                    SiteId(site),
                    GlobalTicks(global),
                    LocalTicks(local),
                ));
                let mut ctx = ReplayCtx { now: Nanos(at) };
                self.fire_detector_timer(shard, timer_id, ts, &mut ctx);
            }
            WalRecord::Evicted { site, at } => {
                let mut ctx = ReplayCtx { now: Nanos(at) };
                self.evict(site as usize, &mut ctx);
            }
            WalRecord::Drained { count } => {
                let n = (count as usize).min(self.detections.len());
                self.detections.drain(..n);
                if let Some(part) = &mut self.part {
                    // Partition keys are index-aligned with detections.
                    part.keys.drain(..n.min(part.keys.len()));
                }
                self.drained += count;
            }
            WalRecord::HelloSeen {
                site,
                at,
                epoch,
                base_seq,
                watermark,
            } => {
                let site = site as usize;
                if site >= self.streams.len() {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "WAL names an unknown site",
                    ));
                }
                let mut ctx = ReplayCtx { now: Nanos(at) };
                self.epoch_transition(site, epoch, base_seq, watermark, &mut ctx);
            }
        }
        Ok(())
    }

    /// Rebuild this (freshly constructed) coordinator from the durability
    /// directory: load the newest usable snapshot, replay the WAL suffix
    /// through the normal feed path, truncate any torn tail, and resume
    /// logging. Returns the detector timers that were armed at crash time
    /// as `(tag, due_true_time_ns)` pairs, sorted by due time — the
    /// harness must re-schedule them for the replacement node.
    pub fn recover(&mut self, dir: &Path, snapshot_interval: u64) -> io::Result<Vec<(u64, u64)>> {
        let t0 = std::time::Instant::now();
        let store = SnapshotStore::open(dir)?;
        let scan = read_wal(dir)?;
        let total = scan.records.len() as u64;
        let mut skip = 0u64;
        if let Some(snap) = store.load_best(total)? {
            skip = snap.wal_records;
            self.restore_snapshot(snap)?;
        }
        self.replaying = true;
        for rec in scan.records.into_iter().skip(skip as usize) {
            if let Err(e) = self.replay_record(rec) {
                self.replaying = false;
                return Err(e);
            }
        }
        self.replaying = false;
        // Resume the log where validity ended — a torn or corrupt tail is
        // truncated away so it can never shadow future appends.
        let wal = WalWriter::resume(dir, scan.valid_len, total)?;
        self.metrics.wal_appends = wal.appends();
        self.metrics.wal_bytes = wal.bytes();
        self.metrics.recovery_replayed = total - skip;
        self.metrics.recovery_ns = t0.elapsed().as_nanos() as u64;
        self.wal = Some(wal);
        self.snapshots = Some(store);
        self.snapshot_interval = snapshot_interval;
        let wm = self.tracker.min_watermark();
        if wm != u64::MAX {
            self.last_snapshot_wm = wm;
        }
        let mut due: Vec<(u64, u64)> = self.timer_due.iter().map(|(&tag, &at)| (tag, at)).collect();
        due.sort_by_key(|&(tag, at)| (at, tag));
        Ok(due)
    }
}
