//! Engine metrics.

/// Counters and simple statistics collected by the coordinator.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics {
    /// Event notifications received (after reassembly).
    pub events_received: u64,
    /// Notifications released into the detector.
    pub events_released: u64,
    /// Named composite detections produced.
    pub detections: u64,
    /// Messages that arrived out of sequence and were parked.
    pub reassembly_parks: u64,
    /// High-water mark of the stability buffer.
    pub max_buffered: usize,
    /// Sum over released events of (release true-time − arrival true-time),
    /// in nanoseconds (stability latency).
    pub stability_latency_sum_ns: u128,
    /// Timer fires serviced for temporal operators.
    pub timer_fires: u64,
    /// Protocol messages the coordinator processed in order (batches,
    /// Hellos, uplinks and relays — the per-message work of the hot
    /// path).
    pub messages_processed: u64,
    /// `Msg::Batch` messages received.
    pub batches_received: u64,
    /// Largest number of occurrences carried by a single batch.
    pub batch_size_max: usize,
    /// Watermark-bounded release rounds that fed at least one notification.
    pub release_batches: u64,
    /// Definitions compiled into the coordinator's plan.
    pub shard_count: usize,
    /// Unique operator nodes in the coordinator's compiled plan (with plan
    /// sharing disabled: one per subexpression position).
    pub plan_nodes: usize,
    /// Plan nodes shared by more than one definition (0 with plan sharing
    /// disabled — every definition compiles independently).
    pub shared_nodes: usize,
    /// Fraction of operator instances eliminated by cross-definition
    /// sharing: `1 − plan_nodes / position_count` (over every replica of
    /// a partitioned plane).
    pub sharing_ratio: f64,
    /// Operator-buffer entries reclaimed by watermark-driven GC.
    pub gc_evicted: u64,
    /// Occurrences currently buffered inside operator nodes (as of the last
    /// release round).
    pub node_buffered: usize,
    /// High-water mark of [`Metrics::node_buffered`].
    pub node_buffer_peak: usize,
    /// Topological stages of the definition dependency DAG (1 when every
    /// definition is independent).
    pub stage_count: usize,
    /// Messages sites resent: by retransmission timers, restart backlog
    /// bursts and gap acks (aggregated over sites by the engine; 0 in a
    /// bare coordinator).
    pub retransmits: u64,
    /// The part of [`Metrics::retransmits`] resent at once on a gap ack
    /// (the coordinator parked a later message), not by a timer.
    pub gap_resends: u64,
    /// Cumulative acknowledgements the coordinator sent.
    pub acks_sent: u64,
    /// Already-delivered sequence numbers received again (retransmitted or
    /// link-duplicated copies) and ignored.
    pub duplicates_dropped: u64,
    /// High-water mark of parked (out-of-order) messages summed over all
    /// site streams.
    pub parked_peak: usize,
    /// Parked messages discarded because a site's reassembly buffer hit
    /// its bound (backpressure; the sender's retransmission recovers them).
    pub parked_dropped: u64,
    /// Sites currently marked suspect by the stall detector.
    pub suspect_sites: usize,
    /// Cumulative nanoseconds sites spent in the suspect state.
    pub stall_ns: u128,
    /// Notifications refused because their origin site was evicted.
    pub evict_refused: u64,
    /// Suspect sites escalated to eviction by the stall detector.
    pub auto_evictions: u64,
    /// Records ever written to the write-ahead log, snapshot records
    /// included; never falls at a compaction or a recovery.
    pub wal_appends: u64,
    /// Bytes ever written to the write-ahead log, including frame headers,
    /// on the same terms as `wal_appends`.
    pub wal_bytes: u64,
    /// Compactions of the log to an operator-state snapshot record.
    pub snapshots_taken: u64,
    /// WAL records replayed by the most recent recovery.
    pub recovery_replayed: u64,
    /// Wall-clock nanoseconds the most recent recovery took (log scan,
    /// snapshot restore and replay).
    pub recovery_ns: u64,
    /// Site restarts (aggregated over sites by the engine; 0 in a bare
    /// coordinator).
    pub site_restarts: u64,
    /// Epoch-bump rejoin handshakes the coordinator completed (one per
    /// first-seen `Msg::Hello` with a higher epoch).
    pub rejoins: u64,
    /// Highest incarnation epoch seen across all site streams.
    pub epoch_max: u64,
    /// Sum over rejoins of (Hello consumed in order − Hello first seen),
    /// nanoseconds: how long each returning site took to re-deliver its
    /// backlog and resume in-order progress.
    pub rejoin_latency_ns: u64,
    /// Notifications refused because their stamp sorted at or below the
    /// coordinator's release/GC horizon — the pre-crash backlog of an
    /// evicted-then-rejoined site, whose slots in the canonical release
    /// order were already passed while its watermark was pinned at +∞.
    /// Provably zero for healthy (never-evicted) sites.
    pub stale_refused: u64,
    /// Messages dropped by the incarnation-epoch filter: stale traffic
    /// from a dead incarnation, or new-incarnation data racing ahead of
    /// its (retransmitted) `Msg::Hello`.
    pub epoch_filtered: u64,
    /// WAL append/sync failures surfaced (site or coordinator). Non-zero
    /// means durability has been disabled on the failing node and — for
    /// the coordinator — input consumption has halted to keep the log
    /// prefix-consistent (see `docs/OPERATIONS.md`).
    pub wal_errors: u64,
    /// Coordinator replicas in the detection plane (1 = the classic
    /// single-coordinator deployment; engine-aggregated metrics only).
    pub replica_count: usize,
    /// `Msg::Relay` messages this replica sent to peers (forwarded
    /// detections and pure promise advances).
    pub relays_sent: u64,
    /// Cross-partition composite events forwarded replica → replica.
    pub relay_events: u64,
    /// Relay messages resent by the replica retransmission timer.
    pub relay_retransmits: u64,
    /// Relayed composite events received from peer replicas and fed as
    /// first-class primitive events.
    pub relays_received: u64,
    /// Subscription-routed messages (`Msg::Routed`) received from sites.
    pub routed_received: u64,
    /// Wall-clock nanoseconds spent inside this coordinator's message and
    /// timer handlers (engine-timed at the actor dispatch boundary). In a
    /// partitioned plane each replica accumulates only its own handler
    /// time, so the *maximum* across replicas is the critical path a
    /// parallel deployment would pay — see `Engine::replica_busy_ns`.
    pub busy_ns: u64,
}

impl Metrics {
    /// Mean stability latency in nanoseconds (0 when nothing was released).
    pub fn mean_stability_latency_ns(&self) -> u64 {
        if self.events_released == 0 {
            0
        } else {
            (self.stability_latency_sum_ns / u128::from(self.events_released)) as u64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_latency() {
        let mut m = Metrics::default();
        assert_eq!(m.mean_stability_latency_ns(), 0);
        m.events_released = 4;
        m.stability_latency_sum_ns = 400;
        assert_eq!(m.mean_stability_latency_ns(), 100);
    }
}
