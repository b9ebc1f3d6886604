//! The coordinator (global event detector).
//!
//! Receives stamped primitive-event notifications and watermarks from
//! every site — either per-event (`Msg::Event` + `Msg::Heartbeat`) or
//! coalesced into `Msg::Batch`es — reassembles each site's FIFO stream,
//! buffers notifications in one FIFO per site until the watermark
//! stability rule releases them, merges the stable heads of those FIFOs
//! in watermark-bounded batches into a [`PlanDetector`] — the hash-consed
//! shared plan by default, or its unshared mode with plan sharing
//! disabled — in a canonical order, and services the detector's timer
//! requests from its own clock. Detections are identical in both
//! transport modes and in both sharing modes.
//!
//! The implementation is split by concern:
//!
//! * `compile` — building the detector from definition lists (shared by
//!   engine construction and crash recovery);
//! * `delivery` — per-site FIFO reassembly, incarnation epochs, acks,
//!   stall detection and eviction;
//! * `release` — the stability buffer (one FIFO per site, merged at
//!   release into the canonical order), operator GC and detector feeding
//!   (including timer fires);
//! * `recovery` — WAL appends, snapshots, and crash recovery;
//! * `partition` — the multi-replica detection plane: partition keys,
//!   the promise protocol, and replica → replica relays.

pub(crate) mod compile;
mod delivery;
pub(crate) mod partition;
mod recovery;
mod release;

use crate::config::ReleasePolicy;
use crate::durability::{SnapshotStore, WalWriter};
use crate::metrics::Metrics;
use crate::protocol::Msg;
use crate::watermark::WatermarkTracker;
use decs_chronos::Nanos;
use decs_core::CompositeTimestamp;
use decs_simnet::{Actor, Ctx, NodeIdx};
use decs_snoop::{EventId, Occurrence, PlanDetector, ShardId, TimerId};
use std::collections::{BTreeMap, HashMap, HashSet};

/// The slice of [`Ctx`] the coordinator's state transitions actually use.
///
/// Every state-mutating internal method is generic over this trait so the
/// *same code* runs in two worlds: live (a real [`Ctx`] — sends go on the
/// wire, timers get armed) and WAL replay (a [`ReplayCtx`] — `true_now`
/// reads the logged time, sends and timer arms are swallowed, because the
/// recovery harness re-arms surviving timers itself and the peers already
/// received the originals). Recovery being "the normal feed path with a
/// different context" is what makes replay equivalence an identity rather
/// than a parallel reimplementation to keep in sync.
pub(crate) trait CoordCtx {
    /// Current true time (live: simulation clock; replay: logged time).
    fn true_now(&self) -> Nanos;
    /// Arm a timer (no-op during replay).
    fn set_timer(&mut self, delay: Nanos, tag: u64);
    /// Send a message (no-op during replay).
    fn send(&mut self, to: NodeIdx, msg: Msg);
}

impl CoordCtx for Ctx<'_, Msg> {
    fn true_now(&self) -> Nanos {
        Ctx::true_now(self)
    }
    fn set_timer(&mut self, delay: Nanos, tag: u64) {
        Ctx::set_timer(self, delay, tag);
    }
    fn send(&mut self, to: NodeIdx, msg: Msg) {
        Ctx::send(self, to, msg);
    }
}

/// The replay world: time is read from the log, effects on the outside
/// world are suppressed.
pub(crate) struct ReplayCtx {
    /// The true time recorded with the record being replayed.
    pub now: Nanos,
}

impl CoordCtx for ReplayCtx {
    fn true_now(&self) -> Nanos {
        self.now
    }
    fn set_timer(&mut self, _delay: Nanos, _tag: u64) {}
    fn send(&mut self, _to: NodeIdx, _msg: Msg) {}
}

/// Canonical release key: (max global tick, origin site, per-site arrival
/// counter). The counter is assigned when the notification enters the
/// stability buffer, in reassembled FIFO order, so it is the same whether
/// the notification traveled as its own `Msg::Event` or inside a
/// `Msg::Batch` — detection stays a pure function of the workload,
/// independent of both delivery order and transport mode.
///
/// The key is never stored whole: a site stamps with its own monotone
/// clock, so its notifications arrive (almost always) already in
/// `(max global, arrival)` order. The stability buffer keeps one such
/// FIFO per site and merges their heads at release, tick by tick in
/// ascending site order — which is exactly ascending `ReleaseKey` order
/// (see [`release::StabilityBuffer`]).
pub(crate) type ReleaseKey = (u64, u32, u64);

/// Timer tag reserved for the periodic ack/stall-check round. Detector
/// timer tags count up from 0, so the two can never collide.
pub(crate) const ACK_TIMER_TAG: u64 = u64::MAX;

/// Timer tag reserved for the periodic replica → replica relay
/// retransmission round (partitioned deployments only).
pub(crate) const RELAY_RETX_TAG: u64 = u64::MAX - 1;

#[derive(Debug, Default)]
pub(crate) struct SiteStream {
    pub(crate) next: u64,
    pub(crate) parked: BTreeMap<u64, Msg>,
    /// Notifications buffered from this site so far (release-key counter).
    /// **Not** reset on an epoch bump: release keys must stay unique for
    /// the stream's lifetime, across incarnations.
    pub(crate) arrivals: u64,
    /// Evicted sites keep their stream bookkeeping (so retransmissions are
    /// acked and die down) but their notifications are refused.
    pub(crate) evicted: bool,
    /// The site's current incarnation epoch. Messages carrying a lower
    /// epoch are stale traffic from a dead incarnation and are filtered;
    /// a higher epoch (first seen on a `Msg::Hello`) triggers the rejoin
    /// transition.
    pub(crate) epoch: u64,
    /// True time the current epoch's `Hello` was first seen, pending its
    /// in-order consumption — the interval is the rejoin latency.
    pub(crate) rejoined_at: Option<Nanos>,
}

/// Per-site stall-detector state.
#[derive(Debug, Default, Clone)]
pub(crate) struct StallState {
    /// Watermark observed at the last check round.
    pub(crate) last_wm: u64,
    /// Consecutive check rounds without watermark progress while some
    /// other site progressed.
    pub(crate) stalled_checks: u64,
    /// Whether the site is currently suspect.
    pub(crate) suspect: bool,
}

/// A detection produced by the coordinator, with bookkeeping times.
#[derive(Debug, Clone)]
pub struct RawDetection {
    /// The composite occurrence.
    pub occ: Occurrence<CompositeTimestamp>,
    /// True time at which the coordinator produced it.
    pub detected_at: Nanos,
}

/// The coordinator actor.
pub struct CoordinatorNode {
    pub(crate) detector: PlanDetector<CompositeTimestamp>,
    pub(crate) tracker: WatermarkTracker,
    pub(crate) streams: Vec<SiteStream>,
    /// Notifications awaiting stability, one FIFO per site.
    pub(crate) buffer: release::StabilityBuffer,
    /// Completed detections (drained by the engine after a run).
    pub detections: Vec<RawDetection>,
    /// Metrics counters.
    pub metrics: Metrics,
    pub(crate) timer_map: HashMap<u64, (ShardId, TimerId)>,
    pub(crate) next_tag: u64,
    pub(crate) gg_nanos: u64,
    pub(crate) policy: ReleasePolicy,
    /// Whether release rounds garbage-collect operator buffers.
    pub(crate) buffer_gc: bool,
    /// Last watermark the operator buffers were collected at (GC only runs
    /// when the low bound strictly advances).
    pub(crate) last_gc_low: u64,
    /// Event types whose *arrival* is itself a reportable detection
    /// (site-local composite events detected at the sites).
    pub(crate) reportable: HashSet<EventId>,
    /// Period of the ack/stall-check timer (`ZERO` disables it; armed by
    /// `Msg::Start`).
    pub(crate) ack_interval: Nanos,
    /// Stall threshold in check rounds (`0` disables stall detection).
    pub(crate) stall_intervals: u64,
    /// Escalate suspect sites to eviction.
    pub(crate) auto_evict: bool,
    /// Bound on each site's parked reassembly buffer (`0` = unbounded).
    pub(crate) parked_cap: usize,
    /// Stall-detector state, one entry per site.
    pub(crate) stall: Vec<StallState>,
    /// Parked messages across all site streams (for `parked_peak`).
    pub(crate) parked_total: usize,
    /// Write-ahead log of consumed inputs (`None` = durability off).
    pub(crate) wal: Option<WalWriter>,
    /// Snapshot store paired with the WAL.
    pub(crate) snapshots: Option<SnapshotStore>,
    /// Minimum watermark advance (global ticks) between snapshots.
    pub(crate) snapshot_interval: u64,
    /// Watermark at which the last snapshot was taken.
    pub(crate) last_snapshot_wm: u64,
    /// Absolute due time (true-time ns) of every armed detector timer, so
    /// a snapshot can record what to re-arm after recovery.
    pub(crate) timer_due: HashMap<u64, u64>,
    /// True while `recover` is replaying the WAL: appends, snapshots, sends
    /// and timer arms are all suppressed.
    pub(crate) replaying: bool,
    /// Detections ever drained by the engine (kept aligned across
    /// crash/recovery by `WalRecord::Drained`).
    pub(crate) drained: u64,
    /// High-water mark of the canonical release order, *exclusive*: every
    /// global tick strictly below it has been released (or proven dead by
    /// operator-buffer GC); 0 means nothing has passed yet. A notification
    /// stamped below it arrived after its slot in the release order was
    /// passed — only possible from an evicted-then-rejoined site's
    /// pre-crash backlog — and is refused as stale rather than released
    /// out of order.
    pub(crate) release_horizon: u64,
    /// Set on the first WAL append/sync failure; from then on the
    /// coordinator is fail-stop: it drops every input unprocessed (and
    /// unacked) so the log prefix stays exactly the consumed-input stream
    /// and recovery from it is still sound.
    pub(crate) wal_failed: Option<String>,
    /// Partitioned-plane state (`None` = classic single coordinator).
    pub(crate) part: Option<partition::PartitionState>,
}

impl std::fmt::Debug for CoordinatorNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CoordinatorNode")
            .field("buffered", &self.buffer.len())
            .field("detections", &self.detections.len())
            .finish_non_exhaustive()
    }
}

impl CoordinatorNode {
    /// Coordinator over `sites` sites, running a pre-compiled detector.
    /// `gg_nanos` is the duration of one global tick (for timer delays).
    pub fn new(sites: usize, detector: PlanDetector<CompositeTimestamp>, gg_nanos: u64) -> Self {
        Self::with_policy(sites, detector, gg_nanos, ReleasePolicy::Stable)
    }

    /// Coordinator with an explicit release policy (the `Immediate` policy
    /// exists for the ablation experiments).
    pub fn with_policy(
        sites: usize,
        detector: PlanDetector<CompositeTimestamp>,
        gg_nanos: u64,
        policy: ReleasePolicy,
    ) -> Self {
        let plan = detector.plan_stats();
        let metrics = Metrics {
            shard_count: detector.shard_count(),
            stage_count: detector.stage_count(),
            plan_nodes: plan.plan_nodes,
            shared_nodes: plan.shared_nodes,
            sharing_ratio: plan.sharing_ratio,
            ..Metrics::default()
        };
        CoordinatorNode {
            detector,
            tracker: WatermarkTracker::new(sites),
            streams: (0..sites).map(|_| SiteStream::default()).collect(),
            buffer: release::StabilityBuffer::new(sites),
            detections: Vec::new(),
            metrics,
            timer_map: HashMap::new(),
            next_tag: 0,
            gg_nanos,
            policy,
            buffer_gc: true,
            last_gc_low: 0,
            reportable: HashSet::new(),
            ack_interval: Nanos::ZERO,
            stall_intervals: 0,
            auto_evict: false,
            parked_cap: 0,
            stall: vec![StallState::default(); sites],
            parked_total: 0,
            wal: None,
            snapshots: None,
            snapshot_interval: 0,
            last_snapshot_wm: 0,
            timer_due: HashMap::new(),
            replaying: false,
            drained: 0,
            release_horizon: 0,
            wal_failed: None,
            part: None,
        }
    }

    /// Turn this coordinator into one replica of a partitioned detection
    /// plane: attach the partition state and extend the stream table with
    /// one reassembly stream per replica (peer relays ride the same
    /// seq/ack machinery as site streams; stream index = node index, so
    /// sites occupy `0..n_sites` and replicas `n_sites..n_sites + n`).
    /// The watermark tracker and stall detector stay site-sized — peers
    /// are ordered by promises, not watermarks.
    pub(crate) fn enable_partition(&mut self, state: partition::PartitionState) {
        for _ in 0..state.n_replicas {
            self.streams.push(SiteStream::default());
        }
        self.metrics.replica_count = state.n_replicas;
        self.part = Some(state);
    }

    /// Configure the fault-tolerance machinery: the periodic ack/stall
    /// timer (armed when the engine delivers `Msg::Start`), the stall
    /// threshold, automatic eviction of suspect sites, and the parked
    /// reassembly-buffer bound. All off in a bare coordinator.
    pub fn set_fault_tolerance(
        &mut self,
        ack_interval: Nanos,
        stall_intervals: u64,
        auto_evict: bool,
        parked_cap: usize,
    ) {
        self.ack_interval = ack_interval;
        self.stall_intervals = stall_intervals;
        self.auto_evict = auto_evict;
        self.parked_cap = parked_cap;
    }

    /// Enable or disable operator-buffer GC (on by default). GC is
    /// behavior-preserving, so this only trades memory for release-round
    /// work; the off switch exists for ablation and the occupancy bench.
    pub fn set_buffer_gc(&mut self, enabled: bool) {
        self.buffer_gc = enabled;
    }

    /// Mark event types whose arrivals are reported as detections in their
    /// own right (used for site-local composite events).
    pub fn set_reportable(&mut self, ids: impl IntoIterator<Item = EventId>) {
        self.reportable = ids.into_iter().collect();
    }

    /// Read access to the watermark tracker (tests/diagnostics).
    pub fn tracker(&self) -> &WatermarkTracker {
        &self.tracker
    }

    /// Number of notifications awaiting stability.
    pub fn buffered(&self) -> usize {
        match &self.part {
            Some(p) => p.pbuffer.len(),
            None => self.buffer.len(),
        }
    }

    /// A site's current incarnation epoch.
    pub fn site_epoch(&self, site: usize) -> u64 {
        self.streams.get(site).map(|s| s.epoch).unwrap_or(0)
    }

    /// Whether durability has fail-stopped on a WAL I/O error, and why.
    /// A failed coordinator drops every further input unprocessed.
    pub fn wal_failed(&self) -> Option<&str> {
        self.wal_failed.as_deref()
    }
}

impl Actor for CoordinatorNode {
    type Msg = Msg;

    fn on_message(&mut self, from: NodeIdx, msg: Msg, ctx: &mut Ctx<'_, Msg>) {
        self.deliver(from, msg, ctx);
    }

    fn on_timer(&mut self, tag: u64, ctx: &mut Ctx<'_, Msg>) {
        self.timer_fire(tag, ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decs_core::cts;
    use decs_snoop::{Context, EventExpr, EventId};
    use std::io;

    fn detector() -> (PlanDetector<CompositeTimestamp>, EventId) {
        let mut d = PlanDetector::new();
        d.register("A").unwrap();
        d.register("B").unwrap();
        let x = d
            .define(
                "X",
                &EventExpr::seq(EventExpr::prim("A"), EventExpr::prim("B")),
                Context::Chronicle,
            )
            .unwrap();
        (d, x)
    }

    // Drive the coordinator directly through a one-node simulation so we
    // get a real Ctx.
    use decs_chronos::{GlobalTimeBase, Granularity, LocalClock, Precision, TruncMode};
    use decs_simnet::{LinkConfig, Simulation, SiteTimeSource};

    fn coordinator_sim(sites: usize) -> Simulation<CoordinatorNode> {
        let (d, _) = detector();
        let base = GlobalTimeBase::new(
            Granularity::per_second(10).unwrap(),
            TruncMode::Floor,
            Precision::from_nanos(1_000_000),
        )
        .unwrap();
        let src = SiteTimeSource::new(
            99u32.into(),
            LocalClock::perfect(Granularity::per_second(100).unwrap()),
            base,
        );
        let coord = CoordinatorNode::new(sites, d, 100_000_000);
        Simulation::new(vec![(coord, src)], LinkConfig::instant(), 1)
    }

    fn ev(ty: u32, seq: u64, s: u32, g: u64, l: u64) -> Msg {
        Msg::Event {
            seq,
            epoch: 0,
            occ: Occurrence::bare(EventId(ty), cts(&[(s, g, l)])),
        }
    }

    fn hb(seq: u64, w: u64) -> Msg {
        Msg::Heartbeat {
            seq,
            epoch: 0,
            watermark: w,
        }
    }

    fn occ(ty: u32, s: u32, g: u64, l: u64) -> Occurrence<CompositeTimestamp> {
        Occurrence::bare(EventId(ty), cts(&[(s, g, l)]))
    }

    // NOTE: `inject` delivers with from == node, so we cannot use it to
    // fake multi-site senders through the public API; instead these tests
    // exercise the handler directly via a tiny two-site harness in the
    // engine tests. Here we check the single-site path (site index 0 ==
    // coordinator node index 0 in this reduced sim).

    #[test]
    fn stability_gates_release_and_detection() {
        let mut sim = coordinator_sim(1);
        let n = decs_simnet::NodeIdx(0);
        // A@(s0, g5), B@(s0, g6) arrive, then watermarks advance.
        sim.inject(Nanos(10), n, ev(0, 0, 0, 5, 50));
        sim.inject(Nanos(20), n, ev(1, 1, 0, 6, 60));
        sim.inject(Nanos(30), n, hb(2, 6));
        sim.run_to_completion();
        {
            let c = sim.node(n);
            // Watermark 6 releases only g ≤ 4: nothing yet.
            assert_eq!(c.buffered(), 2);
            assert!(c.detections.is_empty());
        }
        sim.inject(Nanos(40), n, hb(3, 8));
        sim.run_to_completion();
        {
            let c = sim.node(n);
            // Watermark 8 releases g ≤ 6: both, in order; SEQ fires.
            assert_eq!(c.buffered(), 0);
            assert_eq!(c.detections.len(), 1);
            assert_eq!(c.metrics.events_released, 2);
        }
    }

    #[test]
    fn reassembly_reorders_back() {
        let mut sim = coordinator_sim(1);
        let n = decs_simnet::NodeIdx(0);
        // Deliver seq 1 before seq 0 (simulating network reordering).
        sim.inject(Nanos(10), n, ev(1, 1, 0, 6, 60));
        sim.inject(Nanos(20), n, ev(0, 0, 0, 5, 50));
        sim.inject(Nanos(30), n, hb(2, 9));
        sim.run_to_completion();
        let c = sim.node(n);
        assert_eq!(c.metrics.reassembly_parks, 1);
        assert_eq!(c.metrics.events_received, 2);
        // Release order is canonical (by global tick): A then B → SEQ.
        assert_eq!(c.detections.len(), 1);
    }

    #[test]
    fn batch_transport_matches_per_event_transport() {
        // The same workload delivered as two batches instead of two events
        // plus two heartbeats: identical release and detection.
        let mut sim = coordinator_sim(1);
        let n = decs_simnet::NodeIdx(0);
        sim.inject(
            Nanos(10),
            n,
            Msg::Batch {
                seq: 0,
                epoch: 0,
                watermark: 6,
                events: std::sync::Arc::new(vec![occ(0, 0, 5, 50), occ(1, 0, 6, 60)]),
            },
        );
        sim.run_to_completion();
        {
            let c = sim.node(n);
            // Watermark 6 releases only g ≤ 4: both still buffered.
            assert_eq!(c.buffered(), 2);
            assert!(c.detections.is_empty());
            assert_eq!(c.metrics.batches_received, 1);
            assert_eq!(c.metrics.batch_size_max, 2);
        }
        // An empty batch is exactly a heartbeat.
        sim.inject(
            Nanos(20),
            n,
            Msg::Batch {
                seq: 1,
                epoch: 0,
                watermark: 8,
                events: std::sync::Arc::new(vec![]),
            },
        );
        sim.run_to_completion();
        let c = sim.node(n);
        assert_eq!(c.buffered(), 0);
        assert_eq!(c.detections.len(), 1);
        assert_eq!(c.metrics.events_received, 2);
        assert_eq!(c.metrics.events_released, 2);
        assert_eq!(c.metrics.release_batches, 1);
        assert_eq!(c.metrics.messages_processed, 2);
        assert_eq!(c.metrics.heartbeats_received, 0);
        assert_eq!(c.metrics.shard_count, 1);
    }

    #[test]
    fn hello_bumps_epoch_clears_parked_and_filters_stale_traffic() {
        let mut sim = coordinator_sim(1);
        let n = decs_simnet::NodeIdx(0);
        sim.inject(Nanos(10), n, ev(0, 0, 0, 5, 50));
        // Park a stale message from what will become the dead incarnation.
        sim.inject(Nanos(20), n, ev(1, 7, 0, 6, 60));
        sim.run_to_completion();
        assert_eq!(sim.node(n).metrics.reassembly_parks, 1);
        assert_eq!(sim.node(n).site_epoch(0), 0);
        // Non-durable restart: the new incarnation starts its sequence
        // space at 0 and announces itself.
        sim.inject(
            Nanos(30),
            n,
            Msg::Hello {
                seq: 0,
                epoch: 1,
                watermark: 0,
            },
        );
        sim.run_to_completion();
        {
            let c = sim.node(n);
            assert_eq!(c.site_epoch(0), 1);
            assert_eq!(c.metrics.rejoins, 1);
            assert_eq!(c.metrics.epoch_max, 1);
            // The parked epoch-0 message is gone, and the Hello was itself
            // consumed in order at the lowered frontier (0 → 1).
            assert_eq!(c.metrics.parked_peak, 1);
        }
        // Old-incarnation traffic still in flight is filtered, not parked.
        sim.inject(Nanos(40), n, ev(1, 8, 0, 6, 60));
        // New-incarnation traffic flows normally (seq 1 follows the Hello).
        sim.inject(
            Nanos(50),
            n,
            Msg::Event {
                seq: 1,
                epoch: 1,
                occ: Occurrence::bare(EventId(1), cts(&[(0, 6, 60)])),
            },
        );
        sim.inject(
            Nanos(60),
            n,
            Msg::Heartbeat {
                seq: 2,
                epoch: 1,
                watermark: 9,
            },
        );
        sim.run_to_completion();
        let c = sim.node(n);
        assert_eq!(c.metrics.epoch_filtered, 1);
        // A@g5 (epoch 0, pre-crash) then B@g6 (epoch 1) still detect SEQ:
        // the crash did not disturb surviving notifications.
        assert_eq!(c.detections.len(), 1);
    }

    #[test]
    fn data_ahead_of_its_hello_is_dropped_until_hello_lands() {
        let mut sim = coordinator_sim(1);
        let n = decs_simnet::NodeIdx(0);
        // Epoch-1 data races ahead of its Hello: dropped unacked.
        sim.inject(
            Nanos(10),
            n,
            Msg::Event {
                seq: 1,
                epoch: 1,
                occ: Occurrence::bare(EventId(0), cts(&[(0, 5, 50)])),
            },
        );
        sim.run_to_completion();
        {
            let c = sim.node(n);
            assert_eq!(c.metrics.epoch_filtered, 1);
            assert_eq!(c.metrics.events_received, 0);
        }
        // The Hello lands; the retransmitted copy of the same event is now
        // accepted in order behind it.
        sim.inject(
            Nanos(20),
            n,
            Msg::Hello {
                seq: 0,
                epoch: 1,
                watermark: 0,
            },
        );
        sim.inject(
            Nanos(30),
            n,
            Msg::Event {
                seq: 1,
                epoch: 1,
                occ: Occurrence::bare(EventId(0), cts(&[(0, 5, 50)])),
            },
        );
        sim.run_to_completion();
        let c = sim.node(n);
        assert_eq!(c.metrics.events_received, 1);
        assert_eq!(c.site_epoch(0), 1);
    }

    #[test]
    fn stale_notification_below_release_horizon_is_refused() {
        let mut sim = coordinator_sim(1);
        let n = decs_simnet::NodeIdx(0);
        sim.inject(Nanos(10), n, ev(0, 0, 0, 5, 50));
        sim.inject(Nanos(20), n, hb(1, 8));
        sim.run_to_completion();
        // g=5 released: the horizon is now 5.
        assert_eq!(sim.node(n).metrics.events_released, 1);
        // A notification at g=4 violates the site's own w=8 promise — only
        // an evicted-then-rejoined site's pre-crash backlog can do this.
        // It is refused, not released out of order.
        sim.inject(Nanos(30), n, ev(1, 2, 0, 4, 40));
        sim.run_to_completion();
        let c = sim.node(n);
        assert_eq!(c.metrics.stale_refused, 1);
        assert_eq!(c.buffered(), 0);
        assert_eq!(c.metrics.events_received, 1);
    }

    #[test]
    fn lagging_watermark_blocks() {
        let mut sim = coordinator_sim(1);
        let n = decs_simnet::NodeIdx(0);
        sim.inject(Nanos(10), n, ev(0, 0, 0, 5, 50));
        sim.inject(Nanos(20), n, hb(1, 6)); // not enough: needs > 6+? g=5 needs w > 6
        sim.run_to_completion();
        assert_eq!(sim.node(n).buffered(), 1);
        sim.inject(Nanos(30), n, hb(2, 7));
        sim.run_to_completion();
        assert_eq!(sim.node(n).buffered(), 0);
    }

    #[test]
    fn wal_write_error_fail_stops_consumption_cleanly() {
        use crate::durability::{WalSink, WalWriter};
        use std::io::Write;

        // A sink whose device has died: every write errors out. Swapped in
        // mid-run to model the disk failing underneath a healthy log.
        struct DeadDisk;
        impl Write for DeadDisk {
            fn write(&mut self, _buf: &[u8]) -> io::Result<usize> {
                Err(io::Error::other("disk gone"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        impl WalSink for DeadDisk {
            fn sync_data(&mut self) -> io::Result<()> {
                Ok(())
            }
        }

        let dir = std::env::temp_dir().join(format!("decs-coord-failstop-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut sim = coordinator_sim(1);
        let n = decs_simnet::NodeIdx(0);
        sim.node_mut(n).set_durability(&dir, u64::MAX).unwrap();
        sim.inject(Nanos(10), n, ev(0, 0, 0, 5, 50));
        sim.run_to_completion();
        {
            let c = sim.node_mut(n);
            assert_eq!(c.metrics.events_received, 1);
            assert!(c.wal_failed().is_none());
            c.wal = Some(WalWriter::with_sink(Box::new(DeadDisk), dir.join("<dead>")));
        }
        // The next delivery hits the dead disk: the append fails *before*
        // the message is applied, so disk state still matches applied
        // state; from then on every input is dropped unprocessed.
        sim.inject(Nanos(20), n, ev(1, 1, 0, 6, 60));
        sim.inject(Nanos(30), n, hb(2, 9));
        sim.run_to_completion();
        let c = sim.node(n);
        assert_eq!(c.metrics.wal_errors, 1, "one failing append, counted once");
        assert!(c.wal_failed().unwrap().contains("disk gone"));
        assert_eq!(
            c.metrics.events_received, 1,
            "the unloggable event must not be consumed"
        );
        assert!(
            c.detections.is_empty(),
            "the dropped watermark must not release anything"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
