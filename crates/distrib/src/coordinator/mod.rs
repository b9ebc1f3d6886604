//! The coordinator (global event detector).
//!
//! Receives stamped primitive-event notifications and watermarks from
//! every site in `Msg::Batch`es — one per tick edge, an empty one being
//! the site's heartbeat — reassembles each site's FIFO stream, acks every
//! in-order delivery (and re-acks every duplicate; a newly parked message
//! sends the same ack, naming the gap), runs the stall detector
//! whenever a site's watermark rises, buffers notifications in
//! one FIFO per site until the watermark stability rule releases them,
//! merges the stable heads of those FIFOs in watermark-bounded batches
//! into a [`PlanDetector`] — the hash-consed shared plan by default, or
//! its unshared mode with plan sharing disabled — in a canonical order,
//! and services the detector's timer requests from its own clock.
//! Detections are identical in both sharing modes and for every batch
//! interval.
//!
//! It runs no periodic round (a replica's relay retransmission aside), so
//! WAL replay of what it consumed re-derives its stall state too.
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
//! * `recovery` — WAL appends, compaction to a snapshot record, and
//!   crash recovery;
//! * `partition` — the multi-replica detection plane: partition keys,
//!   the promise protocol, and replica → replica relays.

pub(crate) mod compile;
mod delivery;
pub(crate) mod partition;
mod recovery;
mod release;

use crate::durability::WalWriter;
use crate::metrics::Metrics;
use crate::protocol::Msg;
use crate::watermark::WatermarkTracker;
use decs_chronos::{Nanos, Timeout};
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
/// stability buffer, in reassembled FIFO order, so it is the same however
/// the site's notifications were split into batches — detection stays a
/// pure function of the workload, independent of both delivery order and
/// batch interval.
///
/// The key is never stored whole: a site stamps with its own monotone
/// clock, so its notifications arrive (almost always) already in
/// `(max global, arrival)` order. The stability buffer keeps one such
/// FIFO per site and merges their heads at release, tick by tick in
/// ascending site order — which is exactly ascending `ReleaseKey` order
/// (see [`release::StabilityBuffer`]).
pub(crate) type ReleaseKey = (u64, u32, u64);

/// Timer tag reserved for the replica → replica relay retransmission
/// round (partitioned deployments only). Detector timer
/// tags count up from 0, so the two can never collide.
pub(crate) const RELAY_RETX_TAG: u64 = u64::MAX - 1;

/// Bound on each stream's parked (out-of-order) reassembly buffer. On
/// overflow the highest-sequence parked message is discarded; cumulative
/// acks never cover it, so its sender retransmits it.
pub(crate) const PARKED_CAP: usize = 4096;

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
    /// Stall detector (site streams only): the progress-clock reading
    /// when the site's watermark last rose, or its rejoin `Hello` was
    /// first seen — both at true times logged with the WAL record that
    /// caused them.
    pub(crate) last_advance: u64,
    /// Whether the stall detector suspects the site.
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
    /// Last watermark the operator buffers were collected at (GC only runs
    /// when the low bound strictly advances).
    pub(crate) last_gc_low: u64,
    /// Event types whose *arrival* is itself a reportable detection
    /// (site-local composite events detected at the sites).
    pub(crate) reportable: HashSet<EventId>,
    /// Watermark silence after which a site is suspect, judged at a peer's
    /// watermark rise (a bare coordinator never suspects).
    pub(crate) stall_timeout: Nanos,
    /// Escalate suspect sites to eviction.
    pub(crate) auto_evict: bool,
    /// The stall detector's progress clock (ns) as of the last watermark
    /// rise: true time in which some site's watermark was rising, each
    /// gap between consecutive rises counted up to one global tick.
    pub(crate) progress_ns: u64,
    /// True time (ns) of the last watermark rise — the last stall check.
    pub(crate) last_rise_at: u64,
    /// Parked messages across all site streams (for `parked_peak`).
    pub(crate) parked_total: usize,
    /// Write-ahead log of consumed inputs, headed by the last snapshot
    /// (`None` = durability off, or off until `recover` has replayed).
    pub(crate) wal: Option<WalWriter>,
    /// Absolute due time (true-time ns) of every armed detector timer, so
    /// a snapshot can record what to re-arm after recovery.
    pub(crate) timer_due: HashMap<u64, u64>,
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
    /// The last release key this node fed, tracked only in debug builds
    /// to assert that release never goes backward across rounds.
    pub(crate) last_released: Option<ReleaseKey>,
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
            last_gc_low: 0,
            reportable: HashSet::new(),
            stall_timeout: Nanos(u64::MAX),
            auto_evict: false,
            progress_ns: 0,
            last_rise_at: 0,
            parked_total: 0,
            wal: None,
            timer_due: HashMap::new(),
            drained: 0,
            release_horizon: 0,
            last_released: None,
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

    /// Configure the fault-tolerance machinery: the stall threshold and
    /// automatic eviction of suspect sites. Both off in a bare
    /// coordinator.
    pub fn set_fault_tolerance(&mut self, stall_timeout: Timeout, auto_evict: bool) {
        self.stall_timeout = stall_timeout.get();
        self.auto_evict = auto_evict;
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

    fn batch(
        seq: u64,
        epoch: u64,
        watermark: u64,
        events: Vec<Occurrence<CompositeTimestamp>>,
    ) -> Msg {
        Msg::Batch {
            seq,
            epoch,
            watermark,
            events: std::sync::Arc::new(events),
        }
    }

    /// A one-event batch flushed while the site still reads the event's
    /// tick `g`, so the event cannot release on its own watermark.
    fn ev(ty: u32, seq: u64, s: u32, g: u64, l: u64) -> Msg {
        batch(seq, 0, g, vec![occ(ty, s, g, l)])
    }

    /// An empty batch: the site's heartbeat.
    fn hb(seq: u64, w: u64) -> Msg {
        batch(seq, 0, w, vec![])
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
        // A@(s0, g5) and B@(s0, g6) arrive in one batch with watermark 6.
        sim.inject(
            Nanos(10),
            n,
            batch(0, 0, 6, vec![occ(0, 0, 5, 50), occ(1, 0, 6, 60)]),
        );
        sim.run_to_completion();
        {
            let c = sim.node(n);
            // Watermark 6 releases only g ≤ 5: A, not B, so no SEQ yet.
            assert_eq!(c.buffered(), 1);
            assert!(c.detections.is_empty());
            assert_eq!(c.metrics.events_released, 1);
            assert_eq!(c.metrics.batch_size_max, 2);
        }
        // An empty batch is the site's heartbeat.
        sim.inject(Nanos(40), n, hb(1, 7));
        sim.run_to_completion();
        let c = sim.node(n);
        // Watermark 7 releases g ≤ 6: B follows A; SEQ fires.
        assert_eq!(c.buffered(), 0);
        assert_eq!(c.detections.len(), 1);
        assert_eq!(c.metrics.events_received, 2);
        assert_eq!(c.metrics.events_released, 2);
        assert_eq!(c.metrics.release_batches, 2);
        assert_eq!(c.metrics.messages_processed, 2);
        assert_eq!(c.metrics.batches_received, 2);
        assert_eq!(c.metrics.shard_count, 1);
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

    /// A [`CoordCtx`] that records sends, so a test can drive
    /// [`CoordinatorNode::deliver`] directly and read the acks it emits,
    /// at a true time the test sets.
    #[derive(Default)]
    struct Probe {
        sent: Vec<(NodeIdx, Msg)>,
        now: Nanos,
    }

    impl CoordCtx for Probe {
        fn true_now(&self) -> Nanos {
            self.now
        }
        fn set_timer(&mut self, _delay: Nanos, _tag: u64) {}
        fn send(&mut self, to: NodeIdx, msg: Msg) {
            self.sent.push((to, msg));
        }
    }

    impl Probe {
        /// Drain the acks sent so far as `(to, cum_seq, epoch)`.
        fn acks(&mut self) -> Vec<(u32, u64, u64)> {
            std::mem::take(&mut self.sent)
                .into_iter()
                .filter_map(|(to, m)| match m {
                    Msg::Ack { cum_seq, epoch } => Some((to.0, cum_seq, epoch)),
                    _ => None,
                })
                .collect()
        }
    }

    fn coordinator(sites: usize) -> CoordinatorNode {
        CoordinatorNode::new(sites, detector().0, 100_000_000)
    }

    #[test]
    fn every_in_order_delivery_is_acked_once() {
        let mut c = coordinator(1);
        let mut p = Probe::default();
        let s0 = NodeIdx(0);
        c.deliver(s0, ev(0, 0, 0, 5, 50), &mut p);
        c.deliver(s0, hb(1, 6), &mut p);
        assert_eq!(p.acks(), vec![(0, 1, 0), (0, 2, 0)]);
        // Each newly parked message sends one gap ack naming the frontier
        // (seq 2, the first missing); a second copy of a parked message
        // sends none. The drain that consumes the parked successors acks
        // once for all of them.
        c.deliver(s0, ev(1, 3, 0, 6, 61), &mut p);
        c.deliver(s0, hb(4, 7), &mut p);
        assert_eq!(p.acks(), vec![(0, 2, 0), (0, 2, 0)]);
        c.deliver(s0, hb(4, 7), &mut p);
        assert!(p.acks().is_empty(), "a re-parked copy is not acked");
        c.deliver(s0, ev(1, 2, 0, 6, 60), &mut p);
        assert_eq!(p.acks(), vec![(0, 5, 0)]);
        assert_eq!(c.metrics.reassembly_parks, 2);
        assert_eq!(c.metrics.duplicates_dropped, 1);
        assert_eq!(c.metrics.acks_sent, 5);
        assert_eq!(c.metrics.events_received, 3);
    }

    #[test]
    fn duplicate_event_is_reacked_at_once() {
        let mut c = coordinator(1);
        let mut p = Probe::default();
        let s0 = NodeIdx(0);
        c.deliver(s0, ev(0, 0, 0, 5, 50), &mut p);
        c.deliver(s0, ev(0, 1, 0, 5, 51), &mut p);
        assert_eq!(p.acks(), vec![(0, 1, 0), (0, 2, 0)]);
        c.deliver(s0, ev(0, 0, 0, 5, 50), &mut p);
        assert_eq!(p.acks(), vec![(0, 2, 0)]);
        assert_eq!(c.metrics.duplicates_dropped, 1);
        assert_eq!(c.metrics.events_received, 2);
    }

    #[test]
    fn hellos_uplinks_and_relays_are_each_acked() {
        let mut c = coordinator(1);
        let mut p = Probe::default();
        let s0 = NodeIdx(0);
        c.deliver(s0, hb(0, 6), &mut p);
        let hello = Msg::Hello {
            seq: 1,
            epoch: 1,
            watermark: 7,
        };
        c.deliver(s0, hello, &mut p);
        assert_eq!(
            p.acks(),
            vec![(0, 1, 0), (0, 2, 1)],
            "acked in the new epoch"
        );

        // A replica over one site, with one peer (stream index 2) that
        // gates its releases: site uplinks and peer relays.
        let replica = || {
            let mut r = coordinator(1);
            let ids: HashMap<u32, u32> = (0..3).map(|i| (i, i)).collect();
            r.enable_partition(partition::PartitionState::new(
                0,
                1,
                2,
                vec![0, 1, 2],
                ids,
                HashMap::new(),
                HashMap::new(),
                0,
                0b10,
                1,
                Timeout::from_millis::<200>(),
            ));
            r
        };
        let routed = |seq, watermark, n: u64| Msg::Routed {
            seq,
            epoch: 0,
            watermark,
            events: std::sync::Arc::new(
                (0..n)
                    .map(|i| crate::protocol::RoutedEvent {
                        ordinal: seq * 10 + i,
                        occ: occ(0, 0, watermark, 10 * watermark + i),
                    })
                    .collect(),
            ),
        };
        // Site uplinks: every flush is acked, whether or not it raised the
        // site's watermark here.
        let mut r = replica();
        for (seq, n) in [(0, 0), (1, 2), (2, 1)] {
            r.deliver(s0, routed(seq, 5, n), &mut p);
        }
        assert_eq!(p.acks(), vec![(0, 1, 0), (0, 2, 0), (0, 3, 0)]);
        let relay = |seq, g| Msg::Relay {
            seq,
            promise: vec![crate::protocol::PlanePos {
                g,
                ..crate::protocol::PlanePos::MIN
            }],
            events: std::sync::Arc::new(vec![]),
        };
        let peer = NodeIdx(2);
        r.deliver(peer, relay(0, 5), &mut p);
        // A relay that advances nothing is still consumed and acked.
        r.deliver(peer, relay(1, 5), &mut p);
        assert_eq!(p.acks(), vec![(2, 1, 0), (2, 2, 0)]);
    }

    /// Two sites that suspect after 1 s of silence, both promising tick 1
    /// at 100 ms, and a probe that delivers at set true times.
    fn stall_rig(auto_evict: bool) -> (CoordinatorNode, Probe) {
        let mut c = coordinator(2);
        c.set_fault_tolerance(Timeout::from_millis::<1_000>(), auto_evict);
        let mut p = Probe::default();
        at(&mut c, &mut p, 100, 0, hb(0, 1));
        at(&mut c, &mut p, 100, 1, hb(0, 1));
        (c, p)
    }

    fn at(c: &mut CoordinatorNode, p: &mut Probe, ms: u64, site: u32, msg: Msg) {
        p.now = Nanos::from_millis(ms);
        c.deliver(NodeIdx(site), msg, p);
    }

    /// Site 0 raises its watermark every 100 ms over `ms` (seq and tick
    /// follow from the time, so calls chain).
    fn peer_ticks(c: &mut CoordinatorNode, p: &mut Probe, ms: std::ops::RangeInclusive<u64>) {
        for ms in ms.step_by(100) {
            at(c, p, ms, 0, hb(ms / 100 - 1, ms / 100));
        }
    }

    #[test]
    fn silent_site_turns_suspect_at_the_first_peer_advance_past_the_timeout() {
        let (mut c, mut p) = stall_rig(false);
        peer_ticks(&mut c, &mut p, 200..=1_000);
        p.now = Nanos(1_099_999_999);
        c.deliver(NodeIdx(0), hb(10, 11), &mut p);
        assert_eq!(c.metrics.suspect_sites, 0, "1 ns short of 100 ms + 1 s");
        at(&mut c, &mut p, 1_100, 0, hb(11, 12));
        assert!(c.streams[1].suspect && !c.streams[1].evicted);
        assert_eq!(c.metrics.suspect_sites, 1);
        at(&mut c, &mut p, 1_150, 1, hb(1, 11));
        assert_eq!(c.metrics.suspect_sites, 0, "its own rise clears it");
    }

    #[test]
    fn a_globally_idle_system_suspects_nobody() {
        let (mut c, mut p) = stall_rig(false);
        // Heartbeats that raise no watermark, and a duplicate.
        at(&mut c, &mut p, 10_000, 0, hb(1, 1));
        at(&mut c, &mut p, 20_000, 1, hb(1, 1));
        at(&mut c, &mut p, 30_000, 0, hb(0, 1));
        assert_eq!((c.metrics.suspect_sites, c.metrics.stall_ns), (0, 0));
    }

    #[test]
    fn a_global_outage_counts_one_tick_against_the_silent_site() {
        let (mut c, mut p) = stall_rig(true);
        // Nobody rises from 100 ms to 10 s. Site 0's rise at 10 s moves
        // the progress clock by one tick, so site 1 is 100 ms behind, not
        // 9.9 s; from there on only site 0 rises, every 100 ms.
        for k in 0..=8 {
            at(&mut c, &mut p, 10_000 + 100 * k, 0, hb(k + 1, k + 2));
        }
        assert_eq!(c.progress_ns, 1_000_000_000);
        assert_eq!(c.metrics.suspect_sites, 0, "900 ms of progress behind");
        at(&mut c, &mut p, 10_900, 0, hb(10, 11));
        assert!(c.streams[1].suspect && c.streams[1].evicted);
        assert_eq!(c.metrics.auto_evictions, 1);
    }

    #[test]
    fn stall_ns_is_the_exact_sum_of_the_suspect_spans() {
        let (mut c, mut p) = stall_rig(false);
        // Suspect from 1.1 s, accrued at each peer rise to 1.5 s ...
        peer_ticks(&mut c, &mut p, 200..=1_500);
        assert_eq!(c.metrics.stall_ns, 400_000_000);
        // ... and up to its own rise at 1.55 s, which clears it.
        at(&mut c, &mut p, 1_550, 1, hb(1, 15));
        assert_eq!(c.metrics.stall_ns, 450_000_000);
        // Suspect again from 2.6 s, the first peer rise ≥ 1.55 s + 1 s.
        peer_ticks(&mut c, &mut p, 1_600..=2_900);
        assert_eq!(c.metrics.stall_ns, 750_000_000);
    }

    #[test]
    fn rejoin_hello_restarts_the_clock_of_an_evicted_site() {
        let (mut c, mut p) = stall_rig(true);
        peer_ticks(&mut c, &mut p, 200..=1_400);
        assert!(c.streams[1].evicted, "suspect at 1.1 s and evicted");
        let hello = Msg::Hello {
            seq: 0,
            epoch: 1,
            watermark: 14,
        };
        at(&mut c, &mut p, 1_450, 1, hello);
        assert!(!c.streams[1].evicted && !c.streams[1].suspect);
        peer_ticks(&mut c, &mut p, 1_500..=2_400);
        assert!(!c.streams[1].suspect, "950 ms since the Hello");
        at(&mut c, &mut p, 2_500, 0, hb(24, 25));
        assert!(c.streams[1].evicted);
        assert_eq!((c.metrics.suspect_sites, c.metrics.auto_evictions), (1, 2));
        // Evicted at once both times, so no suspect span was ever open.
        assert_eq!(c.metrics.stall_ns, 0);
    }

    #[test]
    fn parked_overflow_drops_the_farthest_message_until_it_is_retransmitted() {
        let mut c = coordinator(1);
        let mut p = Probe::default();
        let s0 = NodeIdx(0);
        let cap = PARKED_CAP as u64;
        // Seq 0 is late: seqs 1..=cap + 1 all park, one more than the cap,
        // so the farthest from the frontier (cap + 1) is discarded. Each
        // message that stays parked sends one gap ack naming seq 0; the
        // discarded one sends none.
        for seq in 1..=cap + 1 {
            c.deliver(s0, ev(0, seq, 0, 5, 50 + seq), &mut p);
        }
        assert_eq!(c.metrics.parked_dropped, 1);
        assert_eq!(c.metrics.parked_peak, PARKED_CAP);
        assert_eq!(p.acks(), vec![(0, 0, 0); PARKED_CAP]);
        c.deliver(s0, ev(0, 0, 0, 5, 50), &mut p);
        assert_eq!(p.acks(), vec![(0, cap + 1, 0)]);
        assert_eq!(c.metrics.events_received, cap + 1);
        // A heartbeat behind the gap parks and names the gap; the
        // retransmitted copy of the discarded message fills it and both
        // are consumed in order.
        c.deliver(s0, hb(cap + 2, 6), &mut p);
        assert_eq!(p.acks(), vec![(0, cap + 1, 0)]);
        c.deliver(s0, ev(0, cap + 1, 0, 5, 51 + cap), &mut p);
        assert_eq!(p.acks(), vec![(0, cap + 3, 0)]);
        assert_eq!(c.metrics.events_received, cap + 2);
        assert_eq!(c.metrics.parked_dropped, 1);
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
        sim.inject(Nanos(50), n, batch(1, 1, 6, vec![occ(1, 0, 6, 60)]));
        sim.inject(Nanos(60), n, batch(2, 1, 9, vec![]));
        sim.run_to_completion();
        let c = sim.node(n);
        assert_eq!(c.metrics.epoch_filtered, 1);
        // A@g5 (epoch 0, pre-crash) then B@g6 (epoch 1) still detect SEQ:
        // the crash did not disturb surviving notifications.
        assert_eq!(c.detections.len(), 1);
    }

    #[test]
    fn durable_hello_may_reuse_a_consumed_event_free_slot() {
        // A durable site lost its unsynced empty-batch frame at seq 2 to a
        // power loss, so its next incarnation announces itself at seq 2
        // again, a slot the coordinator has already consumed.
        let mut sim = coordinator_sim(1);
        let n = decs_simnet::NodeIdx(0);
        sim.inject(Nanos(10), n, ev(0, 0, 0, 5, 50));
        sim.inject(Nanos(20), n, hb(1, 5));
        sim.inject(Nanos(30), n, hb(2, 6));
        sim.run_to_completion();
        assert_eq!(sim.node(n).streams[0].next, 3);
        sim.inject(
            Nanos(40),
            n,
            Msg::Hello {
                seq: 2,
                epoch: 1,
                watermark: 6,
            },
        );
        sim.run_to_completion();
        {
            let c = sim.node(n);
            // The frontier fell back to the Hello's slot, and the Hello
            // was consumed there.
            assert_eq!(c.site_epoch(0), 1);
            assert_eq!(c.metrics.rejoins, 1);
            assert_eq!(c.streams[0].next, 3);
            assert_eq!(c.metrics.messages_processed, 4);
            assert_eq!(c.tracker.site_watermark(0), 6);
        }
        // The next event follows at seq 3, and a retransmitted copy of it
        // is dropped as a duplicate.
        let b = batch(3, 1, 6, vec![occ(1, 0, 6, 60)]);
        sim.inject(Nanos(50), n, b.clone());
        sim.inject(Nanos(60), n, b);
        sim.inject(Nanos(70), n, batch(4, 1, 9, vec![]));
        sim.run_to_completion();
        let c = sim.node(n);
        assert_eq!(c.metrics.duplicates_dropped, 1);
        assert_eq!(c.metrics.events_received, 2);
        assert_eq!(c.metrics.events_released, 2);
        assert_eq!(c.buffered(), 0);
        // A@g5 then B@g6, each released once: SEQ fires exactly once.
        assert_eq!(c.detections.len(), 1);
    }

    #[test]
    fn data_ahead_of_its_hello_is_dropped_until_hello_lands() {
        let mut sim = coordinator_sim(1);
        let n = decs_simnet::NodeIdx(0);
        // Epoch-1 data races ahead of its Hello: dropped unacked.
        let data = batch(1, 1, 5, vec![occ(0, 0, 5, 50)]);
        sim.inject(Nanos(10), n, data.clone());
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
        sim.inject(Nanos(30), n, data);
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
        sim.inject(Nanos(20), n, hb(1, 5)); // not enough: g=5 needs w > 5
        sim.run_to_completion();
        assert_eq!(sim.node(n).buffered(), 1);
        sim.inject(Nanos(30), n, hb(2, 6));
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
        sim.node_mut(n).set_durability(&dir).unwrap();
        sim.inject(Nanos(10), n, ev(0, 0, 0, 5, 50));
        sim.run_to_completion();
        {
            let c = sim.node_mut(n);
            assert_eq!(c.metrics.events_received, 1);
            assert!(c.wal_failed().is_none());
            c.wal = Some(WalWriter::with_sink(Box::new(DeadDisk), dir.clone()));
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
