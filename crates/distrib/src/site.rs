//! The per-site actor: stamps injected primitive events with the site
//! clock, optionally runs **local detection** (the paper's
//! architecture detects site-local composite events at the site and
//! propagates their set-valued timestamps), and ships primitive events and
//! local detections to the coordinator in batches under a single per-site
//! sequence number. A site flushes its batch, carrying its watermark, at
//! the true instant its own clock enters each global tick; an empty batch
//! is its heartbeat.

use crate::durability::site_wal::{compaction_records, fold_records, SiteWalRecord, SiteWalState};
use crate::durability::WalWriter;
use crate::protocol::{Msg, RoutedEvent};
use crate::window::SendWindow;
use decs_chronos::{Nanos, Timeout};
use decs_core::{CompositeTimestamp, PrimitiveTimestamp};
use decs_simnet::{Actor, Ctx, NodeIdx, SplitMix64};
use decs_snoop::{EventId, FeedOutput, Occurrence, PlanDetector, PlanState, ShardId, TimerId};
use std::collections::HashMap;
use std::io;
use std::path::Path;

/// The tick-edge timer: the site's one watermark beacon per global tick.
const EDGE_TAG: u64 = 0;
const BATCH_TAG: u64 = 1;
const RETX_TAG: u64 = 2;
/// Per-uplink retransmission timer tags in partitioned mode:
/// `PART_RETX_BASE + uplink_index` (uplink counts are bounded by
/// [`LOCAL_TIMER_BASE`]`− PART_RETX_BASE`).
const PART_RETX_BASE: u64 = 3;
/// Timer tags below this are reserved for site infrastructure; local
/// detector timers are offset by it.
const LOCAL_TIMER_BASE: u64 = 16;

/// Timer tags carry the site's restart generation in their high bits, so
/// a fire armed by a dead incarnation is recognized and discarded instead
/// of doubling the new incarnation's edge/batch/retransmit chains.
const GEN_SHIFT: u32 = 48;
const TAG_MASK: u64 = (1 << GEN_SHIFT) - 1;

/// Most unacked messages resent per retransmission round. Cumulative acks
/// trim the buffer between rounds, so a long outage drains incrementally
/// instead of flooding the link with one giant burst.
const RETX_BURST: usize = 64;

/// Site-local detection state: a compiled plan plus the mapping from its
/// event-id space to the coordinator's (synthetic node ids never leave the
/// site).
pub struct LocalDetection {
    /// The site's own plan, the same engine the coordinator runs.
    pub detector: PlanDetector<CompositeTimestamp>,
    /// site EventId → coordinator EventId, for every named event.
    pub translate: HashMap<EventId, EventId>,
    /// Nanoseconds per global tick (to schedule local temporal operators).
    pub gg_nanos: u64,
    /// Armed timer tag → the definition and timer id it fires.
    timer_map: HashMap<u64, (ShardId, TimerId)>,
    next_tag: u64,
}

impl LocalDetection {
    /// Bundle a compiled site plan with its id translation table.
    pub fn new(
        detector: PlanDetector<CompositeTimestamp>,
        translate: HashMap<EventId, EventId>,
        gg_nanos: u64,
    ) -> Self {
        LocalDetection {
            detector,
            translate,
            gg_nanos,
            timer_map: HashMap::new(),
            next_tag: 0,
        }
    }
}

impl std::fmt::Debug for LocalDetection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LocalDetection").finish_non_exhaustive()
    }
}

/// One subscription-routed uplink to a coordinator replica: an
/// independent sequence-numbered stream with its own staged batch,
/// retransmit window and backoff, so each site–replica pair reassembles
/// FIFO order exactly like the classic single-coordinator stream.
#[derive(Debug)]
struct Uplink {
    /// The stream to the replica.
    link: Link,
    /// Subscribed occurrences staged since the last flush, in site
    /// stamping order.
    staged: Vec<RoutedEvent>,
}

/// One sequence-numbered send stream — the site's stream to the
/// coordinator, or an uplink's to its replica — and its retransmission
/// state.
#[derive(Debug)]
struct Link {
    /// The node this stream goes to.
    node: NodeIdx,
    /// Next sequence number on this stream.
    seq: u64,
    /// Sent-but-unacked messages, oldest first.
    window: SendWindow,
    /// Current backoff (reset to the base timeout whenever an ack makes
    /// progress).
    backoff: Nanos,
    /// Whether this stream's retransmission timer is outstanding.
    armed: bool,
    /// Earliest true time the next retransmission round may resend. Set
    /// `backoff` ahead when the window goes from empty to non-empty, and
    /// restarted the base timeout ahead by every ack that trims it, so
    /// messages whose acks are still in flight are not resent. A timer
    /// that fires before it re-arms for the remainder instead.
    deadline: Nanos,
    /// The sequence number last resent on a gap ack (see
    /// [`SiteNode::on_ack`]), so each is fast-resent at most once per
    /// incarnation.
    gap_resent: Option<u64>,
}

impl Link {
    /// A fresh stream to `node` at sequence 0, backing off from `base`.
    fn new(node: NodeIdx, base: Nanos) -> Self {
        Link {
            node,
            seq: 0,
            window: SendWindow::default(),
            backoff: base,
            armed: false,
            deadline: Nanos::ZERO,
            gap_resent: None,
        }
    }
}

/// A site: event source + optional local detector + tick-edge beacon.
#[derive(Debug)]
pub struct SiteNode {
    /// The stream to the coordinator (unused on the partitioned plane).
    link: Link,
    /// Period of the mid-tick flushes between tick edges; `Nanos::ZERO`
    /// flushes at tick edges only.
    batch_interval: Nanos,
    /// Occurrences staged since the last flush, in send order.
    pending: Vec<Occurrence<CompositeTimestamp>>,
    /// Earliest true time the periodic mid-tick flush may fire (positive
    /// `batch_interval` only). A tick-edge flush pushes it one
    /// `batch_interval` out; a flush timer that fires before it re-arms
    /// for the remainder, so the periodic chain stays one timer and
    /// batches per tick do not grow.
    next_flush: Nanos,
    /// The true instant the armed edge timer is due: when the site clock
    /// enters its next global tick (`u64::MAX` ns if it never does).
    next_edge: Nanos,
    /// Events dropped because the site clock had not started yet.
    pub dropped_pre_epoch: u64,
    /// Whether the site has crashed (failure injection).
    pub crashed: bool,
    /// Local detection plan, when configured.
    pub local: Option<LocalDetection>,
    /// Local composite detections produced at this site.
    pub local_detections: u64,
    /// Base retransmission timeout.
    retx_base: Timeout,
    /// Backoff cap: the retransmission interval doubles per silent round
    /// up to this bound, then stays there — retries never stop, so any
    /// partition that eventually heals is eventually crossed.
    retx_cap: Nanos,
    /// Messages resent, by the retransmission timer, a restart's backlog
    /// burst or a gap ack.
    pub retransmits: u64,
    /// The part of [`Self::retransmits`] resent on a gap ack.
    pub gap_resends: u64,
    /// Incarnation epoch: 0 for the first incarnation, bumped on every
    /// restart. Stamped on every outbound message so the coordinator can
    /// tell incarnations apart.
    epoch: u64,
    /// Restart generation for timer tags (see [`GEN_SHIFT`]). Tracks
    /// `epoch` for durable sites but exists separately because timer
    /// hygiene is needed even with durability off.
    gen: u64,
    /// Restarts performed (failure-injection `Msg::Restart`s honored).
    pub restarts: u64,
    /// Deterministic jitter source for retransmission backoff; `None`
    /// keeps the un-jittered schedule.
    jitter_rng: Option<SplitMix64>,
    /// The site write-ahead log, when site durability is on. Kept after a
    /// failure for its counts, but never written again.
    wal: Option<WalWriter>,
    /// Site WAL I/O errors. Site logging is fail-soft: on error the site
    /// stops logging (it is no longer crash-recoverable) but keeps
    /// serving — a monitoring concern, not an outage.
    pub wal_errors: u64,
    /// First WAL error message, if logging has failed.
    wal_failed: Option<String>,
    /// Pristine local-detector state captured at configuration time and
    /// restored on restart: partial matches are volatile and die with the
    /// incarnation that accumulated them.
    local_pristine: Option<PlanState<CompositeTimestamp>>,
    /// Subscription-routed uplinks, one per coordinator replica. Empty in
    /// the classic single-coordinator deployment.
    uplinks: Vec<Uplink>,
    /// Subscribing uplink indices, ascending, indexed by full-catalog
    /// event type. Types no replica subscribes to have an empty list and
    /// are dropped at the site.
    routes: Vec<Vec<usize>>,
    /// The site's stamp ordinal: position of each stamped occurrence in
    /// the site's total send order, shared across all uplinks so replicas
    /// receiving disjoint subsets agree on the interleaving. Like `epoch`,
    /// it survives simulated crashes (standing in for a monotone
    /// site-local counter), so post-restart keys never collide with the
    /// dead incarnation's.
    ordinal: u64,
}

impl SiteNode {
    /// A site that reports to `coordinator` over the ack/retransmit
    /// protocol: every sequenced message stays in the site's send window
    /// until the coordinator acks it, and the unacked ones are resent
    /// after `retx_base`, the interval doubling per silent round up to
    /// `retx_cap`. A cap at or below the base means a constant backoff.
    pub fn new(coordinator: NodeIdx, retx_base: Timeout, retx_cap: Nanos) -> Self {
        SiteNode {
            link: Link::new(coordinator, retx_base.get()),
            batch_interval: Nanos::ZERO,
            pending: Vec::new(),
            next_flush: Nanos::ZERO,
            next_edge: Nanos::ZERO,
            dropped_pre_epoch: 0,
            crashed: false,
            local: None,
            local_detections: 0,
            retx_base,
            retx_cap: retx_cap.max(retx_base.get()),
            retransmits: 0,
            gap_resends: 0,
            epoch: 0,
            gen: 0,
            restarts: 0,
            jitter_rng: None,
            wal: None,
            wal_errors: 0,
            wal_failed: None,
            local_pristine: None,
            uplinks: Vec::new(),
            routes: Vec::new(),
            ordinal: 0,
        }
    }

    /// Switch the site to the partitioned detection plane: stream to
    /// `replicas` coordinator replicas over independent sequence-numbered
    /// uplinks, routing each stamped occurrence only to the uplinks in
    /// `routes[ty]`. Every replica still receives the site's full
    /// watermark stream (an empty `Msg::Routed` is exactly a heartbeat).
    pub fn with_uplinks(
        mut self,
        replicas: Vec<NodeIdx>,
        routes: HashMap<u32, Vec<usize>>,
    ) -> Self {
        assert!(
            replicas.len() <= (LOCAL_TIMER_BASE - PART_RETX_BASE) as usize,
            "too many coordinator replicas for the site timer-tag space"
        );
        self.uplinks = replicas
            .into_iter()
            .map(|node| Uplink {
                link: Link::new(node, self.retx_base.get()),
                staged: Vec::new(),
            })
            .collect();
        let types = routes.keys().max().map_or(0, |&t| t as usize + 1);
        self.routes = vec![Vec::new(); types];
        for (ty, subs) in routes {
            self.routes[ty as usize] = subs;
        }
        self
    }

    fn partitioned(&self) -> bool {
        !self.uplinks.is_empty()
    }

    /// Seed deterministic jitter for the retransmission backoff: each
    /// round's delay is drawn from a ±12.5 % window around the nominal
    /// backoff, so sites sharing an outage don't resend in lockstep.
    pub fn with_retx_seed(mut self, seed: u64) -> Self {
        self.jitter_rng = Some(SplitMix64::new(seed));
        self
    }

    /// Enable site durability: outbound allocations, acks and staged
    /// events are logged to a WAL in `dir` before they take effect, so a
    /// restart recovers the unacked send window and the pending batch.
    /// Only the frames whose loss could re-sequence an occurrence are
    /// synced before the site acts on them ([`SiteWalRecord::must_sync`]):
    /// staged events become durable with the occurrence-carrying batch
    /// that ships them, so a power loss (unlike a process crash) loses
    /// what the site staged since its last carrying send.
    pub fn set_durability(&mut self, dir: &Path) -> io::Result<()> {
        let mut w = WalWriter::create(dir)?;
        SiteWalRecord::Epoch { epoch: self.epoch }.log_to(&mut w)?;
        self.wal = Some(w);
        Ok(())
    }

    /// Site WAL syncs over the site's lifetime, every incarnation and
    /// compaction included (0 with durability off).
    pub fn wal_syncs(&self) -> u64 {
        self.wal.as_ref().map_or(0, WalWriter::syncs)
    }

    /// The site's current incarnation epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// If site WAL logging has fail-soft disabled itself, the first error.
    pub fn wal_failed(&self) -> Option<&str> {
        self.wal_failed.as_deref()
    }

    /// Record a site WAL I/O error: count it and keep the first message.
    /// The site keeps running un-logged (fail-soft) — the opposite of the
    /// coordinator, whose log is the source of truth and fail-stops.
    fn wal_io_error(&mut self, e: io::Error) {
        self.wal_errors += 1;
        if self.wal_failed.is_none() {
            self.wal_failed = Some(e.to_string());
        }
    }

    /// The site log, unless logging is off or has failed.
    fn live_wal(&mut self) -> Option<&mut WalWriter> {
        match &mut self.wal {
            Some(w) if self.wal_failed.is_none() => Some(w),
            _ => None,
        }
    }

    /// Log one record before its effect is observable, syncing it first
    /// when its loss could re-sequence an occurrence
    /// ([`SiteWalRecord::log_to`]). The record is built only when a log
    /// exists: with durability off, the hot send path copies nothing.
    fn wal_log(&mut self, rec: impl FnOnce() -> SiteWalRecord) {
        if let Some(w) = self.live_wal() {
            if let Err(e) = rec().log_to(w) {
                self.wal_io_error(e);
            }
        }
    }

    /// Rewrite the log to the site's outbound state when the rule every
    /// durable node shares says so ([`WalWriter::compaction_due`]). Called
    /// where the log folds to exactly the live state: after an ack trims
    /// the window and after a tick edge's flush.
    fn maybe_compact(&mut self) {
        if !self.live_wal().is_some_and(|w| w.compaction_due()) {
            return;
        }
        let image = compaction_records(&SiteWalState {
            epoch: self.epoch,
            next_seq: self.link.seq,
            retx: self.link.window.to_map(),
            staged: self.pending.clone(),
        });
        if let Some(Err(e)) = self.wal.as_mut().map(|w| w.compact(&image)) {
            self.wal_io_error(e);
        }
    }

    /// A timer tag qualified with the current restart generation.
    fn gen_tag(&self, tag: u64) -> u64 {
        (self.gen << GEN_SHIFT) | tag
    }

    /// Number of sent-but-unacked messages held for retransmission in the
    /// site's fullest send window: its stream to the coordinator or, on
    /// the partitioned plane, its fullest replica uplink.
    pub fn unacked(&self) -> usize {
        self.uplinks
            .iter()
            .map(|up| up.link.window.len())
            .fold(self.link.window.len(), usize::max)
    }

    /// Add a periodic flush every `interval` between tick edges
    /// (`Nanos::ZERO`, the default, flushes at tick edges only). Every
    /// flush carries the watermark.
    pub fn with_batching(mut self, interval: Nanos) -> Self {
        self.batch_interval = interval;
        self
    }

    /// Give the site a local detection plan.
    pub fn with_local(mut self, local: LocalDetection) -> Self {
        // Capture the plan's pristine state now, before any event feeds
        // it: a restarted incarnation starts detection from scratch.
        self.local_pristine = Some(local.detector.save_state());
        self.local = Some(local);
        self
    }

    /// Stage an occurrence for the next flush, translating its event id
    /// into the coordinator's id space when a local detector is present.
    fn forward(&mut self, mut occ: Occurrence<CompositeTimestamp>) {
        if let Some(local) = &self.local {
            match local.translate.get(&occ.ty) {
                Some(&coord_ty) => occ.ty = coord_ty,
                None => return, // synthetic internal node: never forwarded
            }
        }
        if self.partitioned() {
            self.forward_routed(occ);
        } else {
            self.wal_log(|| SiteWalRecord::Staged { occ: occ.clone() });
            self.pending.push(occ);
        }
    }

    /// Stage a stamped occurrence on every subscribing uplink (consuming
    /// one stamp ordinal either way — unsubscribed types leave a gap, and
    /// only the relative order matters to replicas).
    fn forward_routed(&mut self, occ: Occurrence<CompositeTimestamp>) {
        let ordinal = self.ordinal;
        self.ordinal += 1;
        let Some(subs) = self.routes.get(occ.ty.0 as usize) else {
            return;
        };
        for &u in subs {
            self.uplinks[u].staged.push(RoutedEvent {
                ordinal,
                occ: occ.clone(),
            });
        }
    }

    /// Flush uplink `u`: one `Msg::Routed` carrying everything staged for
    /// it since the last flush plus the watermark (an empty flush is
    /// exactly a heartbeat).
    fn flush_uplink(&mut self, u: usize, watermark: u64, ctx: &mut Ctx<'_, Msg>) {
        let epoch = self.epoch;
        let up = &mut self.uplinks[u];
        let seq = up.link.seq;
        let events = std::sync::Arc::new(up.staged.drain(..).collect::<Vec<_>>());
        self.send_seq(
            Some(u),
            Msg::Routed {
                seq,
                epoch,
                watermark,
                events,
            },
            ctx,
        );
    }

    /// Link `u`'s retransmission timer tag: uplink `u`, or the stream to
    /// the coordinator for `None`.
    fn retx_tag(&self, u: Option<usize>) -> u64 {
        self.gen_tag(u.map_or(RETX_TAG, |u| PART_RETX_BASE + u as u64))
    }

    /// Send `msg`, which carries the next sequence number of link `u`
    /// (see [`Self::retx_tag`]), retaining a copy for retransmission until
    /// it is cumulatively acked.
    fn send_seq(&mut self, u: Option<usize>, msg: Msg, ctx: &mut Ctx<'_, Msg>) {
        if u.is_none() {
            // Log-before-send: the allocation is durable before the
            // message is observable, so recovery's retransmit buffer is a
            // superset of anything the coordinator could have received.
            self.wal_log(|| SiteWalRecord::Sent { msg: msg.clone() });
        }
        let tag = self.retx_tag(u);
        let link = match u {
            Some(u) => &mut self.uplinks[u].link,
            None => &mut self.link,
        };
        let seq = link.seq;
        link.seq += 1;
        if link.window.is_empty() {
            link.deadline = ctx.true_now().saturating_add(link.backoff.get());
        }
        link.window.push(seq, msg.clone());
        if !link.armed {
            link.armed = true;
            ctx.set_timer(link.backoff, tag);
        }
        ctx.send(link.node, msg);
    }

    /// Trim the window of the stream `from` acks (a replica's uplink, or
    /// the stream to the coordinator) on a cumulative ack; progress resets
    /// its backoff to the base and restarts its retransmission deadline.
    /// Acks stamped by a previous incarnation's traffic are ignored —
    /// after a non-durable restart the sequence space restarted from 0,
    /// and an old ack would wrongly release new allocations that happen
    /// to share numbers.
    ///
    /// An ack that trims nothing and names the window's oldest message is
    /// a gap ack: the receiver parked a later message, so exactly that one
    /// is missing. It is resent at once (fast retransmit, RFC 5681), at
    /// most once per sequence number per incarnation; the timer stays the
    /// fallback for a lost resend and for losses no later message reveals.
    fn on_ack(&mut self, from: NodeIdx, cum_seq: u64, epoch: u64, ctx: &mut Ctx<'_, Msg>) {
        if epoch != self.epoch {
            return;
        }
        let u = self.uplinks.iter().position(|up| up.link.node == from);
        if self.partitioned() && u.is_none() {
            return;
        }
        let base = self.retx_base.get();
        let link = match u {
            Some(u) => &mut self.uplinks[u].link,
            None => &mut self.link,
        };
        if link.window.ack(cum_seq) > 0 {
            link.backoff = base;
            link.deadline = ctx.true_now().saturating_add(base.get());
            if u.is_none() && self.wal.is_some() {
                self.wal_log(|| SiteWalRecord::Acked { cum_seq });
                self.maybe_compact();
            }
        } else if let Some((seq, msg)) = link.window.front() {
            if seq == cum_seq && link.gap_resent != Some(seq) {
                link.gap_resent = Some(seq);
                self.retransmits += 1;
                self.gap_resends += 1;
                ctx.send(link.node, msg.clone());
            }
        }
    }

    /// Retransmission round on link `u` (see [`Self::retx_tag`]): resend
    /// the oldest unacked messages and back off exponentially (capped —
    /// retries continue forever, so healing partitions are always
    /// eventually crossed). A round that fires before the link's deadline
    /// only re-arms for the remainder.
    fn retransmit_round(&mut self, u: Option<usize>, ctx: &mut Ctx<'_, Msg>) {
        let (base, cap) = (self.retx_base.get(), self.retx_cap);
        let tag = self.retx_tag(u);
        let link = match u {
            Some(u) => &mut self.uplinks[u].link,
            None => &mut self.link,
        };
        link.armed = false;
        if self.crashed {
            return; // the site is dead: nothing is ever resent.
        }
        if link.window.is_empty() {
            link.backoff = base;
            return; // fully acked: the timer dies until the next send.
        }
        link.armed = true;
        let now = ctx.true_now();
        if now < link.deadline {
            ctx.set_timer(Nanos(link.deadline.get() - now.get()), tag);
            return;
        }
        for msg in link.window.messages().take(RETX_BURST) {
            self.retransmits += 1;
            ctx.send(link.node, msg.clone());
        }
        link.backoff = Nanos((2 * link.backoff.get()).min(cap.get()));
        // Jitter the next round (±backoff/8) so sites that lost the same
        // link don't hammer the coordinator in lockstep when it heals.
        let delay = match self.jitter_rng.as_mut() {
            Some(rng) => Nanos(rng.jitter(link.backoff.get(), link.backoff.get() / 4)),
            None => link.backoff,
        };
        link.deadline = now.saturating_add(delay.get());
        ctx.set_timer(delay, tag);
    }

    /// Absorb a local feed result: count + forward detections, schedule
    /// local timers.
    fn absorb_local(&mut self, r: FeedOutput<CompositeTimestamp>, ctx: &mut Ctx<'_, Msg>) {
        let gen = self.gen;
        if let Some(local) = &mut self.local {
            for (def, t) in r.timers {
                let tag = LOCAL_TIMER_BASE + local.next_tag;
                local.next_tag += 1;
                local.timer_map.insert(tag, (def, t.id));
                ctx.set_timer(
                    Nanos(t.delay_ticks * local.gg_nanos),
                    (gen << GEN_SHIFT) | tag,
                );
            }
        }
        for occ in r.detected {
            self.local_detections += 1;
            self.forward(occ);
        }
    }

    /// Announce `watermark` with everything staged: a flush of the
    /// pending batch, or of every uplink on the partitioned plane.
    fn beacon(&mut self, watermark: u64, ctx: &mut Ctx<'_, Msg>) {
        if self.partitioned() {
            for u in 0..self.uplinks.len() {
                self.flush_uplink(u, watermark, ctx);
            }
        } else {
            self.send_batch(watermark, ctx);
        }
    }

    /// Arm the edge timer for the true instant the site clock enters its
    /// next global tick (its first stamp, before the clock's epoch).
    fn arm_edge(&mut self, ctx: &mut Ctx<'_, Msg>) {
        let now = ctx.true_now();
        self.next_edge = Nanos(u64::MAX);
        if let Some(at) = ctx.time_source().next_tick_edge(now) {
            self.next_edge = at;
            ctx.set_timer(Nanos(at.get() - now.get()), self.gen_tag(EDGE_TAG));
        }
    }

    /// Arm a fresh incarnation's beacons: the edge timer and, with a
    /// positive `batch_interval`, the periodic flush one interval out.
    fn arm_beacons(&mut self, ctx: &mut Ctx<'_, Msg>) {
        self.arm_edge(ctx);
        if self.batch_interval.get() > 0 {
            self.next_flush = ctx.true_now().saturating_add(self.batch_interval.get());
            ctx.set_timer(self.batch_interval, self.gen_tag(BATCH_TAG));
        }
    }

    /// The edge timer fired: the site's one watermark beacon per global
    /// tick, flushing the tick it closes. A watermark changes only at a
    /// tick edge, and the coordinator releases a tick only once every
    /// site's watermark has passed it, so the edge is the only instant
    /// worth sending. The edge flush pushes the next periodic flush one
    /// `batch_interval` out, so flushes per tick do not grow. A fire
    /// before [`Self::next_edge`], while the clock still reads the old
    /// tick, only re-arms for the remainder. A crashed site neither
    /// beacons nor re-arms: it is silent.
    fn tick_edge(&mut self, ctx: &mut Ctx<'_, Msg>) {
        if self.crashed {
            return;
        }
        let now = ctx.true_now();
        if now >= self.next_edge {
            if let Ok(parts) = ctx.stamp() {
                self.beacon(parts.global.get(), ctx);
            }
            self.next_flush = now.saturating_add(self.batch_interval.get());
            self.maybe_compact();
        }
        self.arm_edge(ctx);
    }

    /// The periodic mid-tick flush (see [`Self::beacon`]), re-armed one
    /// `batch_interval` out. A fire before [`Self::next_flush`] (a
    /// tick-edge flush went out since it was armed) only re-arms for the
    /// remainder. A flush due less than half an interval before the tick
    /// edge is left to the edge's flush, so a site flushes about
    /// `g_g / batch_interval` times per tick whichever way its clock
    /// drifts. A crashed site neither flushes nor re-arms.
    fn flush_batch(&mut self, ctx: &mut Ctx<'_, Msg>) {
        if self.crashed {
            return; // pending events are lost: the site is silent.
        }
        let now = ctx.true_now();
        let interval = self.batch_interval.get();
        if now >= self.next_flush {
            if self.next_edge.get().saturating_sub(now.get()) < interval / 2 {
                self.next_flush = self.next_edge.saturating_add(interval);
            } else {
                if let Ok(parts) = ctx.stamp() {
                    self.beacon(parts.global.get(), ctx);
                }
                self.next_flush = now.saturating_add(interval);
            }
        }
        let rest = Nanos(self.next_flush.get() - now.get());
        ctx.set_timer(rest, self.gen_tag(BATCH_TAG));
    }

    /// Send the pending batch: one `Msg::Batch` carrying every occurrence
    /// staged since the previous flush plus `watermark`. An empty batch
    /// is still sent — it is the site's heartbeat.
    fn send_batch(&mut self, watermark: u64, ctx: &mut Ctx<'_, Msg>) {
        let seq = self.link.seq;
        let epoch = self.epoch;
        // One Arc wrap at flush: retransmit retention (and any WAL copy at
        // the coordinator) shares this allocation. The batch moves into an
        // exact-size vector and `pending` keeps its capacity, so a warm
        // site allocates no growth steps, whatever its batch size.
        let events = std::sync::Arc::new(self.pending.drain(..).collect::<Vec<_>>());
        self.send_seq(
            None,
            Msg::Batch {
                seq,
                epoch,
                watermark,
                events,
            },
            ctx,
        );
    }

    /// Bring a crashed site back up as a new incarnation.
    ///
    /// Volatile state (pending batch, retransmit buffer, sequence counter,
    /// partial local-detection matches, outstanding timers) dies with the
    /// old incarnation. A durable site then folds its WAL back into the
    /// unacked send window it owed the coordinator; a non-durable site
    /// restarts its sequence space at 0 and relies on the coordinator's
    /// epoch filter to discard the old incarnation's stragglers.
    ///
    /// The new incarnation announces itself with `Msg::Hello` *before*
    /// resending any backlog, so on in-order links the coordinator's epoch
    /// transition precedes every retagged message.
    fn restart(&mut self, ctx: &mut Ctx<'_, Msg>) {
        if !self.crashed {
            return; // restarting a live site is a no-op
        }
        self.crashed = false;
        self.gen += 1;
        self.restarts += 1;
        self.pending.clear();
        self.link = Link::new(self.link.node, self.retx_base.get());
        let pristine = self.local_pristine.clone();
        if let Some(local) = &mut self.local {
            local.timer_map.clear();
            if let Some(p) = pristine {
                local
                    .detector
                    .restore_state(p)
                    .expect("pristine state restores into its own plan");
            }
        }
        // The in-memory epoch survives the simulated crash and stands in
        // for a monotone incarnation source (e.g. a supervisor counter);
        // durable sites additionally recover it from the log, so whichever
        // is higher wins and the new epoch strictly exceeds both.
        // A log it cannot read is left as it is: the site restarts
        // un-logged, like a non-durable site, in a fresh sequence space.
        let mut prior_epoch = self.epoch;
        match self.live_wal().map(WalWriter::reopen::<SiteWalRecord>) {
            Some(Ok(records)) => {
                let st = fold_records(&records);
                prior_epoch = prior_epoch.max(st.epoch);
                self.link.seq = st.next_seq;
                self.link.window = st.retx.into();
                self.pending = st.staged;
            }
            Some(Err(e)) => self.wal_io_error(e),
            None => {}
        }
        self.epoch = prior_epoch + 1;
        // Retag the recovered backlog to the new epoch (the coordinator
        // drops anything older). A recovered Hello from a *previous*
        // restart must not announce this epoch a second time — it degrades
        // to an empty batch in the same sequence slot, which keeps the
        // slot filled and still carries its watermark promise.
        for m in self.link.window.messages_mut() {
            match m {
                Msg::Batch { epoch, .. } => *epoch = self.epoch,
                Msg::Hello { seq, watermark, .. } => {
                    *m = Msg::Batch {
                        seq: *seq,
                        epoch: self.epoch,
                        watermark: *watermark,
                        events: std::sync::Arc::default(),
                    };
                }
                _ => {}
            }
        }
        // The new incarnation's suffix of the log starts with its epoch.
        let epoch = self.epoch;
        self.wal_log(|| SiteWalRecord::Epoch { epoch });
        if self.partitioned() {
            // Partitioned restarts are always non-durable (site durability
            // and replica uplinks are mutually exclusive): each uplink's
            // stream restarts at sequence 0 in the new epoch, announced by
            // its own Hello. The stamp ordinal is NOT reset — it survives
            // like the epoch, so new root keys sort after the dead
            // incarnation's.
            for up in &mut self.uplinks {
                up.link = Link::new(up.link.node, self.retx_base.get());
                up.staged.clear();
            }
            let watermark = ctx.stamp().map(|p| p.global.get()).unwrap_or(0);
            let epoch = self.epoch;
            for u in 0..self.uplinks.len() {
                self.send_seq(
                    Some(u),
                    Msg::Hello {
                        seq: 0,
                        epoch,
                        watermark,
                    },
                    ctx,
                );
            }
            self.arm_beacons(ctx);
            return;
        }
        // Announce the incarnation. The watermark falls back to 0 (always
        // a valid promise) if the site clock has not started yet, and
        // stays at or below every recovered staged occurrence, which
        // reaches the coordinator only in the next flush, behind the
        // Hello. The backlog burst is snapshotted first so it excludes
        // the Hello itself, but sent after it: on in-order links the
        // epoch transition precedes every retagged message.
        let burst: Vec<Msg> = self
            .link
            .window
            .messages()
            .take(RETX_BURST)
            .cloned()
            .collect();
        let watermark = self
            .pending
            .iter()
            .map(|occ| occ.time.max_global())
            .fold(ctx.stamp().map(|p| p.global.get()).unwrap_or(0), u64::min);
        let seq = self.link.seq;
        let epoch = self.epoch;
        self.send_seq(
            None,
            Msg::Hello {
                seq,
                epoch,
                watermark,
            },
            ctx,
        );
        for m in burst {
            self.retransmits += 1;
            ctx.send(self.link.node, m);
        }
        // Restart the beacons in the new timer generation. No immediate
        // beacon: the Hello already carried the watermark.
        self.arm_beacons(ctx);
    }
}

impl Actor for SiteNode {
    type Msg = Msg;

    fn on_message(&mut self, from: NodeIdx, msg: Msg, ctx: &mut Ctx<'_, Msg>) {
        // A dead site neither receives nor reacts: everything except the
        // restart injection is dropped on the floor (in particular acks —
        // the old incarnation must not trim state the new one will need).
        if self.crashed && !matches!(msg, Msg::Restart) {
            return;
        }
        match msg {
            Msg::Start => {
                debug_assert_eq!(from, ctx.me());
                if let Ok(parts) = ctx.stamp() {
                    self.beacon(parts.global.get(), ctx);
                }
                self.arm_beacons(ctx);
            }
            Msg::Crash => {
                self.crashed = true;
            }
            Msg::Restart => {
                self.restart(ctx);
            }
            Msg::Inject { ty, values } => {
                debug_assert_eq!(from, ctx.me(), "Inject comes from the environment");
                match ctx.stamp() {
                    Ok(parts) => {
                        let ts = CompositeTimestamp::singleton(PrimitiveTimestamp::new(
                            parts.site,
                            parts.global,
                            parts.local,
                        ));
                        let occ = Occurrence::primitive(ty, ts, values);
                        // Run the local plan first (site-local composite
                        // detection), then forward the primitive and any
                        // local detections.
                        let local_result =
                            self.local.as_mut().map(|l| l.detector.feed(occ.clone()));
                        self.forward(occ);
                        if let Some(r) = local_result {
                            self.absorb_local(r, ctx);
                        }
                    }
                    Err(_) => self.dropped_pre_epoch += 1,
                }
            }
            Msg::Ack { cum_seq, epoch } => self.on_ack(from, cum_seq, epoch, ctx),
            // Sites do not receive protocol traffic in the star topology.
            Msg::Batch { .. }
            | Msg::Hello { .. }
            | Msg::Evict { .. }
            | Msg::Routed { .. }
            | Msg::Relay { .. } => {
                debug_assert!(false, "site received coordinator traffic");
            }
        }
    }

    fn on_timer(&mut self, tag: u64, ctx: &mut Ctx<'_, Msg>) {
        // Timers armed by a previous incarnation fire into the void: the
        // new incarnation re-armed its own edge/batch/retransmit chains at
        // restart, and honoring a stale fire would double them.
        if (tag >> GEN_SHIFT) != self.gen {
            return;
        }
        let tag = tag & TAG_MASK;
        if tag == EDGE_TAG {
            self.tick_edge(ctx);
            return;
        }
        if tag == BATCH_TAG {
            self.flush_batch(ctx);
            return;
        }
        if tag == RETX_TAG {
            self.retransmit_round(None, ctx);
            return;
        }
        if (PART_RETX_BASE..LOCAL_TIMER_BASE).contains(&tag) {
            let u = (tag - PART_RETX_BASE) as usize;
            if u < self.uplinks.len() {
                self.retransmit_round(Some(u), ctx);
            }
            return;
        }
        // A local temporal operator fired: stamp with the site clock.
        if self.crashed {
            return;
        }
        let Ok(parts) = ctx.stamp() else { return };
        let ts = CompositeTimestamp::singleton(PrimitiveTimestamp::new(
            parts.site,
            parts.global,
            parts.local,
        ));
        let result = self.local.as_mut().and_then(|local| {
            let (def, timer_id) = local.timer_map.remove(&tag)?;
            local.detector.fire_timer(def, timer_id, ts).ok()
        });
        if let Some(r) = result {
            self.absorb_local(r, ctx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decs_chronos::{GlobalTimeBase, Granularity, LocalClock, Precision, TruncMode};
    use decs_simnet::{LinkConfig, Simulation, SiteTimeSource};
    use decs_snoop::EventId;

    /// (seq, watermark, events) of one Batch received.
    type BatchRecord = (
        u64,
        u64,
        std::sync::Arc<Vec<Occurrence<CompositeTimestamp>>>,
    );

    /// A coordinator stand-in that records what it receives and acks
    /// each message, unless `mute`.
    #[derive(Debug, Default)]
    struct Collector {
        batches: Vec<BatchRecord>,
        /// (seq, epoch, watermark) of every Hello received.
        hellos: Vec<(u64, u64, u64)>,
        /// True arrival time of every Batch received.
        batch_times: Vec<Nanos>,
        /// Ack nothing, so the site's send window only grows.
        mute: bool,
    }

    impl Collector {
        fn mute() -> Self {
            Collector {
                mute: true,
                ..Collector::default()
            }
        }
    }

    impl Actor for Collector {
        type Msg = Msg;

        fn on_message(&mut self, from: NodeIdx, msg: Msg, ctx: &mut Ctx<'_, Msg>) {
            let (seq, epoch) = match msg {
                Msg::Batch {
                    seq,
                    epoch,
                    watermark,
                    events,
                } => {
                    self.batches.push((seq, watermark, events));
                    self.batch_times.push(ctx.true_now());
                    (seq, epoch)
                }
                Msg::Hello {
                    seq,
                    epoch,
                    watermark,
                } => {
                    self.hellos.push((seq, epoch, watermark));
                    (seq, epoch)
                }
                _ => return,
            };
            if !self.mute {
                // The links are instant and in order: `seq` is the
                // cumulative ack.
                ctx.send(
                    from,
                    Msg::Ack {
                        cum_seq: seq + 1,
                        epoch,
                    },
                );
            }
        }
    }

    #[allow(clippy::large_enum_variant)]
    enum Node {
        Site(SiteNode),
        Collector(Collector),
    }

    impl std::fmt::Debug for Node {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            match self {
                Node::Site(_) => f.write_str("Site"),
                Node::Collector(_) => f.write_str("Collector"),
            }
        }
    }

    impl Actor for Node {
        type Msg = Msg;

        fn on_message(&mut self, from: NodeIdx, msg: Msg, ctx: &mut Ctx<'_, Msg>) {
            match self {
                Node::Site(s) => s.on_message(from, msg, ctx),
                Node::Collector(c) => c.on_message(from, msg, ctx),
            }
        }

        fn on_timer(&mut self, tag: u64, ctx: &mut Ctx<'_, Msg>) {
            if let Node::Site(s) = self {
                s.on_timer(tag, ctx);
            }
        }
    }

    fn source(site: u32) -> SiteTimeSource {
        let base = GlobalTimeBase::new(
            Granularity::per_second(10).unwrap(),
            TruncMode::Floor,
            Precision::from_nanos(1_000_000),
        )
        .unwrap();
        SiteTimeSource::new(
            site.into(),
            LocalClock::perfect(Granularity::per_second(100).unwrap()),
            base,
        )
    }

    /// A site reporting to `coord`, resending after 50 ms, backing off
    /// to 400 ms.
    fn site(coord: NodeIdx) -> SiteNode {
        SiteNode::new(coord, Timeout::from_millis::<50>(), Nanos::from_millis(400))
    }

    /// The watermark and event count of every batch received.
    fn shape(c: &Collector) -> Vec<(u64, usize)> {
        c.batches.iter().map(|(_, w, e)| (*w, e.len())).collect()
    }

    #[test]
    fn site_ships_each_tick_in_its_edge_batch() {
        let coord = NodeIdx(1);
        let nodes = vec![
            (Node::Site(site(coord)), source(0)),
            (Node::Collector(Collector::default()), source(1)),
        ];
        let mut sim = Simulation::new(nodes, LinkConfig::instant(), 1);
        sim.inject(Nanos::ZERO, NodeIdx(0), Msg::Start);
        // Two injections inside tick 10.
        for ms in [1_010, 1_030] {
            inject_at(&mut sim, ms);
        }
        sim.run_until(Nanos::from_secs(2));
        let Node::Collector(c) = sim.node(coord) else {
            panic!("collector expected")
        };
        // One batch per 100 ms tick: the Start beacon for tick 0, then one
        // at each edge through 2 s, none repeating a watermark. Both events
        // ride the batch of the edge that closes their tick.
        let expect: Vec<(u64, usize)> =
            (0..=20).map(|w| (w, if w == 11 { 2 } else { 0 })).collect();
        assert_eq!(shape(c), expect);
        for (i, (seq, _, _)) in c.batches.iter().enumerate() {
            assert_eq!(*seq, i as u64);
        }
        // Each batch was acked on arrival: nothing is held or resent.
        let Node::Site(s) = sim.node(NodeIdx(0)) else {
            panic!("site expected")
        };
        assert_eq!((s.unacked(), s.retransmits), (0, 0));
        // Stamped (site0, global 10, local 101).
        let occ = &c.batches[11].2[0];
        assert_eq!(occ.ty, EventId(7));
        let member = occ.time.members()[0];
        assert_eq!(member.site().get(), 0);
        assert_eq!(member.global().get(), 10);
        assert_eq!(member.local().get(), 101);
    }

    fn inject_at(sim: &mut Simulation<Node>, ms: u64) {
        sim.inject(
            Nanos::from_millis(ms),
            NodeIdx(0),
            Msg::Inject {
                ty: EventId(7),
                values: vec![],
            },
        );
    }

    #[test]
    fn edge_beacons_follow_the_site_clock() {
        // A clock 37 ms ahead and 1000 ppm fast enters each global tick
        // well before true time does. Every batch after the Start beacon
        // goes out at the exact instant the clock enters its tick, one per
        // tick, carrying the events of the tick it closes.
        let coord = NodeIdx(1);
        let base = GlobalTimeBase::new(
            Granularity::per_second(10).unwrap(),
            TruncMode::Floor,
            Precision::from_nanos(50_000_000),
        )
        .unwrap();
        let ahead = SiteTimeSource::new(
            0u32.into(),
            LocalClock::with_error(
                Granularity::per_second(1000).unwrap(),
                1_000_000,
                37_000_000,
            ),
            base,
        );
        let nodes = vec![
            (Node::Site(site(coord)), ahead.clone()),
            (Node::Collector(Collector::default()), source(1)),
        ];
        let mut sim = Simulation::new(nodes, LinkConfig::instant(), 1);
        sim.inject(Nanos::ZERO, NodeIdx(0), Msg::Start);
        // The clock reads 1.088 s, 1.238 s and 1.258 s: ticks 10, 12, 12.
        for ms in [1_050, 1_200, 1_220] {
            inject_at(&mut sim, ms);
        }
        sim.run_until(Nanos::from_millis(2_500));
        let Node::Collector(c) = sim.node(coord) else {
            panic!("collector expected")
        };
        let last = ahead.stamp(Nanos::from_millis(2_500)).unwrap().global.get();
        let sizes = |w: u64| match w {
            11 => 1,
            13 => 2,
            _ => 0,
        };
        let expect: Vec<(u64, usize)> = (0..=last).map(|w| (w, sizes(w))).collect();
        assert_eq!(shape(c), expect);
        for (&t, &(_, w, _)) in c.batch_times.iter().zip(&c.batches).skip(1) {
            let global = |t: u64| ahead.stamp(Nanos(t)).unwrap().global.get();
            assert_eq!((global(t.get() - 1), global(t.get())), (w - 1, w));
        }
    }

    #[test]
    fn batching_edge_flush_pushes_the_next_periodic_flush() {
        // 40 ms flushes over 100 ms ticks: each tick edge flushes, and the
        // periodic flush due 20 ms later moves to 40 ms after the edge, so
        // the cadence is kept. An injection at 1.105 s (tick 11) rides the
        // 1.14 s flush.
        let coord = NodeIdx(1);
        let nodes = vec![
            (
                Node::Site(site(coord).with_batching(Nanos::from_millis(40))),
                source(0),
            ),
            (Node::Collector(Collector::default()), source(1)),
        ];
        let mut sim = Simulation::new(nodes, LinkConfig::instant(), 1);
        sim.inject(Nanos::ZERO, NodeIdx(0), Msg::Start);
        inject_at(&mut sim, 1_105);
        sim.run_until(Nanos::from_millis(1_200));
        let Node::Collector(c) = sim.node(coord) else {
            panic!("collector expected")
        };
        let tail: Vec<u64> = c.batch_times[c.batch_times.len() - 7..]
            .iter()
            .map(|t| t.get() / 1_000_000)
            .collect();
        assert_eq!(tail, vec![1_000, 1_040, 1_080, 1_100, 1_140, 1_180, 1_200]);
        let (_, watermark, events) = &c.batches[c.batches.len() - 3];
        assert_eq!((*watermark, events.len()), (11, 1));
        let sizes: usize = c.batches.iter().map(|(_, _, e)| e.len()).sum();
        assert_eq!(sizes, 1);
    }

    #[test]
    fn restarted_site_beacons_from_its_next_tick_edge() {
        // The Hello announces tick 20 at 2.05 s; the new incarnation's
        // first batch is the 2.1 s edge, carrying its tick-20 injection
        // but not the tick-21 one. The dead incarnation's edge timers fire
        // into the void.
        let coord = NodeIdx(1);
        let nodes = vec![
            (Node::Site(site(coord)), source(0)),
            (Node::Collector(Collector::default()), source(1)),
        ];
        let mut sim = Simulation::new(nodes, LinkConfig::instant(), 1);
        sim.inject(Nanos::ZERO, NodeIdx(0), Msg::Start);
        sim.inject(Nanos(1_050_000_000), NodeIdx(0), Msg::Crash);
        sim.inject(Nanos(2_050_000_000), NodeIdx(0), Msg::Restart);
        for ms in [2_070, 2_120] {
            inject_at(&mut sim, ms);
        }
        sim.run_until(Nanos::from_millis(2_140));
        let Node::Collector(c) = sim.node(coord) else {
            panic!("collector expected")
        };
        assert_eq!(c.hellos.len(), 1);
        let (hello_seq, _, hello_wm) = c.hellos[0];
        assert_eq!(hello_wm, 20);
        // Eleven beats before the crash (0 ms to 1 s), then the edge beat.
        let expect: Vec<(u64, usize)> = (0..=10).map(|w| (w, 0)).chain([(21, 1)]).collect();
        assert_eq!(shape(c), expect);
        assert_eq!(c.batches[11].0, hello_seq + 1);
    }

    #[test]
    fn pre_epoch_injection_is_counted_not_sent() {
        // A clock 10 s behind: injections at t < 10 s are dropped.
        let coord = NodeIdx(1);
        let g_local = Granularity::per_second(100).unwrap();
        let base = GlobalTimeBase::new(
            Granularity::per_second(10).unwrap(),
            TruncMode::Floor,
            Precision::from_nanos(1_000_000),
        )
        .unwrap();
        let behind = SiteTimeSource::new(
            0u32.into(),
            LocalClock::with_error(g_local, 0, -10_000_000_000),
            base,
        );
        let nodes = vec![
            (Node::Site(site(coord)), behind),
            (Node::Collector(Collector::default()), source(1)),
        ];
        let mut sim = Simulation::new(nodes, LinkConfig::instant(), 1);
        sim.inject(
            Nanos::from_secs(1),
            NodeIdx(0),
            Msg::Inject {
                ty: EventId(7),
                values: vec![],
            },
        );
        sim.run_to_completion();
        let Node::Site(s) = sim.node(NodeIdx(0)) else {
            panic!()
        };
        assert_eq!(s.dropped_pre_epoch, 1);
    }

    #[test]
    fn crashed_site_ignores_acks() {
        let coord = NodeIdx(1);
        let nodes = vec![
            (Node::Site(site(coord)), source(0)),
            (Node::Collector(Collector::mute()), source(1)),
        ];
        let mut sim = Simulation::new(nodes, LinkConfig::instant(), 1);
        sim.inject(Nanos::ZERO, NodeIdx(0), Msg::Start);
        sim.inject(Nanos(1_050_000_000), NodeIdx(0), Msg::Crash);
        // An ack arriving after the crash (e.g. for the last heartbeat)
        // must not trim the dead incarnation's retransmit buffer.
        sim.inject(
            Nanos(1_200_000_000),
            NodeIdx(0),
            Msg::Ack {
                cum_seq: 1_000,
                epoch: 0,
            },
        );
        sim.run_until(Nanos(1_500_000_000));
        let Node::Site(s) = sim.node(NodeIdx(0)) else {
            panic!()
        };
        assert!(s.unacked() > 0, "ack was processed while crashed");
    }

    /// A gap ack (one that trims nothing and names the window's oldest
    /// message) resends exactly that message, once per sequence number per
    /// incarnation; the timer keeps its own schedule.
    #[test]
    fn gap_ack_resends_only_the_named_message_once() {
        let coord = NodeIdx(1);
        let slow = SiteNode::new(coord, Timeout::from_millis::<1_000>(), Nanos::from_secs(4));
        let nodes = vec![
            (Node::Site(slow), source(0)),
            (Node::Collector(Collector::mute()), source(1)),
        ];
        let mut sim = Simulation::new(nodes, LinkConfig::instant(), 1);
        sim.inject(Nanos::ZERO, NodeIdx(0), Msg::Start);
        let ack = |sim: &mut Simulation<Node>, ms: u64, cum_seq: u64, epoch: u64| {
            sim.inject(
                Nanos::from_millis(ms),
                NodeIdx(0),
                Msg::Ack { cum_seq, epoch },
            );
        };
        // Sequence numbers of the batches that arrived at `ms` (instant
        // links: sent then too).
        let arrived_at = |sim: &Simulation<Node>, ms: u64| -> Vec<u64> {
            let Node::Collector(c) = sim.node(coord) else {
                panic!("collector expected")
            };
            c.batches
                .iter()
                .zip(&c.batch_times)
                .filter(|(_, &t)| t == Nanos::from_millis(ms))
                .map(|((seq, _, _), _)| *seq)
                .collect()
        };
        let counts = |sim: &Simulation<Node>| {
            let Node::Site(s) = sim.node(NodeIdx(0)) else {
                panic!("site expected")
            };
            (s.retransmits, s.gap_resends, s.link.backoff)
        };
        // Start at 0 and the edges at 100 and 200 ms: seqs 0, 1 and 2 are
        // unacked. An ack naming seq 0 resends seq 0 alone; its repeat
        // and an ack from another epoch resend nothing.
        ack(&mut sim, 250, 0, 0);
        ack(&mut sim, 260, 0, 0);
        ack(&mut sim, 270, 0, 1);
        sim.run_until(Nanos::from_millis(280));
        assert_eq!(arrived_at(&sim, 250), vec![0]);
        assert!(arrived_at(&sim, 260).is_empty(), "a repeat resends nothing");
        assert!(arrived_at(&sim, 270).is_empty(), "another epoch's ack");
        let base = Nanos::from_secs(1);
        assert_eq!(counts(&sim), (1, 1, base));
        // The timer still fires on its own schedule: its 1 s round resends
        // the window (seqs 0..=9, or 0..=10 if the 1 s edge went first)
        // and doubles the backoff.
        sim.run_until(Nanos::from_millis(1_050));
        let (timer_round, _, backoff) = counts(&sim);
        assert!((11..=12).contains(&timer_round), "{timer_round}");
        assert_eq!(backoff, Nanos::from_secs(2));
        // An ack that trims resets the backoff; a stale ack below the
        // front resends nothing; the next front (seq 1) gets its own fast
        // resend.
        ack(&mut sim, 1_150, 1, 0);
        ack(&mut sim, 1_155, 0, 0);
        ack(&mut sim, 1_160, 1, 0);
        sim.run_until(Nanos::from_millis(1_170));
        assert!(arrived_at(&sim, 1_150).is_empty(), "a trimming ack");
        assert!(arrived_at(&sim, 1_155).is_empty(), "a stale ack");
        assert_eq!(arrived_at(&sim, 1_160), vec![1]);
        assert_eq!(counts(&sim), (timer_round + 1, 2, base));
        // A non-durable restart reuses seq 1 in epoch 1 (the Hello is seq
        // 0, the 1.4 s edge seq 1): its gap is fast-resent again.
        sim.inject(Nanos::from_millis(1_200), NodeIdx(0), Msg::Crash);
        sim.inject(Nanos::from_millis(1_300), NodeIdx(0), Msg::Restart);
        ack(&mut sim, 1_450, 1, 1);
        ack(&mut sim, 1_460, 1, 1);
        sim.run_until(Nanos::from_millis(1_470));
        assert!(arrived_at(&sim, 1_450).is_empty(), "the Hello's ack trims");
        assert_eq!(arrived_at(&sim, 1_460), vec![1]);
        assert_eq!(counts(&sim), (timer_round + 2, 3, base));
        let Node::Collector(c) = sim.node(coord) else {
            panic!("collector expected")
        };
        assert_eq!(c.hellos, vec![(0, 1, 13)]);
    }

    #[test]
    fn restart_announces_hello_and_resumes_with_new_epoch() {
        let coord = NodeIdx(1);
        let nodes = vec![
            (Node::Site(site(coord)), source(0)),
            (Node::Collector(Collector::default()), source(1)),
        ];
        let mut sim = Simulation::new(nodes, LinkConfig::instant(), 1);
        sim.inject(Nanos::ZERO, NodeIdx(0), Msg::Start);
        sim.inject(
            Nanos(500_000_000),
            NodeIdx(0),
            Msg::Inject {
                ty: EventId(7),
                values: vec![],
            },
        );
        sim.inject(Nanos(1_050_000_000), NodeIdx(0), Msg::Crash);
        sim.inject(Nanos(2_050_000_000), NodeIdx(0), Msg::Restart);
        sim.inject(
            Nanos(2_500_000_000),
            NodeIdx(0),
            Msg::Inject {
                ty: EventId(7),
                values: vec![],
            },
        );
        sim.run_until(Nanos::from_secs(3));
        let Node::Site(s) = sim.node(NodeIdx(0)) else {
            panic!()
        };
        assert_eq!(s.restarts, 1);
        assert_eq!(s.epoch(), 1);
        let Node::Collector(c) = sim.node(coord) else {
            panic!()
        };
        // Exactly one Hello: epoch 1, seq 0 (non-durable restart resets
        // the sequence space), watermark from the live clock.
        assert_eq!(c.hellos.len(), 1, "{:?}", c.hellos);
        let (seq, epoch, wm) = c.hellos[0];
        assert_eq!(seq, 0);
        assert_eq!(epoch, 1);
        assert!(
            wm >= 20,
            "restart at 2.05 s should stamp global ≥ 20, got {wm}"
        );
        // Beacons resumed after the restart, and the old incarnation's
        // chain did not double the cadence: one per tick, 0 to 1 s before
        // the crash and 2.1 s to 3 s after the restart. Both injections
        // made it out (one per incarnation); each landed on a tick edge,
        // just ahead of that edge's flush, so it rides it.
        let expect: Vec<(u64, usize)> = (0..=10)
            .chain(21..=30)
            .map(|w| (w, usize::from(w == 5 || w == 25)))
            .collect();
        assert_eq!(shape(c), expect);
    }

    #[test]
    fn durable_restart_recovers_unacked_window_and_epoch() {
        let dir = std::env::temp_dir().join(format!(
            "decs-site-wal-test-{}-durable-restart",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let coord = NodeIdx(1);
        let mut durable = site(coord);
        durable.set_durability(&dir).unwrap();
        let nodes = vec![
            (Node::Site(durable), source(0)),
            (Node::Collector(Collector::mute()), source(1)),
        ];
        let mut sim = Simulation::new(nodes, LinkConfig::instant(), 1);
        sim.inject(Nanos::ZERO, NodeIdx(0), Msg::Start);
        for dt in [0u64, 100_000_000] {
            sim.inject(
                Nanos(500_000_000 + dt),
                NodeIdx(0),
                Msg::Inject {
                    ty: EventId(7),
                    values: vec![],
                },
            );
        }
        sim.inject(Nanos(1_050_000_000), NodeIdx(0), Msg::Crash);
        sim.inject(Nanos(2_050_000_000), NodeIdx(0), Msg::Restart);
        // Stop before the new incarnation's first retransmission round.
        sim.run_until(Nanos(2_090_000_000));
        let Node::Site(s) = sim.node(NodeIdx(0)) else {
            panic!()
        };
        assert_eq!(s.wal_errors, 0, "{:?}", s.wal_failed());
        assert_eq!(s.epoch(), 1);
        // The crashed incarnation's unacked window (every batch, nothing
        // was ever acked) survived, plus the new Hello.
        assert!(s.unacked() > 2, "recovered {} unacked", s.unacked());
        let Node::Collector(c) = sim.node(coord) else {
            panic!()
        };
        // The Hello continues the recovered sequence space instead of
        // restarting at 0 — no seq collision with the old incarnation.
        // (It is never acked here, so retransmission rounds may repeat
        // it: every copy must agree.)
        assert!(!c.hellos.is_empty());
        assert!(c.hellos.iter().all(|h| *h == c.hellos[0]), "{:?}", c.hellos);
        assert!(c.hellos[0].0 > 0, "durable Hello got seq 0");
        assert_eq!(c.hellos[0].1, 1);
        // The recovered backlog was resent behind the Hello: both batches
        // carrying the old events arrive again after the restart.
        let resent = c
            .batches
            .iter()
            .zip(&c.batch_times)
            .filter(|((_, _, e), &t)| !e.is_empty() && t >= Nanos(2_050_000_000))
            .count();
        assert_eq!(resent, 2, "backlog not resent");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A restarting durable site that cannot read its log (a frame this
    /// build cannot decode, or an I/O error) leaves every byte of it in
    /// place, as a recovering coordinator does, and comes back un-logged:
    /// a new epoch and a fresh sequence space, as a non-durable site.
    #[test]
    fn an_unreadable_log_is_kept_and_the_site_restarts_unlogged() {
        for damage in ["undecodable", "unreadable"] {
            let dir = std::env::temp_dir().join(format!(
                "decs-site-wal-test-{}-{damage}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let coord = NodeIdx(1);
            let mut durable = site(coord);
            durable.set_durability(&dir).unwrap();
            let nodes = vec![
                (Node::Site(durable), source(0)),
                (Node::Collector(Collector::mute()), source(1)),
            ];
            let mut sim = Simulation::new(nodes, LinkConfig::instant(), 1);
            sim.inject(Nanos::ZERO, NodeIdx(0), Msg::Start);
            inject_at(&mut sim, 500);
            sim.inject(Nanos(1_050_000_000), NodeIdx(0), Msg::Crash);
            sim.run_until(Nanos::from_millis(1_500));
            let log = dir.join(crate::durability::WAL_FILE);
            let mut bytes = std::fs::read(&log).unwrap();
            if damage == "undecodable" {
                // Valid frames, then a CRC-valid frame with an unknown
                // record tag, then a valid frame again.
                let payload = [0xEEu8, 0, 1, 2, 3];
                bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
                bytes.extend_from_slice(&crate::durability::crc32(&payload).to_le_bytes());
                bytes.extend_from_slice(&payload);
                bytes.extend_from_slice(&crate::durability::frame_record(&SiteWalRecord::Acked {
                    cum_seq: 1,
                }));
                std::fs::write(&log, &bytes).unwrap();
            } else {
                // A directory where the log should be: reading it fails.
                std::fs::remove_file(&log).unwrap();
                std::fs::create_dir(&log).unwrap();
            }
            sim.inject(Nanos(2_050_000_000), NodeIdx(0), Msg::Restart);
            sim.run_until(Nanos::from_millis(3_000));
            let Node::Site(s) = sim.node(NodeIdx(0)) else {
                panic!()
            };
            assert_eq!(s.wal_errors, 1, "{damage}");
            if damage == "undecodable" {
                let why = s.wal_failed().unwrap();
                assert!(why.contains("cannot decode"), "{why}");
                assert_eq!(std::fs::read(&log).unwrap(), bytes, "the log is kept");
            } else {
                assert!(s.wal_failed().is_some());
                assert!(log.is_dir(), "nothing was written over the log");
            }
            assert_eq!(s.epoch(), 1);
            let Node::Collector(c) = sim.node(coord) else {
                panic!()
            };
            // A fresh sequence space under the new epoch, and the site
            // keeps beaconing.
            assert_eq!(c.hellos[0].0, 0, "{damage}: the Hello restarts at seq 0");
            assert_eq!(c.hellos[0].1, 1);
            let after = c
                .batch_times
                .iter()
                .filter(|&&t| t > Nanos(2_050_000_000))
                .count();
            assert!(after >= 9, "{damage}: {after} batches after the restart");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn durable_site_syncs_once_per_carrying_flush() {
        let dir = std::env::temp_dir().join(format!(
            "decs-site-wal-test-{}-sync-count",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let coord = NodeIdx(1);
        let mut durable = site(coord);
        durable.set_durability(&dir).unwrap();
        let nodes = vec![
            (Node::Site(durable), source(0)),
            (Node::Collector(Collector::mute()), source(1)),
        ];
        let mut sim = Simulation::new(nodes, LinkConfig::instant(), 1);
        sim.inject(Nanos::ZERO, NodeIdx(0), Msg::Start);
        // Three injections: two share tick 10, one has tick 13 to itself.
        let injects = [1_010_000_000u64, 1_030_000_000, 1_350_000_000];
        for at in injects {
            sim.inject(
                Nanos(at),
                NodeIdx(0),
                Msg::Inject {
                    ty: EventId(7),
                    values: vec![],
                },
            );
        }
        // Cumulative acks that each trim the window, so each is logged.
        for (at, cum_seq) in [
            (550_000_000u64, 5u64),
            (1_250_000_000, 12),
            (1_750_000_000, 17),
        ] {
            sim.inject(Nanos(at), NodeIdx(0), Msg::Ack { cum_seq, epoch: 0 });
        }
        let syncs = |sim: &Simulation<Node>| match sim.node(NodeIdx(0)) {
            Node::Site(s) => s.wal_syncs(),
            Node::Collector(_) => unreachable!(),
        };
        // Both tick-10 occurrences are staged but not yet synced: only the
        // Epoch is. The tick edge's batch at 1.1 s commits the pair with
        // one sync.
        sim.run_until(Nanos::from_millis(1_050));
        assert_eq!(syncs(&sim), 1);
        sim.run_until(Nanos::from_millis(1_150));
        assert_eq!(syncs(&sim), 2);
        sim.run_until(Nanos::from_millis(1_950));
        let Node::Collector(c) = sim.node(coord) else {
            panic!()
        };
        // The collector never acks, so it also sees retransmitted copies:
        // count each sequence slot once.
        let flushes: std::collections::BTreeMap<u64, usize> = c
            .batches
            .iter()
            .map(|(seq, _, e)| (*seq, e.len()))
            .collect();
        let sizes: Vec<usize> = flushes.values().copied().filter(|&n| n > 0).collect();
        assert_eq!(sizes, [2, 1], "tick 10's pair shares one batch");
        let carrying = sizes.len();
        assert!(flushes.len() - carrying > 10, "{flushes:?}");
        let Node::Site(s) = sim.node(NodeIdx(0)) else {
            panic!()
        };
        assert_eq!(s.wal_errors, 0, "{:?}", s.wal_failed());
        assert_eq!(s.unacked(), flushes.len() - 17, "all three acks trimmed");
        // One for the Epoch and one per occurrence-carrying flush; none
        // for staged occurrences, empty flushes or acks.
        assert_eq!(s.wal_syncs(), 1 + carrying as u64);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
