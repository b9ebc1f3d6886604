//! The partitioned detection plane: per-replica partition state and the
//! cross-replica release/promise/relay protocol.
//!
//! With `coordinator_replicas = n ≥ 2` the global definitions are split
//! across `n` coordinator replicas (rendezvous-hashed by definition name).
//! Each replica runs a **severed** detector — the cascade that would feed
//! a detection back into downstream definitions is cut, because the
//! downstream definition may live on another replica — and the replica
//! plane re-creates the cascade explicitly: every detection is assigned a
//! **partition key** and either re-fed locally or forwarded to the
//! subscribing replicas as a first-class event ([`Msg::Relay`]).
//!
//! # The partition key
//!
//! [`PartKey`] `= (root, depth, path)` identifies a buffered item's slot
//! in the canonical global release order:
//!
//! * `root` is the release key `(max_global, origin, ordinal)` of the
//!   cascade root — a site-originated notification keyed by its stamp's
//!   maximum global tick, its origin stream, and the site-assigned stamp
//!   **ordinal** (the site's position counter over *all* stamped
//!   occurrences, shared across uplinks, so replicas receiving disjoint
//!   subsets of one site's stream still agree on the interleaving);
//! * `depth` is the cascade depth below the root (0 = the root itself);
//! * `path` is the canonical identity of every cascade step from the root
//!   down to this item — [`PathStep`]s ordered exactly like the
//!   single-coordinator cascade enumerates its per-trigger rounds.
//!
//! The single coordinator's release order (roots by release key; per
//! root, breadth-first cascade rounds sorted canonically per trigger) is
//! precisely lexicographic `PartKey` order, so per-replica detection
//! streams emitted in `PartKey` order merge — by key — into a stream
//! bit-identical to the `n = 1` deployment (`tests/prop_partition.rs`).
//!
//! # The promise protocol
//!
//! Site watermarks order roots, but nothing intrinsic orders a replica's
//! local roots against a peer's in-flight relays. Each replica therefore
//! maintains a **promise vector** `P[1..=max_depth]` — `P[d]` is a
//! [`PlanePos`] strictly below every (non-immediate) depth-`d` relay it
//! will ever send — attached to every `Msg::Relay`. A buffered item
//! releases only when its coarse position is `≤` every peer's
//! whole-vector minimum (and its root is stable under the ordinary
//! watermark rule), so no peer can later relay anything that should have
//! sorted before it.
//!
//! The stratification by depth is what makes the protocol *live*. A
//! scalar promise is inherently circular: my future relays include
//! cascades of your future relays and vice versa, so two idle replicas
//! each cap the other's promise and neither ever advances (the least
//! fixpoint of a mutual `min` is stuck at its seed). Stratified, the
//! recursion is acyclic in `d`, because a cascade step strictly
//! increases depth:
//!
//! * `own = min((min_watermark, 0, 0, 0), buffer minimum)` — every
//!   future cascade of a root not yet received, or of an item still
//!   buffered, is strictly after `own` (a site at watermark `w` delivers
//!   only stamps at `≥ w`; cascades sit at depth ≥ 1, hence strictly
//!   after `(w, 0, 0, 0)`);
//! * `P[1] = own` — depth-1 relays are cascades of roots only, so the
//!   bound needs **no peer term** and always advances with the
//!   watermark;
//! * `P[d] = min(own, min_q peer_P_q[d − 1])` — a depth-`d` relay is the
//!   cascade of some depth-`(d−1)` input, which is either buffered here
//!   (covered by `own`) or a peer's future relay (strictly after the
//!   peer's advertised `P[d − 1]`).
//!
//! The vector is nonincreasing in `d`, so a peer's last element bounds
//! all its future relays — that is the release gate. After quiescence
//! the watermark term propagates one stratum per exchange round:
//! `max_depth` gossip rounds carry every component to `(w, 0, 0, 0)`
//! and the plane drains. This is frontier propagation over the
//! depth-stratified could-result-in order, specialised to the acyclic
//! definition DAG.
//!
//! Promises are monotone (clamped componentwise by `max` against the
//! last sent vector) and a pure promise advance with nothing staged is
//! sent as an empty `Msg::Relay`. Gossip is deliberately **eager** (one
//! relay per peer per advancing release round, not per released item):
//! the stratified frontier advances one stratum per exchange, and a
//! replica's own floor is capped by the peers' *echo* of its earlier
//! strata — so any gossip deferral turns the drain pipeline into a
//! ping-pong crawl of `2 × strata` deferral periods per buffered item.
//! The volume stays scalable because rounds batch: sends per replica are
//! bounded by its consumed messages × peers, while its detection work
//! shrinks with the partition count.
//!
//! Timer-derived detections are the one exception: their stamps sit ahead
//! of the site watermarks, so they bypass the buffer entirely — relays
//! are flagged `immediate`, fed on arrival, and excluded from the promise
//! contract (and from the bit-identity oracle, which covers non-temporal
//! plans).

use super::{CoordCtx, CoordinatorNode, RawDetection};
use crate::protocol::{Msg, PathStep, PlanePos, RelayedEvent, RoutedEvent};
use crate::window::SendWindow;
use decs_chronos::{Nanos, Timeout};
use decs_core::CompositeTimestamp;
use decs_simnet::NodeIdx;
use decs_snoop::{EventId, FeedOutput, Occurrence};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// A buffered item's slot in the canonical global release order:
/// `(root release key, cascade depth, cascade path)`, compared
/// lexicographically (see the module docs).
pub(crate) type PartKey = ((u64, u32, u64), u32, Vec<PathStep>);

/// The coarse (path-free) position of a partition key — the granularity
/// at which promises bound the future.
pub(crate) fn coarse(key: &PartKey) -> PlanePos {
    PlanePos {
        g: key.0 .0,
        site: key.0 .1,
        ordinal: key.0 .2,
        depth: key.1,
    }
}

/// One peer's outbound relay stream: sequence counter, the relays staged
/// for the next flush, and the sent-but-unacked window (resent by the
/// relay retransmission round; trimmed by the peer's cumulative
/// acks).
#[derive(Debug, Default)]
pub(crate) struct OutRelay {
    pub(crate) next_seq: u64,
    pub(crate) staged: Vec<RelayedEvent>,
    pub(crate) unacked: SendWindow,
}

/// Everything a coordinator replica adds on top of the classic
/// coordinator: the catalog translation tables, the partitioned stability
/// buffer, and the peer promise/relay state.
#[derive(Debug)]
pub(crate) struct PartitionState {
    /// This replica's index in `0..n_replicas`.
    pub(crate) replica: usize,
    /// Leaf sites (stream indices `0..n_sites`; peers occupy
    /// `n_sites..n_sites + n_replicas`).
    pub(crate) n_sites: usize,
    /// Total coordinator replicas.
    pub(crate) n_replicas: usize,
    /// Replica-local event id → full-catalog id.
    pub(crate) to_global: Vec<u32>,
    /// Full-catalog event id → replica-local id (input and owned types
    /// only).
    pub(crate) to_local: HashMap<u32, u32>,
    /// Full-catalog composite type → bitmask of replicas whose
    /// definitions subscribe to it (may include this replica: a local
    /// cross-definition reference re-feeds through the buffer instead of
    /// the wire). A mask rather than a list so the per-detection consumer
    /// walk allocates nothing.
    pub(crate) fwd: HashMap<u32, u64>,
    /// Full-catalog type → bitmask of *peer* replicas the type's cascade
    /// closure inside this replica can forward to (absent = reaches no
    /// peer). Compile-time-derived; drives subscription-filtered
    /// promises.
    pub(crate) reach: HashMap<u32, u64>,
    /// Union of `reach`: every peer this replica can ever relay anything
    /// to. Promises are only gossiped along these edges — a peer outside
    /// the mask never waits on this replica.
    pub(crate) reach_peers: u64,
    /// The converse: bitmask of peers that can ever relay to *this*
    /// replica. Only their bounds gate releases, floor GC, and the
    /// stratified promise folds; with no gaters the replica releases on
    /// watermark stability alone, fully decoupled from the plane.
    pub(crate) gaters: u64,
    /// The partitioned stability buffer (replaces the classic
    /// `ReleaseKey` buffer): roots *and* relayed cascade items, ordered
    /// by partition key.
    pub(crate) pbuffer: BTreeMap<PartKey, (Occurrence<CompositeTimestamp>, Nanos)>,
    /// Per peer `q`, the refcounted coarse positions of buffered items
    /// whose type can reach `q` (own slot unused). The first key is the
    /// only buffered position that must clamp the promise sent to `q`:
    /// items that cannot forward to `q` never produce a `q`-bound relay,
    /// so they are invisible to `q`'s release gate.
    pub(crate) pending: Vec<BTreeMap<PlanePos, u32>>,
    /// Per-peer depth-stratified promise bounds: `peer_bound[q][d - 1]`
    /// lower-bounds peer `q`'s future depth-`d` relays (this replica's
    /// own slot stays all-[`PlanePos::MAX`] so it never gates a release).
    pub(crate) peer_bound: Vec<Vec<PlanePos>>,
    /// Per-peer outbound relay streams (own slot unused).
    pub(crate) out: Vec<OutRelay>,
    /// The largest engine-facing promise vector ever computed (the merge
    /// cut's monotone clamp; unfiltered — every buffered item yields
    /// detections, so the engine floor clamps at the full buffer head).
    pub(crate) last_promise: Vec<PlanePos>,
    /// Per peer, the largest promise vector ever sent to it (promises
    /// are monotone componentwise per destination; own slot unused).
    pub(crate) last_sent: Vec<Vec<PlanePos>>,
    /// Partition key of every entry in `detections`, index-aligned —
    /// the engine merges replica streams by key. Truncated in lockstep
    /// with `detections` by `WalRecord::Drained` replay.
    pub(crate) keys: Vec<PartKey>,
    /// Counter minting unique root ordinals for coordinator-clock timer
    /// fires (their roots are keyed `(g, n_sites + replica, ordinal)`).
    pub(crate) fire_ordinal: u64,
    /// Set when anything promise-relevant changed: a peer bound fold, a
    /// pending-set mutation, or a staged relay. Together with a watermark
    /// check this lets `advance_promise` skip recomputation on the bulk
    /// of consumed messages — heartbeats between watermark ticks and
    /// purely intra-partition traffic.
    pub(crate) promise_stale: bool,
    /// Set whenever an item was fed through the severed detector since
    /// the last operator-occupancy sample; lets the release round skip
    /// the full buffer walk when nothing could have changed.
    pub(crate) fed_since_sample: bool,
    /// The watermark `advance_promise` last ran against.
    pub(crate) last_w: u64,
    /// Period of the relay retransmission round.
    pub(crate) relay_retx: Timeout,
    /// True time the armed relay retransmission round is due; `None`
    /// while every relay window is empty and no round is armed.
    pub(crate) relay_due: Option<Nanos>,
}

impl PartitionState {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        replica: usize,
        n_sites: usize,
        n_replicas: usize,
        to_global: Vec<u32>,
        to_local: HashMap<u32, u32>,
        fwd: HashMap<u32, u64>,
        reach: HashMap<u32, u64>,
        reach_peers: u64,
        gaters: u64,
        max_depth: u32,
        relay_retx: Timeout,
    ) -> Self {
        let strata = max_depth.max(1) as usize;
        let mut peer_bound = vec![vec![PlanePos::MIN; strata]; n_replicas];
        peer_bound[replica] = vec![PlanePos::MAX; strata];
        PartitionState {
            replica,
            n_sites,
            n_replicas,
            to_global,
            to_local,
            fwd,
            reach,
            reach_peers,
            gaters,
            pbuffer: BTreeMap::new(),
            pending: vec![BTreeMap::new(); n_replicas],
            peer_bound,
            out: (0..n_replicas).map(|_| OutRelay::default()).collect(),
            last_promise: vec![PlanePos::MIN; strata],
            last_sent: vec![vec![PlanePos::MIN; strata]; n_replicas],
            keys: Vec::new(),
            fire_ordinal: 0,
            promise_stale: true,
            fed_since_sample: false,
            last_w: 0,
            relay_retx,
            relay_due: None,
        }
    }

    /// Arm the relay retransmission round for the next multiple of its
    /// period: the instants a round that never stopped would fire at, so
    /// stopping it removes only fires with nothing to resend.
    fn arm_relay_round(&mut self, ctx: &mut impl CoordCtx) {
        let period = self.relay_retx.get().get();
        let now = ctx.true_now().get();
        let delay = period - now % period;
        self.relay_due = Some(Nanos(now.saturating_add(delay)));
        ctx.set_timer(Nanos(delay), super::RELAY_RETX_TAG);
    }

    /// Strict lower bound on *everything* peer `q` will ever relay: the
    /// minimum of its promise vector — its last element, since promise
    /// vectors are nonincreasing in depth.
    fn peer_floor(&self, q: usize) -> PlanePos {
        *self.peer_bound[q].last().expect("nonempty promise")
    }

    /// Record a newly buffered item in the per-peer pending sets of every
    /// peer its type can reach.
    fn note_pending(&mut self, ty: u32, pos: PlanePos) {
        let mask = self.reach.get(&ty).copied().unwrap_or(0);
        if mask == 0 {
            return;
        }
        self.promise_stale = true;
        for q in 0..self.n_replicas {
            if q != self.replica && mask & (1 << q) != 0 {
                *self.pending[q].entry(pos).or_insert(0) += 1;
            }
        }
    }

    /// Drop a released item from the per-peer pending sets.
    fn drop_pending(&mut self, ty: u32, pos: PlanePos) {
        let mask = self.reach.get(&ty).copied().unwrap_or(0);
        if mask == 0 {
            return;
        }
        self.promise_stale = true;
        for q in 0..self.n_replicas {
            if q != self.replica && mask & (1 << q) != 0 {
                match self.pending[q].get_mut(&pos) {
                    Some(n) if *n > 1 => *n -= 1,
                    Some(_) => {
                        self.pending[q].remove(&pos);
                    }
                    None => debug_assert!(false, "pending underflow"),
                }
            }
        }
    }
}

impl CoordinatorNode {
    /// Buffer one subscription-routed notification from `site` under its
    /// root partition key. The partitioned analogue of
    /// `accept_notification` — the same stale-horizon refusal applies,
    /// and the root key's ordinal is the *site's* stamp counter rather
    /// than a per-coordinator arrival counter (replicas seeing disjoint
    /// subsets of the stream must still agree on the interleaving).
    pub(super) fn accept_routed(&mut self, site: usize, ev: RoutedEvent, ctx: &mut impl CoordCtx) {
        let g = ev.occ.time.max_global();
        if g < self.release_horizon {
            self.metrics.stale_refused += 1;
            return;
        }
        self.debug_assert_promise(site, g);
        self.metrics.events_received += 1;
        let now = ctx.true_now();
        let key: PartKey = ((g, site as u32, ev.ordinal), 0, Vec::new());
        let len = {
            let part = self.part.as_mut().expect("partitioned");
            part.note_pending(ev.occ.ty.0, coarse(&key));
            part.pbuffer.insert(key, (ev.occ, now));
            part.pbuffer.len()
        };
        self.metrics.max_buffered = self.metrics.max_buffered.max(len);
    }

    /// Consume one in-order `Msg::Relay` from the peer behind stream
    /// index `stream`: raise its promise bound, buffer (or, for
    /// immediate relays, feed) the forwarded events, then run a release
    /// round — the bound advance may have unlocked the buffer head, and
    /// this replica's own promise may move in response.
    pub(super) fn handle_relay(
        &mut self,
        stream: usize,
        promise: &[PlanePos],
        events: Arc<Vec<RelayedEvent>>,
        ctx: &mut impl CoordCtx,
    ) {
        let now = ctx.true_now();
        let immediates = {
            let part = self.part.as_mut().expect("partitioned");
            let q = stream - part.n_sites;
            debug_assert!(q < part.n_replicas && q != part.replica, "bad relay peer");
            debug_assert_eq!(promise.len(), part.peer_bound[q].len(), "promise strata");
            let mut folded = false;
            for (b, &p) in part.peer_bound[q].iter_mut().zip(promise) {
                if p > *b {
                    *b = p;
                    folded = true;
                }
            }
            // A duplicate (retransmitted) relay that advances nothing and
            // carries nothing leaves the release gate, the promise, and
            // the buffer untouched — skip the round entirely.
            if !folded && events.is_empty() {
                return;
            }
            part.promise_stale = true;
            let mut immediates = Vec::new();
            for ev in events.iter() {
                let key: PartKey = (ev.root, ev.depth, ev.path.clone());
                if ev.immediate {
                    immediates.push((key, ev.occ.clone()));
                } else {
                    part.note_pending(ev.occ.ty.0, coarse(&key));
                    part.pbuffer.insert(key, (ev.occ.clone(), now));
                }
            }
            immediates
        };
        self.metrics.relays_received += events.len() as u64;
        for (key, occ) in immediates {
            self.feed_partitioned(key, occ, true, ctx);
        }
        self.release_partitioned(ctx);
    }

    /// Trim peer `q`'s unacked relay window up to its cumulative ack.
    pub(super) fn on_peer_ack(&mut self, stream: usize, cum_seq: u64) {
        let part = self.part.as_mut().expect("partitioned");
        let q = stream - part.n_sites;
        if q >= part.n_replicas {
            return;
        }
        part.out[q].unacked.ack(cum_seq);
    }

    /// The partitioned release round: drain the buffer head while it is
    /// releasable — root stable under the watermark rule *and* coarse
    /// position at or below every peer's promise — feeding each item
    /// through the severed detector and cascading its detections
    /// explicitly. Then collect operator garbage, advance this replica's
    /// promise, and flush staged relays.
    pub(super) fn release_partitioned(&mut self, ctx: &mut impl CoordCtx) {
        let mut fed = false;
        while let Some(pos) = {
            let part = self.part.as_ref().expect("partitioned");
            part.pbuffer.first_key_value().map(|(k, _)| coarse(k))
        } {
            if !self.tracker.is_stable(pos.g) {
                break;
            }
            let released = {
                let part = self.part.as_ref().expect("partitioned");
                (0..part.n_replicas).all(|q| {
                    q == part.replica || part.gaters & (1 << q) == 0 || pos <= part.peer_floor(q)
                })
            };
            if !released {
                break;
            }
            let (key, occ, arrived) = {
                let part = self.part.as_mut().expect("partitioned");
                let (key, (occ, arrived)) = part.pbuffer.pop_first().expect("present");
                part.drop_pending(occ.ty.0, pos);
                (key, occ, arrived)
            };
            self.release_horizon = self.release_horizon.max(pos.g + 1);
            self.metrics.events_released += 1;
            self.metrics.stability_latency_sum_ns +=
                u128::from(ctx.true_now().get().saturating_sub(arrived.get()));
            self.feed_partitioned(key, occ, false, ctx);
            fed = true;
        }
        if fed {
            self.metrics.release_batches += 1;
        }
        self.gc_partitioned();
        if self.part.as_ref().expect("partitioned").fed_since_sample {
            self.part.as_mut().expect("partitioned").fed_since_sample = false;
            self.sample_occupancy();
        }
        self.advance_promise(ctx);
    }

    /// Feed one released (or immediate) item through the severed
    /// detector: translate its type into the replica catalog, feed, and
    /// cascade the resulting detections under `key`. Parameter tuples
    /// keep their full-catalog source ids end to end — only the
    /// occurrence's routing type crosses the translation boundary.
    fn feed_partitioned(
        &mut self,
        key: PartKey,
        occ: Occurrence<CompositeTimestamp>,
        immediate: bool,
        ctx: &mut impl CoordCtx,
    ) {
        let local = {
            let part = self.part.as_ref().expect("partitioned");
            match part.to_local.get(&occ.ty.0) {
                Some(&l) => EventId(l),
                None => {
                    debug_assert!(false, "unsubscribed type routed to replica");
                    return;
                }
            }
        };
        let r = self.detector.feed(Occurrence {
            ty: local,
            time: occ.time,
            params: occ.params,
            uid: occ.uid,
        });
        self.part.as_mut().expect("partitioned").fed_since_sample = true;
        self.absorb_partitioned(r, &key, immediate, ctx);
    }

    /// The partitioned analogue of `absorb`: arm requested timers, and
    /// assign every detection of this (severed, single-trigger) round its
    /// partition key — parent path extended by the detection's canonical
    /// step — then report it, forward it to subscribing peers, and
    /// re-buffer (or, in immediate mode, recursively feed) it locally
    /// when this replica's own definitions subscribe.
    fn absorb_partitioned(
        &mut self,
        r: FeedOutput<CompositeTimestamp>,
        parent: &PartKey,
        immediate: bool,
        ctx: &mut impl CoordCtx,
    ) {
        for (shard, t) in r.timers {
            let tag = self.next_tag;
            self.next_tag += 1;
            let delay = Nanos(t.delay_ticks * self.gg_nanos);
            self.timer_map.insert(tag, (shard, t.id));
            self.timer_due
                .insert(tag, ctx.true_now().get().saturating_add(delay.get()));
            ctx.set_timer(delay, tag);
        }
        let now = ctx.true_now();
        let mut deferred: Vec<(PartKey, Occurrence<CompositeTimestamp>)> = Vec::new();
        for (i, det) in r.detected.iter().enumerate() {
            let (global_ty, consumers) = {
                let part = self.part.as_ref().expect("partitioned");
                let ty = part.to_global[det.ty.0 as usize];
                (ty, part.fwd.get(&ty).copied().unwrap_or(0))
            };
            // Index among equal (time, type) detections of the same
            // round: the tie-breaker that keeps the path order total.
            let dup = r.detected[..i]
                .iter()
                .filter(|d| d.ty == det.ty && d.time == det.time)
                .count() as u32;
            let mut path = parent.2.clone();
            path.push(PathStep {
                time: det.time.clone(),
                ty: global_ty,
                dup,
            });
            let child: PartKey = (parent.0, parent.1 + 1, path);
            let occ = Occurrence {
                ty: EventId(global_ty),
                time: det.time.clone(),
                params: det.params.clone(),
                uid: det.uid,
            };
            self.metrics.detections += 1;
            self.detections.push(RawDetection {
                occ: occ.clone(),
                detected_at: now,
            });
            self.part
                .as_mut()
                .expect("partitioned")
                .keys
                .push(child.clone());
            let mut cmask = consumers;
            while cmask != 0 {
                let c = cmask.trailing_zeros() as usize;
                cmask &= cmask - 1;
                let part = self.part.as_mut().expect("partitioned");
                if c == part.replica {
                    if immediate {
                        deferred.push((child.clone(), occ.clone()));
                    } else {
                        part.note_pending(global_ty, coarse(&child));
                        part.pbuffer.insert(child.clone(), (occ.clone(), now));
                    }
                } else {
                    self.metrics.relay_events += 1;
                    part.promise_stale = true;
                    part.out[c].staged.push(RelayedEvent {
                        root: child.0,
                        depth: child.1,
                        path: child.2.clone(),
                        immediate,
                        occ: occ.clone(),
                    });
                }
            }
        }
        for (key, occ) in deferred {
            self.feed_partitioned(key, occ, true, ctx);
        }
    }

    /// The shared promise shape, computed into `out` (allocation-free on
    /// the hot path): `P[1]` is the own-input term alone (noncircular —
    /// it always advances with the watermark); `P[d]` additionally folds
    /// in every peer's advertised `P[d − 1]` (see the module docs for
    /// the stratification argument). Clamped monotone componentwise
    /// against `last`.
    fn promise_into(&self, head: Option<PlanePos>, last: &[PlanePos], out: &mut Vec<PlanePos>) {
        let part = self.part.as_ref().expect("partitioned");
        // Roots not yet received sit at `g ≥ min_watermark` (a site at
        // watermark `w` promises stamps at `≥ w`). Their cascade
        // detections/relays are at depth ≥ 1, hence strictly after
        // `(w, 0, 0, 0)`.
        let mut own = PlanePos {
            g: self.tracker.min_watermark(),
            site: 0,
            ordinal: 0,
            depth: 0,
        };
        if let Some(h) = head {
            own = own.min(h);
        }
        out.clear();
        out.resize(last.len(), own);
        for (d, slot) in out.iter_mut().enumerate().skip(1) {
            for q in 0..part.n_replicas {
                if q != part.replica && part.gaters & (1 << q) != 0 {
                    *slot = (*slot).min(part.peer_bound[q][d - 1]);
                }
            }
        }
        for (slot, &prev) in out.iter_mut().zip(last) {
            *slot = (*slot).max(prev);
        }
    }

    /// The engine-facing promise vector: the own term clamps at the full
    /// buffer head, because *every* buffered item yields detections the
    /// engine's merge must wait for.
    pub(crate) fn current_promise(&self) -> Vec<PlanePos> {
        let part = self.part.as_ref().expect("partitioned");
        let head = part.pbuffer.first_key_value().map(|(k, _)| coarse(k));
        let mut p = Vec::new();
        self.promise_into(head, &part.last_promise, &mut p);
        p
    }

    /// Strict lower bound on every future (non-immediate) detection and
    /// relay of this replica: the engine's merge cut.
    pub(crate) fn promise_floor(&self) -> PlanePos {
        *self.current_promise().last().expect("nonempty promise")
    }

    /// Recompute the engine-facing promise and each peer's
    /// **subscription-filtered** promise; flush every peer stream that
    /// has staged relays (the latest promise rides along) or whose
    /// promise advanced. The per-peer own term clamps only at the
    /// earliest buffered item whose type's cascade closure can forward
    /// to that peer — items that cannot reach it never produce a relay
    /// it must wait for, so with sparse cross-partition coupling whole
    /// watermark ticks of independent items release in one exchange
    /// instead of one item per gossip round trip. The stratified fold
    /// stays unfiltered: relay-sourced cascades are bounded through the
    /// peers' own advertised strata, whatever their types.
    ///
    /// A *pure* promise advance with nothing staged is still sent
    /// eagerly — the peers' release gates wait on it, and a replica's
    /// own floor is capped by the peers' *echo* of its earlier strata,
    /// so deferring gossip to a timer would stretch every
    /// cross-partition item's release into `2 × strata` deferral
    /// periods. The whole round is skipped when nothing
    /// promise-relevant changed since the last run (the common case for
    /// heartbeats between watermark ticks and for purely
    /// intra-partition traffic).
    fn advance_promise(&mut self, ctx: &mut impl CoordCtx) {
        let w = self.tracker.min_watermark();
        let (peers, me, strata) = {
            let part = self.part.as_mut().expect("partitioned");
            if !part.promise_stale && part.last_w == w {
                return;
            }
            part.promise_stale = false;
            part.last_w = w;
            (part.n_replicas, part.replica, part.last_promise.len())
        };
        let p = self.current_promise();
        self.part.as_mut().expect("partitioned").last_promise = p;
        let mut scratch: Vec<PlanePos> = Vec::with_capacity(strata);
        for q in 0..peers {
            if q == me {
                continue;
            }
            // A peer this replica can never relay to never waits on its
            // promise — nothing to gossip (and nothing can be staged).
            let unreachable = {
                let part = self.part.as_ref().expect("partitioned");
                let unreachable = part.reach_peers & (1 << q) == 0;
                debug_assert!(!unreachable || part.out[q].staged.is_empty());
                unreachable
            };
            if unreachable {
                continue;
            }
            let send = {
                let part = self.part.as_ref().expect("partitioned");
                let head = part.pending[q].keys().next().copied();
                self.promise_into(head, &part.last_sent[q], &mut scratch);
                !part.out[q].staged.is_empty() || scratch[..] != part.last_sent[q][..]
            };
            if send {
                self.part.as_mut().expect("partitioned").last_sent[q].copy_from_slice(&scratch);
                self.send_relay(q, ctx);
            }
        }
    }

    /// Flush peer `q`'s staged relays (possibly none — a pure promise
    /// advance) as one sequence-numbered `Msg::Relay`, retained in the
    /// unacked window for retransmission, arming the retransmission round.
    fn send_relay(&mut self, q: usize, ctx: &mut impl CoordCtx) {
        let (node, msg) = {
            let part = self.part.as_mut().expect("partitioned");
            if part.relay_due.is_none() {
                part.arm_relay_round(ctx);
            }
            let promise = part.last_sent[q].clone();
            let node = NodeIdx((part.n_sites + q) as u32);
            let out = &mut part.out[q];
            let seq = out.next_seq;
            out.next_seq += 1;
            let msg = Msg::Relay {
                seq,
                promise,
                events: Arc::new(std::mem::take(&mut out.staged)),
            };
            out.unacked.push(seq, msg.clone());
            (node, msg)
        };
        self.metrics.relays_sent += 1;
        ctx.send(node, msg);
    }

    /// The relay retransmission round: resend every unacked relay on
    /// every peer stream (the peer dedups by sequence number and re-acks)
    /// and re-arm, or stop once every window is empty. A fire before the
    /// due time was armed by a crashed incarnation and is ignored.
    pub(super) fn relay_retx_round(&mut self, ctx: &mut impl CoordCtx) {
        let now = ctx.true_now();
        let mut resend: Vec<(NodeIdx, Msg)> = Vec::new();
        {
            let part = self.part.as_mut().expect("partitioned");
            if part.relay_due.is_none_or(|due| now < due) {
                return;
            }
            part.relay_due = None;
            for q in 0..part.n_replicas {
                if q == part.replica {
                    continue;
                }
                let node = NodeIdx((part.n_sites + q) as u32);
                for msg in part.out[q].unacked.messages() {
                    resend.push((node, msg.clone()));
                }
            }
            if !resend.is_empty() {
                part.arm_relay_round(ctx);
            }
        }
        self.metrics.relay_retransmits += resend.len() as u64;
        for (node, msg) in resend {
            ctx.send(node, msg);
        }
    }

    /// Operator-buffer GC under partitioning: the classic
    /// `min_watermark − 1` low bound additionally floors at every peer's
    /// promise and the buffer head — future relayed feeds can reach back
    /// to the peer bounds, which may trail this replica's own watermark
    /// view. Each term bounds a future feed's `max_global` from below, and
    /// its members sit at most one tick lower (Theorem 5.1).
    fn gc_partitioned(&mut self) {
        let mut low = self.tracker.min_watermark();
        {
            let part = self.part.as_ref().expect("partitioned");
            for q in 0..part.n_replicas {
                if q != part.replica && part.gaters & (1 << q) != 0 {
                    low = low.min(part.peer_floor(q).g);
                }
            }
            if let Some((k, _)) = part.pbuffer.first_key_value() {
                low = low.min(k.0 .0);
            }
        }
        let low = low.saturating_sub(1);
        if low > self.last_gc_low {
            self.last_gc_low = low;
            self.release_horizon = self.release_horizon.max(low + 1);
            self.metrics.gc_evicted += self.detector.advance_watermark(low);
        }
    }

    /// Sample operator-buffer occupancy into the metrics. Walks every
    /// operator node, so the partitioned release round only calls it
    /// after feeding something — occupancy cannot change on a round that
    /// released nothing.
    fn sample_occupancy(&mut self) {
        self.metrics.node_buffered = self.detector.buffered_occupancy();
        self.metrics.node_buffer_peak = self
            .metrics
            .node_buffer_peak
            .max(self.metrics.node_buffered);
    }

    /// Service a detector timer fire with a coordinator-clock stamp —
    /// shared by the live timer path and WAL replay. Partitioned
    /// replicas run the cascade in **immediate mode**: the stamp sits
    /// ahead of the site watermarks, so buffering it for stability would
    /// deadlock; detections are reported, relayed (flagged immediate)
    /// and re-fed on the spot, keyed under a fresh coordinator-clock
    /// root `(g, n_sites + replica, fire_ordinal)`.
    pub(super) fn fire_detector_timer(
        &mut self,
        shard: decs_snoop::ShardId,
        timer_id: decs_snoop::TimerId,
        ts: CompositeTimestamp,
        ctx: &mut impl CoordCtx,
    ) {
        let g = ts.max_global();
        self.metrics.timer_fires += 1;
        let r = match self.detector.fire_timer(shard, timer_id, ts) {
            Ok(r) => r,
            Err(_) => {
                debug_assert!(false, "detector rejected timer");
                return;
            }
        };
        if self.part.is_some() {
            let root = {
                let part = self.part.as_mut().expect("partitioned");
                let ordinal = part.fire_ordinal;
                part.fire_ordinal += 1;
                (g, (part.n_sites + part.replica) as u32, ordinal)
            };
            let parent: PartKey = (root, 0, Vec::new());
            self.absorb_partitioned(r, &parent, true, ctx);
            self.advance_promise(ctx);
        } else {
            self.absorb(r, ctx);
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{Engine, EngineConfig};
    use decs_chronos::{Granularity, Nanos};
    use decs_simnet::ScenarioBuilder;
    use decs_snoop::{Context, EventExpr as E};

    /// Release rounds over 3 sites and `replicas` coordinators: `(rounds,
    /// events released)`.
    fn rounds(replicas: usize) -> (u64, u64) {
        let scenario = ScenarioBuilder::new(3, 5)
            .global_granularity(Granularity::per_second(10).unwrap())
            .max_offset_ns(1_000_000)
            .build()
            .unwrap();
        let seq = |a, b| E::seq(E::prim(a), E::prim(b));
        let defs = [
            ("AB", seq("A", "B"), Context::Chronicle),
            ("BC", seq("B", "C"), Context::Chronicle),
            ("CD", seq("C", "D"), Context::Recent),
            ("DA", seq("D", "A"), Context::Recent),
        ];
        let config = EngineConfig {
            coordinator_replicas: replicas,
            ..EngineConfig::default()
        };
        let mut e = Engine::new(&scenario, config, &["A", "B", "C", "D"], &defs).unwrap();
        for i in 0..400u64 {
            let ty = ["A", "B", "C", "D"][(i % 4) as usize];
            let at = Nanos(100_000_000 + i * 5_000_000);
            e.inject(at, (i % 3) as u32, ty, vec![]).unwrap();
        }
        e.run_for(Nanos::from_secs(5));
        let m = e.metrics();
        (m.release_batches, m.events_released)
    }

    /// Replicas count a release round whenever it feeds at least one
    /// notification, as the single coordinator does.
    #[test]
    fn partitioned_release_rounds_are_counted() {
        let (single, single_released) = rounds(1);
        assert!(single > 0 && single < single_released);
        let (rounds, released) = rounds(2);
        assert!(released > 0);
        assert!(
            rounds > 0 && rounds < released,
            "{rounds} rounds for {released} released events"
        );
    }
}
