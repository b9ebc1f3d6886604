//! Messages exchanged between sites and the coordinator (and, in a
//! partitioned deployment, between coordinator replicas).

use decs_core::CompositeTimestamp;
use decs_snoop::{EventId, EventTime, Occurrence, Value};
use std::cmp::Ordering;
use std::sync::Arc;

/// One stamped occurrence on a subscription-routed uplink, tagged with the
/// site's own **stamp ordinal** — the position of this occurrence in the
/// site's total stamping order across *all* uplinks. Replicas use it to
/// rebuild the canonical release order: two replicas receiving disjoint
/// subsets of one site's stream still agree on the global interleaving.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutedEvent {
    /// Position in the site's stamping order (all uplinks, one counter).
    pub ordinal: u64,
    /// The stamped occurrence (singleton composite timestamp).
    pub occ: Occurrence<CompositeTimestamp>,
}

/// One cascade step in a detection's derivation path: the canonical-order
/// identity of the named composite detected at that step. Ordered by
/// `(canonical timestamp, full-catalog type id, duplicate index)` — exactly
/// the within-round order of the detectors' canonical merge, so path
/// vectors compare the way the single-coordinator cascade enumerates.
#[derive(Debug, Clone, PartialEq)]
pub struct PathStep {
    /// The detection's composite timestamp.
    pub time: CompositeTimestamp,
    /// The detection's event type, in the **full** (unpartitioned) catalog.
    pub ty: u32,
    /// Index among equal `(time, ty)` detections of the same round.
    pub dup: u32,
}

impl Eq for PathStep {}

impl PartialOrd for PathStep {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for PathStep {
    fn cmp(&self, other: &Self) -> Ordering {
        // `canonical_cmp` is a total order consistent with `PartialEq`
        // (normalized member lists compare lexicographically).
        self.time
            .canonical_cmp(&other.time)
            .then(self.ty.cmp(&other.ty))
            .then(self.dup.cmp(&other.dup))
    }
}

/// A coordinate in the partitioned detection plane's global release order:
/// `(root global tick, root origin site, root ordinal, cascade depth)`,
/// compared lexicographically. A replica's **promise** is a vector of
/// `PlanePos` bounds, one per cascade depth, such that every depth-`d`
/// relay it will ever send is strictly after the depth-`d` bound — the
/// replica-plane analogue of a site watermark (see
/// `coordinator::partition` for the stratification argument).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct PlanePos {
    /// Root release key: maximum global tick.
    pub g: u64,
    /// Root release key: origin stream (site id, or `n_sites + replica`
    /// for coordinator-clock timer roots).
    pub site: u32,
    /// Root release key: the origin's stamp ordinal.
    pub ordinal: u64,
    /// Cascade depth below the root.
    pub depth: u32,
}

impl PlanePos {
    /// The largest possible position (an empty promise bound).
    pub const MAX: PlanePos = PlanePos {
        g: u64::MAX,
        site: u32::MAX,
        ordinal: u64::MAX,
        depth: u32::MAX,
    };

    /// The smallest possible position.
    pub const MIN: PlanePos = PlanePos {
        g: 0,
        site: 0,
        ordinal: 0,
        depth: 0,
    };
}

/// A cross-partition composite event, replica → replica: a named composite
/// detected on the sending replica, forwarded as a first-class event (full
/// composite timestamp riding along, so Definition 5.x semantics hold at
/// the receiver) together with its position in the canonical cascade order.
#[derive(Debug, Clone, PartialEq)]
pub struct RelayedEvent {
    /// Release key of the cascade root this detection derives from.
    pub root: (u64, u32, u64),
    /// Cascade depth below the root (≥ 1; equals `path.len()`).
    pub depth: u32,
    /// The canonical identities of every cascade step from the root's
    /// first derived detection down to this one.
    pub path: Vec<PathStep>,
    /// True for detections derived from a coordinator-clock timer fire:
    /// their stamps sit *ahead* of the site watermarks, so the receiver
    /// feeds them immediately instead of buffering for stability.
    pub immediate: bool,
    /// The detection itself, typed in the **full** catalog.
    pub occ: Occurrence<CompositeTimestamp>,
}

/// The wire protocol. Every site→coordinator message carries a per-site
/// sequence number so the coordinator can reassemble FIFO order over a
/// reordering network, plus the site's **incarnation epoch** so messages
/// from a dead incarnation (whose sequence space may conflict with the
/// current one after a non-durable restart) are filtered instead of
/// corrupting reassembly.
#[derive(Debug, Clone, PartialEq)]
pub enum Msg {
    /// Engine control, delivered at simulation start: a site starts
    /// heartbeating, a coordinator replica arms its relay retransmission
    /// round.
    Start,
    /// External workload: a primitive event of type `ty` happened *here*,
    /// with these parameters. The receiving site stamps it with its clock.
    Inject {
        /// The primitive event type.
        ty: EventId,
        /// Event parameters.
        values: Vec<Value>,
    },
    /// The one site → coordinator notification: every occurrence the site
    /// stamped since its previous flush plus the watermark at flush time.
    /// A site flushes at each tick edge (and, with a positive
    /// `batch_interval`, periodically between edges); an empty batch is
    /// the site's heartbeat. One sequence number covers the whole batch
    /// on the per-site stream.
    Batch {
        /// Per-site sequence number (shared stream).
        seq: u64,
        /// The sender's incarnation epoch.
        epoch: u64,
        /// The site's global tick at flush time; every event the site will
        /// ever send after this batch has global tick ≥ `watermark`.
        watermark: u64,
        /// The coalesced occurrences, in site send order. Shared via
        /// `Arc` so retransmit-buffer retention, WAL logging and local
        /// loopback clone the whole payload by reference-count bump
        /// instead of deep-copying every occurrence.
        events: Arc<Vec<Occurrence<CompositeTimestamp>>>,
    },
    /// Cumulative acknowledgement, coordinator → site: every message with
    /// sequence number `< cum_seq` has been delivered (in order). The site
    /// trims its retransmit buffer on receipt. Sent once per in-order
    /// delivery (a drain of parked successors included) and on every
    /// duplicate, never periodically: a lost ack is covered by the next
    /// one or by the re-ack of the retransmission it failed to suppress.
    /// Every sequenced message carries a watermark or promise, so each
    /// one is worth an ack.
    Ack {
        /// The next sequence number the coordinator expects.
        cum_seq: u64,
        /// The incarnation epoch the ack is scoped to. A site ignores acks
        /// carrying a different epoch: after a restart its sequence space
        /// is fresh, and an old-epoch ack must not trim the new buffer.
        epoch: u64,
    },
    /// Rejoin announcement, site → coordinator, sent whenever a site
    /// restarts into a new incarnation (`epoch ≥ 1`). It is itself
    /// sequence-numbered — it rides the ordinary ack/retransmit machinery,
    /// so a lost Hello is retransmitted until the coordinator has seen it.
    /// On first sight of a higher epoch the coordinator bumps the stream
    /// epoch, clears parked reassembly state, lowers its in-order frontier
    /// to `min(next, seq)` and — if the site was evicted — un-evicts it,
    /// resetting its watermark to `watermark`.
    Hello {
        /// Per-site sequence number (shared stream): the base of the new
        /// incarnation's send window.
        seq: u64,
        /// The new incarnation epoch (strictly greater than any previous).
        epoch: u64,
        /// The site's current global tick — its first post-rejoin promise.
        watermark: u64,
    },
    /// Failure injection: the receiving site crashes — it stops
    /// heartbeating and drops future injections.
    Crash,
    /// Failure injection: a crashed site restarts — it bumps its epoch,
    /// recovers durable state when configured, announces `Hello`, and
    /// resumes heartbeating. Delivered to a live site it is a no-op.
    Restart,
    /// Operator action at the coordinator: stop waiting for `site`'s
    /// watermark (its promises are treated as +∞ from now on). Buffered
    /// events from the evicted site still release; new ones are refused.
    Evict {
        /// The site to evict.
        site: u32,
    },
    /// Subscription-routed batch, site → coordinator replica: the
    /// occurrences this uplink's replica subscribes to (each with the
    /// site's stamp ordinal) plus the watermark at flush time. The
    /// partitioned-plane analogue of [`Msg::Batch`]: an empty `events`
    /// vector is exactly a heartbeat, and every replica receives the
    /// site's full watermark stream even when it subscribes to none of
    /// its event types.
    Routed {
        /// Per-uplink sequence number (one independent stream per
        /// site-replica pair).
        seq: u64,
        /// The sender's incarnation epoch.
        epoch: u64,
        /// The site's global tick at flush time.
        watermark: u64,
        /// The subscribed occurrences, in site stamping order.
        events: Arc<Vec<RoutedEvent>>,
    },
    /// Cross-partition forwarding, coordinator replica → replica: named
    /// composite detections the receiver subscribes to, plus the sender's
    /// release-plane promise vector ("every relay I will ever send at
    /// cascade depth `d` is strictly after `promise[d - 1]`").
    /// Sequence-numbered on the sender's per-peer
    /// stream and acked/retransmitted like site traffic; an empty `events`
    /// vector is a pure promise advance.
    Relay {
        /// Per-peer sequence number.
        seq: u64,
        /// The sender's release-plane promise, stratified by cascade
        /// depth: `promise[d - 1]` lower-bounds every future depth-`d`
        /// relay. The vector is nonincreasing, so its last element bounds
        /// *all* future relays.
        promise: Vec<PlanePos>,
        /// The forwarded detections, in canonical cascade order.
        events: Arc<Vec<RelayedEvent>>,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use decs_core::cts;

    #[test]
    fn messages_are_cloneable_and_debuggable() {
        let hello = Msg::Hello {
            seq: 6,
            epoch: 2,
            watermark: 11,
        };
        assert!(format!("{hello:?}").contains("epoch: 2"));
        let b = Msg::Batch {
            seq: 5,
            epoch: 0,
            watermark: 9,
            events: Arc::new(vec![Occurrence::bare(EventId(1), cts(&[(1, 8, 80)]))]),
        };
        let b2 = b.clone();
        assert!(format!("{b2:?}").contains("events"));
        // Cloning a batch bumps the payload refcount instead of copying.
        if let (Msg::Batch { events: e1, .. }, Msg::Batch { events: e2, .. }) = (&b, &b2) {
            assert!(Arc::ptr_eq(e1, e2));
        }
    }
}
