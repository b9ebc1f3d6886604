//! The stability buffer and release path: buffering notifications under
//! the watermark rule, draining the stable prefix in canonical order,
//! operator-buffer GC, and servicing detector timer fires.

use super::{CoordCtx, CoordinatorNode, RawDetection, ReleaseKey, RELAY_RETX_TAG};
use crate::durability::WalRecord;
use crate::protocol::Msg;
use decs_chronos::Nanos;
use decs_core::{CompositeTimestamp, PrimitiveTimestamp};
use decs_simnet::Ctx;
use decs_snoop::{FeedOutput, Occurrence};
use std::collections::VecDeque;

/// One notification awaiting stability. Its release key is
/// `(global, site, arrival)`, the site being the FIFO it sits in.
#[derive(Debug)]
struct Pending {
    global: u64,
    arrival: u64,
    occ: Occurrence<CompositeTimestamp>,
    arrived: Nanos,
}

/// The coordinator's stability buffer: notifications awaiting the
/// watermark rule, one FIFO per site ordered by `(max global, arrival)`.
///
/// A site stamps with its own monotone clock and the coordinator
/// reassembles its stream in FIFO order, so nearly every notification
/// appends at the back of its site's FIFO. The exceptions — a site-local
/// composite stamped below a primitive the site already sent, or a
/// rejoining site's backlog — go in at their sorted position, so the
/// order is exact rather than assumed. Release merges the FIFO heads one
/// global tick at a time in ascending site order: exactly ascending
/// [`ReleaseKey`] order, at O(sites) per released tick and O(1) per
/// notification.
#[derive(Debug)]
pub(crate) struct StabilityBuffer {
    sites: Vec<VecDeque<Pending>>,
    len: usize,
}

impl StabilityBuffer {
    /// An empty buffer for `sites` sites.
    pub(crate) fn new(sites: usize) -> Self {
        StabilityBuffer {
            sites: (0..sites).map(|_| VecDeque::new()).collect(),
            len: 0,
        }
    }

    /// Number of buffered notifications.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Number of per-site FIFOs: valid site indices are below it.
    pub(crate) fn site_count(&self) -> usize {
        self.sites.len()
    }

    /// Drop every buffered notification.
    pub(crate) fn clear(&mut self) {
        self.sites.iter_mut().for_each(VecDeque::clear);
        self.len = 0;
    }

    /// Buffer `occ` under `key`, which arrived at true time `arrived`.
    pub(crate) fn insert(
        &mut self,
        (global, site, arrival): ReleaseKey,
        occ: Occurrence<CompositeTimestamp>,
        arrived: Nanos,
    ) {
        let fifo = &mut self.sites[site as usize];
        let pending = Pending {
            global,
            arrival,
            occ,
            arrived,
        };
        let precedes = |p: &Pending| (p.global, p.arrival) < (global, arrival);
        if fifo.back().is_none_or(precedes) {
            fifo.push_back(pending);
        } else {
            fifo.insert(fifo.partition_point(precedes), pending);
        }
        self.len += 1;
    }

    /// Pop, in ascending [`ReleaseKey`] order, every notification whose
    /// global tick `stable` accepts, stopping at the first tick it
    /// refuses; `emit` receives each one with its key.
    pub(crate) fn release(
        &mut self,
        stable: impl Fn(u64) -> bool,
        mut emit: impl FnMut(ReleaseKey, Occurrence<CompositeTimestamp>, Nanos),
    ) {
        while let Some(g) = self.head_global() {
            if !stable(g) {
                break;
            }
            for (site, fifo) in self.sites.iter_mut().enumerate() {
                while let Some(p) = fifo.pop_front_if(|p| p.global == g) {
                    self.len -= 1;
                    emit((g, site as u32, p.arrival), p.occ, p.arrived);
                }
            }
        }
    }

    /// The smallest global tick at the head of any site's FIFO.
    fn head_global(&self) -> Option<u64> {
        self.sites
            .iter()
            .filter_map(|f| f.front())
            .map(|p| p.global)
            .min()
    }

    /// Every buffered notification with its key, in ascending key order
    /// (the snapshot image).
    pub(crate) fn ordered(&self) -> Vec<(ReleaseKey, &Occurrence<CompositeTimestamp>, Nanos)> {
        let mut all: Vec<_> = self
            .sites
            .iter()
            .enumerate()
            .flat_map(|(site, fifo)| {
                fifo.iter()
                    .map(move |p| ((p.global, site as u32, p.arrival), &p.occ, p.arrived))
            })
            .collect();
        all.sort_unstable_by_key(|&(key, _, _)| key);
        all
    }
}

impl CoordinatorNode {
    pub(super) fn absorb(&mut self, r: FeedOutput<CompositeTimestamp>, ctx: &mut impl CoordCtx) {
        for (shard, t) in r.timers {
            let tag = self.next_tag;
            self.next_tag += 1;
            let delay = Nanos(t.delay_ticks * self.gg_nanos);
            self.timer_map.insert(tag, (shard, t.id));
            // Recorded even during replay: the due time is derived from the
            // logged consumption time, so a recovered coordinator re-arms
            // timers at exactly the instants the crashed one had pending.
            self.timer_due
                .insert(tag, ctx.true_now().get().saturating_add(delay.get()));
            ctx.set_timer(delay, tag);
        }
        for occ in r.detected {
            self.metrics.detections += 1;
            self.detections.push(RawDetection {
                occ,
                detected_at: ctx.true_now(),
            });
        }
    }

    /// Drain the stable prefix of the buffer in one watermark-bounded
    /// batch: pop every released notification in canonical order, then
    /// hand the owned occurrences to the detector (see
    /// [`Self::feed_runs`]).
    pub(super) fn release_stable(&mut self, ctx: &mut impl CoordCtx) {
        let now = ctx.true_now();
        let mut released = Vec::new();
        self.buffer.release(
            |g| self.tracker.is_stable(g),
            |key, occ, arrived| {
                debug_assert!(
                    self.last_released < Some(key),
                    "release key {key:?} after {:?}",
                    self.last_released
                );
                if cfg!(debug_assertions) {
                    self.last_released = Some(key);
                }
                self.release_horizon = self.release_horizon.max(key.0 + 1);
                self.metrics.events_released += 1;
                self.metrics.stability_latency_sum_ns +=
                    u128::from(now.get().saturating_sub(arrived.get()));
                released.push(occ);
            },
        );
        if !released.is_empty() {
            self.metrics.release_batches += 1;
            self.feed_runs(released, ctx);
        }
        self.gc_operator_buffers();
        // End of a release round is the quiescent point: the detector has
        // no half-processed batch, and GC has just refreshed occupancy.
        self.maybe_snapshot();
    }

    /// Let the detector's operator nodes reclaim buffered state the
    /// watermark proves dead, and refresh the occupancy metrics.
    ///
    /// The low bound is `min_watermark − 1`: everything the coordinator can
    /// still feed has all member globals `≥` that. Stability releases
    /// stamps with `max_global ≤ min − 1`, so buffer residue has
    /// `max_global ≥ min`, and every site's promise puts its future
    /// notifications at `max_global ≥ min` too. By Theorem 5.1 the members
    /// of a `Max`-combined stamp are pairwise concurrent, so their globals
    /// span at most one tick — all `≥ min − 1`. Coordinator-clock timer
    /// stamps sit at the current global tick, within one tick of every
    /// site's clock under the `2g_g` clock-sync assumption (Prop 4.1), so
    /// at or above `min − 1` as well.
    pub(super) fn gc_operator_buffers(&mut self) {
        if self.buffer_gc {
            let low = self.tracker.min_watermark().saturating_sub(1);
            if low > self.last_gc_low {
                self.last_gc_low = low;
                // Operator buffers below `low` are gone: a late notification
                // at or below it could no longer combine correctly, so the
                // stale horizon advances with the GC bound too.
                self.release_horizon = self.release_horizon.max(low + 1);
                self.metrics.gc_evicted += self.detector.advance_watermark(low);
            }
        }
        self.metrics.node_buffered = self.detector.buffered_occupancy();
        self.metrics.node_buffer_peak = self
            .metrics
            .node_buffer_peak
            .max(self.metrics.node_buffered);
    }

    /// Feed one round of released notifications in release order. A
    /// site-local composite's arrival is itself a detection: it is
    /// reported before its own cascade, so the round is cut into runs at
    /// each reportable notification and every run goes to the detector in
    /// one feed, which drops unrouted types and re-mints the rest's uids.
    fn feed_runs(
        &mut self,
        mut released: Vec<Occurrence<CompositeTimestamp>>,
        ctx: &mut impl CoordCtx,
    ) {
        while !released.is_empty() {
            let cut = released[1..]
                .iter()
                .position(|o| self.reportable.contains(&o.ty))
                .map_or(released.len(), |i| i + 1);
            let rest = released.split_off(cut);
            if self.reportable.contains(&released[0].ty) {
                self.metrics.detections += 1;
                self.detections.push(RawDetection {
                    occ: released[0].clone(),
                    detected_at: ctx.true_now(),
                });
            }
            let r = self.detector.feed_released(released);
            self.absorb(r, ctx);
            released = rest;
        }
    }

    /// The promise the stability rule rests on: a notification from `site`
    /// accepted at maximum global tick `g` sits at or above the watermark
    /// the site announced before it. A rejoining site's backlog predates
    /// its fresh promise, so a stream whose rejoin is in flight is exempt
    /// (the stale-horizon refusal guards it instead).
    pub(super) fn debug_assert_promise(&self, site: usize, g: u64) {
        debug_assert!(
            self.streams[site].rejoined_at.is_some() || g >= self.tracker.site_watermark(site),
            "site {site} sent global {g} below its watermark {}",
            self.tracker.site_watermark(site)
        );
    }

    /// Buffer one reassembled notification. The release key's third
    /// component is the per-site arrival counter — identical for the
    /// `Event` and `Batch` transports.
    pub(super) fn accept_notification(
        &mut self,
        site: usize,
        occ: Occurrence<CompositeTimestamp>,
        ctx: &mut impl CoordCtx,
    ) {
        if occ.time.max_global() < self.release_horizon {
            // Its slot in the canonical release order has already been
            // passed — the pre-crash backlog of an evicted, now rejoining
            // site (a healthy site's watermark promise makes this provably
            // unreachable). Refuse it *without* consuming an arrival
            // counter, so surviving notifications keep the same release
            // keys as a run in which the stale backlog never arrived.
            self.metrics.stale_refused += 1;
            return;
        }
        self.debug_assert_promise(site, occ.time.max_global());
        self.metrics.events_received += 1;
        let arrival = self.streams[site].arrivals;
        self.streams[site].arrivals += 1;
        let key: ReleaseKey = (occ.time.max_global(), site as u32, arrival);
        self.buffer.insert(key, occ, ctx.true_now());
        self.metrics.max_buffered = self.metrics.max_buffered.max(self.buffer.len());
    }

    /// The body of [`decs_simnet::Actor::on_timer`]: a replica's relay
    /// retransmission round, or a detector timer fire stamped with the
    /// coordinator's own clock.
    pub(super) fn timer_fire(&mut self, tag: u64, ctx: &mut Ctx<'_, Msg>) {
        if self.wal_failed.is_some() {
            // Fail-stop: a timer fire is a consumed input too, and it can
            // no longer be logged.
            return;
        }
        if tag == RELAY_RETX_TAG {
            self.relay_retx_round(ctx);
            return;
        }
        let Some((shard, timer_id)) = self.timer_map.remove(&tag) else {
            // Not an error: after crash recovery a timer can be queued
            // twice — the crashed node's arming survives in the simulation
            // queue *and* the recovery harness re-arms it for the
            // replacement node. `timer_map.remove` makes the fire
            // idempotent; the loser lands here and is ignored.
            return;
        };
        self.timer_due.remove(&tag);
        // Stamp the fire with the coordinator's own clock — periodic
        // occurrences carry genuine (site, global, local) triples.
        let Ok(parts) = ctx.stamp() else {
            return;
        };
        // The minted stamp is logged part-by-part: replay must rebuild the
        // identical timestamp without consulting any clock.
        let at = Ctx::true_now(ctx).get();
        if !self.log(|| WalRecord::TimerFired {
            tag,
            at,
            site: parts.site.0,
            global: parts.global.get(),
            local: parts.local.get(),
        }) {
            return;
        }
        let ts = CompositeTimestamp::singleton(PrimitiveTimestamp::new(
            parts.site,
            parts.global,
            parts.local,
        ));
        self.fire_detector_timer(shard, timer_id, ts, ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decs_core::cts;
    use decs_simnet::SplitMix64;
    use decs_snoop::EventId;
    use std::collections::BTreeMap;

    /// What the oracle and the buffer hold: a unique id (the event type)
    /// plus the arrival time, so a popped sequence pins every payload.
    type Oracle = BTreeMap<ReleaseKey, (u32, Nanos)>;

    fn image(buf: &StabilityBuffer) -> Vec<(ReleaseKey, u32, Nanos)> {
        buf.ordered()
            .into_iter()
            .map(|(k, occ, at)| (k, occ.ty.0, at))
            .collect()
    }

    fn oracle_image(oracle: &Oracle) -> Vec<(ReleaseKey, u32, Nanos)> {
        oracle.iter().map(|(&k, &(id, at))| (k, id, at)).collect()
    }

    /// Random per-site streams against the `BTreeMap<ReleaseKey, _>` the
    /// coordinator used to keep. Globals are mostly monotone per site,
    /// with injected out-of-order ones (a site-local composite, a
    /// rejoin backlog); releases run at random stable bounds; some steps
    /// round-trip the buffer through its snapshot image. After every step
    /// the popped sequence, `len()` and the snapshot-order image must
    /// match the oracle.
    #[test]
    fn matches_release_key_oracle() {
        for seed in 0..96 {
            let mut rng = SplitMix64::new(seed);
            let sites = 1 + rng.next_below(6) as usize;
            let mut buf = StabilityBuffer::new(sites);
            let mut oracle = Oracle::new();
            let mut tail = vec![0u64; sites];
            let mut arrivals = vec![0u64; sites];
            let mut next_id = 0u32;
            for step in 0..600u64 {
                match rng.next_below(10) {
                    0..=5 => {
                        let site = rng.next_below(sites as u64) as usize;
                        let g = if rng.next_below(8) == 0 {
                            tail[site].saturating_sub(rng.next_below(4))
                        } else {
                            tail[site] += rng.next_below(3);
                            tail[site]
                        };
                        let key = (g, site as u32, arrivals[site]);
                        arrivals[site] += 1;
                        let occ = Occurrence::bare(EventId(next_id), cts(&[(site as u32, g, 0)]));
                        buf.insert(key, occ, Nanos(step));
                        oracle.insert(key, (next_id, Nanos(step)));
                        next_id += 1;
                    }
                    6..=8 => {
                        let low = tail.iter().min().copied().unwrap_or(0);
                        let bound = low.saturating_sub(2) + rng.next_below(5);
                        let mut got = Vec::new();
                        buf.release(|g| g < bound, |k, occ, at| got.push((k, occ.ty.0, at)));
                        let mut want = Vec::new();
                        while let Some(e) = oracle.first_entry() {
                            if e.key().0 >= bound {
                                break;
                            }
                            let (k, (id, at)) = e.remove_entry();
                            want.push((k, id, at));
                        }
                        assert_eq!(got, want, "seed {seed} step {step}: released");
                    }
                    _ => {
                        // Snapshot and restore: re-insert the ordered image.
                        let mut back = StabilityBuffer::new(sites);
                        for (k, occ, at) in buf.ordered() {
                            back.insert(k, occ.clone(), at);
                        }
                        buf = back;
                    }
                }
                assert_eq!(buf.len(), oracle.len(), "seed {seed} step {step}: len");
                assert_eq!(
                    image(&buf),
                    oracle_image(&oracle),
                    "seed {seed} step {step}: snapshot order"
                );
            }
        }
    }

    #[test]
    fn release_merges_sites_tick_by_tick() {
        let mut buf = StabilityBuffer::new(3);
        // (global, site, arrival): site 2 leads, site 0 holds a late
        // out-of-order entry, site 1 is empty at tick 4.
        for (n, &(g, s, a)) in [(5, 2, 0), (4, 2, 1), (6, 0, 0), (4, 0, 1), (5, 1, 0)]
            .iter()
            .enumerate()
        {
            let occ = Occurrence::bare(EventId(n as u32), cts(&[(s, g, 0)]));
            buf.insert((g, s, a), occ, Nanos::ZERO);
        }
        let mut keys = Vec::new();
        buf.release(|g| g <= 5, |k, _, _| keys.push(k));
        assert_eq!(keys, [(4, 0, 1), (4, 2, 1), (5, 1, 0), (5, 2, 0)]);
        assert_eq!(buf.len(), 1);
    }
}
