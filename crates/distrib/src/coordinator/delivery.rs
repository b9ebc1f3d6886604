//! Per-site stream delivery: FIFO reassembly over sequence numbers,
//! incarnation-epoch filtering and the `Hello` rejoin transition,
//! cumulative acks, stall detection and eviction.

use super::{CoordCtx, CoordinatorNode, PARKED_CAP};
use crate::durability::WalRecord;
use crate::protocol::Msg;
use decs_simnet::NodeIdx;
use std::sync::Arc;

impl CoordinatorNode {
    /// Consume one in-order message from `site`'s reassembled stream:
    /// log it to the WAL first (recovery replays exactly this stream),
    /// then apply it.
    pub(super) fn handle_in_order(&mut self, site: usize, msg: Msg, ctx: &mut impl CoordCtx) {
        // Log before applying: recovery replays exactly the in-order
        // consumption stream. Parked messages are logged here — when they
        // are consumed — not on arrival; until then the ack protocol keeps
        // them the sender's responsibility. A message that cannot be
        // logged fail-stops the node *before* it applies, so disk state
        // still matches applied state.
        let at = ctx.true_now().get();
        if !self.log(|| WalRecord::Delivered {
            site: site as u32,
            at,
            msg: msg.clone(),
        }) {
            return;
        }
        self.metrics.messages_processed += 1;
        // Evicted sites: stream bookkeeping continues (their retransmits
        // must be acked into silence) but new notifications are refused and
        // their watermark promises stay pinned at +∞.
        let evicted = self.streams[site].evicted;
        match msg {
            Msg::Batch {
                watermark, events, ..
            } => {
                self.metrics.batches_received += 1;
                self.metrics.batch_size_max = self.metrics.batch_size_max.max(events.len());
                if evicted {
                    self.metrics.evict_refused += events.len() as u64;
                } else {
                    // The WAL (or a retransmit buffer in tests) may still
                    // hold a reference; consume in place when we own the
                    // only copy, clone it otherwise.
                    for occ in Arc::unwrap_or_clone(events) {
                        self.accept_notification(site, occ, ctx);
                    }
                }
                self.raise_watermark(site, watermark, ctx);
                self.release_round(ctx);
            }
            Msg::Hello { watermark, .. } => {
                // The epoch transition already ran at first sight (see
                // `epoch_transition`); consuming the Hello in order marks
                // the rejoin complete: the returning site's backlog is
                // drained and its fresh watermark promise takes effect.
                self.raise_watermark(site, watermark, ctx);
                if let Some(t0) = self.streams[site].rejoined_at.take() {
                    self.metrics.rejoin_latency_ns += ctx.true_now().get().saturating_sub(t0.get());
                }
                self.release_round(ctx);
            }
            Msg::Routed {
                watermark, events, ..
            } => {
                // Subscription-routed site traffic (partitioned plane): the
                // subset of the site's stream this replica subscribes to,
                // plus the site's watermark (carried on every uplink).
                self.metrics.routed_received += 1;
                if evicted {
                    self.metrics.evict_refused += events.len() as u64;
                } else {
                    for ev in Arc::unwrap_or_clone(events) {
                        self.accept_routed(site, ev, ctx);
                    }
                }
                self.raise_watermark(site, watermark, ctx);
                self.release_round(ctx);
            }
            Msg::Relay {
                promise, events, ..
            } => {
                // Peer-replica traffic: forwarded cascade events plus the
                // peer's promise. No tracker update — peers are ordered by
                // promises, not site watermarks.
                self.handle_relay(site, &promise, events, ctx);
            }
            Msg::Start
            | Msg::Inject { .. }
            | Msg::Crash
            | Msg::Restart
            | Msg::Evict { .. }
            | Msg::Ack { .. } => {
                debug_assert!(false, "sequence-numbered control message");
            }
        }
    }

    /// Run the release machinery appropriate to this deployment: the
    /// partitioned round when this coordinator is a replica, the classic
    /// stability-buffer walk otherwise.
    pub(super) fn release_round(&mut self, ctx: &mut impl CoordCtx) {
        if self.part.is_some() {
            self.release_partitioned(ctx);
        } else {
            self.release_stable(ctx);
        }
    }

    pub(super) fn seq_of(msg: &Msg) -> Option<u64> {
        match msg {
            Msg::Batch { seq, .. }
            | Msg::Hello { seq, .. }
            | Msg::Routed { seq, .. }
            | Msg::Relay { seq, .. } => Some(*seq),
            _ => None,
        }
    }

    pub(super) fn epoch_of(msg: &Msg) -> Option<u64> {
        match msg {
            Msg::Batch { epoch, .. } | Msg::Hello { epoch, .. } | Msg::Routed { epoch, .. } => {
                Some(*epoch)
            }
            // Replica → replica streams have no incarnation epochs (a
            // recovered replica resumes its durable sequence space).
            Msg::Relay { .. } => Some(0),
            _ => None,
        }
    }

    /// React to the **first sight** of a `Msg::Hello` carrying a higher
    /// epoch than the stream's (in or out of order — it runs before
    /// sequence handling, and exactly once per epoch because it raises the
    /// stream epoch it is gated on):
    ///
    /// * parked reassembly state from the dead incarnation is dropped (its
    ///   sequence numbers may collide with the new incarnation's);
    /// * the in-order frontier falls to `min(next, base_seq)` — a
    ///   non-durable restart resets the site's sequence space below the old
    ///   frontier; a durable one resumes at or above every slot whose
    ///   message carried occurrences, so it may re-open only slots whose
    ///   messages carried none (empty batches, whose log frames it does
    ///   not sync). Consuming such a slot's watermark promise twice is
    ///   harmless: the tracker keeps the maximum;
    /// * an evicted site is un-evicted: its watermark pin drops from +∞
    ///   back to the Hello's fresh promise, its suspicion clears and its
    ///   stall clock restarts now.
    pub(super) fn epoch_transition(
        &mut self,
        site: usize,
        epoch: u64,
        base_seq: u64,
        watermark: u64,
        ctx: &mut impl CoordCtx,
    ) {
        let at = ctx.true_now().get();
        if !self.log(|| WalRecord::HelloSeen {
            site: site as u32,
            at,
            epoch,
            base_seq,
            watermark,
        }) {
            return;
        }
        let restart = self.progress_at(ctx.true_now().get());
        let stream = &mut self.streams[site];
        self.parked_total -= std::mem::take(&mut stream.parked).len();
        stream.epoch = epoch;
        stream.next = stream.next.min(base_seq);
        stream.rejoined_at = Some(ctx.true_now());
        if std::mem::replace(&mut stream.evicted, false) {
            if std::mem::replace(&mut stream.suspect, false) {
                self.metrics.suspect_sites -= 1;
            }
            stream.last_advance = restart;
            self.tracker.reset(site, watermark);
        }
        self.metrics.rejoins += 1;
        self.metrics.epoch_max = self.metrics.epoch_max.max(epoch);
    }

    /// Stop waiting for `site`: its watermark promise becomes +∞ and its
    /// future notifications are refused (buffered ones still release).
    pub(super) fn evict(&mut self, site: usize, ctx: &mut impl CoordCtx) {
        let at = ctx.true_now().get();
        if site >= self.streams.len()
            || self.streams[site].evicted
            || !self.log(|| WalRecord::Evicted {
                site: site as u32,
                at,
            })
        {
            return;
        }
        self.streams[site].evicted = true;
        self.tracker.update(site, u64::MAX);
        self.release_round(ctx);
    }

    /// Whether stream `stream` is a peer replica's relay stream rather
    /// than a site's.
    fn is_peer(&self, stream: usize) -> bool {
        self.part.as_ref().is_some_and(|p| stream >= p.n_sites)
    }

    /// Send `site`'s cumulative ack, scoped to its current epoch (a site
    /// ignores acks from an epoch other than its own).
    pub(super) fn send_ack(&mut self, to: NodeIdx, site: usize, ctx: &mut impl CoordCtx) {
        self.metrics.acks_sent += 1;
        let cum_seq = self.streams[site].next;
        let epoch = self.streams[site].epoch;
        ctx.send(to, Msg::Ack { cum_seq, epoch });
    }

    /// Raise `site`'s watermark to `watermark` and, if it rose, run the
    /// stall detector at this instant.
    fn raise_watermark(&mut self, site: usize, watermark: u64, ctx: &mut impl CoordCtx) {
        if self.tracker.update(site, watermark) {
            self.stall_check(site, ctx);
        }
    }

    /// The stall detector's progress clock at true time `t`: its reading
    /// at the last watermark rise plus the time since, counted up to one
    /// global tick. A healthy site raises its watermark once per tick, so
    /// while any site is heard from the clock keeps pace with true time;
    /// while none is (every site cut off) it stands still, and that
    /// silence counts against nobody.
    fn progress_at(&self, t: u64) -> u64 {
        self.progress_ns + t.saturating_sub(self.last_rise_at).min(self.gg_nanos)
    }

    /// The stall detector, run at true time `t` when `rose`'s watermark
    /// rises: every suspect site's span since the last rise is added to
    /// `stall_ns`, `rose` clears its suspicion, and every other site whose
    /// watermark last rose `stall_timeout` or more of progress-clock time
    /// ago becomes suspect — with `auto_evict`, it is evicted. A site is
    /// only ever called late relative to its peers' progress, so neither
    /// a globally idle system nor a global outage suspects anybody.
    /// Evicted sites are not judged and accrue nothing.
    fn stall_check(&mut self, rose: usize, ctx: &mut impl CoordCtx) {
        let t = ctx.true_now().get();
        let now = self.progress_at(t);
        let span = u128::from(t.saturating_sub(self.last_rise_at));
        (self.progress_ns, self.last_rise_at) = (now, t);
        let mut to_evict = Vec::new();
        let sites = self.tracker.len();
        for (i, st) in self.streams[..sites].iter_mut().enumerate() {
            if st.evicted {
                continue;
            }
            if st.suspect {
                self.metrics.stall_ns += span;
            }
            if i == rose {
                st.last_advance = now;
                if std::mem::replace(&mut st.suspect, false) {
                    self.metrics.suspect_sites -= 1;
                }
            } else if !st.suspect && now.saturating_sub(st.last_advance) >= self.stall_timeout.get()
            {
                st.suspect = true;
                self.metrics.suspect_sites += 1;
                if self.auto_evict {
                    self.metrics.auto_evictions += 1;
                    to_evict.push(i);
                }
            }
        }
        for site in to_evict {
            self.evict(site, ctx);
        }
    }

    /// The full message-delivery state machine (the body of
    /// [`decs_simnet::Actor::on_message`]): control messages, the
    /// incarnation-epoch filter, and sequence-number reassembly with
    /// park/drain/dup handling.
    pub(super) fn deliver(&mut self, from: NodeIdx, msg: Msg, ctx: &mut impl CoordCtx) {
        if let Msg::Evict { site } = msg {
            // Operator action: treat the site's watermark as +∞ so the
            // remaining buffer can stabilize without it.
            self.evict(site as usize, ctx);
            return;
        }
        let site = from.0 as usize;
        if let Msg::Ack { cum_seq, .. } = msg {
            // A peer replica acking our relay stream (sites never ack the
            // coordinator). Classic deployments fall through to the
            // seq gate below, which drops the echo.
            if self.is_peer(site) {
                self.on_peer_ack(site, cum_seq);
                return;
            }
        }
        let Some(seq) = Self::seq_of(&msg) else {
            return; // Start/Inject/Ack echoes are not coordinator traffic
        };
        debug_assert!(site < self.streams.len(), "unknown site {site}");
        if self.wal_failed.is_some() {
            // Fail-stop after a WAL error: dropping without acking keeps
            // the durable log prefix exactly the consumed-input stream —
            // sites retransmit into the replacement coordinator instead.
            return;
        }
        // Incarnation-epoch filter, ahead of sequence handling: the two
        // incarnations' sequence spaces may overlap.
        let msg_epoch = Self::epoch_of(&msg).unwrap_or(0);
        let stream_epoch = self.streams[site].epoch;
        if msg_epoch < stream_epoch {
            // In-flight traffic from a dead incarnation.
            self.metrics.epoch_filtered += 1;
            return;
        }
        if msg_epoch > stream_epoch {
            match &msg {
                Msg::Hello {
                    seq,
                    epoch,
                    watermark,
                } => {
                    let (s, e, w) = (*seq, *epoch, *watermark);
                    self.epoch_transition(site, e, s, w, ctx);
                    // Fall through: the Hello itself is sequence-handled
                    // against the just-lowered frontier like any message.
                }
                _ => {
                    // New-incarnation data racing ahead of its Hello. Drop
                    // it unacked; retransmission re-delivers it once the
                    // Hello has landed and bumped the stream epoch.
                    self.metrics.epoch_filtered += 1;
                    return;
                }
            }
        }
        let stream = &mut self.streams[site];
        match seq.cmp(&stream.next) {
            std::cmp::Ordering::Equal => {
                stream.next += 1;
                self.handle_in_order(site, msg, ctx);
                // Drain any parked successors.
                loop {
                    if self.wal_failed.is_some() {
                        break;
                    }
                    let stream = &mut self.streams[site];
                    let Some(m) = stream.parked.remove(&stream.next) else {
                        break;
                    };
                    self.parked_total -= 1;
                    stream.next += 1;
                    self.handle_in_order(site, m, ctx);
                }
                if self.wal_failed.is_some() {
                    // The frontier advance was never durably logged — do
                    // not ack it, or the site would stop retransmitting a
                    // message no recovery will ever see.
                    return;
                }
                // One cumulative ack covers the message and every parked
                // successor the drain consumed.
                self.send_ack(from, site, ctx);
            }
            std::cmp::Ordering::Greater => {
                if stream.parked.insert(seq, msg).is_some() {
                    // A second copy of an already-parked message
                    // (retransmitted or link-duplicated): the overwrite is
                    // idempotent.
                    self.metrics.duplicates_dropped += 1;
                    return;
                }
                self.metrics.reassembly_parks += 1;
                self.parked_total += 1;
                if stream.parked.len() > PARKED_CAP {
                    // Backpressure: discard the parked message farthest
                    // from the in-order frontier. Cumulative acks never
                    // cover it, so the sender retransmits it later.
                    let (&victim, _) = stream.parked.iter().next_back().expect("non-empty");
                    stream.parked.remove(&victim);
                    self.parked_total -= 1;
                    self.metrics.parked_dropped += 1;
                }
                self.metrics.parked_peak = self.metrics.parked_peak.max(self.parked_total);
                if stream.parked.contains_key(&seq) && !self.is_peer(site) {
                    // Gap ack: the same cumulative ack, naming the first
                    // missing sequence number, which the site resends at
                    // once. Nothing parked is acked, and a message the cap
                    // just discarded sends none. Relay streams keep
                    // timer-only repair.
                    self.send_ack(from, site, ctx);
                }
            }
            std::cmp::Ordering::Less => {
                // An already-delivered sequence number: a retransmitted or
                // link-duplicated copy. Drop it and re-ack so the sender
                // learns its delivery even if the original ack was lost.
                self.metrics.duplicates_dropped += 1;
                self.send_ack(from, site, ctx);
            }
        }
    }
}
