//! Operator node state machines.
//!
//! Every Snoop operator is implemented once, generically over the time
//! domain [`EventTime`] — the same code detects centralized (total-order)
//! and distributed (partial-order, `Max`-propagated) composite events. Each
//! node receives child occurrences through [`OperatorNode::on_child`]
//! (`slot` identifies which operand), emits derived occurrences and timer
//! requests through its [`Sink`], and receives timer callbacks through
//! [`OperatorNode::on_timer`].

pub mod and;
pub mod any;
pub mod aperiodic;
pub mod mask;
pub mod not;
pub mod or;
pub mod periodic;
pub mod plus;
pub mod seq;

use crate::context::Context;
use crate::error::Result;
use crate::event::{EventId, Occurrence};
use crate::state::{shape_err, NodeState};
use crate::time::EventTime;
use std::fmt::Debug;

/// A compiled operator instance inside the detection graph.
pub trait OperatorNode<T: EventTime>: Debug + Send {
    /// A child (operand `slot`) produced `occ`.
    fn on_child(&mut self, slot: usize, occ: &Occurrence<T>, sink: &mut Sink<'_, T>);

    /// A previously requested timer fired with driver-assigned time.
    /// Only temporal operators override this.
    fn on_timer(&mut self, _tag: u64, _time: &T, _sink: &mut Sink<'_, T>) {}

    /// The driver's low watermark advanced to `low`: every occurrence this
    /// node will receive from now on carries a stamp whose global ticks are
    /// all `≥ low` (so [`EventTime::settled`] stamps happen-before all of
    /// them). A node may evict buffered state that can provably never
    /// contribute to a future detection, returning how many entries it
    /// dropped. Eviction must be **behavior-preserving**: the detected
    /// occurrence stream with and without GC is identical (enforced by
    /// `tests/prop_fastpath.rs`).
    ///
    /// The default keeps everything — which is not laziness but the correct
    /// rule for most operators: a buffered `∧`/`;`/`A` initiator matches
    /// *every* future terminator (growing older only makes `t1 < t2` more
    /// true, never less), so no watermark can prove it dead. The operators
    /// whose semantics do strand state (`¬` guards and cancelled openers,
    /// `ANY`'s unreachable Unrestricted entries) override this.
    fn on_watermark(&mut self, _low: u64) -> u64 {
        0
    }

    /// Number of occurrences (or guard stamps / armed offsets) currently
    /// buffered in this node's state, for occupancy metrics.
    fn buffered_len(&self) -> usize {
        0
    }

    /// Smallest delay this node can ever pass to [`Sink::request_timer`],
    /// or `None` if it never requests timers. Delays are compile-time
    /// constants of the temporal operators, so batching drivers can rely
    /// on the graph-wide minimum: an occurrence fed at tick `t` cannot
    /// enqueue a timer due before `t + min`.
    fn min_timer_delay(&self) -> Option<u64> {
        None
    }

    /// Serialize this node's buffered state into the shape-agnostic
    /// [`NodeState`] encoding (see [`crate::state`]). Stateless nodes save
    /// an empty state; every stateful operator overrides this together
    /// with [`OperatorNode::restore_state`] and documents its encoding
    /// there.
    fn save_state(&self) -> NodeState<T> {
        NodeState::empty()
    }

    /// Restore a state produced by [`OperatorNode::save_state`] on a node
    /// of the same operator compiled from the same expression. Fails with
    /// [`crate::SnoopError::SnapshotMismatch`] when the shape does not fit
    /// — restoring must never guess.
    fn restore_state(&mut self, state: NodeState<T>) -> Result<()> {
        if state.is_empty() {
            Ok(())
        } else {
            Err(shape_err("stateless node"))
        }
    }
}

/// Collects a node's emissions and timer requests during one step.
pub struct Sink<'a, T: EventTime> {
    emit_ty: EventId,
    emissions: &'a mut Vec<Occurrence<T>>,
    /// `(node-internal tag, delay ticks)`.
    timer_reqs: &'a mut Vec<(u64, u64)>,
}

impl<'a, T: EventTime> Sink<'a, T> {
    /// Create a sink emitting under `emit_ty`.
    pub fn new(
        emit_ty: EventId,
        emissions: &'a mut Vec<Occurrence<T>>,
        timer_reqs: &'a mut Vec<(u64, u64)>,
    ) -> Self {
        Sink {
            emit_ty,
            emissions,
            timer_reqs,
        }
    }

    /// The event type emissions will carry.
    pub fn emit_ty(&self) -> EventId {
        self.emit_ty
    }

    /// Emit a derived occurrence (retyped to the node's event type).
    pub fn emit(&mut self, occ: Occurrence<T>) {
        self.emissions.push(occ.retyped(self.emit_ty));
    }

    /// Emit the combination of two constituents (`Max` time, concatenated
    /// parameters).
    pub fn emit_pair(&mut self, a: &Occurrence<T>, b: &Occurrence<T>) {
        self.emissions.push(Occurrence::combine(self.emit_ty, a, b));
    }

    /// Emit the combination of many constituents, in iteration order.
    pub fn emit_all<'p, I>(&mut self, parts: I)
    where
        I: IntoIterator<Item = &'p Occurrence<T>>,
        I::IntoIter: Clone,
        T: 'p,
    {
        self.emissions
            .push(Occurrence::combine_all(self.emit_ty, parts));
    }

    /// Ask the driver to call back after `delay_ticks`, passing `tag` back
    /// to this node.
    pub fn request_timer(&mut self, tag: u64, delay_ticks: u64) {
        self.timer_reqs.push((tag, delay_ticks));
    }
}

/// Buffer an initiator occurrence according to the parameter context:
/// Recent keeps a single latest occurrence (an arrival replaces the buffer
/// unless it happens strictly before the buffered one); all other contexts
/// append in arrival order.
pub(crate) fn buffer_initiator<T: EventTime>(
    ctx: Context,
    buf: &mut Vec<Occurrence<T>>,
    occ: &Occurrence<T>,
) {
    match ctx {
        Context::Recent => {
            if let Some(existing) = buf.first() {
                if occ.time.before(&existing.time) {
                    return; // older than the buffered one: ignore
                }
                buf.clear();
            }
            buf.push(occ.clone());
        }
        _ => buf.push(occ.clone()),
    }
}

/// Pair a terminator with matching initiators per the context and emit one
/// detection per pairing (or one merged detection in Cumulative).
///
/// `matches(init)` decides eligibility (e.g. `init.time < t2` for `;`).
/// Consumption: Unrestricted/Recent keep initiators; Chronicle consumes the
/// oldest match; Continuous consumes every match; Cumulative merges every
/// match into a single emission and consumes them.
pub(crate) fn pair_terminator<T, F>(
    ctx: Context,
    inits: &mut Vec<Occurrence<T>>,
    term: &Occurrence<T>,
    sink: &mut Sink<'_, T>,
    mut matches: F,
) where
    T: EventTime,
    F: FnMut(&Occurrence<T>) -> bool,
{
    // An occurrence never pairs with itself: when one operand expression
    // feeds both slots of an operator (`E ∧ E`), the same occurrence
    // arrives on both sides and must be skipped by identity.
    let mut matches = |i: &Occurrence<T>| i.uid != term.uid && matches(i);
    match ctx {
        Context::Unrestricted => {
            for init in inits.iter().filter(|i| matches(i)) {
                sink.emit_pair(init, term);
            }
        }
        Context::Recent => {
            // Buffer holds at most one occurrence.
            if let Some(init) = inits.first() {
                if matches(init) {
                    sink.emit_pair(init, term);
                }
            }
        }
        Context::Chronicle => {
            if let Some(pos) = inits.iter().position(&mut matches) {
                let init = inits.remove(pos);
                sink.emit_pair(&init, term);
            }
        }
        Context::Continuous => {
            let mut kept = Vec::with_capacity(inits.len());
            for init in inits.drain(..) {
                if matches(&init) {
                    sink.emit_pair(&init, term);
                } else {
                    kept.push(init);
                }
            }
            *inits = kept;
        }
        Context::Cumulative => {
            let mut kept = Vec::with_capacity(inits.len());
            let mut used = Vec::new();
            for init in inits.drain(..) {
                if matches(&init) {
                    used.push(init);
                } else {
                    kept.push(init);
                }
            }
            *inits = kept;
            if !used.is_empty() {
                sink.emit_all(used.iter().chain([term]));
            }
        }
    }
}

/// One buffered initiator inside a [`BandedBuffer`].
#[derive(Debug)]
struct BandEntry<T: EventTime> {
    /// Cached [`EventTime::global_upper_bound`] of `occ`'s stamp (the sort
    /// key).
    band: u64,
    /// Arrival sequence number — the semantic order of the buffer. Context
    /// consumption rules (Chronicle FIFO, emission order) are defined over
    /// *arrival* order, which band order need not agree with.
    seq: u64,
    occ: Occurrence<T>,
}

/// An initiator buffer kept sorted by `(global_upper_bound, arrival)` so a
/// terminator can binary-search the **band-separated prefix**: every entry
/// with `band + 1 < terminator.global_lower_bound()` is settled at the
/// terminator's band floor and therefore certainly happens-before it (the
/// buffered analogue of the `2g_g` band-separation fast path, under the
/// same site-monotone-clock assumption as [`EventTime::settled`]). Full
/// `<_p` relation checks run only on the entries inside the uncertainty
/// band. `tests/prop_fastpath.rs` pins this against the linear-scan oracle.
#[derive(Debug)]
pub(crate) struct BandedBuffer<T: EventTime> {
    /// Sorted by `(band, seq)`; `seq` values are unique.
    entries: Vec<BandEntry<T>>,
    next_seq: u64,
    /// Reusable index staging for [`BandedBuffer::terminate_before`]: the
    /// matched entry positions of one termination, re-sorted into arrival
    /// order. Keeping it on the buffer makes the steady-state join path
    /// allocation-free (`crates/snoop/tests/alloc_count.rs` pins this).
    scratch: Vec<usize>,
}

impl<T: EventTime> Default for BandedBuffer<T> {
    fn default() -> Self {
        BandedBuffer {
            entries: Vec::new(),
            next_seq: 0,
            scratch: Vec::new(),
        }
    }
}

impl<T: EventTime> BandedBuffer<T> {
    /// Number of buffered initiators.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Buffer an initiator (the banded analogue of [`buffer_initiator`]):
    /// Recent keeps a single latest occurrence; other contexts insert in
    /// band order, remembering arrival order in `seq`.
    pub(crate) fn insert(&mut self, ctx: Context, occ: &Occurrence<T>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        if ctx == Context::Recent {
            if let Some(existing) = self.entries.first() {
                if occ.time.before(&existing.occ.time) {
                    return; // older than the buffered one: ignore
                }
                self.entries.clear();
            }
        }
        let band = occ.time.global_upper_bound();
        // In-order arrivals (the common case) have the largest `(band, seq)`
        // key so far, so this is an O(log n) search + push at the end.
        let pos = self.entries.partition_point(|e| e.band <= band);
        self.entries.insert(
            pos,
            BandEntry {
                band,
                seq,
                occ: occ.clone(),
            },
        );
    }

    /// The buffered initiators in arrival order (the snapshot encoding:
    /// band keys and sequence numbers are derived state, so only the
    /// occurrences travel).
    pub(crate) fn save_occs(&self) -> Vec<Occurrence<T>> {
        let mut entries: Vec<&BandEntry<T>> = self.entries.iter().collect();
        entries.sort_by_key(|e| e.seq);
        entries.iter().map(|e| e.occ.clone()).collect()
    }

    /// Rebuild the buffer from occurrences saved by
    /// [`BandedBuffer::save_occs`]: re-inserting in arrival order
    /// recomputes the bands and assigns fresh (relative-order-preserving)
    /// sequence numbers, which is all the pairing rules depend on.
    pub(crate) fn restore_occs(&mut self, ctx: Context, occs: Vec<Occurrence<T>>) {
        self.entries.clear();
        self.next_seq = 0;
        for occ in &occs {
            self.insert(ctx, occ);
        }
    }

    /// Pair `term` with every buffered initiator that strictly
    /// happens-before it, applying the context's consumption rule exactly
    /// like [`pair_terminator`] with the `init.time.before(term.time)`
    /// predicate: emissions happen in arrival order, Chronicle consumes the
    /// oldest arrival, Continuous/Cumulative consume every match.
    ///
    /// Entries below the band-separated prefix match by construction (the
    /// prefix bound implies `before`, and `term` itself can never land in
    /// the prefix since its own band overlaps its floor); only in-band
    /// entries run the full relation check and the self-pairing uid guard.
    pub(crate) fn terminate_before(
        &mut self,
        ctx: Context,
        term: &Occurrence<T>,
        sink: &mut Sink<'_, T>,
    ) {
        let floor = term.time.global_lower_bound();
        let prefix = self
            .entries
            .partition_point(|e| e.band.saturating_add(1) < floor);
        let in_band = |e: &BandEntry<T>| e.occ.uid != term.uid && e.occ.time.before(&term.time);
        match ctx {
            Context::Unrestricted => {
                let mut scratch = std::mem::take(&mut self.scratch);
                scratch.clear();
                scratch.extend(0..prefix);
                scratch.extend((prefix..self.entries.len()).filter(|&i| in_band(&self.entries[i])));
                scratch.sort_by_key(|&i| self.entries[i].seq);
                for &i in &scratch {
                    sink.emit_pair(&self.entries[i].occ, term);
                }
                self.scratch = scratch;
            }
            Context::Recent => {
                // Buffer holds at most one occurrence.
                if let Some(e) = self.entries.first() {
                    if prefix > 0 || in_band(e) {
                        sink.emit_pair(&e.occ, term);
                    }
                }
            }
            Context::Chronicle => {
                let mut oldest: Option<usize> = None;
                for (i, e) in self.entries.iter().enumerate() {
                    // The arrival check is one compare; only an entry
                    // older than the best so far pays for the relation.
                    if oldest.is_none_or(|o| e.seq < self.entries[o].seq)
                        && (i < prefix || in_band(e))
                    {
                        oldest = Some(i);
                    }
                }
                if let Some(i) = oldest {
                    let e = self.entries.remove(i);
                    sink.emit_pair(&e.occ, term);
                }
            }
            Context::Continuous | Context::Cumulative => {
                let mut scratch = std::mem::take(&mut self.scratch);
                scratch.clear();
                scratch.extend(
                    (0..self.entries.len()).filter(|&i| i < prefix || in_band(&self.entries[i])),
                );
                scratch.sort_by_key(|&i| self.entries[i].seq);
                if ctx == Context::Continuous {
                    for &i in &scratch {
                        sink.emit_pair(&self.entries[i].occ, term);
                    }
                } else if !scratch.is_empty() {
                    let entries = &self.entries;
                    sink.emit_all(scratch.iter().map(|&i| &entries[i].occ).chain([term]));
                }
                // Consume the matched entries in place (recomputing the
                // match predicate positionally); the survivors are a
                // subsequence, so band order is preserved.
                let mut idx = 0;
                self.entries.retain(|e| {
                    let matched = idx < prefix || in_band(e);
                    idx += 1;
                    !matched
                });
                self.scratch = scratch;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::CentralTime;

    fn bare(t: u64) -> Occurrence<CentralTime> {
        Occurrence::bare(EventId(0), CentralTime(t))
    }

    #[test]
    fn recent_buffer_keeps_latest() {
        let mut buf = Vec::new();
        buffer_initiator(Context::Recent, &mut buf, &bare(5));
        buffer_initiator(Context::Recent, &mut buf, &bare(9));
        assert_eq!(buf.len(), 1);
        assert_eq!(buf[0].time, CentralTime(9));
        // An older arrival does not displace the newer one.
        buffer_initiator(Context::Recent, &mut buf, &bare(3));
        assert_eq!(buf[0].time, CentralTime(9));
    }

    #[test]
    fn other_contexts_append() {
        for ctx in [
            Context::Unrestricted,
            Context::Chronicle,
            Context::Continuous,
            Context::Cumulative,
        ] {
            let mut buf = Vec::new();
            buffer_initiator(ctx, &mut buf, &bare(5));
            buffer_initiator(ctx, &mut buf, &bare(3));
            assert_eq!(buf.len(), 2, "{ctx}");
        }
    }

    #[test]
    fn pairing_consumption_rules() {
        let term = bare(10);
        let run = |ctx: Context| {
            let mut inits = vec![bare(1), bare(2), bare(3)];
            let mut em = Vec::new();
            let mut tr = Vec::new();
            {
                let mut sink = Sink::new(EventId(9), &mut em, &mut tr);
                pair_terminator(ctx, &mut inits, &term, &mut sink, |_| true);
            }
            (em.len(), inits.len())
        };
        assert_eq!(run(Context::Unrestricted), (3, 3));
        assert_eq!(run(Context::Chronicle), (1, 2));
        assert_eq!(run(Context::Continuous), (3, 0));
        assert_eq!(run(Context::Cumulative), (1, 0));
    }

    #[test]
    fn cumulative_merges_params() {
        let term = bare(10);
        let mut inits = vec![bare(1), bare(2)];
        let mut em = Vec::new();
        let mut tr = Vec::new();
        {
            let mut sink = Sink::new(EventId(9), &mut em, &mut tr);
            pair_terminator(Context::Cumulative, &mut inits, &term, &mut sink, |_| true);
        }
        assert_eq!(em.len(), 1);
        assert_eq!(em[0].params.len(), 3); // two initiators + terminator
        assert_eq!(em[0].time, CentralTime(10));
    }

    /// The banded buffer replicates the linear helpers exactly — same
    /// emissions in the same order, same surviving buffer — even when
    /// arrival order disagrees with band order. (The full randomized
    /// oracle suite is in `tests/prop_fastpath.rs`.)
    #[test]
    fn banded_buffer_matches_linear_helpers() {
        let arrivals = [7u64, 2, 9, 2, 5, 14, 1];
        for ctx in [
            Context::Unrestricted,
            Context::Recent,
            Context::Chronicle,
            Context::Continuous,
            Context::Cumulative,
        ] {
            let mut linear = Vec::new();
            let mut banded = BandedBuffer::default();
            let occs: Vec<_> = arrivals.iter().map(|&t| bare(t)).collect();
            for occ in &occs {
                buffer_initiator(ctx, &mut linear, occ);
                banded.insert(ctx, occ);
            }
            for term_t in [6u64, 10, 3] {
                let term = bare(term_t);
                let (mut em_l, mut em_b) = (Vec::new(), Vec::new());
                let (mut tr_l, mut tr_b) = (Vec::new(), Vec::new());
                {
                    let mut sink = Sink::new(EventId(9), &mut em_l, &mut tr_l);
                    let t2 = term.time;
                    pair_terminator(ctx, &mut linear, &term, &mut sink, |i| i.time.before(&t2));
                }
                {
                    let mut sink = Sink::new(EventId(9), &mut em_b, &mut tr_b);
                    banded.terminate_before(ctx, &term, &mut sink);
                }
                assert_eq!(em_l, em_b, "{ctx} term@{term_t}");
                assert_eq!(linear.len(), banded.len(), "{ctx} term@{term_t}");
            }
        }
    }

    #[test]
    fn nonmatching_initiators_survive() {
        let term = bare(10);
        let mut inits = vec![bare(1), bare(20)]; // 20 is "after" the terminator
        let mut em = Vec::new();
        let mut tr = Vec::new();
        {
            let mut sink = Sink::new(EventId(9), &mut em, &mut tr);
            pair_terminator(Context::Continuous, &mut inits, &term, &mut sink, |i| {
                i.time.before(&term.time)
            });
        }
        assert_eq!(em.len(), 1);
        assert_eq!(inits.len(), 1);
        assert_eq!(inits[0].time, CentralTime(20));
    }
}
