//! `ANY(m; E1, …, En)`: signalled when `m` *distinct* alternatives have
//! occurred. The arriving occurrence that completes the m-th distinct
//! alternative acts as the terminator; its detection combines the most
//! recent buffered occurrence of each participating alternative (slot
//! order, ending with the terminator), with `Max` time and concatenated
//! parameters.
//!
//! Consumption follows the context: Unrestricted/Recent keep buffers
//! (later arrivals re-detect), Chronicle/Continuous/Cumulative consume the
//! participating occurrences.

use crate::context::Context;
use crate::event::Occurrence;
use crate::nodes::{buffer_initiator, OperatorNode, Sink};
use crate::time::EventTime;

/// State machine for `ANY(m; …)`.
#[derive(Debug)]
pub struct AnyNode<T: EventTime> {
    ctx: Context,
    m: usize,
    bufs: Vec<Vec<Occurrence<T>>>,
    /// Reusable staging for the participating slot indices of one
    /// detection — the m-of-n join site runs allocation-free apart from
    /// the emitted occurrence itself (`crates/snoop/tests/alloc_count.rs`).
    slot_scratch: Vec<usize>,
}

impl<T: EventTime> AnyNode<T> {
    /// New `ANY` node with threshold `m` over `n` alternatives.
    pub fn new(ctx: Context, m: usize, n: usize) -> Self {
        AnyNode {
            ctx,
            m,
            bufs: (0..n).map(|_| Vec::new()).collect(),
            slot_scratch: Vec::new(),
        }
    }

    fn distinct_present(&self) -> usize {
        self.bufs.iter().filter(|b| !b.is_empty()).count()
    }
}

impl<T: EventTime> OperatorNode<T> for AnyNode<T> {
    fn on_child(&mut self, slot: usize, occ: &Occurrence<T>, sink: &mut Sink<'_, T>) {
        debug_assert!(slot < self.bufs.len(), "ANY slot out of range");
        buffer_initiator(self.ctx, &mut self.bufs[slot], occ);
        if self.distinct_present() < self.m {
            return;
        }
        // Select the m participating slots: the arriving slot plus the
        // first (by slot index) other non-empty ones.
        let mut slots = std::mem::take(&mut self.slot_scratch);
        slots.clear();
        slots.push(slot);
        for (i, b) in self.bufs.iter().enumerate() {
            if slots.len() == self.m {
                break;
            }
            if i != slot && !b.is_empty() {
                slots.push(i);
            }
        }
        slots.sort_unstable();
        // Most recent occurrence of each participating slot, borrowed in
        // place (no per-detection clones or staging vec — `emit_all` copies
        // what the emitted occurrence needs); the terminator (the arriving
        // occurrence) goes last.
        let bufs = &self.bufs;
        sink.emit_all(
            slots
                .iter()
                .filter(|&&s| s != slot)
                .map(|&s| bufs[s].last().expect("non-empty"))
                .chain([occ]),
        );
        // Consumption.
        match self.ctx {
            Context::Unrestricted | Context::Recent => {}
            Context::Chronicle | Context::Continuous | Context::Cumulative => {
                // Remove the used (most recent) occurrence of each
                // participating slot, including the terminator itself.
                for &s in &slots {
                    self.bufs[s].pop();
                }
            }
        }
        self.slot_scratch = slots;
    }

    /// `ANY` imposes no temporal constraint, so the watermark itself proves
    /// nothing — but under `Unrestricted` the buffers contain entries that
    /// are *structurally* unreachable: pairing only ever reads each slot's
    /// most recent occurrence and this context never pops, so everything
    /// below the top is dead and each buffer truncates to one element.
    /// `Recent` is already bounded at one by `buffer_initiator`; the
    /// consuming contexts pop from the top, which re-exposes older entries,
    /// so there every entry is live.
    fn on_watermark(&mut self, _low: u64) -> u64 {
        if self.ctx != Context::Unrestricted {
            return 0;
        }
        let mut evicted = 0;
        for buf in &mut self.bufs {
            if buf.len() > 1 {
                evicted += (buf.len() - 1) as u64;
                let top = buf.pop().expect("non-empty");
                buf.clear();
                buf.push(top);
            }
        }
        evicted
    }

    fn buffered_len(&self) -> usize {
        self.bufs.iter().map(Vec::len).sum()
    }

    /// Encoding: `occs` = one group per alternative slot, in slot order.
    fn save_state(&self) -> crate::state::NodeState<T> {
        crate::state::NodeState {
            occs: self.bufs.clone(),
            ..crate::state::NodeState::empty()
        }
    }

    fn restore_state(&mut self, state: crate::state::NodeState<T>) -> crate::error::Result<()> {
        let crate::state::NodeState { nums, occs, times } = state;
        if !nums.is_empty() || !times.is_empty() || occs.len() != self.bufs.len() {
            return Err(crate::state::shape_err("ANY"));
        }
        self.bufs = occs;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventId;
    use crate::time::CentralTime;

    fn occ(slot: usize, t: u64) -> Occurrence<CentralTime> {
        Occurrence::primitive(
            EventId(slot as u32),
            CentralTime(t),
            vec![(t as i64).into()],
        )
    }

    fn run(
        ctx: Context,
        m: usize,
        n: usize,
        feeds: &[(usize, u64)],
    ) -> Vec<Occurrence<CentralTime>> {
        let mut node = AnyNode::new(ctx, m, n);
        let mut all = Vec::new();
        for &(slot, t) in feeds {
            let mut em = Vec::new();
            let mut tr = Vec::new();
            {
                let mut sink = Sink::new(EventId(9), &mut em, &mut tr);
                node.on_child(slot, &occ(slot, t), &mut sink);
            }
            all.extend(em);
        }
        all
    }

    #[test]
    fn fires_on_mth_distinct() {
        let d = run(Context::Chronicle, 2, 3, &[(0, 1), (1, 2)]);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].time, CentralTime(2));
        assert_eq!(d[0].params.len(), 2);
    }

    #[test]
    fn repeats_of_same_alternative_do_not_fire() {
        let d = run(Context::Chronicle, 2, 3, &[(0, 1), (0, 2), (0, 3)]);
        assert!(d.is_empty());
    }

    #[test]
    fn m_equals_n() {
        let d = run(Context::Chronicle, 3, 3, &[(0, 1), (1, 2), (2, 3)]);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].params.len(), 3);
        assert_eq!(d[0].time, CentralTime(3));
    }

    #[test]
    fn consumption_in_chronicle() {
        // After a detection, the used occurrences are gone: the next
        // arrival of a single alternative does not re-fire.
        let d = run(Context::Chronicle, 2, 2, &[(0, 1), (1, 2), (1, 3)]);
        assert_eq!(d.len(), 1);
        // But replenishing slot 0 re-fires (slot 1 still has t=3 buffered).
        let d2 = run(Context::Chronicle, 2, 2, &[(0, 1), (1, 2), (1, 3), (0, 4)]);
        assert_eq!(d2.len(), 2);
    }

    #[test]
    fn unrestricted_refires() {
        let d = run(Context::Unrestricted, 2, 2, &[(0, 1), (1, 2), (1, 3)]);
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn unrestricted_gc_truncates_to_top_without_changing_detections() {
        let feeds = [(0usize, 1u64), (0, 2), (0, 3), (1, 4), (1, 5)];
        let mut plain = AnyNode::new(Context::Unrestricted, 2, 2);
        let mut gc = AnyNode::new(Context::Unrestricted, 2, 2);
        let mut plain_em = Vec::new();
        let mut gc_em = Vec::new();
        let mut tr = Vec::new();
        for &(slot, t) in &feeds {
            {
                let mut sink = Sink::new(EventId(9), &mut plain_em, &mut tr);
                plain.on_child(slot, &occ(slot, t), &mut sink);
            }
            {
                let mut sink = Sink::new(EventId(9), &mut gc_em, &mut tr);
                gc.on_child(slot, &occ(slot, t), &mut sink);
            }
            gc.on_watermark(t);
        }
        assert_eq!(plain_em.len(), gc_em.len());
        for (a, b) in plain_em.iter().zip(&gc_em) {
            assert_eq!(a.time, b.time);
            assert_eq!(a.params, b.params);
        }
        assert_eq!(plain.buffered_len(), 5);
        assert_eq!(gc.buffered_len(), 2); // one top entry per slot
    }

    #[test]
    fn consuming_contexts_keep_reachable_entries() {
        let mut node = AnyNode::new(Context::Chronicle, 2, 2);
        let mut em = Vec::new();
        let mut tr = Vec::new();
        {
            let mut sink = Sink::new(EventId(9), &mut em, &mut tr);
            node.on_child(0, &occ(0, 1), &mut sink);
            node.on_child(0, &occ(0, 2), &mut sink);
        }
        // Chronicle pops re-expose older entries: nothing may be evicted.
        assert_eq!(node.on_watermark(100), 0);
        assert_eq!(node.buffered_len(), 2);
    }

    #[test]
    fn terminator_params_last() {
        let d = run(Context::Chronicle, 2, 2, &[(1, 1), (0, 2)]);
        assert_eq!(d.len(), 1);
        // Slot-1 occurrence buffered first; terminator (slot 0) last.
        assert_eq!(d[0].params[0].source, EventId(1));
        assert_eq!(d[0].params[1].source, EventId(0));
    }
}
