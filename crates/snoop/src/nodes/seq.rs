//! Sequence `E1 ; E2`: `E1` strictly happens-before `E2`
//! (Section 5.3: `(E1;E2)(ts) = ∃t1,t2 (E1(t1) ∧ E2(t2) ∧ t1 < t2)`,
//! `ts = Max(t1, t2)`).
//!
//! In the distributed time domain the `t1 < t2` test is the partial order
//! `<_p` — a left occurrence merely *concurrent* with the right one does
//! **not** satisfy the sequence, which is precisely the semantic refinement
//! the paper's ordering provides.

use crate::context::Context;
use crate::event::Occurrence;
use crate::nodes::{BandedBuffer, OperatorNode, Sink};
use crate::time::EventTime;

/// State machine for `E1 ; E2`.
///
/// Initiators live in a `BandedBuffer` sorted by the cached max-global
/// bound: a terminator binary-searches the band-separated
/// "certainly-before" prefix and only runs full `<_p` relation checks on
/// the initiators inside the `2g_g` uncertainty band. Behaviorally
/// identical to the linear scan (the oracle in `tests/prop_fastpath.rs`).
#[derive(Debug)]
pub struct SeqNode<T: EventTime> {
    ctx: Context,
    inits: BandedBuffer<T>,
}

impl<T: EventTime> SeqNode<T> {
    /// New sequence node under `ctx`.
    pub fn new(ctx: Context) -> Self {
        SeqNode {
            ctx,
            inits: BandedBuffer::default(),
        }
    }

    /// Number of buffered initiators (tests/metrics).
    pub fn buffered(&self) -> usize {
        self.inits.len()
    }
}

impl<T: EventTime> OperatorNode<T> for SeqNode<T> {
    fn on_child(&mut self, slot: usize, occ: &Occurrence<T>, sink: &mut Sink<'_, T>) {
        match slot {
            0 => self.inits.insert(self.ctx, occ),
            1 => self.inits.terminate_before(self.ctx, occ, sink),
            _ => debug_assert!(false, "SEQ has two operands"),
        }
    }

    // No `on_watermark` override: a buffered initiator matches every
    // *later* terminator, and aging only moves future terminators further
    // past it — `t1 < t2` can only become true over time, never false. The
    // watermark therefore cannot prove an initiator dead.

    fn buffered_len(&self) -> usize {
        self.inits.len()
    }

    /// Encoding: `occs[0]` = buffered initiators in arrival order.
    fn save_state(&self) -> crate::state::NodeState<T> {
        crate::state::NodeState {
            occs: vec![self.inits.save_occs()],
            ..crate::state::NodeState::empty()
        }
    }

    fn restore_state(&mut self, state: crate::state::NodeState<T>) -> crate::error::Result<()> {
        let crate::state::NodeState {
            nums,
            mut occs,
            times,
        } = state;
        if !nums.is_empty() || !times.is_empty() || occs.len() != 1 {
            return Err(crate::state::shape_err("SEQ"));
        }
        self.inits.restore_occs(self.ctx, occs.remove(0));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventId;
    use crate::time::CentralTime;
    use decs_core::{cts, CompositeTimestamp};

    fn occ(t: u64) -> Occurrence<CentralTime> {
        Occurrence::primitive(EventId(0), CentralTime(t), vec![(t as i64).into()])
    }

    fn run(ctx: Context, feeds: &[(usize, u64)]) -> Vec<Occurrence<CentralTime>> {
        let mut node = SeqNode::new(ctx);
        let mut all = Vec::new();
        for &(slot, t) in feeds {
            let mut em = Vec::new();
            let mut tr = Vec::new();
            {
                let mut sink = Sink::new(EventId(9), &mut em, &mut tr);
                node.on_child(slot, &occ(t), &mut sink);
            }
            all.extend(em);
        }
        all
    }

    #[test]
    fn requires_strict_order() {
        // Terminator at the same tick as the initiator does not match.
        assert!(run(Context::Unrestricted, &[(0, 5), (1, 5)]).is_empty());
        let d = run(Context::Unrestricted, &[(0, 5), (1, 6)]);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].time, CentralTime(6));
    }

    #[test]
    fn terminator_before_initiator_never_matches() {
        assert!(run(Context::Unrestricted, &[(1, 6), (0, 5)]).is_empty());
        // …and the late initiator stays buffered for a future terminator.
        let d = run(Context::Unrestricted, &[(1, 6), (0, 5), (1, 7)]);
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn contexts() {
        let feeds = [(0usize, 1u64), (0, 2), (1, 3), (1, 4)];
        assert_eq!(run(Context::Unrestricted, &feeds).len(), 4);
        assert_eq!(run(Context::Recent, &feeds).len(), 2); // A@2 with each B
        assert_eq!(run(Context::Chronicle, &feeds).len(), 2); // 1-3, 2-4
        assert_eq!(run(Context::Continuous, &feeds).len(), 2); // both at B@3
        let cum = run(Context::Cumulative, &feeds);
        assert_eq!(cum.len(), 1);
        assert_eq!(cum[0].params.len(), 3);
    }

    #[test]
    fn chronicle_is_fifo() {
        let d = run(Context::Chronicle, &[(0, 1), (0, 2), (1, 3), (1, 4)]);
        assert_eq!(d[0].params[0].values[0].as_int(), Some(1));
        assert_eq!(d[1].params[0].values[0].as_int(), Some(2));
    }

    #[test]
    fn distributed_concurrent_pair_is_not_a_sequence() {
        // {(s1,8,80)} and {(s2,8,82)} are concurrent: no SEQ detection —
        // the heart of the paper's distributed refinement.
        let mut node: SeqNode<CompositeTimestamp> = SeqNode::new(Context::Unrestricted);
        let a = Occurrence::bare(EventId(0), cts(&[(1, 8, 80)]));
        let b = Occurrence::bare(EventId(1), cts(&[(2, 8, 82)]));
        let mut em = Vec::new();
        let mut tr = Vec::new();
        {
            let mut sink = Sink::new(EventId(9), &mut em, &mut tr);
            node.on_child(0, &a, &mut sink);
            node.on_child(1, &b, &mut sink);
        }
        assert!(em.is_empty());
        // A clearly-later terminator does match, and its time is the Max.
        let c = Occurrence::bare(EventId(1), cts(&[(2, 10, 100)]));
        {
            let mut sink = Sink::new(EventId(9), &mut em, &mut tr);
            node.on_child(1, &c, &mut sink);
        }
        assert_eq!(em.len(), 1);
        assert_eq!(em[0].time, cts(&[(2, 10, 100)]));
    }

    #[test]
    fn buffered_count() {
        let mut node: SeqNode<CentralTime> = SeqNode::new(Context::Chronicle);
        let mut em = Vec::new();
        let mut tr = Vec::new();
        {
            let mut sink = Sink::new(EventId(9), &mut em, &mut tr);
            node.on_child(0, &occ(1), &mut sink);
            node.on_child(0, &occ(2), &mut sink);
        }
        assert_eq!(node.buffered(), 2);
    }
}
