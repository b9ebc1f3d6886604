//! The send window of one sequence-numbered stream: sent-but-unacked
//! messages, oldest first.
//!
//! Every reliable stream in the engine — a site's stream to the
//! coordinator, each partitioned uplink, each replica → replica relay
//! stream — allocates sequence numbers in ascending order and is trimmed
//! by *cumulative* acks. So the window is a FIFO: sends append at the
//! back, an ack pops from the front, and a retransmission round reads a
//! prefix. A deque does each in O(1) per message, where an ordered map
//! would rebuild itself on every ack.

use crate::protocol::Msg;
use std::collections::{BTreeMap, VecDeque};

/// Sent-but-unacked messages of one stream, in ascending sequence order.
#[derive(Debug, Default, Clone)]
pub(crate) struct SendWindow(VecDeque<(u64, Msg)>);

impl SendWindow {
    /// Retain `msg`, sent under `seq`, for retransmission. Sequence
    /// numbers must strictly increase across pushes.
    pub(crate) fn push(&mut self, seq: u64, msg: Msg) {
        debug_assert!(
            self.0.back().is_none_or(|&(last, _)| last < seq),
            "send window sequence numbers must increase"
        );
        self.0.push_back((seq, msg));
    }

    /// Apply a cumulative ack: drop every message below `cum_seq` and
    /// return how many were dropped (0 for a stale or duplicate ack).
    pub(crate) fn ack(&mut self, cum_seq: u64) -> usize {
        let acked = self.0.partition_point(|&(seq, _)| seq < cum_seq);
        self.0.drain(..acked);
        acked
    }

    /// Number of unacked messages.
    pub(crate) fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether every sent message has been acked.
    pub(crate) fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The oldest unacked message and its sequence number.
    pub(crate) fn front(&self) -> Option<(u64, &Msg)> {
        self.0.front().map(|(seq, m)| (*seq, m))
    }

    /// The unacked messages, oldest first.
    pub(crate) fn messages(&self) -> impl Iterator<Item = &Msg> {
        self.0.iter().map(|(_, m)| m)
    }

    /// Mutable access to the unacked messages, oldest first (the restart
    /// retag).
    pub(crate) fn messages_mut(&mut self) -> impl Iterator<Item = &mut Msg> {
        self.0.iter_mut().map(|(_, m)| m)
    }

    /// The window as the keyed map the site WAL image stores.
    pub(crate) fn to_map(&self) -> BTreeMap<u64, Msg> {
        self.0.iter().cloned().collect()
    }
}

impl From<BTreeMap<u64, Msg>> for SendWindow {
    fn from(map: BTreeMap<u64, Msg>) -> Self {
        SendWindow(map.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::durability::site_wal::{compaction_records, fold_records, SiteWalState};
    use decs_simnet::SplitMix64;

    fn hb(seq: u64, epoch: u64) -> Msg {
        Msg::Batch {
            seq,
            epoch,
            watermark: seq * 3,
            events: std::sync::Arc::new(vec![]),
        }
    }

    fn assert_same(w: &SendWindow, oracle: &BTreeMap<u64, Msg>, step: usize) {
        assert_eq!(w.len(), oracle.len(), "step {step}: len");
        assert_eq!(w.is_empty(), oracle.is_empty(), "step {step}: is_empty");
        assert!(
            w.messages().eq(oracle.values()),
            "step {step}: contents differ"
        );
        assert_eq!(&w.to_map(), oracle, "step {step}: to_map");
    }

    /// Random sends, acks and restarts against the `BTreeMap::split_off`
    /// window the sites used to keep: acks below the window (stale),
    /// repeated (duplicate), zero, inside it, and beyond its tail; restarts
    /// that either reset the sequence space (non-durable) or fold the
    /// window through the site WAL image and back (durable).
    #[test]
    fn matches_split_off_oracle() {
        for seed in 0..64 {
            let mut rng = SplitMix64::new(seed);
            let mut w = SendWindow::default();
            let mut oracle: BTreeMap<u64, Msg> = BTreeMap::new();
            let mut next = 0u64;
            let mut last_ack = 0u64;
            let mut epoch = 0u64;
            for step in 0..400 {
                match rng.next_below(16) {
                    0..=6 => {
                        w.push(next, hb(next, epoch));
                        oracle.insert(next, hb(next, epoch));
                        next += 1;
                    }
                    7..=12 => {
                        let cum = match rng.next_below(5) {
                            0 => 0,
                            1 => last_ack,
                            2 => last_ack.saturating_sub(1 + rng.next_below(4)),
                            3 => next + 1 + rng.next_below(4),
                            _ => last_ack + rng.next_below(next - last_ack + 1),
                        };
                        let before = oracle.len();
                        oracle = oracle.split_off(&cum);
                        assert_eq!(w.ack(cum), before - oracle.len(), "step {step}: trimmed");
                        last_ack = last_ack.max(cum.min(next));
                    }
                    13 => {
                        // Non-durable restart: the sequence space restarts.
                        epoch += 1;
                        w = SendWindow::default();
                        oracle.clear();
                        next = 0;
                        last_ack = 0;
                    }
                    _ => {
                        // Durable restart: the window survives through the
                        // site WAL's compaction image.
                        epoch += 1;
                        let img = SiteWalState {
                            epoch,
                            next_seq: next,
                            retx: w.to_map(),
                            staged: Vec::new(),
                        };
                        let back = fold_records(&compaction_records(&img));
                        assert_eq!(back.retx, oracle, "step {step}: WAL image");
                        w = back.retx.into();
                    }
                }
                assert_same(&w, &oracle, step);
            }
        }
    }

    #[test]
    fn ack_edges() {
        let mut w = SendWindow::default();
        assert_eq!(w.ack(5), 0, "ack on an empty window");
        assert!(w.front().is_none());
        for s in 3..8 {
            w.push(s, hb(s, 0));
        }
        assert_eq!(w.ack(0), 0, "zero ack");
        assert_eq!(w.ack(3), 0, "ack at the head trims nothing");
        assert_eq!(w.front(), Some((3, &hb(3, 0))));
        assert_eq!(w.ack(5), 2);
        assert_eq!(w.front().map(|(seq, _)| seq), Some(5));
        assert_eq!(w.ack(5), 0, "duplicate ack");
        assert_eq!(w.ack(4), 0, "stale ack");
        assert_eq!(w.ack(100), 3, "ack beyond the tail empties the window");
        assert!(w.is_empty());
    }
}
