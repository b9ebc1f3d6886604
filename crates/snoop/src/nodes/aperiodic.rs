//! Aperiodic operators `A(E1, E2, E3)` and `A*(E1, E2, E3)`.
//!
//! * `A` (non-cumulative) is signalled **for each** occurrence of `E2`
//!   inside a window opened by `E1` and not yet closed by `E3`
//!   (Section 5.3), with timestamp `Max(t1, t2)`.
//! * `A*` (cumulative) accumulates the `E2` occurrences of the window and
//!   is signalled **once** when `E3` closes it, with every accumulated
//!   parameter tuple and timestamp `Max` over all constituents. Windows
//!   with no `E2` occurrence still signal at `E3` (with the opener's and
//!   closer's parameters only); rules that require at least one `E2` can
//!   test the parameter count.

use crate::context::Context;
use crate::event::Occurrence;
use crate::nodes::{buffer_initiator, OperatorNode, Sink};
use crate::time::EventTime;

/// Operand slot of the window opener (`E1`).
pub const SLOT_OPENER: usize = 0;
/// Operand slot of the monitored event (`E2`).
pub const SLOT_MID: usize = 1;
/// Operand slot of the window closer (`E3`).
pub const SLOT_CLOSER: usize = 2;

/// State machine for the non-cumulative `A(E1, E2, E3)`.
#[derive(Debug)]
pub struct ANode<T: EventTime> {
    ctx: Context,
    openers: Vec<Occurrence<T>>,
}

impl<T: EventTime> ANode<T> {
    /// New aperiodic node under `ctx`.
    pub fn new(ctx: Context) -> Self {
        ANode {
            ctx,
            openers: Vec::new(),
        }
    }
}

impl<T: EventTime> OperatorNode<T> for ANode<T> {
    fn on_child(&mut self, slot: usize, occ: &Occurrence<T>, sink: &mut Sink<'_, T>) {
        match slot {
            SLOT_OPENER => buffer_initiator(self.ctx, &mut self.openers, occ),
            SLOT_MID => {
                let t2 = &occ.time;
                match self.ctx {
                    Context::Recent => {
                        if let Some(op) = self.openers.first() {
                            if op.time.before(t2) {
                                sink.emit_pair(op, occ);
                            }
                        }
                    }
                    Context::Chronicle => {
                        if let Some(op) = self.openers.iter().find(|op| op.time.before(t2)) {
                            sink.emit_pair(op, occ);
                        }
                    }
                    // Unrestricted / Continuous / Cumulative: every open
                    // window signals (A's per-E2 semantics; consumption
                    // happens at the closer).
                    _ => {
                        for op in self.openers.iter().filter(|op| op.time.before(t2)) {
                            sink.emit_pair(op, occ);
                        }
                    }
                }
            }
            SLOT_CLOSER => {
                // E3 closes (consumes) every window it terminates; no
                // detection is signalled by A at the closer itself.
                let t3 = occ.time.clone();
                self.openers.retain(|op| !op.time.before(&t3));
            }
            _ => debug_assert!(false, "A has three operands"),
        }
    }

    // No `on_watermark` override: an open window matches every future mid
    // occurrence (strictly-after only becomes easier with age), and the
    // closer arm already consumes terminated windows eagerly — so every
    // buffered opener is live.

    fn buffered_len(&self) -> usize {
        self.openers.len()
    }

    /// Encoding: `occs[0]` = open-window openers.
    fn save_state(&self) -> crate::state::NodeState<T> {
        crate::state::NodeState {
            occs: vec![self.openers.clone()],
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
            return Err(crate::state::shape_err("A"));
        }
        self.openers = occs.remove(0);
        Ok(())
    }
}

/// One open window of `A*`.
#[derive(Debug)]
struct StarWindow<T: EventTime> {
    opener: Occurrence<T>,
    mids: Vec<Occurrence<T>>,
}

impl<T: EventTime> StarWindow<T> {
    /// The window's constituents: the opener, then its mids in order.
    fn parts(&self) -> impl Iterator<Item = &Occurrence<T>> + Clone {
        std::iter::once(&self.opener).chain(&self.mids)
    }
}

/// State machine for the cumulative `A*(E1, E2, E3)`.
#[derive(Debug)]
pub struct AStarNode<T: EventTime> {
    ctx: Context,
    windows: Vec<StarWindow<T>>,
}

impl<T: EventTime> AStarNode<T> {
    /// New cumulative aperiodic node under `ctx`.
    pub fn new(ctx: Context) -> Self {
        AStarNode {
            ctx,
            windows: Vec::new(),
        }
    }

    /// Number of open windows (tests/metrics).
    pub fn open_windows(&self) -> usize {
        self.windows.len()
    }
}

impl<T: EventTime> OperatorNode<T> for AStarNode<T> {
    fn on_child(&mut self, slot: usize, occ: &Occurrence<T>, sink: &mut Sink<'_, T>) {
        match slot {
            SLOT_OPENER => match self.ctx {
                Context::Recent => {
                    // Keep only the latest window.
                    if self
                        .windows
                        .first()
                        .is_none_or(|w| !occ.time.before(&w.opener.time))
                    {
                        self.windows.clear();
                        self.windows.push(StarWindow {
                            opener: occ.clone(),
                            mids: Vec::new(),
                        });
                    }
                }
                _ => self.windows.push(StarWindow {
                    opener: occ.clone(),
                    mids: Vec::new(),
                }),
            },
            SLOT_MID => {
                for w in self
                    .windows
                    .iter_mut()
                    .filter(|w| w.opener.time.before(&occ.time))
                {
                    w.mids.push(occ.clone());
                }
            }
            SLOT_CLOSER => {
                let t3 = occ.time.clone();
                let (closed, open): (Vec<_>, Vec<_>) = self
                    .windows
                    .drain(..)
                    .partition(|w| w.opener.time.before(&t3));
                self.windows = open;
                match self.ctx {
                    Context::Cumulative => {
                        // One merged detection across all closed windows.
                        if !closed.is_empty() {
                            let windows = closed.iter().flat_map(|w| w.parts());
                            sink.emit_all(windows.chain([occ]));
                        }
                    }
                    Context::Chronicle => {
                        if let Some(w) = closed.first() {
                            sink.emit_all(w.parts().chain([occ]));
                        }
                        // Later windows are discarded with the closer in
                        // chronicle (consumed unpaired).
                    }
                    _ => {
                        // Unrestricted / Recent / Continuous: one detection
                        // per closed window.
                        for w in &closed {
                            sink.emit_all(w.parts().chain([occ]));
                        }
                    }
                }
            }
            _ => debug_assert!(false, "A* has three operands"),
        }
    }

    // No `on_watermark` override: open windows accumulate until a closer
    // consumes them (the closer arm drains every terminated window), and
    // accumulated mids are needed at close time — nothing buffered here is
    // ever provably dead before the closer arrives.

    fn buffered_len(&self) -> usize {
        self.windows.iter().map(|w| 1 + w.mids.len()).sum()
    }

    /// Encoding: one `occs` group per open window, `[opener, mids...]`
    /// (every group is non-empty by construction).
    fn save_state(&self) -> crate::state::NodeState<T> {
        crate::state::NodeState {
            occs: self
                .windows
                .iter()
                .map(|w| {
                    std::iter::once(w.opener.clone())
                        .chain(w.mids.iter().cloned())
                        .collect()
                })
                .collect(),
            ..crate::state::NodeState::empty()
        }
    }

    fn restore_state(&mut self, state: crate::state::NodeState<T>) -> crate::error::Result<()> {
        let crate::state::NodeState { nums, occs, times } = state;
        if !nums.is_empty() || !times.is_empty() || occs.iter().any(Vec::is_empty) {
            return Err(crate::state::shape_err("A*"));
        }
        self.windows = occs
            .into_iter()
            .map(|mut group| {
                let mids = group.split_off(1);
                StarWindow {
                    opener: group.remove(0),
                    mids,
                }
            })
            .collect();
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

    fn run_a(ctx: Context, feeds: &[(usize, u64)]) -> Vec<Occurrence<CentralTime>> {
        let mut node = ANode::new(ctx);
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

    fn run_star(ctx: Context, feeds: &[(usize, u64)]) -> Vec<Occurrence<CentralTime>> {
        let mut node = AStarNode::new(ctx);
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
    fn a_signals_per_mid_event() {
        let d = run_a(
            Context::Unrestricted,
            &[
                (SLOT_OPENER, 1),
                (SLOT_MID, 2),
                (SLOT_MID, 3),
                (SLOT_CLOSER, 4),
                (SLOT_MID, 5), // window closed: no signal
            ],
        );
        assert_eq!(d.len(), 2);
        assert_eq!(d[0].time, CentralTime(2));
        assert_eq!(d[1].time, CentralTime(3));
    }

    #[test]
    fn a_requires_open_window() {
        assert!(run_a(Context::Unrestricted, &[(SLOT_MID, 2)]).is_empty());
        // Mid at the same tick as the opener is not strictly after it.
        assert!(run_a(Context::Unrestricted, &[(SLOT_OPENER, 2), (SLOT_MID, 2)]).is_empty());
    }

    #[test]
    fn a_multiple_windows_unrestricted() {
        let d = run_a(
            Context::Unrestricted,
            &[(SLOT_OPENER, 1), (SLOT_OPENER, 2), (SLOT_MID, 3)],
        );
        assert_eq!(d.len(), 2); // one per open window
    }

    #[test]
    fn a_recent_latest_window_only() {
        let d = run_a(
            Context::Recent,
            &[(SLOT_OPENER, 1), (SLOT_OPENER, 2), (SLOT_MID, 3)],
        );
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].params[0].values[0].as_int(), Some(2));
    }

    #[test]
    fn a_chronicle_oldest_window() {
        let d = run_a(
            Context::Chronicle,
            &[(SLOT_OPENER, 1), (SLOT_OPENER, 2), (SLOT_MID, 3)],
        );
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].params[0].values[0].as_int(), Some(1));
    }

    #[test]
    fn star_accumulates_and_fires_at_closer() {
        let d = run_star(
            Context::Continuous,
            &[
                (SLOT_OPENER, 1),
                (SLOT_MID, 2),
                (SLOT_MID, 3),
                (SLOT_CLOSER, 4),
            ],
        );
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].time, CentralTime(4));
        // opener + two mids + closer
        assert_eq!(d[0].params.len(), 4);
    }

    #[test]
    fn star_empty_window_still_fires() {
        let d = run_star(Context::Continuous, &[(SLOT_OPENER, 1), (SLOT_CLOSER, 4)]);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].params.len(), 2); // opener + closer only
    }

    #[test]
    fn star_cumulative_merges_windows() {
        let d = run_star(
            Context::Cumulative,
            &[
                (SLOT_OPENER, 1),
                (SLOT_MID, 2),
                (SLOT_OPENER, 3),
                (SLOT_MID, 4),
                (SLOT_CLOSER, 5),
            ],
        );
        assert_eq!(d.len(), 1);
        // w1: opener@1 + mids@2,@4; w2: opener@3 + mid@4; closer once.
        // parts: opener1, mid2, mid4, opener3, mid4, closer = 6
        assert_eq!(d[0].params.len(), 6);
    }

    #[test]
    fn star_windows_consumed() {
        let mut node: AStarNode<CentralTime> = AStarNode::new(Context::Continuous);
        let mut em = Vec::new();
        let mut tr = Vec::new();
        {
            let mut sink = Sink::new(EventId(9), &mut em, &mut tr);
            node.on_child(SLOT_OPENER, &occ(SLOT_OPENER, 1), &mut sink);
            node.on_child(SLOT_CLOSER, &occ(SLOT_CLOSER, 2), &mut sink);
        }
        assert_eq!(node.open_windows(), 0);
        // A second closer produces nothing.
        {
            let mut sink = Sink::new(EventId(9), &mut em, &mut tr);
            node.on_child(SLOT_CLOSER, &occ(SLOT_CLOSER, 3), &mut sink);
        }
        assert_eq!(em.len(), 1);
    }
}
