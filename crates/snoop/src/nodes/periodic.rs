//! Periodic operators `P(E1, [t], E3)`, `P*(E1, [t], E3)` and the offset
//! operator's machinery they share.
//!
//! After an `E1` occurrence, `P` signals every `period` ticks until an `E3`
//! occurrence closes the window. The node itself has no clock: it registers
//! timer requests and the *driver* supplies each fire's timestamp — the
//! centralized detector computes `t1 + k·period`; the distributed engine
//! reads the scheduled site's local clock, so periodic occurrences carry
//! genuine `(site, global, local)` stamps.
//!
//! `P*` accumulates the fire times and signals once at `E3`.
//!
//! Parameter contexts: periodic windows follow the opener-buffer rules —
//! `Recent` keeps only the newest window, other contexts keep all;
//! detection consumes nothing until the closer removes windows.

use crate::event::{Occurrence, Value};
use crate::nodes::{OperatorNode, Sink};
use crate::time::EventTime;

/// Operand slot of the window opener (`E1`).
pub const SLOT_OPENER: usize = 0;
/// Operand slot of the window closer (`E3`).
pub const SLOT_CLOSER: usize = 1;

#[derive(Debug)]
struct PWindow<T: EventTime> {
    tag: u64,
    opener: Occurrence<T>,
    /// Accumulated fire times (used by `P*`; `P` leaves it empty).
    fires: Vec<T>,
    closed: bool,
}

/// Shared window bookkeeping for `P` and `P*`.
#[derive(Debug)]
struct PeriodicCore<T: EventTime> {
    period: u64,
    windows: Vec<PWindow<T>>,
    next_tag: u64,
}

impl<T: EventTime> PeriodicCore<T> {
    fn new(period: u64) -> Self {
        PeriodicCore {
            period,
            windows: Vec::new(),
            next_tag: 0,
        }
    }

    fn open(&mut self, occ: &Occurrence<T>, sink: &mut Sink<'_, T>) {
        let tag = self.next_tag;
        self.next_tag += 1;
        self.windows.push(PWindow {
            tag,
            opener: occ.clone(),
            fires: Vec::new(),
            closed: false,
        });
        sink.request_timer(tag, self.period);
    }

    fn close(&mut self, t3: &T) -> Vec<PWindow<T>> {
        let (closed, open): (Vec<_>, Vec<_>) = self
            .windows
            .drain(..)
            .partition(|w| w.opener.time.before(t3));
        self.windows = open;
        closed
    }

    fn window_mut(&mut self, tag: u64) -> Option<&mut PWindow<T>> {
        self.windows.iter_mut().find(|w| w.tag == tag)
    }

    fn open_count(&self) -> usize {
        self.windows.iter().filter(|w| !w.closed).count()
    }

    /// Encoding shared by `P`/`P*`: `nums` = `[next_tag, tag_0, closed_0,
    /// tag_1, closed_1, …]`; `occs[i]` = `[opener_i]`; `times[i]` =
    /// accumulated fire times of window `i`.
    fn save_state(&self) -> crate::state::NodeState<T> {
        let mut nums = vec![self.next_tag];
        for w in &self.windows {
            nums.push(w.tag);
            nums.push(u64::from(w.closed));
        }
        crate::state::NodeState {
            nums,
            occs: self
                .windows
                .iter()
                .map(|w| vec![w.opener.clone()])
                .collect(),
            times: self.windows.iter().map(|w| w.fires.clone()).collect(),
        }
    }

    fn restore_state(
        &mut self,
        state: crate::state::NodeState<T>,
        node: &str,
    ) -> crate::error::Result<()> {
        let crate::state::NodeState { nums, occs, times } = state;
        let n = occs.len();
        if nums.len() != 1 + 2 * n || times.len() != n || occs.iter().any(|g| g.len() != 1) {
            return Err(crate::state::shape_err(node));
        }
        self.next_tag = nums[0];
        self.windows = occs
            .into_iter()
            .zip(times)
            .enumerate()
            .map(|(i, (mut group, fires))| PWindow {
                tag: nums[1 + 2 * i],
                opener: group.remove(0),
                fires,
                closed: nums[2 + 2 * i] != 0,
            })
            .collect();
        Ok(())
    }
}

/// State machine for `P(E1, [t], E3)`.
#[derive(Debug)]
pub struct PNode<T: EventTime> {
    core: PeriodicCore<T>,
}

impl<T: EventTime> PNode<T> {
    /// New periodic node with the given period (in ticks).
    pub fn new(period: u64) -> Self {
        PNode {
            core: PeriodicCore::new(period),
        }
    }

    /// Number of open windows (tests/metrics).
    pub fn open_windows(&self) -> usize {
        self.core.open_count()
    }
}

impl<T: EventTime> OperatorNode<T> for PNode<T> {
    fn on_child(&mut self, slot: usize, occ: &Occurrence<T>, sink: &mut Sink<'_, T>) {
        match slot {
            SLOT_OPENER => self.core.open(occ, sink),
            SLOT_CLOSER => {
                let _ = self.core.close(&occ.time);
            }
            _ => debug_assert!(false, "P has two event operands"),
        }
    }

    fn on_timer(&mut self, tag: u64, time: &T, sink: &mut Sink<'_, T>) {
        let period = self.core.period;
        if let Some(w) = self.core.window_mut(tag) {
            // Emit with the opener's parameters at the fire time, then
            // re-arm for the next period.
            sink.emit(Occurrence::with_params(
                w.opener.ty,
                time.clone(),
                w.opener.params.clone(),
            ));
            sink.request_timer(tag, period);
        }
        // A fire for a removed window is a no-op (window closed between
        // scheduling and delivery).
    }

    // No `on_watermark` override: an open periodic window keeps firing
    // until its closer arrives, and the closer arm consumes it eagerly —
    // every buffered window is live by construction.

    fn buffered_len(&self) -> usize {
        self.core.windows.len()
    }

    fn min_timer_delay(&self) -> Option<u64> {
        Some(self.core.period)
    }

    /// See `PeriodicCore::save_state` for the encoding.
    fn save_state(&self) -> crate::state::NodeState<T> {
        self.core.save_state()
    }

    fn restore_state(&mut self, state: crate::state::NodeState<T>) -> crate::error::Result<()> {
        self.core.restore_state(state, "P")
    }
}

/// State machine for `P*(E1, [t], E3)`.
#[derive(Debug)]
pub struct PStarNode<T: EventTime> {
    core: PeriodicCore<T>,
}

impl<T: EventTime> PStarNode<T> {
    /// New cumulative periodic node with the given period (in ticks).
    pub fn new(period: u64) -> Self {
        PStarNode {
            core: PeriodicCore::new(period),
        }
    }

    /// Number of open windows (tests/metrics).
    pub fn open_windows(&self) -> usize {
        self.core.open_count()
    }
}

impl<T: EventTime> OperatorNode<T> for PStarNode<T> {
    fn on_child(&mut self, slot: usize, occ: &Occurrence<T>, sink: &mut Sink<'_, T>) {
        match slot {
            SLOT_OPENER => self.core.open(occ, sink),
            SLOT_CLOSER => {
                for w in self.core.close(&occ.time) {
                    // One detection per closed window: the opener's
                    // parameters, the number of accumulated fires, and the
                    // Max over fire times and the closer.
                    let mut time = occ.time.clone();
                    for f in &w.fires {
                        time = time.max(f);
                    }
                    let fires = crate::event::ParamTuple::new(
                        occ.ty,
                        vec![Value::Int(w.fires.len() as i64)],
                    );
                    let params = w.opener.params.iter().cloned().chain([fires]).collect();
                    sink.emit(Occurrence::with_params(occ.ty, time, params));
                }
            }
            _ => debug_assert!(false, "P* has two event operands"),
        }
    }

    fn on_timer(&mut self, tag: u64, time: &T, sink: &mut Sink<'_, T>) {
        let period = self.core.period;
        if let Some(w) = self.core.window_mut(tag) {
            w.fires.push(time.clone());
            sink.request_timer(tag, period);
        }
    }

    // No `on_watermark` override: accumulated fires are all reported at the
    // closer, so every window and every fire is live until then.

    fn buffered_len(&self) -> usize {
        self.core.windows.iter().map(|w| 1 + w.fires.len()).sum()
    }

    fn min_timer_delay(&self) -> Option<u64> {
        Some(self.core.period)
    }

    /// See `PeriodicCore::save_state` for the encoding.
    fn save_state(&self) -> crate::state::NodeState<T> {
        self.core.save_state()
    }

    fn restore_state(&mut self, state: crate::state::NodeState<T>) -> crate::error::Result<()> {
        self.core.restore_state(state, "P*")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventId;
    use crate::time::CentralTime;

    fn occ(t: u64) -> Occurrence<CentralTime> {
        Occurrence::bare(EventId(0), CentralTime(t))
    }

    #[test]
    fn p_requests_timer_on_open() {
        let mut node: PNode<CentralTime> = PNode::new(10);
        let mut em = Vec::new();
        let mut tr = Vec::new();
        {
            let mut sink = Sink::new(EventId(9), &mut em, &mut tr);
            node.on_child(SLOT_OPENER, &occ(100), &mut sink);
        }
        assert_eq!(tr, vec![(0, 10)]);
        assert_eq!(node.open_windows(), 1);
    }

    #[test]
    fn p_fires_and_rearms() {
        let mut node: PNode<CentralTime> = PNode::new(10);
        let mut em = Vec::new();
        let mut tr = Vec::new();
        {
            let mut sink = Sink::new(EventId(9), &mut em, &mut tr);
            node.on_child(SLOT_OPENER, &occ(100), &mut sink);
            node.on_timer(0, &CentralTime(110), &mut sink);
        }
        assert_eq!(em.len(), 1);
        assert_eq!(em[0].time, CentralTime(110));
        assert_eq!(em[0].ty, EventId(9));
        // Re-armed with the same tag.
        assert_eq!(tr, vec![(0, 10), (0, 10)]);
    }

    #[test]
    fn p_stops_after_closer() {
        let mut node: PNode<CentralTime> = PNode::new(10);
        let mut em = Vec::new();
        let mut tr = Vec::new();
        {
            let mut sink = Sink::new(EventId(9), &mut em, &mut tr);
            node.on_child(SLOT_OPENER, &occ(100), &mut sink);
            node.on_child(SLOT_CLOSER, &occ(105), &mut sink);
            node.on_timer(0, &CentralTime(110), &mut sink);
        }
        assert!(em.is_empty());
        assert_eq!(node.open_windows(), 0);
    }

    #[test]
    fn p_closer_before_opener_does_not_close() {
        let mut node: PNode<CentralTime> = PNode::new(10);
        let mut em = Vec::new();
        let mut tr = Vec::new();
        {
            let mut sink = Sink::new(EventId(9), &mut em, &mut tr);
            node.on_child(SLOT_OPENER, &occ(100), &mut sink);
            node.on_child(SLOT_CLOSER, &occ(50), &mut sink); // earlier: no-op
            node.on_timer(0, &CentralTime(110), &mut sink);
        }
        assert_eq!(em.len(), 1);
    }

    #[test]
    fn pstar_accumulates_and_fires_once() {
        let mut node: PStarNode<CentralTime> = PStarNode::new(10);
        let mut em = Vec::new();
        let mut tr = Vec::new();
        {
            let mut sink = Sink::new(EventId(9), &mut em, &mut tr);
            node.on_child(SLOT_OPENER, &occ(100), &mut sink);
            node.on_timer(0, &CentralTime(110), &mut sink);
            node.on_timer(0, &CentralTime(120), &mut sink);
        }
        assert!(em.is_empty()); // nothing until the closer
        {
            let mut sink = Sink::new(EventId(9), &mut em, &mut tr);
            node.on_child(SLOT_CLOSER, &occ(125), &mut sink);
        }
        assert_eq!(em.len(), 1);
        // Two accumulated fires reported as a count parameter.
        let count = em[0].params.last().unwrap().values[0].as_int();
        assert_eq!(count, Some(2));
        // Time is the Max of closer and fires.
        assert_eq!(em[0].time, CentralTime(125));
    }

    #[test]
    fn pstar_empty_window_reports_zero_fires() {
        let mut node: PStarNode<CentralTime> = PStarNode::new(10);
        let mut em = Vec::new();
        let mut tr = Vec::new();
        {
            let mut sink = Sink::new(EventId(9), &mut em, &mut tr);
            node.on_child(SLOT_OPENER, &occ(100), &mut sink);
            node.on_child(SLOT_CLOSER, &occ(105), &mut sink);
        }
        assert_eq!(em.len(), 1);
        assert_eq!(em[0].params.last().unwrap().values[0].as_int(), Some(0));
    }

    #[test]
    fn stale_timer_is_noop() {
        let mut node: PStarNode<CentralTime> = PStarNode::new(10);
        let mut em = Vec::new();
        let mut tr = Vec::new();
        {
            let mut sink = Sink::new(EventId(9), &mut em, &mut tr);
            node.on_timer(77, &CentralTime(1), &mut sink);
        }
        assert!(em.is_empty());
        assert!(tr.is_empty());
    }
}
