//! The centralized detection driver.
//!
//! [`CentralDetector`] is the Section 3 centralized semantics over the
//! plan engine: time is a total-order tick counter, so the driver itself
//! can service timer requests from a priority queue — feeding an
//! occurrence at tick `t` first fires every timer due at or before `t`.
//! Drivers over other time domains (the distributed sites and
//! coordinator) use [`PlanDetector`] directly and schedule its timer
//! requests on their own clocks.

use crate::context::Context;
use crate::error::Result;
use crate::event::{Catalog, EventId, Occurrence, Value};
use crate::expr::EventExpr;
use crate::plan::{FeedOutput, PlanDetector, PlanStats, ShardId, TimerId};
use crate::time::CentralTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The centralized detector (Section 3): totally ordered ticks with an
/// internal timer queue. Occurrences must be fed in non-decreasing tick
/// order (as a single physical clock produces them).
#[derive(Debug)]
pub struct CentralDetector {
    plan: PlanDetector<CentralTime>,
    /// Due timers: `(fire_tick, owning definition, id)`, min-heap.
    timers: BinaryHeap<Reverse<(u64, ShardId, u64)>>,
    /// Highest tick seen (for monotonicity checking).
    now: u64,
    /// Total entries evicted by watermark GC.
    gc_evicted: u64,
    /// Highest buffered occupancy observed at a GC point.
    buffer_peak: usize,
}

impl Default for CentralDetector {
    fn default() -> Self {
        Self::new()
    }
}

impl CentralDetector {
    /// An empty centralized detector over the hash-consed shared plan:
    /// structurally identical subexpressions across definitions execute
    /// once per trigger (see [`PlanDetector`]).
    pub fn new() -> Self {
        Self::with_plan(PlanDetector::new())
    }

    /// An empty centralized detector that compiles every definition
    /// independently ([`PlanDetector::unshared`]), the oracle the shared
    /// plan is compared against. Detection output is identical to
    /// [`Self::new`]'s.
    pub fn unshared() -> Self {
        Self::with_plan(PlanDetector::unshared())
    }

    fn with_plan(plan: PlanDetector<CentralTime>) -> Self {
        CentralDetector {
            plan,
            timers: BinaryHeap::new(),
            now: 0,
            gc_evicted: 0,
            buffer_peak: 0,
        }
    }

    /// Topological stages in the definition dependency DAG.
    pub fn stage_count(&self) -> usize {
        self.plan.stage_count()
    }

    /// Smallest timer delay any definition can request, or `None` when no
    /// definition uses a temporal operator (`+`, `P`, `P*`).
    pub fn min_timer_delay(&self) -> Option<u64> {
        self.plan.min_timer_delay()
    }

    /// Plan statistics (an unshared detector reports zero shared nodes and
    /// a sharing ratio of 0).
    pub fn plan_stats(&self) -> PlanStats {
        self.plan.plan_stats()
    }

    /// Total buffered entries evicted by watermark GC so far.
    pub fn gc_evicted(&self) -> u64 {
        self.gc_evicted
    }

    /// Occurrences currently buffered across operator nodes.
    pub fn buffered_occupancy(&self) -> usize {
        self.plan.buffered_occupancy()
    }

    /// Highest occupancy observed at a GC point (post-eviction).
    pub fn buffer_peak(&self) -> usize {
        self.buffer_peak
    }

    /// Register a primitive event type.
    pub fn register(&mut self, name: &str) -> Result<EventId> {
        self.plan.register(name)
    }

    /// Define a named composite event.
    pub fn define(&mut self, name: &str, expr: &EventExpr, ctx: Context) -> Result<EventId> {
        self.plan.define(name, expr, ctx)
    }

    /// The catalog.
    pub fn catalog(&self) -> &Catalog {
        self.plan.catalog()
    }

    /// The current clock tick (highest seen).
    pub fn now(&self) -> CentralTime {
        CentralTime(self.now)
    }

    /// Advance the clock to `tick`, firing every due timer, and return the
    /// composite occurrences those timers produced.
    pub fn advance_to(&mut self, tick: u64) -> Result<Vec<Occurrence<CentralTime>>> {
        let mut detected = Vec::new();
        while let Some(&Reverse((due, def, id))) = self.timers.peek() {
            if due > tick {
                break;
            }
            self.timers.pop();
            let r = self.plan.fire_timer(def, TimerId(id), CentralTime(due))?;
            self.absorb(r, due, &mut detected);
        }
        self.now = self.now.max(tick);
        // Feeds are non-decreasing and due timers have been drained, so
        // every future stamp is ≥ `now`: `now` is a valid low watermark.
        self.gc_evicted += self.plan.advance_watermark(self.now);
        self.buffer_peak = self.buffer_peak.max(self.buffered_occupancy());
        Ok(detected)
    }

    /// Feed a primitive occurrence at tick `t` (≥ the last fed tick), first
    /// firing due timers. Returns every named composite occurrence detected
    /// by the timers and the occurrence itself, in order.
    pub fn feed(
        &mut self,
        name: &str,
        tick: u64,
        values: Vec<Value>,
    ) -> Result<Vec<Occurrence<CentralTime>>> {
        let mut detected = self.advance_to(tick)?;
        let ty = self.catalog().lookup(name)?;
        let occ = Occurrence::primitive(ty, CentralTime(tick), values);
        let r = self.plan.feed(occ);
        self.absorb(r, tick, &mut detected);
        Ok(detected)
    }

    /// Feed without parameters.
    pub fn feed_bare(&mut self, name: &str, tick: u64) -> Result<Vec<Occurrence<CentralTime>>> {
        self.feed(name, tick, Vec::new())
    }

    /// Resolve a detected occurrence's type name.
    pub fn name_of(&self, occ: &Occurrence<CentralTime>) -> &str {
        self.catalog().name(occ.ty)
    }

    /// Queue `r`'s timer requests relative to `base_tick` and append its
    /// detections to `detected`.
    fn absorb(
        &mut self,
        r: FeedOutput<CentralTime>,
        base_tick: u64,
        detected: &mut Vec<Occurrence<CentralTime>>,
    ) {
        for (def, t) in r.timers {
            self.timers
                .push(Reverse((base_tick + t.delay_ticks, def, t.id.0)));
        }
        detected.extend(r.detected);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::EventExpr as E;

    fn detector_with(expr: EventExpr, ctx: Context) -> CentralDetector {
        let mut d = CentralDetector::new();
        for n in ["A", "B", "C"] {
            d.register(n).unwrap();
        }
        d.define("X", &expr, ctx).unwrap();
        d
    }

    #[test]
    fn seq_end_to_end() {
        let mut d = detector_with(E::seq(E::prim("A"), E::prim("B")), Context::Chronicle);
        assert!(d.feed_bare("A", 1).unwrap().is_empty());
        let det = d.feed_bare("B", 2).unwrap();
        assert_eq!(det.len(), 1);
        assert_eq!(d.name_of(&det[0]), "X");
        assert_eq!(det[0].time, CentralTime(2));
    }

    #[test]
    fn plus_fires_via_timer_queue() {
        let mut d = detector_with(E::plus(E::prim("A"), 10), Context::Chronicle);
        assert!(d.feed_bare("A", 5).unwrap().is_empty());
        // Nothing yet at tick 14…
        assert!(d.advance_to(14).unwrap().is_empty());
        // …fires at 15.
        let det = d.advance_to(15).unwrap();
        assert_eq!(det.len(), 1);
        assert_eq!(det[0].time, CentralTime(15));
    }

    #[test]
    fn plus_fires_lazily_on_next_feed() {
        let mut d = detector_with(E::plus(E::prim("A"), 10), Context::Chronicle);
        d.feed_bare("A", 5).unwrap();
        // Feeding B at 20 first services the due timer at 15.
        let det = d.feed_bare("B", 20).unwrap();
        assert_eq!(det.len(), 1);
        assert_eq!(det[0].time, CentralTime(15));
    }

    #[test]
    fn periodic_repeats_until_closed() {
        let mut d = detector_with(
            E::periodic(E::prim("A"), 10, E::prim("B")),
            Context::Chronicle,
        );
        d.feed_bare("A", 0).unwrap();
        let det = d.advance_to(35).unwrap();
        // Fires at 10, 20, 30.
        assert_eq!(det.len(), 3);
        assert_eq!(det[2].time, CentralTime(30));
        // Close the window; later ticks produce nothing.
        d.feed_bare("B", 36).unwrap();
        assert!(d.advance_to(100).unwrap().is_empty());
    }

    #[test]
    fn periodic_star_counts_fires() {
        let mut d = detector_with(
            E::periodic_star(E::prim("A"), 10, E::prim("B")),
            Context::Chronicle,
        );
        d.feed_bare("A", 0).unwrap();
        let det = d.feed_bare("B", 25).unwrap();
        assert_eq!(det.len(), 1);
        assert_eq!(det[0].params.last().unwrap().values[0].as_int(), Some(2));
    }

    #[test]
    fn nested_composite() {
        // X = (A ∧ B) ; C
        let mut d = detector_with(
            E::seq(E::and(E::prim("A"), E::prim("B")), E::prim("C")),
            Context::Chronicle,
        );
        d.feed_bare("B", 1).unwrap();
        d.feed_bare("A", 2).unwrap();
        let det = d.feed_bare("C", 3).unwrap();
        assert_eq!(det.len(), 1);
        assert_eq!(det[0].params.len(), 3);
    }

    #[test]
    fn or_of_seq() {
        let mut d = detector_with(
            E::or(
                E::seq(E::prim("A"), E::prim("B")),
                E::seq(E::prim("A"), E::prim("C")),
            ),
            Context::Chronicle,
        );
        d.feed_bare("A", 1).unwrap();
        assert_eq!(d.feed_bare("C", 2).unwrap().len(), 1);
    }

    #[test]
    fn clock_driven_gc_evicts_dead_not_state() {
        // X = ¬(B)[A, C]: cancelled openers and dead guards accumulate in
        // a plan nobody collects; the detector's clock watermark reclaims
        // them. The reference is the bare plan fed the same occurrences in
        // tick order and never collected.
        let expr = E::not(E::prim("B"), E::prim("A"), E::prim("C"));
        let mut d = detector_with(expr.clone(), Context::Chronicle);
        let mut reference: PlanDetector<CentralTime> = PlanDetector::new();
        for n in ["A", "B", "C"] {
            reference.register(n).unwrap();
        }
        reference.define("X", &expr, Context::Chronicle).unwrap();
        let (mut got, mut want) = (Vec::new(), Vec::new());
        for round in 0..50u64 {
            let t = round * 10;
            for (name, dt) in [("A", 0), ("B", 1), ("A", 2), ("C", 3)] {
                got.extend(d.feed_bare(name, t + dt).unwrap());
                let ty = reference.catalog().lookup(name).unwrap();
                let occ = Occurrence::primitive(ty, CentralTime(t + dt), Vec::new());
                want.extend(reference.feed(occ).detected);
            }
        }
        // The same detections, in order…
        assert_eq!(got.len(), 50);
        assert_eq!(got, want);
        // …from a plan that never held what the reference keeps.
        assert!(d.gc_evicted() > 0);
        assert!(
            d.buffer_peak() < reference.buffered_occupancy(),
            "peak {} against {} never collected",
            d.buffer_peak(),
            reference.buffered_occupancy()
        );
    }

    #[test]
    fn now_tracks_feeds() {
        let mut d = detector_with(E::seq(E::prim("A"), E::prim("B")), Context::Chronicle);
        d.feed_bare("A", 7).unwrap();
        assert_eq!(d.now(), CentralTime(7));
    }

    /// Two cross-referencing timer-free definitions plus one timer def
    /// when `with_timers`.
    fn populate(d: &mut CentralDetector, with_timers: bool) {
        for n in ["A", "B", "C"] {
            d.register(n).unwrap();
        }
        d.define("X", &E::seq(E::prim("A"), E::prim("B")), Context::Chronicle)
            .unwrap();
        d.define(
            "Y",
            &E::and(E::prim("X"), E::prim("C")),
            Context::Unrestricted,
        )
        .unwrap();
        if with_timers {
            d.define("D", &E::plus(E::prim("C"), 3), Context::Chronicle)
                .unwrap();
        }
    }

    fn batch_trace() -> Vec<(&'static str, u64)> {
        vec![
            ("A", 1),
            ("B", 2),
            ("C", 3),
            ("A", 4),
            ("C", 5),
            ("B", 9),
            ("C", 10),
            ("B", 12),
        ]
    }

    fn run_serial(mut d: CentralDetector, with_timers: bool) -> Vec<(String, u64)> {
        populate(&mut d, with_timers);
        let mut out = Vec::new();
        for (n, t) in batch_trace() {
            out.extend(d.feed_bare(n, t).unwrap());
        }
        out.extend(d.advance_to(100).unwrap());
        out.iter()
            .map(|o| (d.name_of(o).to_owned(), o.time.get()))
            .collect()
    }

    #[test]
    fn unshared_matches_shared_plan() {
        for with_timers in [false, true] {
            let shared = run_serial(CentralDetector::new(), with_timers);
            let unshared = run_serial(CentralDetector::unshared(), with_timers);
            assert!(!shared.is_empty());
            assert_eq!(shared, unshared, "with_timers={with_timers}");
        }
    }

    #[test]
    fn plan_stats_report_sharing_only_when_shared() {
        // Two definitions over the same Seq(A, B) body: the shared plan
        // builds the Seq node once; the unshared mode builds it twice.
        let build = |mut d: CentralDetector| {
            for n in ["A", "B", "C"] {
                d.register(n).unwrap();
            }
            let body = E::seq(E::prim("A"), E::prim("B"));
            d.define("X", &body, Context::Chronicle).unwrap();
            d.define("Y", &body, Context::Chronicle).unwrap();
            d
        };
        let plan = build(CentralDetector::new()).plan_stats();
        assert_eq!(plan.shared_nodes, 1);
        assert!(plan.sharing_ratio > 0.0);
        assert!(plan.position_count > plan.plan_nodes);
        let other = build(CentralDetector::unshared()).plan_stats();
        assert_eq!(other.shared_nodes, 0);
        assert_eq!(other.sharing_ratio, 0.0);
        assert_eq!(other.position_count, other.plan_nodes);
    }

    #[test]
    fn min_timer_delay_reports_temporal_operators() {
        let mut d = CentralDetector::new();
        populate(&mut d, false);
        assert_eq!(d.min_timer_delay(), None);
        let mut d = CentralDetector::new();
        populate(&mut d, true);
        assert_eq!(d.min_timer_delay(), Some(3));
        assert_eq!(d.stage_count(), 2); // Y references X
    }
}
