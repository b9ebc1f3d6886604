//! The discrete-event simulation core.
//!
//! A [`Simulation`] owns a set of actors (one per site), their
//! [`SiteTimeSource`]s, the link states, and the scheduled events, run in
//! true-time order with ties broken by schedule order, so runs are fully
//! deterministic. Actors interact with the world only through [`Ctx`]:
//! read the local clock, send messages, set timers.
//!
//! External workload is injected with [`Simulation::inject`]; it is
//! delivered through [`Actor::on_message`] with `from == self`, which by
//! convention means "the environment".
//!
//! Scheduled events live in two queues. Injections, usually the whole
//! workload pushed up front in time order, go into a sorted `VecDeque`
//! (appending in order is O(1); an out-of-order injection only marks it
//! for one re-sort before the next step). Messages in flight and timers go
//! into a `BinaryHeap` that therefore stays small. Every event carries one
//! global schedule number `seq`, and each step runs whichever queue head
//! is smaller by `(at, seq)`, a total order. So the steps run in exactly
//! the order a single priority queue over all events would give.

use crate::link::{FaultCounters, LinkConfig, LinkFate, LinkState};
use crate::node::SiteTimeSource;
use crate::rng::SplitMix64;
use crate::trace::{Trace, TraceEntry};
use decs_chronos::{ChronosError, Nanos, StampParts};
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::fmt;

/// Index of a node (site) within one simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeIdx(pub u32);

impl fmt::Display for NodeIdx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// A simulated node's behaviour.
pub trait Actor {
    /// Message payload exchanged between nodes (and injected externally).
    type Msg: Clone + fmt::Debug;

    /// A message arrived (from a peer, or from the environment when
    /// `from == ctx.me()`).
    fn on_message(&mut self, from: NodeIdx, msg: Self::Msg, ctx: &mut Ctx<'_, Self::Msg>);

    /// A timer set through [`Ctx::set_timer`] fired.
    fn on_timer(&mut self, _tag: u64, _ctx: &mut Ctx<'_, Self::Msg>) {}
}

/// The world as one actor step sees it.
pub struct Ctx<'a, M> {
    now: Nanos,
    me: NodeIdx,
    time: &'a SiteTimeSource,
    outbox: &'a mut Vec<(NodeIdx, M)>,
    timers: &'a mut Vec<(u64, Nanos)>,
}

impl<M> Ctx<'_, M> {
    /// Current true time. Actors should treat this as hidden (they only
    /// have their local clock); it is exposed for instrumentation.
    pub fn true_now(&self) -> Nanos {
        self.now
    }

    /// This node's index.
    pub fn me(&self) -> NodeIdx {
        self.me
    }

    /// Read the local clock and build the `(site, global, local)` stamp of
    /// "now" — the timestamp a primitive event occurring here would carry.
    pub fn stamp(&self) -> Result<StampParts, ChronosError> {
        self.time.stamp(self.now)
    }

    /// The site's time source (granularities, global base).
    pub fn time_source(&self) -> &SiteTimeSource {
        self.time
    }

    /// Send `msg` to `to` (delivered after the link latency).
    pub fn send(&mut self, to: NodeIdx, msg: M) {
        self.outbox.push((to, msg));
    }

    /// Fire [`Actor::on_timer`] with `tag` after `delay` of true time.
    /// (Clock drift affects the *stamps* the actor reads, not the delay —
    /// modelling an OS timer driven by the same oscillator is a
    /// second-order effect we document and ignore.)
    pub fn set_timer(&mut self, delay: Nanos, tag: u64) {
        self.timers.push((tag, delay));
    }
}

enum Pending<M> {
    Deliver { from: NodeIdx, to: NodeIdx, msg: M },
    Timer { node: NodeIdx, tag: u64 },
}

struct QItem<M> {
    at: Nanos,
    seq: u64,
    pending: Pending<M>,
}

impl<M> QItem<M> {
    fn key(&self) -> (Nanos, u64) {
        (self.at, self.seq)
    }
}

impl<M> PartialEq for QItem<M> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<M> Eq for QItem<M> {}
impl<M> PartialOrd for QItem<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for QItem<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest first.
        other.key().cmp(&self.key())
    }
}

/// A deterministic discrete-event simulation over actors of type `A`.
pub struct Simulation<A: Actor> {
    nodes: Vec<A>,
    times: Vec<SiteTimeSource>,
    default_link: LinkConfig,
    links: HashMap<(u32, u32), LinkState>,
    /// External injections, in `(at, seq)` order unless `injections_sorted`
    /// is false.
    injections: VecDeque<QItem<A::Msg>>,
    injections_sorted: bool,
    /// Messages in flight and timers.
    queue: BinaryHeap<QItem<A::Msg>>,
    /// Schedule number of the next event, shared by both queues.
    seq: u64,
    /// A step's sends and timer requests, kept to reuse their buffers.
    outbox: Vec<(NodeIdx, A::Msg)>,
    timers: Vec<(u64, Nanos)>,
    rng: SplitMix64,
    now: Nanos,
    trace: Trace,
    steps: u64,
}

impl<A: Actor> Simulation<A> {
    /// Build a simulation from `(actor, time source)` pairs.
    pub fn new(nodes: Vec<(A, SiteTimeSource)>, default_link: LinkConfig, seed: u64) -> Self {
        let (actors, times): (Vec<A>, Vec<SiteTimeSource>) = nodes.into_iter().unzip();
        Simulation {
            nodes: actors,
            times,
            default_link,
            links: HashMap::new(),
            injections: VecDeque::new(),
            injections_sorted: true,
            queue: BinaryHeap::new(),
            seq: 0,
            outbox: Vec::new(),
            timers: Vec::new(),
            rng: SplitMix64::new(seed),
            now: Nanos::ZERO,
            trace: Trace::disabled(),
            steps: 0,
        }
    }

    /// Enable tracing with the given capacity.
    pub fn enable_trace(&mut self, capacity: usize) {
        self.trace = Trace::with_capacity(capacity);
    }

    /// The trace recorded so far.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Override the link configuration for the directed pair `(from, to)`.
    pub fn set_link(&mut self, from: NodeIdx, to: NodeIdx, cfg: LinkConfig) {
        self.links.insert((from.0, to.0), LinkState::new(cfg));
    }

    /// Schedule a partition window on the directed pair `(from, to)`:
    /// every message sent in `[start, until)` true time is lost.
    pub fn add_partition(&mut self, from: NodeIdx, to: NodeIdx, start: Nanos, until: Nanos) {
        let default = self.default_link;
        self.links
            .entry((from.0, to.0))
            .or_insert_with(|| LinkState::new(default))
            .add_partition(start, until);
    }

    /// Fault counters of the directed link `(from, to)` (zero if the link
    /// has never carried a message and has no overrides).
    pub fn link_counters(&self, from: NodeIdx, to: NodeIdx) -> FaultCounters {
        self.links
            .get(&(from.0, to.0))
            .map(|l| l.counters())
            .unwrap_or_default()
    }

    /// Fault counters aggregated over every link in the simulation.
    pub fn fault_counters(&self) -> FaultCounters {
        let mut total = FaultCounters::default();
        for l in self.links.values() {
            total.merge(&l.counters());
        }
        total
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the simulation has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Current true time.
    pub fn now(&self) -> Nanos {
        self.now
    }

    /// Number of events processed so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Access an actor.
    pub fn node(&self, idx: NodeIdx) -> &A {
        &self.nodes[idx.0 as usize]
    }

    /// Mutable access to an actor (for post-run inspection/setup).
    pub fn node_mut(&mut self, idx: NodeIdx) -> &mut A {
        &mut self.nodes[idx.0 as usize]
    }

    /// A node's time source.
    pub fn time_source(&self, idx: NodeIdx) -> &SiteTimeSource {
        &self.times[idx.0 as usize]
    }

    /// Inject an external message to `node` at absolute true time `at`
    /// (delivered with `from == node`).
    pub fn inject(&mut self, at: Nanos, node: NodeIdx, msg: A::Msg) {
        if self.injections.back().is_some_and(|last| last.at > at) {
            self.injections_sorted = false;
        }
        let seq = self.next_seq();
        self.injections.push_back(QItem {
            at,
            seq,
            pending: Pending::Deliver {
                from: node,
                to: node,
                msg,
            },
        });
    }

    /// Schedule an [`Actor::on_timer`] fire for `node` at absolute true
    /// time `at`. Actors arm their own timers through [`Ctx::set_timer`];
    /// this external entry point exists for recovery harnesses that must
    /// re-arm the timers a restarted actor had outstanding when it
    /// crashed (the replacement actor never saw the `set_timer` calls).
    pub fn schedule_timer(&mut self, at: Nanos, node: NodeIdx, tag: u64) {
        self.push(at, Pending::Timer { node, tag });
    }

    fn next_seq(&mut self) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        seq
    }

    fn push(&mut self, at: Nanos, pending: Pending<A::Msg>) {
        let seq = self.next_seq();
        self.queue.push(QItem { at, seq, pending });
    }

    /// Remove and return the earliest scheduled event by `(at, seq)` across
    /// both queues, unless it is later than `until`.
    fn pop_until(&mut self, until: Nanos) -> Option<QItem<A::Msg>> {
        if !self.injections_sorted {
            // Stable sort: linear on the already-sorted runs around the
            // out-of-order injections.
            self.injections.make_contiguous().sort_by_key(QItem::key);
            self.injections_sorted = true;
        }
        let injected = self.injections.front().map(QItem::key);
        let in_flight = self.queue.peek().map(QItem::key);
        let (first, from_injections) = match (injected, in_flight) {
            (Some(i), Some(f)) => (i.min(f), i < f),
            (Some(i), None) => (i, true),
            (None, Some(f)) => (f, false),
            (None, None) => return None,
        };
        if first.0 > until {
            return None;
        }
        if from_injections {
            self.injections.pop_front()
        } else {
            self.queue.pop()
        }
    }

    /// Run until no event is scheduled or true time would exceed `until`.
    /// Returns the number of events processed.
    pub fn run_until(&mut self, until: Nanos) -> u64 {
        let processed = self.run_events(until);
        self.now = self.now.max(until);
        processed
    }

    /// Run until no event is scheduled.
    pub fn run_to_completion(&mut self) -> u64 {
        self.run_events(Nanos(u64::MAX))
    }

    fn run_events(&mut self, until: Nanos) -> u64 {
        let mut processed = 0;
        while let Some(QItem { at, pending, .. }) = self.pop_until(until) {
            self.now = at;
            self.steps += 1;
            processed += 1;
            self.dispatch(at, pending);
        }
        processed
    }

    fn dispatch(&mut self, at: Nanos, pending: Pending<A::Msg>) {
        let mut outbox = std::mem::take(&mut self.outbox);
        let mut timers = std::mem::take(&mut self.timers);
        let me = match &pending {
            Pending::Deliver { to, .. } => *to,
            Pending::Timer { node, .. } => *node,
        };
        {
            let mut ctx = Ctx {
                now: at,
                me,
                time: &self.times[me.0 as usize],
                outbox: &mut outbox,
                timers: &mut timers,
            };
            match pending {
                Pending::Deliver { from, to, msg } => {
                    self.trace.push(TraceEntry::Deliver { at, from, to });
                    self.nodes[to.0 as usize].on_message(from, msg, &mut ctx);
                }
                Pending::Timer { node, tag } => {
                    self.trace.push(TraceEntry::Timer { at, node, tag });
                    self.nodes[node.0 as usize].on_timer(tag, &mut ctx);
                }
            }
        }
        for (to, msg) in outbox.drain(..) {
            let key = (me.0, to.0);
            let default = self.default_link;
            let link = self
                .links
                .entry(key)
                .or_insert_with(|| LinkState::new(default));
            match link.route(at, &mut self.rng) {
                LinkFate::Deliver {
                    at: deliver_at,
                    duplicate_at,
                } => {
                    self.trace.push(TraceEntry::Send {
                        at,
                        from: me,
                        to,
                        deliver_at,
                    });
                    if let Some(dup_at) = duplicate_at {
                        self.trace.push(TraceEntry::Send {
                            at,
                            from: me,
                            to,
                            deliver_at: dup_at,
                        });
                        self.push(
                            dup_at,
                            Pending::Deliver {
                                from: me,
                                to,
                                msg: msg.clone(),
                            },
                        );
                    }
                    self.push(deliver_at, Pending::Deliver { from: me, to, msg });
                }
                fate @ (LinkFate::Dropped | LinkFate::Partitioned) => {
                    self.trace.push(TraceEntry::Drop {
                        at,
                        from: me,
                        to,
                        partitioned: fate == LinkFate::Partitioned,
                    });
                }
            }
        }
        for (tag, delay) in timers.drain(..) {
            // Saturating: a timer armed past the end of time never fires.
            self.push(
                at.saturating_add(delay.get()),
                Pending::Timer { node: me, tag },
            );
        }
        self.outbox = outbox;
        self.timers = timers;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decs_chronos::{GlobalTimeBase, Granularity, LocalClock, Precision, SiteId, TruncMode};
    use std::cell::{Cell, RefCell};
    use std::rc::Rc;

    /// A ping-pong actor used to exercise the machinery.
    #[derive(Debug, Default)]
    struct Pinger {
        received: Vec<(NodeIdx, u64)>,
        timer_fires: u64,
        bounce: bool,
    }

    impl Actor for Pinger {
        type Msg = u64;

        fn on_message(&mut self, from: NodeIdx, msg: u64, ctx: &mut Ctx<'_, u64>) {
            self.received.push((from, msg));
            if self.bounce && msg > 0 {
                ctx.send(from, msg - 1);
            }
        }

        fn on_timer(&mut self, _tag: u64, ctx: &mut Ctx<'_, u64>) {
            self.timer_fires += 1;
            if self.timer_fires < 3 {
                ctx.set_timer(Nanos(100), 0);
            }
        }
    }

    fn source(site: u32) -> SiteTimeSource {
        let base = GlobalTimeBase::new(
            Granularity::per_second(10).unwrap(),
            TruncMode::Floor,
            Precision::from_nanos(1_000_000),
        )
        .unwrap();
        SiteTimeSource::new(
            site.into(),
            LocalClock::perfect(Granularity::per_second(100).unwrap()),
            base,
        )
    }

    fn sim(n: u32, bounce: bool) -> Simulation<Pinger> {
        let nodes = (0..n)
            .map(|i| {
                (
                    Pinger {
                        bounce,
                        ..Default::default()
                    },
                    source(i),
                )
            })
            .collect();
        Simulation::new(nodes, LinkConfig::lan(), 42)
    }

    #[test]
    fn injection_and_delivery() {
        let mut s = sim(2, false);
        s.inject(Nanos(10), NodeIdx(0), 7);
        assert_eq!(s.run_to_completion(), 1);
        assert_eq!(s.node(NodeIdx(0)).received, vec![(NodeIdx(0), 7)]);
    }

    #[test]
    fn ping_pong_until_zero() {
        let mut s = sim(2, true);
        // Environment gives node 0 the value 3; it bounces 2 to… itself?
        // No: `from == me` for injections, so the bounce goes back to node
        // 0 again; use 3 hops all on one node.
        s.inject(Nanos(0), NodeIdx(0), 3);
        s.run_to_completion();
        // 3, 2, 1, 0 all delivered to node 0.
        assert_eq!(s.node(NodeIdx(0)).received.len(), 4);
    }

    /// An actor that forwards every external input to node 1.
    #[derive(Debug, Default)]
    struct Fwd {
        deliveries: Vec<Nanos>,
    }

    impl Actor for Fwd {
        type Msg = u64;

        fn on_message(&mut self, from: NodeIdx, msg: u64, ctx: &mut Ctx<'_, u64>) {
            if from == ctx.me() && ctx.me() == NodeIdx(0) {
                ctx.send(NodeIdx(1), msg);
            } else {
                self.deliveries.push(ctx.true_now());
            }
        }
    }

    #[test]
    fn cross_node_send_has_latency() {
        let nodes = vec![(Fwd::default(), source(0)), (Fwd::default(), source(1))];
        let mut s = Simulation::new(nodes, LinkConfig::lan(), 7);
        s.inject(Nanos(1000), NodeIdx(0), 42);
        s.run_to_completion();
        let deliveries = &s.node(NodeIdx(1)).deliveries;
        assert_eq!(deliveries.len(), 1);
        // LAN latency is 500 µs ± 200 µs.
        let latency = deliveries[0].get() - 1000;
        assert!((300_000..=700_000).contains(&latency), "latency {latency}");
    }

    #[test]
    fn timers_fire_and_rearm() {
        let mut s = sim(1, false);
        // Kick the timer chain via an injected message? Timers are set by
        // actors; start one directly through the queue.
        s.push(
            Nanos(5),
            Pending::Timer {
                node: NodeIdx(0),
                tag: 0,
            },
        );
        s.run_to_completion();
        assert_eq!(s.node(NodeIdx(0)).timer_fires, 3);
    }

    #[test]
    fn run_until_stops_at_horizon() {
        let mut s = sim(1, false);
        s.push(
            Nanos(5),
            Pending::Timer {
                node: NodeIdx(0),
                tag: 0,
            },
        );
        // Each rearm is +100ns: fires at 5, 105, 205.
        s.run_until(Nanos(110));
        assert_eq!(s.node(NodeIdx(0)).timer_fires, 2);
        s.run_to_completion();
        assert_eq!(s.node(NodeIdx(0)).timer_fires, 3);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let mut s = sim(3, true);
            s.enable_trace(1000);
            for i in 0..10u64 {
                s.inject(Nanos(i * 50), NodeIdx((i % 3) as u32), i);
            }
            s.run_to_completion();
            format!("{:?}", s.trace().entries())
        };
        assert_eq!(run(), run());
    }

    /// Labels every event it schedules from a counter shared with the
    /// test, so labels follow schedule order, and logs every step it runs
    /// as `(true time, label)` into a log shared by all nodes.
    struct Chain {
        labels: Rc<Cell<u64>>,
        ran: Rc<RefCell<Vec<(Nanos, u64)>>>,
    }

    impl Chain {
        fn label(&self) -> u64 {
            let l = self.labels.get();
            self.labels.set(l + 1);
            l
        }

        /// Each event sends to the next node and then arms a timer 0–300 ns
        /// out (sends before timers, the order the simulation schedules a
        /// step's effects in), until 200 labels are out.
        fn react(&mut self, label: u64, ctx: &mut Ctx<'_, u64>) {
            self.ran.borrow_mut().push((ctx.true_now(), label));
            if self.labels.get() < 200 {
                let to = NodeIdx((ctx.me().0 + 1) % 3);
                let l = self.label();
                ctx.send(to, l);
                let l = self.label();
                ctx.set_timer(Nanos(100 * (label % 4)), l);
            }
        }
    }

    impl Actor for Chain {
        type Msg = u64;

        fn on_message(&mut self, _from: NodeIdx, msg: u64, ctx: &mut Ctx<'_, u64>) {
            self.react(msg, ctx);
        }

        fn on_timer(&mut self, tag: u64, ctx: &mut Ctx<'_, u64>) {
            self.react(tag, ctx);
        }
    }

    /// The steps must run in the order of a naive oracle: every scheduled
    /// event, sorted by `(at, schedule order)`.
    #[test]
    fn steps_run_in_at_then_schedule_order() {
        let labels = Rc::new(Cell::new(0));
        let ran = Rc::new(RefCell::new(Vec::new()));
        let nodes = (0..3)
            .map(|i| {
                let chain = Chain {
                    labels: labels.clone(),
                    ran: ran.clone(),
                };
                (chain, source(i))
            })
            .collect();
        // 0–200 ns latency; node 0 → 1 is instant, so its sends tie with
        // whatever else runs at the same instant.
        let link = LinkConfig {
            base_latency_ns: 0,
            jitter_ns: 200,
            fifo: false,
            drop_ppm: 0,
            dup_ppm: 0,
        };
        let mut s = Simulation::new(nodes, link, 3);
        s.set_link(NodeIdx(0), NodeIdx(1), LinkConfig::instant());
        let next = |labels: &Rc<Cell<u64>>| {
            let l = labels.get();
            labels.set(l + 1);
            l
        };
        // Out-of-order injections, same-time ties, and external timers
        // interleaved with them.
        for (at, node) in [(500, 0), (100, 1), (300, 2), (100, 0), (100, 2), (0, 1)] {
            s.inject(Nanos(at), NodeIdx(node), next(&labels));
        }
        s.schedule_timer(Nanos(100), NodeIdx(1), next(&labels));
        s.schedule_timer(Nanos(50), NodeIdx(2), next(&labels));
        s.inject(Nanos(300), NodeIdx(1), next(&labels));
        s.run_until(Nanos(300));
        // Between slices: one injection at the current time, one ahead,
        // and one out of order again.
        assert_eq!(s.now(), Nanos(300));
        s.inject(Nanos(900), NodeIdx(2), next(&labels));
        s.inject(Nanos(300), NodeIdx(0), next(&labels));
        s.schedule_timer(Nanos(300), NodeIdx(2), next(&labels));
        s.inject(Nanos(600), NodeIdx(1), next(&labels));
        s.run_until(Nanos(700));
        // A timer scheduled before same-time injections must run first.
        s.schedule_timer(Nanos(700), NodeIdx(1), next(&labels));
        s.inject(Nanos(700), NodeIdx(2), next(&labels));
        s.inject(Nanos(700), NodeIdx(0), next(&labels));
        s.run_to_completion();

        let ran = ran.borrow();
        let mut oracle = ran.clone();
        oracle.sort();
        assert_eq!(*ran, oracle, "steps out of (at, schedule) order");
        // Every scheduled event ran exactly once.
        oracle.dedup_by_key(|&mut (_, label)| label);
        assert_eq!(oracle.len() as u64, labels.get());
        assert_eq!(ran.len() as u64, s.steps());
        assert!(labels.get() >= 200, "the chains must have run");
        // Ties did occur.
        assert!(ran.windows(2).any(|w| w[0].0 == w[1].0));
    }

    #[test]
    fn stamps_read_site_clock() {
        let mut s = sim(2, false);
        s.inject(Nanos::from_secs(5), NodeIdx(1), 0);
        s.run_to_completion();
        let st = s
            .time_source(NodeIdx(1))
            .stamp(Nanos::from_secs(5))
            .unwrap();
        assert_eq!(st.site, SiteId(1));
        assert_eq!(st.local.get(), 500);
    }
}
