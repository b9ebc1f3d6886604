//! The detection engine: one shared, hash-consed plan IR with
//! cross-definition operator sharing.
//!
//! [`PlanDetector`] compiles all definitions into **one** plan of unique
//! operator nodes: structurally identical subexpressions (same operator,
//! same context, same children) hash-cons to a single `PlanNode` with
//! multi-parent fan-out, and each definition keeps a lightweight view of
//! *positions* (one per subexpression occurrence) that routes the shared
//! node's output to the definition's own parents. One route table,
//! indexed by event type, lists every `(definition, position, slot)` a
//! trigger enters at; triggers are delivered from it by reference.
//!
//! [`PlanDetector::unshared`] is the same engine with the cons-table
//! lookup skipped: every definition compiles into private nodes, exactly
//! as if it had a detector of its own. That mode is the differential
//! oracle the shared plan is checked against (`plan_sharing: false` in
//! the distributed engine).
//!
//! # Bit-for-bit equivalence
//!
//! The shared plan reproduces the unshared mode's output exactly — same
//! detections, same order, same timer tags — which `tests/prop_plan.rs`
//! pins property-style. Three mechanisms make this work:
//!
//! * **Execute-once + replay log** for stateful operators (`∧`, `;`, `¬`,
//!   `A`, `A*`, `ANY`): the first definition cursor to reach a shared node
//!   for a given delivery executes the operator and logs the emissions;
//!   later cursors *replay* the log, re-stamping each emission with their
//!   own synthetic event type and a fresh uid — exactly what their private
//!   copy of the operator would have produced (these operators only emit
//!   combined occurrences, which always carry fresh uids).
//! * **Always re-execute** for stateless forwarders (`∨`, masks,
//!   aliases): forwarding preserves the *input* occurrence's uid, which
//!   the self-pairing guard upstream operators apply depends on
//!   (`E ∧ E` must not pair an occurrence with itself). Re-executing a
//!   pure forwarder per position is free and keeps each definition's uid
//!   flow identical to independent compilation.
//! * **No consing of temporal operators** (`+`, `P`, `P*`): their timer
//!   tags and periodic state are driver-visible, so each definition keeps
//!   a private node (their *subexpressions* still share). Since cons keys
//!   embed child node ids, every ancestor of a temporal operator is
//!   automatically private too.
//!
//! Structural consing is deliberately **not** modulo commutativity:
//! `And(a, b)` and `And(b, a)` build their children in opposite order, so
//! a shared trigger reaches the two operand slots in opposite order and
//! the emitted parameter lists differ. Canonicalization (see
//! [`crate::expr::EventExpr::canonicalize`]) exists at the expression
//! layer for callers that *want* to opt into commutative normalization
//! before defining.

use crate::batch::EventBatch;
use crate::context::Context;
use crate::error::{Result, SnoopError};
use crate::event::{remint_routed, Catalog, EventId, Occurrence};
use crate::expr::EventExpr;
use crate::nodes::mask::Mask;
use crate::nodes::{self, OperatorNode, Sink};
use crate::state::{DefTimers, PlanState};
use crate::time::EventTime;
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::fmt;

/// Identifier of an outstanding timer request, unique within the
/// definition that armed it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerId(pub u64);

/// A request for the driver to call back after `delay_ticks`.
///
/// Temporal operators (`P`, `P*`, `+`) cannot produce occurrences from
/// event arrivals alone; they need a clock. The plan stays agnostic of
/// *whose* clock: a node requests a delay and the driver later calls
/// [`PlanDetector::fire_timer`] with an actual timestamp. The centralized
/// detector services requests from its tick counter; a distributed site
/// or coordinator schedules them on its own clock, so a timer occurrence
/// carries a genuine `(site, global, local)` stamp.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimerRequest {
    /// Handle to pass back to [`PlanDetector::fire_timer`].
    pub id: TimerId,
    /// Delay, in clock ticks (centralized) or global ticks (distributed).
    pub delay_ticks: u64,
}

/// Index of a definition (in `define` order). Timer handles and feed
/// results are tagged with it, because timer ids are only unique within
/// one definition.
pub type ShardId = usize;

/// Everything one feed/fire step produced.
#[derive(Debug, Clone)]
pub struct FeedOutput<T> {
    /// Occurrences of named composite events, in canonical merge order.
    pub detected: Vec<Occurrence<T>>,
    /// New timer requests, tagged with the definition that owns the timer
    /// id.
    pub timers: Vec<(ShardId, TimerRequest)>,
}

impl<T> Default for FeedOutput<T> {
    fn default() -> Self {
        FeedOutput {
            detected: Vec::new(),
            timers: Vec::new(),
        }
    }
}

/// Canonical `(composite-timestamp, definition-id)` order for merging one
/// routing round of detections. Stable, so equal keys keep definition
/// order.
pub(crate) fn sort_canonical<T: EventTime>(round: &mut [Occurrence<T>]) {
    round.sort_by(|a, b| a.time.canonical_cmp(&b.time).then(a.ty.0.cmp(&b.ty.0)));
}

/// What a plan node's operand subscribes to: a leaf event type or another
/// plan node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum ChildKey {
    /// A primitive (or referenced named-composite) event type.
    Event(EventId),
    /// An internal plan node, by index.
    Node(usize),
}

/// Structural hash-consing key: operator + context + children. Two
/// subexpressions build the same plan node iff their keys are equal.
/// `Or`/`Mask`/`Alias` carry no context (the operators ignore it);
/// temporal operators never get a key (see module docs).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum ConsKey {
    Alias(ChildKey),
    And(Context, ChildKey, ChildKey),
    Or(ChildKey, ChildKey),
    Seq(Context, ChildKey, ChildKey),
    Not(Context, ChildKey, ChildKey, ChildKey),
    Aperiodic(Context, ChildKey, ChildKey, ChildKey),
    AperiodicStar(Context, ChildKey, ChildKey, ChildKey),
    Any(Context, usize, Vec<ChildKey>),
    Mask(Mask, ChildKey),
}

/// A root subscription: definition, position within it, operand slot.
type Route = (u32, u32, usize);

/// One unique operator instance in the shared plan.
pub(crate) struct PlanNode<T: EventTime> {
    pub(crate) op: Box<dyn OperatorNode<T>>,
    /// Every `(definition, position)` bound to this node, in bind order.
    /// Length > 1 means the node is shared.
    pub(crate) bound: Vec<(u32, u32)>,
    /// Operand sources `(child, slot)` in subscribe order (dot export).
    pub(crate) children: Vec<(ChildKey, usize)>,
    /// Operator label for diagnostics/dot.
    pub(crate) label: &'static str,
    /// Pure forwarders re-execute per position instead of logging.
    pub(crate) stateless: bool,
    /// Deliveries executed on this node so far.
    pub(crate) exec: u64,
    /// Delivery index of the oldest `log` entry (trimmed prefix).
    pub(crate) base: u64,
    /// Emissions of each executed delivery still awaiting replay.
    pub(crate) log: ReplayLog<T>,
}

/// The emissions of a shared node's executed deliveries, one entry per
/// delivery, stored flat so trimming keeps both buffers' capacity: a warm
/// log records and replays without allocating.
#[derive(Debug)]
pub(crate) struct ReplayLog<T> {
    occs: Vec<Occurrence<T>>,
    /// End offset in `occs` of each entry, oldest first.
    ends: Vec<usize>,
}

impl<T> Default for ReplayLog<T> {
    fn default() -> Self {
        ReplayLog {
            occs: Vec::new(),
            ends: Vec::new(),
        }
    }
}

impl<T: Clone> ReplayLog<T> {
    /// Whether no entry awaits replay.
    pub(crate) fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    fn push(&mut self, emissions: &[Occurrence<T>]) {
        self.occs.extend_from_slice(emissions);
        self.ends.push(self.occs.len());
    }

    /// The emissions of entry `i` (0 = oldest).
    fn entry(&self, i: usize) -> &[Occurrence<T>] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.occs[start..self.ends[i]]
    }

    /// Drop the `n` oldest entries.
    fn drop_oldest(&mut self, n: usize) {
        if n == 0 {
            return;
        }
        let cut = self.ends[n - 1];
        self.occs.drain(..cut);
        self.ends.drain(..n);
        for end in &mut self.ends {
            *end -= cut;
        }
    }

    fn clear(&mut self) {
        self.occs.clear();
        self.ends.clear();
    }
}

impl<T: EventTime> fmt::Debug for PlanNode<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PlanNode")
            .field("label", &self.label)
            .field("bound", &self.bound)
            .field("children", &self.children)
            .field("stateless", &self.stateless)
            .field("exec", &self.exec)
            .finish()
    }
}

/// One subexpression occurrence inside a definition: which plan node
/// implements it, what event type its emissions carry for *this*
/// definition, and where they go next.
#[derive(Debug)]
pub(crate) struct Position {
    /// The plan node implementing this subexpression.
    pub(crate) node: usize,
    /// Synthetic (or, at the root, named) event type of this position.
    pub(crate) emits: EventId,
    /// Whether `emits` is the definition's user-visible name.
    pub(crate) named: bool,
    /// Subscribing parent positions `(position, slot)` within the same
    /// definition.
    pub(crate) parents: Vec<(u32, usize)>,
    /// Deliveries this cursor has consumed from `node` (equals the node's
    /// `exec` whenever the detector is quiescent).
    pub(crate) seen: u64,
}

/// A definition's private view of the shared plan.
#[derive(Debug)]
pub(crate) struct DefView {
    /// The named composite event this definition detects.
    pub(crate) emits: EventId,
    /// Subexpression positions in build (bottom-up) order.
    pub(crate) positions: Vec<Position>,
    /// Outstanding timers → `(position, node-internal tag)`.
    pub(crate) timers: HashMap<TimerId, (u32, u64)>,
    pub(crate) next_timer: u64,
}

/// Where a compiled subexpression delivers its occurrences from.
#[derive(Clone, Copy)]
enum Src {
    /// A leaf event type (primitive or previously named composite).
    Event(EventId),
    /// A position (by index) in the definition under construction.
    Pos(u32),
}

fn key_of(def: &DefView, s: Src) -> ChildKey {
    match s {
        Src::Event(e) => ChildKey::Event(e),
        Src::Pos(p) => ChildKey::Node(def.positions[p as usize].node),
    }
}

/// Deliver `occ` to `pos`'s plan node on operand `slot`, appending the
/// emissions (typed for this position) and any timer requests to the
/// (empty) scratch buffers.
fn deliver<T: EventTime>(
    nodes: &mut [PlanNode<T>],
    pos: &mut Position,
    slot: usize,
    occ: &Occurrence<T>,
    s: &mut Scratch<T>,
) {
    let (emissions, timer_reqs) = (&mut s.emissions, &mut s.timer_reqs);
    debug_assert!(emissions.is_empty() && timer_reqs.is_empty());
    let node = &mut nodes[pos.node];
    if node.stateless {
        // Pure forwarder: re-execute per position so each definition's
        // emission keeps its own input's uid (self-pairing guard).
        let mut sink = Sink::new(pos.emits, emissions, timer_reqs);
        node.op.on_child(slot, occ, &mut sink);
        return;
    }
    if node.bound.len() == 1 {
        // Private node: plain execution, counters kept in lockstep so a
        // later define may still cons onto it while `exec == 0`.
        let mut sink = Sink::new(pos.emits, emissions, timer_reqs);
        node.op.on_child(slot, occ, &mut sink);
        node.exec += 1;
        pos.seen += 1;
        return;
    }
    if pos.seen == node.exec {
        // First cursor to arrive: execute once and log for the others.
        {
            let mut sink = Sink::new(pos.emits, emissions, timer_reqs);
            node.op.on_child(slot, occ, &mut sink);
        }
        debug_assert!(
            timer_reqs.is_empty(),
            "shared stateful nodes never request timers"
        );
        node.log.push(emissions);
        node.exec += 1;
        pos.seen += 1;
    } else {
        // Replay: re-stamp each logged emission with this position's event
        // type and a fresh uid — exactly what a private copy's combining
        // emission would have carried.
        debug_assert!(pos.seen < node.exec, "cursor ahead of node execution");
        let idx = (pos.seen - node.base) as usize;
        emissions.extend(
            node.log
                .entry(idx)
                .iter()
                .map(|e| Occurrence::with_params(pos.emits, e.time.clone(), e.params.clone())),
        );
        pos.seen += 1;
    }
}

/// Route one delivery's emissions from position `p`, draining the
/// scratch's emission and timer-request buffers: register timers, enqueue
/// parent deliveries, record named detections in the round. Each emission
/// is cloned once per subscriber *minus one* — the last parent (or, for a
/// named position with no parents, the round) receives it by move.
fn postprocess_def<T: EventTime>(def: &mut DefView, p: u32, s: &mut Scratch<T>) {
    for (tag, delay) in s.timer_reqs.drain(..) {
        let id = TimerId(def.next_timer);
        def.next_timer += 1;
        def.timers.insert(id, (p, tag));
        s.timers.push(TimerRequest {
            id,
            delay_ticks: delay,
        });
    }
    let pos = &def.positions[p as usize];
    let named = pos.named;
    for occ in s.emissions.drain(..) {
        match pos.parents.split_last() {
            Some((&(last, lslot), rest)) => {
                for &(parent, slot) in rest {
                    s.queue.push_back((parent, slot, occ.clone()));
                }
                if named {
                    s.queue.push_back((last, lslot, occ.clone()));
                    s.round.push(occ);
                } else {
                    s.queue.push_back((last, lslot, occ));
                }
            }
            None => {
                if named {
                    s.round.push(occ);
                }
            }
        }
    }
}

/// Deliver `occ` to position `p` on `slot` and route the emissions.
fn step<T: EventTime>(
    nodes: &mut [PlanNode<T>],
    def: &mut DefView,
    (p, slot): (u32, usize),
    occ: &Occurrence<T>,
    s: &mut Scratch<T>,
) {
    deliver(nodes, &mut def.positions[p as usize], slot, occ, s);
    postprocess_def(def, p, s);
}

/// BFS over one definition's queued deliveries, appending its named
/// detections to the round and its timer requests to `s.timers`. The
/// queue is empty again on return.
fn drain_def<T: EventTime>(nodes: &mut [PlanNode<T>], def: &mut DefView, s: &mut Scratch<T>) {
    while let Some((p, slot, occ)) = s.queue.pop_front() {
        step(nodes, def, (p, slot), &occ, s);
    }
}

/// Counts describing a compiled plan's degree of sharing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanStats {
    /// Unique operator nodes in the plan.
    pub plan_nodes: usize,
    /// Plan nodes bound by more than one `(definition, position)`.
    pub shared_nodes: usize,
    /// Total subexpression positions across all definitions (what an
    /// unshared compilation would have built as nodes).
    pub position_count: usize,
    /// `1 - plan_nodes / position_count`: fraction of operator instances
    /// eliminated by sharing (0 with no definitions).
    pub sharing_ratio: f64,
}

/// Reusable hot-path buffers, kept on the detector so the per-event loop
/// of a batch feed allocates nothing once warm: the current and next
/// cascade waves, the per-trigger detection round, the drained
/// definition's timer requests, and the BFS queue with one delivery's
/// emissions and timer requests. Every buffer is empty between public
/// calls.
#[derive(Debug)]
struct Scratch<T> {
    wave: Vec<Occurrence<T>>,
    next: Vec<Occurrence<T>>,
    round: Vec<Occurrence<T>>,
    timers: Vec<TimerRequest>,
    queue: VecDeque<(u32, usize, Occurrence<T>)>,
    emissions: Vec<Occurrence<T>>,
    timer_reqs: Vec<(u64, u64)>,
}

impl<T> Default for Scratch<T> {
    fn default() -> Self {
        Scratch {
            wave: Vec::new(),
            next: Vec::new(),
            round: Vec::new(),
            timers: Vec::new(),
            queue: VecDeque::new(),
            emissions: Vec::new(),
            timer_reqs: Vec::new(),
        }
    }
}

/// A catalog plus **one shared plan** across all composite definitions,
/// with per-definition views routing occurrences through it.
///
/// Structurally identical subexpressions across definitions execute once
/// instead of once per definition; [`Self::unshared`] builds the same
/// engine without that sharing, as the differential oracle. Timer handles
/// are `(definition, TimerId)` pairs, and feed results carry the
/// definition tag.
#[derive(Debug, Default)]
pub struct PlanDetector<T: EventTime> {
    catalog: Catalog,
    nodes: Vec<PlanNode<T>>,
    cons: HashMap<ConsKey, usize>,
    /// Skip the cons table: every subexpression gets a private node (see
    /// [`Self::unshared`]).
    unshared: bool,
    defs: Vec<DefView>,
    /// Event type → every root subscription `(definition, position,
    /// slot)`, grouped by ascending definition, each definition's in bind
    /// order. Indexed densely by `EventId` (an empty slot = unrouted), so
    /// a trigger routes with one bounds-checked load.
    route_table: Vec<Vec<Route>>,
    /// Reusable hot-path buffers (empty between public calls), boxed to
    /// keep the detector small; calls move the contents out and back, so
    /// the box itself is allocated once.
    scratch: Box<Scratch<T>>,
    /// Topological level of each definition in the dependency DAG.
    levels: Vec<usize>,
    /// Cascade severing (see [`Self::set_cascade`]): when true, named
    /// detections are reported but never re-enter the wave as triggers.
    severed: bool,
}

impl<T: EventTime> PlanDetector<T> {
    /// An empty detector that shares structurally identical
    /// subexpressions across definitions.
    pub fn new() -> Self {
        PlanDetector {
            catalog: Catalog::new(),
            nodes: Vec::new(),
            cons: HashMap::new(),
            unshared: false,
            defs: Vec::new(),
            route_table: Vec::new(),
            scratch: Box::default(),
            levels: Vec::new(),
            severed: false,
        }
    }

    /// An empty detector that compiles every definition independently:
    /// the cons table is never consulted, so no node is shared and each
    /// definition runs exactly as it would on a detector of its own. This
    /// is the unshared oracle the shared plan is checked against; its
    /// detections are bit-for-bit identical to [`Self::new`]'s.
    pub fn unshared() -> Self {
        PlanDetector {
            unshared: true,
            ..Self::new()
        }
    }

    /// Enable or sever the detection cascade. With the cascade severed
    /// (`enabled == false`), a named composite detection is still reported
    /// in the feed result but is **not** re-fed to the definitions that
    /// subscribe to it — the caller owns cross-definition routing (a
    /// partitioned deployment where the subscribing definition may live on
    /// another detector replica). Default is enabled.
    pub fn set_cascade(&mut self, enabled: bool) {
        self.severed = !enabled;
    }

    /// Register a primitive event type.
    pub fn register(&mut self, name: &str) -> Result<EventId> {
        self.catalog.register(name)
    }

    /// Define a named composite event, hash-consing its subexpressions
    /// into the shared plan.
    pub fn define(&mut self, name: &str, expr: &EventExpr, ctx: Context) -> Result<EventId> {
        expr.validate()?;
        if expr.primitive_names().contains(&name) {
            return Err(SnoopError::CyclicDefinition(name.to_owned()));
        }
        let emits = self.catalog.register(name)?;
        // Pre-resolve every leaf so the build below is infallible (a
        // failed define leaves no orphan nodes in the shared plan).
        for leaf in expr.primitive_names() {
            self.catalog.lookup(leaf)?;
        }
        let d = self.defs.len();
        let mut def = DefView {
            emits,
            positions: Vec::new(),
            timers: HashMap::new(),
            next_timer: 0,
        };
        let root = self.build(d, &mut def, expr, ctx);
        match root {
            Src::Pos(p) => {
                def.positions[p as usize].emits = emits;
                def.positions[p as usize].named = true;
            }
            Src::Event(e) => {
                // A pure alias: a forwarding OR node with one child that
                // carries the registered name directly (no synthetic
                // intern), so bind specially here.
                let key = ConsKey::Alias(ChildKey::Event(e));
                let n = self.cons_node(key, &[(ChildKey::Event(e), 0)], "alias", true, || {
                    Box::new(nodes::or::OrNode::new())
                });
                let p = def.positions.len() as u32;
                let seen = self.nodes[n].exec;
                self.nodes[n].bound.push((d as u32, p));
                def.positions.push(Position {
                    node: n,
                    emits,
                    named: true,
                    parents: Vec::new(),
                    seen,
                });
                self.subscribe(e, (d as u32, p, 0));
            }
        }
        let level = self
            .shard_subscriptions(d)
            .filter_map(|ty| {
                self.defs
                    .iter()
                    .position(|dv| dv.emits == ty)
                    .map(|j| self.levels[j] + 1)
            })
            .max()
            .unwrap_or(0);
        self.levels.push(level);
        self.defs.push(def);
        Ok(emits)
    }

    /// Reuse a structurally identical node if one exists (and is safe to
    /// share), else push a fresh one. A stateful node is only reused while
    /// it has never executed a delivery — a later define must not inherit
    /// accumulated operator state a fresh compilation would lack. An
    /// unshared detector never looks the key up.
    fn cons_node(
        &mut self,
        key: ConsKey,
        children: &[(ChildKey, usize)],
        label: &'static str,
        stateless: bool,
        mk: impl FnOnce() -> Box<dyn OperatorNode<T>>,
    ) -> usize {
        if self.unshared {
            return self.fresh_node(children, label, stateless, mk());
        }
        if let Some(&n) = self.cons.get(&key) {
            if stateless || self.nodes[n].exec == 0 {
                return n;
            }
        }
        let n = self.fresh_node(children, label, stateless, mk());
        self.cons.insert(key, n);
        n
    }

    /// Append a root subscription to `e`'s route. Definitions are built
    /// in index order, so appending keeps the table grouped by ascending
    /// definition.
    fn subscribe(&mut self, e: EventId, route: Route) {
        let i = e.0 as usize;
        if i >= self.route_table.len() {
            self.route_table.resize_with(i + 1, Vec::new);
        }
        self.route_table[i].push(route);
    }

    /// Push a node no later define can reuse (temporal operators, and
    /// every node of an unshared detector).
    fn fresh_node(
        &mut self,
        children: &[(ChildKey, usize)],
        label: &'static str,
        stateless: bool,
        op: Box<dyn OperatorNode<T>>,
    ) -> usize {
        let n = self.nodes.len();
        self.nodes.push(PlanNode {
            op,
            bound: Vec::new(),
            children: children.to_vec(),
            label,
            stateless,
            exec: 0,
            base: 0,
            log: ReplayLog::default(),
        });
        n
    }

    /// Bind `node` as the next position of definition `d`, interning the
    /// per-definition synthetic event type and wiring the operand
    /// subscriptions. The catalog intern sequence is the same in both
    /// sharing modes (`__node_{k}` for the k-th node of each definition).
    fn bind(&mut self, d: usize, def: &mut DefView, node: usize, children: &[(Src, usize)]) -> Src {
        let p = def.positions.len() as u32;
        let emits = self.catalog.intern(&format!("__node_{p}"));
        let seen = self.nodes[node].exec;
        self.nodes[node].bound.push((d as u32, p));
        def.positions.push(Position {
            node,
            emits,
            named: false,
            parents: Vec::new(),
            seen,
        });
        for &(src, slot) in children {
            match src {
                Src::Event(e) => self.subscribe(e, (d as u32, p, slot)),
                Src::Pos(c) => def.positions[c as usize].parents.push((p, slot)),
            }
        }
        Src::Pos(p)
    }

    fn build(&mut self, d: usize, def: &mut DefView, expr: &EventExpr, ctx: Context) -> Src {
        match expr {
            EventExpr::Primitive(name) => Src::Event(
                self.catalog
                    .lookup(name)
                    .expect("leaves pre-resolved in define"),
            ),
            EventExpr::And(a, b) => {
                let sa = self.build(d, def, a, ctx);
                let sb = self.build(d, def, b, ctx);
                let (ka, kb) = (key_of(def, sa), key_of(def, sb));
                let n = self.cons_node(
                    ConsKey::And(ctx, ka, kb),
                    &[(ka, 0), (kb, 1)],
                    "and",
                    false,
                    || Box::new(nodes::and::AndNode::new(ctx)),
                );
                self.bind(d, def, n, &[(sa, 0), (sb, 1)])
            }
            EventExpr::Or(a, b) => {
                let sa = self.build(d, def, a, ctx);
                let sb = self.build(d, def, b, ctx);
                let (ka, kb) = (key_of(def, sa), key_of(def, sb));
                let n =
                    self.cons_node(ConsKey::Or(ka, kb), &[(ka, 0), (kb, 1)], "or", true, || {
                        Box::new(nodes::or::OrNode::new())
                    });
                self.bind(d, def, n, &[(sa, 0), (sb, 1)])
            }
            EventExpr::Seq(a, b) => {
                let sa = self.build(d, def, a, ctx);
                let sb = self.build(d, def, b, ctx);
                let (ka, kb) = (key_of(def, sa), key_of(def, sb));
                let n = self.cons_node(
                    ConsKey::Seq(ctx, ka, kb),
                    &[(ka, 0), (kb, 1)],
                    "seq",
                    false,
                    || Box::new(nodes::seq::SeqNode::new(ctx)),
                );
                self.bind(d, def, n, &[(sa, 0), (sb, 1)])
            }
            EventExpr::Not {
                guard,
                opener,
                closer,
            } => {
                let so = self.build(d, def, opener, ctx);
                let sg = self.build(d, def, guard, ctx);
                let sc = self.build(d, def, closer, ctx);
                let (ko, kg, kc) = (key_of(def, so), key_of(def, sg), key_of(def, sc));
                let n = self.cons_node(
                    ConsKey::Not(ctx, ko, kg, kc),
                    &[
                        (ko, nodes::not::SLOT_OPENER),
                        (kg, nodes::not::SLOT_GUARD),
                        (kc, nodes::not::SLOT_CLOSER),
                    ],
                    "not",
                    false,
                    || Box::new(nodes::not::NotNode::new(ctx)),
                );
                self.bind(
                    d,
                    def,
                    n,
                    &[
                        (so, nodes::not::SLOT_OPENER),
                        (sg, nodes::not::SLOT_GUARD),
                        (sc, nodes::not::SLOT_CLOSER),
                    ],
                )
            }
            EventExpr::Aperiodic {
                opener,
                mid,
                closer,
            } => {
                let so = self.build(d, def, opener, ctx);
                let sm = self.build(d, def, mid, ctx);
                let sc = self.build(d, def, closer, ctx);
                let (ko, km, kc) = (key_of(def, so), key_of(def, sm), key_of(def, sc));
                let n = self.cons_node(
                    ConsKey::Aperiodic(ctx, ko, km, kc),
                    &[
                        (ko, nodes::aperiodic::SLOT_OPENER),
                        (km, nodes::aperiodic::SLOT_MID),
                        (kc, nodes::aperiodic::SLOT_CLOSER),
                    ],
                    "aperiodic",
                    false,
                    || Box::new(nodes::aperiodic::ANode::new(ctx)),
                );
                self.bind(
                    d,
                    def,
                    n,
                    &[
                        (so, nodes::aperiodic::SLOT_OPENER),
                        (sm, nodes::aperiodic::SLOT_MID),
                        (sc, nodes::aperiodic::SLOT_CLOSER),
                    ],
                )
            }
            EventExpr::AperiodicStar {
                opener,
                mid,
                closer,
            } => {
                let so = self.build(d, def, opener, ctx);
                let sm = self.build(d, def, mid, ctx);
                let sc = self.build(d, def, closer, ctx);
                let (ko, km, kc) = (key_of(def, so), key_of(def, sm), key_of(def, sc));
                let n = self.cons_node(
                    ConsKey::AperiodicStar(ctx, ko, km, kc),
                    &[
                        (ko, nodes::aperiodic::SLOT_OPENER),
                        (km, nodes::aperiodic::SLOT_MID),
                        (kc, nodes::aperiodic::SLOT_CLOSER),
                    ],
                    "aperiodic*",
                    false,
                    || Box::new(nodes::aperiodic::AStarNode::new(ctx)),
                );
                self.bind(
                    d,
                    def,
                    n,
                    &[
                        (so, nodes::aperiodic::SLOT_OPENER),
                        (sm, nodes::aperiodic::SLOT_MID),
                        (sc, nodes::aperiodic::SLOT_CLOSER),
                    ],
                )
            }
            EventExpr::Periodic {
                opener,
                period,
                closer,
            } => {
                let so = self.build(d, def, opener, ctx);
                let sc = self.build(d, def, closer, ctx);
                let (ko, kc) = (key_of(def, so), key_of(def, sc));
                let n = self.fresh_node(
                    &[
                        (ko, nodes::periodic::SLOT_OPENER),
                        (kc, nodes::periodic::SLOT_CLOSER),
                    ],
                    "periodic",
                    false,
                    Box::new(nodes::periodic::PNode::new(*period)),
                );
                self.bind(
                    d,
                    def,
                    n,
                    &[
                        (so, nodes::periodic::SLOT_OPENER),
                        (sc, nodes::periodic::SLOT_CLOSER),
                    ],
                )
            }
            EventExpr::PeriodicStar {
                opener,
                period,
                closer,
            } => {
                let so = self.build(d, def, opener, ctx);
                let sc = self.build(d, def, closer, ctx);
                let (ko, kc) = (key_of(def, so), key_of(def, sc));
                let n = self.fresh_node(
                    &[
                        (ko, nodes::periodic::SLOT_OPENER),
                        (kc, nodes::periodic::SLOT_CLOSER),
                    ],
                    "periodic*",
                    false,
                    Box::new(nodes::periodic::PStarNode::new(*period)),
                );
                self.bind(
                    d,
                    def,
                    n,
                    &[
                        (so, nodes::periodic::SLOT_OPENER),
                        (sc, nodes::periodic::SLOT_CLOSER),
                    ],
                )
            }
            EventExpr::Plus { base, delta } => {
                let sb = self.build(d, def, base, ctx);
                let kb = key_of(def, sb);
                let n = self.fresh_node(
                    &[(kb, 0)],
                    "plus",
                    false,
                    Box::new(nodes::plus::PlusNode::new(*delta)),
                );
                self.bind(d, def, n, &[(sb, 0)])
            }
            EventExpr::Masked { base, mask } => {
                let sb = self.build(d, def, base, ctx);
                let kb = key_of(def, sb);
                let n = self.cons_node(
                    ConsKey::Mask(mask.clone(), kb),
                    &[(kb, 0)],
                    "mask",
                    true,
                    || Box::new(nodes::mask::MaskNode::new(mask.clone())),
                );
                self.bind(d, def, n, &[(sb, 0)])
            }
            EventExpr::Any { m, alternatives } => {
                let sources: Vec<Src> = alternatives
                    .iter()
                    .map(|a| self.build(d, def, a, ctx))
                    .collect();
                let keys: Vec<ChildKey> = sources.iter().map(|&s| key_of(def, s)).collect();
                let children: Vec<(ChildKey, usize)> = keys
                    .iter()
                    .copied()
                    .enumerate()
                    .map(|(i, k)| (k, i))
                    .collect();
                let n =
                    self.cons_node(ConsKey::Any(ctx, *m, keys), &children, "any", false, || {
                        Box::new(nodes::any::AnyNode::new(ctx, *m, alternatives.len()))
                    });
                let wired: Vec<(Src, usize)> = sources
                    .iter()
                    .copied()
                    .enumerate()
                    .map(|(i, s)| (s, i))
                    .collect();
                self.bind(d, def, n, &wired)
            }
        }
    }

    /// The catalog (name ↔ id mapping).
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Number of definitions (the plan analogue of a shard count — timer
    /// handles and routes are keyed by definition index).
    pub fn shard_count(&self) -> usize {
        self.defs.len()
    }

    /// Topological level of definition `d` in the dependency DAG.
    pub fn shard_level(&self, d: ShardId) -> usize {
        self.levels[d]
    }

    /// Number of topological stages in the definition dependency DAG.
    pub fn stage_count(&self) -> usize {
        self.levels.iter().max().map_or(0, |m| m + 1)
    }

    /// Event types definition `d` subscribes to, ascending.
    pub fn shard_subscriptions(&self, d: ShardId) -> impl Iterator<Item = EventId> + '_ {
        (0..self.route_table.len() as u32)
            .map(EventId)
            .filter(move |&ty| self.route(ty).iter().any(|r| r.0 as usize == d))
    }

    /// Whether some definition references another definition's named
    /// event.
    pub fn has_cross_shard_routes(&self) -> bool {
        self.defs.iter().any(|dv| !self.route(dv.emits).is_empty())
    }

    /// The root subscriptions of `ty`, grouped by ascending definition
    /// (empty = unrouted).
    fn route(&self, ty: EventId) -> &[Route] {
        self.route_table
            .get(ty.0 as usize)
            .map_or(&[], Vec::as_slice)
    }

    /// Smallest timer delay any node can request, or `None` when no
    /// definition uses a temporal operator. Runs **once per plan node**,
    /// not once per definition.
    pub fn min_timer_delay(&self) -> Option<u64> {
        self.nodes
            .iter()
            .filter_map(|n| n.op.min_timer_delay())
            .min()
    }

    /// Total outstanding timers across all definitions.
    pub fn pending_timer_count(&self) -> usize {
        self.defs.iter().map(|d| d.timers.len()).sum()
    }

    /// Advance the low watermark: operator GC runs **once per shared
    /// node** instead of once per definition copy. Returns the evicted
    /// count (counted per unique node, so it is legitimately lower than
    /// an unshared detector's on the same workload).
    pub fn advance_watermark(&mut self, low: u64) -> u64 {
        self.nodes.iter_mut().map(|n| n.op.on_watermark(low)).sum()
    }

    /// Total occurrences buffered across all plan nodes (per unique node;
    /// see [`Self::advance_watermark`] on comparability).
    pub fn buffered_occupancy(&self) -> usize {
        self.nodes.iter().map(|n| n.op.buffered_len()).sum()
    }

    /// Unique operator nodes in the plan.
    pub fn plan_node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Plan nodes bound by more than one position.
    pub fn shared_node_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.bound.len() > 1).count()
    }

    /// Total subexpression positions across all definitions.
    pub fn position_count(&self) -> usize {
        self.defs.iter().map(|d| d.positions.len()).sum()
    }

    /// Sharing counters for metrics export.
    pub fn plan_stats(&self) -> PlanStats {
        let plan_nodes = self.plan_node_count();
        let positions = self.position_count();
        PlanStats {
            plan_nodes,
            shared_nodes: self.shared_node_count(),
            position_count: positions,
            sharing_ratio: if positions == 0 {
                0.0
            } else {
                1.0 - plan_nodes as f64 / positions as f64
            },
        }
    }

    /// Feed one occurrence, cascading named detections (canonical order)
    /// into the definitions that reference them.
    pub fn feed(&mut self, occ: Occurrence<T>) -> FeedOutput<T> {
        self.feed_each([occ])
    }

    /// Deliver a previously requested timer on the definition that owns
    /// it, on the same scratch buffers as a trigger. Temporal nodes are
    /// always private, so this never touches the shared log.
    pub fn fire_timer(&mut self, d: ShardId, id: TimerId, time: T) -> Result<FeedOutput<T>> {
        let (p, tag) = self.defs[d]
            .timers
            .remove(&id)
            .ok_or(SnoopError::UnknownTimer(id.0))?;
        let mut s = std::mem::take(&mut *self.scratch);
        let def = &mut self.defs[d];
        let pos = &def.positions[p as usize];
        let node = &mut self.nodes[pos.node];
        debug_assert_eq!(node.bound.len(), 1, "timer nodes are private");
        let mut sink = Sink::new(pos.emits, &mut s.emissions, &mut s.timer_reqs);
        node.op.on_timer(tag, &time, &mut sink);
        postprocess_def(def, p, &mut s);
        drain_def(&mut self.nodes, def, &mut s);
        let mut out = FeedOutput::default();
        out.timers.extend(s.timers.drain(..).map(|t| (d, t)));
        self.merge_round(&mut s, &mut out);
        std::mem::swap(&mut s.wave, &mut s.next);
        self.run_waves(&mut s, &mut out);
        *self.scratch = s;
        self.trim_logs();
        Ok(out)
    }

    /// Feed a whole batch; semantically identical to feeding each
    /// occurrence in order, but the logs are trimmed once per batch.
    pub fn feed_batch(&mut self, occs: Vec<Occurrence<T>>) -> FeedOutput<T> {
        self.feed_each(occs)
    }

    /// Feed a columnar batch: only routed rows are ever materialized into
    /// occurrences (an unrouted primitive type cannot contribute to any
    /// detection), then the batch path takes over. Bit-identical to
    /// materializing every row and calling [`Self::feed_batch`].
    pub fn feed_batch_columnar(&mut self, batch: &EventBatch<T>) -> FeedOutput<T> {
        let occs = batch.materialize_routed(|ty| !self.route(ty).is_empty());
        self.feed_batch(occs)
    }

    /// Feed occurrences the caller already owns (a release round): drop
    /// unrouted types and give the rest fresh uids, then take the batch
    /// path. Bit-identical to staging the same rows in an
    /// [`EventBatch`] and calling [`Self::feed_batch_columnar`], without
    /// the struct-of-arrays round trip.
    pub fn feed_released(&mut self, mut occs: Vec<Occurrence<T>>) -> FeedOutput<T> {
        remint_routed(&mut occs, |ty| !self.route(ty).is_empty());
        self.feed_batch(occs)
    }

    /// Run each trigger's whole cascade, in order, on the detector
    /// scratch, then trim the logs once.
    fn feed_each(&mut self, occs: impl IntoIterator<Item = Occurrence<T>>) -> FeedOutput<T> {
        let mut out = FeedOutput::default();
        let mut s = std::mem::take(&mut *self.scratch);
        for occ in occs {
            s.wave.push(occ);
            self.run_waves(&mut s, &mut out);
        }
        *self.scratch = s;
        self.trim_logs();
        out
    }

    /// BFS cascade: serial waves until no detections remain.
    fn run_waves(&mut self, s: &mut Scratch<T>, out: &mut FeedOutput<T>) {
        while !s.wave.is_empty() {
            self.wave_step(s, out);
            std::mem::swap(&mut s.wave, &mut s.next);
        }
    }

    /// Sort one trigger's detection round canonically and move it into
    /// `out`, cloning into `s.next` each detection whose type some
    /// definition routes (an unrouted one could trigger nothing in the next
    /// wave). Severed cascades clone nothing.
    fn merge_round(&self, s: &mut Scratch<T>, out: &mut FeedOutput<T>) {
        sort_canonical(&mut s.round);
        for det in s.round.drain(..) {
            if !self.severed && !self.route(det.ty).is_empty() {
                s.next.push(det.clone());
            }
            out.detected.push(det);
        }
    }

    /// Run one cascade wave serially: deliver each occurrence of `s.wave`
    /// by reference to its route's positions, one definition at a time
    /// (ascending), draining that definition's BFS before the next; then
    /// merge the trigger's round into `out` and `s.next`.
    fn wave_step(&mut self, s: &mut Scratch<T>, out: &mut FeedOutput<T>) {
        let mut wave = std::mem::take(&mut s.wave);
        for occ in wave.drain(..) {
            let PlanDetector {
                route_table,
                nodes,
                defs,
                ..
            } = self;
            let route = route_table
                .get(occ.ty.0 as usize)
                .map_or(&[][..], Vec::as_slice);
            debug_assert!(s.round.is_empty() && s.queue.is_empty());
            for roots in route.chunk_by(|a, b| a.0 == b.0) {
                let d = roots[0].0 as usize;
                for &(_, p, slot) in roots {
                    step(nodes, &mut defs[d], (p, slot), &occ, s);
                }
                drain_def(nodes, &mut defs[d], s);
                out.timers.extend(s.timers.drain(..).map(|t| (d, t)));
            }
            self.merge_round(s, out);
        }
        s.wave = wave;
    }

    /// Drop fully-replayed log entries. At the end of every public call
    /// all cursors of a shared node have consumed every execution (each
    /// delivery reaches all binder definitions in the same routing round),
    /// so the logs drain completely.
    fn trim_logs(&mut self) {
        let defs = &self.defs;
        for node in &mut self.nodes {
            if node.log.is_empty() {
                continue;
            }
            let min_seen = node
                .bound
                .iter()
                .map(|&(d, p)| defs[d as usize].positions[p as usize].seen)
                .min()
                .unwrap_or(node.exec);
            debug_assert_eq!(
                min_seen, node.exec,
                "shared-node cursor out of sync on `{}`",
                node.label
            );
            node.log.drop_oldest((min_seen - node.base) as usize);
            node.base = min_seen;
        }
    }

    /// Render the **shared plan once** in Graphviz `dot` syntax: event
    /// sources as ellipses, each unique operator node as a single box
    /// (bold double border when shared), per-definition clusters holding
    /// the named composite, and a dashed fan-out edge from each
    /// definition's root node into its cluster.
    pub fn to_dot(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("digraph decs_plan {\n  rankdir=BT;\n");
        let mut events: BTreeSet<EventId> = BTreeSet::new();
        for node in &self.nodes {
            for &(child, _) in &node.children {
                if let ChildKey::Event(e) = child {
                    events.insert(e);
                }
            }
        }
        for &e in &events {
            let _ = writeln!(
                out,
                "  ev{} [label={:?} shape=ellipse];",
                e.0,
                self.catalog.name(e)
            );
        }
        for (i, node) in self.nodes.iter().enumerate() {
            let shared = if node.bound.len() > 1 {
                " peripheries=2 style=bold"
            } else {
                ""
            };
            let _ = writeln!(
                out,
                "  n{} [label={:?} shape=box{}];",
                i, node.label, shared
            );
            for &(child, slot) in &node.children {
                match child {
                    ChildKey::Event(e) => {
                        let _ = writeln!(out, "  ev{} -> n{} [label=\"{}\"];", e.0, i, slot);
                    }
                    ChildKey::Node(c) => {
                        let _ = writeln!(out, "  n{} -> n{} [label=\"{}\"];", c, i, slot);
                    }
                }
            }
        }
        for (d, def) in self.defs.iter().enumerate() {
            let name = self.catalog.name(def.emits);
            let _ = writeln!(out, "  subgraph cluster_def{d} {{");
            let _ = writeln!(out, "    label={name:?};");
            let _ = writeln!(out, "    def{d} [label={name:?} shape=doubleoctagon];");
            let _ = writeln!(out, "  }}");
            if let Some(root) = def.positions.iter().rposition(|p| p.named) {
                let _ = writeln!(
                    out,
                    "  n{} -> def{} [style=dashed];",
                    def.positions[root].node, d
                );
            }
        }
        out.push_str("}\n");
        out
    }
}

/// Operator-state snapshots (see [`crate::state`]).
impl<T: EventTime> PlanDetector<T> {
    /// Serialize the buffered state of every plan node plus each
    /// definition's timer bookkeeping. A detector compiled from the same
    /// definitions in the same sharing mode can restore it.
    pub fn save_state(&self) -> PlanState<T> {
        // Public calls end quiescent (`trim_logs`): every shared log is
        // empty and every cursor's `seen` equals its node's `exec` — so
        // only the operator state, the exec counters and the
        // per-definition timer tables need to be serialized. (`base` is
        // reconstructed as `exec` on restore; replay indices are relative
        // to it, so any common origin works.)
        debug_assert!(
            self.nodes.iter().all(|n| n.log.is_empty()),
            "snapshot of a non-quiescent plan"
        );
        PlanState {
            nodes: self.nodes.iter().map(|n| n.op.save_state()).collect(),
            execs: self.nodes.iter().map(|n| n.exec).collect(),
            defs: self
                .defs
                .iter()
                .map(|def| {
                    let mut timers: Vec<(u64, u32, u64)> = def
                        .timers
                        .iter()
                        .map(|(id, &(p, tag))| (id.0, p, tag))
                        .collect();
                    timers.sort_unstable();
                    DefTimers {
                        timers,
                        next_timer: def.next_timer,
                    }
                })
                .collect(),
        }
    }

    /// Restore a state produced by [`Self::save_state`]. A state whose
    /// shape differs from this detector's compiled plan (other
    /// definitions, or the other sharing mode) fails with
    /// [`SnoopError::SnapshotMismatch`].
    pub fn restore_state(&mut self, plan: PlanState<T>) -> Result<()> {
        if plan.nodes.len() != self.nodes.len() || plan.execs.len() != self.nodes.len() {
            return Err(SnoopError::SnapshotMismatch(format!(
                "plan has {} nodes, snapshot has {} (execs {})",
                self.nodes.len(),
                plan.nodes.len(),
                plan.execs.len()
            )));
        }
        if plan.defs.len() != self.defs.len() {
            return Err(SnoopError::SnapshotMismatch(format!(
                "plan has {} definitions, snapshot has {}",
                self.defs.len(),
                plan.defs.len()
            )));
        }
        let floor = crate::state::max_buffered_uid(&plan.nodes);
        for ((node, ns), exec) in self.nodes.iter_mut().zip(plan.nodes).zip(plan.execs) {
            node.op.restore_state(ns)?;
            node.exec = exec;
            node.base = exec;
            node.log.clear();
        }
        for (def, dt) in self.defs.iter_mut().zip(plan.defs) {
            def.timers.clear();
            for (id, p, tag) in dt.timers {
                if p as usize >= def.positions.len() {
                    return Err(SnoopError::SnapshotMismatch(format!(
                        "timer {id} targets position {p}, definition has {}",
                        def.positions.len()
                    )));
                }
                if id >= dt.next_timer {
                    return Err(SnoopError::SnapshotMismatch(format!(
                        "timer id {id} not below next_timer {}",
                        dt.next_timer
                    )));
                }
                def.timers.insert(TimerId(id), (p, tag));
            }
            def.next_timer = dt.next_timer;
        }
        // Re-establish the quiescence invariant: every cursor has consumed
        // every execution of its node.
        let nodes = &self.nodes;
        for def in &mut self.defs {
            for pos in &mut def.positions {
                pos.seen = nodes[pos.node].exec;
            }
        }
        crate::event::ensure_uid_floor(floor + 1);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::EventExpr as E;
    use crate::time::CentralTime;

    fn occ(cat: &Catalog, name: &str, t: u64) -> Occurrence<CentralTime> {
        Occurrence::bare(cat.lookup(name).unwrap(), CentralTime(t))
    }

    /// A detector in the given sharing mode.
    fn mode(shared: bool) -> PlanDetector<CentralTime> {
        if shared {
            PlanDetector::new()
        } else {
            PlanDetector::unshared()
        }
    }

    /// Build the shared plan and the unshared oracle over the same
    /// definitions and assert that feeding the trace produces bit-for-bit
    /// identical results (detections with types/times/params, timers with
    /// ids and tags).
    fn assert_equivalent(
        prims: &[&str],
        defs: &[(&str, EventExpr, Context)],
        trace: &[(&str, u64)],
    ) -> (PlanDetector<CentralTime>, PlanDetector<CentralTime>) {
        let mut oracle = PlanDetector::unshared();
        let mut plan = PlanDetector::new();
        for p in prims {
            oracle.register(p).unwrap();
            plan.register(p).unwrap();
        }
        for (name, expr, ctx) in defs {
            let a = oracle.define(name, expr, *ctx).unwrap();
            let b = plan.define(name, expr, *ctx).unwrap();
            assert_eq!(a, b, "catalog identity for {name}");
        }
        assert_eq!(
            oracle.catalog().len(),
            plan.catalog().len(),
            "intern sequence"
        );
        for (name, t) in trace {
            if oracle.catalog().lookup(name).is_err() {
                continue; // trace is a superset of some tests' primitives
            }
            let o = occ(oracle.catalog(), name, *t);
            let rs = oracle.feed(o.clone());
            let rp = plan.feed(o);
            assert_eq!(rs.detected, rp.detected, "detections at {name}@{t}");
            assert_eq!(rs.timers, rp.timers, "timers at {name}@{t}");
        }
        (oracle, plan)
    }

    fn base_trace() -> Vec<(&'static str, u64)> {
        vec![
            ("A", 1),
            ("B", 2),
            ("C", 3),
            ("B", 4),
            ("A", 5),
            ("C", 6),
            ("B", 7),
            ("A", 8),
            ("C", 9),
            ("B", 10),
        ]
    }

    #[test]
    fn overlapping_definitions_share_and_match_oracle() {
        // Seq(A, B) appears under three definitions; the plan compiles it
        // once.
        let defs = vec![
            ("X", E::seq(E::prim("A"), E::prim("B")), Context::Chronicle),
            (
                "Y",
                E::and(E::seq(E::prim("A"), E::prim("B")), E::prim("C")),
                Context::Chronicle,
            ),
            (
                "Z",
                E::seq(E::seq(E::prim("A"), E::prim("B")), E::prim("C")),
                Context::Chronicle,
            ),
        ];
        let (_, plan) = assert_equivalent(&["A", "B", "C"], &defs, &base_trace());
        let stats = plan.plan_stats();
        assert_eq!(stats.position_count, 5); // 1 + 2 + 2
        assert_eq!(stats.plan_nodes, 3); // shared seq + and + outer seq
        assert_eq!(stats.shared_nodes, 1);
        assert!(stats.sharing_ratio > 0.0);
    }

    #[test]
    fn disjoint_definitions_do_not_share() {
        let defs = vec![
            ("X", E::seq(E::prim("A"), E::prim("B")), Context::Chronicle),
            (
                "Y",
                E::and(E::prim("B"), E::prim("C")),
                Context::Unrestricted,
            ),
        ];
        let (_, plan) = assert_equivalent(&["A", "B", "C"], &defs, &base_trace());
        assert_eq!(plan.shared_node_count(), 0);
    }

    #[test]
    fn context_distinguishes_cons_keys() {
        // Same structure, different contexts: must NOT share.
        let defs = vec![
            ("X", E::seq(E::prim("A"), E::prim("B")), Context::Chronicle),
            ("Y", E::seq(E::prim("A"), E::prim("B")), Context::Continuous),
        ];
        let (_, plan) = assert_equivalent(&["A", "B"], &defs, &base_trace());
        assert_eq!(plan.shared_node_count(), 0);
        assert_eq!(plan.plan_node_count(), 2);
    }

    #[test]
    fn commutative_swap_does_not_share() {
        // And(a, b) vs And(b, a): structurally different, so no sharing —
        // sharing them would flip the param order of shared triggers.
        let defs = vec![
            (
                "X",
                E::and(E::prim("A"), E::prim("B")),
                Context::Unrestricted,
            ),
            (
                "Y",
                E::and(E::prim("B"), E::prim("A")),
                Context::Unrestricted,
            ),
        ];
        let (_, plan) = assert_equivalent(&["A", "B"], &defs, &base_trace());
        assert_eq!(plan.shared_node_count(), 0);
    }

    #[test]
    fn stateless_or_sharing_preserves_self_pairing_guard() {
        // Or(A, B) is shared between the two operands' definitions; the
        // forwarded occurrence must keep its uid in each definition so the
        // oracle's self-pairing behavior survives.
        let defs = vec![
            (
                "X",
                E::and(
                    E::or(E::prim("A"), E::prim("B")),
                    E::or(E::prim("A"), E::prim("C")),
                ),
                Context::Unrestricted,
            ),
            (
                "Y",
                E::seq(E::or(E::prim("A"), E::prim("B")), E::prim("C")),
                Context::Chronicle,
            ),
        ];
        let (_, plan) = assert_equivalent(&["A", "B", "C"], &defs, &base_trace());
        assert_eq!(plan.shared_node_count(), 1); // the Or(A, B)
    }

    #[test]
    fn alias_definitions_share_one_forwarder() {
        let defs = vec![
            ("Y1", E::prim("A"), Context::Unrestricted),
            ("Y2", E::prim("A"), Context::Chronicle),
            (
                "P",
                E::and(E::prim("Y1"), E::prim("Y2")),
                Context::Unrestricted,
            ),
        ];
        let (_, plan) = assert_equivalent(&["A", "B"], &defs, &base_trace());
        // Y1/Y2 alias nodes cons to one stateless forwarder.
        assert_eq!(plan.shared_node_count(), 1);
    }

    #[test]
    fn within_definition_sharing_matches_oracle() {
        // Both operands of And are the same subexpression: two positions,
        // one node, one definition.
        let defs = vec![(
            "X",
            E::and(
                E::seq(E::prim("A"), E::prim("B")),
                E::seq(E::prim("A"), E::prim("B")),
            ),
            Context::Unrestricted,
        )];
        let (_, plan) = assert_equivalent(&["A", "B"], &defs, &base_trace());
        let stats = plan.plan_stats();
        assert_eq!(stats.position_count, 3);
        assert_eq!(stats.plan_nodes, 2);
        assert_eq!(stats.shared_nodes, 1);
    }

    #[test]
    fn primitive_on_both_slots_still_blocks_self_pairing() {
        // E ∧ E over a primitive: the same occurrence arrives on both
        // slots and must not pair with itself — in both modes.
        let defs = vec![(
            "X",
            E::and(E::prim("A"), E::prim("A")),
            Context::Unrestricted,
        )];
        // The full trace must stay equivalent (a fresh A *does* pair with
        // earlier distinct A occurrences in both modes)…
        let (mut oracle, mut plan) = assert_equivalent(&["A"], &defs, &base_trace());
        // …and the very first A fed to fresh detectors pairs with nothing:
        // the same occurrence reaches both slots and is blocked by uid.
        let mut fresh_oracle = PlanDetector::<CentralTime>::unshared();
        let mut fresh_plan = PlanDetector::<CentralTime>::new();
        fresh_oracle.register("A").unwrap();
        fresh_plan.register("A").unwrap();
        let (name, e, ctx) = &defs[0];
        fresh_oracle.define(name, e, *ctx).unwrap();
        fresh_plan.define(name, e, *ctx).unwrap();
        let o = occ(fresh_oracle.catalog(), "A", 99);
        assert!(fresh_oracle.feed(o.clone()).detected.is_empty());
        assert!(fresh_plan.feed(o.clone()).detected.is_empty());
        // Keep the post-trace detectors honest too: next A matches oracle.
        assert_eq!(
            oracle.feed(o.clone()).detected.len(),
            plan.feed(o).detected.len()
        );
    }

    #[test]
    fn cross_definition_cascade_through_shared_nodes() {
        let defs = vec![
            ("X", E::seq(E::prim("A"), E::prim("B")), Context::Chronicle),
            ("Z", E::seq(E::prim("X"), E::prim("C")), Context::Chronicle),
            (
                "W",
                E::and(E::seq(E::prim("X"), E::prim("C")), E::prim("B")),
                Context::Chronicle,
            ),
        ];
        let (oracle, plan) = assert_equivalent(&["A", "B", "C"], &defs, &base_trace());
        assert!(plan.has_cross_shard_routes());
        assert_eq!(plan.stage_count(), oracle.stage_count());
        assert_eq!(plan.shard_level(1), 1);
        // Seq(X, C) shared between Z (root) and W (inner).
        assert_eq!(plan.shared_node_count(), 1);
    }

    #[test]
    fn late_define_does_not_inherit_executed_state() {
        let mut oracle = PlanDetector::<CentralTime>::unshared();
        let mut plan = PlanDetector::<CentralTime>::new();
        for p in ["A", "B"] {
            oracle.register(p).unwrap();
            plan.register(p).unwrap();
        }
        let e = E::seq(E::prim("A"), E::prim("B"));
        oracle.define("X", &e, Context::Chronicle).unwrap();
        plan.define("X", &e, Context::Chronicle).unwrap();
        // Execute: A is now buffered inside the Seq node.
        let o = occ(oracle.catalog(), "A", 1);
        oracle.feed(o.clone());
        plan.feed(o);
        // A structurally identical later define must NOT see that state.
        oracle.define("Y", &e, Context::Chronicle).unwrap();
        plan.define("Y", &e, Context::Chronicle).unwrap();
        assert_eq!(plan.shared_node_count(), 0, "executed node not reused");
        for (name, t) in [("B", 2), ("A", 3), ("B", 4)] {
            let o = occ(oracle.catalog(), name, t);
            let rs = oracle.feed(o.clone());
            let rp = plan.feed(o);
            assert_eq!(rs.detected, rp.detected, "{name}@{t}");
        }
    }

    #[test]
    fn all_operator_shapes_match_oracle() {
        let defs = vec![
            (
                "N",
                E::not(E::prim("B"), E::prim("A"), E::prim("C")),
                Context::Chronicle,
            ),
            (
                "AP",
                EventExpr::Aperiodic {
                    opener: Box::new(E::prim("A")),
                    mid: Box::new(E::prim("B")),
                    closer: Box::new(E::prim("C")),
                },
                Context::Unrestricted,
            ),
            (
                "AS",
                EventExpr::AperiodicStar {
                    opener: Box::new(E::prim("A")),
                    mid: Box::new(E::prim("B")),
                    closer: Box::new(E::prim("C")),
                },
                Context::Cumulative,
            ),
            (
                "ANY2",
                EventExpr::Any {
                    m: 2,
                    alternatives: vec![E::prim("A"), E::prim("B"), E::prim("C")],
                },
                Context::Continuous,
            ),
            (
                "MSK",
                EventExpr::Masked {
                    base: Box::new(E::prim("A")),
                    mask: Mask::AtLeast { index: 0, min: 0 },
                },
                Context::Unrestricted,
            ),
        ];
        assert_equivalent(&["A", "B", "C"], &defs, &base_trace());
    }

    #[test]
    fn shared_not_and_any_nodes_match_oracle() {
        // Stateful three-slot and n-ary operators shared across defs.
        let not = E::not(E::prim("B"), E::prim("A"), E::prim("C"));
        let any = EventExpr::Any {
            m: 2,
            alternatives: vec![E::prim("A"), E::prim("B"), E::prim("C")],
        };
        let defs = vec![
            ("N1", not.clone(), Context::Chronicle),
            ("N2", E::seq(not.clone(), E::prim("B")), Context::Chronicle),
            ("Q1", any.clone(), Context::Continuous),
            ("Q2", E::and(any.clone(), E::prim("C")), Context::Continuous),
        ];
        let (_, plan) = assert_equivalent(&["A", "B", "C"], &defs, &base_trace());
        assert_eq!(plan.shared_node_count(), 2);
    }

    #[test]
    fn timers_stay_private_and_match_oracle() {
        let mut oracle = PlanDetector::<CentralTime>::unshared();
        let mut plan = PlanDetector::<CentralTime>::new();
        oracle.register("A").unwrap();
        plan.register("A").unwrap();
        // Two identical Plus defs: temporal nodes must NOT share (each def
        // owns its timer ids), but their base subexpression may.
        let e = E::plus(E::seq(E::prim("A"), E::prim("A")), 10);
        for name in ["D1", "D2"] {
            oracle.define(name, &e, Context::Chronicle).unwrap();
            plan.define(name, &e, Context::Chronicle).unwrap();
        }
        assert_eq!(plan.shared_node_count(), 1); // the Seq only
        assert_eq!(plan.min_timer_delay(), Some(10));
        let o1 = occ(oracle.catalog(), "A", 1);
        let o2 = occ(oracle.catalog(), "A", 2);
        oracle.feed(o1.clone());
        plan.feed(o1);
        let rs = oracle.feed(o2.clone());
        let rp = plan.feed(o2);
        assert_eq!(rs.timers, rp.timers);
        assert_eq!(rs.timers.len(), 2); // one per def
        assert_eq!(oracle.pending_timer_count(), plan.pending_timer_count());
        for ((sd, sreq), (pd, preq)) in rs.timers.iter().zip(rp.timers.iter()) {
            let fs = oracle.fire_timer(*sd, sreq.id, CentralTime(12)).unwrap();
            let fp = plan.fire_timer(*pd, preq.id, CentralTime(12)).unwrap();
            assert_eq!(fs.detected, fp.detected);
        }
        assert!(matches!(
            plan.fire_timer(0, TimerId(99), CentralTime(20)),
            Err(SnoopError::UnknownTimer(99))
        ));
    }

    /// Mid-trace save/restore into a freshly compiled detector resumes
    /// bit-identically — detections, timer requests, and pending timers —
    /// in both sharing modes (the distributed recovery path relies on
    /// this).
    #[test]
    fn snapshot_roundtrip_resumes_equivalently() {
        let prims = ["A", "B", "C"];
        let defs = vec![
            ("X", E::seq(E::prim("A"), E::prim("B")), Context::Chronicle),
            (
                "Y",
                E::and(E::seq(E::prim("A"), E::prim("B")), E::prim("C")),
                Context::Chronicle,
            ),
            ("T", E::plus(E::prim("C"), 5), Context::Unrestricted),
        ];
        let trace = base_trace();
        let cut = 6;

        let build = |sharing: bool| {
            let mut d = mode(sharing);
            for p in prims {
                d.register(p).unwrap();
            }
            for (name, e, ctx) in &defs {
                d.define(name, e, *ctx).unwrap();
            }
            d
        };

        for sharing in [false, true] {
            // Reference: uninterrupted run over the whole trace.
            let mut reference = build(sharing);
            let mut ref_steps = Vec::new();
            for (name, t) in &trace {
                let o = occ(reference.catalog(), name, *t);
                let r = reference.feed(o);
                ref_steps.push((r.detected, r.timers));
            }

            // Interrupted run: feed the prefix, snapshot, "crash", restore
            // into a freshly compiled detector, feed the suffix.
            let mut first = build(sharing);
            for (name, t) in &trace[..cut] {
                let o = occ(first.catalog(), name, *t);
                first.feed(o);
            }
            let state = first.save_state();
            let mut recovered = build(sharing);
            // The other mode's snapshot (a different node count) is
            // rejected, not misread.
            let mut other = build(!sharing);
            assert!(matches!(
                other.restore_state(state.clone()),
                Err(SnoopError::SnapshotMismatch(_))
            ));
            recovered.restore_state(state).unwrap();
            assert_eq!(
                recovered.pending_timer_count(),
                first.pending_timer_count(),
                "pending timers survive restore (sharing={sharing})"
            );
            for (i, (name, t)) in trace[cut..].iter().enumerate() {
                let o = occ(recovered.catalog(), name, *t);
                let r = recovered.feed(o);
                let (ref_det, ref_tim) = &ref_steps[cut + i];
                assert_eq!(&r.detected, ref_det, "{name}@{t} (sharing={sharing})");
                assert_eq!(&r.timers, ref_tim, "{name}@{t} (sharing={sharing})");
            }

            // Every timer requested over the whole run fires identically.
            assert_eq!(
                recovered.pending_timer_count(),
                reference.pending_timer_count()
            );
            let all_timers: Vec<_> = ref_steps
                .iter()
                .flat_map(|(_, tims)| tims.iter().copied())
                .collect();
            assert!(!all_timers.is_empty(), "trace must exercise timers");
            for (i, (sid, req)) in all_timers.into_iter().enumerate() {
                let at = CentralTime(100 + i as u64);
                let fr = reference.fire_timer(sid, req.id, at).unwrap();
                let fc = recovered.fire_timer(sid, req.id, at).unwrap();
                assert_eq!(fr.detected, fc.detected, "timer {i} (sharing={sharing})");
                assert_eq!(fr.timers, fc.timers, "timer {i} (sharing={sharing})");
            }
            assert_eq!(recovered.pending_timer_count(), 0);
        }
    }

    #[test]
    fn feed_batch_equals_sequential_feeds() {
        let defs = vec![
            ("X", E::seq(E::prim("A"), E::prim("B")), Context::Chronicle),
            (
                "Y",
                E::and(E::seq(E::prim("A"), E::prim("B")), E::prim("C")),
                Context::Chronicle,
            ),
            ("Z", E::seq(E::prim("X"), E::prim("C")), Context::Chronicle),
        ];
        let build = || {
            let mut p = PlanDetector::<CentralTime>::new();
            for n in ["A", "B", "C"] {
                p.register(n).unwrap();
            }
            for (name, expr, ctx) in &defs {
                p.define(name, expr, *ctx).unwrap();
            }
            p
        };
        let mut serial = build();
        let mut batch = build();
        let occs: Vec<_> = base_trace()
            .iter()
            .map(|(n, t)| occ(serial.catalog(), n, *t))
            .collect();
        let mut seq_out = Vec::new();
        for o in occs.clone() {
            seq_out.extend(serial.feed(o).detected);
        }
        let batch_out = batch.feed_batch(occs).detected;
        assert_eq!(seq_out, batch_out);
    }

    #[test]
    fn watermark_gc_runs_once_per_shared_node() {
        // NOT strands guard state which the watermark can evict; shared
        // plans evict it once. Detections stay identical with GC applied.
        let not = E::not(E::prim("B"), E::prim("A"), E::prim("C"));
        let defs = vec![
            ("N1", not.clone(), Context::Chronicle),
            ("N2", E::seq(not.clone(), E::prim("B")), Context::Chronicle),
        ];
        let (mut oracle, mut plan) = assert_equivalent(&["A", "B", "C"], &defs, &base_trace());
        assert!(plan.buffered_occupancy() <= oracle.buffered_occupancy());
        oracle.advance_watermark(11);
        plan.advance_watermark(11);
        for (name, t) in [("A", 12), ("B", 13), ("C", 14), ("B", 15)] {
            let o = occ(oracle.catalog(), name, t);
            let rs = oracle.feed(o.clone());
            let rp = plan.feed(o);
            assert_eq!(rs.detected, rp.detected, "{name}@{t} after GC");
        }
    }

    #[test]
    fn logs_drain_after_every_feed() {
        let defs = vec![
            ("X", E::seq(E::prim("A"), E::prim("B")), Context::Chronicle),
            (
                "Y",
                E::seq(E::seq(E::prim("A"), E::prim("B")), E::prim("C")),
                Context::Chronicle,
            ),
        ];
        let (_, plan) = assert_equivalent(&["A", "B", "C"], &defs, &base_trace());
        for node in &plan.nodes {
            assert!(node.log.is_empty(), "log not drained on `{}`", node.label);
        }
    }

    #[test]
    fn define_failures_leave_no_orphan_nodes() {
        let mut plan = PlanDetector::<CentralTime>::new();
        plan.register("A").unwrap();
        let before = plan.plan_node_count();
        let e = E::seq(E::seq(E::prim("A"), E::prim("A")), E::prim("NOPE"));
        assert!(matches!(
            plan.define("X", &e, Context::Chronicle),
            Err(SnoopError::UnknownEvent(_))
        ));
        assert!(matches!(
            plan.define("Y", &E::seq(E::prim("A"), E::prim("Y")), Context::Chronicle),
            Err(SnoopError::CyclicDefinition(_))
        ));
        assert_eq!(plan.plan_node_count(), before);
        assert_eq!(plan.shard_count(), 0);
        // The failed name stays registered (`define` registers it before
        // building), so it cannot be reused…
        assert!(matches!(
            plan.define("X", &E::prim("A"), Context::Chronicle),
            Err(SnoopError::DuplicateEvent(_))
        ));
        // …but the detector still works for new names.
        plan.register("B").unwrap();
        plan.define(
            "X2",
            &E::seq(E::prim("A"), E::prim("B")),
            Context::Chronicle,
        )
        .unwrap();
        let o = occ(plan.catalog(), "A", 1);
        plan.feed(o);
        let o = occ(plan.catalog(), "B", 2);
        assert_eq!(plan.feed(o).detected.len(), 1);
    }

    /// The guard on the oracle: over definitions the shared plan does
    /// share (a stateful node, a stateless forwarder and an alias), the
    /// unshared mode builds one private node per position.
    #[test]
    fn unshared_mode_shares_nothing() {
        let defs = vec![
            ("X", E::seq(E::prim("A"), E::prim("B")), Context::Chronicle),
            (
                "Y",
                E::and(
                    E::seq(E::prim("A"), E::prim("B")),
                    E::or(E::prim("A"), E::prim("C")),
                ),
                Context::Chronicle,
            ),
            (
                "Z",
                E::seq(E::or(E::prim("A"), E::prim("C")), E::prim("B")),
                Context::Chronicle,
            ),
            ("W1", E::prim("C"), Context::Unrestricted),
            ("W2", E::prim("C"), Context::Chronicle),
        ];
        let (unshared, plan) = assert_equivalent(&["A", "B", "C"], &defs, &base_trace());
        let shared = plan.plan_stats();
        assert_eq!(shared.shared_nodes, 3, "seq, or and alias: {shared:?}");
        let stats = unshared.plan_stats();
        assert_eq!(stats.shared_nodes, 0);
        assert_eq!(stats.plan_nodes, stats.position_count);
        assert_eq!(stats.position_count, shared.position_count);
        assert_eq!(stats.sharing_ratio, 0.0);
    }

    /// A shared-plan state offered to an unshared detector over the same
    /// definitions (which has more nodes: nothing is consed) is refused.
    #[test]
    fn shared_state_is_refused_by_unshared_detector() {
        let defs = vec![
            ("X", E::seq(E::prim("A"), E::prim("B")), Context::Chronicle),
            (
                "Y",
                E::and(E::seq(E::prim("A"), E::prim("B")), E::prim("C")),
                Context::Chronicle,
            ),
        ];
        let (mut unshared, plan) = assert_equivalent(&["A", "B", "C"], &defs, &base_trace());
        assert_ne!(unshared.plan_node_count(), plan.plan_node_count());
        assert!(matches!(
            unshared.restore_state(plan.save_state()),
            Err(SnoopError::SnapshotMismatch(_))
        ));
    }

    /// Primitives A/B/C; three definitions with disjoint and overlapping
    /// subscriptions plus one cross-definition reference.
    fn dag_defs() -> Vec<(&'static str, EventExpr, Context)> {
        vec![
            ("X", E::seq(E::prim("A"), E::prim("B")), Context::Chronicle),
            (
                "Y",
                E::and(E::prim("B"), E::prim("C")),
                Context::Unrestricted,
            ),
            ("Z", E::seq(E::prim("X"), E::prim("C")), Context::Chronicle),
        ]
    }

    fn build_dag(shared: bool) -> PlanDetector<CentralTime> {
        let mut d = mode(shared);
        for n in ["A", "B", "C"] {
            d.register(n).unwrap();
        }
        for (name, expr, ctx) in dag_defs() {
            d.define(name, &expr, ctx).unwrap();
        }
        d
    }

    #[test]
    fn matches_monolithic_detector_as_a_multiset() {
        // Golden multiset, recorded from the retired monolithic event
        // graph (one private operator node per subexpression, depth-first
        // delivery) on the same definitions and trace.
        let trace = [
            ("A", 1),
            ("B", 2),
            ("C", 3),
            ("B", 4),
            ("A", 5),
            ("C", 6),
            ("B", 7),
            ("C", 8),
        ];
        let golden: Vec<(String, u64)> = [
            ("X", 2),
            ("X", 7),
            ("Y", 3),
            ("Y", 4),
            ("Y", 6),
            ("Y", 6),
            ("Y", 7),
            ("Y", 7),
            ("Y", 8),
            ("Y", 8),
            ("Y", 8),
            ("Z", 3),
            ("Z", 8),
        ]
        .into_iter()
        .map(|(n, t)| (n.to_owned(), t))
        .collect();
        for shared in [false, true] {
            let mut plan = build_dag(shared);
            let mut got = Vec::new();
            for (name, t) in trace {
                let o = occ(plan.catalog(), name, t);
                let r = plan.feed(o);
                got.extend(
                    r.detected
                        .iter()
                        .map(|o| (plan.catalog().name(o.ty).to_owned(), o.time.get())),
                );
            }
            got.sort();
            assert_eq!(got, golden, "shared={shared}");
        }
    }

    #[test]
    fn canonical_merge_orders_same_trigger_detections() {
        // Two defs detect on the same trigger with identical timestamps:
        // order must be by definition id.
        for shared in [false, true] {
            let mut d = mode(shared);
            for n in ["A", "B"] {
                d.register(n).unwrap();
            }
            d.define("Q", &E::seq(E::prim("A"), E::prim("B")), Context::Chronicle)
                .unwrap();
            d.define(
                "P",
                &E::and(E::prim("A"), E::prim("B")),
                Context::Unrestricted,
            )
            .unwrap();
            d.feed(occ(d.catalog(), "A", 1));
            let r = d.feed(occ(d.catalog(), "B", 2));
            let names: Vec<&str> = r.detected.iter().map(|o| d.catalog().name(o.ty)).collect();
            // Q was defined first → smaller EventId → first on the tie.
            assert_eq!(names, vec!["Q", "P"], "shared={shared}");
        }
    }

    #[test]
    fn shards_are_per_definition_with_minimal_subscriptions() {
        for shared in [false, true] {
            let d = build_dag(shared);
            assert_eq!(d.shard_count(), 3);
            assert!(d.has_cross_shard_routes()); // Z references X
            let id = |n: &str| d.catalog().lookup(n).unwrap();
            // A routes only to X; C to Y and Z.
            let defs_of = |n: &str| d.route(id(n)).iter().map(|r| r.0).collect::<Vec<_>>();
            assert_eq!(defs_of("A"), [0]);
            assert_eq!(defs_of("C"), [1, 2]);
            // And each definition subscribes only to what it references.
            let subs0: Vec<EventId> = d.shard_subscriptions(0).collect();
            let subs2: Vec<EventId> = d.shard_subscriptions(2).collect();
            assert_eq!(subs0, vec![id("A"), id("B")]);
            assert_eq!(subs2, vec![id("C"), id("X")]);
        }
    }

    #[test]
    fn stages_follow_the_definition_dag() {
        for shared in [false, true] {
            let mut d = build_dag(shared);
            // X and Y reference only primitives; Z references X.
            assert_eq!(d.shard_level(0), 0);
            assert_eq!(d.shard_level(1), 0);
            assert_eq!(d.shard_level(2), 1);
            assert_eq!(d.stage_count(), 2);
            // A deeper chain: W = seq(Z, B) sits one stage later again.
            d.define("W", &E::seq(E::prim("Z"), E::prim("B")), Context::Chronicle)
                .unwrap();
            assert_eq!(d.shard_level(3), 2);
            assert_eq!(d.stage_count(), 3);
        }
    }

    #[test]
    fn timers_are_tagged_with_their_shard() {
        for shared in [false, true] {
            let mut d = mode(shared);
            d.register("A").unwrap();
            d.define("L", &E::seq(E::prim("A"), E::prim("A")), Context::Chronicle)
                .unwrap();
            d.define("D", &E::plus(E::prim("A"), 10), Context::Chronicle)
                .unwrap();
            let r = d.feed(occ(d.catalog(), "A", 5));
            assert_eq!(r.timers.len(), 1);
            let (def, req) = r.timers[0];
            assert_eq!(def, 1); // the `+` belongs to D
            assert_eq!(req.delay_ticks, 10);
            let fired = d.fire_timer(def, req.id, CentralTime(15)).unwrap();
            assert_eq!(fired.detected.len(), 1);
            assert_eq!(d.catalog().name(fired.detected[0].ty), "D");
        }
    }

    #[test]
    fn dot_renders_shared_plan_once() {
        let mut plan = PlanDetector::<CentralTime>::new();
        for n in ["A", "B", "C"] {
            plan.register(n).unwrap();
        }
        plan.define("X", &E::seq(E::prim("A"), E::prim("B")), Context::Chronicle)
            .unwrap();
        plan.define(
            "Y",
            &E::and(E::seq(E::prim("A"), E::prim("B")), E::prim("C")),
            Context::Chronicle,
        )
        .unwrap();
        let dot = plan.to_dot();
        // The shared seq renders once, with the shared marker.
        assert_eq!(dot.matches("label=\"seq\"").count(), 1);
        assert!(dot.contains("peripheries=2 style=bold"));
        assert!(dot.contains("cluster_def0"));
        assert!(dot.contains("cluster_def1"));
        assert!(dot.contains("-> def0 [style=dashed]"));
        assert!(dot.contains("-> def1 [style=dashed]"));
        assert_eq!(dot, plan.to_dot(), "deterministic output");
    }

    /// `feed_released` against `feed_batch_columnar` over the same rows in
    /// both sharing modes. Every row is one occurrence fed twice under a single
    /// uid, and `X = A ∧ A` pairs two occurrences only when their uids
    /// differ — so equal detections show the rows were re-minted; the
    /// unregistered-for-routing `U` rows show unrouted types are dropped.
    #[test]
    fn released_feed_matches_columnar_feed() {
        let defs = |d: &mut PlanDetector<CentralTime>| {
            for n in ["A", "B", "U"] {
                d.register(n).unwrap();
            }
            let and = E::and(E::prim("A"), E::prim("A"));
            d.define("X", &and, Context::Unrestricted).unwrap();
            let seq = E::seq(E::prim("A"), E::prim("B"));
            d.define("Y", &seq, Context::Chronicle).unwrap();
        };
        for sharing in [false, true] {
            let make = || {
                let mut d = mode(sharing);
                defs(&mut d);
                d
            };
            let (mut released, mut columnar) = (make(), make());
            let rows: Vec<Occurrence<CentralTime>> = ["A", "U", "B", "A", "U", "B"]
                .iter()
                .zip(1u64..)
                .flat_map(|(n, t)| {
                    let o = occ(released.catalog(), n, t);
                    [o.clone(), o]
                })
                .collect();
            let mut batch = EventBatch::new();
            for o in &rows {
                batch.push_bare(o.ty, o.time);
            }
            let want = columnar.feed_batch_columnar(&batch);
            let got = released.feed_released(rows);
            assert!(!want.detected.is_empty());
            assert_eq!(got.detected, want.detected, "sharing={sharing}");
            assert_eq!(got.timers, want.timers, "sharing={sharing}");
        }
    }

    /// One trigger reaching several positions of one definition and
    /// several definitions — `SEQ(A, A)`, `A ∧ (A ; B)`, `ANY(2; A, A, B)`
    /// — detects in exactly this order in both sharing modes: routes
    /// deliver in bind order per definition, a definition's BFS drains
    /// before the next definition's roots, and each trigger's round is
    /// merged canonically. Each detection lists its constituents' ticks.
    #[test]
    fn multi_position_triggers_keep_detection_order() {
        let (a, b) = (E::prim("A"), E::prim("B"));
        let defs = [
            ("S", E::seq(a.clone(), a.clone())),
            ("X", E::and(a.clone(), E::seq(a.clone(), b.clone()))),
            ("Y", E::any(2, vec![a.clone(), a, b])),
        ];
        let want: Vec<(String, u64, Vec<i64>)> = [
            ("Y", 1, &[1, 1][..]),
            ("S", 2, &[1, 2]),
            ("Y", 2, &[1, 2]),
            ("Y", 2, &[2, 2]),
            ("X", 3, &[1, 1, 3]),
            ("X", 3, &[2, 1, 3]),
            ("X", 3, &[1, 2, 3]),
            ("X", 3, &[2, 2, 3]),
            ("Y", 3, &[2, 3]),
            ("S", 4, &[1, 4]),
            ("S", 4, &[2, 4]),
            ("X", 4, &[1, 3, 4]),
            ("X", 4, &[2, 3, 4]),
            ("Y", 4, &[2, 4]),
            ("Y", 4, &[4, 4]),
        ]
        .map(|(n, t, ticks)| (n.to_owned(), t, ticks.to_vec()))
        .to_vec();
        for shared in [false, true] {
            let mut d = mode(shared);
            for n in ["A", "B"] {
                d.register(n).unwrap();
            }
            for (name, e) in &defs {
                d.define(name, e, Context::Unrestricted).unwrap();
            }
            let mut got = Vec::new();
            for (n, t) in [("A", 1), ("A", 2), ("B", 3), ("A", 4)] {
                let ty = d.catalog().lookup(n).unwrap();
                let o = Occurrence::primitive(
                    ty,
                    CentralTime(t),
                    vec![crate::event::Value::Int(t as i64)],
                );
                for det in d.feed(o).detected {
                    let ticks: Vec<i64> = det
                        .params
                        .iter()
                        .map(|p| p.values[0].as_int().unwrap())
                        .collect();
                    got.push((d.catalog().name(det.ty).to_owned(), det.time.get(), ticks));
                }
            }
            assert_eq!(got, want, "shared={shared}");
        }
    }
}
