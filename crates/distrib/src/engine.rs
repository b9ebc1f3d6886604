//! The end-to-end distributed detection engine.
//!
//! [`Engine`] assembles a [`decs_simnet::Scenario`] (sites with drifting
//! clocks, a validated global time base, a link model), one [`SiteNode`]
//! per site, and a [`CoordinatorNode`] running the compiled plan,
//! into a single deterministic simulation. Workload is injected as
//! `(true time, site, event name, params)`; running the simulation yields
//! the named composite detections with their composite timestamps.

use crate::config::EngineConfig;
use crate::coordinator::compile;
use crate::coordinator::partition::{coarse, PartKey, PartitionState};
use crate::coordinator::{CoordinatorNode, RawDetection};
use crate::metrics::Metrics;
use crate::protocol::{Msg, PlanePos};
use crate::site::{LocalDetection, SiteNode};
use decs_chronos::Nanos;
use decs_core::CompositeTimestamp;
use decs_simnet::{Actor, Ctx, LinkConfig, NodeIdx, Scenario, Simulation};
use decs_snoop::{Context, EventExpr, Occurrence, Result, SnoopError, Value};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

/// Either role in the star topology.
#[derive(Debug)]
pub enum Node {
    /// A leaf site.
    Site(Box<SiteNode>),
    /// The global event detector.
    Coordinator(Box<CoordinatorNode>),
}

impl Actor for Node {
    type Msg = Msg;

    fn on_message(&mut self, from: NodeIdx, msg: Msg, ctx: &mut Ctx<'_, Msg>) {
        match self {
            Node::Site(s) => s.on_message(from, msg, ctx),
            Node::Coordinator(c) => {
                let started = std::time::Instant::now();
                c.on_message(from, msg, ctx);
                c.metrics.busy_ns += started.elapsed().as_nanos() as u64;
            }
        }
    }

    fn on_timer(&mut self, tag: u64, ctx: &mut Ctx<'_, Msg>) {
        match self {
            Node::Site(s) => s.on_timer(tag, ctx),
            Node::Coordinator(c) => {
                let started = std::time::Instant::now();
                c.on_timer(tag, ctx);
                c.metrics.busy_ns += started.elapsed().as_nanos() as u64;
            }
        }
    }
}

/// A named composite event detection.
#[derive(Debug, Clone)]
pub struct Detection {
    /// The composite event's name, shared with every other detection of
    /// the same event.
    pub name: Arc<str>,
    /// The occurrence (composite timestamp + accumulated parameters).
    pub occ: Occurrence<CompositeTimestamp>,
    /// True time at which the coordinator produced it.
    pub detected_at: Nanos,
}

/// A coordinator detection under its shared name (`e<id>` for an id
/// outside the name table).
fn detection(names: &[Arc<str>], d: RawDetection) -> Detection {
    Detection {
        name: names
            .get(d.occ.ty.0 as usize)
            .cloned()
            .unwrap_or_else(|| format!("e{}", d.occ.ty.0).into()),
        occ: d.occ,
        detected_at: d.detected_at,
    }
}

/// The distributed detection engine.
pub struct Engine {
    sim: Simulation<Node>,
    coordinator: NodeIdx,
    /// Every coordinator node, in replica order (`[coordinator]` in the
    /// classic single-coordinator deployment).
    coordinators: Vec<NodeIdx>,
    /// Partitioned deployments: detections gathered from the replicas,
    /// keyed by partition key, awaiting the promise cut that proves their
    /// prefix of the canonical order complete.
    pending: BTreeMap<PartKey, Detection>,
    /// Event id → name, built once in construction; detections share
    /// these names.
    names: Vec<Arc<str>>,
    name_ids: std::collections::HashMap<String, decs_snoop::EventId>,
    /// Everything needed to rebuild the coordinator after a crash: the
    /// detector is *not* serialized into snapshots (its compiled plan is
    /// derivable from the definitions), so recovery recompiles it exactly
    /// as construction did and restores only the buffered state into it.
    config: EngineConfig,
    gg_nanos: u64,
    primitives: Vec<String>,
    local_defs: Vec<(String, EventExpr, Context)>,
    global_defs: Vec<(String, EventExpr, Context)>,
}

/// The derived partition layout of a multi-replica deployment — a pure
/// function of the definitions and the replica count, so construction and
/// replica crash recovery derive the identical layout.
struct PartitionLayout {
    /// Per global definition, its owning replica (rendezvous-hashed).
    owner: Vec<usize>,
    /// Per replica, the full-catalog ids it must register as inputs
    /// (subscribed types it does not define itself), ascending.
    inputs: Vec<BTreeSet<u32>>,
    /// Primitive full-catalog type → subscribing replicas, ascending
    /// (the site routing table; uplink index = replica index).
    routes: HashMap<u32, Vec<usize>>,
    /// Per replica, full-catalog composite type it produces → consuming
    /// replicas (including itself for intra-replica references).
    fwd: Vec<HashMap<u32, Vec<usize>>>,
    /// Per replica, full-catalog input/owned type → bitmask of *peer*
    /// replicas its cascade closure inside this replica can forward to.
    /// Drives subscription-filtered promises: a buffered item only
    /// clamps the promise sent to peers its type can actually reach.
    reach: Vec<HashMap<u32, u64>>,
    /// Per replica, the union of its `reach` masks: every peer it can
    /// ever relay *anything* to. Promises are only gossiped along these
    /// edges, and a replica's release gate only consults the peers whose
    /// mask includes it — replicas with no cross-partition definitions
    /// decouple entirely.
    can_reach: Vec<u64>,
    /// Cascade-depth bound: the full plan's dependency-DAG stage count.
    max_depth: u32,
}

/// Rendezvous (highest-random-weight) owner of `name` among `replicas`
/// replicas, FNV-1a hashed over the name and the replica index — stable
/// under definition reordering and balanced without coordination.
fn rendezvous_owner(name: &str, replicas: usize) -> usize {
    let mut best = (0u64, 0usize);
    for r in 0..replicas {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in name.as_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        for b in (r as u64).to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        if r == 0 || h > best.0 {
            best = (h, r);
        }
    }
    best.1
}

/// Derive the partition layout from the full compiled detector: ownership
/// by rendezvous hashing on the definition name, subscription sets from
/// the plan IR (`shard_subscriptions`), routing and forwarding tables
/// from who-produces / who-subscribes.
fn plan_partition(
    detector: &decs_snoop::PlanDetector<CompositeTimestamp>,
    name_ids: &std::collections::HashMap<String, decs_snoop::EventId>,
    global_defs: &[(String, EventExpr, Context)],
    replicas: usize,
) -> PartitionLayout {
    let owner: Vec<usize> = global_defs
        .iter()
        .map(|(name, _, _)| rendezvous_owner(name, replicas))
        .collect();
    // Full-catalog id → global definition index (is this id a global
    // composite?).
    let def_of: HashMap<u32, usize> = global_defs
        .iter()
        .enumerate()
        .map(|(i, (name, _, _))| (name_ids[name].0, i))
        .collect();
    let mut inputs: Vec<BTreeSet<u32>> = vec![BTreeSet::new(); replicas];
    let mut routes: HashMap<u32, Vec<usize>> = HashMap::new();
    let mut fwd: Vec<HashMap<u32, Vec<usize>>> = vec![HashMap::new(); replicas];
    for (i, _) in global_defs.iter().enumerate() {
        let o = owner[i];
        for id in detector.shard_subscriptions(i) {
            let full = id.0;
            if let Some(&j) = def_of.get(&full) {
                // A composite reference: the producer replica forwards it
                // to `o` (a self-reference re-feeds through the producer's
                // own buffer, no wire hop).
                let producer = owner[j];
                let consumers = fwd[producer].entry(full).or_default();
                if !consumers.contains(&o) {
                    consumers.push(o);
                }
                if producer != o {
                    inputs[o].insert(full);
                }
            } else {
                // A primitive: sites route it to every subscriber.
                let subs = routes.entry(full).or_default();
                if !subs.contains(&o) {
                    subs.push(o);
                }
                inputs[o].insert(full);
            }
        }
    }
    for m in &mut fwd {
        for v in m.values_mut() {
            v.sort_unstable();
        }
    }
    for v in routes.values_mut() {
        v.sort_unstable();
    }
    // Per replica, propagate "which peers can a type's cascade reach"
    // backward through that replica's definition DAG to a fixpoint: a
    // def's input types inherit the def's own forward mask plus whatever
    // its output type already reaches (an output re-fed locally can feed
    // a deeper def that does forward).
    debug_assert!(replicas <= 64, "reach masks are u64 bitmasks");
    let mut reach: Vec<HashMap<u32, u64>> = vec![HashMap::new(); replicas];
    for r in 0..replicas {
        loop {
            let mut changed = false;
            for (i, (name, _, _)) in global_defs.iter().enumerate() {
                if owner[i] != r {
                    continue;
                }
                let out_ty = name_ids[name].0;
                let mut mask = reach[r].get(&out_ty).copied().unwrap_or(0);
                for &c in fwd[r].get(&out_ty).map_or(&[][..], Vec::as_slice) {
                    if c != r {
                        mask |= 1 << c;
                    }
                }
                for id in detector.shard_subscriptions(i) {
                    let slot = reach[r].entry(id.0).or_insert(0);
                    if *slot | mask != *slot {
                        *slot |= mask;
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
    }
    let can_reach: Vec<u64> = reach
        .iter()
        .map(|m| m.values().fold(0, |acc, &mask| acc | mask))
        .collect();
    PartitionLayout {
        owner,
        inputs,
        routes,
        fwd,
        reach,
        can_reach,
        max_depth: detector.stage_count() as u32,
    }
}

impl Engine {
    /// Build an engine over `scenario` (its sites become leaf sites; one
    /// extra site is created for the coordinator). `primitives` are the
    /// primitive event names; `definitions` the named composite events.
    pub fn new(
        scenario: &Scenario,
        config: EngineConfig,
        primitives: &[&str],
        definitions: &[(&str, EventExpr, Context)],
    ) -> Result<Self> {
        Self::with_local(scenario, config, primitives, &[], definitions)
    }

    /// Build an engine with **site-local composite events**: every site
    /// compiles `local_definitions` into its own plan; local
    /// detections are forwarded to the coordinator as first-class events
    /// (carrying their set-valued `Max` timestamps), where
    /// `global_definitions` may reference them by name. This is the
    /// paper's architecture — composite timestamps are *produced at the
    /// sites* and propagate through the network.
    pub fn with_local(
        scenario: &Scenario,
        config: EngineConfig,
        primitives: &[&str],
        local_definitions: &[(&str, EventExpr, Context)],
        global_definitions: &[(&str, EventExpr, Context)],
    ) -> Result<Self> {
        let primitives_owned: Vec<String> = primitives.iter().map(|p| (*p).to_string()).collect();
        let local_defs: Vec<(String, EventExpr, Context)> = local_definitions
            .iter()
            .map(|(n, e, c)| ((*n).to_string(), e.clone(), *c))
            .collect();
        let global_defs: Vec<(String, EventExpr, Context)> = global_definitions
            .iter()
            .map(|(n, e, c)| ((*n).to_string(), e.clone(), *c))
            .collect();
        let (detector, name_ids, names) =
            compile::build_detector(&config, &primitives_owned, &local_defs, &global_defs)?;

        let replicas = config.coordinator_replicas.max(1);
        if replicas > 1 {
            // The partitioned plane's scope cuts, enforced up front (each
            // would otherwise fail subtly at runtime).
            if config.site_durability {
                return Err(SnoopError::InvalidConfig(
                    "coordinator_replicas > 1 is incompatible with site_durability".to_string(),
                ));
            }
            if !local_defs.is_empty() {
                return Err(SnoopError::InvalidConfig(
                    "coordinator_replicas > 1 is incompatible with site-local definitions"
                        .to_string(),
                ));
            }
            if replicas > 13 {
                return Err(SnoopError::InvalidConfig(
                    "coordinator_replicas is limited to 13 (site timer-tag space)".to_string(),
                ));
            }
        }
        let layout = if replicas > 1 {
            Some(plan_partition(&detector, &name_ids, &global_defs, replicas))
        } else {
            None
        };

        let n = scenario.sites();
        let coordinator = NodeIdx(n);
        let coordinators: Vec<NodeIdx> = (0..replicas).map(|r| NodeIdx(n + r as u32)).collect();
        let gg_nanos_sites = scenario.base.gg().nanos_per_tick();
        let mut nodes = Vec::with_capacity(n as usize + replicas);
        for i in 0..n {
            let mut site_node = SiteNode::new(
                coordinator,
                config.retransmit_timeout,
                config.retransmit_cap,
            )
            .with_batching(config.batch_interval);
            if !local_definitions.is_empty() {
                // Each site compiles its own plan, in the coordinator's
                // sharing mode; translate its named event ids into the
                // coordinator's id space.
                let mut site_det = compile::new_detector(&config);
                for p in primitives {
                    site_det.register(p)?;
                }
                for (name, expr, ctx) in local_definitions {
                    site_det.define(name, expr, *ctx)?;
                }
                let mut translate = std::collections::HashMap::new();
                for name in primitives
                    .iter()
                    .copied()
                    .chain(local_definitions.iter().map(|(n, _, _)| *n))
                {
                    let site_id = site_det.catalog().lookup(name)?;
                    translate.insert(site_id, name_ids[name]);
                }
                site_node =
                    site_node.with_local(LocalDetection::new(site_det, translate, gg_nanos_sites));
            }
            if let Some(layout) = &layout {
                // Partitioned plane: independent sequence-numbered uplinks
                // to every replica, each carrying only the types that
                // replica's definitions subscribe to.
                site_node = site_node.with_uplinks(coordinators.clone(), layout.routes.clone());
            }
            if let Some(seed) = config.retransmit_jitter_seed {
                // Independent per-site streams: golden-ratio stride keeps
                // neighboring sites' sequences uncorrelated.
                site_node = site_node.with_retx_seed(
                    seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(u64::from(i) + 1)),
                );
            }
            if config.site_durability {
                if let Some(dir) = &config.wal_dir {
                    let site_dir = std::path::Path::new(dir).join(format!("site-{i}"));
                    site_node
                        .set_durability(&site_dir)
                        .map_err(|e| SnoopError::Io(format!("site durability init failed: {e}")))?;
                }
            }
            nodes.push((Node::Site(Box::new(site_node)), scenario.time_source(i)));
        }
        // Each coordinator is its own site (ids n, n+1, …) with a
        // deterministic perfect clock on the scenario's global base.
        let gg_nanos = scenario.base.gg().nanos_per_tick();
        match &layout {
            None => {
                let coord_source = decs_simnet::SiteTimeSource::new(
                    decs_chronos::SiteId(n),
                    decs_chronos::LocalClock::perfect(scenario.local_granularity),
                    scenario.base,
                );
                let mut coordinator_node = CoordinatorNode::new(n as usize, detector, gg_nanos);
                coordinator_node
                    .set_reportable(local_definitions.iter().map(|(name, _, _)| name_ids[*name]));
                coordinator_node.set_fault_tolerance(config.stall_timeout, config.auto_evict);
                if config.durability {
                    if let Some(dir) = &config.wal_dir {
                        coordinator_node
                            .set_durability(std::path::Path::new(dir))
                            .map_err(|e| SnoopError::Io(format!("durability init failed: {e}")))?;
                    }
                }
                nodes.push((Node::Coordinator(Box::new(coordinator_node)), coord_source));
            }
            Some(layout) => {
                for r in 0..replicas {
                    let source = decs_simnet::SiteTimeSource::new(
                        decs_chronos::SiteId(n + r as u32),
                        decs_chronos::LocalClock::perfect(scenario.local_granularity),
                        scenario.base,
                    );
                    let mut replica_node = Self::build_replica(
                        &config,
                        &names,
                        layout,
                        &global_defs,
                        r,
                        n as usize,
                        replicas,
                        gg_nanos,
                    )?;
                    if config.durability {
                        if let Some(dir) = &config.wal_dir {
                            let rdir = std::path::Path::new(dir).join(format!("replica-{r}"));
                            replica_node.set_durability(&rdir).map_err(|e| {
                                SnoopError::Io(format!("replica durability init failed: {e}"))
                            })?;
                        }
                    }
                    nodes.push((Node::Coordinator(Box::new(replica_node)), source));
                }
            }
        }

        let mut sim = Simulation::new(nodes, scenario.link, scenario.seed ^ 0x5EED);
        if config.trace_capacity > 0 {
            sim.enable_trace(config.trace_capacity);
        }
        // Start every node: a site starts its beacons; a coordinator has
        // nothing to start (a replica arms its relay retransmission round
        // when it relays).
        for i in 0..n + replicas as u32 {
            sim.inject(Nanos::ZERO, NodeIdx(i), Msg::Start);
        }
        Ok(Engine {
            sim,
            coordinator,
            coordinators,
            pending: BTreeMap::new(),
            names,
            name_ids,
            config,
            gg_nanos,
            primitives: primitives_owned,
            local_defs,
            global_defs,
        })
    }

    /// Build one coordinator replica: compile its severed detector over
    /// its owned definitions and input types, and attach the partition
    /// state. Shared by construction and replica crash recovery, so a
    /// recovered replica runs a bit-identical plan.
    #[allow(clippy::too_many_arguments)]
    fn build_replica(
        config: &EngineConfig,
        names: &[Arc<str>],
        layout: &PartitionLayout,
        global_defs: &[(String, EventExpr, Context)],
        r: usize,
        n_sites: usize,
        replicas: usize,
        gg_nanos: u64,
    ) -> Result<CoordinatorNode> {
        let owned: Vec<(String, EventExpr, Context)> = global_defs
            .iter()
            .enumerate()
            .filter(|(i, _)| layout.owner[*i] == r)
            .map(|(_, d)| d.clone())
            .collect();
        let plan = compile::build_replica_detector(config, names, &layout.inputs[r], &owned)?;
        let mut node = CoordinatorNode::new(n_sites, plan.detector, gg_nanos);
        node.set_fault_tolerance(config.stall_timeout, config.auto_evict);
        let gaters = (0..replicas)
            .filter(|&q| q != r && layout.can_reach[q] & (1 << r) != 0)
            .fold(0u64, |acc, q| acc | (1 << q));
        let fwd_masks: HashMap<u32, u64> = layout.fwd[r]
            .iter()
            .map(|(&t, v)| (t, v.iter().fold(0u64, |acc, &c| acc | (1 << c))))
            .collect();
        node.enable_partition(PartitionState::new(
            r,
            n_sites,
            replicas,
            plan.to_global,
            plan.to_local,
            fwd_masks,
            layout.reach[r].clone(),
            layout.can_reach[r],
            gaters,
            layout.max_depth,
            config.retransmit_timeout,
        ));
        Ok(node)
    }

    /// Crash coordinator replica `r` of a partitioned deployment and
    /// bring up a WAL-recovered replacement in place, mirroring
    /// [`Self::crash_and_recover_coordinator`]'s crash model. Replica
    /// durability is WAL-only (no snapshots): recovery replays the full
    /// log, which also rebuilds the outbound relay windows; the relay
    /// retransmission round, re-armed when those windows are non-empty,
    /// then resends anything the peers might not have seen, and they
    /// dedup by sequence number.
    pub fn crash_and_recover_replica(&mut self, r: usize) -> Result<()> {
        if self.coordinators.len() < 2 {
            return Err(SnoopError::Unsupported(
                "not a partitioned deployment".to_string(),
            ));
        }
        let dir = match (self.config.durability, &self.config.wal_dir) {
            (true, Some(dir)) => std::path::Path::new(dir).join(format!("replica-{r}")),
            _ => {
                return Err(SnoopError::Unsupported(
                    "durability is not enabled on this engine".to_string(),
                ))
            }
        };
        let replicas = self.coordinators.len();
        let n_sites = self.coordinator.0 as usize;
        let (detector, name_ids, _) = compile::build_detector(
            &self.config,
            &self.primitives,
            &self.local_defs,
            &self.global_defs,
        )?;
        let layout = plan_partition(&detector, &name_ids, &self.global_defs, replicas);
        let mut node = Self::build_replica(
            &self.config,
            &self.names,
            &layout,
            &self.global_defs,
            r,
            n_sites,
            replicas,
            self.gg_nanos,
        )?;
        let timers = node
            .recover(&dir)
            .map_err(|e| SnoopError::Io(format!("replica recovery failed: {e}")))?;
        let node_idx = self.coordinators[r];
        *self.sim.node_mut(node_idx) = Node::Coordinator(Box::new(node));
        let now = self.sim.now().get();
        for (tag, due_ns) in timers {
            self.sim
                .schedule_timer(Nanos(due_ns.max(now)), node_idx, tag);
        }
        Ok(())
    }

    /// Crash the coordinator and bring up a replacement recovered from the
    /// durability directory, in place, at the current simulation time.
    ///
    /// The crash model: the coordinator process dies losing **all**
    /// in-memory state (the old actor is dropped wholesale); its durable
    /// state, the one log `wal.log`, survives; the network and the sites
    /// keep running — in-flight messages still arrive (at the replacement)
    /// and unacked messages are retransmitted by their sites. The
    /// replacement recompiles the detector from the definitions, restores
    /// the snapshot record the log was last compacted to (if any), replays
    /// the records after it through the normal feed path, and re-arms the
    /// detector timers that were outstanding.
    ///
    /// Errors if durability was not configured
    /// ([`EngineConfig::durability`] + [`EngineConfig::wal_dir`]) or the
    /// durable state is unusable — including a log holding a frame this
    /// build cannot decode, which is refused rather than truncated.
    pub fn crash_and_recover_coordinator(&mut self) -> Result<()> {
        let dir = match (self.config.durability, &self.config.wal_dir) {
            (true, Some(dir)) => dir.clone(),
            _ => {
                return Err(SnoopError::Unsupported(
                    "durability is not enabled on this engine".to_string(),
                ))
            }
        };
        let (detector, _, _) = compile::build_detector(
            &self.config,
            &self.primitives,
            &self.local_defs,
            &self.global_defs,
        )?;
        let sites = self.coordinator.0 as usize;
        let mut coord = CoordinatorNode::new(sites, detector, self.gg_nanos);
        coord.set_reportable(self.local_defs.iter().map(|(name, _, _)| {
            *self
                .name_ids
                .get(name)
                .expect("local definition registered at construction")
        }));
        coord.set_fault_tolerance(self.config.stall_timeout, self.config.auto_evict);
        let timers = coord
            .recover(std::path::Path::new(&dir))
            .map_err(|e| SnoopError::Io(format!("recovery failed: {e}")))?;
        *self.sim.node_mut(self.coordinator) = Node::Coordinator(Box::new(coord));
        // Re-arm the timers the crashed node had outstanding. A stale fire
        // from the old node's arming may still sit in the queue; the
        // coordinator's timer map makes the duplicate fire a no-op.
        let now = self.sim.now().get();
        for (tag, due_ns) in timers {
            self.sim
                .schedule_timer(Nanos(due_ns.max(now)), self.coordinator, tag);
        }
        Ok(())
    }

    /// Override a site→coordinator link (every replica's, when the
    /// detection plane is partitioned).
    pub fn set_link(&mut self, site: u32, cfg: LinkConfig) {
        for &c in &self.coordinators {
            self.sim.set_link(NodeIdx(site), c, cfg);
        }
    }

    /// Override the link from `site` to coordinator replica `replica`
    /// only (`replica < coordinator_replicas`), so replicas can see one
    /// site's stream at different delays.
    pub fn set_uplink(&mut self, site: u32, replica: usize, cfg: LinkConfig) {
        self.sim
            .set_link(NodeIdx(site), self.coordinators[replica], cfg);
    }

    /// Override both directions of a site's link with the coordinator
    /// (faulty links lose acks on the return path too).
    pub fn set_link_pair(&mut self, site: u32, cfg: LinkConfig) {
        for &c in &self.coordinators {
            self.sim.set_link(NodeIdx(site), c, cfg);
            self.sim.set_link(c, NodeIdx(site), cfg);
        }
    }

    /// Schedule a bidirectional partition between `site` and the
    /// coordinator(s) over the true-time window `[from, until)`.
    pub fn partition_site(&mut self, site: u32, from: Nanos, until: Nanos) {
        for &c in &self.coordinators {
            self.sim.add_partition(NodeIdx(site), c, from, until);
            self.sim.add_partition(c, NodeIdx(site), from, until);
        }
    }

    /// Aggregate link fault counters across every link in the simulation.
    pub fn fault_counters(&self) -> decs_simnet::FaultCounters {
        self.sim.fault_counters()
    }

    /// The simulation trace (empty unless `EngineConfig::trace_capacity`
    /// is set): sends, deliveries, drops and timer fires with true times.
    pub fn trace(&self) -> &decs_simnet::Trace {
        self.sim.trace()
    }

    /// Number of sent-but-unacked messages a site currently holds for
    /// retransmission in its fullest send window: its stream to the
    /// coordinator, or its fullest replica uplink on the partitioned plane
    /// (0 for a coordinator index).
    pub fn unacked(&self, site: u32) -> usize {
        match self.sim.node(NodeIdx(site)) {
            Node::Site(s) => s.unacked(),
            Node::Coordinator(_) => 0,
        }
    }

    /// Syncs a site's write-ahead log has issued over the run, across
    /// restarts (0 without [`EngineConfig::site_durability`], and for the
    /// coordinator index).
    pub fn site_wal_syncs(&self, site: u32) -> u64 {
        match self.sim.node(NodeIdx(site)) {
            Node::Site(s) => s.wal_syncs(),
            Node::Coordinator(_) => 0,
        }
    }

    /// Failure injection: crash `site` at true time `at` — it stops
    /// heartbeating and drops later injections. Buffered notifications
    /// that depend on its watermark will stall until [`Self::evict_site`].
    pub fn crash_site(&mut self, at: Nanos, site: u32) {
        self.sim.inject(at, NodeIdx(site), Msg::Crash);
    }

    /// Operator action: stop waiting for `site`'s watermark at true time
    /// `at` (its promises become +∞), letting the stability buffer drain.
    /// Partitioned deployments evict the site at every replica.
    pub fn evict_site(&mut self, at: Nanos, site: u32) {
        for &c in &self.coordinators {
            self.sim.inject(at, c, Msg::Evict { site });
        }
    }

    /// Failure injection: restart a crashed `site` at true time `at` — a
    /// new incarnation comes up (with its WAL-recovered send window when
    /// [`EngineConfig::site_durability`] is on), announces itself to the
    /// coordinator with `Msg::Hello`, and resumes streaming. Restarting a
    /// live site is a no-op.
    pub fn restart_site(&mut self, at: Nanos, site: u32) {
        self.sim.inject(at, NodeIdx(site), Msg::Restart);
    }

    /// A site's current incarnation epoch (0 = never restarted; the
    /// coordinator index reports 0).
    pub fn site_epoch(&self, site: u32) -> u64 {
        match self.sim.node(NodeIdx(site)) {
            Node::Site(s) => s.epoch(),
            Node::Coordinator(_) => 0,
        }
    }

    /// The coordinator's view of a site's incarnation epoch (lags the
    /// site's own epoch until its `Msg::Hello` is consumed in order).
    pub fn coordinator_site_epoch(&self, site: u32) -> u64 {
        let Node::Coordinator(c) = self.sim.node(self.coordinator) else {
            unreachable!("coordinator index")
        };
        c.site_epoch(site as usize)
    }

    /// If the coordinator's WAL fail-stopped it, the first I/O error.
    pub fn coordinator_wal_failed(&self) -> Option<String> {
        let Node::Coordinator(c) = self.sim.node(self.coordinator) else {
            unreachable!("coordinator index")
        };
        c.wal_failed().map(str::to_string)
    }

    /// Inject a primitive event occurrence at `site` at true time `at`.
    pub fn inject(&mut self, at: Nanos, site: u32, event: &str, values: Vec<Value>) -> Result<()> {
        let ty = *self
            .name_ids
            .get(event)
            .ok_or_else(|| SnoopError::UnknownEvent(event.to_string()))?;
        self.sim
            .inject(at, NodeIdx(site), Msg::Inject { ty, values });
        Ok(())
    }

    /// Run the simulation until true time `until`, then drain and return
    /// the detections produced so far.
    pub fn run_until(&mut self, until: Nanos) -> Vec<Detection> {
        self.sim.run_until(until);
        self.drain()
    }

    /// Run for `horizon` more simulated time **relative to the current
    /// simulation clock**, then drain and return the detections produced
    /// so far. `run_until(t)` followed by `run_for(h)` covers exactly the
    /// same simulated span as `run_until(t + h)`. (Tick-edge and batch
    /// timers re-arm forever, so a bounded horizon is required; there is
    /// no run-to-quiescence.)
    pub fn run_for(&mut self, horizon: Nanos) -> Vec<Detection> {
        let until = Nanos(self.sim.now().get().saturating_add(horizon.get()));
        self.run_until(until)
    }

    fn drain(&mut self) -> Vec<Detection> {
        if self.coordinators.len() > 1 {
            return self.drain_partitioned();
        }
        let names = &self.names;
        let Node::Coordinator(c) = self.sim.node_mut(self.coordinator) else {
            unreachable!("coordinator index")
        };
        // Durability: log the drain so a recovered coordinator does not
        // re-report detections this engine already returned.
        if !c.note_drained(c.detections.len() as u64) {
            return Vec::new();
        }
        c.detections
            .drain(..)
            .map(|d| detection(names, d))
            .collect()
    }

    /// Merge the replicas' per-partition detection streams into the
    /// canonical global order: gather every replica's detections keyed by
    /// partition key, then emit the prefix at or below the minimum of the
    /// replicas' promises — below that cut no replica can produce
    /// anything new, so the prefix's order is final. The remainder stays
    /// pending for the next drain.
    fn drain_partitioned(&mut self) -> Vec<Detection> {
        let mut cut = PlanePos::MAX;
        for &node in &self.coordinators {
            let Node::Coordinator(c) = self.sim.node_mut(node) else {
                unreachable!("coordinator index")
            };
            if c.note_drained(c.detections.len() as u64) {
                let part = c.part.as_mut().expect("partitioned");
                debug_assert_eq!(
                    c.detections.len(),
                    part.keys.len(),
                    "keys misaligned with detections"
                );
                let dets = c.detections.drain(..).map(|d| detection(&self.names, d));
                self.pending.extend(part.keys.drain(..).zip(dets));
            }
            cut = cut.min(c.promise_floor());
        }
        let mut out = Vec::new();
        while let Some((key, _)) = self.pending.iter().next() {
            if coarse(key) > cut {
                break;
            }
            let key = key.clone();
            let (_, det) = self.pending.remove_entry(&key).expect("present");
            out.push(det);
        }
        out
    }

    /// Coordinator metrics snapshot, with site-held counters (retransmits)
    /// aggregated in. Partitioned deployments sum the replicas' counters
    /// (and take the maximum of high-water marks).
    pub fn metrics(&self) -> Metrics {
        let Node::Coordinator(c) = self.sim.node(self.coordinator) else {
            unreachable!("coordinator index")
        };
        let mut m = c.metrics.clone();
        let mut positions = c.detector.position_count();
        for &node in self.coordinators.iter().skip(1) {
            let Node::Coordinator(c) = self.sim.node(node) else {
                unreachable!("coordinator index")
            };
            positions += c.detector.position_count();
            let r = &c.metrics;
            m.events_received += r.events_received;
            m.events_released += r.events_released;
            m.detections += r.detections;
            m.reassembly_parks += r.reassembly_parks;
            m.max_buffered = m.max_buffered.max(r.max_buffered);
            m.stability_latency_sum_ns += r.stability_latency_sum_ns;
            m.timer_fires += r.timer_fires;
            m.messages_processed += r.messages_processed;
            m.batches_received += r.batches_received;
            m.batch_size_max = m.batch_size_max.max(r.batch_size_max);
            m.release_batches += r.release_batches;
            m.shard_count += r.shard_count;
            m.plan_nodes += r.plan_nodes;
            m.shared_nodes += r.shared_nodes;
            m.gc_evicted += r.gc_evicted;
            m.node_buffered += r.node_buffered;
            m.node_buffer_peak += r.node_buffer_peak;
            m.acks_sent += r.acks_sent;
            m.duplicates_dropped += r.duplicates_dropped;
            m.parked_peak = m.parked_peak.max(r.parked_peak);
            m.parked_dropped += r.parked_dropped;
            m.suspect_sites = m.suspect_sites.max(r.suspect_sites);
            m.stall_ns += r.stall_ns;
            m.evict_refused += r.evict_refused;
            m.auto_evictions += r.auto_evictions;
            m.wal_appends += r.wal_appends;
            m.wal_bytes += r.wal_bytes;
            m.snapshots_taken += r.snapshots_taken;
            m.recovery_replayed += r.recovery_replayed;
            m.recovery_ns += r.recovery_ns;
            m.rejoins += r.rejoins;
            m.epoch_max = m.epoch_max.max(r.epoch_max);
            m.rejoin_latency_ns += r.rejoin_latency_ns;
            m.stale_refused += r.stale_refused;
            m.epoch_filtered += r.epoch_filtered;
            m.wal_errors += r.wal_errors;
            m.relays_sent += r.relays_sent;
            m.relay_events += r.relay_events;
            m.relay_retransmits += r.relay_retransmits;
            m.relays_received += r.relays_received;
            m.routed_received += r.routed_received;
            m.busy_ns += r.busy_ns;
        }
        // The plane's ratio over every replica's plan, not replica 0's.
        if positions > 0 {
            m.sharing_ratio = 1.0 - m.plan_nodes as f64 / positions as f64;
        }
        for i in 0..self.coordinator.0 {
            if let Node::Site(s) = self.sim.node(NodeIdx(i)) {
                m.retransmits += s.retransmits;
                m.site_restarts += s.restarts;
                m.wal_errors += s.wal_errors;
            }
        }
        m
    }

    /// Number of notifications still awaiting stability (summed over
    /// replicas when the detection plane is partitioned).
    pub fn buffered(&self) -> usize {
        self.coordinators
            .iter()
            .map(|&node| {
                let Node::Coordinator(c) = self.sim.node(node) else {
                    unreachable!("coordinator index")
                };
                c.buffered()
            })
            .sum()
    }

    /// Per-replica wall-clock handler time, in replica order. The
    /// simulation steps replicas sequentially, so the *sum* is what this
    /// process paid, while the *maximum* is the critical path an actual
    /// parallel deployment (one process per replica) would pay for the
    /// same routed traffic.
    pub fn replica_busy_ns(&self) -> Vec<u64> {
        self.coordinators
            .iter()
            .map(|&node| {
                let Node::Coordinator(c) = self.sim.node(node) else {
                    unreachable!("coordinator index")
                };
                c.metrics.busy_ns
            })
            .collect()
    }

    /// Total simulation steps processed (diagnostics).
    pub fn steps(&self) -> u64 {
        self.sim.steps()
    }

    /// Number of composite detections produced locally at `site`.
    pub fn local_detections(&self, site: u32) -> u64 {
        match self.sim.node(NodeIdx(site)) {
            Node::Site(s) => s.local_detections,
            Node::Coordinator(_) => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decs_chronos::Timeout;
    use decs_simnet::ScenarioBuilder;

    fn scenario(sites: u32, seed: u64) -> Scenario {
        ScenarioBuilder::new(sites, seed)
            .global_granularity(decs_chronos::Granularity::per_second(10).unwrap())
            .max_offset_ns(1_000_000)
            .build()
            .unwrap()
    }

    fn seq_engine(sites: u32, seed: u64) -> Engine {
        Engine::new(
            &scenario(sites, seed),
            EngineConfig::default(),
            &["A", "B"],
            &[(
                "X",
                EventExpr::seq(EventExpr::prim("A"), EventExpr::prim("B")),
                Context::Chronicle,
            )],
        )
        .unwrap()
    }

    /// The reason `Engine::with_local` refuses `config` with, over one
    /// global `SEQ` and the given site-local definitions.
    fn refusal(config: EngineConfig, local: &[(&str, EventExpr, Context)]) -> String {
        let ab = EventExpr::seq(EventExpr::prim("A"), EventExpr::prim("B"));
        let global = [("X", ab, Context::Chronicle)];
        match Engine::with_local(&scenario(2, 1), config, &["A", "B"], local, &global) {
            Err(SnoopError::InvalidConfig(why)) => why,
            Err(e) => panic!("expected a configuration error, got: {e}"),
            Ok(_) => panic!("expected a configuration error, got an engine"),
        }
    }

    fn partitioned(replicas: usize) -> EngineConfig {
        EngineConfig {
            coordinator_replicas: replicas,
            ..EngineConfig::default()
        }
    }

    #[test]
    fn partitioned_plane_refuses_site_durability() {
        let config = EngineConfig {
            site_durability: true,
            ..partitioned(2)
        };
        let why = refusal(config, &[]);
        assert!(why.contains("site_durability"), "{why}");
        assert!(SnoopError::InvalidConfig(why)
            .to_string()
            .starts_with("invalid engine configuration: "));
    }

    /// A fresh, empty scratch directory for one test's logs.
    fn scratch_dir(label: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("decs-engine-test-{}-{label}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// With one coordinator, `Engine::new` refuses no value of any field:
    /// the smallest and the largest timeouts (a cap below the base, too),
    /// every mix of coordinator and site durability, no trace, and each
    /// switch both ways. Every engine then runs a two-site workload and
    /// receives all of it.
    #[test]
    fn one_coordinator_accepts_boundary_values_of_every_field() {
        let dir = scratch_dir("boundaries");
        let wal_dir = Some(dir.to_string_lossy().into_owned());
        let base = EngineConfig {
            coordinator_replicas: 1,
            trace_capacity: 0,
            ..EngineConfig::default()
        };
        let mut configs = vec![
            EngineConfig {
                retransmit_timeout: Timeout::MIN,
                stall_timeout: Timeout::MIN,
                ..base.clone()
            },
            EngineConfig {
                retransmit_timeout: Timeout::new(Nanos(u64::MAX)).expect("positive"),
                retransmit_cap: Nanos(u64::MAX),
                stall_timeout: Timeout::new(Nanos(u64::MAX)).expect("positive"),
                ..base.clone()
            },
            EngineConfig {
                retransmit_cap: Nanos::ZERO,
                retransmit_jitter_seed: Some(u64::MAX),
                ..base.clone()
            },
        ];
        for (durability, site_durability) in [(true, true), (true, false), (false, true)] {
            configs.push(EngineConfig {
                durability,
                site_durability,
                wal_dir: wal_dir.clone(),
                ..base.clone()
            });
        }
        for flag in [false, true] {
            configs.push(EngineConfig {
                auto_evict: flag,
                plan_sharing: flag,
                ..base.clone()
            });
        }
        for (i, config) in configs.into_iter().enumerate() {
            let _ = std::fs::remove_dir_all(&dir);
            let ab = EventExpr::seq(EventExpr::prim("A"), EventExpr::prim("B"));
            let defs = [("X", ab, Context::Chronicle)];
            let mut e = match Engine::new(&scenario(2, 1), config.clone(), &["A", "B"], &defs) {
                Ok(e) => e,
                Err(err) => panic!("config {i} refused ({err}): {config:?}"),
            };
            e.inject(Nanos::from_secs(1), 0, "A", vec![]).unwrap();
            e.inject(Nanos::from_secs(2), 1, "B", vec![]).unwrap();
            e.run_for(Nanos::from_secs(3));
            assert_eq!(e.metrics().events_received, 2, "config {i}: {config:?}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_wal_dir_that_is_a_file_is_an_io_error() {
        let file = scratch_dir("wal-dir-is-a-file");
        std::fs::write(&file, b"not a directory").unwrap();
        let wal_dir = Some(file.to_string_lossy().into_owned());
        for (durability, site_durability) in [(true, false), (false, true)] {
            let config = EngineConfig {
                durability,
                site_durability,
                wal_dir: wal_dir.clone(),
                ..EngineConfig::default()
            };
            let ab = EventExpr::seq(EventExpr::prim("A"), EventExpr::prim("B"));
            let defs = [("X", ab, Context::Chronicle)];
            match Engine::new(&scenario(2, 1), config, &["A", "B"], &defs) {
                Err(SnoopError::Io(what)) => assert!(what.contains("init failed"), "{what}"),
                Err(e) => panic!("expected an I/O error, got: {e}"),
                Ok(_) => panic!("expected an I/O error, got an engine"),
            }
        }
        let _ = std::fs::remove_file(&file);
    }

    #[test]
    fn recovery_calls_the_engine_cannot_serve_are_unsupported() {
        let mut e = seq_engine(2, 1);
        let ab = EventExpr::seq(EventExpr::prim("A"), EventExpr::prim("B"));
        let defs = [("X", ab, Context::Chronicle)];
        let mut plane = Engine::new(&scenario(2, 1), partitioned(2), &["A", "B"], &defs).unwrap();
        for err in [
            e.crash_and_recover_coordinator().unwrap_err(),
            e.crash_and_recover_replica(0).unwrap_err(),
            plane.crash_and_recover_replica(0).unwrap_err(),
        ] {
            assert!(matches!(err, SnoopError::Unsupported(_)), "{err}");
        }
    }

    #[test]
    fn partitioned_plane_refuses_site_local_definitions() {
        let local = [("L", EventExpr::prim("A"), Context::Unrestricted)];
        let why = refusal(partitioned(2), &local);
        assert!(why.contains("site-local definitions"), "{why}");
    }

    /// A replica's relay retransmission round runs only while a relay is
    /// unacked: over the first 10 ms of a 2-site, 2-replica plane with a
    /// 10 µs retransmission timeout nothing is relayed, where a round that
    /// always re-armed would fire 1,000 times per replica. The first relay
    /// arms it again, and it resends until the peer acks.
    #[test]
    fn an_idle_replica_stops_its_relay_round() {
        // `T` cascades over `S`, which a 2-replica plane places on the
        // other replica.
        let defs = [
            (
                "S",
                EventExpr::seq(EventExpr::prim("A"), EventExpr::prim("B")),
                Context::Chronicle,
            ),
            (
                "T",
                EventExpr::seq(EventExpr::prim("S"), EventExpr::prim("A")),
                Context::Chronicle,
            ),
        ];
        let config = EngineConfig {
            retransmit_timeout: Timeout::new(Nanos::from_micros(10)).expect("positive"),
            ..partitioned(2)
        };
        let mut e = Engine::new(&scenario(2, 3), config, &["A", "B"], &defs).unwrap();
        e.run_for(Nanos::from_millis(10));
        let steps = e.steps();
        assert!(steps < 400, "{steps} steps over 10 ms");
        assert_eq!(e.metrics().relays_sent, 0);
        e.inject(Nanos::from_millis(150), 0, "A", vec![]).unwrap();
        e.inject(Nanos::from_millis(550), 1, "B", vec![]).unwrap();
        e.inject(Nanos::from_millis(950), 0, "A", vec![]).unwrap();
        let det = e.run_for(Nanos::from_secs(2));
        assert_eq!(det.len(), 2, "{det:?}");
        let m = e.metrics();
        assert!(m.relays_sent > 0, "the cascade crosses replicas");
        assert!(
            m.relay_retransmits > 0,
            "the first relay re-armed the round"
        );
    }

    #[test]
    fn partitioned_plane_refuses_more_than_13_replicas() {
        let why = refusal(partitioned(14), &[]);
        assert!(why.contains("limited to 13"), "{why}");
    }

    #[test]
    fn cross_site_sequence_detects_when_clearly_ordered() {
        let mut e = seq_engine(2, 42);
        // A on site 0 at 1 s, B on site 1 at 2 s: one full global tick
        // (0.1 s) is far exceeded — clearly ordered.
        e.inject(Nanos::from_secs(1), 0, "A", vec![]).unwrap();
        e.inject(Nanos::from_secs(2), 1, "B", vec![]).unwrap();
        let det = e.run_for(Nanos::from_secs(4));
        assert_eq!(det.len(), 1, "metrics: {:?}", e.metrics());
        assert_eq!(&*det[0].name, "X");
        // The detection's timestamp members come from both sites… B's
        // stamp dominates A's (gap ≫ 1), so Max keeps only B's member.
        assert_eq!(det[0].occ.time.len(), 1);
        assert_eq!(det[0].occ.time.members()[0].site().get(), 1);
    }

    #[test]
    fn concurrent_cross_site_pair_is_not_a_sequence() {
        let mut e = seq_engine(2, 42);
        // Both events within one global tick (0.1 s): concurrent.
        e.inject(Nanos::from_secs(1), 0, "A", vec![]).unwrap();
        e.inject(Nanos(1_000_000_000 + 30_000_000), 1, "B", vec![])
            .unwrap();
        let det = e.run_for(Nanos::from_secs(3));
        assert!(det.is_empty(), "concurrent pair must not satisfy SEQ");
        // The notifications were received and released, just not paired.
        let m = e.metrics();
        assert_eq!(m.events_received, 2);
        assert_eq!(m.events_released, 2);
    }

    // NOTE: the old `detection_is_independent_of_link_jitter` unit test
    // (two hand-picked link configs) now lives in the workspace-level
    // `tests/prop_distributed.rs` as a property over randomized links,
    // covering batched mode too.

    #[test]
    fn run_for_is_relative_to_current_time() {
        // run_until(2 s) + run_for(2 s) must cover the same simulated span
        // as a fresh run_until(4 s) — `run_for` used to silently alias
        // `run_until`, truncating the second leg.
        let mut split = seq_engine(2, 42);
        split.inject(Nanos::from_secs(1), 0, "A", vec![]).unwrap();
        split.inject(Nanos::from_secs(3), 1, "B", vec![]).unwrap();
        let mut det = split.run_until(Nanos::from_secs(2));
        det.extend(split.run_for(Nanos::from_secs(2)));

        let mut whole = seq_engine(2, 42);
        whole.inject(Nanos::from_secs(1), 0, "A", vec![]).unwrap();
        whole.inject(Nanos::from_secs(3), 1, "B", vec![]).unwrap();
        let expect = whole.run_until(Nanos::from_secs(4));

        assert!(!expect.is_empty());
        let key = |d: &Detection| (d.name.clone(), d.occ.time.clone());
        assert_eq!(
            det.iter().map(key).collect::<Vec<_>>(),
            expect.iter().map(key).collect::<Vec<_>>()
        );
    }

    #[test]
    fn mid_tick_flushes_match_edge_only_flushes() {
        let workload: Vec<(u64, u32, &str)> = vec![
            (1_000, 0, "A"),
            (1_250, 1, "B"),
            (2_000, 1, "A"),
            (3_000, 0, "B"),
            (3_500, 0, "A"),
            (5_000, 1, "B"),
        ];
        let run = |batch_interval: Nanos| {
            let mut e = Engine::new(
                &scenario(2, 42),
                EngineConfig {
                    batch_interval,
                    ..EngineConfig::default()
                },
                &["A", "B"],
                &[(
                    "X",
                    EventExpr::seq(EventExpr::prim("A"), EventExpr::prim("B")),
                    Context::Chronicle,
                )],
            )
            .unwrap();
            for &(ms, site, ev) in &workload {
                e.inject(Nanos::from_millis(ms), site, ev, vec![]).unwrap();
            }
            let det = e.run_for(Nanos::from_secs(10));
            (
                det.into_iter()
                    .map(|d| (d.name, d.occ.time))
                    .collect::<Vec<_>>(),
                e.metrics(),
            )
        };
        let (edge, m_edge) = run(Nanos::ZERO);
        // 30 ms flushes: two more per 100 ms tick, 30 and 60 ms after its
        // edge (the one due at 90 ms is left to the next edge).
        let (mid, m_mid) = run(Nanos::from_millis(30));
        assert_eq!(edge, mid, "mid-tick flushes must not change detections");
        assert!(!edge.is_empty());
        // Every message is a batch; edge-only sites send one per tick, the
        // Start beacon and each edge before the 10 s horizon.
        assert_eq!(m_edge.batches_received, m_edge.messages_processed);
        assert_eq!(m_mid.batches_received, m_mid.messages_processed);
        assert_eq!(m_edge.messages_processed, 2 * 100);
        assert_eq!(m_mid.messages_processed, 3 * m_edge.messages_processed);
        assert_eq!(m_mid.shard_count, 1);
    }

    #[test]
    fn plan_sharing_matches_unshared_oracle() {
        // Two global definitions over the same Seq(A, B) body: the shared
        // plan compiles the body once; detections must be bit-for-bit
        // identical to independent compilation.
        let run = |plan_sharing: bool| {
            let body = EventExpr::seq(EventExpr::prim("A"), EventExpr::prim("B"));
            let mut e = Engine::new(
                &scenario(2, 42),
                EngineConfig {
                    plan_sharing,
                    ..EngineConfig::default()
                },
                &["A", "B", "C"],
                &[
                    ("X", body.clone(), Context::Chronicle),
                    (
                        "Y",
                        EventExpr::and(body.clone(), EventExpr::prim("C")),
                        Context::Chronicle,
                    ),
                ],
            )
            .unwrap();
            for &(ms, site, ev) in &[
                (1_000u64, 0u32, "A"),
                (1_500, 1, "C"),
                (2_000, 1, "B"),
                (3_000, 0, "A"),
                (4_000, 0, "B"),
                (5_000, 1, "C"),
            ] {
                e.inject(Nanos::from_millis(ms), site, ev, vec![]).unwrap();
            }
            let det = e.run_for(Nanos::from_secs(10));
            (
                det.into_iter()
                    .map(|d| (d.name, d.occ.time))
                    .collect::<Vec<_>>(),
                e.metrics(),
            )
        };
        let (shared, m_shared) = run(true);
        let (unshared, m_unshared) = run(false);
        assert!(!shared.is_empty());
        assert_eq!(shared, unshared, "sharing must not change detections");
        // The shared plan actually shared the Seq body; the oracle did not.
        assert_eq!(m_shared.shared_nodes, 1);
        assert!(m_shared.sharing_ratio > 0.0);
        assert!(m_shared.plan_nodes < m_unshared.plan_nodes);
        assert_eq!(m_unshared.shared_nodes, 0);
        assert_eq!(m_unshared.sharing_ratio, 0.0);
    }

    #[test]
    fn metrics_accumulate() {
        let mut e = seq_engine(3, 7);
        e.inject(Nanos::from_secs(1), 0, "A", vec![]).unwrap();
        e.inject(Nanos::from_secs(2), 1, "B", vec![]).unwrap();
        e.run_for(Nanos::from_secs(3));
        let m = e.metrics();
        assert_eq!(m.events_received, 2);
        // 3 sites, one batch per 100 ms tick over 3 s: the Start beacon
        // and each edge before the horizon.
        assert_eq!(m.batches_received, 3 * 30);
        assert!(m.mean_stability_latency_ns() > 0);
    }

    #[test]
    fn crashed_site_rejoins_and_detection_resumes() {
        let mut e = seq_engine(2, 42);
        // A completed pair before the crash…
        e.inject(Nanos::from_secs(1), 0, "A", vec![]).unwrap();
        e.inject(Nanos(1_200_000_000), 1, "B", vec![]).unwrap();
        e.crash_site(Nanos::from_secs(2), 0);
        e.restart_site(Nanos::from_secs(3), 0);
        // …and one after the rejoin, spanning both sites again.
        e.inject(Nanos::from_secs(4), 0, "A", vec![]).unwrap();
        e.inject(Nanos::from_secs(5), 1, "B", vec![]).unwrap();
        let det = e.run_for(Nanos::from_secs(8));
        assert_eq!(det.len(), 2, "metrics: {:?}", e.metrics());
        assert!(det.iter().all(|d| &*d.name == "X"));
        let m = e.metrics();
        assert_eq!(m.site_restarts, 1);
        assert!(m.rejoins >= 1, "coordinator never saw the Hello: {m:?}");
        assert_eq!(m.epoch_max, 1);
        // (rejoin_latency_ns may be 0 on a healthy link: the Hello is
        // consumed in order the instant it is first seen.)
        assert_eq!(e.site_epoch(0), 1);
        assert_eq!(e.coordinator_site_epoch(0), 1);
    }

    #[test]
    fn unknown_event_rejected() {
        let mut e = seq_engine(2, 1);
        assert!(e.inject(Nanos::ZERO, 0, "NOPE", vec![]).is_err());
    }

    #[test]
    fn partitioned_plane_matches_single_coordinator() {
        // Two definitions, the second consuming the first across a
        // replica boundary; detections must be bit-identical to N = 1.
        let run = |replicas: usize| {
            let mut e = Engine::new(
                &scenario(3, 42),
                EngineConfig {
                    coordinator_replicas: replicas,
                    ..EngineConfig::default()
                },
                &["A", "B", "C"],
                &[
                    (
                        "X",
                        EventExpr::seq(EventExpr::prim("A"), EventExpr::prim("B")),
                        Context::Chronicle,
                    ),
                    (
                        "Y",
                        EventExpr::and(EventExpr::prim("X"), EventExpr::prim("C")),
                        Context::Chronicle,
                    ),
                ],
            )
            .unwrap();
            for &(ms, site, ev) in &[
                (1_000u64, 0u32, "A"),
                (1_500, 1, "C"),
                (2_000, 1, "B"),
                (3_000, 2, "A"),
                (4_000, 0, "B"),
                (5_000, 2, "C"),
                (5_500, 1, "A"),
                (6_000, 0, "B"),
            ] {
                e.inject(Nanos::from_millis(ms), site, ev, vec![]).unwrap();
            }
            let det = e.run_for(Nanos::from_secs(12));
            (
                det.into_iter()
                    .map(|d| (d.name, d.occ.time))
                    .collect::<Vec<_>>(),
                e.metrics(),
            )
        };
        let (single, _) = run(1);
        let (dual, m2) = run(2);
        let (quad, m4) = run(4);
        assert!(!single.is_empty());
        assert_eq!(single, dual, "2 replicas must match 1");
        assert_eq!(single, quad, "4 replicas must match 1");
        assert_eq!(m2.replica_count, 2);
        assert_eq!(m4.replica_count, 4);
        assert!(m2.routed_received > 0, "sites must route announcements");
    }

    #[test]
    fn partitioned_sharing_ratio_covers_every_replica() {
        // Three copies of one definition: one owned by replica 0, two by
        // replica 1, which share both of their nodes. Replica 0 alone
        // shares nothing (ratio 0); the plane builds 4 nodes for 6
        // positions.
        let replicas = 4;
        let (mut on0, mut on1) = (Vec::new(), Vec::new());
        for i in 0.. {
            let name = format!("D{i}");
            match rendezvous_owner(&name, replicas) {
                0 if on0.is_empty() => on0.push(name),
                1 if on1.len() < 2 => on1.push(name),
                _ => {}
            }
            if on0.len() == 1 && on1.len() == 2 {
                break;
            }
        }
        let names: Vec<String> = on0.into_iter().chain(on1).collect();
        let body = EventExpr::seq(
            EventExpr::seq(EventExpr::prim("A"), EventExpr::prim("B")),
            EventExpr::prim("C"),
        );
        let defs: Vec<(&str, EventExpr, Context)> = names
            .iter()
            .map(|n| (n.as_str(), body.clone(), Context::Chronicle))
            .collect();
        let e = Engine::new(
            &scenario(3, 42),
            EngineConfig {
                coordinator_replicas: replicas,
                ..EngineConfig::default()
            },
            &["A", "B", "C"],
            &defs,
        )
        .unwrap();
        let m = e.metrics();
        assert_eq!(m.plan_nodes, 4);
        assert_eq!(m.shared_nodes, 2);
        assert!((m.sharing_ratio - (1.0 - 4.0 / 6.0)).abs() < 1e-12, "{m:?}");
    }
}
