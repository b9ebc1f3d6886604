//! Compiling the coordinator's detector from definition lists.
//!
//! Shared by engine construction and crash recovery, so a recovered
//! coordinator runs a bit-identical plan. Lives with the coordinator (not
//! the engine) because every coordinator replica must be able to build its
//! own plan from the same inputs.

use crate::config::EngineConfig;
use decs_core::CompositeTimestamp;
use decs_snoop::{Context, EventExpr, EventId, PlanDetector, Result};
use std::collections::HashMap;
use std::sync::Arc;

/// A freshly compiled coordinator detector plus the name→id table and
/// the full coordinator-visible event-name list it was compiled with.
pub(crate) type CompiledDetector = (
    PlanDetector<CompositeTimestamp>,
    HashMap<String, EventId>,
    Vec<Arc<str>>,
);

/// An empty detector in the configured sharing mode: the shared plan, or
/// with `plan_sharing: false` the unshared oracle.
pub(crate) fn new_detector(config: &EngineConfig) -> PlanDetector<CompositeTimestamp> {
    if config.plan_sharing {
        PlanDetector::new()
    } else {
        PlanDetector::unshared()
    }
}

/// Compile the coordinator's detector from the (owned) definition lists.
pub(crate) fn build_detector(
    config: &EngineConfig,
    primitives: &[String],
    local_definitions: &[(String, EventExpr, Context)],
    global_definitions: &[(String, EventExpr, Context)],
) -> Result<CompiledDetector> {
    let mut detector = new_detector(config);
    let mut name_ids = HashMap::new();
    for p in primitives {
        let id = detector.register(p)?;
        name_ids.insert(p.clone(), id);
    }
    // Local composite events are plain event types at the coordinator
    // (detected at the sites, not re-detected here).
    for (name, _, _) in local_definitions {
        let id = detector.register(name)?;
        name_ids.insert(name.clone(), id);
    }
    for (name, expr, ctx) in global_definitions {
        let id = detector.define(name, expr, *ctx)?;
        name_ids.insert(name.clone(), id);
    }
    // Snapshot id → name for reporting.
    let names = catalog_names(&detector);
    Ok((detector, name_ids, names))
}

/// The detector's full catalog as an id-indexed name list, each name
/// allocated once and shared by every detection that reports it.
pub(crate) fn catalog_names(detector: &PlanDetector<CompositeTimestamp>) -> Vec<Arc<str>> {
    let cat = detector.catalog();
    (0..cat.len())
        .map(|i| Arc::from(cat.name(EventId(i as u32))))
        .collect()
}

/// One replica's compiled detector plus its catalog translation tables.
pub(crate) struct ReplicaPlan {
    /// The replica's detector, with the cross-definition cascade severed
    /// (the partition plane re-creates it explicitly).
    pub(crate) detector: PlanDetector<CompositeTimestamp>,
    /// Replica-local event id → full-catalog id.
    pub(crate) to_global: Vec<u32>,
    /// Full-catalog id → replica-local id.
    pub(crate) to_local: HashMap<u32, u32>,
}

/// Compile one replica's detector: register the replica's input types
/// (ascending full-catalog id — composites its definitions reference but
/// does not own arrive as first-class primitives), then define its owned
/// global definitions in global definition order. The replica plan is
/// deterministic: a recovered replica rebuilds the identical plan.
pub(crate) fn build_replica_detector(
    config: &EngineConfig,
    full_names: &[Arc<str>],
    inputs: &std::collections::BTreeSet<u32>,
    owned_defs: &[(String, EventExpr, Context)],
) -> Result<ReplicaPlan> {
    let mut detector = new_detector(config);
    let mut to_global = Vec::new();
    let mut to_local = HashMap::new();
    // The plan interns synthetic per-position event types into the catalog
    // during `define`, so returned ids are not contiguous. `to_global` is
    // therefore gap-tolerant: synthetic slots hold a sentinel that is never
    // read (detections and routed inputs only ever carry named ids).
    let set = |to_global: &mut Vec<u32>, local: EventId, full: u32| {
        if to_global.len() <= local.0 as usize {
            to_global.resize(local.0 as usize + 1, u32::MAX);
        }
        to_global[local.0 as usize] = full;
    };
    for &full in inputs {
        let local = detector.register(&full_names[full as usize])?;
        to_local.insert(full, local.0);
        set(&mut to_global, local, full);
    }
    for (name, expr, ctx) in owned_defs {
        let local = detector.define(name, expr, *ctx)?;
        // A defined composite also needs a full-catalog id: its name is in
        // the full catalog by construction.
        let full = full_names
            .iter()
            .position(|n| **n == **name)
            .expect("owned definition in full catalog") as u32;
        to_local.insert(full, local.0);
        set(&mut to_global, local, full);
    }
    detector.set_cascade(false);
    Ok(ReplicaPlan {
        detector,
        to_global,
        to_local,
    })
}
