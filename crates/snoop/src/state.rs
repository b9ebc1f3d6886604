//! Serializable operator-state snapshots.
//!
//! Detection is deterministic over the released-event order, so crash
//! recovery is "restore a snapshot, replay the suffix". The snapshot of a
//! detector is the buffered state of every operator node plus the pending
//! timer bookkeeping — everything else (graph topology, subscriptions,
//! routes) is rebuilt from the definitions, which the recovering process
//! already has.
//!
//! Every operator serializes into the same lowest-common-denominator shape,
//! [`NodeState`]: a vector of counters, a vector of occurrence groups, and
//! a vector of timestamp groups. Each operator documents its own encoding
//! at its `save_state`/`restore_state` impl; a node given a state whose
//! shape it does not recognize fails with
//! [`SnoopError::SnapshotMismatch`](crate::SnoopError) rather than
//! guessing.
//!
//! A [`crate::PlanDetector`] saves a [`PlanState`] that a freshly compiled
//! detector with the *same definitions* and the same sharing mode can
//! restore. A site restores the state its detector saved when freshly
//! compiled, to restart detection from scratch.

use crate::error::SnoopError;
use crate::event::Occurrence;

/// The buffered state of one operator node, in a shape-agnostic encoding
/// (see the module docs). An empty `NodeState` is the state of a stateless
/// node.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeState<T> {
    /// Scalar counters (timer tags, flags, …).
    pub nums: Vec<u64>,
    /// Groups of buffered occurrences (operand buffers, windows, …).
    pub occs: Vec<Vec<Occurrence<T>>>,
    /// Groups of bare timestamps (guard times, accumulated fire times).
    pub times: Vec<Vec<T>>,
}

impl<T> Default for NodeState<T> {
    fn default() -> Self {
        NodeState {
            nums: Vec::new(),
            occs: Vec::new(),
            times: Vec::new(),
        }
    }
}

impl<T> NodeState<T> {
    /// An empty state (what stateless nodes save).
    pub fn empty() -> Self {
        NodeState::default()
    }

    /// Whether every component is empty.
    pub fn is_empty(&self) -> bool {
        self.nums.is_empty() && self.occs.is_empty() && self.times.is_empty()
    }
}

/// Shape-mismatch error helper used by `restore_state` impls.
pub(crate) fn shape_err(node: &str) -> SnoopError {
    SnoopError::SnapshotMismatch(format!("{node}: unrecognized state shape"))
}

/// Largest occurrence uid buffered anywhere in `nodes` (0 when none).
/// Restore impls bump the process-wide uid counter past this so fresh
/// occurrences minted after recovery cannot collide with restored ones
/// (the self-pairing guard compares uids).
pub(crate) fn max_buffered_uid<T>(nodes: &[NodeState<T>]) -> u64 {
    nodes
        .iter()
        .flat_map(|n| n.occs.iter())
        .flat_map(|group| group.iter())
        .map(|o| o.uid)
        .max()
        .unwrap_or(0)
}

/// Pending-timer bookkeeping of one definition inside a shared plan.
#[derive(Debug, Clone, PartialEq)]
pub struct DefTimers {
    /// Pending timers as `(timer id, position index, node-internal tag)`,
    /// sorted by timer id.
    pub timers: Vec<(u64, u32, u64)>,
    /// The next timer id this definition will assign.
    pub next_timer: u64,
}

/// The state of a plan detector: per-plan-node operator states (in
/// node-creation order) and per-definition timer tables.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanState<T> {
    /// One entry per plan node, in creation order.
    pub nodes: Vec<NodeState<T>>,
    /// Per-plan-node executed-delivery counters, in creation order.
    /// Restored so the hash-consing gate (a later `define` must not reuse
    /// a node that has executed) survives recovery.
    pub execs: Vec<u64>,
    /// One entry per definition, in definition order.
    pub defs: Vec<DefTimers>,
}
