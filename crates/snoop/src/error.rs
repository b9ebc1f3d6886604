//! Error type for event-expression compilation and detection.

use std::fmt;

/// Errors produced while building or running event detection graphs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnoopError {
    /// An event name was used but never registered in the catalog.
    UnknownEvent(String),
    /// An event name was registered twice.
    DuplicateEvent(String),
    /// `ANY(m; …)` requires `1 ≤ m ≤ n`.
    InvalidAny {
        /// The requested m.
        m: usize,
        /// The number of alternatives supplied.
        n: usize,
    },
    /// Periodic/Plus operators need a strictly positive period.
    ZeroPeriod,
    /// A timer id did not correspond to a pending request.
    UnknownTimer(u64),
    /// The expression references itself (composite event cycles are not
    /// allowed; the detection graph must be a DAG).
    CyclicDefinition(String),
    /// A saved operator/detector state does not match the shape of the
    /// detector it is being restored into (different definitions, sharing
    /// mode, or a corrupted snapshot).
    SnapshotMismatch(String),
    /// An engine configuration combines options that cannot work together.
    InvalidConfig(String),
}

impl fmt::Display for SnoopError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnoopError::UnknownEvent(n) => write!(f, "unknown event type: {n}"),
            SnoopError::DuplicateEvent(n) => write!(f, "event type registered twice: {n}"),
            SnoopError::InvalidAny { m, n } => {
                write!(f, "ANY({m}; …) over {n} alternatives requires 1 ≤ m ≤ n")
            }
            SnoopError::ZeroPeriod => write!(f, "temporal operators require a positive period"),
            SnoopError::UnknownTimer(id) => write!(f, "no pending timer with id {id}"),
            SnoopError::CyclicDefinition(n) => {
                write!(f, "composite event {n} is defined in terms of itself")
            }
            SnoopError::SnapshotMismatch(what) => {
                write!(f, "snapshot does not match this detector: {what}")
            }
            SnoopError::InvalidConfig(what) => write!(f, "invalid engine configuration: {what}"),
        }
    }
}

impl std::error::Error for SnoopError {}

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, SnoopError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        assert!(SnoopError::UnknownEvent("X".into())
            .to_string()
            .contains('X'));
        assert!(SnoopError::InvalidAny { m: 3, n: 2 }
            .to_string()
            .contains("ANY(3"));
    }
}
