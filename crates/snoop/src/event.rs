//! Event types, parameters and occurrences.
//!
//! An *event type* is a name registered in a [`Catalog`] and referred to by
//! a compact [`EventId`]. An *occurrence* pairs an event type with a
//! timestamp from the time domain and a parameter list. Composite
//! occurrences carry the concatenated parameter tuples of their
//! constituents — this is how Sentinel propagates event parameters to rule
//! conditions (and what the cumulative contexts/`A*` accumulate).

use crate::error::{Result, SnoopError};
use crate::time::EventTime;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Process-wide occurrence id source (identity, not semantics).
static NEXT_UID: AtomicU64 = AtomicU64::new(1);

pub(crate) fn fresh_uid() -> u64 {
    NEXT_UID.fetch_add(1, Ordering::Relaxed)
}

/// Keep the occurrences whose type `routed` accepts, each under a fresh
/// uid, in order — what materializing the routed rows of a columnar batch
/// yields, for a caller that already owns the occurrences.
pub(crate) fn remint_routed<T>(occs: &mut Vec<Occurrence<T>>, routed: impl Fn(EventId) -> bool) {
    occs.retain_mut(|o| {
        let keep = routed(o.ty);
        if keep {
            o.uid = fresh_uid();
        }
        keep
    });
}

/// Raise the process-wide occurrence-uid counter to at least `floor`.
/// Called by snapshot restore so uids minted after recovery cannot collide
/// with uids buried in restored operator buffers (uid equality backs the
/// self-pairing guard of `E ∧ E`). Never lowers the counter.
pub fn ensure_uid_floor(floor: u64) {
    NEXT_UID.fetch_max(floor, Ordering::Relaxed);
}

/// Compact identifier of an event type within one catalog.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventId(pub u32);

impl fmt::Display for EventId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// A parameter value attached to an event occurrence.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Integer parameter.
    Int(i64),
    /// Floating-point parameter.
    Float(f64),
    /// String parameter.
    Str(String),
    /// Boolean parameter.
    Bool(bool),
}

impl Value {
    /// The integer payload, if this is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The float payload, accepting `Int` by widening.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(x) => Some(*x),
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// The string payload, if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_owned())
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

/// The parameters contributed by one constituent occurrence: the source
/// event type and its values. Shared via `Arc` so that fan-out through the
/// graph does not copy payloads.
#[derive(Debug, Clone, PartialEq)]
pub struct ParamTuple {
    /// The event type that contributed these values.
    pub source: EventId,
    /// The values.
    pub values: Arc<Vec<Value>>,
}

impl ParamTuple {
    /// Build a tuple.
    pub fn new(source: EventId, values: Vec<Value>) -> Self {
        ParamTuple {
            source,
            values: Arc::new(values),
        }
    }
}

/// The accumulated parameter tuples of an occurrence (constituents in
/// detection order), in one shared slice. Cloning an occurrence during
/// fan-out (one clone per subscriber/parent edge) costs one reference-count
/// increment instead of a heap copy of the tuple list. Operators that build
/// a *new* list (combination, accumulation) count the tuples first and fill
/// the slice in one allocation — a composite emission's only one, since each
/// tuple's values are themselves shared.
pub type ParamList = Arc<[ParamTuple]>;

/// An event occurrence: type, timestamp, parameters, and a process-unique
/// identity.
///
/// The `uid` distinguishes *occurrences* (not values): when one operand
/// expression feeds both slots of a binary operator (e.g. `E ∧ E`), the
/// graph delivers the same occurrence to both slots and the operator must
/// not pair it with itself. Identity is excluded from `PartialEq` — two
/// occurrences are equal when their observable content is.
#[derive(Debug, Clone)]
pub struct Occurrence<T> {
    /// The event type this occurrence belongs to.
    pub ty: EventId,
    /// Occurrence time (centralized tick or distributed composite stamp).
    pub time: T,
    /// Parameter tuples of the constituents.
    pub params: ParamList,
    /// Process-unique occurrence identity (excluded from equality).
    pub uid: u64,
}

impl<T: PartialEq> PartialEq for Occurrence<T> {
    fn eq(&self, other: &Self) -> bool {
        self.ty == other.ty && self.time == other.time && self.params == other.params
    }
}

impl<T: EventTime> Occurrence<T> {
    /// A primitive occurrence with a single parameter tuple.
    pub fn primitive(ty: EventId, time: T, values: Vec<Value>) -> Self {
        Occurrence {
            ty,
            time,
            params: Arc::from([ParamTuple::new(ty, values)]),
            uid: fresh_uid(),
        }
    }

    /// A primitive occurrence with no parameters.
    pub fn bare(ty: EventId, time: T) -> Self {
        Occurrence {
            ty,
            time,
            params: Arc::from([ParamTuple::new(ty, Vec::new())]),
            uid: fresh_uid(),
        }
    }

    /// Combine two constituent occurrences into a composite one:
    /// `time = Max(t1, t2)`, parameters concatenated. The concatenation
    /// is an exact-length iterator, so the list costs one allocation.
    pub fn combine(ty: EventId, a: &Occurrence<T>, b: &Occurrence<T>) -> Self {
        Occurrence {
            ty,
            time: a.time.max(&b.time),
            params: a.params.iter().chain(b.params.iter()).cloned().collect(),
            uid: fresh_uid(),
        }
    }

    /// Combine many constituents (cumulative contexts, `A*`, `ANY`):
    /// `time = Max` over all, parameters concatenated in the given order.
    /// The tuples are counted first and then filled from an iterator of
    /// that exact length, so the list costs one allocation.
    ///
    /// # Panics
    /// Panics if `parts` is empty.
    pub fn combine_all<'p, I>(ty: EventId, parts: I) -> Self
    where
        I: IntoIterator<Item = &'p Occurrence<T>>,
        I::IntoIter: Clone,
        T: 'p,
    {
        let parts = parts.into_iter();
        let mut times = parts.clone().map(|p| &p.time);
        let first = times.next().expect("combine_all needs at least one part");
        let time = times.fold(first.clone(), |t, u| t.max(u));
        let total = parts.clone().map(|p| p.params.len()).sum();
        let mut tuples = parts.flat_map(|p| p.params.iter());
        Occurrence {
            ty,
            time,
            params: (0..total)
                .map(|_| tuples.next().expect("counted").clone())
                .collect(),
            uid: fresh_uid(),
        }
    }

    /// An occurrence with an explicit parameter list (used by temporal
    /// operator nodes that rebuild occurrences at timer fires).
    pub fn with_params(ty: EventId, time: T, params: ParamList) -> Self {
        Occurrence {
            ty,
            time,
            params,
            uid: fresh_uid(),
        }
    }

    /// Re-type this occurrence (used when a graph node emits under a named
    /// composite event type).
    pub fn retyped(mut self, ty: EventId) -> Self {
        self.ty = ty;
        self
    }
}

/// The registry of event-type names.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    names: Vec<String>,
    index: HashMap<String, EventId>,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Register a new event type. Errors if the name is already taken.
    pub fn register(&mut self, name: &str) -> Result<EventId> {
        if self.index.contains_key(name) {
            return Err(SnoopError::DuplicateEvent(name.to_owned()));
        }
        let id = EventId(self.names.len() as u32);
        self.names.push(name.to_owned());
        self.index.insert(name.to_owned(), id);
        Ok(id)
    }

    /// Register, or return the existing id for, `name`.
    pub fn intern(&mut self, name: &str) -> EventId {
        if let Some(&id) = self.index.get(name) {
            id
        } else {
            self.register(name).expect("checked for presence")
        }
    }

    /// Look up an id by name.
    pub fn lookup(&self, name: &str) -> Result<EventId> {
        self.index
            .get(name)
            .copied()
            .ok_or_else(|| SnoopError::UnknownEvent(name.to_owned()))
    }

    /// The name of an id (panics on a foreign id).
    pub fn name(&self, id: EventId) -> &str {
        &self.names[id.0 as usize]
    }

    /// Number of registered types.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::CentralTime;

    #[test]
    fn catalog_register_lookup() {
        let mut c = Catalog::new();
        let a = c.register("A").unwrap();
        let b = c.register("B").unwrap();
        assert_ne!(a, b);
        assert_eq!(c.lookup("A").unwrap(), a);
        assert_eq!(c.name(b), "B");
        assert_eq!(c.len(), 2);
        assert!(!c.is_empty());
        assert_eq!(
            c.register("A").unwrap_err(),
            SnoopError::DuplicateEvent("A".into())
        );
        assert_eq!(
            c.lookup("Z").unwrap_err(),
            SnoopError::UnknownEvent("Z".into())
        );
    }

    #[test]
    fn intern_is_idempotent() {
        let mut c = Catalog::new();
        let a1 = c.intern("A");
        let a2 = c.intern("A");
        assert_eq!(a1, a2);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn value_accessors() {
        assert_eq!(Value::from(3i64).as_int(), Some(3));
        assert_eq!(Value::from(3i64).as_float(), Some(3.0));
        assert_eq!(Value::from(2.5f64).as_float(), Some(2.5));
        assert_eq!(Value::from("x").as_str(), Some("x"));
        assert_eq!(Value::from(true).as_bool(), Some(true));
        assert_eq!(Value::from("x").as_int(), None);
    }

    #[test]
    fn combine_takes_max_time_and_concats_params() {
        let a = Occurrence::primitive(EventId(0), CentralTime(3), vec![1i64.into()]);
        let b = Occurrence::primitive(EventId(1), CentralTime(7), vec![2i64.into()]);
        let c = Occurrence::combine(EventId(9), &a, &b);
        assert_eq!(c.ty, EventId(9));
        assert_eq!(c.time, CentralTime(7));
        assert_eq!(c.params.len(), 2);
        assert_eq!(c.params[0].source, EventId(0));
        assert_eq!(c.params[1].source, EventId(1));
    }

    #[test]
    fn combine_all_over_three() {
        let a = Occurrence::bare(EventId(0), CentralTime(3));
        let b = Occurrence::bare(EventId(1), CentralTime(9));
        let c = Occurrence::bare(EventId(2), CentralTime(5));
        let m = Occurrence::combine_all(EventId(7), [&a, &b, &c]);
        assert_eq!(m.time, CentralTime(9));
        assert_eq!(m.params.len(), 3);
    }

    #[test]
    #[should_panic(expected = "at least one part")]
    fn combine_all_empty_panics() {
        let _ = Occurrence::<CentralTime>::combine_all(EventId(0), []);
    }

    #[test]
    fn retyped() {
        let a = Occurrence::bare(EventId(0), CentralTime(3)).retyped(EventId(4));
        assert_eq!(a.ty, EventId(4));
    }
}
