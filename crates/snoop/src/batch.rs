//! Columnar (struct-of-arrays) event batches and the parameter arena.
//!
//! The per-event ingest path pays three heap allocations and a catalog
//! hash lookup per primitive occurrence (`Occurrence::bare` wraps an
//! empty tuple in two fresh `Arc`s; `feed_bare` resolves the name every
//! time), plus a watermark-GC sweep over every operator node per feed.
//! [`EventBatch`] amortizes all of that across a whole batch:
//!
//! * **SoA layout** — event types, stamps and parameter *handles* live in
//!   parallel vectors, so batch-level prefilters (route presence) scan a
//!   dense `EventId`/tick column instead of chasing per-occurrence
//!   pointers.
//! * **Arena-backed parameters** — parameter lists are owned by a
//!   [`ParamArena`] and referenced by generation-indexed
//!   [`ParamHandle`]s. Bare (parameterless) events share one interned
//!   list per event type for the life of the arena — zero allocations
//!   per event after the first of each type. Parameterized events get a
//!   transient slot that dies when the batch is [`EventBatch::clear`]ed:
//!   the generation bumps and stale handles can never resurrect a
//!   recycled buffer (they resolve to `None`).
//! * **Reuse** — `clear` keeps every column's capacity, so a steady-state
//!   ingest loop allocates nothing.
//!
//! Occurrences are materialized lazily, one at a time, at the moment a
//! detector delivers the event ([`EventBatch::occurrence`]): an `Arc`
//! bump for the parameters, a stamp clone, and a fresh uid. Events whose
//! type routes to no definition are skipped without ever materializing.
//!
//! The stamp column stores stamps *with their summaries already built*:
//! `decs_core::CompositeTimestamp` computes its per-site version-vector
//! caches (site mask, global band, per-site run bounds) at construction,
//! so cloning a stamp into or out of the column copies the caches too.
//! Batch-level band prefilters ([`EventTime::global_upper_bound`] over the
//! dense column) and the downstream operator compares therefore never
//! re-derive anything from the member list, no matter how wide the stamp.
//!
//! The per-event path (`PlanDetector::feed`) is the differential oracle:
//! `tests/prop_ingest.rs` pins `PlanDetector::feed_batch_columnar` over
//! chunked batches bit-identical to it across every context, GC mode and
//! sharing mode.

use crate::event::{fresh_uid, EventId, Occurrence, ParamList, ParamTuple, Value};
use crate::time::EventTime;
use std::sync::Arc;

/// A generation-checked reference to a parameter list in a [`ParamArena`].
///
/// `Bare` handles point at the per-type interned empty list and stay
/// valid for the arena's lifetime. `Owned` handles point at a transient
/// slot and are invalidated by [`ParamArena::reset`] — resolving a stale
/// handle returns `None` instead of whatever now occupies the slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParamHandle {
    /// The interned empty parameter list of one event type.
    Bare(EventId),
    /// A transient slot, valid only for the generation that allocated it.
    Owned {
        /// Slot index within the arena.
        index: u32,
        /// Arena generation the slot was allocated in.
        generation: u32,
    },
}

/// Slab of parameter lists backing one [`EventBatch`] (or any other
/// ingest staging area). See the module docs for the handle protocol.
#[derive(Debug, Default)]
pub struct ParamArena {
    /// Interned empty list per event type, immortal (indexed by
    /// `EventId`).
    bare: Vec<Option<ParamList>>,
    /// Transient slots of the current generation.
    slots: Vec<ParamList>,
    generation: u32,
    /// Estimated payload bytes held by the current generation's slots.
    payload_bytes: usize,
}

impl ParamArena {
    /// An empty arena at generation 0.
    pub fn new() -> Self {
        ParamArena::default()
    }

    /// The interned empty parameter list for `ty` (allocated once per
    /// type, shared by every bare event of that type thereafter).
    pub fn intern_bare(&mut self, ty: EventId) -> ParamHandle {
        let i = ty.0 as usize;
        if i >= self.bare.len() {
            self.bare.resize(i + 1, None);
        }
        if self.bare[i].is_none() {
            self.bare[i] = Some(Arc::from([ParamTuple::new(ty, Vec::new())]));
        }
        ParamHandle::Bare(ty)
    }

    /// Allocate a transient slot holding a fresh single-tuple list.
    pub fn alloc(&mut self, ty: EventId, values: Vec<Value>) -> ParamHandle {
        self.payload_bytes += values.len() * std::mem::size_of::<Value>();
        let index = self.slots.len() as u32;
        self.slots.push(Arc::from([ParamTuple::new(ty, values)]));
        ParamHandle::Owned {
            index,
            generation: self.generation,
        }
    }

    /// Resolve a handle. Returns `None` for an `Owned` handle from a
    /// previous generation (the slot was recycled by [`Self::reset`]) —
    /// stale handles are never resurrected.
    pub fn get(&self, h: ParamHandle) -> Option<&ParamList> {
        match h {
            ParamHandle::Bare(ty) => self.bare.get(ty.0 as usize)?.as_ref(),
            ParamHandle::Owned { index, generation } => {
                if generation != self.generation {
                    return None;
                }
                self.slots.get(index as usize)
            }
        }
    }

    /// Recycle every transient slot: bump the generation (invalidating
    /// all outstanding `Owned` handles) and clear the slot vector, keeping
    /// its capacity. Interned bare lists survive.
    pub fn reset(&mut self) {
        self.generation = self.generation.wrapping_add(1);
        self.slots.clear();
        self.payload_bytes = 0;
    }

    /// Estimated bytes retained by the arena: slot/bare-table capacity
    /// plus the current generation's payloads.
    pub fn bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<ParamList>()
            + self.bare.capacity() * std::mem::size_of::<Option<ParamList>>()
            + self
                .bare
                .iter()
                .flatten()
                .map(|_| std::mem::size_of::<ParamTuple>())
                .sum::<usize>()
            + self.payload_bytes
    }
}

/// A struct-of-arrays batch of primitive events awaiting ingestion.
///
/// Columns are parallel: `types[i]`, `times[i]` and `params[i]` describe
/// event `i`. Feed it through `PlanDetector::feed_batch_columnar`; then
/// [`Self::clear`] and refill — steady state allocates nothing.
#[derive(Debug, Default)]
pub struct EventBatch<T> {
    types: Vec<EventId>,
    times: Vec<T>,
    params: Vec<ParamHandle>,
    arena: ParamArena,
}

impl<T: EventTime> EventBatch<T> {
    /// An empty batch.
    pub fn new() -> Self {
        EventBatch {
            types: Vec::new(),
            times: Vec::new(),
            params: Vec::new(),
            arena: ParamArena::new(),
        }
    }

    /// An empty batch with pre-sized columns.
    pub fn with_capacity(n: usize) -> Self {
        EventBatch {
            types: Vec::with_capacity(n),
            times: Vec::with_capacity(n),
            params: Vec::with_capacity(n),
            arena: ParamArena::new(),
        }
    }

    /// Append a parameterless event (shares the per-type interned list).
    pub fn push_bare(&mut self, ty: EventId, time: T) {
        let h = self.arena.intern_bare(ty);
        self.types.push(ty);
        self.times.push(time);
        self.params.push(h);
    }

    /// Append an event with parameter values.
    pub fn push(&mut self, ty: EventId, time: T, values: Vec<Value>) {
        let h = if values.is_empty() {
            self.arena.intern_bare(ty)
        } else {
            self.arena.alloc(ty, values)
        };
        self.types.push(ty);
        self.times.push(time);
        self.params.push(h);
    }

    /// Number of events in the batch.
    pub fn len(&self) -> usize {
        self.types.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.types.is_empty()
    }

    /// The event-type column.
    pub fn types(&self) -> &[EventId] {
        &self.types
    }

    /// The timestamp column.
    pub fn times(&self) -> &[T] {
        &self.times
    }

    /// Event `i`'s type.
    pub fn ty(&self, i: usize) -> EventId {
        self.types[i]
    }

    /// Event `i`'s timestamp.
    pub fn time(&self, i: usize) -> &T {
        &self.times[i]
    }

    /// Materialize event `i` as an occurrence: parameter `Arc` bump,
    /// stamp clone, fresh uid. Called once per *routed* event at delivery
    /// time; unrouted events are never materialized.
    pub fn occurrence(&self, i: usize) -> Occurrence<T> {
        let params = self
            .arena
            .get(self.params[i])
            .expect("batch-local handles are always current")
            .clone();
        Occurrence {
            ty: self.types[i],
            time: self.times[i].clone(),
            params,
            uid: fresh_uid(),
        }
    }

    /// Recycle the batch: drop every event, invalidate every transient
    /// parameter handle (see [`ParamArena::reset`]), keep all capacity.
    pub fn clear(&mut self) {
        self.types.clear();
        self.times.clear();
        self.params.clear();
        self.arena.reset();
    }

    /// Estimated bytes retained by the batch's columns and arena.
    pub fn arena_bytes(&self) -> usize {
        self.types.capacity() * std::mem::size_of::<EventId>()
            + self.times.capacity() * std::mem::size_of::<T>()
            + self.params.capacity() * std::mem::size_of::<ParamHandle>()
            + self.arena.bytes()
    }

    /// Materialize every event whose type passes `routed` into plain
    /// occurrences, in order (the batch feed consumes a `Vec`).
    pub(crate) fn materialize_routed(
        &self,
        routed: impl Fn(EventId) -> bool,
    ) -> Vec<Occurrence<T>> {
        (0..self.len())
            .filter(|&i| routed(self.types[i]))
            .map(|i| self.occurrence(i))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::CentralTime;

    #[test]
    fn bare_events_share_one_interned_list() {
        let mut b = EventBatch::<CentralTime>::new();
        b.push_bare(EventId(3), CentralTime(1));
        b.push_bare(EventId(3), CentralTime(2));
        let o1 = b.occurrence(0);
        let o2 = b.occurrence(1);
        assert!(Arc::ptr_eq(&o1.params, &o2.params));
        assert_ne!(o1.uid, o2.uid);
        assert_eq!(o1.params[0].source, EventId(3));
        assert!(o1.params[0].values.is_empty());
    }

    #[test]
    fn owned_params_round_trip() {
        let mut b = EventBatch::<CentralTime>::new();
        b.push(EventId(1), CentralTime(5), vec![Value::Int(42)]);
        let o = b.occurrence(0);
        assert_eq!(o.params[0].values[0].as_int(), Some(42));
        assert_eq!(o.time, CentralTime(5));
    }

    #[test]
    fn evicted_handles_are_never_resurrected() {
        let mut arena = ParamArena::new();
        let stale = arena.alloc(EventId(0), vec![Value::Int(1)]);
        assert!(arena.get(stale).is_some());
        arena.reset();
        // The slot vector is recycled; a new allocation may reuse the very
        // same index, but the stale handle must not see it.
        let fresh = arena.alloc(EventId(0), vec![Value::Int(2)]);
        assert_eq!(arena.get(stale), None, "stale handle resurrected");
        assert_eq!(
            arena.get(fresh).unwrap()[0].values[0].as_int(),
            Some(2),
            "current-generation handle must resolve"
        );
        // Bare interned lists survive resets by design.
        let bare = arena.intern_bare(EventId(4));
        arena.reset();
        assert!(arena.get(bare).is_some());
    }

    #[test]
    fn clear_keeps_capacity_and_invalidates() {
        let mut b = EventBatch::<CentralTime>::with_capacity(8);
        b.push(EventId(0), CentralTime(1), vec![Value::Bool(true)]);
        let bytes_before = b.arena_bytes();
        b.clear();
        assert!(b.is_empty());
        assert!(b.arena_bytes() <= bytes_before);
        b.push_bare(EventId(0), CentralTime(2));
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn empty_values_push_falls_back_to_bare_interning() {
        let mut b = EventBatch::<CentralTime>::new();
        b.push(EventId(2), CentralTime(1), Vec::new());
        b.push_bare(EventId(2), CentralTime(2));
        assert!(Arc::ptr_eq(
            &b.occurrence(0).params,
            &b.occurrence(1).params
        ));
    }
}
