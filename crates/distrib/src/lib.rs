//! # decs-distrib — distributed composite event detection
//!
//! The Section 5.3 semantics, executed: primitive events occur at sites,
//! are stamped by the site's (drifting, Π-synchronized) local clock as
//! `(site, global, local)` triples, and flow to a **global event detector**
//! that runs the Snoop operators over the
//! [`decs_core::CompositeTimestamp`] time domain — the partial order `<_p`
//! and the `Max` operator doing the work that total order and `max` do in
//! the centralized engine. The coordinator (and every replica of a
//! partitioned plane) runs one engine, [`decs_snoop::PlanDetector`]: the
//! hash-consed shared plan, or with `plan_sharing: false` its unshared
//! mode, the differential oracle.
//!
//! ## Architecture
//!
//! ```text
//!  site 0 ─┐ Batch(seq, watermark, events) ┌──────────────────────────┐
//!  site 1 ─┼──── reordering links ────────▶│ coordinator              │
//!  site 2 ─┘ one per tick edge             │  per-site FIFO reassembly│
//!                                          │  watermark stability     │
//!                                          │  canonical release order │
//!                                          │  PlanDetector<Composite> │
//!                                          └──────────────────────────┘
//! ```
//!
//! * **FIFO reassembly** — every site stamps its messages with a sequence
//!   number; the coordinator processes them in sequence order even when
//!   the network reorders (the TCP-like substrate the semantics assumes).
//! * **Watermark stability** — a notification whose timestamp has maximum
//!   global tick `g` is *stable* once every site's batch watermark
//!   exceeds `g`: everything that could still arrive sorts after it in the
//!   canonical release order `(max global, site, arrival)`. Stable
//!   notifications are released into the detector in that order, which
//!   makes detection a pure function of the workload — independent of
//!   link latency and jitter (verified by metamorphic tests that permute
//!   the network, and against a detector fed the whole trace sorted by
//!   release key).
//! * **Temporal events** — `P`/`P*`/`+` timers are serviced by the
//!   coordinator's own clock, so periodic occurrences carry genuine
//!   timestamps from a real site.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod coordinator;
pub mod durability;
pub mod engine;
pub mod metrics;
pub mod protocol;
pub mod site;
pub mod watermark;
mod window;

pub use config::EngineConfig;
pub use durability::{CoordinatorSnapshot, WalRecord, WalTail, WalWriter};
pub use engine::{Detection, Engine};
pub use metrics::Metrics;
pub use protocol::Msg;
pub use watermark::WatermarkTracker;
