//! # decs — Distributed Event Composite Semantics
//!
//! A Rust implementation of *Yang & Chakravarthy, "Formal Semantics of
//! Composite Events for Distributed Environments" (ICDE 1999)*: the
//! Sentinel/Snoop composite event algebra with a formally grounded
//! distributed time semantics — `(site, global, local)` timestamps under
//! the `2g_g`-restricted partial order, set-valued composite timestamps
//! (`max(ST)`), the least-restricted ordering `<_p`, and the `Max`
//! propagation operator.
//!
//! This facade re-exports the workspace crates:
//!
//! * [`chronos`] — clocks, synchronization precision, approximated global
//!   time (`decs-chronos`).
//! * [`core`] — the formal timestamp semantics (`decs-core`).
//! * [`snoop`] — the operator algebra and its plan engine (`decs-snoop`).
//! * [`simnet`] — the deterministic distributed-system simulator
//!   (`decs-simnet`).
//! * [`distrib`] — the distributed detection engine (`decs-distrib`).
//! * [`sentinel`] — the active-DBMS layer: store, transactions, ECA rules,
//!   DSL (`decs-sentinel`).
//! * [`workloads`] — seeded synthetic traces (`decs-workloads`).
//!
//! ## Quickstart
//!
//! ```
//! use decs::sentinel::{Condition, RuleEngine};
//! use decs::snoop::Context;
//!
//! let mut engine = RuleEngine::new();
//! engine.create_table("stock", &["symbol", "price"]).unwrap();
//! engine
//!     .define_event_dsl("double_update", "stock_update ; stock_update", Context::Chronicle)
//!     .unwrap();
//! engine.on("watch", "double_update", Condition::Always, "two updates in a row");
//! let row = engine.insert("stock", vec!["IBM".into(), 100.0.into()]).unwrap();
//! engine.update("stock", row, vec!["IBM".into(), 101.0.into()]).unwrap();
//! engine.update("stock", row, vec!["IBM".into(), 102.0.into()]).unwrap();
//! assert_eq!(engine.log().len(), 1);
//! ```

pub use decs_chronos as chronos;
pub use decs_core as core;
pub use decs_distrib as distrib;
pub use decs_sentinel as sentinel;
pub use decs_simnet as simnet;
pub use decs_snoop as snoop;
pub use decs_workloads as workloads;
