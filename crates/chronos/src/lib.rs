//! # decs-chronos — the distributed time substrate
//!
//! This crate implements Section 4.1 of Yang & Chakravarthy (ICDE 1999):
//! the *approximated global time base* on which the formal semantics of
//! distributed composite events is built.
//!
//! The model (after Kopetz \[7\] and Schwiderski \[10\]):
//!
//! * There is a unique **reference clock** `z` with granularity `g_z`, in
//!   perfect agreement with the international standard of time
//!   ([`ReferenceClock`]).
//! * Every site has a single **local physical clock** with its own
//!   granularity, drift and offset ([`LocalClock`]).
//! * Local clocks are kept synchronized within a **precision** `Π`: the
//!   maximum offset between corresponding ticks of any two local clocks, as
//!   observed by the reference clock ([`sync`]).
//! * A **global time** is approximated by truncating each local clock
//!   reading to a coarser **global granularity** `g_g > Π`
//!   ([`GlobalTimeBase`]); with this choice two simultaneous events receive
//!   global time stamps that differ by at most one global tick.
//! * Event occurrences are ordered by the **`2g_g`-restricted temporal
//!   order**: same-site occurrences compare by local ticks, cross-site
//!   occurrences compare only when their global ticks differ by more than
//!   `1 g_g` ([`precedence`]).
//!
//! Everything in this crate is purely deterministic: clocks are functions of
//! an explicitly supplied *true time* (reference nanoseconds), so that the
//! simulator (`decs-simnet`) and the property-test suites can reproduce any
//! schedule bit-for-bit.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calendar;
pub mod clock;
pub mod error;
pub mod global;
pub mod gran;
pub mod precedence;
pub mod sync;
pub mod tick;

pub use clock::{LocalClock, ReferenceClock};
pub use error::{ChronosError, Result};
pub use global::{GlobalTimeBase, TruncMode};
pub use gran::Granularity;
pub use precedence::{concurrent_2gg, precedes_2gg, SiteId, StampParts};
pub use sync::{ClockEnsemble, Precision};
pub use tick::{GlobalTicks, LocalTicks, Nanos};
