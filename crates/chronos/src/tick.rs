//! Newtypes for the three time scales of the model.
//!
//! * [`Nanos`] — *true* (reference) time: nanoseconds since the reference
//!   epoch, as observed by the ideal reference clock `z`.
//! * [`LocalTicks`] — a reading of one site's physical clock, counted in
//!   that clock's own granularity from the site epoch.
//! * [`GlobalTicks`] — a local reading truncated to the global granularity
//!   `g_g`; this is the `global` component of the paper's time stamps.
//!
//! [`Timeout`] is a positive span of true time, for the timeouts that
//! zero cannot stand for.
//!
//! Keeping these as distinct types prevents the classic bug family of mixing
//! scales (e.g. comparing a local tick count of one site with another site's
//! without going through the `2g_g` machinery).

use std::fmt;
use std::num::NonZeroU64;
use std::ops::{Add, AddAssign, Sub};

macro_rules! tick_newtype {
    ($(#[$meta:meta])* $name:ident, $label:expr) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
        pub struct $name(pub u64);

        impl $name {
            /// The zero point of this scale.
            pub const ZERO: Self = Self(0);

            /// Raw tick count.
            #[inline]
            pub const fn get(self) -> u64 {
                self.0
            }

            /// Saturating subtraction, returning the absolute distance.
            #[inline]
            pub fn abs_diff(self, other: Self) -> u64 {
                self.0.abs_diff(other.0)
            }

            /// Checked addition of raw ticks.
            #[inline]
            pub fn checked_add(self, ticks: u64) -> Option<Self> {
                self.0.checked_add(ticks).map(Self)
            }

            /// Saturating addition of raw ticks.
            #[inline]
            pub fn saturating_add(self, ticks: u64) -> Self {
                Self(self.0.saturating_add(ticks))
            }

            /// Saturating subtraction of raw ticks.
            #[inline]
            pub fn saturating_sub(self, ticks: u64) -> Self {
                Self(self.0.saturating_sub(ticks))
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}{}", self.0, $label)
            }
        }

        impl Add<u64> for $name {
            type Output = Self;
            #[inline]
            fn add(self, rhs: u64) -> Self {
                Self(self.0 + rhs)
            }
        }

        impl AddAssign<u64> for $name {
            #[inline]
            fn add_assign(&mut self, rhs: u64) {
                self.0 += rhs;
            }
        }

        impl Sub<u64> for $name {
            type Output = Self;
            #[inline]
            fn sub(self, rhs: u64) -> Self {
                Self(self.0 - rhs)
            }
        }

        impl From<u64> for $name {
            #[inline]
            fn from(v: u64) -> Self {
                Self(v)
            }
        }

        impl From<$name> for u64 {
            #[inline]
            fn from(v: $name) -> u64 {
                v.0
            }
        }
    };
}

tick_newtype!(
    /// True (reference-clock) time: nanoseconds since the reference epoch.
    Nanos,
    "ns"
);

tick_newtype!(
    /// Ticks of one site's local physical clock, in that clock's granularity.
    LocalTicks,
    "lt"
);

tick_newtype!(
    /// Local time truncated to the global granularity `g_g`.
    GlobalTicks,
    "gt"
);

impl Nanos {
    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        Nanos(s * 1_000_000_000)
    }

    /// Construct from whole milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        Nanos(ms * 1_000_000)
    }

    /// Construct from whole microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        Nanos(us * 1_000)
    }

    /// Fractional seconds represented by this duration (for reporting only;
    /// never used in semantics paths).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }
}

/// A positive span of true time, the type of a timeout: zero is not one
/// of its values. [`Timeout::from_millis`] checks its argument when the
/// program compiles, [`Timeout::new`] a span known only at run time.
///
/// ```compile_fail
/// let never = decs_chronos::Timeout::from_millis::<0>();
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Timeout(NonZeroU64);

impl Timeout {
    /// One nanosecond, the shortest timeout.
    pub const MIN: Self = Timeout(NonZeroU64::MIN);

    /// `span` as a timeout, or `None` when it is zero.
    pub fn new(span: Nanos) -> Option<Self> {
        NonZeroU64::new(span.0).map(Timeout)
    }

    /// `MS` milliseconds. Zero, like an `MS` too large for [`Nanos`],
    /// does not compile.
    pub const fn from_millis<const MS: u64>() -> Self {
        const {
            match NonZeroU64::new(MS * 1_000_000) {
                Some(ns) => Timeout(ns),
                None => panic!("a timeout must be positive"),
            }
        }
    }

    /// The span (never zero).
    pub const fn get(self) -> Nanos {
        Nanos(self.0.get())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn newtypes_are_distinct_types() {
        // This is a compile-time property; at runtime we just check basics.
        let n = Nanos::from_secs(1);
        assert_eq!(n.get(), 1_000_000_000);
        let l = LocalTicks(5);
        let g = GlobalTicks(5);
        assert_eq!(l.get(), g.get()); // raw values can match…
    }

    #[test]
    fn arithmetic() {
        let t = LocalTicks(10);
        assert_eq!((t + 5).get(), 15);
        assert_eq!((t - 3).get(), 7);
        let mut u = t;
        u += 1;
        assert_eq!(u, LocalTicks(11));
        assert_eq!(t.abs_diff(LocalTicks(4)), 6);
        assert_eq!(LocalTicks(4).abs_diff(t), 6);
    }

    #[test]
    fn saturating_and_checked() {
        assert_eq!(GlobalTicks(u64::MAX).checked_add(1), None);
        assert_eq!(
            GlobalTicks(u64::MAX).saturating_add(5),
            GlobalTicks(u64::MAX)
        );
        assert_eq!(GlobalTicks(3).saturating_sub(10), GlobalTicks(0));
    }

    #[test]
    fn display_includes_unit() {
        assert_eq!(Nanos(7).to_string(), "7ns");
        assert_eq!(LocalTicks(7).to_string(), "7lt");
        assert_eq!(GlobalTicks(7).to_string(), "7gt");
    }

    #[test]
    fn conversions_from_seconds() {
        assert_eq!(Nanos::from_millis(1500).get(), 1_500_000_000);
        assert_eq!(Nanos::from_micros(2).get(), 2_000);
        assert!((Nanos::from_secs(2).as_secs_f64() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn timeouts_are_positive() {
        assert_eq!(Timeout::from_millis::<5_000>().get(), Nanos::from_secs(5));
        assert_eq!(Timeout::new(Nanos::ZERO), None);
        assert_eq!(Timeout::new(Nanos(1)), Some(Timeout::MIN));
        assert_eq!(Timeout::MIN.get(), Nanos(1));
        assert!(Timeout::MIN < Timeout::from_millis::<1>());
    }

    #[test]
    fn ordering_is_numeric() {
        assert!(LocalTicks(1) < LocalTicks(2));
        assert!(GlobalTicks(9) > GlobalTicks(8));
    }
}
