//! Per-site time sources.
//!
//! A [`SiteTimeSource`] bundles what a site needs to stamp event
//! occurrences: its drifting local clock, the local granularity, and the
//! system-wide global time base. Reading it at a true-time instant yields
//! the `(site, global, local)` triple of Definition 4.6.

use decs_chronos::{
    ChronosError, GlobalTimeBase, Granularity, LocalClock, Nanos, SiteId, StampParts,
};

/// A site's clock plus the conversions that turn readings into timestamps.
#[derive(Debug, Clone)]
pub struct SiteTimeSource {
    site: SiteId,
    clock: LocalClock,
    base: GlobalTimeBase,
}

impl SiteTimeSource {
    /// Bundle a site's clock with the global time base.
    pub fn new(site: SiteId, clock: LocalClock, base: GlobalTimeBase) -> Self {
        SiteTimeSource { site, clock, base }
    }

    /// The site id.
    pub fn site(&self) -> SiteId {
        self.site
    }

    /// The underlying clock (for precision measurements).
    pub fn clock(&self) -> &LocalClock {
        &self.clock
    }

    /// Mutable clock access (for resynchronization).
    pub fn clock_mut(&mut self) -> &mut LocalClock {
        &mut self.clock
    }

    /// The global time base.
    pub fn base(&self) -> &GlobalTimeBase {
        &self.base
    }

    /// Stamp an occurrence at true time `now`: read the local clock,
    /// truncate to the global granularity.
    pub fn stamp(&self, now: Nanos) -> Result<StampParts, ChronosError> {
        let local = self.clock.read(now)?;
        let global = self.base.global_of_local(local, self.clock.granularity())?;
        Ok(StampParts::new(self.site, global, local))
    }

    /// The local granularity.
    pub fn granularity(&self) -> Granularity {
        self.clock.granularity()
    }

    /// The first true instant after `now` whose stamp carries a later
    /// global tick than the stamp at `now`; before the clock's epoch, the
    /// first instant [`Self::stamp`] succeeds. `None` if no representable
    /// instant gets there.
    ///
    /// The instant is found by an exponential then binary search over
    /// `stamp` itself, not by inverting the clock formula, so it is exact
    /// under drift, offset, every truncation mode and any local
    /// granularity: `stamp(t - 1 ns)` still reads the old tick.
    pub fn next_tick_edge(&self, now: Nanos) -> Option<Nanos> {
        let old = self.stamp(now).ok().map(|p| p.global);
        let past = |t: u64| {
            self.stamp(Nanos(t))
                .is_ok_and(|p| old.is_none_or(|g| p.global > g))
        };
        // `lo` never passes the edge and `hi` always has.
        let mut lo = now.get();
        let mut step = self.base.tick_span().get().max(1);
        let mut hi = loop {
            let probe = lo.saturating_add(step);
            if past(probe) {
                break probe;
            }
            if probe == u64::MAX {
                return None;
            }
            lo = probe;
            step = step.saturating_mul(2);
        };
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if past(mid) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        Some(Nanos(hi))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decs_chronos::{Precision, TruncMode};

    fn source(drift_ppb: i64, offset_ns: i64) -> SiteTimeSource {
        let g_local = Granularity::per_second(100).unwrap();
        let base = GlobalTimeBase::new(
            Granularity::per_second(10).unwrap(),
            TruncMode::Floor,
            Precision::from_nanos(50_000_000), // 50 ms < 100 ms
        )
        .unwrap();
        SiteTimeSource::new(
            SiteId(3),
            LocalClock::with_error(g_local, drift_ppb, offset_ns),
            base,
        )
    }

    #[test]
    fn stamp_produces_consistent_triple() {
        let s = source(0, 0);
        let parts = s.stamp(Nanos::from_secs(10)).unwrap();
        assert_eq!(parts.site, SiteId(3));
        assert_eq!(parts.local.get(), 1000); // 10 s of 1/100 s ticks
        assert_eq!(parts.global.get(), 100); // 10 s of 1/10 s ticks
    }

    #[test]
    fn drift_shifts_readings() {
        let fast = source(1_000_000, 0); // +1000 ppm = 1 ms/s
        let parts = fast.stamp(Nanos::from_secs(100)).unwrap();
        // Clock indicates 100.1 s.
        assert_eq!(parts.local.get(), 10_010);
        assert_eq!(parts.global.get(), 1001);
    }

    #[test]
    fn pre_epoch_reading_errors() {
        let behind = source(0, -5_000_000_000); // 5 s behind
        assert!(behind.stamp(Nanos::from_secs(1)).is_err());
        assert!(behind.stamp(Nanos::from_secs(6)).is_ok());
    }

    #[test]
    fn global_truncation_uses_local_reading_not_true_time() {
        // Offset +99 ms: at true time 0.95 s the clock reads 1.049 s →
        // local tick 104, global tick 10 (not 9).
        let ahead = source(0, 99_000_000);
        let parts = ahead.stamp(Nanos::from_millis(950)).unwrap();
        assert_eq!(parts.local.get(), 104);
        assert_eq!(parts.global.get(), 10);
    }

    #[test]
    fn next_tick_edge_is_the_first_instant_of_the_next_tick() {
        let mut checked = 0;
        for trunc in [TruncMode::Floor, TruncMode::Round, TruncMode::Ceil] {
            let base = GlobalTimeBase::new(
                Granularity::per_second(10).unwrap(),
                trunc,
                Precision::from_nanos(50_000_000),
            )
            .unwrap();
            // 1 ns, 1 ms and 10 ms local ticks.
            for local_ns in [1, 1_000_000, 10_000_000] {
                let g_local = Granularity::from_nanos(local_ns).unwrap();
                for drift_ppb in [-5_000_000, 0, 3_000_000] {
                    // 1.5 s before the epoch, just behind it, on it, ahead.
                    for offset_ns in [-1_500_000_000, -7, 0, 42_123_457] {
                        let s = SiteTimeSource::new(
                            SiteId(0),
                            LocalClock::with_error(g_local, drift_ppb, offset_ns),
                            base,
                        );
                        // Chain edges from 0, sometimes from mid-tick.
                        let mut now = Nanos::ZERO;
                        for i in 0..30u64 {
                            let t = s.next_tick_edge(now).expect("the clock runs");
                            assert!(t > now);
                            let before = s.stamp(Nanos(t.get() - 1));
                            match s.stamp(now) {
                                Ok(p) => {
                                    assert!(s.stamp(t).unwrap().global > p.global);
                                    assert_eq!(before.unwrap().global, p.global);
                                }
                                Err(_) => {
                                    assert!(s.stamp(t).is_ok());
                                    assert!(before.is_err());
                                }
                            }
                            checked += 1;
                            now = Nanos(t.get() + i % 3 * 31_234_567);
                        }
                    }
                }
            }
        }
        assert_eq!(checked, 3 * 3 * 3 * 4 * 30);
    }
}
