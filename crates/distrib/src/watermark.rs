//! Watermark tracking and the stability rule.
//!
//! Each site's heartbeat promises "everything I send from now on has
//! maximum global tick ≥ w". The coordinator releases notifications in
//! ascending release-key order `(max global, site, arrival)`, so a
//! buffered notification whose timestamp has maximum global tick `g` is
//! **stable** once every site's promise exceeds `g`: any notification
//! still in flight or unborn has maximum global tick `≥ w > g`, so its
//! key sorts after every key released so far, and the detector sees the
//! same canonical sequence it would see with the whole trace in hand.
//!
//! The `2g_g` order's one-tick ambiguity band matters only *between
//! stamps* — a future stamp at `g + 1` may be concurrent with a released
//! one at `g`, and the operators decide that from the stamps themselves.
//! Release does not wait it out: the canonical order already places every
//! future stamp after every released one.
//!
//! (Events from the same site are already FIFO-reassembled, so same-site
//! local ordering is preserved by arrival order.)

/// Tracks each site's promised minimum future global tick.
#[derive(Debug, Clone)]
pub struct WatermarkTracker {
    marks: Vec<u64>,
}

impl WatermarkTracker {
    /// Tracker for `sites` sites, all watermarks at 0.
    pub fn new(sites: usize) -> Self {
        WatermarkTracker {
            marks: vec![0; sites],
        }
    }

    /// Update a site's watermark (monotonic; regressions are ignored).
    /// Returns whether the site's watermark rose.
    pub fn update(&mut self, site: usize, watermark: u64) -> bool {
        match self.marks.get_mut(site) {
            Some(m) if watermark > *m => {
                *m = watermark;
                true
            }
            _ => false,
        }
    }

    /// Force-set a site's watermark, **non**-monotonically. The only
    /// caller is un-eviction: an evicted site's mark is pinned at
    /// `u64::MAX`, and a rejoin must drop it back to the site's fresh
    /// promise or the pin would outlive the eviction forever. Ordinary
    /// watermark traffic must go through [`WatermarkTracker::update`].
    pub fn reset(&mut self, site: usize, watermark: u64) {
        if let Some(m) = self.marks.get_mut(site) {
            *m = watermark;
        }
    }

    /// The ensemble watermark: the minimum promise across sites.
    pub fn min_watermark(&self) -> u64 {
        self.marks.iter().copied().min().unwrap_or(0)
    }

    /// A site's current watermark.
    pub fn site_watermark(&self, site: usize) -> u64 {
        self.marks.get(site).copied().unwrap_or(0)
    }

    /// The stability rule: is a notification with maximum global tick `g`
    /// safe to release? Yes once every site has promised a tick above it.
    pub fn is_stable(&self, g: u64) -> bool {
        self.min_watermark() > g
    }

    /// Number of tracked sites.
    pub fn len(&self) -> usize {
        self.marks.len()
    }

    /// Whether no sites are tracked.
    pub fn is_empty(&self) -> bool {
        self.marks.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_over_sites() {
        let mut w = WatermarkTracker::new(3);
        assert_eq!(w.min_watermark(), 0);
        w.update(0, 10);
        w.update(1, 7);
        w.update(2, 12);
        assert_eq!(w.min_watermark(), 7);
        assert_eq!(w.site_watermark(2), 12);
    }

    #[test]
    fn monotonic_updates() {
        let mut w = WatermarkTracker::new(1);
        assert!(w.update(0, 10));
        assert!(!w.update(0, 5)); // regression ignored
        assert!(!w.update(0, 10)); // a repeat is no rise
        assert_eq!(w.min_watermark(), 10);
    }

    #[test]
    fn reset_unpins_an_evicted_mark() {
        let mut w = WatermarkTracker::new(2);
        w.update(0, 10);
        w.update(1, u64::MAX); // eviction pin
        assert!(w.is_stable(8));
        w.reset(1, 3); // un-eviction: non-monotone force-set
        assert_eq!(w.site_watermark(1), 3);
        assert_eq!(w.min_watermark(), 3);
        assert!(!w.is_stable(8));
        w.reset(9, 1); // out-of-range ignored, like update
        assert_eq!(w.min_watermark(), 3);
    }

    #[test]
    fn stability_needs_strict_gap() {
        let mut w = WatermarkTracker::new(2);
        w.update(0, 10);
        w.update(1, 10);
        // g < 10 ⟹ g ≤ 9.
        assert!(w.is_stable(9));
        assert!(!w.is_stable(10));
        assert!(!w.is_stable(11));
    }

    #[test]
    fn one_lagging_site_blocks_everything() {
        let mut w = WatermarkTracker::new(3);
        w.update(0, 100);
        w.update(2, 100);
        assert!(!w.is_stable(0)); // site 1 never promised anything
        w.update(1, 3);
        assert!(w.is_stable(2));
        assert!(!w.is_stable(3));
    }

    #[test]
    fn out_of_range_site_is_ignored() {
        let mut w = WatermarkTracker::new(1);
        assert!(!w.update(5, 100));
        assert_eq!(w.min_watermark(), 0);
    }

    #[test]
    fn empty_tracker() {
        let w = WatermarkTracker::new(0);
        assert!(w.is_empty());
        assert_eq!(w.min_watermark(), 0);
    }
}
