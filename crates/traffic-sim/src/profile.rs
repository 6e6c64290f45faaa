//! Time-of-day congestion profiles — the latent temporal factors.
//!
//! Urban traffic is dominated by a few shared temporal patterns: the
//! weekday double rush hour, flatter weekend traffic, and an overnight
//! lull. The ground-truth model expresses every segment's speed as a
//! combination of these few factors, which is precisely what gives real
//! TCMs their low rank (the paper's hidden structure, Section 3.1).

/// Seconds per day.
pub const DAY_S: u64 = 86_400;

/// A smooth, periodic congestion factor over time of day, built from
/// Gaussian rush-hour bumps. Output is in `[0, 1]`: `0` = free flow,
/// `1` = maximal congestion for this profile.
#[derive(Debug, Clone, PartialEq)]
pub struct CongestionProfile {
    /// `(peak_hour, width_hours, height)` bumps; heights should sum ≤ 1.
    bumps: Vec<(f64, f64, f64)>,
    /// Constant background congestion level.
    base: f64,
    /// Multiplier applied on weekend days (day index 5 and 6).
    weekend_factor: f64,
}

impl CongestionProfile {
    /// Creates a profile from rush-hour bumps.
    ///
    /// # Panics
    ///
    /// Panics when parameters leave `[0, 1]` output unattainable
    /// (negative widths/heights or base outside `[0, 1]`).
    pub fn new(bumps: Vec<(f64, f64, f64)>, base: f64, weekend_factor: f64) -> Self {
        assert!((0.0..=1.0).contains(&base), "base must be in [0,1]");
        assert!((0.0..=1.5).contains(&weekend_factor), "weekend factor must be in [0,1.5]");
        for &(hour, width, height) in &bumps {
            assert!((0.0..24.0).contains(&hour), "peak hour {hour} out of range");
            assert!(width > 0.0, "bump width must be positive");
            assert!((0.0..=1.0).contains(&height), "bump height must be in [0,1]");
        }
        Self { bumps, base, weekend_factor }
    }

    /// The weekday arterial pattern: strong 8 h and 18 h peaks.
    pub fn arterial() -> Self {
        Self::new(vec![(8.0, 1.2, 0.55), (18.0, 1.5, 0.6)], 0.1, 0.55)
    }

    /// Collector roads: the same peaks, moderated.
    pub fn collector() -> Self {
        Self::new(vec![(8.2, 1.4, 0.4), (17.8, 1.7, 0.45)], 0.08, 0.65)
    }

    /// Local streets: shallow, broad midday-heavy congestion.
    pub fn local() -> Self {
        Self::new(vec![(9.0, 2.5, 0.25), (17.5, 2.5, 0.3), (12.5, 3.0, 0.15)], 0.05, 0.8)
    }

    /// Congestion factor at absolute time `t_s` (seconds since the window
    /// start, assumed to begin at midnight on a Monday). Result ∈ [0, 1].
    pub fn at(&self, t_s: u64) -> f64 {
        let day = (t_s / DAY_S) % 7;
        let hour = (t_s % DAY_S) as f64 / 3600.0;
        let mut c = self.base;
        for &(peak, width, height) in &self.bumps {
            // Wrap-around distance on the 24 h circle.
            let mut d = (hour - peak).abs();
            if d > 12.0 {
                d = 24.0 - d;
            }
            c += height * (-0.5 * (d / width) * (d / width)).exp();
        }
        let weekend = day >= 5;
        if weekend {
            c *= self.weekend_factor;
        }
        c.clamp(0.0, 1.0)
    }

    /// Samples the profile at the centre of each slot of a grid.
    pub fn sample(&self, start_s: u64, slot_len_s: u64, num_slots: usize) -> Vec<f64> {
        (0..num_slots).map(|i| self.at(start_s + slot_len_s * i as u64 + slot_len_s / 2)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_bounded() {
        for profile in [
            CongestionProfile::arterial(),
            CongestionProfile::collector(),
            CongestionProfile::local(),
        ] {
            for t in (0..7 * DAY_S).step_by(600) {
                let c = profile.at(t);
                assert!((0.0..=1.0).contains(&c), "{c} at {t}");
            }
        }
    }

    #[test]
    fn rush_hour_exceeds_night() {
        let p = CongestionProfile::arterial();
        let night = p.at(3 * 3600); // 3 am Monday
        let morning_rush = p.at(8 * 3600); // 8 am Monday
        let evening_rush = p.at(18 * 3600);
        assert!(morning_rush > night + 0.3, "{morning_rush} vs {night}");
        assert!(evening_rush > night + 0.3);
    }

    #[test]
    fn weekend_flatter_than_weekday() {
        let p = CongestionProfile::arterial();
        let weekday_rush = p.at(8 * 3600); // Monday
        let weekend_rush = p.at(5 * DAY_S + 8 * 3600); // Saturday
        assert!(weekend_rush < weekday_rush);
    }

    #[test]
    fn daily_periodicity_within_weekdays() {
        let p = CongestionProfile::collector();
        for hour in 0..24 {
            let mon = p.at(hour * 3600);
            let tue = p.at(DAY_S + hour * 3600);
            assert!((mon - tue).abs() < 1e-12);
        }
    }

    #[test]
    fn wraparound_continuity_at_midnight() {
        let p = CongestionProfile::local();
        let before = p.at(DAY_S - 60); // 23:59 Monday
        let after = p.at(DAY_S + 60); // 00:01 Tuesday
        assert!((before - after).abs() < 0.02, "{before} vs {after}");
    }

    #[test]
    fn class_ordering_at_rush() {
        // Arterials congest hardest at rush hour.
        let t = 18 * 3600;
        let a = CongestionProfile::arterial().at(t);
        let c = CongestionProfile::collector().at(t);
        let l = CongestionProfile::local().at(t);
        assert!(a > c && c > l, "a={a} c={c} l={l}");
    }

    #[test]
    fn sample_length_and_alignment() {
        let p = CongestionProfile::arterial();
        let s = p.sample(0, 3600, 24);
        assert_eq!(s.len(), 24);
        // Peak sample is near hour 18.
        let (argmax, _) =
            s.iter().enumerate().max_by(|a, b| a.1.partial_cmp(b.1).unwrap()).unwrap();
        assert!((argmax as i64 - 18).abs() <= 1, "peak at {argmax}");
    }

    #[test]
    #[should_panic(expected = "peak hour")]
    fn invalid_peak_rejected() {
        CongestionProfile::new(vec![(25.0, 1.0, 0.5)], 0.1, 0.5);
    }

    #[test]
    #[should_panic(expected = "base")]
    fn invalid_base_rejected() {
        CongestionProfile::new(vec![], 1.5, 0.5);
    }
}
