//! GPS observation and loss model.
//!
//! Section 1 of the paper: "when a vehicle moves through a road with
//! surrounding tall buildings (so-called urban canyons)", reports are lost
//! "because of attenuation and multipath propagation of radio signals",
//! and GPS positions/speeds carry error. This module turns a vehicle's
//! true state into what the monitoring centre actually receives.

use linalg::rng::normal;
use rand::RngExt;
use roadnet::geometry::Point;

/// GPS error and dropout parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct GpsConfig {
    /// Position error standard deviation per axis, metres, open sky.
    pub position_noise_std_m: f64,
    /// Position error standard deviation in urban canyons.
    pub canyon_position_noise_std_m: f64,
    /// Speed error standard deviation, km/h.
    pub speed_noise_std_kmh: f64,
    /// Probability a report is lost (GPS fix or GPRS delivery failure),
    /// open sky.
    pub dropout_prob: f64,
    /// Loss probability in urban canyons.
    pub canyon_dropout_prob: f64,
}

impl Default for GpsConfig {
    fn default() -> Self {
        Self {
            position_noise_std_m: 8.0,
            canyon_position_noise_std_m: 25.0,
            speed_noise_std_kmh: 2.0,
            dropout_prob: 0.05,
            canyon_dropout_prob: 0.45,
        }
    }
}

impl GpsConfig {
    /// Validates parameter ranges.
    ///
    /// # Panics
    ///
    /// Panics when a std-dev is negative or a probability is outside
    /// `[0, 1]` — configuration bugs.
    pub fn validate(&self) {
        assert!(self.position_noise_std_m >= 0.0, "negative position noise");
        assert!(self.canyon_position_noise_std_m >= 0.0, "negative canyon noise");
        assert!(self.speed_noise_std_kmh >= 0.0, "negative speed noise");
        assert!((0.0..=1.0).contains(&self.dropout_prob), "dropout prob out of range");
        assert!((0.0..=1.0).contains(&self.canyon_dropout_prob), "canyon dropout out of range");
    }

    /// Simulates one observation of a vehicle at `true_pos` moving at
    /// `true_speed_kmh` on a segment that is (or isn't) an urban canyon.
    ///
    /// Returns `None` when the report is lost; otherwise the noisy
    /// position and speed the monitoring centre receives (speed clamped
    /// to be non-negative).
    pub fn observe<R: RngExt + ?Sized>(
        &self,
        rng: &mut R,
        true_pos: Point,
        true_speed_kmh: f64,
        in_canyon: bool,
    ) -> Option<(Point, f64)> {
        let p_loss = if in_canyon { self.canyon_dropout_prob } else { self.dropout_prob };
        if rng.random_range(0.0..1.0) < p_loss {
            return None;
        }
        let pos_std =
            if in_canyon { self.canyon_position_noise_std_m } else { self.position_noise_std_m };
        let pos = Point::new(
            true_pos.x + normal(rng, 0.0, pos_std),
            true_pos.y + normal(rng, 0.0, pos_std),
        );
        let speed = (true_speed_kmh + normal(rng, 0.0, self.speed_noise_std_kmh)).max(0.0);
        Some((pos, speed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    #[test]
    fn default_validates() {
        GpsConfig::default().validate();
    }

    #[test]
    #[should_panic(expected = "dropout prob")]
    fn bad_probability_panics() {
        let cfg = GpsConfig { dropout_prob: 1.5, ..GpsConfig::default() };
        cfg.validate();
    }

    #[test]
    fn canyon_loses_more_reports() {
        let cfg = GpsConfig::default();
        let mut r = rng(1);
        let p = Point::new(0.0, 0.0);
        let n = 20_000;
        let open_received =
            (0..n).filter(|_| cfg.observe(&mut r, p, 30.0, false).is_some()).count();
        let canyon_received =
            (0..n).filter(|_| cfg.observe(&mut r, p, 30.0, true).is_some()).count();
        let open_rate = open_received as f64 / n as f64;
        let canyon_rate = canyon_received as f64 / n as f64;
        assert!((open_rate - 0.95).abs() < 0.02, "open rate {open_rate}");
        assert!((canyon_rate - 0.55).abs() < 0.02, "canyon rate {canyon_rate}");
    }

    #[test]
    fn position_noise_scales_in_canyon() {
        let cfg = GpsConfig::default();
        let mut r = rng(2);
        let p = Point::new(1000.0, 1000.0);
        let errors = |canyon: bool, r: &mut rand::rngs::StdRng| -> f64 {
            let mut sum = 0.0;
            let mut count = 0;
            for _ in 0..20_000 {
                if let Some((obs, _)) = cfg.observe(r, p, 30.0, canyon) {
                    sum += obs.distance(p);
                    count += 1;
                }
            }
            sum / count as f64
        };
        let open = errors(false, &mut r);
        let canyon = errors(true, &mut r);
        assert!(canyon > 2.0 * open, "canyon {canyon} vs open {open}");
    }

    #[test]
    fn speed_never_negative_and_unbiased() {
        let cfg = GpsConfig::default();
        let mut r = rng(3);
        let mut sum = 0.0;
        let mut count = 0;
        for _ in 0..20_000 {
            if let Some((_, s)) = cfg.observe(&mut r, Point::new(0.0, 0.0), 40.0, false) {
                assert!(s >= 0.0);
                sum += s;
                count += 1;
            }
        }
        let mean = sum / count as f64;
        assert!((mean - 40.0).abs() < 0.2, "mean speed {mean}");
    }

    #[test]
    fn zero_noise_zero_dropout_is_transparent() {
        let cfg = GpsConfig {
            position_noise_std_m: 0.0,
            canyon_position_noise_std_m: 0.0,
            speed_noise_std_kmh: 0.0,
            dropout_prob: 0.0,
            canyon_dropout_prob: 0.0,
        };
        let mut r = rng(4);
        let p = Point::new(7.0, 9.0);
        let (obs, s) = cfg.observe(&mut r, p, 33.0, true).unwrap();
        assert_eq!(obs, p);
        assert_eq!(s, 33.0);
    }
}
