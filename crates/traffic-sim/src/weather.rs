//! Daily weather overlay for the ground-truth model.
//!
//! The paper's related work (Yuan et al. \[35\]) highlights weather as a
//! first-order factor in urban driving speeds. The overlay draws one
//! weather state per day and applies a citywide multiplicative speed
//! factor — a shared latent factor, so it *adds structure the completion
//! algorithm can exploit* (rainy days correlate every segment), while
//! making day-to-day traffic less repetitive than a pure weekly cycle.

use rand::{RngExt, SeedableRng};

/// Weather state of one day.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DayWeather {
    /// Dry day: no speed effect.
    Clear,
    /// Ordinary rain: citywide slowdown.
    Rain,
    /// Downpour: pronounced slowdown.
    HeavyRain,
}

impl DayWeather {
    /// Citywide multiplicative speed factor for the day.
    pub fn speed_factor(self) -> f64 {
        match self {
            DayWeather::Clear => 1.0,
            DayWeather::Rain => 0.88,
            DayWeather::HeavyRain => 0.74,
        }
    }
}

/// Weather generation parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct WeatherConfig {
    /// Probability a day is rainy at all.
    pub rain_prob: f64,
    /// Probability a rainy day is a downpour.
    pub heavy_given_rain: f64,
}

impl Default for WeatherConfig {
    fn default() -> Self {
        // Disabled by default: the core experiments match the paper's
        // weather-free modelling.
        Self { rain_prob: 0.0, heavy_given_rain: 0.3 }
    }
}

impl WeatherConfig {
    /// A temperate-city preset (~1 rainy day in 3).
    pub fn temperate() -> Self {
        Self { rain_prob: 0.35, heavy_given_rain: 0.25 }
    }
}

/// A realized weather sequence: one state per day.
#[derive(Debug, Clone, PartialEq)]
pub struct WeatherSequence {
    days: Vec<DayWeather>,
}

impl WeatherSequence {
    /// Draws `num_days` of weather.
    ///
    /// # Panics
    ///
    /// Panics when probabilities are outside `[0, 1]`.
    pub fn generate(num_days: usize, config: &WeatherConfig, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&config.rain_prob), "rain_prob out of range");
        assert!((0.0..=1.0).contains(&config.heavy_given_rain), "heavy_given_rain out of range");
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let days = (0..num_days)
            .map(|_| {
                if rng.random_range(0.0..1.0) < config.rain_prob {
                    if rng.random_range(0.0..1.0) < config.heavy_given_rain {
                        DayWeather::HeavyRain
                    } else {
                        DayWeather::Rain
                    }
                } else {
                    DayWeather::Clear
                }
            })
            .collect();
        Self { days }
    }

    /// All-clear sequence (the disabled default).
    pub fn clear(num_days: usize) -> Self {
        Self { days: vec![DayWeather::Clear; num_days] }
    }

    /// Weather of the day containing absolute time `t_s` (clamping past
    /// the end).
    pub fn at(&self, t_s: u64) -> DayWeather {
        let day = (t_s / crate::profile::DAY_S) as usize;
        self.days[day.min(self.days.len().saturating_sub(1))]
    }

    /// Speed factor at absolute time `t_s`.
    pub fn speed_factor(&self, t_s: u64) -> f64 {
        self.at(t_s).speed_factor()
    }

    /// Number of days covered.
    pub fn num_days(&self) -> usize {
        self.days.len()
    }

    /// The per-day states.
    pub fn days(&self) -> &[DayWeather] {
        &self.days
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::DAY_S;

    #[test]
    fn factors_ordered() {
        assert!(DayWeather::Clear.speed_factor() > DayWeather::Rain.speed_factor());
        assert!(DayWeather::Rain.speed_factor() > DayWeather::HeavyRain.speed_factor());
        assert_eq!(DayWeather::Clear.speed_factor(), 1.0);
    }

    #[test]
    fn default_config_is_dry() {
        let seq = WeatherSequence::generate(30, &WeatherConfig::default(), 1);
        assert!(seq.days().iter().all(|&d| d == DayWeather::Clear));
        assert_eq!(seq, WeatherSequence::clear(30));
    }

    #[test]
    fn temperate_mix_roughly_matches_probabilities() {
        let seq = WeatherSequence::generate(5000, &WeatherConfig::temperate(), 2);
        let rainy = seq.days().iter().filter(|&&d| d != DayWeather::Clear).count() as f64 / 5000.0;
        assert!((rainy - 0.35).abs() < 0.03, "rainy fraction {rainy}");
        let heavy = seq.days().iter().filter(|&&d| d == DayWeather::HeavyRain).count() as f64;
        let rain_total = seq.days().iter().filter(|&&d| d != DayWeather::Clear).count() as f64;
        assert!((heavy / rain_total - 0.25).abs() < 0.05);
    }

    #[test]
    fn day_lookup_and_clamping() {
        let seq = WeatherSequence { days: vec![DayWeather::Clear, DayWeather::Rain] };
        assert_eq!(seq.at(0), DayWeather::Clear);
        assert_eq!(seq.at(DAY_S - 1), DayWeather::Clear);
        assert_eq!(seq.at(DAY_S), DayWeather::Rain);
        // Past the end: clamps to the last day.
        assert_eq!(seq.at(10 * DAY_S), DayWeather::Rain);
        assert!((seq.speed_factor(DAY_S) - 0.88).abs() < 1e-12);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = WeatherSequence::generate(100, &WeatherConfig::temperate(), 7);
        let b = WeatherSequence::generate(100, &WeatherConfig::temperate(), 7);
        assert_eq!(a, b);
        let c = WeatherSequence::generate(100, &WeatherConfig::temperate(), 8);
        assert_ne!(a, c);
    }

    #[test]
    #[should_panic(expected = "rain_prob")]
    fn bad_probability_panics() {
        WeatherSequence::generate(5, &WeatherConfig { rain_prob: 2.0, heavy_given_rain: 0.0 }, 1);
    }
}
