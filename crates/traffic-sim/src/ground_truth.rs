//! Generative ground-truth traffic model.
//!
//! Produces a *complete* traffic condition matrix — the `X` the paper can
//! only approximate by picking well-covered downtown subnetworks — with
//! the three structural ingredients the paper's PCA study identifies:
//! shared periodic factors (low rank), incident spikes, and noise.

use crate::profile::{CongestionProfile, DAY_S};
use linalg::rng::normal;
use linalg::Matrix;
use probes::{SlotGrid, Tcm};
use rand::{RngExt, SeedableRng};
use roadnet::{RoadClass, RoadNetwork};

/// Parameters of the generative traffic model.
#[derive(Debug, Clone, PartialEq)]
pub struct GroundTruthConfig {
    /// Expected number of traffic incidents per segment per day.
    pub incident_rate_per_segment_day: f64,
    /// Incident duration range in *seconds* (uniform).
    pub incident_duration_s: (u64, u64),
    /// Fraction of speed removed during an incident (uniform range).
    pub incident_severity: (f64, f64),
    /// Standard deviation of the per-cell Gaussian speed noise, km/h.
    pub noise_std_kmh: f64,
    /// When set, `noise_std_kmh` is interpreted at this reference slot
    /// length (seconds) and scaled by `√(reference / slot_len)` for
    /// other granularities — a cell's speed is a sample mean over the
    /// slot, so shorter slots average fewer vehicles and are noisier.
    /// This is what makes finer granularities harder to estimate in the
    /// paper's Fig. 11. `None` keeps the noise constant.
    pub noise_reference_slot_s: Option<u64>,
    /// Hard lower bound on any speed, km/h (gridlocked but not parked).
    pub min_speed_kmh: f64,
    /// Relative jitter of each segment's coupling to its class profile
    /// (how uniformly a class congests).
    pub coupling_jitter: f64,
    /// Daily weather overlay (disabled by the default config).
    pub weather: crate::weather::WeatherConfig,
    /// RNG seed.
    pub seed: u64,
}

impl Default for GroundTruthConfig {
    fn default() -> Self {
        Self {
            incident_rate_per_segment_day: 0.05,
            incident_duration_s: (900, 5400),
            incident_severity: (0.4, 0.8),
            noise_std_kmh: 2.0,
            noise_reference_slot_s: None,
            min_speed_kmh: 3.0,
            coupling_jitter: 0.15,
            weather: crate::weather::WeatherConfig::default(),
            seed: 7,
        }
    }
}

/// How deeply each road class's speed collapses at full congestion.
fn congestion_depth(class: RoadClass) -> f64 {
    match class {
        RoadClass::Arterial => 0.75,
        RoadClass::Collector => 0.62,
        RoadClass::Local => 0.5,
    }
}

fn class_profile(class: RoadClass) -> CongestionProfile {
    match class {
        RoadClass::Arterial => CongestionProfile::arterial(),
        RoadClass::Collector => CongestionProfile::collector(),
        RoadClass::Local => CongestionProfile::local(),
    }
}

/// A traffic incident injected by the generative model: a contiguous
/// speed collapse on one segment. Exposed so incident-detection
/// evaluations have labelled ground truth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Incident {
    /// Segment column the incident occurred on.
    pub segment: usize,
    /// First affected slot (inclusive).
    pub start_slot: usize,
    /// Last affected slot (inclusive).
    pub end_slot: usize,
    /// Fraction of speed removed.
    pub severity: f64,
}

/// A realized ground truth: the complete TCM plus continuous-time speed
/// lookup for the fleet simulator.
#[derive(Debug, Clone)]
pub struct GroundTruthModel {
    grid: SlotGrid,
    /// Complete speed matrix, slots × segments, km/h.
    speeds: Matrix,
    /// Injected incidents, in generation order.
    incidents: Vec<Incident>,
}

impl GroundTruthModel {
    /// Generates ground truth for every segment of `net` over `grid`.
    ///
    /// The construction is literally "low rank + spikes + noise":
    /// per-class latent congestion factors shared by all segments of the
    /// class (rank ≤ number of classes), per-segment incidents, Gaussian
    /// cell noise, then clamping.
    pub fn generate(net: &RoadNetwork, grid: SlotGrid, config: &GroundTruthConfig) -> Self {
        let mut rng = rand::rngs::StdRng::seed_from_u64(config.seed);
        let m = grid.num_slots();
        let n = net.segment_count();

        // Daily weather: a citywide multiplicative factor per slot.
        let num_days = (grid.end_s().div_ceil(DAY_S)) as usize;
        let weather = crate::weather::WeatherSequence::generate(
            num_days.max(1),
            &config.weather,
            config.seed ^ 0xFEED,
        );
        let weather_factor: Vec<f64> =
            (0..m).map(|t| weather.speed_factor(grid.slot_start(t))).collect();

        // Latent temporal factors, one per class, sampled per slot.
        let factors: Vec<(RoadClass, Vec<f64>)> =
            [RoadClass::Arterial, RoadClass::Collector, RoadClass::Local]
                .into_iter()
                .map(|class| {
                    (class, class_profile(class).sample(grid.start_s(), grid.slot_len_s(), m))
                })
                .collect();

        let mut speeds = Matrix::zeros(m, n);
        let mut incidents = Vec::new();
        for (col, seg) in net.segments().iter().enumerate() {
            let factor =
                &factors.iter().find(|(c, _)| *c == seg.class).expect("all classes sampled").1;
            let depth = congestion_depth(seg.class);
            let coupling = (1.0 + normal(&mut rng, 0.0, config.coupling_jitter)).clamp(0.5, 1.4);
            for (t, f) in factor.iter().enumerate() {
                let congested = 1.0 - depth * coupling * f;
                speeds.set(t, col, seg.free_flow_kmh * congested * weather_factor[t]);
            }

            // Incidents: Poisson count over the window, each a contiguous
            // speed collapse.
            let days = (grid.end_s() - grid.start_s()) as f64 / DAY_S as f64;
            let expected = config.incident_rate_per_segment_day * days;
            let count = poisson(&mut rng, expected);
            for _ in 0..count {
                let start = rng.random_range(grid.start_s()..grid.end_s());
                let dur =
                    rng.random_range(config.incident_duration_s.0..=config.incident_duration_s.1);
                let severity =
                    rng.random_range(config.incident_severity.0..=config.incident_severity.1);
                let s0 = grid.slot_of(start).expect("start inside window");
                let s1 = grid.slot_of((start + dur).min(grid.end_s() - 1)).expect("clamped inside");
                for t in s0..=s1 {
                    let cur = speeds.get(t, col);
                    speeds.set(t, col, cur * (1.0 - severity));
                }
                incidents.push(Incident { segment: col, start_slot: s0, end_slot: s1, severity });
            }

            // Per-cell noise and clamping. With a reference slot length
            // configured, shorter slots are noisier (sample-mean noise
            // grows as 1/√samples ∝ 1/√slot length).
            let noise_std = match config.noise_reference_slot_s {
                Some(reference) => {
                    config.noise_std_kmh * (reference as f64 / grid.slot_len_s() as f64).sqrt()
                }
                None => config.noise_std_kmh,
            };
            for t in 0..m {
                let noisy = speeds.get(t, col) + normal(&mut rng, 0.0, noise_std);
                speeds.set(t, col, noisy.clamp(config.min_speed_kmh, seg.free_flow_kmh * 1.05));
            }
        }

        Self { grid, speeds, incidents }
    }

    /// The incidents the generator injected (labelled ground truth for
    /// incident-detection evaluations).
    pub fn incidents(&self) -> &[Incident] {
        &self.incidents
    }

    /// The slot grid the model was generated over.
    pub fn grid(&self) -> &SlotGrid {
        &self.grid
    }

    /// The complete ground-truth TCM.
    pub fn tcm(&self) -> Tcm {
        Tcm::complete(self.speeds.clone())
    }

    /// Raw speed matrix (slots × segments, km/h).
    pub fn speeds(&self) -> &Matrix {
        &self.speeds
    }

    /// Mean flow speed of segment column `col` at absolute time `t_s`,
    /// clamping times outside the window to the nearest slot. This is
    /// what a vehicle in the flow experiences (Definition 1's uniformity
    /// assumption within a slot).
    pub fn speed_at(&self, t_s: u64, col: usize) -> f64 {
        let slot = self.grid.slot_of(t_s).unwrap_or(if t_s < self.grid.start_s() {
            0
        } else {
            self.grid.num_slots() - 1
        });
        self.speeds.get(slot, col)
    }
}

/// One segment-resolved probe observation sampled from a ground-truth
/// speed matrix — the raw material of streaming-service harnesses,
/// which bypass GPS map matching and feed segment columns directly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbeSample {
    /// Synthetic reporting-vehicle id (unique per sample).
    pub vehicle: u64,
    /// Absolute report timestamp in seconds.
    pub timestamp_s: u64,
    /// Segment column of the truth matrix.
    pub segment: usize,
    /// Reported speed, km/h (truth plus multiplicative jitter).
    pub speed_kmh: f64,
}

/// Parameters for [`sample_probe_stream`].
#[derive(Debug, Clone, PartialEq)]
pub struct ProbeStreamConfig {
    /// Absolute start of the sampled slot grid, in seconds.
    pub start_s: u64,
    /// Length of one slot (one truth-matrix row), in seconds.
    pub slot_len_s: u64,
    /// Probability that a (slot, segment) cell is covered at all.
    pub coverage: f64,
    /// Probe reports per covered cell.
    pub probes_per_cell: usize,
    /// Half-width of the uniform multiplicative speed jitter.
    pub speed_jitter: f64,
    /// RNG seed; equal seeds produce identical streams.
    pub seed: u64,
}

impl Default for ProbeStreamConfig {
    fn default() -> Self {
        Self {
            start_s: 0,
            slot_len_s: 60,
            coverage: 0.8,
            probes_per_cell: 2,
            speed_jitter: 0.05,
            seed: 1,
        }
    }
}

/// Samples a deterministic probe stream from a complete speed matrix
/// (row = slot, column = segment), e.g. [`GroundTruthModel::speeds`]:
/// each covered cell yields `probes_per_cell` reports with timestamps
/// uniform inside the slot and speeds jittered around the truth.
/// Samples are ordered slot-major (all of slot 0, then slot 1, …), so a
/// tick-driven replay can partition them by row without sorting. The
/// stream is a pure function of `(speeds, config)`.
pub fn sample_probe_stream(speeds: &Matrix, config: &ProbeStreamConfig) -> Vec<ProbeSample> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(config.seed);
    let mut out = Vec::new();
    let mut vehicle = 0u64;
    for slot in 0..speeds.rows() {
        let slot_start = config.start_s + slot as u64 * config.slot_len_s;
        for segment in 0..speeds.cols() {
            if rng.random_range(0.0..1.0) >= config.coverage {
                continue;
            }
            let truth = speeds.get(slot, segment);
            for _ in 0..config.probes_per_cell {
                let offset = rng.random_range(0..config.slot_len_s.max(1));
                let jitter = rng.random_range(-config.speed_jitter..=config.speed_jitter);
                out.push(ProbeSample {
                    vehicle,
                    timestamp_s: slot_start + offset,
                    segment,
                    speed_kmh: (truth * (1.0 + jitter)).max(0.5),
                });
                vehicle += 1;
            }
        }
    }
    out
}

/// Knuth's Poisson sampler; fine for the small rates used here.
fn poisson<R: RngExt + ?Sized>(rng: &mut R, lambda: f64) -> usize {
    if lambda <= 0.0 {
        return 0;
    }
    let l = (-lambda).exp();
    let mut k = 0;
    let mut p = 1.0;
    loop {
        p *= rng.random_range(0.0..1.0);
        if p <= l {
            return k;
        }
        k += 1;
        if k > 1000 {
            return k; // pathological lambda guard
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use linalg::Svd;
    use probes::Granularity;
    use roadnet::generator::{generate_grid_city, GridCityConfig};

    fn small_model() -> (RoadNetwork, GroundTruthModel) {
        let net = generate_grid_city(&GridCityConfig::small_test());
        let grid = SlotGrid::covering(0, 2 * DAY_S, Granularity::Min30);
        let model = GroundTruthModel::generate(&net, grid, &GroundTruthConfig::default());
        (net, model)
    }

    #[test]
    fn shape_and_bounds() {
        let (net, model) = small_model();
        assert_eq!(model.speeds().rows(), 96);
        assert_eq!(model.speeds().cols(), net.segment_count());
        for (col, seg) in net.segments().iter().enumerate() {
            for t in 0..model.speeds().rows() {
                let v = model.speeds().get(t, col);
                assert!(v >= 3.0 - 1e-9, "speed {v} below floor");
                assert!(v <= seg.free_flow_kmh * 1.05 + 1e-9, "speed {v} above free flow");
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let net = generate_grid_city(&GridCityConfig::small_test());
        let grid = SlotGrid::covering(0, DAY_S, Granularity::Min60);
        let cfg = GroundTruthConfig::default();
        let a = GroundTruthModel::generate(&net, grid, &cfg);
        let b = GroundTruthModel::generate(&net, grid, &cfg);
        assert_eq!(a.speeds(), b.speeds());
        let mut cfg2 = cfg.clone();
        cfg2.seed = 1234;
        let c = GroundTruthModel::generate(&net, grid, &cfg2);
        assert_ne!(a.speeds(), c.speeds());
    }

    #[test]
    fn rush_hour_slower_than_night() {
        let (net, model) = small_model();
        // Average over all segments: 18:00 slot vs 03:00 slot (Monday).
        let rush_slot = model.grid().slot_of(18 * 3600).unwrap();
        let night_slot = model.grid().slot_of(3 * 3600).unwrap();
        let n = net.segment_count();
        let rush: f64 = (0..n).map(|c| model.speeds().get(rush_slot, c)).sum::<f64>() / n as f64;
        let night: f64 = (0..n).map(|c| model.speeds().get(night_slot, c)).sum::<f64>() / n as f64;
        assert!(rush < night - 5.0, "rush {rush} vs night {night}");
    }

    #[test]
    fn effective_rank_is_low() {
        // The defining property: a week-long TCM concentrates its energy
        // in a handful of components (Fig. 4's sharp knee).
        let net = generate_grid_city(&GridCityConfig::small_test());
        let grid = SlotGrid::covering(0, 7 * DAY_S, Granularity::Min30);
        let cfg = GroundTruthConfig { noise_std_kmh: 1.5, ..GroundTruthConfig::default() };
        let model = GroundTruthModel::generate(&net, grid, &cfg);
        let svd = Svd::compute(model.speeds()).unwrap();
        let k90 = svd.components_for_energy(0.9);
        assert!(k90 <= 3, "90% energy needs {k90} components");
        // And well over half the *fluctuation* energy in the top 5:
        let k99 = svd.components_for_energy(0.99);
        assert!(k99 <= 20, "99% energy needs {k99} components");
    }

    #[test]
    fn incidents_create_spikes() {
        let net = generate_grid_city(&GridCityConfig::small_test());
        let grid = SlotGrid::covering(0, 2 * DAY_S, Granularity::Min15);
        let cfg = GroundTruthConfig {
            incident_rate_per_segment_day: 2.0, // force many incidents
            incident_severity: (0.7, 0.8),
            noise_std_kmh: 0.5,
            ..GroundTruthConfig::default()
        };
        let model = GroundTruthModel::generate(&net, grid, &cfg);
        // Compare against an incident-free run with the same seed: some
        // cells must be dramatically slower.
        let cfg0 = GroundTruthConfig { incident_rate_per_segment_day: 0.0, ..cfg.clone() };
        let base = GroundTruthModel::generate(&net, grid, &cfg0);
        let mut big_drops = 0;
        for (r, c, v) in model.speeds().iter() {
            if v < base.speeds().get(r, c) * 0.6 {
                big_drops += 1;
            }
        }
        assert!(big_drops > 10, "only {big_drops} incident cells");
    }

    #[test]
    fn speed_at_clamps_outside_window() {
        let (_, model) = small_model();
        let last = model.grid().end_s();
        // Outside window: clamps rather than panicking.
        let v = model.speed_at(last + 999, 0);
        assert_eq!(v, model.speeds().get(model.speeds().rows() - 1, 0));
        assert!(model.speed_at(0, 0) > 0.0);
    }

    #[test]
    fn tcm_is_complete() {
        let (_, model) = small_model();
        let tcm = model.tcm();
        assert_eq!(tcm.integrity(), 1.0);
        assert_eq!(tcm.num_slots(), model.speeds().rows());
    }

    #[test]
    fn noise_scales_inversely_with_slot_length() {
        let net = generate_grid_city(&GridCityConfig::small_test());
        let measure_noise = |gran: Granularity| {
            let grid = SlotGrid::covering(0, 2 * DAY_S, gran);
            let cfg = GroundTruthConfig {
                noise_std_kmh: 3.0,
                noise_reference_slot_s: Some(1800),
                incident_rate_per_segment_day: 0.0,
                ..GroundTruthConfig::default()
            };
            let noisy = GroundTruthModel::generate(&net, grid, &cfg);
            let clean = GroundTruthModel::generate(
                &net,
                grid,
                &GroundTruthConfig {
                    noise_std_kmh: 0.0,
                    incident_rate_per_segment_day: 0.0,
                    ..cfg
                },
            );
            // RMS of the noise component over unclamped cells.
            let mut ss = 0.0;
            let mut count = 0;
            for (t, c, v) in noisy.speeds().iter() {
                let base = clean.speeds().get(t, c);
                if v > 3.5 && base > 3.5 {
                    ss += (v - base) * (v - base);
                    count += 1;
                }
            }
            (ss / count as f64).sqrt()
        };
        let n15 = measure_noise(Granularity::Min15);
        let n30 = measure_noise(Granularity::Min30);
        let n60 = measure_noise(Granularity::Min60);
        // Reference is 30 min: 15-min noise ~ sqrt(2) x, 60-min ~ 1/sqrt(2) x.
        assert!((n30 - 3.0).abs() < 0.3, "30 min noise {n30}");
        assert!((n15 / n30 - std::f64::consts::SQRT_2).abs() < 0.15, "15/30 ratio {}", n15 / n30);
        assert!(
            (n60 / n30 - 1.0 / std::f64::consts::SQRT_2).abs() < 0.15,
            "60/30 ratio {}",
            n60 / n30
        );
    }

    #[test]
    fn weather_overlay_slows_rainy_days() {
        let net = generate_grid_city(&GridCityConfig::small_test());
        let grid = SlotGrid::covering(0, 10 * DAY_S, Granularity::Min60);
        let dry_cfg = GroundTruthConfig { noise_std_kmh: 0.0, ..GroundTruthConfig::default() };
        let wet_cfg = GroundTruthConfig {
            noise_std_kmh: 0.0,
            weather: crate::weather::WeatherConfig { rain_prob: 1.0, heavy_given_rain: 0.0 },
            ..GroundTruthConfig::default()
        };
        let dry = GroundTruthModel::generate(&net, grid, &dry_cfg);
        let wet = GroundTruthModel::generate(&net, grid, &wet_cfg);
        // Every unclamped cell on a rainy day is slower by the rain factor.
        let mut checked = 0;
        for (t, c, v) in wet.speeds().iter() {
            let dry_v = dry.speeds().get(t, c);
            if v > 3.0 + 1e-9 && dry_v < dry.speeds().get(t, c).max(dry_v) * 1.04 {
                assert!(v <= dry_v + 1e-9, "wet {v} faster than dry {dry_v}");
                checked += 1;
            }
        }
        assert!(checked > 100);
        // Citywide means differ by roughly the rain factor.
        let mean = |m: &linalg::Matrix| m.sum() / m.len() as f64;
        let ratio = mean(wet.speeds()) / mean(dry.speeds());
        assert!((ratio - 0.88).abs() < 0.04, "ratio {ratio}");
    }

    #[test]
    fn probe_stream_is_deterministic_and_in_bounds() {
        let (_, model) = small_model();
        let cfg = ProbeStreamConfig {
            start_s: 3600,
            slot_len_s: 60,
            coverage: 0.7,
            probes_per_cell: 2,
            speed_jitter: 0.05,
            seed: 42,
        };
        let a = sample_probe_stream(model.speeds(), &cfg);
        let b = sample_probe_stream(model.speeds(), &cfg);
        assert_eq!(a, b, "same seed, same stream");
        assert!(!a.is_empty());
        let mut last_slot = 0;
        for s in &a {
            assert!(s.segment < model.speeds().cols());
            let slot = ((s.timestamp_s - cfg.start_s) / cfg.slot_len_s) as usize;
            assert!(slot < model.speeds().rows(), "timestamp inside the sampled grid");
            assert!(slot >= last_slot, "slot-major ordering");
            last_slot = slot;
            let truth = model.speeds().get(slot, s.segment);
            assert!((s.speed_kmh - truth).abs() <= truth * 0.05 + 1e-9);
            assert!(s.speed_kmh > 0.0);
        }
        // Vehicle ids are unique, so dedup keys never collide by accident.
        let mut ids: Vec<u64> = a.iter().map(|s| s.vehicle).collect();
        ids.dedup();
        assert_eq!(ids.len(), a.len());
        // Coverage roughly holds and different seeds differ.
        let cells = (model.speeds().rows() * model.speeds().cols()) as f64;
        let covered = a.len() as f64 / cfg.probes_per_cell as f64;
        assert!((covered / cells - 0.7).abs() < 0.1, "coverage {}", covered / cells);
        let c = sample_probe_stream(model.speeds(), &ProbeStreamConfig { seed: 43, ..cfg });
        assert_ne!(a, c);
    }

    #[test]
    fn poisson_mean_roughly_lambda() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let n = 20_000;
        let sum: usize = (0..n).map(|_| poisson(&mut rng, 0.3)).sum();
        let mean = sum as f64 / n as f64;
        assert!((mean - 0.3).abs() < 0.02, "mean {mean}");
        assert_eq!(poisson(&mut rng, 0.0), 0);
    }
}
