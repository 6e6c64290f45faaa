//! Scenario presets bundling a city, a ground truth, a fleet, and GPS
//! parameters into one reproducible simulation.

use crate::fleet::{simulate_fleet, FleetConfig};
use crate::gps::GpsConfig;
use crate::ground_truth::{GroundTruthConfig, GroundTruthModel};
use probes::{Granularity, ProbeReport, SlotGrid, Tcm};
use roadnet::generator::{generate_grid_city, GridCityConfig};
use roadnet::RoadNetwork;

/// A complete simulation scenario.
///
/// The two headline presets substitute for the paper's datasets:
///
/// * [`ScenarioConfig::shanghai_like`] — dense coverage: a 2,000-taxi
///   fleet (scalable) on the 39 × 39 city.
/// * [`ScenarioConfig::shenzhen_like`] — the same pipeline with a larger
///   city, relatively sparser coverage of the studied core, and noisier
///   GPS, giving uniformly higher estimation error as in Fig. 12.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioConfig {
    /// Human-readable scenario name.
    pub name: String,
    /// City generator parameters.
    pub city: GridCityConfig,
    /// Ground-truth traffic model parameters.
    pub ground: GroundTruthConfig,
    /// Fleet behaviour parameters.
    pub fleet: FleetConfig,
    /// GPS noise/loss parameters.
    pub gps: GpsConfig,
    /// Observation window length, seconds.
    pub duration_s: u64,
    /// Time granularity for the ground-truth/assembled TCMs.
    pub granularity: Granularity,
}

impl ScenarioConfig {
    /// Tiny scenario for unit tests and the quickstart example: a 5 × 5
    /// city, 25 taxis, 6 hours.
    pub fn small_test() -> Self {
        Self {
            name: "small-test".into(),
            city: GridCityConfig::small_test(),
            ground: GroundTruthConfig::default(),
            fleet: FleetConfig { fleet_size: 25, ..FleetConfig::default() },
            gps: GpsConfig::default(),
            duration_s: 6 * 3600,
            granularity: Granularity::Min15,
        }
    }

    /// Shanghai-like scenario: 39 × 39 city (5,928 segments), 2,000
    /// taxis, 24 hours at 15-minute granularity — the configuration of
    /// the paper's Section 2.3 integrity study.
    pub fn shanghai_like() -> Self {
        Self {
            name: "shanghai-like".into(),
            city: GridCityConfig::shanghai_like(),
            // Noise and incident rates are calibrated so that the
            // "unpredictable randomness" floor of the estimation error
            // sits where the paper measures it (≈15–20% NMAE even at
            // high integrity — Section 4.3's discussion).
            ground: GroundTruthConfig {
                seed: 2007,
                noise_std_kmh: 5.5,
                noise_reference_slot_s: Some(1800),
                incident_rate_per_segment_day: 0.15,
                ..GroundTruthConfig::default()
            },
            fleet: FleetConfig { fleet_size: 2000, seed: 41, ..FleetConfig::default() },
            gps: GpsConfig::default(),
            duration_s: 24 * 3600,
            granularity: Granularity::Min15,
        }
    }

    /// Shenzhen-like scenario: larger city, 8,000 taxis spread thinner
    /// over it, noisier GPS. At equal settings the studied core sees
    /// fewer probes per segment than the Shanghai-like scenario, matching
    /// the paper's observation that "probe taxis in Shanghai are more
    /// densely distributed over the subnetwork under investigation".
    pub fn shenzhen_like() -> Self {
        Self {
            name: "shenzhen-like".into(),
            city: GridCityConfig::shenzhen_like(),
            ground: GroundTruthConfig {
                seed: 518,
                noise_std_kmh: 7.0,
                noise_reference_slot_s: Some(1800),
                coupling_jitter: 0.22,
                incident_rate_per_segment_day: 0.2,
                ..GroundTruthConfig::default()
            },
            fleet: FleetConfig { fleet_size: 8000, seed: 86, ..FleetConfig::default() },
            gps: GpsConfig {
                speed_noise_std_kmh: 3.0,
                dropout_prob: 0.08,
                canyon_dropout_prob: 0.5,
                ..GpsConfig::default()
            },
            duration_s: 24 * 3600,
            granularity: Granularity::Min15,
        }
    }

    /// Returns a copy with a different fleet size (Table 1 sweeps 500,
    /// 1,000, 2,000 vehicles).
    pub fn with_fleet_size(mut self, fleet_size: usize) -> Self {
        self.fleet.fleet_size = fleet_size;
        self
    }

    /// Returns a copy with a different granularity.
    pub fn with_granularity(mut self, granularity: Granularity) -> Self {
        self.granularity = granularity;
        self
    }

    /// The slot grid implied by the duration and granularity.
    pub fn slot_grid(&self) -> SlotGrid {
        SlotGrid::covering(0, self.duration_s, self.granularity)
    }

    /// Runs the full simulation: generate city → ground truth → fleet →
    /// reports.
    pub fn run(&self) -> SimulationOutput {
        let network = generate_grid_city(&self.city);
        let grid = self.slot_grid();
        let model = GroundTruthModel::generate(&network, grid, &self.ground);
        let reports = simulate_fleet(&network, &model, self.duration_s, &self.fleet, &self.gps);
        let ground_truth = model.tcm();
        SimulationOutput { network, model, ground_truth, reports, grid }
    }
}

/// Everything a downstream experiment needs from one simulation run.
#[derive(Debug, Clone)]
pub struct SimulationOutput {
    /// The generated road network.
    pub network: RoadNetwork,
    /// The generative model (for continuous-time speed lookup).
    pub model: GroundTruthModel,
    /// Complete ground-truth TCM over all segments.
    pub ground_truth: Tcm,
    /// Delivered probe reports, sorted by timestamp.
    pub reports: Vec<ProbeReport>,
    /// The slot grid shared by ground truth and any assembled TCM.
    pub grid: SlotGrid,
}

/// Indices of the `count` segments closest to the city centre — how the
/// experiments pick their "downtown subnetwork" (221 segments in
/// Shanghai, 198 in Shenzhen; Section 4.1 chooses regions "close to city
/// centers" because they are well covered).
///
/// # Panics
///
/// Panics when `count > net.segment_count()`.
pub fn central_segments(net: &RoadNetwork, count: usize) -> Vec<usize> {
    assert!(count <= net.segment_count(), "requested more segments than exist");
    let bb = net.bounding_box().expect("non-empty network");
    let cx = (bb.min.x + bb.max.x) / 2.0;
    let cy = (bb.min.y + bb.max.y) / 2.0;
    let centre = roadnet::geometry::Point::new(cx, cy);
    let mut with_dist: Vec<(usize, f64)> = net
        .segment_ids()
        .map(|sid| {
            let mid = net.segment_point(sid, 0.5);
            (sid.index(), mid.distance(centre))
        })
        .collect();
    with_dist.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite distances").then(a.0.cmp(&b.0)));
    let mut out: Vec<usize> = with_dist.into_iter().take(count).map(|(i, _)| i).collect();
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use probes::tcm::build_tcm_from_reports;
    use roadnet::matching::SegmentIndex;

    #[test]
    fn small_scenario_runs_end_to_end() {
        let out = ScenarioConfig::small_test().run();
        assert_eq!(out.ground_truth.num_slots(), 24); // 6 h at 15 min
        assert_eq!(out.ground_truth.num_segments(), 80);
        assert!(!out.reports.is_empty());
        assert_eq!(out.ground_truth.integrity(), 1.0);
        // Assembled TCM is sparser than ground truth.
        let index = SegmentIndex::build(&out.network, 100.0);
        let tcm = build_tcm_from_reports(&out.reports, &out.network, &index, &out.grid, 60.0);
        let integ = tcm.integrity();
        assert!(integ > 0.0 && integ < 1.0, "integrity {integ}");
    }

    #[test]
    fn with_fleet_size_and_granularity() {
        let s =
            ScenarioConfig::small_test().with_fleet_size(3).with_granularity(Granularity::Min60);
        assert_eq!(s.fleet.fleet_size, 3);
        assert_eq!(s.slot_grid().num_slots(), 6);
    }

    #[test]
    fn presets_have_expected_scale() {
        let sh = ScenarioConfig::shanghai_like();
        assert_eq!(sh.city.expected_segments(), 5928);
        assert_eq!(sh.fleet.fleet_size, 2000);
        let sz = ScenarioConfig::shenzhen_like();
        assert!(sz.city.expected_segments() > sh.city.expected_segments());
        assert_eq!(sz.fleet.fleet_size, 8000);
    }

    #[test]
    fn central_segments_are_central_and_sorted() {
        let net = generate_grid_city(&GridCityConfig::small_test());
        let picked = central_segments(&net, 10);
        assert_eq!(picked.len(), 10);
        assert!(picked.windows(2).all(|w| w[0] < w[1]));
        // All picked midpoints closer to the centre than the worst
        // non-picked one.
        let bb = net.bounding_box().unwrap();
        let centre =
            roadnet::geometry::Point::new((bb.min.x + bb.max.x) / 2.0, (bb.min.y + bb.max.y) / 2.0);
        let d = |i: usize| net.segment_point(roadnet::SegmentId(i as u32), 0.5).distance(centre);
        let max_picked = picked.iter().map(|&i| d(i)).fold(0.0, f64::max);
        let min_unpicked = (0..net.segment_count())
            .filter(|i| !picked.contains(i))
            .map(d)
            .fold(f64::INFINITY, f64::min);
        assert!(max_picked <= min_unpicked + 1e-9);
    }

    #[test]
    #[should_panic(expected = "more segments")]
    fn central_segments_overflow_panics() {
        let net = generate_grid_city(&GridCityConfig::small_test());
        central_segments(&net, 1000);
    }
}
