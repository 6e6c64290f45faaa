//! Probe-taxi fleet simulation.
//!
//! Each vehicle independently alternates between idle pauses and trips
//! routed over shortest travel-time paths between random
//! origin–destination nodes ("probe vehicles move at their own wills" —
//! Section 1). While driving, the vehicle moves at the flow speed of the
//! segment it is on (scaled by a per-traversal factor: an individual car
//! is not exactly the mean of the flow) and emits a GPS report every
//! reporting interval; reports pass through the [`crate::gps`] loss/noise
//! model before reaching the monitoring centre.
//!
//! The simulation is event driven per vehicle — it jumps from segment
//! boundary to segment boundary and interpolates report positions —
//! so a 2,000-taxi day simulates in well under a second.

use crate::gps::GpsConfig;
use crate::ground_truth::GroundTruthModel;
use linalg::rng::normal;
use probes::{ProbeReport, VehicleId};
use rand::{RngExt, SeedableRng};
use roadnet::routing::random_trip;
use roadnet::RoadNetwork;

/// Fleet behaviour parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetConfig {
    /// Number of probe vehicles.
    pub fleet_size: usize,
    /// Nominal seconds between consecutive reports of one vehicle
    /// (the paper: "from 30 seconds to several minutes").
    pub report_interval_s: u64,
    /// Uniform jitter added to each interval, seconds.
    pub report_jitter_s: u64,
    /// Idle pause between trips, uniform range in seconds (taxis waiting
    /// for passengers do not contribute flow-speed samples).
    pub idle_time_s: (u64, u64),
    /// Std-dev of the per-traversal vehicle speed factor around 1.0
    /// (driver variability within the flow).
    pub vehicle_speed_factor_std: f64,
    /// RNG seed; vehicle `i` derives its own stream from `seed + i`.
    pub seed: u64,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            fleet_size: 500,
            report_interval_s: 60,
            report_jitter_s: 10,
            idle_time_s: (120, 1200),
            vehicle_speed_factor_std: 0.12,
            seed: 99,
        }
    }
}

/// Simulates the whole fleet over `[0, duration_s)`, returning all
/// delivered probe reports sorted by timestamp.
///
/// # Panics
///
/// Panics when configs are invalid (see [`GpsConfig::validate`]) or the
/// network/ground-truth disagree on segment count.
pub fn simulate_fleet(
    net: &RoadNetwork,
    ground: &GroundTruthModel,
    duration_s: u64,
    fleet: &FleetConfig,
    gps: &GpsConfig,
) -> Vec<ProbeReport> {
    gps.validate();
    assert!(fleet.report_interval_s > 0, "report interval must be positive");
    assert!(fleet.idle_time_s.0 <= fleet.idle_time_s.1, "idle range inverted");
    assert_eq!(
        ground.speeds().cols(),
        net.segment_count(),
        "ground truth and network disagree on segment count"
    );
    let mut all = Vec::new();
    for i in 0..fleet.fleet_size {
        let mut rng = rand::rngs::StdRng::seed_from_u64(fleet.seed.wrapping_add(i as u64));
        simulate_vehicle(
            VehicleId(i as u32),
            net,
            ground,
            duration_s,
            fleet,
            gps,
            &mut rng,
            &mut all,
        );
    }
    all.sort_by_key(|r| (r.timestamp_s, r.vehicle.0));
    all
}

/// Simulates a single vehicle, appending its delivered reports to `out`.
#[allow(clippy::too_many_arguments)]
fn simulate_vehicle(
    id: VehicleId,
    net: &RoadNetwork,
    ground: &GroundTruthModel,
    duration_s: u64,
    fleet: &FleetConfig,
    gps: &GpsConfig,
    rng: &mut rand::rngs::StdRng,
    out: &mut Vec<ProbeReport>,
) {
    // Stagger fleet start so report times don't align across vehicles.
    let mut now = rng.random_range(0.0..fleet.report_interval_s as f64);
    let mut next_report = now + report_gap(fleet, rng);

    while (now as u64) < duration_s {
        // Idle pause (no reports while parked).
        let idle = rng.random_range(fleet.idle_time_s.0..=fleet.idle_time_s.1) as f64;
        now += idle;
        next_report = next_report.max(now);
        if now as u64 >= duration_s {
            break;
        }

        // Next trip.
        let Some((_, _, route)) = random_trip(net, rng) else { break };
        for &sid in &route.segments {
            let seg = net.segment(sid);
            let flow_speed = ground.speed_at(now as u64, sid.index());
            let factor = (1.0 + normal(rng, 0.0, fleet.vehicle_speed_factor_std)).clamp(0.5, 1.5);
            let speed_kmh = (flow_speed * factor).max(2.0);
            let speed_ms = speed_kmh / 3.6;
            let exit = now + seg.length_m / speed_ms;

            // Direction of travel and the lane offset: vehicles drive on
            // the right-hand side ~3 m off the centreline, which is what
            // lets a directed map matcher separate the two directions of
            // a two-way road.
            let a = net.segment_start(sid);
            let b = net.segment_end(sid);
            let (ux, uy) = ((b.x - a.x) / seg.length_m, (b.y - a.y) / seg.length_m);
            const LANE_OFFSET_M: f64 = 3.0;

            // Emit every report falling inside this traversal.
            while next_report < exit {
                if next_report >= now {
                    let frac = (next_report - now) / (exit - now);
                    let centre = net.segment_point(sid, frac);
                    let pos = roadnet::geometry::Point::new(
                        centre.x + uy * LANE_OFFSET_M,
                        centre.y - ux * LANE_OFFSET_M,
                    );
                    let ts = next_report as u64;
                    if ts >= duration_s {
                        return;
                    }
                    if let Some((obs_pos, obs_speed)) =
                        gps.observe(rng, pos, speed_kmh, seg.urban_canyon)
                    {
                        // GPS course over ground, with a little angular
                        // noise.
                        let ang = normal(rng, 0.0, 0.08);
                        let (c, s) = (ang.cos(), ang.sin());
                        let heading = (ux * c - uy * s, ux * s + uy * c);
                        out.push(ProbeReport::with_heading(id, obs_pos, obs_speed, heading, ts));
                    }
                }
                next_report += report_gap(fleet, rng);
            }
            now = exit;
            if now as u64 >= duration_s {
                return;
            }
        }
    }
}

fn report_gap(fleet: &FleetConfig, rng: &mut rand::rngs::StdRng) -> f64 {
    let jitter = if fleet.report_jitter_s == 0 {
        0.0
    } else {
        rng.random_range(0.0..=fleet.report_jitter_s as f64)
    };
    fleet.report_interval_s as f64 + jitter
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ground_truth::GroundTruthConfig;
    use probes::{Granularity, SlotGrid};
    use roadnet::generator::{generate_grid_city, GridCityConfig};
    use roadnet::matching::SegmentIndex;

    fn setup(duration_s: u64) -> (RoadNetwork, GroundTruthModel) {
        let net = generate_grid_city(&GridCityConfig::small_test());
        let grid = SlotGrid::covering(0, duration_s, Granularity::Min15);
        let ground = GroundTruthModel::generate(&net, grid, &GroundTruthConfig::default());
        (net, ground)
    }

    #[test]
    fn reports_sorted_and_in_window() {
        let (net, ground) = setup(7200);
        let fleet = FleetConfig { fleet_size: 10, ..FleetConfig::default() };
        let reports = simulate_fleet(&net, &ground, 7200, &fleet, &GpsConfig::default());
        assert!(!reports.is_empty());
        for w in reports.windows(2) {
            assert!(w[0].timestamp_s <= w[1].timestamp_s);
        }
        assert!(reports.iter().all(|r| r.timestamp_s < 7200));
    }

    #[test]
    fn report_rate_close_to_interval() {
        let (net, ground) = setup(7200);
        let fleet = FleetConfig {
            fleet_size: 20,
            report_interval_s: 60,
            report_jitter_s: 0,
            idle_time_s: (0, 1), // nearly always driving
            ..FleetConfig::default()
        };
        let gps = GpsConfig { dropout_prob: 0.0, canyon_dropout_prob: 0.0, ..GpsConfig::default() };
        let reports = simulate_fleet(&net, &ground, 7200, &fleet, &gps);
        // 20 vehicles * 7200 s / 60 s = 2400 expected; allow trip-boundary
        // slack.
        let per_vehicle = reports.len() as f64 / 20.0;
        assert!((per_vehicle - 120.0).abs() < 15.0, "per-vehicle {per_vehicle}");
    }

    #[test]
    fn deterministic_per_seed() {
        let (net, ground) = setup(3600);
        let fleet = FleetConfig { fleet_size: 5, ..FleetConfig::default() };
        let a = simulate_fleet(&net, &ground, 3600, &fleet, &GpsConfig::default());
        let b = simulate_fleet(&net, &ground, 3600, &fleet, &GpsConfig::default());
        assert_eq!(a, b);
        let fleet2 = FleetConfig { seed: 1, ..fleet };
        let c = simulate_fleet(&net, &ground, 3600, &fleet2, &GpsConfig::default());
        assert_ne!(a, c);
    }

    #[test]
    fn more_vehicles_more_reports() {
        let (net, ground) = setup(3600);
        let small = FleetConfig { fleet_size: 5, ..FleetConfig::default() };
        let big = FleetConfig { fleet_size: 40, ..FleetConfig::default() };
        let gps = GpsConfig::default();
        let a = simulate_fleet(&net, &ground, 3600, &small, &gps);
        let b = simulate_fleet(&net, &ground, 3600, &big, &gps);
        assert!(b.len() > 3 * a.len(), "{} vs {}", a.len(), b.len());
    }

    #[test]
    fn reported_positions_near_network() {
        let (net, ground) = setup(3600);
        let fleet = FleetConfig { fleet_size: 10, ..FleetConfig::default() };
        let reports = simulate_fleet(&net, &ground, 3600, &fleet, &GpsConfig::default());
        let index = SegmentIndex::build(&net, 100.0);
        let matched =
            reports.iter().filter(|r| index.match_point(&net, r.position, 80.0).is_some()).count();
        // Virtually every report should match within 80 m (noise std 8/25 m).
        assert!(matched as f64 > 0.97 * reports.len() as f64, "{matched}/{}", reports.len());
    }

    #[test]
    fn probe_speeds_track_flow_speeds() {
        // With zero GPS noise and a calm network, the average probe speed
        // observed on a segment should approximate the ground truth —
        // the paper's Definition 1 approximation.
        let net = generate_grid_city(&GridCityConfig::small_test());
        let grid = SlotGrid::covering(0, 3 * 3600, Granularity::Min60);
        let gt_cfg = GroundTruthConfig {
            noise_std_kmh: 0.0,
            incident_rate_per_segment_day: 0.0,
            ..GroundTruthConfig::default()
        };
        let ground = GroundTruthModel::generate(&net, grid, &gt_cfg);
        let fleet = FleetConfig {
            fleet_size: 60,
            report_interval_s: 30,
            report_jitter_s: 0,
            idle_time_s: (0, 60),
            vehicle_speed_factor_std: 0.05,
            seed: 5,
        };
        let gps = GpsConfig {
            position_noise_std_m: 0.0,
            canyon_position_noise_std_m: 0.0,
            speed_noise_std_kmh: 0.0,
            dropout_prob: 0.0,
            canyon_dropout_prob: 0.0,
        };
        let reports = simulate_fleet(&net, &ground, 3 * 3600, &fleet, &gps);
        let index = SegmentIndex::build(&net, 100.0);
        let tcm = probes::tcm::build_tcm_from_reports(&reports, &net, &index, &grid, 20.0);
        // Over observed cells with several samples, relative error of the
        // averaged probe speed vs ground truth should be small.
        let mut rel_err_sum = 0.0;
        let mut count = 0;
        for (t, c, v) in tcm.observed_entries() {
            let truth = ground.speeds().get(t, c);
            rel_err_sum += (v - truth).abs() / truth;
            count += 1;
        }
        assert!(count > 50, "too few observed cells: {count}");
        let mean_rel = rel_err_sum / count as f64;
        assert!(mean_rel < 0.12, "mean relative error {mean_rel}");
    }

    #[test]
    #[should_panic(expected = "segment count")]
    fn mismatched_ground_truth_rejected() {
        let (net, _) = setup(3600);
        let other_net = generate_grid_city(&GridCityConfig {
            rows: 3,
            cols: 3,
            ..GridCityConfig::small_test()
        });
        let grid = SlotGrid::covering(0, 3600, Granularity::Min15);
        let ground = GroundTruthModel::generate(&other_net, grid, &GroundTruthConfig::default());
        simulate_fleet(&net, &ground, 3600, &FleetConfig::default(), &GpsConfig::default());
    }
}
