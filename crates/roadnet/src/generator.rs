//! Synthetic grid-city generator.
//!
//! Stands in for the Shanghai/Shenzhen map data the paper uses: a
//! rows × cols lattice of intersections spaced one block apart, with two
//! directed segments per adjacent pair. Streets are classed as arterial,
//! collector, or local on a regular pattern (every k-th street is an
//! arterial, as in real grid cities), and a central "downtown core" is
//! marked as urban canyon with elevated GPS-loss probability, reproducing
//! the canyon dropouts the paper describes in Section 1.

use crate::builder::RoadNetworkBuilder;
use crate::geometry::Point;
use crate::network::{RoadClass, RoadNetwork};
use crate::NodeId;
use rand::{RngExt, SeedableRng};

/// Parameters of the synthetic grid city.
#[derive(Debug, Clone, PartialEq)]
pub struct GridCityConfig {
    /// Number of intersection rows.
    pub rows: usize,
    /// Number of intersection columns.
    pub cols: usize,
    /// Block edge length in metres.
    pub block_len_m: f64,
    /// Every `arterial_every`-th street (row/column index divisible by
    /// this) is an arterial. `0` disables arterials.
    pub arterial_every: usize,
    /// Among non-arterial streets, every `collector_every`-th is a
    /// collector. `0` disables collectors.
    pub collector_every: usize,
    /// Half-width of the central canyon core, as a fraction of the city
    /// extent (`0.25` means the central 50% × 50% box).
    pub canyon_core_fraction: f64,
    /// Probability that a segment inside the core is an urban canyon.
    pub canyon_prob_core: f64,
    /// Probability that a segment outside the core is an urban canyon.
    pub canyon_prob_outer: f64,
    /// Relative jitter applied to each segment's free-flow speed
    /// (uniform in `[1 - j, 1 + j]`).
    pub speed_jitter: f64,
    /// RNG seed: identical configs generate identical cities.
    pub seed: u64,
}

impl GridCityConfig {
    /// A 5 × 5 test city — small enough for exhaustive assertions.
    pub fn small_test() -> Self {
        Self {
            rows: 5,
            cols: 5,
            block_len_m: 200.0,
            arterial_every: 2,
            collector_every: 0,
            canyon_core_fraction: 0.25,
            canyon_prob_core: 0.5,
            canyon_prob_outer: 0.05,
            speed_jitter: 0.1,
            seed: 1,
        }
    }

    /// Inner-Shanghai-like city: 39 × 39 intersections giving 5,928
    /// directed segments — matching the paper's 5,812-segment inner
    /// region in scale. Dense arterials, pronounced canyon core.
    pub fn shanghai_like() -> Self {
        Self {
            rows: 39,
            cols: 39,
            block_len_m: 250.0,
            arterial_every: 5,
            collector_every: 2,
            canyon_core_fraction: 0.2,
            canyon_prob_core: 0.35,
            canyon_prob_outer: 0.04,
            speed_jitter: 0.15,
            seed: 20070218, // the Feb 18, 2007 study date
        }
    }

    /// Shenzhen-like city: similar block structure but configured so that
    /// the *studied subnetwork* sees a sparser probe distribution (the
    /// fleet spreads over a larger area — see `traffic-sim`'s scenario
    /// presets). Geometry differences are secondary.
    pub fn shenzhen_like() -> Self {
        Self {
            rows: 44,
            cols: 44,
            block_len_m: 300.0,
            arterial_every: 6,
            collector_every: 2,
            canyon_core_fraction: 0.18,
            canyon_prob_core: 0.3,
            canyon_prob_outer: 0.03,
            speed_jitter: 0.18,
            seed: 755,
        }
    }

    /// Expected number of directed segments for this grid.
    pub fn expected_segments(&self) -> usize {
        2 * (self.rows * self.cols.saturating_sub(1) + self.cols * self.rows.saturating_sub(1))
    }
}

/// Generates the grid city described by `config`.
///
/// # Panics
///
/// Panics when the grid is smaller than 2 × 2 or probabilities are
/// outside `[0, 1]` (configuration bugs, not runtime conditions).
pub fn generate_grid_city(config: &GridCityConfig) -> RoadNetwork {
    assert!(config.rows >= 2 && config.cols >= 2, "grid must be at least 2x2");
    assert!((0.0..=1.0).contains(&config.canyon_prob_core), "canyon_prob_core out of range");
    assert!((0.0..=1.0).contains(&config.canyon_prob_outer), "canyon_prob_outer out of range");
    assert!((0.0..=0.95).contains(&config.speed_jitter), "speed_jitter out of range");

    let mut rng = rand::rngs::StdRng::seed_from_u64(config.seed);
    let mut b = RoadNetworkBuilder::new();

    // Nodes in row-major order.
    for r in 0..config.rows {
        for c in 0..config.cols {
            b.add_node(Point::new(c as f64 * config.block_len_m, r as f64 * config.block_len_m));
        }
    }
    let node_at = |r: usize, c: usize| NodeId((r * config.cols + c) as u32);

    // Street class from its index along the perpendicular axis.
    let class_of = |street_index: usize| -> RoadClass {
        if config.arterial_every > 0 && street_index.is_multiple_of(config.arterial_every) {
            RoadClass::Arterial
        } else if config.collector_every > 0 && street_index.is_multiple_of(config.collector_every)
        {
            RoadClass::Collector
        } else {
            RoadClass::Local
        }
    };

    // Canyon core box in grid coordinates.
    let center_r = (config.rows - 1) as f64 / 2.0;
    let center_c = (config.cols - 1) as f64 / 2.0;
    let half_r = config.canyon_core_fraction * config.rows as f64;
    let half_c = config.canyon_core_fraction * config.cols as f64;
    let in_core = |r: f64, c: f64| (r - center_r).abs() <= half_r && (c - center_c).abs() <= half_c;

    let add_bidirectional = |b: &mut RoadNetworkBuilder,
                             rng: &mut rand::rngs::StdRng,
                             from: NodeId,
                             to: NodeId,
                             class: RoadClass,
                             mid_r: f64,
                             mid_c: f64| {
        let canyon_p =
            if in_core(mid_r, mid_c) { config.canyon_prob_core } else { config.canyon_prob_outer };
        for (a, z) in [(from, to), (to, from)] {
            let jitter = 1.0 + rng.random_range(-config.speed_jitter..=config.speed_jitter);
            let speed = class.default_free_flow_kmh() * jitter;
            let canyon = rng.random_range(0.0..1.0) < canyon_p;
            b.add_segment(a, z, class, Some(speed), canyon)
                .expect("generator produces only valid segments");
        }
    };

    // Horizontal streets (constant row r): class keyed by r.
    for r in 0..config.rows {
        let class = class_of(r);
        for c in 0..config.cols - 1 {
            add_bidirectional(
                &mut b,
                &mut rng,
                node_at(r, c),
                node_at(r, c + 1),
                class,
                r as f64,
                c as f64 + 0.5,
            );
        }
    }
    // Vertical streets (constant column c): class keyed by c.
    for c in 0..config.cols {
        let class = class_of(c);
        for r in 0..config.rows - 1 {
            add_bidirectional(
                &mut b,
                &mut rng,
                node_at(r, c),
                node_at(r + 1, c),
                class,
                r as f64 + 0.5,
                c as f64,
            );
        }
    }

    b.build().expect("non-degenerate grid always builds")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SegmentId;

    #[test]
    fn segment_count_matches_formula() {
        let cfg = GridCityConfig::small_test();
        let net = generate_grid_city(&cfg);
        assert_eq!(net.segment_count(), cfg.expected_segments());
        assert_eq!(net.node_count(), 25);
        // 5x5: 2 * (5*4 + 5*4) = 80.
        assert_eq!(net.segment_count(), 80);
    }

    #[test]
    fn deterministic_for_same_seed() {
        let cfg = GridCityConfig::small_test();
        let a = generate_grid_city(&cfg);
        let b = generate_grid_city(&cfg);
        assert_eq!(a.segment_count(), b.segment_count());
        for (sa, sb) in a.segments().iter().zip(b.segments()) {
            assert_eq!(sa, sb);
        }
    }

    #[test]
    fn different_seed_changes_speeds() {
        let cfg = GridCityConfig::small_test();
        let mut cfg2 = cfg.clone();
        cfg2.seed = 999;
        let a = generate_grid_city(&cfg);
        let b = generate_grid_city(&cfg2);
        let differing = a
            .segments()
            .iter()
            .zip(b.segments())
            .filter(|(x, y)| x.free_flow_kmh != y.free_flow_kmh)
            .count();
        assert!(differing > 0);
    }

    #[test]
    fn arterials_on_configured_streets() {
        let cfg = GridCityConfig::small_test(); // arterial_every = 2
        let net = generate_grid_city(&cfg);
        // Horizontal segment on row 0 must be arterial; row 1 local.
        let row0 = net
            .segments()
            .iter()
            .find(|s| {
                let a = net.node(s.from);
                let z = net.node(s.to);
                a.y == 0.0 && z.y == 0.0
            })
            .unwrap();
        assert_eq!(row0.class, RoadClass::Arterial);
        let row1 = net
            .segments()
            .iter()
            .find(|s| {
                let a = net.node(s.from);
                let z = net.node(s.to);
                a.y == 200.0 && z.y == 200.0
            })
            .unwrap();
        assert_eq!(row1.class, RoadClass::Local);
    }

    #[test]
    fn speed_jitter_bounded() {
        let net = generate_grid_city(&GridCityConfig::small_test());
        for s in net.segments() {
            let base = s.class.default_free_flow_kmh();
            assert!(s.free_flow_kmh >= base * 0.9 - 1e-9);
            assert!(s.free_flow_kmh <= base * 1.1 + 1e-9);
        }
    }

    #[test]
    fn canyons_concentrate_in_core() {
        let mut cfg = GridCityConfig::shanghai_like();
        cfg.canyon_prob_core = 0.9;
        cfg.canyon_prob_outer = 0.0;
        let net = generate_grid_city(&cfg);
        let canyon_count = net.segments().iter().filter(|s| s.urban_canyon).count();
        assert!(canyon_count > 0);
        // Every canyon segment's midpoint must be inside the core box.
        let bb = net.bounding_box().unwrap();
        let cx = (bb.min.x + bb.max.x) / 2.0;
        let cy = (bb.min.y + bb.max.y) / 2.0;
        for s in net.segments().iter().filter(|s| s.urban_canyon) {
            let mid = net.segment_point(s.id, 0.5);
            assert!((mid.x - cx).abs() <= bb.width() * cfg.canyon_core_fraction + cfg.block_len_m);
            assert!((mid.y - cy).abs() <= bb.height() * cfg.canyon_core_fraction + cfg.block_len_m);
        }
    }

    #[test]
    fn shanghai_like_scale() {
        let cfg = GridCityConfig::shanghai_like();
        // Matches the paper's 5,812-segment inner region in scale.
        assert_eq!(cfg.expected_segments(), 5928);
    }

    #[test]
    fn every_edge_has_both_directions() {
        let net = generate_grid_city(&GridCityConfig::small_test());
        for s in net.segments() {
            let twin = net.segments().iter().find(|t| t.from == s.to && t.to == s.from);
            assert!(twin.is_some(), "segment {} lacks a reverse twin", s.id);
        }
    }

    #[test]
    fn ids_are_dense_and_ordered() {
        let net = generate_grid_city(&GridCityConfig::small_test());
        for (i, s) in net.segments().iter().enumerate() {
            assert_eq!(s.id, SegmentId(i as u32));
        }
    }

    #[test]
    #[should_panic(expected = "at least 2x2")]
    fn tiny_grid_rejected() {
        let mut cfg = GridCityConfig::small_test();
        cfg.rows = 1;
        generate_grid_city(&cfg);
    }
}

/// Parameters of the radial (ring-and-spoke) city generator — a second
/// topology so downstream results can be checked for grid artifacts.
#[derive(Debug, Clone, PartialEq)]
pub struct RadialCityConfig {
    /// Number of concentric rings (≥ 1).
    pub rings: usize,
    /// Nodes per ring (≥ 3).
    pub spokes: usize,
    /// Radial distance between consecutive rings, metres.
    pub ring_spacing_m: f64,
    /// Probability that a segment is an urban canyon (uniform here; the
    /// centre of a radial city is its densest part, but canyon placement
    /// is not this generator's focus).
    pub canyon_prob: f64,
    /// Relative jitter on free-flow speeds.
    pub speed_jitter: f64,
    /// RNG seed.
    pub seed: u64,
}

impl RadialCityConfig {
    /// A small test city: 3 rings × 8 spokes.
    pub fn small_test() -> Self {
        Self {
            rings: 3,
            spokes: 8,
            ring_spacing_m: 300.0,
            canyon_prob: 0.1,
            speed_jitter: 0.1,
            seed: 3,
        }
    }

    /// Expected number of directed segments: each ring contributes
    /// `spokes` ring edges; each spoke contributes `rings` radial edges
    /// (centre→ring1→…); every edge is two directed segments.
    pub fn expected_segments(&self) -> usize {
        2 * (self.rings * self.spokes + self.rings * self.spokes)
    }
}

/// Generates a ring-and-spoke city: a centre node, `rings` concentric
/// rings of `spokes` nodes, ring edges (collectors) and radial edges
/// (arterials, the classic avenue pattern).
///
/// # Panics
///
/// Panics on a degenerate configuration (`rings == 0`, `spokes < 3`,
/// probabilities out of range).
pub fn generate_radial_city(config: &RadialCityConfig) -> RoadNetwork {
    assert!(config.rings >= 1, "need at least one ring");
    assert!(config.spokes >= 3, "need at least three spokes");
    assert!((0.0..=1.0).contains(&config.canyon_prob), "canyon_prob out of range");
    assert!((0.0..=0.95).contains(&config.speed_jitter), "speed_jitter out of range");

    let mut rng = rand::rngs::StdRng::seed_from_u64(config.seed);
    let mut b = RoadNetworkBuilder::new();
    let centre = b.add_node(Point::new(0.0, 0.0));
    // Ring r (1-based), spoke k -> node index 1 + (r-1)*spokes + k.
    let mut ring_nodes: Vec<Vec<NodeId>> = Vec::with_capacity(config.rings);
    for r in 1..=config.rings {
        let radius = r as f64 * config.ring_spacing_m;
        let nodes: Vec<NodeId> = (0..config.spokes)
            .map(|k| {
                let theta = 2.0 * std::f64::consts::PI * k as f64 / config.spokes as f64;
                b.add_node(Point::new(radius * theta.cos(), radius * theta.sin()))
            })
            .collect();
        ring_nodes.push(nodes);
    }

    let add_two_way = |b: &mut RoadNetworkBuilder,
                       rng: &mut rand::rngs::StdRng,
                       from: NodeId,
                       to: NodeId,
                       class: RoadClass| {
        for (a, z) in [(from, to), (to, from)] {
            let jitter = 1.0 + rng.random_range(-config.speed_jitter..=config.speed_jitter);
            let speed = class.default_free_flow_kmh() * jitter;
            let canyon = rng.random_range(0.0..1.0) < config.canyon_prob;
            b.add_segment(a, z, class, Some(speed), canyon)
                .expect("radial generator produces valid segments");
        }
    };

    // Radial arterials: centre -> ring1 -> ring2 -> ...
    for k in 0..config.spokes {
        add_two_way(&mut b, &mut rng, centre, ring_nodes[0][k], RoadClass::Arterial);
        for pair in ring_nodes.windows(2) {
            add_two_way(&mut b, &mut rng, pair[0][k], pair[1][k], RoadClass::Arterial);
        }
    }
    // Ring collectors.
    for nodes in &ring_nodes {
        for k in 0..config.spokes {
            add_two_way(
                &mut b,
                &mut rng,
                nodes[k],
                nodes[(k + 1) % config.spokes],
                RoadClass::Collector,
            );
        }
    }

    b.build().expect("non-degenerate radial city always builds")
}

#[cfg(test)]
mod radial_tests {
    use super::*;

    #[test]
    fn segment_count_matches_formula() {
        let cfg = RadialCityConfig::small_test();
        let net = generate_radial_city(&cfg);
        assert_eq!(net.segment_count(), cfg.expected_segments());
        assert_eq!(net.node_count(), 1 + 3 * 8);
    }

    #[test]
    fn radial_city_is_strongly_connected() {
        let net = generate_radial_city(&RadialCityConfig::small_test());
        assert!(crate::analysis::is_strongly_connected(&net));
    }

    #[test]
    fn spokes_are_arterials_rings_collectors() {
        let net = generate_radial_city(&RadialCityConfig::small_test());
        let arterials = net.segments().iter().filter(|s| s.class == RoadClass::Arterial).count();
        let collectors = net.segments().iter().filter(|s| s.class == RoadClass::Collector).count();
        // 8 spokes x 3 radial hops x 2 directions = 48 arterial segments;
        // 3 rings x 8 edges x 2 = 48 collectors.
        assert_eq!(arterials, 48);
        assert_eq!(collectors, 48);
    }

    #[test]
    fn deterministic_and_seed_sensitive() {
        let cfg = RadialCityConfig::small_test();
        let a = generate_radial_city(&cfg);
        let b = generate_radial_city(&cfg);
        for (x, y) in a.segments().iter().zip(b.segments()) {
            assert_eq!(x, y);
        }
        let c = generate_radial_city(&RadialCityConfig { seed: 99, ..cfg });
        assert!(a
            .segments()
            .iter()
            .zip(c.segments())
            .any(|(x, y)| x.free_flow_kmh != y.free_flow_kmh));
    }

    #[test]
    #[should_panic(expected = "three spokes")]
    fn degenerate_rejected() {
        generate_radial_city(&RadialCityConfig { spokes: 2, ..RadialCityConfig::small_test() });
    }
}
