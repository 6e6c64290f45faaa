//! Network structural analysis: strong connectivity and coverage stats.
//!
//! Imported (or generated) networks should be validated before running
//! fleets over them — a taxi trapped in a dead-end component never
//! samples the rest of the city. This module provides Tarjan's strongly
//! connected components plus the summary statistics the CLI's `analyze`
//! path and the generators' tests rely on.

use crate::network::RoadNetwork;
use crate::NodeId;

/// Strongly connected components of the directed road graph, largest
/// first. Each component lists its node ids (ascending).
pub fn strongly_connected_components(net: &RoadNetwork) -> Vec<Vec<NodeId>> {
    // Iterative Tarjan (explicit stack; city graphs overflow recursion).
    let n = net.node_count();
    let mut index = vec![usize::MAX; n];
    let mut lowlink = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut components: Vec<Vec<NodeId>> = Vec::new();

    // DFS state machine: (node, neighbour cursor).
    for start in 0..n {
        if index[start] != usize::MAX {
            continue;
        }
        let mut call_stack: Vec<(usize, usize)> = vec![(start, 0)];
        while let Some(&mut (v, ref mut cursor)) = call_stack.last_mut() {
            if *cursor == 0 {
                index[v] = next_index;
                lowlink[v] = next_index;
                next_index += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            let out = net.outgoing(NodeId(v as u32));
            if *cursor < out.len() {
                let w = net.segment(out[*cursor]).to.index();
                *cursor += 1;
                if index[w] == usize::MAX {
                    call_stack.push((w, 0));
                } else if on_stack[w] {
                    lowlink[v] = lowlink[v].min(index[w]);
                }
            } else {
                // Node finished: pop and propagate lowlink.
                call_stack.pop();
                if let Some(&mut (parent, _)) = call_stack.last_mut() {
                    lowlink[parent] = lowlink[parent].min(lowlink[v]);
                }
                if lowlink[v] == index[v] {
                    let mut comp = Vec::new();
                    while let Some(w) = stack.pop() {
                        on_stack[w] = false;
                        comp.push(NodeId(w as u32));
                        if w == v {
                            break;
                        }
                    }
                    comp.sort();
                    components.push(comp);
                }
            }
        }
    }
    components.sort_by(|a, b| b.len().cmp(&a.len()).then(a[0].cmp(&b[0])));
    components
}

/// Whether every node can reach every other node (single SCC).
pub fn is_strongly_connected(net: &RoadNetwork) -> bool {
    let comps = strongly_connected_components(net);
    comps.len() == 1
}

/// Summary statistics of a network's structure.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkStats {
    /// Number of intersections.
    pub nodes: usize,
    /// Number of directed segments.
    pub segments: usize,
    /// Number of strongly connected components.
    pub scc_count: usize,
    /// Fraction of nodes in the largest SCC.
    pub largest_scc_fraction: f64,
    /// Total road length, metres (directed; two-way roads count twice).
    pub total_length_m: f64,
    /// Fraction of segments flagged urban canyon.
    pub canyon_fraction: f64,
    /// Mean out-degree.
    pub mean_out_degree: f64,
}

/// Computes [`NetworkStats`].
pub fn network_stats(net: &RoadNetwork) -> NetworkStats {
    let comps = strongly_connected_components(net);
    let largest = comps.first().map_or(0, Vec::len);
    let canyon = net.segments().iter().filter(|s| s.urban_canyon).count();
    NetworkStats {
        nodes: net.node_count(),
        segments: net.segment_count(),
        scc_count: comps.len(),
        largest_scc_fraction: largest as f64 / net.node_count().max(1) as f64,
        total_length_m: net.segments().iter().map(|s| s.length_m).sum(),
        canyon_fraction: canyon as f64 / net.segment_count().max(1) as f64,
        mean_out_degree: net.segment_count() as f64 / net.node_count().max(1) as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::RoadNetworkBuilder;
    use crate::generator::{generate_grid_city, GridCityConfig};
    use crate::geometry::Point;
    use crate::RoadClass;

    #[test]
    fn grid_city_is_strongly_connected() {
        let net = generate_grid_city(&GridCityConfig::small_test());
        assert!(is_strongly_connected(&net));
        let comps = strongly_connected_components(&net);
        assert_eq!(comps.len(), 1);
        assert_eq!(comps[0].len(), net.node_count());
    }

    #[test]
    fn one_way_line_fragments_into_singletons() {
        // 0 -> 1 -> 2 with no way back: three SCCs.
        let mut b = RoadNetworkBuilder::new();
        let n0 = b.add_node(Point::new(0.0, 0.0));
        let n1 = b.add_node(Point::new(100.0, 0.0));
        let n2 = b.add_node(Point::new(200.0, 0.0));
        b.add_segment(n0, n1, RoadClass::Local, None, false).unwrap();
        b.add_segment(n1, n2, RoadClass::Local, None, false).unwrap();
        let net = b.build().unwrap();
        let comps = strongly_connected_components(&net);
        assert_eq!(comps.len(), 3);
        assert!(comps.iter().all(|c| c.len() == 1));
        assert!(!is_strongly_connected(&net));
    }

    #[test]
    fn cycle_plus_tail() {
        // 0 <-> 1 cycle, plus 1 -> 2 tail: SCCs {0,1} and {2}.
        let mut b = RoadNetworkBuilder::new();
        let n0 = b.add_node(Point::new(0.0, 0.0));
        let n1 = b.add_node(Point::new(100.0, 0.0));
        let n2 = b.add_node(Point::new(200.0, 0.0));
        b.add_segment(n0, n1, RoadClass::Local, None, false).unwrap();
        b.add_segment(n1, n0, RoadClass::Local, None, false).unwrap();
        b.add_segment(n1, n2, RoadClass::Local, None, false).unwrap();
        let net = b.build().unwrap();
        let comps = strongly_connected_components(&net);
        assert_eq!(comps.len(), 2);
        assert_eq!(comps[0], vec![NodeId(0), NodeId(1)]); // largest first
        assert_eq!(comps[1], vec![NodeId(2)]);
    }

    #[test]
    fn stats_of_grid_city() {
        let cfg = GridCityConfig::small_test();
        let net = generate_grid_city(&cfg);
        let stats = network_stats(&net);
        assert_eq!(stats.nodes, 25);
        assert_eq!(stats.segments, 80);
        assert_eq!(stats.scc_count, 1);
        assert_eq!(stats.largest_scc_fraction, 1.0);
        // 80 segments of 200 m.
        assert!((stats.total_length_m - 16_000.0).abs() < 1e-6);
        assert!(stats.canyon_fraction >= 0.0 && stats.canyon_fraction <= 1.0);
        assert!((stats.mean_out_degree - 80.0 / 25.0).abs() < 1e-12);
    }

    #[test]
    fn scc_handles_large_grid_iteratively() {
        // Deep enough that recursive Tarjan would risk the stack.
        let mut cfg = GridCityConfig::small_test();
        cfg.rows = 60;
        cfg.cols = 60;
        let net = generate_grid_city(&cfg);
        assert!(is_strongly_connected(&net));
    }
}
