//! The road-network graph model.

use crate::geometry::{BoundingBox, Point};
use crate::{NodeId, SegmentId};

/// Functional class of a road segment. Classes differ in free-flow speed
/// and in how strongly rush-hour congestion depresses them, mirroring the
/// arterial/side-street distinction running through the paper's related
/// work (e.g. the probe-penetration analysis of Ferman et al. \[13\]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RoadClass {
    /// Major urban arterial: high free-flow speed, heavy rush-hour dips.
    Arterial,
    /// Collector road distributing traffic between arterials and locals.
    Collector,
    /// Local/side street: low speed, milder but noisier congestion.
    Local,
}

impl RoadClass {
    /// Typical free-flow speed for the class, km/h.
    pub fn default_free_flow_kmh(self) -> f64 {
        match self {
            RoadClass::Arterial => 60.0,
            RoadClass::Collector => 45.0,
            RoadClass::Local => 30.0,
        }
    }
}

/// A directed road segment between two neighbouring intersections — the
/// spatial unit of the paper's traffic condition matrix (one column per
/// segment).
#[derive(Debug, Clone, PartialEq)]
pub struct Segment {
    /// Identifier; equals the segment's index in the network.
    pub id: SegmentId,
    /// Upstream intersection.
    pub from: NodeId,
    /// Downstream intersection.
    pub to: NodeId,
    /// Length in metres (straight-line between endpoints).
    pub length_m: f64,
    /// Functional class.
    pub class: RoadClass,
    /// Free-flow speed in km/h for this particular segment.
    pub free_flow_kmh: f64,
    /// Whether the segment runs through an "urban canyon" — tall-building
    /// corridors where the paper notes GPS/GPRS reports are frequently
    /// lost to attenuation and multipath.
    pub urban_canyon: bool,
}

impl Segment {
    /// Free-flow traversal time in seconds.
    pub fn free_flow_time_s(&self) -> f64 {
        self.length_m / (self.free_flow_kmh / 3.6)
    }
}

/// An immutable directed road network: intersections (nodes) with planar
/// positions, and directed segments between them.
///
/// Construct via [`crate::RoadNetworkBuilder`] or
/// [`crate::generator::generate_grid_city`].
#[derive(Debug, Clone)]
pub struct RoadNetwork {
    pub(crate) nodes: Vec<Point>,
    pub(crate) segments: Vec<Segment>,
    /// Outgoing segment ids per node, for routing.
    pub(crate) out_segments: Vec<Vec<SegmentId>>,
}

impl RoadNetwork {
    /// Number of intersections.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of directed segments (the `n` of the paper's m × n TCM when
    /// the whole network is estimated).
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Position of a node.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn node(&self, id: NodeId) -> Point {
        self.nodes[id.index()]
    }

    /// The segment with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn segment(&self, id: SegmentId) -> &Segment {
        &self.segments[id.index()]
    }

    /// All segments in id order.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Iterator over node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Iterator over segment ids.
    pub fn segment_ids(&self) -> impl Iterator<Item = SegmentId> + '_ {
        (0..self.segments.len() as u32).map(SegmentId)
    }

    /// Segments leaving `node`.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn outgoing(&self, node: NodeId) -> &[SegmentId] {
        &self.out_segments[node.index()]
    }

    /// Start point of a segment.
    pub fn segment_start(&self, id: SegmentId) -> Point {
        self.node(self.segment(id).from)
    }

    /// End point of a segment.
    pub fn segment_end(&self, id: SegmentId) -> Point {
        self.node(self.segment(id).to)
    }

    /// Point at fraction `t ∈ [0, 1]` along the segment.
    pub fn segment_point(&self, id: SegmentId, t: f64) -> Point {
        self.segment_start(id).lerp(self.segment_end(id), t.clamp(0.0, 1.0))
    }

    /// Bounding box of all nodes; `None` for an empty network.
    pub fn bounding_box(&self) -> Option<BoundingBox> {
        BoundingBox::from_points(self.nodes.iter().copied())
    }

    /// Ids of segments whose *from* node is the *to* node of `id` —
    /// i.e. the set of directly connected downstream continuations. Used
    /// by the matrix-selection study (Section 4.5, "Set 1" = directly
    /// connected segments).
    pub fn downstream_neighbors(&self, id: SegmentId) -> Vec<SegmentId> {
        self.outgoing(self.segment(id).to).to_vec()
    }

    /// Segments adjacent to `id` in the undirected sense: sharing either
    /// endpoint (excluding `id` itself and its reverse twin is *not*
    /// excluded — the reverse direction is a distinct traffic state).
    pub fn touching_segments(&self, id: SegmentId) -> Vec<SegmentId> {
        let seg = self.segment(id);
        let mut out: Vec<SegmentId> = self
            .segments
            .iter()
            .filter(|s| {
                s.id != id
                    && (s.from == seg.from
                        || s.from == seg.to
                        || s.to == seg.from
                        || s.to == seg.to)
            })
            .map(|s| s.id)
            .collect();
        out.sort();
        out.dedup();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RoadNetworkBuilder;

    fn tiny() -> RoadNetwork {
        // 0 --s0--> 1 --s1--> 2, plus 1 --s2--> 0
        let mut b = RoadNetworkBuilder::new();
        let n0 = b.add_node(Point::new(0.0, 0.0));
        let n1 = b.add_node(Point::new(100.0, 0.0));
        let n2 = b.add_node(Point::new(200.0, 0.0));
        b.add_segment(n0, n1, RoadClass::Local, None, false).unwrap();
        b.add_segment(n1, n2, RoadClass::Arterial, Some(50.0), true).unwrap();
        b.add_segment(n1, n0, RoadClass::Local, None, false).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn counts_and_lookup() {
        let net = tiny();
        assert_eq!(net.node_count(), 3);
        assert_eq!(net.segment_count(), 3);
        let s1 = net.segment(SegmentId(1));
        assert_eq!(s1.from, NodeId(1));
        assert_eq!(s1.to, NodeId(2));
        assert_eq!(s1.free_flow_kmh, 50.0);
        assert!(s1.urban_canyon);
        assert!((s1.length_m - 100.0).abs() < 1e-9);
    }

    #[test]
    fn default_free_flow_by_class() {
        let net = tiny();
        let s0 = net.segment(SegmentId(0));
        assert_eq!(s0.free_flow_kmh, RoadClass::Local.default_free_flow_kmh());
        assert!(
            RoadClass::Arterial.default_free_flow_kmh() > RoadClass::Local.default_free_flow_kmh()
        );
    }

    #[test]
    fn free_flow_time() {
        let net = tiny();
        let s1 = net.segment(SegmentId(1));
        // 100 m at 50 km/h = 7.2 s.
        assert!((s1.free_flow_time_s() - 7.2).abs() < 1e-9);
    }

    #[test]
    fn outgoing_adjacency() {
        let net = tiny();
        assert_eq!(net.outgoing(NodeId(0)), &[SegmentId(0)]);
        let mut out1 = net.outgoing(NodeId(1)).to_vec();
        out1.sort();
        assert_eq!(out1, vec![SegmentId(1), SegmentId(2)]);
        assert!(net.outgoing(NodeId(2)).is_empty());
    }

    #[test]
    fn segment_geometry() {
        let net = tiny();
        assert_eq!(net.segment_start(SegmentId(0)), Point::new(0.0, 0.0));
        assert_eq!(net.segment_end(SegmentId(0)), Point::new(100.0, 0.0));
        assert_eq!(net.segment_point(SegmentId(0), 0.25), Point::new(25.0, 0.0));
        // Clamped.
        assert_eq!(net.segment_point(SegmentId(0), 2.0), Point::new(100.0, 0.0));
    }

    #[test]
    fn neighborhood_queries() {
        let net = tiny();
        let down = net.downstream_neighbors(SegmentId(0));
        let mut down_sorted = down.clone();
        down_sorted.sort();
        assert_eq!(down_sorted, vec![SegmentId(1), SegmentId(2)]);
        let touching = net.touching_segments(SegmentId(0));
        assert_eq!(touching, vec![SegmentId(1), SegmentId(2)]);
    }

    #[test]
    fn bounding_box_spans_nodes() {
        let net = tiny();
        let bb = net.bounding_box().unwrap();
        assert_eq!(bb.width(), 200.0);
        assert_eq!(bb.height(), 0.0);
    }
}
