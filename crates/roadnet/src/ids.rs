//! Typed identifiers for network elements.

use std::fmt;

/// Identifier of a road intersection (graph node).
///
/// Newtype over the index into [`crate::RoadNetwork`]'s node table, so node
/// and segment indices cannot be confused at compile time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

/// Identifier of a directed road segment (link between two neighbouring
/// intersections) — the unit whose traffic condition the paper estimates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SegmentId(pub u32);

impl NodeId {
    /// The node's position in the network's node table.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl SegmentId {
    /// The segment's position in the network's segment table, and its
    /// column index in traffic condition matrices built over the full
    /// network.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for SegmentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

impl From<u32> for SegmentId {
    fn from(v: u32) -> Self {
        SegmentId(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_index() {
        assert_eq!(NodeId(3).to_string(), "n3");
        assert_eq!(SegmentId(7).to_string(), "s7");
        assert_eq!(NodeId(3).index(), 3);
        assert_eq!(SegmentId::from(9u32).index(), 9);
    }

    #[test]
    fn ordering_follows_numeric() {
        assert!(SegmentId(2) < SegmentId(10));
        assert!(NodeId(0) < NodeId(1));
    }
}
