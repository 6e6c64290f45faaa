//! Planar geometry helpers.
//!
//! The synthetic city lives in a local planar coordinate system measured in
//! metres, sidestepping geodesy: at city scale (tens of km) the error of a
//! local tangent plane vs. true longitude/latitude is irrelevant to every
//! experiment in the paper.

/// A point in the city's planar coordinate system (metres).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point {
    /// East–west coordinate in metres.
    pub x: f64,
    /// North–south coordinate in metres.
    pub y: f64,
}

impl Point {
    /// Creates a point from coordinates in metres.
    pub fn new(x: f64, y: f64) -> Self {
        Self { x, y }
    }

    /// Euclidean distance to `other` in metres.
    pub fn distance(self, other: Point) -> f64 {
        (self.x - other.x).hypot(self.y - other.y)
    }

    /// Linear interpolation: `self` at `t = 0`, `other` at `t = 1`.
    pub fn lerp(self, other: Point, t: f64) -> Point {
        Point::new(self.x + (other.x - self.x) * t, self.y + (other.y - self.y) * t)
    }
}

/// Squared distance from point `p` to the segment `[a, b]`, together with
/// the clamped projection parameter `t ∈ [0, 1]` of the closest point.
///
/// Map matching ranks candidate road segments by this distance.
pub fn point_segment_distance_sq(p: Point, a: Point, b: Point) -> (f64, f64) {
    let abx = b.x - a.x;
    let aby = b.y - a.y;
    let len_sq = abx * abx + aby * aby;
    let t = if len_sq == 0.0 {
        0.0
    } else {
        (((p.x - a.x) * abx + (p.y - a.y) * aby) / len_sq).clamp(0.0, 1.0)
    };
    let closest = a.lerp(b, t);
    let dx = p.x - closest.x;
    let dy = p.y - closest.y;
    (dx * dx + dy * dy, t)
}

/// Axis-aligned bounding box.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundingBox {
    /// Minimum corner.
    pub min: Point,
    /// Maximum corner.
    pub max: Point,
}

impl BoundingBox {
    /// Smallest box containing all `points`; `None` for an empty iterator.
    pub fn from_points(points: impl IntoIterator<Item = Point>) -> Option<Self> {
        let mut it = points.into_iter();
        let first = it.next()?;
        let mut bb = BoundingBox { min: first, max: first };
        for p in it {
            bb.min.x = bb.min.x.min(p.x);
            bb.min.y = bb.min.y.min(p.y);
            bb.max.x = bb.max.x.max(p.x);
            bb.max.y = bb.max.y.max(p.y);
        }
        Some(bb)
    }

    /// Box width in metres.
    pub fn width(&self) -> f64 {
        self.max.x - self.min.x
    }

    /// Box height in metres.
    pub fn height(&self) -> f64 {
        self.max.y - self.min.y
    }

    /// Whether `p` lies inside (inclusive) the box.
    pub fn contains(&self, p: Point) -> bool {
        p.x >= self.min.x && p.x <= self.max.x && p.y >= self.min.y && p.y <= self.max.y
    }

    /// Grows the box by `margin` metres on every side.
    pub fn expanded(&self, margin: f64) -> BoundingBox {
        BoundingBox {
            min: Point::new(self.min.x - margin, self.min.y - margin),
            max: Point::new(self.max.x + margin, self.max.y + margin),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_and_lerp() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(3.0, 4.0);
        assert!((a.distance(b) - 5.0).abs() < 1e-12);
        let mid = a.lerp(b, 0.5);
        assert_eq!(mid, Point::new(1.5, 2.0));
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
    }

    #[test]
    fn point_segment_distance_interior() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(10.0, 0.0);
        let (d2, t) = point_segment_distance_sq(Point::new(5.0, 3.0), a, b);
        assert!((d2 - 9.0).abs() < 1e-12);
        assert!((t - 0.5).abs() < 1e-12);
    }

    #[test]
    fn point_segment_distance_clamps_to_endpoints() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(10.0, 0.0);
        let (d2, t) = point_segment_distance_sq(Point::new(-3.0, 4.0), a, b);
        assert!((d2 - 25.0).abs() < 1e-12);
        assert_eq!(t, 0.0);
        let (d2, t) = point_segment_distance_sq(Point::new(13.0, -4.0), a, b);
        assert!((d2 - 25.0).abs() < 1e-12);
        assert_eq!(t, 1.0);
    }

    #[test]
    fn degenerate_segment() {
        let a = Point::new(2.0, 2.0);
        let (d2, t) = point_segment_distance_sq(Point::new(5.0, 6.0), a, a);
        assert!((d2 - 25.0).abs() < 1e-12);
        assert_eq!(t, 0.0);
    }

    #[test]
    fn bounding_box() {
        let pts = [Point::new(1.0, 5.0), Point::new(-2.0, 0.0), Point::new(4.0, 3.0)];
        let bb = BoundingBox::from_points(pts).unwrap();
        assert_eq!(bb.min, Point::new(-2.0, 0.0));
        assert_eq!(bb.max, Point::new(4.0, 5.0));
        assert_eq!(bb.width(), 6.0);
        assert_eq!(bb.height(), 5.0);
        assert!(bb.contains(Point::new(0.0, 2.0)));
        assert!(!bb.contains(Point::new(5.0, 2.0)));
        let grown = bb.expanded(1.0);
        assert!(grown.contains(Point::new(4.5, 5.5)));
        assert!(BoundingBox::from_points(std::iter::empty()).is_none());
    }
}
