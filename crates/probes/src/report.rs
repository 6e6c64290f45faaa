//! The probe data record.

use roadnet::geometry::Point;

/// Identifier of a probe vehicle (taxi).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VehicleId(pub u32);

impl VehicleId {
    /// Index form for table lookups.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for VehicleId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// One probe data update `s_v(t) = <id_v, p_v(t), q_v(t), t>` as defined
/// in Section 2.2 of the paper: vehicle identification, instant GPS
/// position, instantaneous GPS speed, and a timestamp.
///
/// The paper notes a report is ~40 bytes on the wire; this in-memory form
/// is 32 bytes, and a fleet-day of reports (4,000 taxis × 1 report/30 s)
/// fits easily in memory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbeReport {
    /// Reporting vehicle.
    pub vehicle: VehicleId,
    /// GPS position in the city's planar frame (metres). Stands in for
    /// the paper's longitude/latitude.
    pub position: Point,
    /// Instantaneous GPS speed, km/h. Never negative.
    pub speed_kmh: f64,
    /// GPS course over ground: the travel-direction vector (not
    /// necessarily normalized; `(0, 0)` = unknown). Real GPS receivers
    /// deliver this alongside speed, and probe pipelines need it to
    /// attribute reports on two-way roads to the correct direction.
    pub heading: (f64, f64),
    /// Seconds since the observation window began.
    pub timestamp_s: u64,
}

impl ProbeReport {
    /// Creates a report with unknown course, clamping tiny negative
    /// speeds (GPS jitter) to zero.
    ///
    /// # Panics
    ///
    /// Panics when `speed_kmh` is non-finite or below −1 km/h (a
    /// corrupted record rather than jitter).
    pub fn new(vehicle: VehicleId, position: Point, speed_kmh: f64, timestamp_s: u64) -> Self {
        Self::with_heading(vehicle, position, speed_kmh, (0.0, 0.0), timestamp_s)
    }

    /// Creates a report carrying a GPS course-over-ground vector.
    ///
    /// # Panics
    ///
    /// Panics when `speed_kmh` is non-finite or below −1 km/h, or when
    /// the heading components are non-finite.
    pub fn with_heading(
        vehicle: VehicleId,
        position: Point,
        speed_kmh: f64,
        heading: (f64, f64),
        timestamp_s: u64,
    ) -> Self {
        assert!(speed_kmh.is_finite(), "speed must be finite");
        assert!(speed_kmh >= -1.0, "speed {speed_kmh} km/h is corrupt, not jitter");
        assert!(heading.0.is_finite() && heading.1.is_finite(), "heading must be finite");
        Self { vehicle, position, speed_kmh: speed_kmh.max(0.0), heading, timestamp_s }
    }

    /// Whether the report carries a usable course.
    pub fn has_heading(&self) -> bool {
        self.heading != (0.0, 0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vehicle_display_and_index() {
        assert_eq!(VehicleId(12).to_string(), "v12");
        assert_eq!(VehicleId(12).index(), 12);
    }

    #[test]
    fn negative_jitter_clamped() {
        let r = ProbeReport::new(VehicleId(0), Point::new(0.0, 0.0), -0.4, 10);
        assert_eq!(r.speed_kmh, 0.0);
    }

    #[test]
    fn normal_report_preserved() {
        let r = ProbeReport::new(VehicleId(1), Point::new(5.0, 6.0), 42.5, 99);
        assert_eq!(r.speed_kmh, 42.5);
        assert_eq!(r.timestamp_s, 99);
        assert_eq!(r.position, Point::new(5.0, 6.0));
    }

    #[test]
    #[should_panic(expected = "corrupt")]
    fn very_negative_speed_rejected() {
        ProbeReport::new(VehicleId(0), Point::new(0.0, 0.0), -30.0, 0);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn nan_speed_rejected() {
        ProbeReport::new(VehicleId(0), Point::new(0.0, 0.0), f64::NAN, 0);
    }
}
