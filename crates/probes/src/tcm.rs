//! The traffic condition matrix (TCM) and its assembly from probe reports.

use crate::report::ProbeReport;
use crate::slotting::SlotGrid;
use linalg::Matrix;
use roadnet::matching::SegmentIndex;
use roadnet::RoadNetwork;

/// Error produced when constructing a [`Tcm`].
#[derive(Debug, Clone, PartialEq)]
pub enum TcmError {
    /// Values and indicator differ in shape.
    ShapeMismatch {
        /// Shape of the value matrix.
        values: (usize, usize),
        /// Shape of the indicator matrix.
        indicator: (usize, usize),
    },
    /// The indicator contains an entry other than 0 or 1.
    InvalidIndicator {
        /// Row of the offending entry.
        row: usize,
        /// Column of the offending entry.
        col: usize,
        /// The offending value.
        value: f64,
    },
    /// An observation was added out of the matrix bounds.
    OutOfBounds {
        /// Requested slot (row).
        slot: usize,
        /// Requested segment column.
        col: usize,
    },
    /// A non-finite or negative speed was observed.
    InvalidSpeed(f64),
    /// A construction parameter that must be positive was zero (e.g. a
    /// zero-slot streaming window).
    EmptyDimension(&'static str),
}

impl std::fmt::Display for TcmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TcmError::ShapeMismatch { values, indicator } => write!(
                f,
                "values {}x{} and indicator {}x{} differ in shape",
                values.0, values.1, indicator.0, indicator.1
            ),
            TcmError::InvalidIndicator { row, col, value } => {
                write!(f, "indicator({row},{col}) = {value} is not 0 or 1")
            }
            TcmError::OutOfBounds { slot, col } => {
                write!(f, "observation at slot {slot}, column {col} is out of bounds")
            }
            TcmError::InvalidSpeed(s) => write!(f, "invalid probe speed {s}"),
            TcmError::EmptyDimension(what) => write!(f, "{what} must be positive"),
        }
    }
}

impl std::error::Error for TcmError {}

/// A traffic condition matrix with its observation indicator.
///
/// `values` is `X` (or a measurement of it) with rows = time slots and
/// columns = road segments; `indicator` is the paper's `B` (Eq. 4):
/// `b_{t,r} = 1` iff slot `t` of segment `r` was observed. Where
/// `b = 0`, the corresponding value is stored as `0`, matching
/// `M = X .× B`.
///
/// # Example
///
/// ```
/// use linalg::Matrix;
/// use probes::Tcm;
///
/// let x = Matrix::from_rows(&[&[30.0, 40.0], &[35.0, 45.0]]);
/// let tcm = Tcm::complete(x);
/// assert_eq!(tcm.integrity(), 1.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tcm {
    values: Matrix,
    indicator: Matrix,
}

impl Tcm {
    /// Wraps a fully observed matrix: indicator all ones.
    pub fn complete(values: Matrix) -> Self {
        let indicator = Matrix::filled(values.rows(), values.cols(), 1.0);
        Self { values, indicator }
    }

    /// Creates a TCM from values and an explicit indicator.
    ///
    /// Values at unobserved positions are zeroed so that
    /// `self.values() == M = X .× B` holds by construction.
    ///
    /// # Errors
    ///
    /// Rejects shape mismatches and indicators with entries ∉ {0, 1}.
    pub fn new(values: Matrix, indicator: Matrix) -> Result<Self, TcmError> {
        if values.shape() != indicator.shape() {
            return Err(TcmError::ShapeMismatch {
                values: values.shape(),
                indicator: indicator.shape(),
            });
        }
        for (r, c, v) in indicator.iter() {
            if v != 0.0 && v != 1.0 {
                return Err(TcmError::InvalidIndicator { row: r, col: c, value: v });
            }
        }
        let masked = values.hadamard(&indicator).expect("shapes already checked");
        Ok(Self { values: masked, indicator })
    }

    /// Number of time slots (rows), the paper's `m`.
    pub fn num_slots(&self) -> usize {
        self.values.rows()
    }

    /// Number of road segments (columns), the paper's `n`.
    pub fn num_segments(&self) -> usize {
        self.values.cols()
    }

    /// The measurement matrix `M = X .× B`.
    pub fn values(&self) -> &Matrix {
        &self.values
    }

    /// The indicator matrix `B`.
    pub fn indicator(&self) -> &Matrix {
        &self.indicator
    }

    /// Whether entry `(slot, col)` was observed.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn is_observed(&self, slot: usize, col: usize) -> bool {
        self.indicator.get(slot, col) == 1.0
    }

    /// Observed value at `(slot, col)`, or `None` when missing.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn get(&self, slot: usize, col: usize) -> Option<f64> {
        self.is_observed(slot, col).then(|| self.values.get(slot, col))
    }

    /// Integrity (Definition 4): fraction of observed entries,
    /// `sum(B) / size(B)`.
    pub fn integrity(&self) -> f64 {
        if self.indicator.is_empty() {
            return 0.0;
        }
        self.indicator.sum() / self.indicator.len() as f64
    }

    /// Number of observed entries.
    pub fn observed_count(&self) -> usize {
        self.indicator.sum() as usize
    }

    /// Iterator over observed `(slot, col, value)` triples.
    pub fn observed_entries(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        self.indicator
            .iter()
            .filter(|&(_, _, b)| b == 1.0)
            .map(|(r, c, _)| (r, c, self.values.get(r, c)))
    }

    /// Restricts to the listed segment columns (in order) — how the
    /// matrix-selection study (Section 4.5) forms its five road-segment
    /// sets.
    ///
    /// # Panics
    ///
    /// Panics if any column index is out of bounds.
    pub fn select_segments(&self, cols: &[usize]) -> Tcm {
        Tcm {
            values: self.values.select_columns(cols),
            indicator: self.indicator.select_columns(cols),
        }
    }

    /// Sub-TCM over the contiguous slot range `r0..r1` (all segments) —
    /// e.g. the last `W` rows of an offline TCM, for comparison against
    /// a streaming window covering the same slots.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty or out of bounds.
    pub fn slot_range(&self, r0: usize, r1: usize) -> Tcm {
        Tcm {
            values: self.values.submatrix(r0, r1, 0, self.num_segments()),
            indicator: self.indicator.submatrix(r0, r1, 0, self.num_segments()),
        }
    }

    /// Applies a further mask: entries stay observed only where both this
    /// TCM's indicator and `mask` are 1. Used by the experiments to
    /// discard observed elements down to a target integrity.
    ///
    /// # Errors
    ///
    /// Returns [`TcmError::ShapeMismatch`] when `mask` has a different
    /// shape, or [`TcmError::InvalidIndicator`] when it is not 0/1.
    pub fn masked(&self, mask: &Matrix) -> Result<Tcm, TcmError> {
        if mask.shape() != self.indicator.shape() {
            return Err(TcmError::ShapeMismatch {
                values: self.indicator.shape(),
                indicator: mask.shape(),
            });
        }
        for (r, c, v) in mask.iter() {
            if v != 0.0 && v != 1.0 {
                return Err(TcmError::InvalidIndicator { row: r, col: c, value: v });
            }
        }
        let indicator = self.indicator.hadamard(mask).expect("shape checked");
        let values = self.values.hadamard(&indicator).expect("shape checked");
        Ok(Tcm { values, indicator })
    }
}

/// Incremental TCM builder accumulating probe speed observations.
///
/// Multiple observations of the same `(slot, segment)` cell are averaged,
/// implementing the paper's approximation of the mean flow speed by the
/// average of probe speeds.
#[derive(Debug, Clone)]
pub struct TcmBuilder {
    sums: Matrix,
    counts: Matrix,
}

impl TcmBuilder {
    /// Creates a builder for `num_slots × num_segments` cells.
    pub fn new(num_slots: usize, num_segments: usize) -> Self {
        Self {
            sums: Matrix::zeros(num_slots, num_segments),
            counts: Matrix::zeros(num_slots, num_segments),
        }
    }

    /// Records one probe speed observation.
    ///
    /// # Errors
    ///
    /// Rejects out-of-bounds cells and non-finite/negative speeds.
    pub fn add_observation(
        &mut self,
        slot: usize,
        col: usize,
        speed_kmh: f64,
    ) -> Result<(), TcmError> {
        if slot >= self.sums.rows() || col >= self.sums.cols() {
            return Err(TcmError::OutOfBounds { slot, col });
        }
        if !speed_kmh.is_finite() || speed_kmh < 0.0 {
            return Err(TcmError::InvalidSpeed(speed_kmh));
        }
        self.sums.set(slot, col, self.sums.get(slot, col) + speed_kmh);
        self.counts.set(slot, col, self.counts.get(slot, col) + 1.0);
        Ok(())
    }

    /// Number of observations recorded in cell `(slot, col)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn count(&self, slot: usize, col: usize) -> usize {
        self.counts.get(slot, col) as usize
    }

    /// Finalizes: cells with at least one observation hold the average
    /// probe speed; the rest are missing.
    pub fn build(self) -> Tcm {
        self.build_with_counts().0
    }

    /// Like [`TcmBuilder::build`], but also returns the per-cell probe
    /// counts — the confidence signal used by sampling-aware estimation
    /// (the paper's Section 6 notes that estimate quality depends on the
    /// number of probe samples behind each average).
    pub fn build_with_counts(self) -> (Tcm, Matrix) {
        let (m, n) = self.sums.shape();
        let mut values = Matrix::zeros(m, n);
        let mut indicator = Matrix::zeros(m, n);
        for r in 0..m {
            for c in 0..n {
                let cnt = self.counts.get(r, c);
                if cnt > 0.0 {
                    values.set(r, c, self.sums.get(r, c) / cnt);
                    indicator.set(r, c, 1.0);
                }
            }
        }
        (Tcm { values, indicator }, self.counts)
    }
}

/// End-to-end assembly: map-matches every report against the network and
/// bins the speeds into a TCM over the whole network's segments (column
/// `i` = segment id `i`).
///
/// Reports outside the slot grid or farther than `max_match_dist_m` from
/// any segment are discarded, as a real monitoring centre would.
pub fn build_tcm_from_reports(
    reports: &[ProbeReport],
    net: &RoadNetwork,
    index: &SegmentIndex,
    grid: &SlotGrid,
    max_match_dist_m: f64,
) -> Tcm {
    let mut span = telemetry::span(telemetry::Level::Info, "tcm.build");
    let mut dropped_out_of_grid = 0u64;
    let mut dropped_unmatched = 0u64;
    let mut builder = TcmBuilder::new(grid.num_slots(), net.segment_count());
    for report in reports {
        let Some(slot) = grid.slot_of(report.timestamp_s) else {
            dropped_out_of_grid += 1;
            continue;
        };
        let heading = report.has_heading().then_some(report.heading);
        let Some(m) = index.match_point_directed(net, report.position, max_match_dist_m, heading)
        else {
            dropped_unmatched += 1;
            continue;
        };
        builder
            .add_observation(slot, m.segment.index(), report.speed_kmh)
            .expect("slot and segment indices are in range by construction");
    }
    let tcm = builder.build();
    if span.is_enabled() {
        span.record("reports", reports.len());
        span.record("matched", reports.len() as u64 - dropped_out_of_grid - dropped_unmatched);
        span.record("dropped_out_of_grid", dropped_out_of_grid);
        span.record("dropped_unmatched", dropped_unmatched);
        span.record("slots", tcm.num_slots());
        span.record("segments", tcm.num_segments());
        span.record("integrity", tcm.integrity());
    }
    if telemetry::metrics_enabled() {
        telemetry::counter("tcm.reports").add(reports.len() as u64);
        telemetry::counter("tcm.reports_dropped_out_of_grid").add(dropped_out_of_grid);
        telemetry::counter("tcm.reports_dropped_unmatched").add(dropped_unmatched);
        telemetry::gauge("tcm.integrity").set(tcm.integrity());
    }
    tcm
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::VehicleId;
    use crate::slotting::Granularity;
    use roadnet::generator::{generate_grid_city, GridCityConfig};
    use roadnet::geometry::Point;
    use roadnet::SegmentId;

    #[test]
    fn complete_tcm_full_integrity() {
        let x = Matrix::from_rows(&[&[30.0, 40.0], &[35.0, 45.0]]);
        let tcm = Tcm::complete(x.clone());
        assert_eq!(tcm.integrity(), 1.0);
        assert_eq!(tcm.observed_count(), 4);
        assert_eq!(tcm.values(), &x);
        assert_eq!(tcm.get(0, 1), Some(40.0));
    }

    #[test]
    fn new_zeroes_unobserved_values() {
        let x = Matrix::from_rows(&[&[30.0, 40.0], &[35.0, 45.0]]);
        let b = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
        let tcm = Tcm::new(x, b).unwrap();
        assert_eq!(tcm.values().get(0, 1), 0.0);
        assert_eq!(tcm.values().get(1, 1), 45.0);
        assert_eq!(tcm.get(0, 1), None);
        assert!(!tcm.is_observed(1, 0));
        assert_eq!(tcm.integrity(), 0.5);
    }

    #[test]
    fn new_rejects_bad_indicator() {
        let x = Matrix::zeros(2, 2);
        let b = Matrix::from_rows(&[&[1.0, 0.5], &[0.0, 1.0]]);
        assert!(matches!(Tcm::new(x, b), Err(TcmError::InvalidIndicator { row: 0, col: 1, .. })));
    }

    #[test]
    fn new_rejects_shape_mismatch() {
        let x = Matrix::zeros(2, 2);
        let b = Matrix::zeros(2, 3);
        assert!(matches!(Tcm::new(x, b), Err(TcmError::ShapeMismatch { .. })));
    }

    #[test]
    fn observed_entries_iterates_only_observed() {
        let x = Matrix::from_rows(&[&[30.0, 40.0], &[35.0, 45.0]]);
        let b = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
        let tcm = Tcm::new(x, b).unwrap();
        let entries: Vec<_> = tcm.observed_entries().collect();
        assert_eq!(entries, vec![(0, 0, 30.0), (1, 1, 45.0)]);
    }

    #[test]
    fn select_segments_keeps_alignment() {
        let x = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let b = Matrix::from_rows(&[&[1.0, 0.0, 1.0], &[1.0, 1.0, 0.0]]);
        let tcm = Tcm::new(x, b).unwrap();
        let sub = tcm.select_segments(&[2, 0]);
        assert_eq!(sub.num_segments(), 2);
        assert_eq!(sub.get(0, 0), Some(3.0));
        assert_eq!(sub.get(1, 0), None);
        assert_eq!(sub.get(0, 1), Some(1.0));
    }

    #[test]
    fn masked_intersects_indicators() {
        let tcm = Tcm::complete(Matrix::filled(2, 2, 50.0));
        let mask = Matrix::from_rows(&[&[1.0, 0.0], &[1.0, 1.0]]);
        let masked = tcm.masked(&mask).unwrap();
        assert_eq!(masked.observed_count(), 3);
        assert_eq!(masked.get(0, 1), None);
        // Masking an already-missing entry keeps it missing.
        let again = masked.masked(&Matrix::filled(2, 2, 1.0)).unwrap();
        assert_eq!(again.observed_count(), 3);
        assert!(masked.masked(&Matrix::zeros(3, 3)).is_err());
        assert!(masked.masked(&Matrix::filled(2, 2, 2.0)).is_err());
    }

    #[test]
    fn builder_averages_multiple_probes() {
        let mut b = TcmBuilder::new(2, 2);
        b.add_observation(0, 0, 30.0).unwrap();
        b.add_observation(0, 0, 50.0).unwrap();
        b.add_observation(1, 1, 20.0).unwrap();
        assert_eq!(b.count(0, 0), 2);
        assert_eq!(b.count(0, 1), 0);
        let tcm = b.build();
        assert_eq!(tcm.get(0, 0), Some(40.0));
        assert_eq!(tcm.get(1, 1), Some(20.0));
        assert_eq!(tcm.get(0, 1), None);
        assert_eq!(tcm.integrity(), 0.5);
    }

    #[test]
    fn builder_rejects_bad_input() {
        let mut b = TcmBuilder::new(2, 2);
        assert!(matches!(b.add_observation(2, 0, 10.0), Err(TcmError::OutOfBounds { .. })));
        assert!(matches!(b.add_observation(0, 5, 10.0), Err(TcmError::OutOfBounds { .. })));
        assert!(matches!(b.add_observation(0, 0, -1.0), Err(TcmError::InvalidSpeed(_))));
        assert!(matches!(b.add_observation(0, 0, f64::INFINITY), Err(TcmError::InvalidSpeed(_))));
    }

    #[test]
    fn end_to_end_report_binning() {
        let net = generate_grid_city(&GridCityConfig::small_test());
        let index = SegmentIndex::build(&net, 100.0);
        let grid = SlotGrid::covering(0, 3600, Granularity::Min15); // 4 slots
        let seg = SegmentId(3);
        let pos = net.segment_point(seg, 0.5);
        let reports = vec![
            ProbeReport::new(VehicleId(0), pos, 30.0, 100), // slot 0
            ProbeReport::new(VehicleId(1), pos, 40.0, 200), // slot 0
            ProbeReport::new(VehicleId(0), pos, 20.0, 1000), // slot 1
            ProbeReport::new(VehicleId(0), pos, 99.0, 10_000), // outside window
            // Far off-network point: discarded by matching.
            ProbeReport::new(VehicleId(2), Point::new(-9_000.0, -9_000.0), 10.0, 50),
        ];
        let tcm = build_tcm_from_reports(&reports, &net, &index, &grid, 30.0);
        assert_eq!(tcm.num_slots(), 4);
        assert_eq!(tcm.num_segments(), net.segment_count());
        // Forward/reverse twins overlap geometrically; the observation
        // lands on one of them.
        let twin = net
            .segments()
            .iter()
            .find(|s| s.from == net.segment(seg).to && s.to == net.segment(seg).from)
            .unwrap()
            .id;
        let cell0 = tcm.get(0, seg.index()).or_else(|| tcm.get(0, twin.index()));
        assert_eq!(cell0, Some(35.0));
        let cell1 = tcm.get(1, seg.index()).or_else(|| tcm.get(1, twin.index()));
        assert_eq!(cell1, Some(20.0));
        // Only those two cells are observed.
        assert_eq!(tcm.observed_count(), 2);
    }
}
