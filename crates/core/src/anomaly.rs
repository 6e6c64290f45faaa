//! Incident detection from traffic condition matrices.
//!
//! The paper's structure analysis identifies *type-2 eigenflows* —
//! temporal spikes — as the signature of localized traffic anomalies,
//! and its structural toolkit comes from Lakhina et al.'s network-wide
//! anomaly diagnosis (\[23\] in the paper). This module closes that
//! loop: it separates a TCM into a low-rank "normal traffic" baseline
//! plus a residual, and flags cells whose residual is an extreme
//! negative outlier (a speed collapse the citywide rhythm does not
//! explain).
//!
//! Because it runs on *complete* matrices, it composes directly with
//! the completion algorithm: recover the TCM from sparse probe data
//! first, then detect incidents on the estimate.

use linalg::stats::quantile;
use linalg::{Matrix, Svd};

/// Robust scale estimate: `1.4826 × MAD`, the consistency-corrected
/// median absolute deviation (insensitive to the anomalies themselves,
/// unlike the standard deviation — a week-long incident would otherwise
/// inflate its own detection threshold).
fn robust_center_scale(xs: &[f64]) -> (f64, f64) {
    let med = quantile(xs, 0.5);
    // Exclude (near-)zero deviations: a seasonal-median baseline leaves
    // the median day's cells at exactly zero residual, and that atom
    // would deflate the MAD and inflate every z-score.
    let deviations: Vec<f64> = xs.iter().map(|x| (x - med).abs()).filter(|d| *d > 1e-9).collect();
    if deviations.is_empty() {
        return (med, 0.0);
    }
    (med, 1.4826 * quantile(&deviations, 0.5))
}

/// Detector failure modes.
#[derive(Debug, Clone, PartialEq)]
pub enum AnomalyError {
    /// Baseline rank is zero or leaves no residual (`>= min(m, n)`).
    InvalidBaselineRank {
        /// Requested rank.
        rank: usize,
        /// Exclusive upper bound.
        max: usize,
    },
    /// The decomposition failed (empty or non-finite input).
    Decomposition(String),
    /// Seasonal baseline needs at least two full periods of data.
    TooFewPeriods {
        /// Rows available.
        rows: usize,
        /// Requested period.
        period: usize,
    },
}

impl std::fmt::Display for AnomalyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AnomalyError::InvalidBaselineRank { rank, max } => {
                write!(f, "baseline rank {rank} must be in 1..{max}")
            }
            AnomalyError::Decomposition(e) => write!(f, "decomposition failed: {e}"),
            AnomalyError::TooFewPeriods { rows, period } => {
                write!(f, "seasonal baseline needs ≥ 2 periods: {rows} rows at period {period}")
            }
        }
    }
}

impl std::error::Error for AnomalyError {}

/// How the "normal traffic" baseline is formed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Baseline {
    /// Per-segment seasonal median: the baseline for slot `t` is the
    /// median across days of the same time-of-day on the same segment.
    /// A median over days is immune to incidents confined to one day —
    /// the robustness that spectral baselines lack (an incident mixed
    /// into a harmonically-rich component classifies as periodic and
    /// would be absorbed). `period_slots` is the number of slots per
    /// seasonal cycle (slots per day on a slot grid).
    SeasonalMedian {
        /// Slots per seasonal period (e.g. 96 for a day of 15-min slots).
        period_slots: usize,
    },
    /// Reconstruct from the *type-1 (periodic) eigenflows* only — the
    /// paper's own decomposition of normal traffic.
    PeriodicEigenflows,
    /// Plain best rank-k approximation (Eq. 11). Simplest, but a generous
    /// `k` can swallow the largest incidents.
    Rank(usize),
}

/// Detector parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct AnomalyConfig {
    /// Baseline construction.
    pub baseline: Baseline,
    /// A cell is anomalous when its residual is below
    /// `−threshold_sigma · σ` of its segment's residual distribution
    /// (robust σ: 1.4826 × MAD).
    pub threshold_sigma: f64,
    /// Minimum run length (consecutive anomalous slots on one segment)
    /// to report — single-slot blips are usually noise.
    pub min_run_slots: usize,
    /// Detection-refinement passes: after each pass, detected cells are
    /// replaced by their baseline values and the baseline is recomputed,
    /// so large incidents stop distorting the components that should
    /// describe *normal* traffic (a one-step robust PCA).
    pub refinement_passes: usize,
    /// Absolute floor on the peak speed drop (km/h): a statistically
    /// significant but sub-`min_peak_drop` dip is not operationally an
    /// incident. `0.0` disables the floor.
    pub min_peak_drop: f64,
}

impl Default for AnomalyConfig {
    /// Defaults assume a 30-minute slot grid (48 slots per day); set
    /// `baseline` explicitly for other granularities.
    fn default() -> Self {
        Self {
            baseline: Baseline::SeasonalMedian { period_slots: 48 },
            threshold_sigma: 3.0,
            min_run_slots: 1,
            refinement_passes: 2,
            min_peak_drop: 0.0,
        }
    }
}

/// A detected anomaly: a maximal run of consecutive anomalous slots on
/// one segment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectedAnomaly {
    /// Segment column.
    pub segment: usize,
    /// First anomalous slot (inclusive).
    pub start_slot: usize,
    /// Last anomalous slot (inclusive).
    pub end_slot: usize,
    /// Most negative residual in the run, km/h.
    pub peak_residual: f64,
    /// Peak residual in segment-σ units (most negative z-score).
    pub peak_zscore: f64,
}

impl DetectedAnomaly {
    /// Whether the detection overlaps slots `[start, end]` on `segment`.
    pub fn overlaps(&self, segment: usize, start: usize, end: usize) -> bool {
        self.segment == segment && self.start_slot <= end && start <= self.end_slot
    }
}

/// Detects incident-like speed collapses in a complete TCM.
///
/// ```
/// use linalg::Matrix;
/// use traffic_cs::anomaly::{detect_anomalies, AnomalyConfig, Baseline};
///
/// // Two near-identical "days" of 4 slots — except one crashed cell.
/// let mut x = Matrix::from_fn(8, 3, |t, s| {
///     40.0 + (t % 4) as f64 + 0.3 * ((t * 3 + s) % 7) as f64
/// });
/// x.set(6, 1, 5.0);
/// let cfg = AnomalyConfig {
///     baseline: Baseline::SeasonalMedian { period_slots: 4 },
///     threshold_sigma: 3.0,
///     ..AnomalyConfig::default()
/// };
/// let found = detect_anomalies(&x, &cfg)?;
/// assert_eq!(found[0].segment, 1);
/// assert_eq!(found[0].start_slot, 6);
/// # Ok::<(), traffic_cs::anomaly::AnomalyError>(())
/// ```
///
/// # Errors
///
/// Propagates SVD failures (empty/non-finite input) and rejects a
/// baseline rank of zero or ≥ `min(m, n)` (no residual would remain).
pub fn detect_anomalies(
    x: &Matrix,
    config: &AnomalyConfig,
) -> Result<Vec<DetectedAnomaly>, AnomalyError> {
    let mut cleaned = x.clone();
    let mut detections = Vec::new();
    let passes = config.refinement_passes.max(1);
    for _ in 0..passes {
        let baseline = compute_baseline(&cleaned, config)?;
        detections = detect_against_baseline(x, &baseline, config);
        // Replace detected cells with the baseline for the next pass.
        cleaned = x.clone();
        for d in &detections {
            for t in d.start_slot..=d.end_slot {
                cleaned.set(t, d.segment, baseline.get(t, d.segment));
            }
        }
    }
    Ok(detections)
}

/// Per-segment seasonal-median baseline of a complete matrix: the
/// baseline for slot `t` is the median across periods of the same phase
/// (`t mod period_slots`) on the same segment. This is the robust
/// "normal traffic" model used by the detectors, exposed for callers
/// that want to detect against a completed estimate
/// (see `examples/incident_detection.rs` and the CLI's `detect`).
///
/// # Errors
///
/// Returns [`AnomalyError::TooFewPeriods`] unless the matrix covers at
/// least two full periods.
pub fn seasonal_median_baseline(x: &Matrix, period_slots: usize) -> Result<Matrix, AnomalyError> {
    if period_slots == 0 || x.rows() < 2 * period_slots {
        return Err(AnomalyError::TooFewPeriods { rows: x.rows(), period: period_slots });
    }
    let mut baseline = Matrix::zeros(x.rows(), x.cols());
    for seg in 0..x.cols() {
        for phase in 0..period_slots {
            let vals: Vec<f64> =
                (phase..x.rows()).step_by(period_slots).map(|t| x.get(t, seg)).collect();
            let med = quantile(&vals, 0.5);
            for t in (phase..x.rows()).step_by(period_slots) {
                baseline.set(t, seg, med);
            }
        }
    }
    Ok(baseline)
}

fn compute_baseline(x: &Matrix, config: &AnomalyConfig) -> Result<Matrix, AnomalyError> {
    let max_rank = x.rows().min(x.cols());
    match config.baseline {
        Baseline::SeasonalMedian { period_slots } => seasonal_median_baseline(x, period_slots),
        Baseline::Rank(k) => {
            if k == 0 || k >= max_rank {
                return Err(AnomalyError::InvalidBaselineRank { rank: k, max: max_rank });
            }
            Ok(Svd::compute(x).map_err(|e| AnomalyError::Decomposition(e.to_string()))?.truncate(k))
        }
        Baseline::PeriodicEigenflows => {
            let analysis = crate::eigenflow::EigenflowAnalysis::compute(x)
                .map_err(|e| AnomalyError::Decomposition(e.to_string()))?;
            Ok(analysis.reconstruct_by_type(crate::eigenflow::EigenflowType::Periodic))
        }
    }
}

fn detect_against_baseline(
    x: &Matrix,
    baseline: &Matrix,
    config: &AnomalyConfig,
) -> Vec<DetectedAnomaly> {
    let residual = x - baseline;

    let mut out = Vec::new();
    for seg in 0..x.cols() {
        let col = residual.col(seg);
        let (mu, sigma) = robust_center_scale(&col);
        if sigma == 0.0 {
            continue; // perfectly explained segment
        }
        let threshold = mu - config.threshold_sigma * sigma;
        // Collect maximal runs below the threshold.
        let mut run_start: Option<usize> = None;
        for t in 0..=col.len() {
            let below = t < col.len() && col[t] < threshold;
            match (run_start, below) {
                (None, true) => run_start = Some(t),
                (Some(s), false) => {
                    let e = t - 1;
                    if e + 1 - s >= config.min_run_slots {
                        let (peak_t, peak) = (s..=e)
                            .map(|i| (i, col[i]))
                            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite residuals"))
                            .expect("non-empty run");
                        let _ = peak_t;
                        if peak <= -config.min_peak_drop {
                            out.push(DetectedAnomaly {
                                segment: seg,
                                start_slot: s,
                                end_slot: e,
                                peak_residual: peak,
                                peak_zscore: (peak - mu) / sigma,
                            });
                        }
                    }
                    run_start = None;
                }
                _ => {}
            }
        }
    }
    // Strongest first.
    out.sort_by(|a, b| a.peak_zscore.partial_cmp(&b.peak_zscore).expect("finite z-scores"));
    out
}

/// Detects anomalies using only *observed* evidence: residuals are
/// `observed value − baseline` at observed cells, scored per segment
/// with the same robust threshold. Unobserved cells are never flagged
/// (a rank-limited completion smears strong incidents into cells it has
/// no evidence for; this variant is immune to that). A run continues
/// through unobserved slots and is broken by an observed non-anomalous
/// slot.
///
/// The baseline is any complete matrix of "normal traffic" — typically
/// the seasonal median of a completed estimate (see
/// `examples/incident_detection.rs`).
///
/// # Errors
///
/// Rejects shape mismatches between the TCM and the baseline.
pub fn detect_anomalies_sparse(
    observed: &probes::Tcm,
    baseline: &Matrix,
    config: &AnomalyConfig,
) -> Result<Vec<DetectedAnomaly>, AnomalyError> {
    if observed.values().shape() != baseline.shape() {
        return Err(AnomalyError::Decomposition(format!(
            "baseline shape {:?} does not match TCM {:?}",
            baseline.shape(),
            observed.values().shape()
        )));
    }
    let mut out = Vec::new();
    for seg in 0..observed.num_segments() {
        // Observed residuals for this segment.
        let cells: Vec<(usize, f64)> = (0..observed.num_slots())
            .filter_map(|t| observed.get(t, seg).map(|v| (t, v - baseline.get(t, seg))))
            .collect();
        if cells.len() < 4 {
            continue; // not enough evidence for a scale estimate
        }
        let residuals: Vec<f64> = cells.iter().map(|&(_, r)| r).collect();
        let (mu, sigma) = robust_center_scale(&residuals);
        if sigma == 0.0 {
            continue;
        }
        let threshold = mu - config.threshold_sigma * sigma;
        // Runs over observed cells; unobserved gaps do not break a run.
        let mut run: Vec<(usize, f64)> = Vec::new();
        let flush = |run: &mut Vec<(usize, f64)>, out: &mut Vec<DetectedAnomaly>| {
            if run.len() >= config.min_run_slots {
                let &(_, peak) = run
                    .iter()
                    .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite residuals"))
                    .expect("non-empty run");
                if peak <= -config.min_peak_drop {
                    out.push(DetectedAnomaly {
                        segment: seg,
                        start_slot: run[0].0,
                        end_slot: run[run.len() - 1].0,
                        peak_residual: peak,
                        peak_zscore: (peak - mu) / sigma,
                    });
                }
            }
            run.clear();
        };
        for &(t, r) in &cells {
            if r < threshold {
                run.push((t, r));
            } else {
                flush(&mut run, &mut out);
            }
        }
        flush(&mut run, &mut out);
    }
    out.sort_by(|a, b| a.peak_zscore.partial_cmp(&b.peak_zscore).expect("finite z-scores"));
    Ok(out)
}

/// Precision/recall of a detection set against labelled incidents
/// (`(segment, start_slot, end_slot)` triples). A detection is a true
/// positive when it overlaps any label; a label is recalled when any
/// detection overlaps it.
pub fn precision_recall(
    detections: &[DetectedAnomaly],
    labels: &[(usize, usize, usize)],
) -> (f64, f64) {
    if detections.is_empty() {
        return (0.0, 0.0);
    }
    let tp =
        detections.iter().filter(|d| labels.iter().any(|&(s, a, b)| d.overlaps(s, a, b))).count();
    let recalled =
        labels.iter().filter(|&&(s, a, b)| detections.iter().any(|d| d.overlaps(s, a, b))).count();
    let precision = tp as f64 / detections.len() as f64;
    let recall = if labels.is_empty() { 1.0 } else { recalled as f64 / labels.len() as f64 };
    (precision, recall)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{RngExt, SeedableRng};

    /// Low-rank daily pattern + injected incidents + mild noise.
    fn matrix_with_incidents(incidents: &[(usize, usize, usize)]) -> Matrix {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let mut x = Matrix::from_fn(96, 24, |t, s| {
            let f = (2.0 * std::f64::consts::PI * t as f64 / 48.0).sin();
            40.0 + 9.0 * f * (0.7 + 0.03 * s as f64) + rng.random_range(-1.0..1.0)
        });
        for &(seg, a, b) in incidents {
            for t in a..=b {
                x.set(t, seg, x.get(t, seg) * 0.35);
            }
        }
        x
    }

    #[test]
    fn finds_injected_incidents() {
        let labels = [(3usize, 20usize, 24usize), (17, 60, 66), (9, 40, 42)];
        let x = matrix_with_incidents(&labels);
        let cfg = AnomalyConfig { min_run_slots: 2, ..AnomalyConfig::default() };
        let detections = detect_anomalies(&x, &cfg).unwrap();
        let (precision, recall) = precision_recall(&detections, &labels);
        assert!(recall == 1.0, "recall {recall}: {detections:?}");
        assert!(precision > 0.7, "precision {precision}");
        // Strongest detection is genuinely strong.
        assert!(detections[0].peak_zscore < -3.0);
    }

    #[test]
    fn clean_matrix_yields_few_detections() {
        let x = matrix_with_incidents(&[]);
        let detections = detect_anomalies(&x, &AnomalyConfig::default()).unwrap();
        // 3σ on ~2300 cells: a handful of noise hits at most.
        assert!(detections.len() <= 5, "{} spurious detections", detections.len());
    }

    #[test]
    fn min_run_filters_blips() {
        let labels = [(5usize, 30usize, 36usize)];
        let x = matrix_with_incidents(&labels);
        let long_only = AnomalyConfig { min_run_slots: 3, ..AnomalyConfig::default() };
        let detections = detect_anomalies(&x, &long_only).unwrap();
        assert!(detections.iter().all(|d| d.end_slot + 1 - d.start_slot >= 3));
        let (_, recall) = precision_recall(&detections, &labels);
        assert_eq!(recall, 1.0);
    }

    #[test]
    fn overlap_semantics() {
        let d = DetectedAnomaly {
            segment: 2,
            start_slot: 10,
            end_slot: 12,
            peak_residual: -9.0,
            peak_zscore: -4.0,
        };
        assert!(d.overlaps(2, 12, 20));
        assert!(d.overlaps(2, 5, 10));
        assert!(!d.overlaps(2, 13, 20));
        assert!(!d.overlaps(3, 10, 12));
    }

    #[test]
    fn config_validation() {
        let x = matrix_with_incidents(&[]);
        assert!(detect_anomalies(
            &x,
            &AnomalyConfig { baseline: Baseline::Rank(0), ..Default::default() }
        )
        .is_err());
        assert!(detect_anomalies(
            &x,
            &AnomalyConfig { baseline: Baseline::Rank(24), ..Default::default() }
        )
        .is_err());
        // An explicit small rank also works on clean data.
        let ok = detect_anomalies(
            &x,
            &AnomalyConfig { baseline: Baseline::Rank(2), ..Default::default() },
        );
        assert!(ok.is_ok());
    }

    #[test]
    fn precision_recall_edge_cases() {
        assert_eq!(precision_recall(&[], &[(1, 2, 3)]), (0.0, 0.0));
        let d = DetectedAnomaly {
            segment: 1,
            start_slot: 2,
            end_slot: 3,
            peak_residual: -5.0,
            peak_zscore: -4.0,
        };
        assert_eq!(precision_recall(&[d], &[]), (0.0, 1.0));
    }

    #[test]
    fn sparse_detector_flags_only_observed_evidence() {
        use probes::mask::random_mask;
        use rand::SeedableRng;
        let labels = [(7usize, 50usize, 58usize), (12, 20, 26)];
        let truth = matrix_with_incidents(&labels);
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let mask = random_mask(96, 24, 0.4, &mut rng);
        let observed = probes::Tcm::complete(truth.clone()).masked(&mask).unwrap();
        // Baseline: seasonal median of the truth (stand-in for a
        // completed estimate).
        let baseline = seasonal_median_baseline(&truth, 48).unwrap();
        let detections = detect_anomalies_sparse(
            &observed,
            &baseline,
            &AnomalyConfig {
                threshold_sigma: 3.0,
                min_run_slots: 1,
                min_peak_drop: 3.0,
                ..Default::default()
            },
        )
        .unwrap();
        // Every detection is anchored at observed cells.
        for d in &detections {
            assert!(observed.is_observed(d.start_slot, d.segment));
            assert!(observed.is_observed(d.end_slot, d.segment));
        }
        let (precision, recall) = precision_recall(&detections, &labels);
        assert!(recall == 1.0, "recall {recall}: {detections:?}");
        assert!(precision > 0.6, "precision {precision}: {detections:?}");
    }

    #[test]
    fn sparse_detector_validates_shapes() {
        let truth = matrix_with_incidents(&[]);
        let observed = probes::Tcm::complete(truth);
        let bad = Matrix::zeros(3, 3);
        assert!(detect_anomalies_sparse(&observed, &bad, &AnomalyConfig::default()).is_err());
    }

    #[test]
    fn detection_works_on_completed_estimates() {
        // The intended pipeline: mask the matrix, complete it, detect on
        // the estimate.
        use crate::cs::{complete_matrix, CsConfig};
        use probes::mask::random_mask;
        let labels = [(7usize, 50usize, 58usize)];
        let truth = matrix_with_incidents(&labels);
        // Seed 7: of 16 mask realizations inspected under the vendored
        // StdRng, only seed 6 drops enough incident cells for completion
        // to smooth the incident away; the rest recall it at 100%.
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let mask = random_mask(96, 24, 0.5, &mut rng);
        let tcm = probes::Tcm::complete(truth).masked(&mask).unwrap();
        // Rank high enough to carry the incident into the estimate.
        let cfg = CsConfig { rank: 8, lambda: 0.05, ..CsConfig::default() };
        let estimate = complete_matrix(&tcm, &cfg).unwrap();
        // Completion error fragments anomalous runs, so detect single
        // slots at a higher σ instead of requiring contiguity.
        let detections = detect_anomalies(
            &estimate,
            &AnomalyConfig { threshold_sigma: 3.0, min_run_slots: 1, ..AnomalyConfig::default() },
        )
        .unwrap();
        let (_, recall) = precision_recall(&detections, &labels);
        assert_eq!(recall, 1.0, "incident lost in completion: {detections:?}");
    }
}
