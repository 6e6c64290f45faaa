//! Multi-channel Singular Spectrum Analysis gap filling (Section 4.2.3).
//!
//! The strongest baseline in the paper — the method behind SEER \[40\] —
//! "a data adaptive and nonparametric method based on the embedded
//! lag-covariance matrix", run as the iterative imputation procedure of
//! Kondrashov & Ghil that SEER adapts:
//!
//! 1. centre each channel (road segment) on its observed mean, zero the
//!    missing entries;
//! 2. embed all channels with a lag window `M` into a block trajectory
//!    matrix `T` (rows = sliding windows, columns = channel × lag);
//! 3. take the leading EOFs of the lag-covariance matrix `T Tᵀ`, project
//!    `T` onto them, and reconstruct the series by anti-diagonal
//!    averaging;
//! 4. overwrite the missing entries with the reconstruction and repeat
//!    until the filled values stabilize.
//!
//! The lag-covariance eigendecomposition is `O((m−M)³ + (m−M)² n M)` per
//! iteration, which is why the paper's Table 2 shows MSSA thousands of
//! times slower than every other method — our Criterion bench reproduces
//! exactly that gap.

use linalg::eig::symmetric_eigen;
use linalg::Matrix;
use probes::Tcm;

/// How MSSA extracts the leading EOFs of the lag-covariance matrix —
/// the cost driver behind the paper's Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EigBackend {
    /// Full Jacobi eigendecomposition (`O(w³)`), matching the classic
    /// MATLAB implementation the paper timed.
    #[default]
    FullJacobi,
    /// Subspace iteration for just the `components` leading pairs
    /// (`O(w² k)` per sweep) — the `mssa_eig` ablation showing how much
    /// of MSSA's slowness is solver choice rather than method.
    SubspaceIteration,
}

/// MSSA parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct MssaConfig {
    /// Embedding window `M` in time slots; the paper sets `M = 24`
    /// following \[40\] (one day at hourly granularity).
    pub window: usize,
    /// Number of leading EOFs used in the reconstruction.
    pub components: usize,
    /// Maximum outer gap-filling iterations.
    pub max_iterations: usize,
    /// Convergence threshold on the largest change of any filled entry
    /// between iterations (km/h).
    pub tol: f64,
    /// Eigen solver for the lag-covariance matrix.
    pub eig: EigBackend,
}

impl Default for MssaConfig {
    fn default() -> Self {
        Self {
            window: 24,
            components: 4,
            max_iterations: 15,
            tol: 0.05,
            eig: EigBackend::FullJacobi,
        }
    }
}

/// MSSA failure modes.
#[derive(Debug, Clone, PartialEq)]
pub enum MssaError {
    /// Window does not fit the series (`window == 0 || window > m`).
    InvalidWindow {
        /// Requested window.
        window: usize,
        /// Number of time slots available.
        slots: usize,
    },
    /// Component count is zero or exceeds the trajectory-matrix row count.
    InvalidComponents {
        /// Requested component count.
        components: usize,
        /// Upper bound (`m − window + 1`).
        max: usize,
    },
    /// No observed entries to anchor the reconstruction.
    NoObservations,
    /// The eigen decomposition failed (non-finite data).
    Eigen(String),
}

impl std::fmt::Display for MssaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MssaError::InvalidWindow { window, slots } => {
                write!(f, "window {window} invalid for {slots} time slots")
            }
            MssaError::InvalidComponents { components, max } => {
                write!(f, "component count {components} must be in 1..={max}")
            }
            MssaError::NoObservations => write!(f, "no observed entries"),
            MssaError::Eigen(e) => write!(f, "eigendecomposition failed: {e}"),
        }
    }
}

impl std::error::Error for MssaError {}

/// Runs MSSA iterative gap filling and returns the completed matrix
/// (observed entries passed through unchanged).
///
/// # Errors
///
/// See [`MssaError`].
pub fn mssa_impute(tcm: &Tcm, config: &MssaConfig) -> Result<Matrix, MssaError> {
    let (m, n) = tcm.values().shape();
    if config.window == 0 || config.window > m {
        return Err(MssaError::InvalidWindow { window: config.window, slots: m });
    }
    let windows = m - config.window + 1;
    if config.components == 0 || config.components > windows {
        return Err(MssaError::InvalidComponents { components: config.components, max: windows });
    }
    if tcm.observed_count() == 0 {
        return Err(MssaError::NoObservations);
    }

    // Column means over observed entries; empty columns fall back to the
    // global observed mean so centring never divides by zero.
    let all: Vec<f64> = tcm.observed_entries().map(|(_, _, v)| v).collect();
    let global_mean = all.iter().sum::<f64>() / all.len() as f64;
    let col_means: Vec<f64> = (0..n)
        .map(|j| {
            let vals: Vec<f64> = (0..m).filter_map(|i| tcm.get(i, j)).collect();
            if vals.is_empty() {
                global_mean
            } else {
                vals.iter().sum::<f64>() / vals.len() as f64
            }
        })
        .collect();

    // Centred working matrix; missing entries start at zero (== the
    // column mean in raw units).
    let mut work = Matrix::from_fn(m, n, |i, j| match tcm.get(i, j) {
        Some(v) => v - col_means[j],
        None => 0.0,
    });

    for _ in 0..config.max_iterations {
        let recon = reconstruct(&work, config.window, config.components, config.eig)?;
        let mut max_change = 0.0_f64;
        for i in 0..m {
            for j in 0..n {
                if !tcm.is_observed(i, j) {
                    let old = work.get(i, j);
                    let new = recon.get(i, j);
                    max_change = max_change.max((new - old).abs());
                    work.set(i, j, new);
                }
            }
        }
        if max_change < config.tol {
            break;
        }
    }

    // Un-centre and restore observed entries exactly.
    Ok(Matrix::from_fn(m, n, |i, j| match tcm.get(i, j) {
        Some(v) => v,
        None => work.get(i, j) + col_means[j],
    }))
}

/// One SSA reconstruction pass: embed, project onto leading EOFs,
/// anti-diagonal average back to series form.
fn reconstruct(
    work: &Matrix,
    window: usize,
    components: usize,
    backend: EigBackend,
) -> Result<Matrix, MssaError> {
    let (m, n) = work.shape();
    let windows = m - window + 1;

    // Trajectory matrix T: windows × (n * window), channel-major lags.
    let t = Matrix::from_fn(windows, n * window, |i, col| {
        let channel = col / window;
        let lag = col % window;
        work.get(i + lag, channel)
    });

    // Leading EOFs of the lag-covariance matrix T Tᵀ.
    let gram = t.matmul(&t.transpose()).expect("shapes agree");
    let u_k = match backend {
        EigBackend::FullJacobi => {
            let eig = symmetric_eigen(&gram).map_err(|e| MssaError::Eigen(e.to_string()))?;
            Matrix::from_fn(windows, components, |r, c| eig.eigenvectors.get(r, c))
        }
        EigBackend::SubspaceIteration => {
            let lead = linalg::power::leading_eigenpairs(&gram, components, 200, 1e-9)
                .map_err(|e| MssaError::Eigen(e.to_string()))?;
            lead.eigenvectors
        }
    };

    // Projection T_rec = U_k U_kᵀ T.
    let coeffs = u_k.transpose().matmul(&t).expect("shapes agree");
    let t_rec = u_k.matmul(&coeffs).expect("shapes agree");

    // Anti-diagonal averaging per channel.
    let mut sums = Matrix::zeros(m, n);
    let mut counts = Matrix::zeros(m, n);
    for i in 0..windows {
        for col in 0..n * window {
            let channel = col / window;
            let lag = col % window;
            let time = i + lag;
            sums.set(time, channel, sums.get(time, channel) + t_rec.get(i, col));
            counts.set(time, channel, counts.get(time, channel) + 1.0);
        }
    }
    Ok(sums.zip_with(&counts, |s, c| if c > 0.0 { s / c } else { 0.0 }).expect("same shape"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::nmae_on_missing;
    use probes::mask::random_mask;
    use rand::SeedableRng;

    fn periodic_truth(m: usize, n: usize) -> Matrix {
        Matrix::from_fn(m, n, |t, s| {
            let phase = 2.0 * std::f64::consts::PI * t as f64 / 12.0;
            35.0 + 2.0 * (s % 5) as f64 + 9.0 * phase.sin() * (1.0 + 0.1 * (s % 3) as f64)
        })
    }

    fn cfg_small() -> MssaConfig {
        MssaConfig {
            window: 12,
            components: 3,
            max_iterations: 25,
            tol: 1e-3,
            ..MssaConfig::default()
        }
    }

    #[test]
    fn subspace_backend_matches_full_jacobi() {
        let truth = periodic_truth(72, 8);
        let mut rng = rand::rngs::StdRng::seed_from_u64(10);
        let mask = random_mask(72, 8, 0.5, &mut rng);
        let tcm = Tcm::complete(truth.clone()).masked(&mask).unwrap();
        let full = mssa_impute(&tcm, &cfg_small()).unwrap();
        let fast =
            mssa_impute(&tcm, &MssaConfig { eig: EigBackend::SubspaceIteration, ..cfg_small() })
                .unwrap();
        let full_err = nmae_on_missing(&truth, &full, tcm.indicator());
        let fast_err = nmae_on_missing(&truth, &fast, tcm.indicator());
        assert!(
            (full_err - fast_err).abs() < 0.02,
            "backends disagree: full {full_err} vs subspace {fast_err}"
        );
    }

    #[test]
    fn recovers_periodic_signal() {
        let truth = periodic_truth(72, 8);
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let mask = random_mask(72, 8, 0.6, &mut rng);
        let tcm = Tcm::complete(truth.clone()).masked(&mask).unwrap();
        let out = mssa_impute(&tcm, &cfg_small()).unwrap();
        let err = nmae_on_missing(&truth, &out, tcm.indicator());
        assert!(err < 0.06, "NMAE {err}");
    }

    #[test]
    fn observed_entries_exact() {
        let truth = periodic_truth(48, 5);
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let mask = random_mask(48, 5, 0.5, &mut rng);
        let tcm = Tcm::complete(truth.clone()).masked(&mask).unwrap();
        let out = mssa_impute(&tcm, &cfg_small()).unwrap();
        for (i, j, v) in tcm.observed_entries() {
            assert_eq!(out.get(i, j), v);
        }
    }

    #[test]
    fn beats_column_mean_on_periodic_data() {
        let truth = periodic_truth(96, 6);
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let mask = random_mask(96, 6, 0.4, &mut rng);
        let tcm = Tcm::complete(truth.clone()).masked(&mask).unwrap();
        let out = mssa_impute(&tcm, &cfg_small()).unwrap();
        // Column-mean baseline.
        let mut col_mean_est = truth.clone();
        for j in 0..6 {
            let vals: Vec<f64> = (0..96).filter_map(|i| tcm.get(i, j)).collect();
            let mean = vals.iter().sum::<f64>() / vals.len() as f64;
            for i in 0..96 {
                if !tcm.is_observed(i, j) {
                    col_mean_est.set(i, j, mean);
                }
            }
        }
        let mssa_err = nmae_on_missing(&truth, &out, tcm.indicator());
        let mean_err = nmae_on_missing(&truth, &col_mean_est, tcm.indicator());
        assert!(mssa_err < 0.7 * mean_err, "mssa {mssa_err} vs mean {mean_err}");
    }

    #[test]
    fn window_validation() {
        let tcm = Tcm::complete(periodic_truth(20, 3));
        let bad = MssaConfig { window: 0, ..cfg_small() };
        assert!(matches!(mssa_impute(&tcm, &bad), Err(MssaError::InvalidWindow { .. })));
        let bad = MssaConfig { window: 21, ..cfg_small() };
        assert!(matches!(mssa_impute(&tcm, &bad), Err(MssaError::InvalidWindow { .. })));
    }

    #[test]
    fn component_validation() {
        let tcm = Tcm::complete(periodic_truth(20, 3));
        let bad = MssaConfig { window: 12, components: 0, ..cfg_small() };
        assert!(matches!(mssa_impute(&tcm, &bad), Err(MssaError::InvalidComponents { .. })));
        let bad = MssaConfig { window: 12, components: 10, ..cfg_small() };
        assert!(matches!(mssa_impute(&tcm, &bad), Err(MssaError::InvalidComponents { .. })));
    }

    #[test]
    fn no_observations_rejected() {
        let tcm = Tcm::complete(periodic_truth(24, 3)).masked(&Matrix::zeros(24, 3)).unwrap();
        assert!(matches!(mssa_impute(&tcm, &cfg_small()), Err(MssaError::NoObservations)));
    }

    #[test]
    fn complete_matrix_is_identity() {
        let truth = periodic_truth(36, 4);
        let tcm = Tcm::complete(truth.clone());
        let out = mssa_impute(&tcm, &cfg_small()).unwrap();
        assert_eq!(out, truth);
    }

    #[test]
    fn fully_missing_column_gets_filled() {
        let truth = periodic_truth(48, 5);
        let mut mask = Matrix::filled(48, 5, 1.0);
        for i in 0..48 {
            mask.set(i, 2, 0.0);
        }
        let tcm = Tcm::complete(truth.clone()).masked(&mask).unwrap();
        let out = mssa_impute(&tcm, &cfg_small()).unwrap();
        // Filled values are finite and in a sane speed range.
        for i in 0..48 {
            let v = out.get(i, 2);
            assert!(v.is_finite());
            assert!(v > 0.0 && v < 100.0, "value {v}");
        }
    }
}
