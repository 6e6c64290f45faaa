//! Eigenflow extraction and three-way classification (Eq. 10, Figs. 5–8).
//!
//! The columns of `U` in `X = U S Vᵀ` are the *eigenflows* of the traffic
//! condition matrix (terminology from Lakhina et al.'s network-traffic
//! structural analysis \[24\]). Eq. 10 sorts them into three mutually
//! exclusive types, checked in order:
//!
//! 1. **Periodic / deterministic** — `|FFT(u)|` contains a spike: the
//!    flow encodes daily/weekly rhythm and carries most information;
//! 2. **Spike** — `u` itself contains a temporal spike: the flow encodes
//!    localized anomalies (incidents);
//! 3. **Noise** — everything else; near-zero mean, little information.
//!
//! A value is a spike when it deviates from the series mean by more than
//! four standard deviations (the paper's `4σ` rule).

use linalg::fft::magnitude_spectrum;
use linalg::stats::spike_indices;
use linalg::{Matrix, MatrixShapeError, Svd};

/// The spike threshold in standard deviations (the paper uses 4).
pub const SPIKE_SIGMA: f64 = 4.0;

/// The three eigenflow types of Eq. 10.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EigenflowType {
    /// Type 1: the FFT magnitude contains a spike (periodic flow).
    Periodic,
    /// Type 2: the time series itself contains a spike.
    Spike,
    /// Type 3: neither — noise.
    Noise,
}

impl std::fmt::Display for EigenflowType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EigenflowType::Periodic => write!(f, "type-1 (periodic)"),
            EigenflowType::Spike => write!(f, "type-2 (spike)"),
            EigenflowType::Noise => write!(f, "type-3 (noise)"),
        }
    }
}

/// Classifies one eigenflow series per Eq. 10.
pub fn classify_series(u: &[f64]) -> EigenflowType {
    let mags = magnitude_spectrum(u);
    if !spike_indices(&mags, SPIKE_SIGMA).is_empty() {
        return EigenflowType::Periodic;
    }
    if !spike_indices(u, SPIKE_SIGMA).is_empty() {
        return EigenflowType::Spike;
    }
    EigenflowType::Noise
}

/// A classified decomposition of a traffic condition matrix.
#[derive(Debug, Clone)]
pub struct EigenflowAnalysis {
    svd: Svd,
    types: Vec<EigenflowType>,
}

impl EigenflowAnalysis {
    /// Decomposes `x` and classifies every eigenflow.
    ///
    /// # Errors
    ///
    /// Propagates [`Svd::compute`] failures.
    pub fn compute(x: &Matrix) -> Result<Self, MatrixShapeError> {
        let svd = Svd::compute(x)?;
        let types =
            (0..svd.singular_values().len()).map(|i| classify_series(&svd.u().col(i))).collect();
        Ok(Self { svd, types })
    }

    /// The underlying decomposition.
    pub fn svd(&self) -> &Svd {
        &self.svd
    }

    /// Type of the `i`-th eigenflow (singular values in decreasing
    /// order) — the data behind Fig. 8.
    pub fn types(&self) -> &[EigenflowType] {
        &self.types
    }

    /// The `i`-th eigenflow series `u_i` (Eq. 8).
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    pub fn eigenflow(&self, i: usize) -> Vec<f64> {
        assert!(i < self.types.len(), "eigenflow {i} out of range");
        self.svd.u().col(i)
    }

    /// Indices of the eigenflows of a given type.
    pub fn indices_of(&self, ty: EigenflowType) -> Vec<usize> {
        self.types.iter().enumerate().filter(|&(_, t)| *t == ty).map(|(i, _)| i).collect()
    }

    /// Reconstruction using only the eigenflows of `ty` (Fig. 7).
    pub fn reconstruct_by_type(&self, ty: EigenflowType) -> Matrix {
        self.svd.reconstruct_components(&self.indices_of(ty))
    }

    /// Count per type, in (periodic, spike, noise) order.
    pub fn type_counts(&self) -> (usize, usize, usize) {
        let p = self.indices_of(EigenflowType::Periodic).len();
        let s = self.indices_of(EigenflowType::Spike).len();
        let n = self.indices_of(EigenflowType::Noise).len();
        (p, s, n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{RngExt, SeedableRng};

    #[test]
    fn pure_sine_is_periodic() {
        let u: Vec<f64> =
            (0..128).map(|t| (2.0 * std::f64::consts::PI * 8.0 * t as f64 / 128.0).sin()).collect();
        assert_eq!(classify_series(&u), EigenflowType::Periodic);
    }

    #[test]
    fn impulse_is_spike() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        // Small noise plus one huge spike; noise prevents a degenerate
        // zero-variance FFT test.
        let mut u: Vec<f64> = (0..128).map(|_| rng.random_range(-0.02..0.02)).collect();
        u[40] = 5.0;
        assert_eq!(classify_series(&u), EigenflowType::Spike);
    }

    #[test]
    fn white_noise_is_noise() {
        // White noise occasionally draws a realization whose strongest
        // FFT bin clears the periodicity threshold (~13% of seeds), so
        // require the typical outcome across several seeds rather than
        // pinning one draw.
        let noise_count = (0..9u64)
            .filter(|&seed| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
                let u: Vec<f64> = (0..256).map(|_| rng.random_range(-1.0..1.0)).collect();
                classify_series(&u) == EigenflowType::Noise
            })
            .count();
        assert!(noise_count >= 6, "only {noise_count}/9 white-noise draws classified as noise");
    }

    #[test]
    fn periodic_beats_spike_in_precedence() {
        // A strong periodic signal with a mild bump stays type 1 — the
        // construction is checked in order (Eq. 10).
        let mut u: Vec<f64> =
            (0..128).map(|t| (2.0 * std::f64::consts::PI * 4.0 * t as f64 / 128.0).sin()).collect();
        u[10] += 0.3;
        assert_eq!(classify_series(&u), EigenflowType::Periodic);
    }

    fn structured_traffic_matrix() -> Matrix {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        Matrix::from_fn(96, 20, |t, s| {
            let daily = (2.0 * std::f64::consts::PI * t as f64 / 48.0).sin();
            let spike = if t == 37 && s < 10 { -12.0 } else { 0.0 };
            40.0 + 8.0 * daily * (1.0 + 0.07 * s as f64) + spike + rng.random_range(-0.8..0.8)
        })
    }

    #[test]
    fn leading_eigenflows_of_traffic_matrix_are_periodic() {
        let analysis = EigenflowAnalysis::compute(&structured_traffic_matrix()).unwrap();
        // The first component dominates (mean level); the top few must
        // include periodic flows, the tail mostly noise (Fig. 8).
        let types = analysis.types();
        assert!(types[..3].contains(&EigenflowType::Periodic), "top types {:?}", &types[..4]);
        let (p, s, n) = analysis.type_counts();
        assert_eq!(p + s + n, types.len());
        assert!(n > types.len() / 2, "noise should dominate the tail: {p},{s},{n}");
    }

    #[test]
    fn type_reconstructions_partition_matrix() {
        let x = structured_traffic_matrix();
        let analysis = EigenflowAnalysis::compute(&x).unwrap();
        let sum = &(&analysis.reconstruct_by_type(EigenflowType::Periodic)
            + &analysis.reconstruct_by_type(EigenflowType::Spike))
            + &analysis.reconstruct_by_type(EigenflowType::Noise);
        assert!(sum.approx_eq(&x, 1e-7), "type reconstructions don't sum to X");
    }

    #[test]
    fn periodic_reconstruction_carries_most_energy() {
        let x = structured_traffic_matrix();
        let analysis = EigenflowAnalysis::compute(&x).unwrap();
        let periodic = analysis.reconstruct_by_type(EigenflowType::Periodic);
        let noise = analysis.reconstruct_by_type(EigenflowType::Noise);
        assert!(
            periodic.frobenius_norm() > 5.0 * noise.frobenius_norm(),
            "periodic {} vs noise {}",
            periodic.frobenius_norm(),
            noise.frobenius_norm()
        );
    }

    #[test]
    fn noise_reconstruction_near_zero_mean() {
        let x = structured_traffic_matrix();
        let analysis = EigenflowAnalysis::compute(&x).unwrap();
        let noise = analysis.reconstruct_by_type(EigenflowType::Noise);
        let mean = noise.sum() / noise.len() as f64;
        assert!(mean.abs() < 0.5, "noise mean {mean}");
    }

    #[test]
    fn eigenflow_accessor_and_display() {
        let analysis = EigenflowAnalysis::compute(&structured_traffic_matrix()).unwrap();
        assert_eq!(analysis.eigenflow(0).len(), 96);
        assert!(EigenflowType::Periodic.to_string().contains("type-1"));
        assert!(EigenflowType::Spike.to_string().contains("type-2"));
        assert!(EigenflowType::Noise.to_string().contains("type-3"));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn eigenflow_out_of_range_panics() {
        let analysis = EigenflowAnalysis::compute(&structured_traffic_matrix()).unwrap();
        analysis.eigenflow(999);
    }
}
