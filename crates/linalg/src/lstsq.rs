//! Least-squares and ridge solvers.
//!
//! Algorithm 1's `inverse(P, Q)` procedure computes the best approximate
//! solution `C = PᵀP \ PᵀQ` of the contradictory system `P C = Q` (Eq. 17).
//! With `P = [L; sqrt(λ) I]` and `Q = [M; 0]` that is exactly the ridge
//! (Tikhonov) regression `(LᵀL + λI) C = Lᵀ M`. Two implementations are
//! offered:
//!
//! * [`solve_normal_equations`] — the paper's route: form the Gram matrix
//!   and solve with Cholesky. Fast (`O(r²m + r³)`), adequate because λ > 0
//!   keeps the system well conditioned.
//! * [`solve_qr`] — Householder QR on the stacked system, numerically safer
//!   when λ is tiny. Used by the `als_solver` ablation bench.

use crate::kernel::KernelVariant;
use crate::qr::{QrDecomposition, QrError};
use crate::{Matrix, MatrixShapeError};

/// Error returned by direct solvers.
#[derive(Debug, Clone, PartialEq)]
pub enum SolveError {
    /// Input shapes are inconsistent.
    Shape(MatrixShapeError),
    /// The Gram matrix is not positive definite (Cholesky pivot `<= 0`),
    /// which for ridge systems can only happen with λ = 0 and a
    /// rank-deficient design matrix.
    NotPositiveDefinite {
        /// Index of the failing pivot.
        index: usize,
    },
    /// QR solver failure.
    Qr(QrError),
}

impl std::fmt::Display for SolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolveError::Shape(e) => write!(f, "{e}"),
            SolveError::NotPositiveDefinite { index } => {
                write!(f, "matrix not positive definite at pivot {index}")
            }
            SolveError::Qr(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SolveError {}

impl From<MatrixShapeError> for SolveError {
    fn from(e: MatrixShapeError) -> Self {
        SolveError::Shape(e)
    }
}

impl From<QrError> for SolveError {
    fn from(e: QrError) -> Self {
        SolveError::Qr(e)
    }
}

/// Cholesky decomposition `A = L Lᵀ` of a symmetric positive-definite
/// matrix; returns the lower-triangular factor `L`.
///
/// # Errors
///
/// Returns [`SolveError::NotPositiveDefinite`] when a pivot is not strictly
/// positive, and a shape error for non-square input.
///
/// ```
/// use linalg::{Matrix, lstsq::cholesky};
///
/// let a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]]);
/// let l = cholesky(&a).unwrap();
/// let back = l.matmul(&l.transpose()).unwrap();
/// assert!(back.approx_eq(&a, 1e-12));
/// ```
pub fn cholesky(a: &Matrix) -> Result<Matrix, SolveError> {
    let n = a.rows();
    if a.cols() != n {
        return Err(SolveError::Shape(MatrixShapeError::new(format!(
            "cholesky requires a square matrix, got {}x{}",
            a.rows(),
            a.cols()
        ))));
    }
    let mut l = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..=i {
            let mut sum = a.get(i, j);
            for k in 0..j {
                sum -= l.get(i, k) * l.get(j, k);
            }
            if i == j {
                if sum <= 0.0 {
                    return Err(SolveError::NotPositiveDefinite { index: i });
                }
                l.set(i, j, sum.sqrt());
            } else {
                l.set(i, j, sum / l.get(j, j));
            }
        }
    }
    Ok(l)
}

/// Solves `A X = B` for symmetric positive-definite `A` via Cholesky
/// (forward then backward substitution per column of `B`).
///
/// # Errors
///
/// Propagates Cholesky failures and shape mismatches.
pub fn solve_spd(a: &Matrix, b: &Matrix) -> Result<Matrix, SolveError> {
    let l = cholesky(a)?;
    let n = a.rows();
    if b.rows() != n {
        return Err(SolveError::Shape(MatrixShapeError::new(format!(
            "rhs has {} rows, expected {n}",
            b.rows()
        ))));
    }
    let mut x = Matrix::zeros(n, b.cols());
    for col in 0..b.cols() {
        // Forward: L y = b.
        let mut y = vec![0.0; n];
        for i in 0..n {
            let mut acc = b.get(i, col);
            for k in 0..i {
                acc -= l.get(i, k) * y[k];
            }
            y[i] = acc / l.get(i, i);
        }
        // Backward: Lᵀ x = y.
        for i in (0..n).rev() {
            let mut acc = y[i];
            for k in i + 1..n {
                acc -= l.get(k, i) * x.get(k, col);
            }
            x.set(i, col, acc / l.get(i, i));
        }
    }
    Ok(x)
}

/// Ridge regression via normal equations: solves
/// `(AᵀA + λ I) X = Aᵀ B`, i.e. `min_X ‖A X − B‖_F² + λ‖X‖_F²`.
///
/// This is the literal `inverse([A; sqrt(λ) I], [B; 0])` of the paper's
/// Algorithm 1 (`PᵀP \ PᵀQ` with the stacked system folded analytically).
///
/// # Errors
///
/// Fails when shapes mismatch or when `λ = 0` and `A` is rank deficient.
///
/// ```
/// use linalg::{Matrix, lstsq::solve_normal_equations};
///
/// let a = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]]);
/// let b = Matrix::column_vector(&[1.0, 2.0, 3.0]);
/// let x = solve_normal_equations(&a, &b, 0.0).unwrap();
/// assert!((x.get(0, 0) - 1.0).abs() < 1e-9);
/// ```
pub fn solve_normal_equations(a: &Matrix, b: &Matrix, lambda: f64) -> Result<Matrix, SolveError> {
    let at = a.transpose();
    let mut gram = at.matmul(a)?;
    for i in 0..gram.rows() {
        let d = gram.get(i, i);
        gram.set(i, i, d + lambda);
    }
    let rhs = at.matmul(b)?;
    solve_spd(&gram, &rhs)
}

/// Accumulates the ridge normal equations `AᵀA + λI` and `Aᵀy` directly
/// from the design rows of the observed entries, without materializing
/// `A`: each `(row, y)` pair contributes `row rowᵀ` to `gram` and
/// `y·row` to `rhs`.
///
/// Only the lower triangle of `gram` (row-major `r × r`) is written —
/// exactly the entries [`cholesky_solve_in_place`] reads. Contributions
/// are added in iteration order, which makes the result bit-for-bit
/// identical to `Aᵀ.matmul(A)` / `Aᵀ.matmul(y)` on the materialized
/// design matrix: both accumulate each entry's partial products in
/// observation order.
///
/// This is the *scalar reference kernel*: the vectorized variants in
/// [`crate::kernel`] are verified bit-for-bit against it.
///
/// # Panics
///
/// Panics when `gram.len() != rhs.len()²` or a design row is shorter
/// than `rhs.len()`.
pub fn accumulate_gram<'a>(
    rows: impl Iterator<Item = (&'a [f64], f64)>,
    lambda: f64,
    gram: &mut [f64],
    rhs: &mut [f64],
) {
    let r = rhs.len();
    assert_eq!(gram.len(), r * r, "gram buffer must be r*r");
    gram.fill(0.0);
    rhs.fill(0.0);
    for (row, y) in rows {
        let row = &row[..r];
        for i in 0..r {
            let di = row[i];
            let gi = &mut gram[i * r..i * r + i + 1];
            for (j, g) in gi.iter_mut().enumerate() {
                *g += di * row[j];
            }
            rhs[i] += di * y;
        }
    }
    for i in 0..r {
        gram[i * r + i] += lambda;
    }
}

/// Solves `G x = rhs` for symmetric positive-definite `G` entirely in
/// caller-owned buffers: the lower triangle of `gram` is overwritten by
/// its Cholesky factor, `y` is the forward-substitution scratch, and the
/// solution lands in `out`. No heap allocation.
///
/// The arithmetic replays [`cholesky`] + [`solve_spd`] operation for
/// operation (same loop order, same association), so the result is
/// bit-for-bit identical to the allocating route. This is the *scalar
/// reference kernel* the vectorized variants in [`crate::kernel`] are
/// verified against.
///
/// # Errors
///
/// Returns [`SolveError::NotPositiveDefinite`] when a pivot is not
/// strictly positive (for ridge systems, only possible with `λ = 0` and
/// a rank-deficient design).
///
/// # Panics
///
/// Panics when the buffer lengths disagree (`gram` must be `r²`, `y`
/// and `out` must be `r` where `r = rhs.len()`).
pub fn cholesky_solve_in_place(
    gram: &mut [f64],
    rhs: &[f64],
    y: &mut [f64],
    out: &mut [f64],
) -> Result<(), SolveError> {
    let r = rhs.len();
    assert_eq!(gram.len(), r * r, "gram buffer must be r*r");
    assert_eq!(y.len(), r, "y scratch must be length r");
    assert_eq!(out.len(), r, "out buffer must be length r");
    // In-place Cholesky of the lower triangle: gram becomes L.
    for i in 0..r {
        for j in 0..=i {
            let mut sum = gram[i * r + j];
            for k in 0..j {
                sum -= gram[i * r + k] * gram[j * r + k];
            }
            if i == j {
                if sum <= 0.0 {
                    return Err(SolveError::NotPositiveDefinite { index: i });
                }
                gram[i * r + i] = sum.sqrt();
            } else {
                gram[i * r + j] = sum / gram[j * r + j];
            }
        }
    }
    // Forward: L y = rhs.
    for i in 0..r {
        let mut acc = rhs[i];
        for k in 0..i {
            acc -= gram[i * r + k] * y[k];
        }
        y[i] = acc / gram[i * r + i];
    }
    // Backward: Lᵀ out = y.
    for i in (0..r).rev() {
        let mut acc = y[i];
        for k in i + 1..r {
            acc -= gram[k * r + i] * out[k];
        }
        out[i] = acc / gram[i * r + i];
    }
    Ok(())
}

/// Caller-owned scratch for the allocation-free ridge kernel: one `r×r`
/// Gram buffer plus two `r`-vectors, allocated once and reused across
/// any number of [`GramScratch::solve_ridge`] calls. This is what each
/// ALS worker carries across the units of a sweep.
///
/// Construction picks a kernel implementation via
/// [`KernelVariant::auto`] — the fixed-rank kernel for r ∈ {4, 8, 16},
/// the 4-lane unrolled kernel otherwise, or whatever
/// [`crate::kernel::set_kernel_override`] forces. All variants are
/// bit-for-bit identical, so the choice affects speed only.
#[derive(Debug, Clone)]
pub struct GramScratch {
    r: usize,
    variant: KernelVariant,
    gram: Vec<f64>,
    rhs: Vec<f64>,
    y: Vec<f64>,
}

impl GramScratch {
    /// Allocates scratch for rank-`r` ridge systems, auto-selecting the
    /// kernel variant for the rank.
    pub fn new(r: usize) -> Self {
        Self::with_variant(r, KernelVariant::auto(r))
    }

    /// Allocates scratch pinned to an explicit kernel `variant` — used
    /// by the parity rig and benches to compare implementations without
    /// touching the process-global override.
    ///
    /// # Panics
    ///
    /// Panics when `variant` does not support rank `r` (a fixed-rank
    /// kernel fed a different rank).
    pub fn with_variant(r: usize, variant: KernelVariant) -> Self {
        assert!(variant.supports(r), "kernel variant {variant} does not support rank {r}");
        Self { r, variant, gram: vec![0.0; r * r], rhs: vec![0.0; r], y: vec![0.0; r] }
    }

    /// The rank this scratch was sized for.
    pub fn rank(&self) -> usize {
        self.r
    }

    /// The kernel variant this scratch dispatches to.
    pub fn variant(&self) -> KernelVariant {
        self.variant
    }

    /// Solves `min_x ‖A x − y‖² + λ‖x‖²` where `A`'s rows (and the
    /// matching targets) come from `rows`, writing the solution into
    /// `out` without allocating. Bit-for-bit equal to
    /// [`solve_normal_equations`] on the materialized system.
    ///
    /// # Errors
    ///
    /// See [`cholesky_solve_in_place`].
    ///
    /// # Panics
    ///
    /// Panics when `out.len() != self.rank()` or a design row is
    /// shorter than the rank.
    pub fn solve_ridge<'a>(
        &mut self,
        rows: impl Iterator<Item = (&'a [f64], f64)>,
        lambda: f64,
        out: &mut [f64],
    ) -> Result<(), SolveError> {
        self.variant.accumulate(rows, lambda, &mut self.gram, &mut self.rhs);
        self.variant.solve_in_place(&mut self.gram, &self.rhs, &mut self.y, out)
    }

    /// Solves one ridge unit whose design rows are the rows of `design`
    /// named by `indices` with targets `values`: the per-unit step of an
    /// ALS factor solve, shared by the full sweep and the incremental
    /// dirty-unit path so the two produce bit-identical rows by
    /// construction. An empty unit (no observations) is driven to zero
    /// by the regularizer, so `out` is filled with `0.0` directly.
    ///
    /// # Errors
    ///
    /// See [`cholesky_solve_in_place`].
    ///
    /// # Panics
    ///
    /// Panics when `indices` and `values` disagree in length, an index
    /// is out of bounds for `design`, or `out.len() != self.rank()`.
    pub fn solve_ridge_rows(
        &mut self,
        design: &Matrix,
        indices: &[u32],
        values: &[f64],
        lambda: f64,
        out: &mut [f64],
    ) -> Result<(), SolveError> {
        assert_eq!(indices.len(), values.len(), "indices and values must pair up");
        if indices.is_empty() {
            out.fill(0.0);
            return Ok(());
        }
        self.solve_ridge(
            indices.iter().zip(values).map(|(&i, &v)| (design.row(i as usize), v)),
            lambda,
            out,
        )
    }
}

/// Ridge regression via QR on the explicitly stacked system
/// `[A; sqrt(λ) I] X = [B; 0]` — numerically safer than the normal
/// equations when `A` is ill conditioned.
///
/// # Errors
///
/// Fails when shapes mismatch or the stacked system is rank deficient
/// (only possible at `λ = 0`).
pub fn solve_qr(a: &Matrix, b: &Matrix, lambda: f64) -> Result<Matrix, SolveError> {
    let n = a.cols();
    let stacked_a = a.vstack(&(&Matrix::identity(n) * lambda.sqrt()))?;
    let stacked_b = b.vstack(&Matrix::zeros(n, b.cols()))?;
    let qr = QrDecomposition::new(&stacked_a)?;
    Ok(qr.solve(&stacked_b)?)
}

/// Which direct solver the ALS inner step should use. Exposed so benches
/// can ablate the design choice called out in DESIGN.md.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RidgeSolver {
    /// Normal equations + Cholesky (the paper's `inverse` procedure).
    #[default]
    NormalEquations,
    /// Householder QR on the stacked system.
    Qr,
}

impl RidgeSolver {
    /// Solves `min_X ‖A X − B‖_F² + λ‖X‖_F²` with the selected backend.
    ///
    /// # Errors
    ///
    /// Propagates the backend's failure modes (see [`solve_normal_equations`]
    /// and [`solve_qr`]).
    pub fn solve(self, a: &Matrix, b: &Matrix, lambda: f64) -> Result<Matrix, SolveError> {
        match self {
            RidgeSolver::NormalEquations => solve_normal_equations(a, b, lambda),
            RidgeSolver::Qr => solve_qr(a, b, lambda),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn random_matrix(m: usize, n: usize, seed: u64) -> Matrix {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        Matrix::random_uniform(m, n, &mut rng, -2.0, 2.0)
    }

    #[test]
    fn cholesky_known_factor() {
        let a = Matrix::from_rows(&[&[25.0, 15.0, -5.0], &[15.0, 18.0, 0.0], &[-5.0, 0.0, 11.0]]);
        let l = cholesky(&a).unwrap();
        let expected = Matrix::from_rows(&[&[5.0, 0.0, 0.0], &[3.0, 3.0, 0.0], &[-1.0, 1.0, 3.0]]);
        assert!(l.approx_eq(&expected, 1e-12));
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]);
        assert!(matches!(cholesky(&a), Err(SolveError::NotPositiveDefinite { .. })));
    }

    #[test]
    fn cholesky_rejects_non_square() {
        assert!(matches!(cholesky(&Matrix::zeros(2, 3)), Err(SolveError::Shape(_))));
    }

    #[test]
    fn solve_spd_exact() {
        let a = Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]]);
        let x_true = Matrix::from_rows(&[&[1.0, -2.0], &[2.0, 0.5]]);
        let b = a.matmul(&x_true).unwrap();
        let x = solve_spd(&a, &b).unwrap();
        assert!(x.approx_eq(&x_true, 1e-10));
    }

    #[test]
    fn normal_equations_match_qr_with_regularization() {
        let a = random_matrix(30, 5, 1);
        let b = random_matrix(30, 4, 2);
        let lambda = 0.5;
        let x_ne = solve_normal_equations(&a, &b, lambda).unwrap();
        let x_qr = solve_qr(&a, &b, lambda).unwrap();
        assert!(x_ne.approx_eq(&x_qr, 1e-7), "solvers disagree");
    }

    #[test]
    fn ridge_shrinks_towards_zero() {
        let a = random_matrix(20, 3, 3);
        let b = random_matrix(20, 1, 4);
        let x_small = solve_normal_equations(&a, &b, 1e-6).unwrap();
        let x_large = solve_normal_equations(&a, &b, 1e6).unwrap();
        assert!(x_large.frobenius_norm() < 1e-3 * x_small.frobenius_norm().max(1e-9) + 1e-3);
    }

    #[test]
    fn ridge_optimality_condition() {
        // Gradient of the ridge objective must vanish: Aᵀ(AX - B) + λX = 0.
        let a = random_matrix(25, 4, 5);
        let b = random_matrix(25, 2, 6);
        let lambda = 2.5;
        for solver in [RidgeSolver::NormalEquations, RidgeSolver::Qr] {
            let x = solver.solve(&a, &b, lambda).unwrap();
            let grad =
                &a.transpose().matmul(&(&a.matmul(&x).unwrap() - &b)).unwrap() + &(&x * lambda);
            assert!(grad.max_abs() < 1e-8, "{solver:?} gradient {:?}", grad.max_abs());
        }
    }

    #[test]
    fn rank_deficient_with_zero_lambda_fails() {
        let a = Matrix::from_rows(&[&[1.0, 1.0], &[2.0, 2.0], &[3.0, 3.0]]);
        let b = Matrix::column_vector(&[1.0, 2.0, 3.0]);
        assert!(solve_normal_equations(&a, &b, 0.0).is_err());
        // With a positive lambda the same system becomes solvable.
        assert!(solve_normal_equations(&a, &b, 1e-3).is_ok());
    }

    #[test]
    fn default_solver_is_normal_equations() {
        assert_eq!(RidgeSolver::default(), RidgeSolver::NormalEquations);
    }

    /// The Gram kernel must reproduce the allocating normal-equations
    /// route *bit for bit*: same products, same summation order.
    #[test]
    fn gram_kernel_matches_normal_equations_bitwise() {
        for (m, r, lambda, seed) in
            [(12, 3, 0.5, 10), (40, 8, 100.0, 11), (7, 2, 1e-6, 12), (5, 5, 2.0, 13)]
        {
            let a = random_matrix(m, r, seed);
            let b = random_matrix(m, 1, seed + 100);
            let expected = solve_normal_equations(&a, &b, lambda).unwrap();
            let mut scratch = GramScratch::new(r);
            let mut out = vec![0.0; r];
            scratch.solve_ridge((0..m).map(|i| (a.row(i), b.get(i, 0))), lambda, &mut out).unwrap();
            for (k, &got) in out.iter().enumerate() {
                assert!(
                    got.to_bits() == expected.get(k, 0).to_bits(),
                    "m={m} r={r} λ={lambda}: entry {k}: {got:?} vs {:?}",
                    expected.get(k, 0)
                );
            }
        }
    }

    #[test]
    fn gram_kernel_reuse_is_stateless() {
        // Solving system B after system A must give the same bits as
        // solving B with fresh scratch: the buffers are fully reset.
        let a1 = random_matrix(20, 4, 21);
        let b1 = random_matrix(20, 1, 22);
        let a2 = random_matrix(9, 4, 23);
        let b2 = random_matrix(9, 1, 24);
        let mut reused = GramScratch::new(4);
        let mut out = vec![0.0; 4];
        reused.solve_ridge((0..20).map(|i| (a1.row(i), b1.get(i, 0))), 0.3, &mut out).unwrap();
        reused.solve_ridge((0..9).map(|i| (a2.row(i), b2.get(i, 0))), 0.3, &mut out).unwrap();
        let mut fresh = GramScratch::new(4);
        let mut expected = vec![0.0; 4];
        fresh.solve_ridge((0..9).map(|i| (a2.row(i), b2.get(i, 0))), 0.3, &mut expected).unwrap();
        assert_eq!(
            out.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            expected.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn solve_ridge_rows_matches_solve_ridge_bitwise() {
        let design = random_matrix(14, 3, 31);
        let indices: Vec<u32> = vec![0, 3, 5, 9, 13];
        let values: Vec<f64> = vec![1.5, -0.25, 2.0, 0.75, -1.0];
        let lambda = 0.8;
        let mut by_rows = GramScratch::new(3);
        let mut got = vec![0.0; 3];
        by_rows.solve_ridge_rows(&design, &indices, &values, lambda, &mut got).unwrap();
        let mut by_iter = GramScratch::new(3);
        let mut expected = vec![0.0; 3];
        by_iter
            .solve_ridge(
                indices.iter().zip(values.iter()).map(|(&i, &v)| (design.row(i as usize), v)),
                lambda,
                &mut expected,
            )
            .unwrap();
        assert_eq!(
            got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            expected.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn solve_ridge_rows_empty_unit_is_zero() {
        let design = random_matrix(4, 2, 32);
        let mut scratch = GramScratch::new(2);
        let mut out = vec![7.0; 2];
        scratch.solve_ridge_rows(&design, &[], &[], 1.0, &mut out).unwrap();
        assert_eq!(out, vec![0.0, 0.0]);
    }

    #[test]
    fn gram_kernel_detects_indefinite() {
        // Rank-deficient design with λ = 0: second pivot is exactly 0.
        let rows = [[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]];
        let mut scratch = GramScratch::new(2);
        let mut out = vec![0.0; 2];
        let err =
            scratch.solve_ridge(rows.iter().map(|r| (&r[..], 1.0)), 0.0, &mut out).unwrap_err();
        assert!(matches!(err, SolveError::NotPositiveDefinite { .. }), "{err}");
    }

    #[test]
    fn accumulate_gram_lower_triangle_and_lambda() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let mut gram = vec![0.0; 4];
        let mut rhs = vec![0.0; 2];
        accumulate_gram((0..2).map(|i| (a.row(i), 1.0)), 10.0, &mut gram, &mut rhs);
        // AᵀA = [[10, 14], [14, 20]]; lower triangle + λ on the diagonal.
        assert_eq!(gram[0], 20.0);
        assert_eq!(gram[2], 14.0);
        assert_eq!(gram[3], 30.0);
        assert_eq!(rhs, vec![4.0, 6.0]);
    }
}
