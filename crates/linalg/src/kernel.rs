//! Vectorized and fixed-rank Gram kernels.
//!
//! The ALS sweep spends nearly all of its time in two loops from
//! [`crate::lstsq`]: [`accumulate_gram`]
//! (rank-r outer products over the observed entries of a unit) and
//! [`cholesky_solve_in_place`]
//! (factor + two triangular solves). This module provides drop-in
//! replacements that unroll those loops into explicit 4-wide f64 lanes,
//! plus const-generic fixed-rank specializations ([`GramKernel`]) for the
//! ranks the paper's experiments actually use (r ∈ {4, 8, 16}), where the
//! compiler can emit fully unrolled, register-resident code with no
//! dynamic trip counts at all.
//!
//! # Bit-exactness contract
//!
//! Every kernel in this module produces output **bit-for-bit identical**
//! to the scalar reference in `lstsq` — not merely close. The repo's
//! replay parity, solve-cache digests, chaos oracles, and checkpoint
//! round-trips all compare exact bits, so a kernel that reassociated a
//! single sum would be observable system-wide. The vectorization is
//! therefore restricted to transformations that provably preserve IEEE
//! semantics:
//!
//! * In Gram accumulation each entry `g[i][j]` is an *independent*
//!   accumulator receiving exactly one `row[i] * row[j]` product per
//!   observation row, in row order. Splitting the `j` loop into 4-wide
//!   lanes assigns each lane a disjoint set of accumulators — no single
//!   sum is ever reassociated.
//! * The fixed-rank kernels accumulate a *padded* lower triangle (row
//!   `i` computes `j < pad(i)`, `pad(i)` = `i+1` rounded up to a full
//!   4-lane) so the inner loop has no tail branch. The extra lanes land
//!   in scratch entries above the diagonal that are discarded at
//!   writeback; the surviving entries saw exactly the scalar op
//!   sequence.
//! * Cholesky and the triangular substitutions are reductions into one
//!   scalar, so they are unrolled without changing the strictly
//!   sequential `sum -= a[k]*b[k]` order (the unroll only removes loop
//!   and bounds-check overhead; the float ops are order-identical).
//!
//! The differential rig in `tests/kernel_parity_rig.rs` enforces this
//! contract at 0 ulp over adversarial geometries, and carries a negative
//! control proving it would detect a reassociating kernel.
//!
//! # Selection
//!
//! [`KernelVariant::auto`] picks the best variant for a runtime rank:
//! the fixed-rank kernel when `r ∈ {4, 8, 16}` and the unrolled kernel
//! otherwise. [`set_kernel_override`] forces a variant (the scalar
//! reference included) for benches and tests. Because all variants
//! agree bitwise, the choice only ever changes speed, never results.

use std::sync::atomic::{AtomicU8, Ordering};

use crate::lstsq::{accumulate_gram, cholesky_solve_in_place, SolveError};

/// Which Gram/Cholesky kernel implementation a [`GramScratch`]
/// dispatches to. All variants are bit-for-bit identical; they differ
/// only in how the loops are laid out for the compiler.
///
/// [`GramScratch`]: crate::lstsq::GramScratch
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelVariant {
    /// The reference implementation in `lstsq` — simple nested loops,
    /// kept as the bit-exact baseline every other variant is diffed
    /// against.
    Scalar,
    /// Runtime-rank kernel with the inner loops unrolled into 4-wide
    /// f64 lanes (exact triangle, scalar tail).
    Unrolled,
    /// Fully monomorphized rank-4 kernel.
    Fixed4,
    /// Fully monomorphized rank-8 kernel.
    Fixed8,
    /// Fully monomorphized rank-16 kernel.
    Fixed16,
}

impl KernelVariant {
    /// All variants, scalar first — handy for exhaustive parity sweeps.
    pub const ALL: [KernelVariant; 5] = [
        KernelVariant::Scalar,
        KernelVariant::Unrolled,
        KernelVariant::Fixed4,
        KernelVariant::Fixed8,
        KernelVariant::Fixed16,
    ];

    /// Stable lower-case name used in bench JSON and error messages.
    pub fn name(self) -> &'static str {
        match self {
            KernelVariant::Scalar => "scalar",
            KernelVariant::Unrolled => "unrolled",
            KernelVariant::Fixed4 => "fixed4",
            KernelVariant::Fixed8 => "fixed8",
            KernelVariant::Fixed16 => "fixed16",
        }
    }

    /// Whether this variant can solve rank-`r` systems.
    pub fn supports(self, r: usize) -> bool {
        match self {
            KernelVariant::Scalar | KernelVariant::Unrolled => true,
            KernelVariant::Fixed4 => r == 4,
            KernelVariant::Fixed8 => r == 8,
            KernelVariant::Fixed16 => r == 16,
        }
    }

    /// Every variant that supports rank `r`, scalar first.
    pub fn supported(r: usize) -> impl Iterator<Item = KernelVariant> {
        Self::ALL.into_iter().filter(move |v| v.supports(r))
    }

    /// Picks the variant for a runtime rank: the overridden variant when
    /// [`set_kernel_override`] is in force, else the fixed-rank kernel
    /// when one exists and the unrolled kernel otherwise.
    pub fn auto(r: usize) -> KernelVariant {
        if let Some(forced) = kernel_override() {
            if forced.supports(r) {
                return forced;
            }
            // A forced fixed-rank kernel that can't serve this rank
            // degrades to the nearest family member, not to a panic:
            // benches force Fixed8 once and still solve warmup ranks.
            if forced == KernelVariant::Scalar {
                return KernelVariant::Scalar;
            }
            return KernelVariant::Unrolled;
        }
        match r {
            4 => KernelVariant::Fixed4,
            8 => KernelVariant::Fixed8,
            16 => KernelVariant::Fixed16,
            _ => KernelVariant::Unrolled,
        }
    }

    /// Accumulates the ridge normal equations with this variant. Same
    /// contract (and same bits) as
    /// [`accumulate_gram`].
    ///
    /// # Panics
    ///
    /// Panics when buffer sizes disagree or the variant does not
    /// support `rhs.len()` (fixed-rank kernel fed the wrong rank).
    pub fn accumulate<'a>(
        self,
        rows: impl Iterator<Item = (&'a [f64], f64)>,
        lambda: f64,
        gram: &mut [f64],
        rhs: &mut [f64],
    ) {
        match self {
            KernelVariant::Scalar => accumulate_gram(rows, lambda, gram, rhs),
            KernelVariant::Unrolled => accumulate_gram_unrolled(rows, lambda, gram, rhs),
            KernelVariant::Fixed4 => GramKernel::<4>::accumulate(rows, lambda, gram, rhs),
            KernelVariant::Fixed8 => GramKernel::<8>::accumulate(rows, lambda, gram, rhs),
            KernelVariant::Fixed16 => GramKernel::<16>::accumulate(rows, lambda, gram, rhs),
        }
    }

    /// Factors and solves in place with this variant. Same contract
    /// (and same bits) as
    /// [`cholesky_solve_in_place`].
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::NotPositiveDefinite`] exactly when the
    /// scalar reference does, with the same pivot index.
    ///
    /// # Panics
    ///
    /// Panics when buffer sizes disagree or the variant does not
    /// support `rhs.len()`.
    pub fn solve_in_place(
        self,
        gram: &mut [f64],
        rhs: &[f64],
        y: &mut [f64],
        out: &mut [f64],
    ) -> Result<(), SolveError> {
        match self {
            KernelVariant::Scalar => cholesky_solve_in_place(gram, rhs, y, out),
            KernelVariant::Unrolled => cholesky_solve_in_place_unrolled(gram, rhs, y, out),
            KernelVariant::Fixed4 => GramKernel::<4>::solve_in_place(gram, rhs, y, out),
            KernelVariant::Fixed8 => GramKernel::<8>::solve_in_place(gram, rhs, y, out),
            KernelVariant::Fixed16 => GramKernel::<16>::solve_in_place(gram, rhs, y, out),
        }
    }

    fn to_code(self) -> u8 {
        match self {
            KernelVariant::Scalar => 1,
            KernelVariant::Unrolled => 2,
            KernelVariant::Fixed4 => 3,
            KernelVariant::Fixed8 => 4,
            KernelVariant::Fixed16 => 5,
        }
    }

    fn from_code(code: u8) -> Option<KernelVariant> {
        match code {
            1 => Some(KernelVariant::Scalar),
            2 => Some(KernelVariant::Unrolled),
            3 => Some(KernelVariant::Fixed4),
            4 => Some(KernelVariant::Fixed8),
            5 => Some(KernelVariant::Fixed16),
            _ => None,
        }
    }
}

impl std::fmt::Display for KernelVariant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Process-global kernel override consulted by [`KernelVariant::auto`].
/// `0` means "no override"; other values are `to_code` outputs.
static KERNEL_OVERRIDE: AtomicU8 = AtomicU8::new(0);

/// Forces every subsequently constructed `GramScratch` onto `variant`
/// (or restores auto-selection with `None`). A bench/diagnostic hook:
/// because all variants are bit-identical, flipping the override can
/// change throughput but never results, so it is safe even with
/// concurrently running solvers.
///
/// Scratches constructed *before* the call keep their variant; use
/// `GramScratch::with_variant` for scoped, local control in tests.
pub fn set_kernel_override(variant: Option<KernelVariant>) {
    KERNEL_OVERRIDE.store(variant.map_or(0, KernelVariant::to_code), Ordering::Relaxed);
}

/// The override currently installed by [`set_kernel_override`], if any.
pub fn kernel_override() -> Option<KernelVariant> {
    KernelVariant::from_code(KERNEL_OVERRIDE.load(Ordering::Relaxed))
}

/// Runtime-rank Gram accumulation with the inner product loop split
/// into explicit 4-wide f64 lanes (exact lower triangle, scalar tail
/// for `(i+1) % 4` entries).
///
/// Bit-for-bit identical to
/// [`accumulate_gram`]: each Gram entry
/// is its own accumulator, so distributing entries across lanes never
/// reassociates any individual sum.
///
/// # Panics
///
/// Panics when `gram.len() != rhs.len()²` or a design row is shorter
/// than `rhs.len()`.
pub fn accumulate_gram_unrolled<'a>(
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
            let len = i + 1;
            let main = len & !3;
            let gi = &mut gram[i * r..i * r + len];
            let (g_main, g_tail) = gi.split_at_mut(main);
            let (r_main, r_tail) = row[..len].split_at(main);
            for (g4, r4) in g_main.chunks_exact_mut(4).zip(r_main.chunks_exact(4)) {
                g4[0] += di * r4[0];
                g4[1] += di * r4[1];
                g4[2] += di * r4[2];
                g4[3] += di * r4[3];
            }
            for (g, &v) in g_tail.iter_mut().zip(r_tail) {
                *g += di * v;
            }
            rhs[i] += di * y;
        }
    }
    for i in 0..r {
        gram[i * r + i] += lambda;
    }
}

/// `sum - Σ a[k]·b[k]`, accumulated strictly left to right — the same
/// op order as the scalar reference loops — with the body unrolled 4×
/// to cut loop and bounds-check overhead. `a` and `b` must be equally
/// long.
#[inline(always)]
fn fold_neg_dot(mut sum: f64, a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let n = a.len();
    let main = n & !3;
    let mut k = 0;
    while k < main {
        sum -= a[k] * b[k];
        sum -= a[k + 1] * b[k + 1];
        sum -= a[k + 2] * b[k + 2];
        sum -= a[k + 3] * b[k + 3];
        k += 4;
    }
    while k < n {
        sum -= a[k] * b[k];
        k += 1;
    }
    sum
}

/// Shared Cholesky + substitution body: callers pass the rank so the
/// fixed-rank wrappers can hand the compiler a compile-time constant
/// (`#[inline(always)]` + const propagation fully unrolls the loops)
/// while the runtime-rank wrapper reuses the identical arithmetic.
///
/// Operation-for-operation the same float sequence as the scalar
/// [`cholesky_solve_in_place`]:
/// the reductions run strictly sequentially (see [`fold_neg_dot`]), so
/// results agree bitwise including the `NotPositiveDefinite` pivot
/// index.
#[inline(always)]
fn cholesky_solve_impl(
    r: usize,
    gram: &mut [f64],
    rhs: &[f64],
    y: &mut [f64],
    out: &mut [f64],
) -> Result<(), SolveError> {
    assert_eq!(rhs.len(), r, "rhs must be length r");
    assert_eq!(gram.len(), r * r, "gram buffer must be r*r");
    assert_eq!(y.len(), r, "y scratch must be length r");
    assert_eq!(out.len(), r, "out buffer must be length r");
    // In-place Cholesky of the lower triangle: gram becomes L.
    for i in 0..r {
        for j in 0..=i {
            let sum = {
                let row_i = &gram[i * r..i * r + j];
                let row_j = &gram[j * r..j * r + j];
                fold_neg_dot(gram[i * r + j], row_i, row_j)
            };
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
        let acc = fold_neg_dot(rhs[i], &gram[i * r..i * r + i], &y[..i]);
        y[i] = acc / gram[i * r + i];
    }
    // Backward: Lᵀ out = y. Column-strided access, so the unroll is
    // written out by hand instead of via `fold_neg_dot`.
    for i in (0..r).rev() {
        let mut acc = y[i];
        let mut k = i + 1;
        while k + 4 <= r {
            acc -= gram[k * r + i] * out[k];
            acc -= gram[(k + 1) * r + i] * out[k + 1];
            acc -= gram[(k + 2) * r + i] * out[k + 2];
            acc -= gram[(k + 3) * r + i] * out[k + 3];
            k += 4;
        }
        while k < r {
            acc -= gram[k * r + i] * out[k];
            k += 1;
        }
        out[i] = acc / gram[i * r + i];
    }
    Ok(())
}

/// Runtime-rank in-place Cholesky solve with 4×-unrolled (but strictly
/// order-preserving) reductions. Bit-for-bit identical to
/// [`cholesky_solve_in_place`].
///
/// # Errors
///
/// Returns [`SolveError::NotPositiveDefinite`] exactly when the scalar
/// reference does, with the same pivot index.
///
/// # Panics
///
/// Panics when the buffer lengths disagree (`gram` must be `r²`, `y`
/// and `out` must be `r` where `r = rhs.len()`).
pub fn cholesky_solve_in_place_unrolled(
    gram: &mut [f64],
    rhs: &[f64],
    y: &mut [f64],
    out: &mut [f64],
) -> Result<(), SolveError> {
    cholesky_solve_impl(rhs.len(), gram, rhs, y, out)
}

/// Const-generic fixed-rank Gram/Cholesky kernel. `R` must be a
/// multiple of 4 (instantiated for 4, 8, 16 via
/// [`KernelVariant::auto`]); with the rank a compile-time constant the
/// accumulation loop becomes a branch-free padded triangle and the
/// solve fully unrolls into register-resident code.
pub struct GramKernel<const R: usize>;

impl<const R: usize> GramKernel<R> {
    /// Padded row width: `i + 1` rounded up to a whole 4-lane. For `R`
    /// a multiple of 4 this never exceeds `R`, so row `i` of the local
    /// triangle reads `row[0..pad(i)]` with no tail branch; lanes with
    /// `j > i` accumulate into scratch entries that writeback discards.
    #[inline(always)]
    fn pad(i: usize) -> usize {
        (i + 4) & !3
    }

    /// Fixed-rank Gram accumulation into a local `R × R` scratch
    /// triangle, written back (lower triangle + λ diagonal) at the end.
    /// Bit-for-bit identical to
    /// [`accumulate_gram`] at rank `R`.
    ///
    /// # Panics
    ///
    /// Panics when `rhs.len() != R`, `gram.len() != R²`, or a design
    /// row is shorter than `R`.
    pub fn accumulate<'a>(
        rows: impl Iterator<Item = (&'a [f64], f64)>,
        lambda: f64,
        gram: &mut [f64],
        rhs: &mut [f64],
    ) {
        assert!(R.is_multiple_of(4), "GramKernel requires a 4-lane rank");
        assert_eq!(rhs.len(), R, "rhs must be length R");
        assert_eq!(gram.len(), R * R, "gram buffer must be R*R");
        let mut acc = [[0.0f64; R]; R];
        let mut acc_rhs = [0.0f64; R];
        for (row, y) in rows {
            let row: &[f64; R] = row[..R].try_into().expect("design row shorter than rank");
            for i in 0..R {
                let di = row[i];
                let ai = &mut acc[i];
                let mut j = 0;
                while j < Self::pad(i) {
                    ai[j] += di * row[j];
                    ai[j + 1] += di * row[j + 1];
                    ai[j + 2] += di * row[j + 2];
                    ai[j + 3] += di * row[j + 3];
                    j += 4;
                }
                acc_rhs[i] += di * y;
            }
        }
        // Writeback: lower triangle only (exactly what the solve
        // reads), zeros elsewhere, λ added to the accumulated diagonal
        // in the same final position as the scalar kernel.
        gram.fill(0.0);
        for i in 0..R {
            gram[i * R..i * R + i + 1].copy_from_slice(&acc[i][..i + 1]);
            gram[i * R + i] += lambda;
        }
        rhs.copy_from_slice(&acc_rhs);
    }

    /// Fixed-rank in-place Cholesky solve: the shared order-preserving
    /// body monomorphized at `R`, so every loop bound is a constant.
    /// Bit-for-bit identical to
    /// [`cholesky_solve_in_place`].
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::NotPositiveDefinite`] exactly when the
    /// scalar reference does, with the same pivot index.
    ///
    /// # Panics
    ///
    /// Panics when `rhs.len() != R` or the other buffers disagree.
    pub fn solve_in_place(
        gram: &mut [f64],
        rhs: &[f64],
        y: &mut [f64],
        out: &mut [f64],
    ) -> Result<(), SolveError> {
        assert_eq!(rhs.len(), R, "rhs must be length R");
        cholesky_solve_impl(R, gram, rhs, y, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn auto_picks_fixed_rank_when_available() {
        set_kernel_override(None);
        assert_eq!(KernelVariant::auto(4), KernelVariant::Fixed4);
        assert_eq!(KernelVariant::auto(8), KernelVariant::Fixed8);
        assert_eq!(KernelVariant::auto(16), KernelVariant::Fixed16);
        assert_eq!(KernelVariant::auto(5), KernelVariant::Unrolled);
        assert_eq!(KernelVariant::auto(1), KernelVariant::Unrolled);
    }

    #[test]
    fn supported_lists_scalar_first() {
        let at_8: Vec<_> = KernelVariant::supported(8).collect();
        assert_eq!(at_8, [KernelVariant::Scalar, KernelVariant::Unrolled, KernelVariant::Fixed8]);
        let at_5: Vec<_> = KernelVariant::supported(5).collect();
        assert_eq!(at_5, [KernelVariant::Scalar, KernelVariant::Unrolled]);
    }

    #[test]
    fn display_matches_name() {
        for v in KernelVariant::ALL {
            assert_eq!(v.to_string(), v.name());
        }
    }

    #[test]
    fn padded_width_stays_within_rank() {
        for i in 0..8 {
            let pad = GramKernel::<8>::pad(i);
            assert!(pad > i && pad <= 8 && pad.is_multiple_of(4), "pad({i}) = {pad}");
        }
        for i in 0..16 {
            let pad = GramKernel::<16>::pad(i);
            assert!(pad > i && pad <= 16 && pad.is_multiple_of(4), "pad({i}) = {pad}");
        }
    }
}
