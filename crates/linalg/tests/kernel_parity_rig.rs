//! Kernel-parity differential rig.
//!
//! Drives the scalar reference, the 4-lane unrolled kernel, and the
//! fixed-rank kernels over adversarial geometries — r = 1..=17, empty
//! axes (zero observation rows), single-observation rows, subnormal and
//! huge-magnitude values, λ sweeps including λ = 0 — and diffs every
//! intermediate (Gram lower triangle, RHS) and final (solution vector or
//! `SolveError`) against the scalar kernel.
//!
//! # Ulp-bound policy
//!
//! The comparator supports a configurable ulp budget so the rig could
//! admit a documented reassociation, but every *shipped* kernel is
//! gated at **0 ulps** (`SHIPPED_MAX_ULPS`): the variants restrict
//! themselves to transformations that preserve the scalar op order per
//! accumulator (see `linalg::kernel`), and the repo's replay parity,
//! solve-cache digests, and chaos oracles all compare exact bits, so no
//! divergence is permitted. Because the shipped budget is zero, there
//! is no "permitted divergence" to replay through `Service`; the
//! stronger end-to-end statement — scalar vs. auto kernels produce
//! byte-identical `Service` replays — is pinned in
//! `crates/core/tests/kernel_parity.rs`.
//!
//! A negative control (`rig_detects_reassociation`) proves the rig
//! notices a single reassociated addition: summing the same products in
//! reverse order shifts the result by 1 ulp on a crafted stream, and
//! the comparator reports exactly that.

use linalg::kernel::{set_kernel_override, KernelVariant};
use linalg::lstsq::{GramScratch, SolveError};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Ulp budget for every kernel variant this repo ships. Any future
/// variant that needs a nonzero budget must document the reassociation
/// in `linalg::kernel` and extend the `Service` replay-parity suite.
const SHIPPED_MAX_ULPS: u64 = 0;

/// Distance in units-in-the-last-place between two finite doubles,
/// mapped through the standard monotonic reinterpretation of the IEEE
/// bit pattern. Identical bit patterns (including identical NaNs) are
/// distance 0; differing NaN involvement is `u64::MAX`.
fn ulp_distance(a: f64, b: f64) -> u64 {
    if a.to_bits() == b.to_bits() {
        return 0;
    }
    if a.is_nan() || b.is_nan() {
        return u64::MAX;
    }
    fn monotonic(x: f64) -> i64 {
        let bits = x.to_bits() as i64;
        if bits < 0 {
            i64::MIN.wrapping_sub(bits)
        } else {
            bits
        }
    }
    monotonic(a).wrapping_sub(monotonic(b)).unsigned_abs()
}

/// Everything one kernel variant computes for one problem, as bits.
#[derive(Debug, PartialEq)]
struct KernelRun {
    gram: Vec<f64>,
    rhs: Vec<f64>,
    solution: Result<Vec<f64>, SolveError>,
}

fn run_variant(
    variant: KernelVariant,
    r: usize,
    rows: &[(Vec<f64>, f64)],
    lambda: f64,
) -> KernelRun {
    let mut gram = vec![0.0; r * r];
    let mut rhs = vec![0.0; r];
    variant.accumulate(
        rows.iter().map(|(row, y)| (row.as_slice(), *y)),
        lambda,
        &mut gram,
        &mut rhs,
    );
    let mut scratch = GramScratch::with_variant(r, variant);
    let mut out = vec![0.0; r];
    let solution = scratch
        .solve_ridge(rows.iter().map(|(row, y)| (row.as_slice(), *y)), lambda, &mut out)
        .map(|()| out);
    KernelRun { gram, rhs, solution }
}

/// Diffs `got` against the scalar `reference`, naming the variant, the
/// stage, and the exact lane of the first mismatch. The Gram triangle
/// and RHS are always held to 0 ulps (their accumulation order is
/// specified); the solution honours `max_ulps`.
fn compare(
    reference: &KernelRun,
    got: &KernelRun,
    variant: KernelVariant,
    r: usize,
    max_ulps: u64,
) -> Result<(), TestCaseError> {
    for i in 0..r {
        for j in 0..r {
            let (e, g) = (reference.gram[i * r + j], got.gram[i * r + j]);
            prop_assert!(
                e.to_bits() == g.to_bits(),
                "variant {variant} r={r}: gram[{i}][{j}] differs: {e:?} ({:#018x}) vs {g:?} ({:#018x})",
                e.to_bits(),
                g.to_bits()
            );
        }
    }
    for (k, (e, g)) in reference.rhs.iter().zip(&got.rhs).enumerate() {
        prop_assert!(
            e.to_bits() == g.to_bits(),
            "variant {variant} r={r}: rhs[{k}] differs: {e:?} vs {g:?}"
        );
    }
    match (&reference.solution, &got.solution) {
        (Ok(expected), Ok(out)) => {
            for (k, (e, g)) in expected.iter().zip(out).enumerate() {
                let ulps = ulp_distance(*e, *g);
                prop_assert!(
                    ulps <= max_ulps,
                    "variant {variant} r={r}: solution[{k}] off by {ulps} ulps \
                     (budget {max_ulps}): {e:?} vs {g:?}"
                );
            }
        }
        (Err(expected), Err(err)) => {
            prop_assert_eq!(expected, err, "variant {} r={}: error mismatch", variant, r);
        }
        (expected, got) => {
            return Err(TestCaseError::Fail(format!(
                "variant {variant} r={r}: scalar returned {expected:?} but kernel returned {got:?}"
            )));
        }
    }
    Ok(())
}

/// One adversarial scalar: moderate, huge (~1e100), or subnormal-range
/// magnitude, per the drawn class (class 3 mixes all of them).
fn draw_value(rng: &mut StdRng, class: usize) -> f64 {
    let pick = if class == 3 { rng.random_range(0..3usize) } else { class };
    match pick {
        0 => rng.random_range(-2.0..2.0),
        1 => rng.random_range(-1.0..1.0) * 1e100,
        _ => rng.random_range(-1.0..1.0) * 1e-308,
    }
}

fn draw_rows(rng: &mut StdRng, r: usize, nrows: usize, class: usize) -> Vec<(Vec<f64>, f64)> {
    (0..nrows)
        .map(|_| {
            let row: Vec<f64> = (0..r).map(|_| draw_value(rng, class)).collect();
            let y = draw_value(rng, class);
            (row, y)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// The headline property: every variant that supports the drawn
    /// rank reproduces the scalar kernel bit for bit — Gram triangle,
    /// RHS, and solution (or the identical `SolveError`) — across
    /// adversarial ranks, row counts (including empty and
    /// single-observation units), magnitudes, and λ values (including
    /// λ = 0, where failure parity is part of the contract).
    #[test]
    fn variants_match_scalar_bitwise_over_adversarial_geometries(
        r in 1usize..=17,
        nrows in 0usize..12,
        lambda_class in 0usize..4,
        value_class in 0usize..4,
        seed in 0u64..(1 << 20),
    ) {
        let lambda = [0.0, 1e-300, 0.5, 1e12][lambda_class];
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
        let rows = draw_rows(&mut rng, r, nrows, value_class);
        let reference = run_variant(KernelVariant::Scalar, r, &rows, lambda);
        for variant in KernelVariant::supported(r).skip(1) {
            let got = run_variant(variant, r, &rows, lambda);
            compare(&reference, &got, variant, r, SHIPPED_MAX_ULPS)?;
        }
    }

    /// λ sweep at the fixed ranks: the regularizer lands on the
    /// diagonal through the same final addition in every variant, from
    /// denormal λ up to λ large enough to dominate the Gram entries.
    #[test]
    fn lambda_sweep_preserves_bit_parity_at_fixed_ranks(
        rank_pick in 0usize..3,
        lambda_exp in -320i32..300,
        nrows in 1usize..9,
        seed in 0u64..(1 << 20),
    ) {
        let r = [4usize, 8, 16][rank_pick];
        let lambda = 10f64.powi(lambda_exp);
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x2545_f491_4f6c_dd1d));
        let rows = draw_rows(&mut rng, r, nrows, 0);
        let reference = run_variant(KernelVariant::Scalar, r, &rows, lambda);
        for variant in KernelVariant::supported(r).skip(1) {
            let got = run_variant(variant, r, &rows, lambda);
            compare(&reference, &got, variant, r, SHIPPED_MAX_ULPS)?;
        }
    }
}

/// Empty axes: with no observation rows the Gram matrix is exactly λI
/// and the solution is exactly zero in every variant; with λ = 0 every
/// variant must fail at pivot 0.
#[test]
fn empty_axis_parity() {
    for r in [1usize, 4, 5, 8, 16, 17] {
        let reference = run_variant(KernelVariant::Scalar, r, &[], 0.5);
        let zeros = vec![0u64; r];
        assert_eq!(
            reference.solution.as_ref().unwrap().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            zeros,
            "scalar empty-axis solution must be exactly zero at r={r}"
        );
        for variant in KernelVariant::supported(r).skip(1) {
            let got = run_variant(variant, r, &[], 0.5);
            compare(&reference, &got, variant, r, SHIPPED_MAX_ULPS).unwrap();
            let failed = run_variant(variant, r, &[], 0.0);
            assert_eq!(
                failed.solution.unwrap_err(),
                SolveError::NotPositiveDefinite { index: 0 },
                "variant {variant} r={r}: empty axis with λ=0 must fail at pivot 0"
            );
        }
    }
}

/// Rank-deficient design with λ = 0 must be rejected deterministically
/// by every variant, with the same pivot index: all-identical columns
/// zero the second pivot regardless of rank or kernel.
#[test]
fn rank_deficient_lambda_zero_error_parity() {
    for r in [2usize, 4, 5, 8, 16] {
        let rows: Vec<(Vec<f64>, f64)> = (0..3).map(|k| (vec![1.0 + k as f64; r], 1.0)).collect();
        for variant in KernelVariant::supported(r) {
            let got = run_variant(variant, r, &rows, 0.0);
            assert_eq!(
                got.solution.unwrap_err(),
                SolveError::NotPositiveDefinite { index: 1 },
                "variant {variant} r={r}: rank-deficient λ=0 pivot index"
            );
        }
    }
}

/// Negative control: the rig must be able to see a reassociation. A
/// kernel that sums the same per-entry products in reverse observation
/// order lands 1 ulp away from the reference on this crafted stream
/// (1e16 absorbs the two 1.0 contributions in forward order but not in
/// reverse), so a variant that reordered accumulation could not pass
/// the 0-ulp gate above.
#[test]
fn rig_detects_reassociation() {
    let rows: Vec<(Vec<f64>, f64)> = vec![(vec![1.0], 1e16), (vec![1.0], 1.0), (vec![1.0], 1.0)];
    let forward = run_variant(KernelVariant::Scalar, 1, &rows, 0.5);
    let reversed_rows: Vec<(Vec<f64>, f64)> = rows.iter().rev().cloned().collect();
    let reversed = run_variant(KernelVariant::Scalar, 1, &reversed_rows, 0.5);
    let (f, rv) = (forward.rhs[0], reversed.rhs[0]);
    assert_eq!(f, 1e16, "forward accumulation absorbs the unit contributions");
    assert_eq!(
        ulp_distance(f, rv),
        1,
        "reversed accumulation must land exactly 1 ulp away: {f:?} vs {rv:?}"
    );
    assert!(
        compare(&forward, &reversed, KernelVariant::Scalar, 1, SHIPPED_MAX_ULPS).is_err(),
        "the shipped 0-ulp gate must reject a reassociated accumulation"
    );
    // Accumulation order is *specified*, not merely preferred: the RHS
    // stage is held to 0 ulps regardless of the solution budget, so no
    // budget can launder a reordered accumulation through the rig.
    assert!(
        compare(&forward, &reversed, KernelVariant::Scalar, 1, u64::MAX).is_err(),
        "even an unlimited solution budget must not admit a reassociated RHS"
    );
}

/// The comparator itself: adjacent doubles are 1 ulp apart, sign
/// straddles measure through zero, and NaN mismatches are infinite.
#[test]
fn ulp_distance_is_calibrated() {
    assert_eq!(ulp_distance(1.0, 1.0), 0);
    assert_eq!(ulp_distance(-0.0, 0.0), 0);
    assert_eq!(ulp_distance(1.0, f64::from_bits(1.0f64.to_bits() + 1)), 1);
    assert_eq!(ulp_distance(5e-324, 0.0), 1);
    assert_eq!(ulp_distance(-5e-324, 5e-324), 2);
    assert_eq!(ulp_distance(1.0, f64::NAN), u64::MAX);
    let nan = f64::NAN;
    assert_eq!(ulp_distance(nan, nan), 0, "identical NaN bits compare equal");
}

/// The process-global override steers `GramScratch::new` (and nothing
/// else): scratches pin their variant at construction, unsupported
/// fixed-rank overrides degrade to the unrolled family, and forcing
/// the scalar reference reaches it at any rank.
#[test]
fn kernel_override_controls_auto_selection() {
    set_kernel_override(None);
    assert_eq!(GramScratch::new(8).variant(), KernelVariant::Fixed8);
    set_kernel_override(Some(KernelVariant::Scalar));
    assert_eq!(GramScratch::new(8).variant(), KernelVariant::Scalar);
    set_kernel_override(Some(KernelVariant::Unrolled));
    assert_eq!(GramScratch::new(8).variant(), KernelVariant::Unrolled);
    // A fixed-rank override that cannot serve the rank degrades to
    // unrolled rather than panicking mid-sweep.
    set_kernel_override(Some(KernelVariant::Fixed4));
    assert_eq!(GramScratch::new(8).variant(), KernelVariant::Unrolled);
    assert_eq!(GramScratch::new(4).variant(), KernelVariant::Fixed4);
    set_kernel_override(None);
}
