//! [`Histogram::merge`] must be indistinguishable from observing both
//! streams into one histogram: same bucket counts, count, min, max and
//! quantiles, and a sum equal up to float re-association. Merging an
//! empty histogram changes nothing.

use proptest::prelude::*;
use telemetry::metrics::HISTOGRAM_BUCKETS;
use telemetry::Histogram;

fn observed(values: &[f64]) -> Histogram {
    let h = Histogram::default();
    for &v in values {
        h.observe(v);
    }
    h
}

/// Asserts `merged` matches `direct` in every exact statistic, and in
/// the sum to within re-association error.
fn assert_same(merged: &Histogram, direct: &Histogram) {
    for i in 0..HISTOGRAM_BUCKETS {
        assert_eq!(merged.bucket_count(i), direct.bucket_count(i), "bucket {i}");
    }
    assert_eq!(merged.count(), direct.count());
    assert_eq!(merged.min(), direct.min());
    assert_eq!(merged.max(), direct.max());
    for q in [0.0, 0.1, 0.5, 0.9, 0.99, 1.0] {
        assert_eq!(merged.quantile(q), direct.quantile(q), "q={q}");
    }
    let tol = 1e-12 * direct.sum().abs().max(1.0);
    assert!((merged.sum() - direct.sum()).abs() <= tol, "sum {} vs {}", merged.sum(), direct.sum());
}

#[test]
fn merge_equals_observing_both_streams() {
    let a = [0.5, 3.0, 17.0, 1e6];
    let b = [0.001, 2.0, 2.5, 40.0, 40.0];
    let merged = observed(&a);
    merged.merge(&observed(&b));
    assert_same(&merged, &observed(&[&a[..], &b[..]].concat()));
}

#[test]
fn merge_into_empty_copies_the_source() {
    let src = observed(&[1.0, 8.0, 300.0]);
    let dst = Histogram::default();
    dst.merge(&src);
    assert_same(&dst, &src);
}

#[test]
fn merging_an_empty_histogram_is_a_no_op() {
    let dst = observed(&[4.0, 9.0]);
    let before = observed(&[4.0, 9.0]);
    dst.merge(&Histogram::default());
    assert_same(&dst, &before);
    assert_eq!(dst.sum().to_bits(), before.sum().to_bits());

    let empty = Histogram::default();
    empty.merge(&Histogram::default());
    assert_eq!(empty.count(), 0);
    assert_eq!(empty.min(), None);
    assert_eq!(empty.max(), None);
    assert_eq!(empty.quantile(0.5), None);
}

#[test]
fn merge_leaves_the_source_untouched() {
    let src = observed(&[2.0, 6.0]);
    observed(&[1.0]).merge(&src);
    assert_same(&src, &observed(&[2.0, 6.0]));
}

proptest! {
    #[test]
    fn merge_matches_direct_observation(
        a in proptest::collection::vec(0.0f64..1e7, 0..64),
        b in proptest::collection::vec(0.0f64..1e7, 0..64),
    ) {
        let merged = observed(&a);
        merged.merge(&observed(&b));
        let both: Vec<f64> = a.iter().chain(&b).copied().collect();
        assert_same(&merged, &observed(&both));
    }
}
