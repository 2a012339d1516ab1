//! Regression tests: finite-but-extreme inputs must never panic a GAR.
//!
//! `validate_inputs` rejects NaN/inf *inputs*, but finite coordinates near
//! `f32::MAX` overflow the Krum score arithmetic to infinity. The original
//! `select_smallest` sorted with `partial_cmp(..).expect("scores are
//! finite")` — a panic waiting for the first adversarial magnitude. All
//! score and column sorts now use total orderings (`f32::total_cmp` /
//! `f64::total_cmp`), so extreme values reorder deterministically instead
//! of aborting an honest server mid-round.

use aggregation::{Bulyan, CoordinateWiseMedian, Gar, Krum, MultiKrum, TrimmedMean};
use tensor::Tensor;

/// 6 honest vectors near the origin plus one at ±f32::MAX: pairwise
/// distances to the outlier overflow to +inf, and squared-metric scores
/// reach +inf while staying NaN-free inputs.
fn overflow_cluster() -> Vec<Tensor> {
    let mut xs: Vec<Tensor> = (0..6)
        .map(|i| Tensor::from_flat(vec![0.01 * i as f32, 1.0]))
        .collect();
    xs.push(Tensor::from_flat(vec![f32::MAX, -f32::MAX]));
    xs
}

#[test]
fn krum_survives_score_overflow() {
    let xs = overflow_cluster();
    let out = Krum::new(1)
        .unwrap()
        .aggregate(&xs)
        .expect("no panic, no error");
    // The winner must be one of the honest inputs.
    assert!(xs[..6].iter().any(|h| h == &out));
}

#[test]
fn multikrum_selection_excludes_overflow_outlier() {
    let xs = overflow_cluster();
    let mk = MultiKrum::new(1).unwrap();
    let scores = mk.scores(&xs).unwrap();
    // Every honest score is infinite too (each honest vector's closest
    // neighbours can include the outlier only at rank > k), but the
    // outlier's score must not be *smaller* than the honest ones.
    let selection = mk.selection(&xs).unwrap();
    assert!(!selection.contains(&6), "scores: {scores:?}");
    let out = mk.aggregate(&xs).unwrap();
    assert!(out.is_finite());
}

#[test]
fn multiple_colluding_extremes_do_not_panic() {
    // Two colluding near-f32::MAX vectors at the quorum boundary n = 2f+3.
    let mut xs: Vec<Tensor> = (0..5)
        .map(|i| Tensor::from_flat(vec![0.1 * i as f32]))
        .collect();
    xs.push(Tensor::from_flat(vec![f32::MAX / 2.0]));
    xs.push(Tensor::from_flat(vec![f32::MAX / 2.0]));
    let out = MultiKrum::new(2).unwrap().aggregate(&xs).unwrap();
    assert!(out.as_slice()[0].abs() < 1.0, "got {:?}", out.as_slice());
}

#[test]
fn bulyan_survives_score_overflow() {
    let mut xs: Vec<Tensor> = (0..6)
        .map(|i| Tensor::from_flat(vec![0.01 * i as f32, 1.0]))
        .collect();
    xs.push(Tensor::from_flat(vec![f32::MAX, -f32::MAX]));
    let out = Bulyan::new(1).unwrap().aggregate(&xs).unwrap();
    assert!(out.is_finite());
    assert!((out.as_slice()[1] - 1.0).abs() < 0.5);
}

#[test]
fn coordinate_rules_survive_extreme_columns() {
    // ±f32::MAX columns exercise the total-order column sorts.
    let xs = vec![
        Tensor::from_flat(vec![f32::MAX, -f32::MAX, 1.0]),
        Tensor::from_flat(vec![1.0, 1.0, 1.0]),
        Tensor::from_flat(vec![-f32::MAX, f32::MAX, 1.0]),
        Tensor::from_flat(vec![2.0, 2.0, 2.0]),
        Tensor::from_flat(vec![0.0, 0.0, 0.0]),
    ];
    let med = CoordinateWiseMedian::new().aggregate(&xs).unwrap();
    assert!(med.is_finite());
    let tm = TrimmedMean::new(1).unwrap().aggregate(&xs).unwrap();
    assert!(tm.is_finite());
}
