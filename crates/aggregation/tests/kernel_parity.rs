//! Property tests for the kernel determinism contract: the chunked parallel
//! path of every GAR kernel must be **bit-identical** to the serial path on
//! random and adversarial inputs.
//!
//! The protocol's correctness argument requires honest nodes that fold the
//! same message multiset to compute the same aggregate; a parallel kernel
//! that drifted by even one ULP would silently break the honest-server
//! agreement the contraction lemma provides. Only built with the `parallel`
//! feature (without it there is nothing to compare).
#![cfg(feature = "parallel")]

use aggregation::kernel::{self, Exec};
use aggregation::{Bulyan, Gar, GarKind, ScoreMetric};
use proptest::prelude::*;
use tensor::{Tensor, TensorRng};

/// Forces real chunking even on single-core machines: with the default
/// thread count of 1 the parallel path short-circuits to the serial one and
/// the property would hold vacuously.
fn force_threads() {
    std::env::set_var("GUANYU_KERNEL_THREADS", "4");
}

/// Random cluster of `n` vectors of dimension `d`, with `byz` of them
/// replaced by adversarial extremes (huge magnitudes, single poisoned
/// coordinates, near-duplicates of honest vectors).
fn cluster(seed: u64, n: usize, d: usize, byz: usize) -> Vec<Tensor> {
    let mut rng = TensorRng::new(seed);
    let mut xs: Vec<Tensor> = (0..n - byz)
        .map(|_| rng.normal_tensor(&[d], 0.0, 1.0))
        .collect();
    for b in 0..byz {
        let mut v = match b % 3 {
            // Far outlier.
            0 => Tensor::full(&[d], 1e9),
            // L2-close with one poisoned coordinate (the Bulyan scenario).
            1 => {
                let mut v = xs[0].clone();
                let mid = d / 2;
                v.set(&[mid], 1e6).unwrap();
                v
            }
            // Near-duplicate of an honest vector (stresses tie-breaking).
            _ => xs[b % xs.len()].clone(),
        };
        v.set(&[0], v.get(&[0]).unwrap() + b as f32).unwrap();
        xs.push(v);
    }
    xs
}

fn views(xs: &[Tensor]) -> Vec<&[f32]> {
    xs.iter().map(Tensor::as_slice).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Pairwise-distance matrices agree bit-for-bit for both metrics.
    #[test]
    fn pairwise_distances_parity(seed in 0u64..1000, n in 5usize..12, byz in 0usize..3) {
        force_threads();
        let xs = cluster(seed, n + byz, 6000, byz);
        let views = views(&xs);
        for metric in [ScoreMetric::SquaredEuclidean, ScoreMetric::Euclidean] {
            let serial = kernel::pairwise_distances(Exec::Serial, &views, metric);
            let parallel = kernel::pairwise_distances(Exec::Parallel, &views, metric);
            prop_assert_eq!(&serial, &parallel);
        }
    }

    /// Every coordinate-wise kernel agrees bit-for-bit.
    #[test]
    fn coordinate_kernels_parity(seed in 0u64..1000, byz in 0usize..4) {
        force_threads();
        let n = 9 + byz;
        let d = 9000; // n·d crosses the parallel threshold
        let xs = cluster(seed, n, d, byz);
        let views = views(&xs);
        let mut serial = vec![0.0f32; d];
        let mut parallel = vec![0.0f32; d];

        kernel::median_into(Exec::Serial, &views, &mut serial);
        kernel::median_into(Exec::Parallel, &views, &mut parallel);
        prop_assert_eq!(&serial, &parallel, "median");

        kernel::trimmed_mean_into(Exec::Serial, &views, 2, &mut serial);
        kernel::trimmed_mean_into(Exec::Parallel, &views, 2, &mut parallel);
        prop_assert_eq!(&serial, &parallel, "trimmed-mean");

        kernel::meamed_into(Exec::Serial, &views, n - 2, &mut serial);
        kernel::meamed_into(Exec::Parallel, &views, n - 2, &mut parallel);
        prop_assert_eq!(&serial, &parallel, "meamed");

        kernel::bulyan_fold_into(Exec::Serial, &views, n - 4, &mut serial);
        kernel::bulyan_fold_into(Exec::Parallel, &views, n - 4, &mut parallel);
        prop_assert_eq!(&serial, &parallel, "bulyan fold");

        kernel::average_into(Exec::Serial, &views, &mut serial);
        kernel::average_into(Exec::Parallel, &views, &mut parallel);
        prop_assert_eq!(&serial, &parallel, "average");

        // The sharded plane's identity under the parallel dispatch: folding
        // each of k shard ranges on its own reproduces the serial full fold.
        type RangeKernel = fn(Exec, &[&[f32]], usize, &mut [f32]);
        let ranged: [(&str, RangeKernel); 3] = [
            ("average", kernel::average_range_into),
            ("median", kernel::median_range_into),
            ("trimmed-mean", |e, v, s, o| {
                kernel::trimmed_mean_range_into(e, v, 1, s, o)
            }),
        ];
        for (name, fold) in ranged {
            fold(Exec::Serial, &views, 0, &mut serial);
            for k in [2usize, 4, 8] {
                let width = d.div_ceil(k);
                for (g, chunk) in parallel.chunks_mut(width).enumerate() {
                    fold(Exec::Parallel, &views, g * width, chunk);
                }
                prop_assert_eq!(&serial, &parallel, "{} over {} shard ranges", name, k);
            }
        }
    }

    /// Full rules stay deterministic under the parallel dispatch: repeated
    /// aggregation of the same inputs is bit-identical for every GarKind.
    #[test]
    fn rules_deterministic_under_parallel_dispatch(seed in 0u64..500) {
        force_threads();
        let xs = cluster(seed, 12, 5000, 2);
        for kind in [
            GarKind::Average,
            GarKind::Median,
            GarKind::Krum,
            GarKind::MultiKrum,
            GarKind::TrimmedMean,
            GarKind::Bulyan,
            GarKind::Meamed,
            GarKind::GeometricMedian,
        ] {
            let rule = kind.build(2).unwrap();
            let a = rule.aggregate(&xs).unwrap();
            let b = rule.aggregate(&xs).unwrap();
            prop_assert_eq!(a, b, "{} must be deterministic", rule.name());
        }
    }
}

/// Bulyan's one-matrix masked selection must match the from-scratch
/// submatrix scoring it replaced (same winners, same fold).
#[test]
fn bulyan_masked_selection_matches_naive_rescoring() {
    force_threads();
    for seed in 0..10u64 {
        let xs = cluster(seed, 11, 2000, 2);
        let rule = Bulyan::new(2).unwrap();
        let fast = rule.aggregate(&xs).unwrap();

        // Naive reference: rebuild the distance matrix for every selection
        // round over the remaining tensors only.
        let n = xs.len();
        let (select_count, f) = (n - 2 * 2, 2usize);
        let mut active: Vec<usize> = (0..n).collect();
        let mut selected = Vec::new();
        while selected.len() < select_count {
            let m = active.len();
            let winner = if m >= 2 * f + 3 {
                let sub: Vec<&[f32]> = active.iter().map(|&i| xs[i].as_slice()).collect();
                let dist =
                    kernel::pairwise_distances(Exec::Serial, &sub, ScoreMetric::SquaredEuclidean);
                let scores = kernel::krum_scores(&dist, m, m - f - 2);
                active[kernel::select_smallest(&scores, 1)[0]]
            } else {
                active[0]
            };
            selected.push(winner);
            active.retain(|&i| i != winner);
        }
        let chosen: Vec<&[f32]> = selected.iter().map(|&i| xs[i].as_slice()).collect();
        let mut out = vec![0.0f32; xs[0].len()];
        kernel::bulyan_fold_into(Exec::Serial, &chosen, n - 4 * f, &mut out);
        let reference = Tensor::from_flat(out);
        assert_eq!(fast, reference, "seed {seed}");
    }
}
