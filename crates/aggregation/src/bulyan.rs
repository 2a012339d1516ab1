//! Bulyan — Multi-Krum selection followed by a trimmed coordinate-wise fold.

use tensor::Tensor;

use crate::gar::{fold_into, validate_inputs};
use crate::kernel;
use crate::{AggregationError, Gar, Result};

/// Bulyan (El-Mhamdi et al., ICML 2018) over Krum.
///
/// Bulyan defends against the "hidden vulnerability" of distance-based rules
/// in high dimension: an attacker can stay close in L2 norm while planting a
/// huge error in one coordinate. It proceeds in two phases:
///
/// 1. **Selection**: repeatedly pick the remaining input with the smallest
///    Krum score, moving each winner into a selection set `S`, until
///    `|S| = n - 2f`.
/// 2. **Fold**: for each coordinate, average the `n - 4f` values of `S`
///    closest to the coordinate's median.
///
/// Requires `n ≥ 4f + 3`. It is included as an ablation comparator for
/// GuanYu's server-side GAR.
#[derive(Debug, Clone, Copy)]
pub struct Bulyan {
    f: usize,
}

impl Bulyan {
    /// Creates Bulyan declared to withstand `f ≥ 1` Byzantine inputs.
    ///
    /// # Errors
    ///
    /// Returns [`AggregationError::InvalidConfig`] when `f = 0`.
    pub fn new(f: usize) -> Result<Self> {
        if f == 0 {
            return Err(AggregationError::InvalidConfig(
                "bulyan requires f >= 1".to_owned(),
            ));
        }
        Ok(Bulyan { f })
    }

    /// The declared Byzantine input count.
    pub fn f(&self) -> usize {
        self.f
    }
}

impl Gar for Bulyan {
    fn name(&self) -> String {
        format!("bulyan(f={})", self.f)
    }

    fn minimum_inputs(&self) -> usize {
        4 * self.f + 3
    }

    fn byzantine_tolerance(&self) -> usize {
        self.f
    }

    fn aggregate(&self, inputs: &[Tensor]) -> Result<Tensor> {
        let dims = validate_inputs(inputs, self.minimum_inputs())?;
        let n = inputs.len();
        let select_count = n - 2 * self.f;
        let beta = n - 4 * self.f;
        let views = kernel::views(inputs);

        // Phase 1: iterated Krum selection. The O(n²·d) distance matrix is
        // computed exactly once; each selection round rescoring only masks
        // out the already-selected indices (O(n² log n), no d term), where
        // the previous implementation recomputed the full matrix per round.
        let dist = kernel::pairwise_distances(&views);
        let mut active: Vec<usize> = (0..n).collect();
        let mut selected: Vec<usize> = Vec::with_capacity(select_count);
        while selected.len() < select_count {
            let m = active.len();
            // Krum needs 2f+3 inputs; as the active set shrinks below that
            // we can safely take all of it — the adversary's `f` vectors are
            // already outnumbered in the selection set.
            let winner = if m >= 2 * self.f + 3 {
                let k = m - self.f - 2;
                let scores = kernel::krum_scores_masked(&dist, n, &active, k);
                active[kernel::select_smallest(&scores, 1)[0]]
            } else {
                active[0]
            };
            selected.push(winner);
            active.retain(|&i| i != winner);
        }

        // Phase 2: per-coordinate, average the beta values closest to the
        // median of the selection set.
        let chosen: Vec<&[f32]> = selected.iter().map(|&i| views[i]).collect();
        Ok(fold_into(&dims, |out| {
            kernel::bulyan_fold_into(&chosen, beta, out)
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tensor::TensorRng;

    #[test]
    fn rejects_f_zero() {
        assert!(Bulyan::new(0).is_err());
    }

    #[test]
    fn requires_4f_plus_3() {
        let b = Bulyan::new(1).unwrap();
        assert_eq!(b.minimum_inputs(), 7);
        let xs = vec![Tensor::zeros(&[1]); 6];
        assert!(b.aggregate(&xs).is_err());
    }

    #[test]
    fn all_equal_inputs_fixed_point() {
        let xs = vec![Tensor::from_flat(vec![2.0, -3.0]); 7];
        let out = Bulyan::new(1).unwrap().aggregate(&xs).unwrap();
        assert_eq!(out.as_slice(), &[2.0, -3.0]);
    }

    #[test]
    fn resists_l2_close_single_coordinate_attack() {
        // The "hidden vulnerability" scenario: the Byzantine vector matches
        // the honest cluster except for one poisoned coordinate.
        let mut xs: Vec<Tensor> = (0..6)
            .map(|i| {
                let mut v = vec![1.0f32; 10];
                v[0] += 0.01 * i as f32;
                Tensor::from_flat(v)
            })
            .collect();
        let mut byz = vec![1.0f32; 10];
        byz[5] = 50.0; // large planted error in coordinate 5
        xs.push(Tensor::from_flat(byz));
        let out = Bulyan::new(1).unwrap().aggregate(&xs).unwrap();
        assert!(
            (out.as_slice()[5] - 1.0).abs() < 0.5,
            "poisoned coordinate must be filtered, got {}",
            out.as_slice()[5]
        );
    }

    #[test]
    fn resists_far_outliers() {
        let mut xs: Vec<Tensor> = (0..6)
            .map(|i| Tensor::from_flat(vec![0.1 * i as f32, 1.0]))
            .collect();
        xs.push(Tensor::from_flat(vec![1e8, -1e8]));
        let out = Bulyan::new(1).unwrap().aggregate(&xs).unwrap();
        assert!(out.as_slice()[0].abs() < 1.0);
        assert!((out.as_slice()[1] - 1.0).abs() < 0.5);
    }

    #[test]
    fn deterministic() {
        let xs: Vec<Tensor> = (0..7)
            .map(|i| Tensor::from_flat(vec![i as f32, -(i as f32)]))
            .collect();
        let b = Bulyan::new(1).unwrap();
        assert_eq!(b.aggregate(&xs).unwrap(), b.aggregate(&xs).unwrap());
    }

    /// Nine honest normal vectors of dimension `d` plus two adversarial
    /// ones: a far outlier, and an L2-close copy of an honest vector with one
    /// poisoned coordinate (the Bulyan scenario).
    fn cluster(seed: u64, d: usize) -> Vec<Tensor> {
        let mut rng = TensorRng::new(seed);
        let mut xs: Vec<Tensor> = (0..9).map(|_| rng.normal_tensor(&[d], 0.0, 1.0)).collect();
        let mut poisoned = xs[0].clone();
        poisoned.set(&[d / 2], 1e6).unwrap();
        poisoned
            .set(&[0], poisoned.get(&[0]).unwrap() + 1.0)
            .unwrap();
        xs.push(Tensor::full(&[d], 1e9));
        xs.push(poisoned);
        xs
    }

    /// Bulyan's one-matrix masked selection must match the from-scratch
    /// submatrix scoring it replaced (same winners, same fold).
    #[test]
    fn bulyan_masked_selection_matches_naive_rescoring() {
        for seed in 0..10u64 {
            let xs = cluster(seed, 2000);
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
                    let dist = kernel::pairwise_distances(&sub);
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
            kernel::bulyan_fold_into(&chosen, n - 4 * f, &mut out);
            let reference = Tensor::from_flat(out);
            assert_eq!(fast, reference, "seed {seed}");
        }
    }
}
