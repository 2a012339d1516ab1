//! Coordinate-wise median — `M` in the paper.

use tensor::Tensor;

use crate::gar::{fold_into, validate_inputs};
use crate::kernel;
use crate::{Gar, Result};

/// The coordinate-wise median.
///
/// Each output coordinate `i` is the median of the inputs' `i`-th
/// coordinates. Following the paper's formal definition (supplementary
/// §7.2): for an odd number of inputs the middle order statistic, for an
/// even number the mean of the two middle order statistics.
///
/// Two geometric facts make this rule the backbone of GuanYu:
///
/// 1. **Boundedness**: if a strict majority of inputs are honest, every
///    output coordinate lies within the honest inputs' coordinate range, so
///    the output lies inside the smallest axis-aligned box containing the
///    honest vectors (the "rectangular parallelotope" of §9.2.3).
/// 2. **Contraction**: medians of two overlapping honest quorums are, on
///    average, strictly closer to each other than the honest diameter, which
///    is what pulls the honest servers' models back together each step.
///
/// Both facts are property-tested in this crate (see `properties` and the
/// crate's `tests/`).
#[derive(Debug, Clone, Copy, Default)]
pub struct CoordinateWiseMedian;

impl CoordinateWiseMedian {
    /// Creates the rule.
    pub fn new() -> Self {
        CoordinateWiseMedian
    }
}

impl Gar for CoordinateWiseMedian {
    fn name(&self) -> String {
        "median".to_owned()
    }

    fn minimum_inputs(&self) -> usize {
        1
    }

    /// The median's breakdown point is 1/2: it withstands any minority of
    /// Byzantine inputs. We report `(n-1)/2` conservatively as "tolerance
    /// grows with the quorum", but since tolerance depends on the call-site
    /// quorum size, the protocol layer enforces its own `q ≥ 2f + 3` bound.
    fn byzantine_tolerance(&self) -> usize {
        usize::MAX / 2 // breakdown point 1/2 of however many inputs arrive
    }

    fn aggregate(&self, inputs: &[Tensor]) -> Result<Tensor> {
        let dims = validate_inputs(inputs, 1)?;
        Ok(fold_into(&dims, |out| {
            kernel::median_into(&kernel::views(inputs), out)
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn median_of(xs: &[Vec<f32>]) -> Vec<f32> {
        let ts: Vec<Tensor> = xs.iter().map(|v| Tensor::from_flat(v.clone())).collect();
        CoordinateWiseMedian::new()
            .aggregate(&ts)
            .unwrap()
            .into_vec()
    }

    #[test]
    fn odd_count_takes_middle() {
        assert_eq!(median_of(&[vec![1.0], vec![5.0], vec![3.0]]), vec![3.0]);
    }

    #[test]
    fn even_count_averages_middle_pair() {
        assert_eq!(
            median_of(&[vec![1.0], vec![2.0], vec![10.0], vec![20.0]]),
            vec![6.0]
        );
    }

    #[test]
    fn per_coordinate_independence() {
        let m = median_of(&[vec![1.0, 30.0], vec![2.0, 10.0], vec![3.0, 20.0]]);
        assert_eq!(m, vec![2.0, 20.0]);
    }

    #[test]
    fn single_input_is_identity() {
        assert_eq!(median_of(&[vec![7.0, -3.0]]), vec![7.0, -3.0]);
    }

    #[test]
    fn outlier_resistant_with_majority() {
        // 3 honest near 1.0, 2 Byzantine at ±1e9: median stays at honest value.
        let m = median_of(&[vec![0.9], vec![1.0], vec![1.1], vec![1e9], vec![-1e9]]);
        assert_eq!(m, vec![1.0]);
    }

    #[test]
    fn median_within_honest_box() {
        // Property from the contraction lemma: with a majority of honest
        // inputs, each coordinate of the median lies in the honest range.
        let honest = [vec![1.0, -2.0], vec![1.2, -1.8], vec![0.8, -2.2]];
        let mut all: Vec<Vec<f32>> = honest.to_vec();
        all.push(vec![1e6, 1e6]); // Byzantine
        let m = median_of(&all);
        assert!(m[0] >= 0.8 && m[0] <= 1.2);
        assert!(m[1] >= -2.2 && m[1] <= -1.8);
    }

    #[test]
    fn permutation_invariant() {
        let a = median_of(&[vec![3.0], vec![1.0], vec![2.0]]);
        let b = median_of(&[vec![1.0], vec![2.0], vec![3.0]]);
        assert_eq!(a, b);
    }

    #[test]
    fn preserves_shape() {
        let ts = vec![Tensor::zeros(&[2, 3]); 5];
        let m = CoordinateWiseMedian::new().aggregate(&ts).unwrap();
        assert_eq!(m.dims(), &[2, 3]);
    }

    #[test]
    fn rejects_nan_input() {
        let ts = vec![
            Tensor::from_flat(vec![1.0]),
            Tensor::from_flat(vec![f32::NAN]),
        ];
        assert!(CoordinateWiseMedian::new().aggregate(&ts).is_err());
    }
}
