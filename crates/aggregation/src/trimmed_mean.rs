//! Coordinate-wise trimmed mean.

use tensor::Tensor;

use crate::gar::{fold_into, validate_inputs};
use crate::kernel;
use crate::{AggregationError, Gar, Result};

/// The coordinate-wise `f`-trimmed mean.
///
/// For each coordinate, the `f` largest and `f` smallest values are
/// discarded and the remaining `n - 2f` values averaged. Requires
/// `n ≥ 2f + 1`. This rule (Yin et al., ICML 2018) is an alternative robust
/// aggregation used in the GAR ablation benchmarks; GuanYu itself uses
/// Multi-Krum and the median.
#[derive(Debug, Clone, Copy)]
pub struct TrimmedMean {
    f: usize,
}

impl TrimmedMean {
    /// Creates the rule trimming `f ≥ 1` values from each tail.
    ///
    /// # Errors
    ///
    /// Returns [`AggregationError::InvalidConfig`] when `f = 0`.
    pub fn new(f: usize) -> Result<Self> {
        if f == 0 {
            return Err(AggregationError::InvalidConfig(
                "trimmed-mean requires f >= 1".to_owned(),
            ));
        }
        Ok(TrimmedMean { f })
    }

    /// The number of values trimmed from each tail.
    pub fn f(&self) -> usize {
        self.f
    }
}

impl Gar for TrimmedMean {
    fn name(&self) -> String {
        format!("trimmed-mean(f={})", self.f)
    }

    fn minimum_inputs(&self) -> usize {
        2 * self.f + 1
    }

    fn byzantine_tolerance(&self) -> usize {
        self.f
    }

    fn aggregate(&self, inputs: &[Tensor]) -> Result<Tensor> {
        let dims = validate_inputs(inputs, self.minimum_inputs())?;
        Ok(fold_into(&dims, |out| {
            kernel::trimmed_mean_into(&kernel::views(inputs), self.f, out)
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_f_zero() {
        assert!(TrimmedMean::new(0).is_err());
    }

    #[test]
    fn trims_tails() {
        // values 0, 10, 20, 30, 1000 with f=1 -> mean(10, 20, 30) = 20
        let xs: Vec<Tensor> = [0.0, 10.0, 20.0, 30.0, 1000.0]
            .iter()
            .map(|&v| Tensor::from_flat(vec![v]))
            .collect();
        let out = TrimmedMean::new(1).unwrap().aggregate(&xs).unwrap();
        assert_eq!(out.as_slice(), &[20.0]);
    }

    #[test]
    fn resists_extreme_outliers() {
        let mut xs = vec![Tensor::from_flat(vec![1.0]); 5];
        xs.push(Tensor::from_flat(vec![f32::MAX / 2.0]));
        let out = TrimmedMean::new(1).unwrap().aggregate(&xs).unwrap();
        assert_eq!(out.as_slice(), &[1.0]);
    }

    #[test]
    fn requires_2f_plus_1() {
        let tm = TrimmedMean::new(2).unwrap();
        assert_eq!(tm.minimum_inputs(), 5);
        let xs = vec![Tensor::zeros(&[1]); 4];
        assert!(tm.aggregate(&xs).is_err());
    }

    #[test]
    fn all_equal_inputs_fixed_point() {
        let xs = vec![Tensor::from_flat(vec![3.0, -1.0]); 7];
        let out = TrimmedMean::new(2).unwrap().aggregate(&xs).unwrap();
        assert_eq!(out.as_slice(), &[3.0, -1.0]);
    }

    #[test]
    fn per_coordinate_trim() {
        // Outlier direction differs per coordinate; trim handles both.
        let xs: Vec<Tensor> = vec![
            Tensor::from_flat(vec![1.0, -100.0]),
            Tensor::from_flat(vec![2.0, 1.0]),
            Tensor::from_flat(vec![3.0, 2.0]),
            Tensor::from_flat(vec![100.0, 3.0]),
            Tensor::from_flat(vec![2.0, 2.0]),
        ];
        let out = TrimmedMean::new(1).unwrap().aggregate(&xs).unwrap();
        assert!((out.as_slice()[0] - (2.0 + 3.0 + 2.0) / 3.0).abs() < 1e-6);
        assert!((out.as_slice()[1] - (1.0 + 2.0 + 2.0) / 3.0).abs() < 1e-6);
    }
}
