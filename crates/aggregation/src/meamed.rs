//! MeaMed — coordinate-wise mean-around-the-median.

use tensor::Tensor;

use crate::gar::{fold_into, validate_inputs};
use crate::kernel;
use crate::{AggregationError, Gar, Result};

/// Coordinate-wise **mea**n-around-the-**med**ian (Xie et al., 2018).
///
/// For each coordinate, take the `n − f` values closest to the coordinate's
/// median and average them. Cheaper than Multi-Krum (Θ(n·d·log n) vs
/// Θ(n²·d)) and smoother than the plain median; included as an additional
/// comparator for the server-side GAR ablation.
///
/// Requires `n ≥ 2f + 1`.
#[derive(Debug, Clone, Copy)]
pub struct Meamed {
    f: usize,
}

impl Meamed {
    /// Creates the rule declared to withstand `f ≥ 1` Byzantine inputs.
    ///
    /// # Errors
    ///
    /// Returns [`AggregationError::InvalidConfig`] when `f = 0`.
    pub fn new(f: usize) -> Result<Self> {
        if f == 0 {
            return Err(AggregationError::InvalidConfig(
                "meamed requires f >= 1".to_owned(),
            ));
        }
        Ok(Meamed { f })
    }

    /// The declared Byzantine input count.
    pub fn f(&self) -> usize {
        self.f
    }
}

impl Gar for Meamed {
    fn name(&self) -> String {
        format!("meamed(f={})", self.f)
    }

    fn minimum_inputs(&self) -> usize {
        2 * self.f + 1
    }

    fn byzantine_tolerance(&self) -> usize {
        self.f
    }

    fn aggregate(&self, inputs: &[Tensor]) -> Result<Tensor> {
        let dims = validate_inputs(inputs, self.minimum_inputs())?;
        let keep = inputs.len() - self.f;
        Ok(fold_into(&dims, |out| {
            kernel::meamed_into(&kernel::views(inputs), keep, out)
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_f_zero() {
        assert!(Meamed::new(0).is_err());
    }

    #[test]
    fn all_equal_fixed_point() {
        let xs = vec![Tensor::from_flat(vec![3.0, -1.0]); 5];
        let out = Meamed::new(1).unwrap().aggregate(&xs).unwrap();
        assert_eq!(out.as_slice(), &[3.0, -1.0]);
    }

    #[test]
    fn excludes_extreme_outliers() {
        let xs: Vec<Tensor> = [1.0f32, 1.1, 0.9, 1.05, 1e9]
            .iter()
            .map(|&v| Tensor::from_flat(vec![v]))
            .collect();
        let out = Meamed::new(1).unwrap().aggregate(&xs).unwrap();
        assert!(
            (out.as_slice()[0] - 1.0).abs() < 0.2,
            "got {:?}",
            out.as_slice()
        );
    }

    #[test]
    fn per_coordinate_windows_differ() {
        // outlier direction differs per coordinate
        let xs = vec![
            Tensor::from_flat(vec![1.0, -1e6]),
            Tensor::from_flat(vec![2.0, 1.0]),
            Tensor::from_flat(vec![3.0, 2.0]),
            Tensor::from_flat(vec![1e6, 3.0]),
            Tensor::from_flat(vec![2.0, 2.0]),
        ];
        let out = Meamed::new(1).unwrap().aggregate(&xs).unwrap();
        assert!(out.as_slice()[0] < 10.0);
        assert!(out.as_slice()[1] > -10.0);
    }

    #[test]
    fn requires_2f_plus_1() {
        let m = Meamed::new(2).unwrap();
        assert_eq!(m.minimum_inputs(), 5);
        assert!(m.aggregate(&vec![Tensor::zeros(&[1]); 4]).is_err());
    }

    #[test]
    fn output_within_input_box() {
        use crate::properties::{bounding_box, box_contains};
        let xs: Vec<Tensor> = (0..7)
            .map(|i| Tensor::from_flat(vec![i as f32, -(i as f32) * 0.5]))
            .collect();
        let out = Meamed::new(2).unwrap().aggregate(&xs).unwrap();
        let (lo, hi) = bounding_box(&xs).unwrap();
        assert!(box_contains(&lo, &hi, &out, 1e-5));
    }
}
