//! Geometric median via the Weiszfeld iteration.

use tensor::Tensor;

use crate::gar::validate_inputs;
use crate::{Gar, Result};

/// The geometric median: the point minimising the sum of Euclidean
/// distances to the inputs, approximated by the Weiszfeld fixed-point
/// iteration.
///
/// Unlike the coordinate-wise median, the geometric median is rotation
/// invariant; it shares the optimal breakdown point of 1/2 (Rousseeuw 1985,
/// cited as reference 34 in the paper for the optimality argument). It is included
/// as an ablation comparator for GuanYu's model-exchange fold.
#[derive(Debug, Clone, Copy, Default)]
pub struct GeometricMedian;

/// Weiszfeld iteration budget.
const MAX_ITERS: usize = 100;
/// Convergence tolerance on the iterate displacement.
const TOLERANCE: f32 = 1e-7;

impl GeometricMedian {
    /// Creates the rule (at most 100 iterations, tolerance 1e-7 on the
    /// iterate displacement).
    pub fn new() -> Self {
        GeometricMedian
    }
}

impl Gar for GeometricMedian {
    fn name(&self) -> String {
        "geometric-median".to_owned()
    }

    fn minimum_inputs(&self) -> usize {
        1
    }

    fn byzantine_tolerance(&self) -> usize {
        usize::MAX / 2 // breakdown point 1/2, like the coordinate-wise median
    }

    fn aggregate(&self, inputs: &[Tensor]) -> Result<Tensor> {
        validate_inputs(inputs, 1)?;
        // Start from the arithmetic mean.
        let mut y = Tensor::mean_of(inputs)?;
        for _ in 0..MAX_ITERS {
            // Weiszfeld update: y' = (Σ x_i / d_i) / (Σ 1 / d_i), with the
            // standard guard for iterates that coincide with an input point.
            let mut numer = Tensor::zeros(y.dims());
            let mut denom = 0.0f32;
            let mut at_input = false;
            for x in inputs {
                let d = y.distance(x)?;
                if d < 1e-12 {
                    at_input = true;
                    break;
                }
                numer.axpy(1.0 / d, x)?;
                denom += 1.0 / d;
            }
            if at_input || denom == 0.0 {
                break;
            }
            let next = numer.scale(1.0 / denom);
            let moved = next.distance(&y)?;
            y = next;
            if moved < TOLERANCE {
                break;
            }
        }
        Ok(y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_input_is_identity() {
        let xs = vec![Tensor::from_flat(vec![4.0, 5.0])];
        let out = GeometricMedian::new().aggregate(&xs).unwrap();
        assert!(out.distance(&xs[0]).unwrap() < 1e-5);
    }

    #[test]
    fn collinear_points_median() {
        // 1D: geometric median = ordinary median = 2.0.
        let xs: Vec<Tensor> = [0.0f32, 2.0, 100.0]
            .iter()
            .map(|&v| Tensor::from_flat(vec![v]))
            .collect();
        let out = GeometricMedian::new().aggregate(&xs).unwrap();
        assert!(
            (out.as_slice()[0] - 2.0).abs() < 0.1,
            "got {:?}",
            out.as_slice()
        );
    }

    #[test]
    fn symmetric_cross_center() {
        // Four points at (±1, 0), (0, ±1): median is the origin.
        let xs = vec![
            Tensor::from_flat(vec![1.0, 0.0]),
            Tensor::from_flat(vec![-1.0, 0.0]),
            Tensor::from_flat(vec![0.0, 1.0]),
            Tensor::from_flat(vec![0.0, -1.0]),
        ];
        let out = GeometricMedian::new().aggregate(&xs).unwrap();
        assert!(out.norm() < 1e-3);
    }

    #[test]
    fn outlier_resistance() {
        let mut xs = vec![
            Tensor::from_flat(vec![1.0, 1.0]),
            Tensor::from_flat(vec![1.1, 0.9]),
            Tensor::from_flat(vec![0.9, 1.1]),
        ];
        xs.push(Tensor::from_flat(vec![1e6, 1e6]));
        let out = GeometricMedian::new().aggregate(&xs).unwrap();
        assert!(out.distance(&xs[0]).unwrap() < 1.0);
    }

    #[test]
    fn objective_not_worse_than_mean() {
        // The geometric median minimises Σ‖y − x_i‖, so its objective value
        // must be ≤ the mean's.
        let xs: Vec<Tensor> = (0..5)
            .map(|i| Tensor::from_flat(vec![i as f32, (i * i) as f32]))
            .collect();
        let gm = GeometricMedian::new().aggregate(&xs).unwrap();
        let mean = Tensor::mean_of(&xs).unwrap();
        let obj = |y: &Tensor| -> f32 { xs.iter().map(|x| y.distance(x).unwrap()).sum() };
        assert!(obj(&gm) <= obj(&mean) + 1e-3);
    }
}
