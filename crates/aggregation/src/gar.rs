//! The [`Gar`] trait and shared input validation.

use serde::{Deserialize, Serialize};
use tensor::Tensor;

use crate::{AggregationError, Result};

/// A Gradient Aggregation Rule: a function `(R^d)^n → R^d`.
///
/// Implementations must be deterministic functions of their inputs so that
/// honest nodes that receive the same multiset of messages compute identical
/// aggregates (the protocol's correctness argument relies on this).
///
/// The trait is object-safe; the protocol stores rules as `Box<dyn Gar>`
/// and the ablation benchmarks swap them at run time.
pub trait Gar: Send + Sync {
    /// Human-readable rule name, e.g. `"multi-krum(f=5)"`.
    fn name(&self) -> String;

    /// The minimum number of inputs the rule needs to run at all.
    ///
    /// For Krum-family rules this is a function of the declared Byzantine
    /// count `f`; for median/mean it is 1.
    fn minimum_inputs(&self) -> usize;

    /// The number of Byzantine inputs the rule is declared to withstand.
    ///
    /// Zero for the non-robust [`crate::Average`].
    fn byzantine_tolerance(&self) -> usize;

    /// Aggregates `inputs` into a single vector.
    ///
    /// # Errors
    ///
    /// * [`AggregationError::Empty`] / [`AggregationError::NotEnoughInputs`]
    ///   when fewer than [`Gar::minimum_inputs`] vectors are supplied,
    /// * [`AggregationError::ShapeMismatch`] when inputs disagree on shape,
    /// * [`AggregationError::NonFiniteInput`] when an input contains NaN/inf.
    fn aggregate(&self, inputs: &[Tensor]) -> Result<Tensor>;
}

/// Validates the common preconditions shared by every rule: at least
/// `minimum` inputs, uniform shapes, and finite coordinates.
///
/// Returns the common shape's dimensions on success.
///
/// # Errors
///
/// See [`Gar::aggregate`].
pub(crate) fn validate_inputs(inputs: &[Tensor], minimum: usize) -> Result<Vec<usize>> {
    if inputs.is_empty() {
        return Err(AggregationError::Empty);
    }
    if inputs.len() < minimum {
        return Err(AggregationError::NotEnoughInputs {
            required: minimum,
            actual: inputs.len(),
        });
    }
    let expected = inputs[0].dims().to_vec();
    for (i, t) in inputs.iter().enumerate() {
        if t.dims() != expected.as_slice() {
            return Err(AggregationError::ShapeMismatch {
                expected,
                found: t.dims().to_vec(),
                index: i,
            });
        }
        if !t.is_finite() {
            return Err(AggregationError::NonFiniteInput { index: i });
        }
    }
    Ok(expected)
}

/// Folds straight into the result: allocates the output tensor of shape
/// `dims` once and runs `fold` on its (uniquely owned) buffer, where a
/// `Vec` scratch would cost a second `d`-sized allocation and a copy.
pub(crate) fn fold_into(dims: &[usize], fold: impl FnOnce(&mut [f32])) -> Tensor {
    let mut out = Tensor::zeros(dims);
    fold(out.as_mut_slice());
    out
}

/// An enumeration of the rules shipped by this crate, for configuration
/// files and experiment manifests.
///
/// [`GarKind::build`] instantiates the corresponding rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum GarKind {
    /// Arithmetic mean (vulnerable baseline).
    Average,
    /// Coordinate-wise median, `M` in the paper.
    Median,
    /// Krum (selects a single vector).
    Krum,
    /// Multi-Krum, `F` in the paper.
    MultiKrum,
    /// Coordinate-wise trimmed mean.
    TrimmedMean,
    /// Bulyan over Multi-Krum.
    Bulyan,
    /// Coordinate-wise mean-around-the-median.
    Meamed,
    /// Geometric median (Weiszfeld iteration).
    GeometricMedian,
}

impl GarKind {
    /// Instantiates the rule with Byzantine tolerance `f`.
    ///
    /// # Errors
    ///
    /// Returns [`AggregationError::InvalidConfig`] if `f` is invalid for the
    /// rule (`f = 0` for trimmed-mean and Bulyan; Krum variants accept
    /// `f = 0` as a degenerate case).
    pub fn build(self, f: usize) -> Result<Box<dyn Gar>> {
        Ok(match self {
            GarKind::Average => Box::new(crate::Average::new()),
            GarKind::Median => Box::new(crate::CoordinateWiseMedian::new()),
            GarKind::Krum => Box::new(crate::Krum::new(f)?),
            GarKind::MultiKrum => Box::new(crate::MultiKrum::new(f)?),
            GarKind::TrimmedMean => Box::new(crate::TrimmedMean::new(f)?),
            GarKind::Bulyan => Box::new(crate::Bulyan::new(f)?),
            GarKind::Meamed => Box::new(crate::Meamed::new(f)?),
            GarKind::GeometricMedian => Box::new(crate::GeometricMedian::new()),
        })
    }
}

impl std::fmt::Display for GarKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            GarKind::Average => "average",
            GarKind::Median => "median",
            GarKind::Krum => "krum",
            GarKind::MultiKrum => "multi-krum",
            GarKind::TrimmedMean => "trimmed-mean",
            GarKind::Bulyan => "bulyan",
            GarKind::Meamed => "meamed",
            GarKind::GeometricMedian => "geometric-median",
        };
        write!(f, "{s}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_rejects_empty() {
        assert!(matches!(
            validate_inputs(&[], 1),
            Err(AggregationError::Empty)
        ));
    }

    #[test]
    fn validate_rejects_too_few() {
        let xs = vec![Tensor::zeros(&[2]); 3];
        assert!(matches!(
            validate_inputs(&xs, 5),
            Err(AggregationError::NotEnoughInputs {
                required: 5,
                actual: 3
            })
        ));
    }

    #[test]
    fn validate_rejects_shape_mismatch() {
        let xs = vec![Tensor::zeros(&[2]), Tensor::zeros(&[3])];
        assert!(matches!(
            validate_inputs(&xs, 1),
            Err(AggregationError::ShapeMismatch { index: 1, .. })
        ));
    }

    #[test]
    fn validate_rejects_nan() {
        let xs = vec![Tensor::zeros(&[2]), Tensor::from_flat(vec![f32::NAN, 0.0])];
        assert!(matches!(
            validate_inputs(&xs, 1),
            Err(AggregationError::NonFiniteInput { index: 1 })
        ));
    }

    #[test]
    fn validate_accepts_good_inputs() {
        let xs = vec![Tensor::zeros(&[2, 2]); 4];
        assert_eq!(validate_inputs(&xs, 2).unwrap(), vec![2, 2]);
    }

    #[test]
    fn kind_builds_all_rules() {
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
            let rule = kind.build(1).unwrap();
            assert!(!rule.name().is_empty());
        }
    }

    #[test]
    fn kind_display_names() {
        assert_eq!(GarKind::MultiKrum.to_string(), "multi-krum");
        assert_eq!(GarKind::Median.to_string(), "median");
    }

    #[test]
    fn kind_serde_roundtrip() {
        let json = serde_json::to_string(&GarKind::Bulyan).unwrap();
        let back: GarKind = serde_json::from_str(&json).unwrap();
        assert_eq!(back, GarKind::Bulyan);
    }
}
