//! Arithmetic mean — the vulnerable baseline aggregation.

use tensor::Tensor;

use crate::gar::{fold_into, validate_inputs};
use crate::kernel;
use crate::{Gar, Result};

/// The arithmetic mean of all inputs.
///
/// This is the aggregation used by "vanilla" parameter-server training (and
/// by vanilla TensorFlow in the paper's baselines). It is **not** Byzantine
/// resilient: a single adversarial input shifts the output by an arbitrary
/// amount — precisely the failure mode the paper's Figure 4 demonstrates.
#[derive(Debug, Clone, Copy, Default)]
pub struct Average;

impl Average {
    /// Creates the rule.
    pub fn new() -> Self {
        Average
    }
}

impl Gar for Average {
    fn name(&self) -> String {
        "average".to_owned()
    }

    fn minimum_inputs(&self) -> usize {
        1
    }

    fn byzantine_tolerance(&self) -> usize {
        0
    }

    fn aggregate(&self, inputs: &[Tensor]) -> Result<Tensor> {
        let dims = validate_inputs(inputs, 1)?;
        Ok(fold_into(&dims, |out| {
            kernel::average_into(&kernel::views(inputs), out)
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn average_of_constants() {
        let xs = vec![
            Tensor::from_flat(vec![1.0, 2.0]),
            Tensor::from_flat(vec![3.0, 6.0]),
        ];
        let avg = Average::new().aggregate(&xs).unwrap();
        assert_eq!(avg.as_slice(), &[2.0, 4.0]);
    }

    #[test]
    fn average_single_input_is_identity() {
        let xs = vec![Tensor::from_flat(vec![5.0, -1.0])];
        let avg = Average::new().aggregate(&xs).unwrap();
        assert_eq!(avg.as_slice(), &[5.0, -1.0]);
    }

    #[test]
    fn average_is_not_byzantine_resilient() {
        // One huge outlier drags the mean arbitrarily far: the attack from
        // the paper's Fig. 4 in miniature.
        let mut xs = vec![Tensor::from_flat(vec![1.0]); 9];
        xs.push(Tensor::from_flat(vec![1e9]));
        let avg = Average::new().aggregate(&xs).unwrap();
        assert!(avg.as_slice()[0] > 1e7);
    }

    #[test]
    fn metadata() {
        let a = Average::new();
        assert_eq!(a.name(), "average");
        assert_eq!(a.minimum_inputs(), 1);
        assert_eq!(a.byzantine_tolerance(), 0);
    }

    #[test]
    fn rejects_empty() {
        assert!(Average::new().aggregate(&[]).is_err());
    }
}
