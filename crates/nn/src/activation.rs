//! The activation layer.

use tensor::Tensor;

use crate::layer::Layer;
use crate::{NnError, Result};

/// Rectified linear unit: `y = max(x, 0)`, applied element-wise.
///
/// Shape-preserving; caches the activation mask for the backward pass.
#[derive(Debug, Default)]
pub struct Relu {
    mask: Option<Vec<bool>>,
}

impl Relu {
    /// Creates the layer.
    pub fn new() -> Self {
        Relu { mask: None }
    }
}

impl Layer for Relu {
    fn name(&self) -> String {
        "relu".to_owned()
    }

    fn forward(&mut self, input: &Tensor, _train: bool) -> Result<Tensor> {
        let mut mask = vec![false; input.len()];
        let mut out = Tensor::zeros(input.dims());
        for ((o, m), &v) in out
            .as_mut_slice()
            .iter_mut()
            .zip(&mut mask)
            .zip(input.as_slice())
        {
            *m = v > 0.0;
            *o = if *m { v } else { 0.0 };
        }
        self.mask = Some(mask);
        Ok(out)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let mask = self
            .mask
            .as_ref()
            .ok_or_else(|| NnError::BackwardBeforeForward { layer: self.name() })?;
        if grad_out.len() != mask.len() {
            return Err(NnError::BadInputShape {
                layer: self.name(),
                expected: format!("{} elements", mask.len()),
                got: grad_out.dims().to_vec(),
            });
        }
        let mut dx = Tensor::zeros(grad_out.dims());
        for ((d, &g), &m) in dx
            .as_mut_slice()
            .iter_mut()
            .zip(grad_out.as_slice())
            .zip(mask)
        {
            *d = if m { g } else { 0.0 };
        }
        Ok(dx)
    }

    fn params(&self) -> Vec<&Tensor> {
        Vec::new()
    }

    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        Vec::new()
    }

    fn grads(&self) -> Vec<&Tensor> {
        Vec::new()
    }

    fn zero_grads(&mut self) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_clamps_negatives() {
        let mut relu = Relu::new();
        let x = Tensor::from_flat(vec![-1.0, 0.0, 2.0]);
        let y = relu.forward(&x, true).unwrap();
        assert_eq!(y.as_slice(), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn backward_masks_gradient() {
        let mut relu = Relu::new();
        let x = Tensor::from_flat(vec![-1.0, 3.0]);
        relu.forward(&x, true).unwrap();
        let dy = Tensor::from_flat(vec![5.0, 7.0]);
        let dx = relu.backward(&dy).unwrap();
        assert_eq!(dx.as_slice(), &[0.0, 7.0]);
    }

    #[test]
    fn zero_input_has_zero_gradient() {
        // subgradient choice at 0: we use 0
        let mut relu = Relu::new();
        relu.forward(&Tensor::from_flat(vec![0.0]), true).unwrap();
        let dx = relu.backward(&Tensor::from_flat(vec![1.0])).unwrap();
        assert_eq!(dx.as_slice(), &[0.0]);
    }

    #[test]
    fn backward_before_forward_fails() {
        let mut relu = Relu::new();
        assert!(relu.backward(&Tensor::from_flat(vec![1.0])).is_err());
    }

    #[test]
    fn no_params() {
        let relu = Relu::new();
        assert_eq!(relu.param_count(), 0);
    }
}
