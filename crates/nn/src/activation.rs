//! Activation layers.

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

/// Hyperbolic tangent activation.
///
/// Shape-preserving; caches the output (`tanh'(x) = 1 − tanh²(x)`).
#[derive(Debug, Default)]
pub struct Tanh {
    output: Option<Tensor>,
}

impl Tanh {
    /// Creates the layer.
    pub fn new() -> Self {
        Tanh { output: None }
    }
}

impl Layer for Tanh {
    fn name(&self) -> String {
        "tanh".to_owned()
    }

    fn forward(&mut self, input: &Tensor, _train: bool) -> Result<Tensor> {
        let out = input.map(f32::tanh);
        self.output = Some(out.clone());
        Ok(out)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let out = self
            .output
            .as_ref()
            .ok_or_else(|| NnError::BackwardBeforeForward { layer: self.name() })?;
        Ok(grad_out.zip_with(out, |g, y| g * (1.0 - y * y))?)
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

/// Logistic sigmoid activation.
#[derive(Debug, Default)]
pub struct Sigmoid {
    output: Option<Tensor>,
}

impl Sigmoid {
    /// Creates the layer.
    pub fn new() -> Self {
        Sigmoid { output: None }
    }
}

impl Layer for Sigmoid {
    fn name(&self) -> String {
        "sigmoid".to_owned()
    }

    fn forward(&mut self, input: &Tensor, _train: bool) -> Result<Tensor> {
        let out = input.map(|x| 1.0 / (1.0 + (-x).exp()));
        self.output = Some(out.clone());
        Ok(out)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let out = self
            .output
            .as_ref()
            .ok_or_else(|| NnError::BackwardBeforeForward { layer: self.name() })?;
        Ok(grad_out.zip_with(out, |g, y| g * y * (1.0 - y))?)
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

/// Inverted dropout: during training, zeroes each activation independently
/// with probability `p` and scales survivors by `1/(1−p)`; an identity map
/// at evaluation time.
///
/// The dropout mask stream is seeded, so distributed runs stay
/// deterministic.
#[derive(Debug)]
pub struct Dropout {
    p: f32,
    rng: tensor::TensorRng,
    mask: Option<Vec<bool>>,
}

impl Dropout {
    /// Creates the layer with drop probability `p ∈ [0, 1)`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1)`.
    pub fn new(p: f32, seed: u64) -> Self {
        assert!((0.0..1.0).contains(&p), "drop probability must be in [0,1)");
        Dropout {
            p,
            rng: tensor::TensorRng::new(seed),
            mask: None,
        }
    }
}

impl Layer for Dropout {
    fn name(&self) -> String {
        format!("dropout(p={})", self.p)
    }

    fn forward(&mut self, input: &Tensor, train: bool) -> Result<Tensor> {
        if !train || self.p == 0.0 {
            self.mask = Some(vec![true; input.len()]);
            return Ok(input.clone());
        }
        let keep = 1.0 - self.p;
        let mask: Vec<bool> = (0..input.len())
            .map(|_| self.rng.uniform(0.0, 1.0) >= self.p)
            .collect();
        let mut out = input.clone();
        for (v, &m) in out.as_mut_slice().iter_mut().zip(&mask) {
            *v = if m { *v / keep } else { 0.0 };
        }
        self.mask = Some(mask);
        Ok(out)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let mask = self
            .mask
            .as_ref()
            .ok_or_else(|| NnError::BackwardBeforeForward { layer: self.name() })?;
        let keep = 1.0 - self.p;
        let mut dx = grad_out.clone();
        for (g, &m) in dx.as_mut_slice().iter_mut().zip(mask) {
            *g = if m { *g / keep } else { 0.0 };
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
    fn tanh_matches_reference() {
        let mut t = Tanh::new();
        let y = t
            .forward(&Tensor::from_flat(vec![0.0, 1.0, -1.0]), true)
            .unwrap();
        assert!((y.as_slice()[0]).abs() < 1e-7);
        assert!((y.as_slice()[1] - 1.0f32.tanh()).abs() < 1e-7);
        assert!((y.as_slice()[2] + 1.0f32.tanh()).abs() < 1e-7);
    }

    #[test]
    fn tanh_gradient_finite_difference() {
        let mut t = Tanh::new();
        let x = Tensor::from_flat(vec![0.3, -0.7]);
        t.forward(&x, true).unwrap();
        let dx = t.backward(&Tensor::ones(&[2])).unwrap();
        let eps = 1e-3f32;
        for i in 0..2 {
            let mut plus = x.clone();
            plus.as_mut_slice()[i] += eps;
            let mut minus = x.clone();
            minus.as_mut_slice()[i] -= eps;
            let numeric = (plus.as_slice()[i].tanh() - minus.as_slice()[i].tanh()) / (2.0 * eps);
            assert!((dx.as_slice()[i] - numeric).abs() < 1e-3);
        }
    }

    #[test]
    fn sigmoid_range_and_gradient() {
        let mut s = Sigmoid::new();
        let y = s
            .forward(&Tensor::from_flat(vec![0.0, 10.0, -10.0]), true)
            .unwrap();
        assert!((y.as_slice()[0] - 0.5).abs() < 1e-6);
        assert!(y.as_slice()[1] > 0.999);
        assert!(y.as_slice()[2] < 0.001);
        let dx = s.backward(&Tensor::ones(&[3])).unwrap();
        assert!((dx.as_slice()[0] - 0.25).abs() < 1e-6); // σ'(0) = 1/4
    }

    #[test]
    fn dropout_eval_is_identity() {
        let mut d = Dropout::new(0.5, 1);
        let x = Tensor::from_flat(vec![1.0, 2.0, 3.0]);
        let y = d.forward(&x, false).unwrap();
        assert_eq!(y, x);
    }

    #[test]
    fn dropout_train_zeroes_and_scales() {
        let mut d = Dropout::new(0.5, 2);
        let x = Tensor::ones(&[1000]);
        let y = d.forward(&x, true).unwrap();
        let zeros = y.as_slice().iter().filter(|&&v| v == 0.0).count();
        let scaled = y
            .as_slice()
            .iter()
            .filter(|&&v| (v - 2.0).abs() < 1e-6)
            .count();
        assert_eq!(
            zeros + scaled,
            1000,
            "values are either dropped or scaled by 1/keep"
        );
        assert!(
            zeros > 350 && zeros < 650,
            "drop rate ~0.5, got {zeros}/1000"
        );
        // expectation preserved
        assert!((y.mean().unwrap() - 1.0).abs() < 0.15);
    }

    #[test]
    fn dropout_backward_uses_same_mask() {
        let mut d = Dropout::new(0.5, 3);
        let x = Tensor::ones(&[100]);
        let y = d.forward(&x, true).unwrap();
        let dx = d.backward(&Tensor::ones(&[100])).unwrap();
        for (yo, dxo) in y.as_slice().iter().zip(dx.as_slice()) {
            assert_eq!(*yo == 0.0, *dxo == 0.0, "mask must match between passes");
        }
    }

    #[test]
    #[should_panic(expected = "drop probability")]
    fn dropout_rejects_p_one() {
        let _ = Dropout::new(1.0, 0);
    }

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
