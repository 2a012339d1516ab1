//! Fully-connected layer.

use tensor::{gemm_into, Tensor, TensorRng};

use crate::layer::{input_grad_read, Layer};
use crate::{NnError, Result};

/// A fully-connected (affine) layer: `y = x · W + b`.
///
/// Input `[batch, in_features]`, output `[batch, out_features]`.
/// `W` has shape `[in_features, out_features]`, `b` has `[out_features]`.
#[derive(Debug)]
pub struct Dense {
    in_features: usize,
    out_features: usize,
    weight: Tensor,
    bias: Tensor,
    grad_weight: Tensor,
    grad_bias: Tensor,
    cached_input: Option<Tensor>,
}

impl Dense {
    /// Creates the layer with Glorot-uniform weights and zero bias.
    pub fn new(in_features: usize, out_features: usize, rng: &mut TensorRng) -> Self {
        let weight = rng.glorot_uniform(&[in_features, out_features], in_features, out_features);
        Dense {
            in_features,
            out_features,
            weight,
            bias: Tensor::zeros(&[out_features]),
            grad_weight: Tensor::zeros(&[in_features, out_features]),
            grad_bias: Tensor::zeros(&[out_features]),
            cached_input: None,
        }
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// The backward pass: accumulates `dW` and `db`, then, when `want_dx`,
    /// returns `dx`; without it, `Wᵀ` and the `dx` product are skipped.
    fn backward_pass(&mut self, grad_out: &Tensor, want_dx: bool) -> Result<Option<Tensor>> {
        let input = self
            .cached_input
            .as_ref()
            .ok_or_else(|| NnError::BackwardBeforeForward { layer: self.name() })?;
        if grad_out.rank() != 2
            || grad_out.dims()[0] != input.dims()[0]
            || grad_out.dims()[1] != self.out_features
        {
            return Err(NnError::BadInputShape {
                layer: self.name(),
                expected: format!("[batch, {}] gradient", self.out_features),
                got: grad_out.dims().to_vec(),
            });
        }
        // dW = x^T · dy ; db = Σ_batch dy ; dx = dy · W^T
        let batch = grad_out.dims()[0];
        let go = grad_out.as_slice();
        gemm_into(
            input.transpose()?.as_slice(),
            go,
            self.grad_weight.as_mut_slice(),
            self.in_features,
            batch,
            self.out_features,
            true,
        );
        let gb = self.grad_bias.as_mut_slice();
        for gorow in go.chunks_exact(self.out_features) {
            for (g, &v) in gb.iter_mut().zip(gorow) {
                *g += v;
            }
        }
        if !want_dx {
            return Ok(None);
        }
        let mut dx = Tensor::zeros(&[batch, self.in_features]);
        gemm_into(
            go,
            self.weight.transpose()?.as_slice(),
            dx.as_mut_slice(),
            batch,
            self.out_features,
            self.in_features,
            false,
        );
        Ok(Some(dx))
    }
}

impl Layer for Dense {
    fn name(&self) -> String {
        format!("dense({}x{})", self.in_features, self.out_features)
    }

    fn forward(&mut self, input: &Tensor, _train: bool) -> Result<Tensor> {
        if input.rank() != 2 || input.dims()[1] != self.in_features {
            return Err(NnError::BadInputShape {
                layer: self.name(),
                expected: format!("[batch, {}]", self.in_features),
                got: input.dims().to_vec(),
            });
        }
        let batch = input.dims()[0];
        let mut out = Tensor::zeros(&[batch, self.out_features]);
        let out_slice = out.as_mut_slice();
        gemm_into(
            input.as_slice(),
            self.weight.as_slice(),
            out_slice,
            batch,
            self.in_features,
            self.out_features,
            false,
        );
        // broadcast-add the bias row
        let bias = self.bias.as_slice();
        for orow in out_slice.chunks_exact_mut(self.out_features) {
            for (o, &bv) in orow.iter_mut().zip(bias) {
                *o += bv;
            }
        }
        self.cached_input = Some(input.clone());
        Ok(out)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let dx = self.backward_pass(grad_out, input_grad_read())?;
        // No dx only under a wrapper's `backward_params`, which drops it.
        Ok(dx.unwrap_or_else(|| Tensor::zeros(&[0])))
    }

    fn backward_params(&mut self, grad_out: &Tensor) -> Result<()> {
        self.backward_pass(grad_out, false).map(drop)
    }

    fn params(&self) -> Vec<&Tensor> {
        vec![&self.weight, &self.bias]
    }

    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        vec![&mut self.weight, &mut self.bias]
    }

    fn grads(&self) -> Vec<&Tensor> {
        vec![&self.grad_weight, &self.grad_bias]
    }

    fn zero_grads(&mut self) {
        self.grad_weight.as_mut_slice().fill(0.0);
        self.grad_bias.as_mut_slice().fill(0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_shape_and_bias() {
        let mut rng = TensorRng::new(1);
        let mut layer = Dense::new(3, 2, &mut rng);
        // fix weights for a deterministic check
        layer.params_mut()[0]
            .as_mut_slice()
            .copy_from_slice(&[1.0, 0.0, 0.0, 1.0, 0.0, 0.0]);
        layer.params_mut()[1]
            .as_mut_slice()
            .copy_from_slice(&[0.5, -0.5]);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[1, 3]).unwrap();
        let y = layer.forward(&x, true).unwrap();
        // y = [1*1 + 2*0 + 3*0 + 0.5, 1*0 + 2*1 + 3*0 - 0.5]
        assert_eq!(y.as_slice(), &[1.5, 1.5]);
    }

    #[test]
    fn rejects_wrong_input_width() {
        let mut rng = TensorRng::new(1);
        let mut layer = Dense::new(3, 2, &mut rng);
        let x = Tensor::zeros(&[1, 4]);
        assert!(matches!(
            layer.forward(&x, true),
            Err(NnError::BadInputShape { .. })
        ));
    }

    #[test]
    fn backward_before_forward_fails() {
        let mut rng = TensorRng::new(1);
        let mut layer = Dense::new(2, 2, &mut rng);
        assert!(matches!(
            layer.backward(&Tensor::zeros(&[1, 2])),
            Err(NnError::BackwardBeforeForward { .. })
        ));
        assert!(matches!(
            layer.backward_params(&Tensor::zeros(&[1, 2])),
            Err(NnError::BackwardBeforeForward { .. })
        ));
    }

    #[test]
    fn backward_params_accumulates_what_backward_does() {
        let bits = |l: &Dense| -> Vec<Vec<u32>> {
            l.grads()
                .iter()
                .map(|g| g.as_slice().iter().map(|v| v.to_bits()).collect())
                .collect()
        };
        for (fan_in, fan_out, batch) in [(3, 2, 1), (17, 9, 5), (192, 40, 16), (4, 3, 0)] {
            let mut rng = TensorRng::new(fan_in as u64);
            let mut full = Dense::new(fan_in, fan_out, &mut rng);
            let mut twin = Dense::new(fan_in, fan_out, &mut rng);
            for (t, p) in twin.params_mut().into_iter().zip(full.params()) {
                t.as_mut_slice().copy_from_slice(p.as_slice());
            }
            let x = rng.uniform_tensor(&[batch, fan_in], -1.0, 1.0);
            let dy = rng.uniform_tensor(&[batch, fan_out], -1.0, 1.0);
            // Two rounds: the second accumulates onto the first.
            for _ in 0..2 {
                full.forward(&x, true).unwrap();
                full.backward(&dy).unwrap();
                twin.forward(&x, true).unwrap();
                twin.backward_params(&dy).unwrap();
                assert_eq!(bits(&twin), bits(&full), "{fan_in}x{fan_out} batch {batch}");
            }
        }
    }

    #[test]
    fn grads_accumulate_and_reset() {
        let mut rng = TensorRng::new(1);
        let mut layer = Dense::new(2, 1, &mut rng);
        let x = Tensor::from_vec(vec![1.0, 2.0], &[1, 2]).unwrap();
        let dy = Tensor::from_vec(vec![1.0], &[1, 1]).unwrap();
        layer.forward(&x, true).unwrap();
        layer.backward(&dy).unwrap();
        layer.forward(&x, true).unwrap();
        layer.backward(&dy).unwrap();
        // dW accumulates twice: 2 * [1, 2]^T
        assert_eq!(layer.grads()[0].as_slice(), &[2.0, 4.0]);
        assert_eq!(layer.grads()[1].as_slice(), &[2.0]);
        // ... and reset in place: the accumulators keep their buffers.
        let buffers = |l: &Dense| {
            l.grads()
                .iter()
                .map(|g| g.as_slice().as_ptr())
                .collect::<Vec<_>>()
        };
        let before = buffers(&layer);
        layer.zero_grads();
        assert_eq!(layer.grads()[0].as_slice(), &[0.0, 0.0]);
        assert_eq!(layer.grads()[1].as_slice(), &[0.0]);
        assert_eq!(buffers(&layer), before);
    }

    #[test]
    fn an_empty_batch_passes_through() {
        let mut rng = TensorRng::new(1);
        let mut layer = Dense::new(3, 2, &mut rng);
        let y = layer.forward(&Tensor::zeros(&[0, 3]), true).unwrap();
        assert_eq!(y.dims(), &[0, 2]);
        let dx = layer.backward(&Tensor::zeros(&[0, 2])).unwrap();
        assert_eq!(dx.dims(), &[0, 3]);
        assert_eq!(layer.grads()[0].as_slice(), &[0.0; 6]);
    }

    #[test]
    fn param_count() {
        let mut rng = TensorRng::new(1);
        let layer = Dense::new(10, 5, &mut rng);
        assert_eq!(layer.param_count(), 55);
    }

    #[test]
    fn dx_matches_manual() {
        let mut rng = TensorRng::new(1);
        let mut layer = Dense::new(2, 2, &mut rng);
        layer.params_mut()[0]
            .as_mut_slice()
            .copy_from_slice(&[1.0, 2.0, 3.0, 4.0]); // W = [[1,2],[3,4]]
        let x = Tensor::from_vec(vec![1.0, 1.0], &[1, 2]).unwrap();
        layer.forward(&x, true).unwrap();
        let dy = Tensor::from_vec(vec![1.0, 0.0], &[1, 2]).unwrap();
        let dx = layer.backward(&dy).unwrap();
        // dx = dy · W^T = [1*1 + 0*2, 1*3 + 0*4]
        assert_eq!(dx.as_slice(), &[1.0, 3.0]);
    }
}
