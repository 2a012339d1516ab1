//! The [`Sequential`] model container and its flat parameter-vector view.

use tensor::Tensor;

use crate::layer::Layer;
use crate::{NnError, Result};

/// An ordered stack of layers with a **flat parameter-vector view**.
///
/// The GuanYu protocol exchanges models and gradients as rank-1 tensors of
/// dimension `d` (the paper's parameter space `R^d`). `Sequential` is the
/// bridge: [`Sequential::param_vector`] serialises every layer parameter
/// into one flat tensor (in stable layer order), and
/// [`Sequential::set_param_vector`] writes such a vector back — this is what
/// a worker does with the median of the server models it receives.
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl Sequential {
    /// Creates an empty stack.
    pub fn new() -> Self {
        Sequential { layers: Vec::new() }
    }

    /// Appends a layer (builder style).
    #[must_use]
    pub fn with(mut self, layer: impl Layer + 'static) -> Self {
        self.layers.push(Box::new(layer));
        self
    }

    /// Appends a boxed layer.
    pub fn push(&mut self, layer: Box<dyn Layer>) {
        self.layers.push(layer);
    }

    /// Number of layers.
    pub fn depth(&self) -> usize {
        self.layers.len()
    }

    /// Total scalar parameter count `d`.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(|l| l.param_count()).sum()
    }

    /// Runs the full forward pass.
    ///
    /// # Errors
    ///
    /// Propagates layer shape errors.
    pub fn forward(&mut self, input: &Tensor, train: bool) -> Result<Tensor> {
        let mut x = input.clone();
        for layer in &mut self.layers {
            x = layer.forward(&x, train)?;
        }
        Ok(x)
    }

    /// Runs the full backward pass from the loss gradient, accumulating
    /// parameter gradients in every layer. Returns the gradient w.r.t. the
    /// network input.
    ///
    /// # Errors
    ///
    /// Propagates layer errors (including backward-before-forward).
    pub fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let mut g = grad_output.clone();
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward(&g)?;
        }
        Ok(g)
    }

    /// [`Sequential::backward`] for training, where nothing reads the input
    /// gradient: `backward` on the layers above the bottom parameterised
    /// layer, [`Layer::backward_params`] on that layer, and nothing below
    /// it. The accumulated parameter gradients are `backward`'s, bit for
    /// bit. A stack without parameters is left untouched.
    ///
    /// # Errors
    ///
    /// Propagates layer errors (including backward-before-forward).
    pub fn backward_params(&mut self, grad_output: &Tensor) -> Result<()> {
        let Some(bottom) = self.layers.iter().position(|l| l.param_count() > 0) else {
            return Ok(());
        };
        let mut g = grad_output.clone();
        for layer in self.layers[bottom + 1..].iter_mut().rev() {
            g = layer.backward(&g)?;
        }
        self.layers[bottom].backward_params(&g)
    }

    /// Resets every layer's gradient accumulators.
    pub fn zero_grads(&mut self) {
        for layer in &mut self.layers {
            layer.zero_grads();
        }
    }

    /// Concatenates all parameters into one flat rank-1 tensor of length
    /// [`Sequential::param_count`].
    pub fn param_vector(&self) -> Tensor {
        self.concat(|layer| layer.params())
    }

    /// Writes a flat parameter vector back into the layers.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ParamLengthMismatch`] if `v` is not rank 1 of
    /// length [`Sequential::param_count`].
    pub fn set_param_vector(&mut self, v: &Tensor) -> Result<()> {
        let expected = self.param_count();
        if v.rank() != 1 || v.len() != expected {
            return Err(NnError::ParamLengthMismatch {
                expected,
                actual: v.len(),
            });
        }
        let mut offset = 0usize;
        let src = v.as_slice();
        for layer in &mut self.layers {
            for p in layer.params_mut() {
                let n = p.len();
                p.as_mut_slice().copy_from_slice(&src[offset..offset + n]);
                offset += n;
            }
        }
        Ok(())
    }

    /// Concatenates all accumulated gradients into one flat tensor, aligned
    /// with [`Sequential::param_vector`].
    pub fn grad_vector(&self) -> Tensor {
        self.concat(|layer| layer.grads())
    }

    /// The layers' tensors picked by `pick`, in order, written into one
    /// rank-1 buffer of length [`Sequential::param_count`] — one
    /// allocation, no intermediate `Vec`.
    fn concat<'a>(&'a self, pick: impl Fn(&'a dyn Layer) -> Vec<&'a Tensor>) -> Tensor {
        let mut out = Tensor::zeros(&[self.param_count()]);
        let mut rest = out.as_mut_slice();
        for layer in &self.layers {
            for t in pick(layer.as_ref()) {
                let (head, tail) = rest.split_at_mut(t.len());
                head.copy_from_slice(t.as_slice());
                rest = tail;
            }
        }
        out
    }

    /// Layer names, for debugging and model summaries.
    pub fn layer_names(&self) -> Vec<String> {
        self.layers.iter().map(|l| l.name()).collect()
    }
}

impl Default for Sequential {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Sequential {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sequential")
            .field("layers", &self.layer_names())
            .field("param_count", &self.param_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Conv2d, Dense, Flatten, Padding, Relu};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Mutex};
    use tensor::TensorRng;

    fn two_layer() -> Sequential {
        let mut rng = TensorRng::new(3);
        Sequential::new()
            .with(Dense::new(4, 8, &mut rng))
            .with(Relu::new())
            .with(Dense::new(8, 2, &mut rng))
    }

    #[test]
    fn param_count_sums_layers() {
        let m = two_layer();
        assert_eq!(m.param_count(), 4 * 8 + 8 + 8 * 2 + 2);
    }

    #[test]
    fn forward_output_shape() {
        let mut m = two_layer();
        let x = Tensor::zeros(&[5, 4]);
        let y = m.forward(&x, true).unwrap();
        assert_eq!(y.dims(), &[5, 2]);
    }

    #[test]
    fn param_vector_roundtrip() {
        let mut m = two_layer();
        let v = m.param_vector();
        assert_eq!(v.len(), m.param_count());
        let doubled = v.scale(2.0);
        m.set_param_vector(&doubled).unwrap();
        assert_eq!(m.param_vector(), doubled);
    }

    #[test]
    fn set_param_vector_rejects_wrong_length() {
        let mut m = two_layer();
        let bad = Tensor::zeros(&[3]);
        assert!(matches!(
            m.set_param_vector(&bad),
            Err(NnError::ParamLengthMismatch { .. })
        ));
    }

    #[test]
    fn setting_params_changes_output() {
        let mut m = two_layer();
        let x = Tensor::ones(&[1, 4]);
        let y1 = m.forward(&x, true).unwrap();
        let zeroed = Tensor::zeros(&[m.param_count()]);
        m.set_param_vector(&zeroed).unwrap();
        let y2 = m.forward(&x, true).unwrap();
        assert_ne!(y1, y2);
        assert_eq!(y2.as_slice(), &[0.0, 0.0]);
    }

    #[test]
    fn grad_vector_aligned_with_params() {
        let mut m = two_layer();
        let x = Tensor::ones(&[2, 4]);
        let y = m.forward(&x, true).unwrap();
        m.backward(&Tensor::ones(y.dims())).unwrap();
        let g = m.grad_vector();
        assert_eq!(g.len(), m.param_count());
        assert!(g.norm() > 0.0);
        m.zero_grads();
        assert_eq!(m.grad_vector().norm(), 0.0);
    }

    /// A parameterless pass-through that counts its backward calls.
    struct Counting(Arc<AtomicUsize>);

    impl Layer for Counting {
        fn name(&self) -> String {
            "counting".to_owned()
        }

        fn forward(&mut self, input: &Tensor, _train: bool) -> Result<Tensor> {
            Ok(input.clone())
        }

        fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
            self.0.fetch_add(1, Ordering::Relaxed);
            Ok(grad_out.clone())
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

    /// `Flatten`, a counter, then a two-layer MLP on a `[batch, 3, 2, 2]`
    /// input.
    fn flatten_first(calls: &Arc<AtomicUsize>) -> Sequential {
        let mut rng = TensorRng::new(5);
        Sequential::new()
            .with(Flatten::new())
            .with(Counting(Arc::clone(calls)))
            .with(Dense::new(12, 5, &mut rng))
            .with(Relu::new())
            .with(Dense::new(5, 2, &mut rng))
    }

    #[test]
    fn backward_params_stops_at_the_bottom_parameterised_layer() {
        let (below_full, below_params) = (Arc::default(), Arc::default());
        let (mut full, mut params_only) =
            (flatten_first(&below_full), flatten_first(&below_params));
        let mut rng = TensorRng::new(6);
        let x = rng.uniform_tensor(&[4, 3, 2, 2], -1.0, 1.0);
        let dy = rng.uniform_tensor(&[4, 2], -1.0, 1.0);
        full.forward(&x, true).unwrap();
        full.backward(&dy).unwrap();
        params_only.forward(&x, true).unwrap();
        params_only.backward_params(&dy).unwrap();
        let bits = |m: &Sequential| {
            let g = m.grad_vector();
            g.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        };
        assert_eq!(bits(&params_only), bits(&full));
        assert_eq!(below_full.load(Ordering::Relaxed), 1);
        assert_eq!(below_params.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn backward_params_of_a_stack_without_parameters_touches_nothing() {
        let calls = Arc::default();
        let mut m = Sequential::new()
            .with(Counting(Arc::clone(&calls)))
            .with(Flatten::new());
        let y = m.forward(&Tensor::ones(&[2, 3, 2, 2]), true).unwrap();
        m.backward_params(&y).unwrap();
        assert_eq!(calls.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn backward_params_before_forward_fails() {
        let calls = Arc::default();
        let mut m = flatten_first(&calls);
        assert!(matches!(
            m.backward_params(&Tensor::ones(&[4, 2])),
            Err(NnError::BackwardBeforeForward { .. })
        ));
    }

    /// Lengths of the input gradients wrapped layers returned, in call
    /// order.
    type DxLog = Arc<Mutex<Vec<usize>>>;

    /// A wrapper like the `perf` harness's stopwatches: it forwards
    /// `backward` but not `backward_params`, and logs the length of every
    /// input gradient its layer returns.
    struct Wrapped {
        inner: Box<dyn Layer>,
        dx_lens: DxLog,
    }

    impl Layer for Wrapped {
        fn name(&self) -> String {
            self.inner.name()
        }

        fn forward(&mut self, input: &Tensor, train: bool) -> Result<Tensor> {
            self.inner.forward(input, train)
        }

        fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
            let dx = self.inner.backward(grad_out)?;
            self.dx_lens.lock().unwrap().push(dx.len());
            Ok(dx)
        }

        fn params(&self) -> Vec<&Tensor> {
            self.inner.params()
        }

        fn params_mut(&mut self) -> Vec<&mut Tensor> {
            self.inner.params_mut()
        }

        fn grads(&self) -> Vec<&Tensor> {
            self.inner.grads()
        }

        fn zero_grads(&mut self) {
            self.inner.zero_grads();
        }

        fn param_count(&self) -> usize {
            self.inner.param_count()
        }
    }

    /// A convolution, `Relu`, `Flatten` and a `Dense` head on `[batch, 2,
    /// 4, 4]` inputs, every layer wrapped when `log` is given.
    fn conv_stack(log: Option<&DxLog>) -> Sequential {
        let mut rng = TensorRng::new(8);
        let layers: Vec<Box<dyn Layer>> = vec![
            Box::new(Conv2d::new(2, 3, 3, 1, Padding::Same, &mut rng)),
            Box::new(Relu::new()),
            Box::new(Flatten::new()),
            Box::new(Dense::new(48, 2, &mut rng)),
        ];
        let mut m = Sequential::new();
        for inner in layers {
            m.push(match log {
                Some(log) => Box::new(Wrapped {
                    inner,
                    dx_lens: Arc::clone(log),
                }),
                None => inner,
            });
        }
        m
    }

    #[test]
    fn a_wrapper_that_forwards_only_backward_still_skips_the_input_gradient() {
        let log = Arc::default();
        let (mut bare, mut wrapped) = (conv_stack(None), conv_stack(Some(&log)));
        let mut rng = TensorRng::new(9);
        let x = rng.uniform_tensor(&[3, 2, 4, 4], -1.0, 1.0);
        let dy = rng.uniform_tensor(&[3, 2], -1.0, 1.0);
        bare.forward(&x, true).unwrap();
        bare.backward(&dy).unwrap();
        wrapped.forward(&x, true).unwrap();
        wrapped.backward_params(&dy).unwrap();
        let bits = |m: &Sequential| {
            let g = m.grad_vector();
            g.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        };
        assert_eq!(bits(&wrapped), bits(&bare));
        // Every layer above the convolution passes on its full `dx`
        // (`[3, 48]` = `[3, 3, 4, 4]` = 144 floats); the convolution,
        // reached through its wrapper's default `backward_params`, returns
        // none.
        let lens = |log: &DxLog| std::mem::take(&mut *log.lock().unwrap());
        assert_eq!(lens(&log), [144, 144, 144, 0]);
        // The mark ends with the call: a full pass gets every `dx`.
        wrapped.forward(&x, true).unwrap();
        wrapped.backward(&dy).unwrap();
        assert_eq!(lens(&log), [144, 144, 144, x.len()]);
    }

    #[test]
    fn debug_lists_layers() {
        let m = two_layer();
        let s = format!("{m:?}");
        assert!(s.contains("dense(4x8)"));
        assert!(s.contains("relu"));
    }
}
