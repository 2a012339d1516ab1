//! The [`Layer`] trait.

use std::cell::Cell;

use tensor::Tensor;

use crate::Result;

thread_local! {
    /// Set while a default [`Layer::backward_params`] body runs `backward`:
    /// the input gradient that call returns is dropped unread.
    static INPUT_GRAD_UNREAD: Cell<bool> = const { Cell::new(false) };
}

/// Whether the input gradient of the `backward` call now running will be
/// read. A layer that can skip it asks once, at the top of `backward`.
/// Asking clears the mark, so under a wrapper only the first such layer
/// reached skips its input gradient.
pub(crate) fn input_grad_read() -> bool {
    !INPUT_GRAD_UNREAD.take()
}

/// Restores the mark when a default `backward_params` body ends, unwinding
/// included.
struct Unread(bool);

impl Drop for Unread {
    fn drop(&mut self) {
        INPUT_GRAD_UNREAD.set(self.0);
    }
}

/// A differentiable layer with owned parameters and gradient accumulators.
///
/// The contract mirrors classic define-by-run frameworks:
///
/// 1. [`Layer::forward`] consumes an activation and caches whatever it needs
///    for the backward pass (inputs, masks, column buffers);
/// 2. [`Layer::backward`] consumes the gradient w.r.t. the layer's output,
///    **accumulates** gradients into the layer's parameter-gradient buffers
///    and returns the gradient w.r.t. the layer's input;
/// 3. [`Layer::backward_params`] may take the place of `backward` when
///    nothing reads the input gradient (the bottom parameterised layer of a
///    stack): it accumulates the same parameter gradients, bit for bit, and
///    returns nothing. Reached through a wrapper that forwards only
///    `backward`, a layer that skips its input gradient returns an empty
///    tensor from `backward`, which the default `backward_params` drops;
/// 4. [`Layer::zero_grads`] resets the accumulators between steps.
///
/// Calling `backward` or `backward_params` without a preceding `forward` is
/// an error ([`crate::NnError::BackwardBeforeForward`]).
///
/// Parameters are exposed as ordered lists so [`crate::Sequential`] can
/// present the whole model as one flat vector — the unit of exchange in the
/// GuanYu protocol.
pub trait Layer: Send {
    /// Human-readable layer name (used in error messages).
    fn name(&self) -> String;

    /// Computes the layer output. No layer reads `train`; it stays in the
    /// signature because the `perf` harness's layer decorators implement it.
    ///
    /// # Errors
    ///
    /// Returns [`crate::NnError::BadInputShape`] for unsupported inputs.
    fn forward(&mut self, input: &Tensor, train: bool) -> Result<Tensor>;

    /// Back-propagates `grad_out`, accumulating parameter gradients and
    /// returning the gradient w.r.t. the forward input.
    ///
    /// # Errors
    ///
    /// Returns [`crate::NnError::BackwardBeforeForward`] when called without
    /// a cached forward pass, and shape errors for inconsistent gradients.
    fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor>;

    /// [`Layer::backward`] without the input gradient: accumulates the same
    /// parameter gradients and skips whatever only the input gradient
    /// needs. `Conv2d` and `Dense` override it. The default runs `backward`
    /// with its result marked unread and drops it: a layer without an
    /// input-gradient product loses nothing, and a wrapper that forwards
    /// only `backward` (the `perf` harness's stopwatches) still lets the
    /// wrapped `Conv2d` or `Dense` skip its input gradient, so a wrapped
    /// model runs the same arithmetic as a bare one.
    ///
    /// # Errors
    ///
    /// As [`Layer::backward`].
    fn backward_params(&mut self, grad_out: &Tensor) -> Result<()> {
        let _outer = Unread(INPUT_GRAD_UNREAD.replace(true));
        self.backward(grad_out).map(drop)
    }

    /// The layer's parameters, in a stable order.
    fn params(&self) -> Vec<&Tensor>;

    /// Mutable access to the parameters, in the same order as
    /// [`Layer::params`].
    fn params_mut(&mut self) -> Vec<&mut Tensor>;

    /// Accumulated parameter gradients, aligned with [`Layer::params`].
    fn grads(&self) -> Vec<&Tensor>;

    /// Resets all gradient accumulators to zero.
    fn zero_grads(&mut self);

    /// Total number of scalar parameters.
    fn param_count(&self) -> usize {
        self.params().iter().map(|p| p.len()).sum()
    }
}
