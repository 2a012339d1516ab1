//! Model zoo: the paper's CNN and smaller stand-ins for fast experiments.

use tensor::TensorRng;

use crate::conv::Padding;
use crate::{Conv2d, Dense, Flatten, MaxPool2d, Relu, Result, Sequential};

/// The CNN of the paper's Table 1, for 32×32×3 inputs and 10 classes:
///
/// | Input | Conv1 | Pool1 | Conv2 | Pool2 | FC1 | FC2 | FC3 |
/// |-------|-------|-------|-------|-------|-----|-----|-----|
/// | 32×32×3 | 5×5×64, s1, SAME | 3×3, s2, SAME | 5×5×64, s1, SAME | 3×3, s2, SAME | 384 | 192 | 10 |
///
/// Total parameter count 1 756 426 ≈ the paper's "1.75M parameters"
/// (asserted by a test in this module).
pub fn paper_cnn(rng: &mut TensorRng) -> Sequential {
    Sequential::new()
        .with(Conv2d::new(3, 64, 5, 1, Padding::Same, rng))
        .with(Relu::new())
        .with(MaxPool2d::new(3, 2, Padding::Same))
        .with(Conv2d::new(64, 64, 5, 1, Padding::Same, rng))
        .with(Relu::new())
        .with(MaxPool2d::new(3, 2, Padding::Same))
        .with(Flatten::new())
        .with(Dense::new(8 * 8 * 64, 384, rng))
        .with(Relu::new())
        .with(Dense::new(384, 192, rng))
        .with(Relu::new())
        .with(Dense::new(192, 10, rng))
}

/// Exact parameter count of [`paper_cnn`].
pub const PAPER_CNN_PARAMS: usize = (5 * 5 * 3 * 64 + 64)
    + (5 * 5 * 64 * 64 + 64)
    + (8 * 8 * 64 * 384 + 384)
    + (384 * 192 + 192)
    + (192 * 10 + 10);

/// A structurally faithful but much smaller CNN used by the simulation
/// experiments: same conv–pool–conv–pool–FC×3 topology as [`paper_cnn`],
/// scaled to `s`×`s`×3 inputs and `filters` feature maps so that thousands
/// of distributed SGD steps run in seconds.
///
/// With `s = 8`, `filters = 8`: ~5.6k parameters.
///
/// # Panics
///
/// Panics if `s` is not divisible by 4 (two stride-2 pools).
pub fn small_cnn(s: usize, filters: usize, classes: usize, rng: &mut TensorRng) -> Sequential {
    assert!(s.is_multiple_of(4), "input side must be divisible by 4");
    let final_side = s / 4;
    Sequential::new()
        .with(Conv2d::new(3, filters, 3, 1, Padding::Same, rng))
        .with(Relu::new())
        .with(MaxPool2d::new(2, 2, Padding::Same))
        .with(Conv2d::new(filters, filters, 3, 1, Padding::Same, rng))
        .with(Relu::new())
        .with(MaxPool2d::new(2, 2, Padding::Same))
        .with(Flatten::new())
        .with(Dense::new(
            final_side * final_side * filters,
            4 * classes,
            rng,
        ))
        .with(Relu::new())
        .with(Dense::new(4 * classes, classes, rng))
}

/// A multi-layer perceptron with ReLU between consecutive [`Dense`] layers.
/// `dims = [in, h1, ..., out]` requires at least 2 entries.
///
/// # Errors
///
/// Never fails today (the signature is future-proofed for layer
/// constructors that validate).
pub fn mlp(dims: &[usize], rng: &mut TensorRng) -> Result<Sequential> {
    assert!(dims.len() >= 2, "mlp needs at least [in, out]");
    let mut model = Sequential::new();
    for (i, pair) in dims.windows(2).enumerate() {
        model.push(Box::new(Dense::new(pair[0], pair[1], rng)));
        if i + 2 < dims.len() {
            model.push(Box::new(Relu::new()));
        }
    }
    Ok(model)
}

/// Multinomial logistic regression: a single [`Dense`] layer to be combined
/// with [`crate::softmax_cross_entropy`]. Convex — useful for convergence
/// tests with known optima.
pub fn logistic_regression(features: usize, classes: usize, rng: &mut TensorRng) -> Sequential {
    Sequential::new().with(Dense::new(features, classes, rng))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{accuracy, softmax_cross_entropy};
    use tensor::Tensor;

    #[test]
    fn paper_cnn_has_1_75m_params() {
        let mut rng = TensorRng::new(0);
        let model = paper_cnn(&mut rng);
        assert_eq!(model.param_count(), PAPER_CNN_PARAMS);
        assert_eq!(model.param_count(), 1_756_426);
        // "1.75M" as the paper rounds it
        assert!((model.param_count() as f64 / 1.75e6 - 1.0).abs() < 0.01);
    }

    #[test]
    fn paper_cnn_forward_shape() {
        let mut rng = TensorRng::new(0);
        let mut model = paper_cnn(&mut rng);
        let x = rng.uniform_tensor(&[2, 3, 32, 32], -1.0, 1.0);
        let y = model.forward(&x, true).unwrap();
        assert_eq!(y.dims(), &[2, 10]);
    }

    #[test]
    fn small_cnn_shapes_and_size() {
        let mut rng = TensorRng::new(0);
        let mut model = small_cnn(8, 8, 10, &mut rng);
        let x = rng.uniform_tensor(&[4, 3, 8, 8], -1.0, 1.0);
        let y = model.forward(&x, true).unwrap();
        assert_eq!(y.dims(), &[4, 10]);
        assert!(model.param_count() < 10_000, "small model should be small");
    }

    #[test]
    fn mlp_structure() {
        let mut rng = TensorRng::new(0);
        let m = mlp(&[4, 16, 8, 2], &mut rng).unwrap();
        // Dense+Relu+Dense+Relu+Dense
        assert_eq!(m.depth(), 5);
        assert_eq!(m.param_count(), 4 * 16 + 16 + 16 * 8 + 8 + 8 * 2 + 2);
    }

    #[test]
    fn logistic_regression_learns_linearly_separable_data() {
        let mut rng = TensorRng::new(7);
        let mut model = logistic_regression(2, 2, &mut rng);
        // class 0: x0 < 0; class 1: x0 > 0
        let mut xs = Vec::new();
        let mut labels = Vec::new();
        for i in 0..64 {
            let x0 = if i % 2 == 0 { -1.0 } else { 1.0 };
            let jitter = rng.uniform(-0.2, 0.2);
            xs.extend_from_slice(&[x0 + jitter, rng.uniform(-1.0, 1.0)]);
            labels.push((i % 2) as usize);
        }
        let x = Tensor::from_vec(xs, &[64, 2]).unwrap();
        let mut last_loss = f32::INFINITY;
        for _ in 0..60 {
            model.zero_grads();
            let logits = model.forward(&x, true).unwrap();
            let (loss, grad) = softmax_cross_entropy(&logits, &labels).unwrap();
            model.backward(&grad).unwrap();
            let mut params = model.param_vector();
            params.axpy(-0.5, &model.grad_vector()).unwrap();
            model.set_param_vector(&params).unwrap();
            last_loss = loss;
        }
        let logits = model.forward(&x, false).unwrap();
        let acc = accuracy(&logits, &labels).unwrap();
        assert!(acc > 0.95, "accuracy {acc}, final loss {last_loss}");
    }

    #[test]
    fn small_cnn_single_batch_overfits() {
        // Sanity: the network + loss + optimizer can drive training loss
        // down on a tiny fixed batch (standard overfit-one-batch check).
        let mut rng = TensorRng::new(5);
        let mut model = small_cnn(8, 4, 3, &mut rng);
        let x = rng.uniform_tensor(&[6, 3, 8, 8], -1.0, 1.0);
        let labels = vec![0usize, 1, 2, 0, 1, 2];
        let mut first = 0.0;
        let mut last = 0.0;
        for it in 0..80 {
            model.zero_grads();
            let logits = model.forward(&x, true).unwrap();
            let (loss, grad) = softmax_cross_entropy(&logits, &labels).unwrap();
            if it == 0 {
                first = loss;
            }
            last = loss;
            model.backward(&grad).unwrap();
            let mut params = model.param_vector();
            params.axpy(-0.05, &model.grad_vector()).unwrap();
            model.set_param_vector(&params).unwrap();
        }
        assert!(
            last < first * 0.5,
            "loss should halve when overfitting one batch: {first} -> {last}"
        );
    }
}
