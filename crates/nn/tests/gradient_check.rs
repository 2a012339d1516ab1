//! Numerical gradient verification for every layer and the full stacks.
//!
//! For each model we compare the analytic gradient (backprop) against
//! centered finite differences of the scalar loss, coordinate by
//! coordinate, on small networks where the O(d) forward passes are cheap.
//! This is the ground truth that the "TensorFlow substitute" computes the
//! same gradients TensorFlow would.

use nn::{
    models, softmax_cross_entropy, Conv2d, Dense, Flatten, MaxPool2d, Padding, Relu, Sequential,
};
use tensor::{Tensor, TensorRng};

/// Computes the loss of `model` at parameter vector `params` on `(x, labels)`.
fn loss_at(model: &mut Sequential, params: &Tensor, x: &Tensor, labels: &[usize]) -> f32 {
    model.set_param_vector(params).unwrap();
    let logits = model.forward(x, true).unwrap();
    let (loss, _) = softmax_cross_entropy(&logits, labels).unwrap();
    loss
}

/// Asserts analytic ≈ numeric gradient for every coordinate. Tolerances are
/// relative where the gradient is large and absolute where it is tiny.
fn check_gradients(mut model: Sequential, x: &Tensor, labels: &[usize], eps: f32, tol: f32) {
    let params = model.param_vector();

    model.zero_grads();
    model.set_param_vector(&params).unwrap();
    let logits = model.forward(x, true).unwrap();
    let (_, dlogits) = softmax_cross_entropy(&logits, labels).unwrap();
    model.backward(&dlogits).unwrap();
    let analytic = model.grad_vector();

    // The training pass skips the input gradient and must accumulate the
    // same parameter gradients, bit for bit.
    model.zero_grads();
    model.forward(x, true).unwrap();
    model.backward_params(&dlogits).unwrap();
    let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(&model.grad_vector()),
        bits(&analytic),
        "backward_params"
    );

    let mut max_err = 0.0f32;
    let mut worst = 0usize;
    for i in 0..params.len() {
        let mut plus = params.clone();
        plus.as_mut_slice()[i] += eps;
        let mut minus = params.clone();
        minus.as_mut_slice()[i] -= eps;
        let lp = loss_at(&mut model, &plus, x, labels);
        let lm = loss_at(&mut model, &minus, x, labels);
        let numeric = (lp - lm) / (2.0 * eps);
        let a = analytic.as_slice()[i];
        let denom = a.abs().max(numeric.abs()).max(1.0);
        let err = (a - numeric).abs() / denom;
        if err > max_err {
            max_err = err;
            worst = i;
        }
    }
    assert!(
        max_err < tol,
        "max relative gradient error {max_err} at coordinate {worst} \
         (analytic {}, params len {})",
        analytic.as_slice()[worst],
        params.len()
    );
}

#[test]
fn dense_network_gradients() {
    let mut rng = TensorRng::new(11);
    let model = models::mlp(&[3, 8, 4], &mut rng).unwrap();
    let x = rng.uniform_tensor(&[5, 3], -1.0, 1.0);
    check_gradients(model, &x, &[0, 1, 2, 3, 0], 1e-2, 2e-2);
}

#[test]
fn single_dense_layer_gradients() {
    let mut rng = TensorRng::new(13);
    let model = Sequential::new().with(Dense::new(4, 3, &mut rng));
    let x = rng.uniform_tensor(&[6, 4], -1.0, 1.0);
    check_gradients(model, &x, &[0, 1, 2, 0, 1, 2], 1e-2, 1e-2);
}

#[test]
fn relu_network_gradients() {
    let mut rng = TensorRng::new(17);
    // Shift inputs away from 0 so finite differences don't cross the kink.
    let model = Sequential::new()
        .with(Dense::new(3, 6, &mut rng))
        .with(Relu::new())
        .with(Dense::new(6, 2, &mut rng));
    let x = rng.uniform_tensor(&[4, 3], 0.5, 1.5);
    check_gradients(model, &x, &[0, 1, 0, 1], 1e-2, 3e-2);
}

#[test]
fn conv_valid_gradients() {
    let mut rng = TensorRng::new(19);
    let model = Sequential::new()
        .with(Conv2d::new(2, 3, 3, 1, Padding::Valid, &mut rng))
        .with(Flatten::new())
        .with(Dense::new(3 * 2 * 2, 2, &mut rng));
    let x = rng.uniform_tensor(&[2, 2, 4, 4], -1.0, 1.0);
    check_gradients(model, &x, &[0, 1], 1e-2, 3e-2);
}

#[test]
fn conv_same_padding_gradients() {
    let mut rng = TensorRng::new(23);
    let model = Sequential::new()
        .with(Conv2d::new(1, 2, 3, 1, Padding::Same, &mut rng))
        .with(Flatten::new())
        .with(Dense::new(2 * 3 * 3, 2, &mut rng));
    let x = rng.uniform_tensor(&[2, 1, 3, 3], -1.0, 1.0);
    check_gradients(model, &x, &[1, 0], 1e-2, 3e-2);
}

#[test]
fn strided_conv_gradients() {
    let mut rng = TensorRng::new(29);
    let model = Sequential::new()
        .with(Conv2d::new(1, 2, 3, 2, Padding::Same, &mut rng))
        .with(Flatten::new())
        .with(Dense::new(2 * 2 * 2, 2, &mut rng));
    let x = rng.uniform_tensor(&[1, 1, 4, 4], -1.0, 1.0);
    check_gradients(model, &x, &[1], 1e-2, 3e-2);
}

#[test]
fn maxpool_gradients() {
    let mut rng = TensorRng::new(31);
    let model = Sequential::new()
        .with(Conv2d::new(1, 2, 3, 1, Padding::Same, &mut rng))
        .with(MaxPool2d::new(2, 2, Padding::Valid))
        .with(Flatten::new())
        .with(Dense::new(2 * 2 * 2, 2, &mut rng));
    let x = rng.uniform_tensor(&[2, 1, 4, 4], -1.0, 1.0);
    check_gradients(model, &x, &[0, 1], 1e-2, 3e-2);
}

#[test]
fn full_small_cnn_gradients() {
    // The exact topology used by the simulation experiments, end to end.
    let mut rng = TensorRng::new(37);
    let model = models::small_cnn(8, 2, 3, &mut rng);
    // eps is smaller than in the layer-level checks: the max-pool switches
    // are denser in the full stack, and a wide finite-difference step can
    // straddle one.
    let x = rng.uniform_tensor(&[2, 3, 8, 8], -1.0, 1.0);
    check_gradients(model, &x, &[0, 2], 2e-3, 5e-2);
}

#[test]
fn gradient_of_input_matches_finite_difference() {
    // Backward also returns d loss / d input; verify it on a dense net.
    let mut rng = TensorRng::new(41);
    let mut model = models::mlp(&[3, 5, 2], &mut rng).unwrap();
    let x = rng.uniform_tensor(&[1, 3], 0.3, 1.0);
    let labels = [1usize];

    let logits = model.forward(&x, true).unwrap();
    let (_, dlogits) = softmax_cross_entropy(&logits, &labels).unwrap();
    let dx = model.backward(&dlogits).unwrap();

    let eps = 1e-2f32;
    for i in 0..x.len() {
        let mut plus = x.clone();
        plus.as_mut_slice()[i] += eps;
        let mut minus = x.clone();
        minus.as_mut_slice()[i] -= eps;
        let lp = {
            let l = model.forward(&plus, true).unwrap();
            softmax_cross_entropy(&l, &labels).unwrap().0
        };
        let lm = {
            let l = model.forward(&minus, true).unwrap();
            softmax_cross_entropy(&l, &labels).unwrap().0
        };
        let numeric = (lp - lm) / (2.0 * eps);
        let err = (dx.as_slice()[i] - numeric).abs();
        assert!(
            err < 2e-2,
            "input grad {i}: {} vs {numeric}",
            dx.as_slice()[i]
        );
    }
}
