//! Neural networks with hand-derived backprop.
//!
//! This crate replaces TensorFlow's low-level APIs in the GuanYu
//! reproduction (substrate S2 in `DESIGN.md`). It provides:
//!
//! * the [`Layer`] trait and the standard layers the paper's CNN needs —
//!   [`Dense`], [`Conv2d`], [`MaxPool2d`], [`Relu`], [`Flatten`],
//! * [`Sequential`] — a layer stack with a **flat parameter-vector view**
//!   ([`Sequential::param_vector`] / [`Sequential::set_param_vector`]),
//!   which is the representation exchanged between parameter servers and
//!   workers in the protocol,
//! * [`softmax_cross_entropy`] — the classification loss, returning the loss
//!   value and the logits gradient in one pass,
//! * [`LrSchedule`] — the paper's learning-rate schedules `η_t` (the server
//!   machine applies `θ ← θ − η_t · F` itself),
//! * [`models`] — the paper's Table-1 CNN (~1.75M parameters) plus smaller
//!   models used by the fast experiments and tests.
//!
//! Every layer's backward pass is verified against centered finite
//! differences in the test suite (`tests/gradient_check.rs`).
//!
//! # Example: one SGD step
//!
//! ```
//! use nn::{models, softmax_cross_entropy, LrSchedule};
//! use tensor::{Tensor, TensorRng};
//!
//! let mut rng = TensorRng::new(0);
//! let mut model = models::mlp(&[4, 16, 3], &mut rng).unwrap();
//! let x = rng.uniform_tensor(&[8, 4], -1.0, 1.0);
//! let labels = vec![0usize, 1, 2, 0, 1, 2, 0, 1];
//!
//! let logits = model.forward(&x, true).unwrap();
//! let (loss, grad) = softmax_cross_entropy(&logits, &labels).unwrap();
//! model.backward(&grad).unwrap();
//!
//! let eta = LrSchedule::constant(0.1).at(0);
//! let mut params = model.param_vector();
//! params.axpy(-eta, &model.grad_vector()).unwrap();
//! model.set_param_vector(&params).unwrap();
//! assert!(loss > 0.0);
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

mod activation;
mod conv;
mod dense;
mod error;
mod flatten;
mod layer;
mod loss;
pub mod models;
mod optimizer;
mod pool;
mod sequential;

pub use activation::Relu;
pub use conv::{Conv2d, Padding};
pub use dense::Dense;
pub use error::NnError;
pub use flatten::Flatten;
pub use layer::Layer;
pub use loss::{accuracy, softmax, softmax_cross_entropy};
pub use optimizer::LrSchedule;
pub use pool::MaxPool2d;
pub use sequential::Sequential;

/// Convenience alias for fallible neural-network operations.
pub type Result<T> = std::result::Result<T, NnError>;
