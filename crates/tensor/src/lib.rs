//! Dense `f32` tensor math.
//!
//! This crate is the numerical substrate (S1 in `DESIGN.md`) that replaces
//! TensorFlow's tensor machinery in the GuanYu reproduction. It provides:
//!
//! * [`Shape`] — a small owned dimension list with stride computation,
//! * [`Tensor`] — a dense, row-major `f32` tensor,
//! * element-wise and scalar arithmetic, matrix multiplication, reductions,
//! * vector geometry helpers ([`Tensor::dot`], [`Tensor::norm`],
//!   [`Tensor::distance`], [`Tensor::cosine_similarity`]) used by the robust
//!   aggregation rules,
//! * seeded random initialisation via [`TensorRng`].
//!
//! Everything is deterministic given a seed, which is what makes the paper's
//! experiments exactly reproducible in this code base.
//!
//! # Example
//!
//! ```
//! use tensor::Tensor;
//!
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
//! let b = Tensor::eye(2);
//! let c = a.matmul(&b).unwrap();
//! assert_eq!(c.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

mod error;
mod ops;
mod random;
mod shape;
mod shard;
#[allow(clippy::module_inception)]
mod tensor;

pub use error::TensorError;
pub use ops::gemm_into;
pub use random::TensorRng;
pub use shape::Shape;
pub use shard::TensorShard;
pub use tensor::Tensor;

/// Convenience alias: results of fallible tensor operations.
pub type Result<T> = std::result::Result<T, TensorError>;
