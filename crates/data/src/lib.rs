//! Datasets for the GuanYu reproduction.
//!
//! The paper evaluates on CIFAR-10. CIFAR-10's binary files are not
//! available in this offline environment, so the primary dataset here is a
//! **synthetic CIFAR substitute** ([`synthetic_cifar`]): 10 Gaussian class
//! prototypes in image space with controlled intra-class noise. The
//! substitution is documented in `DESIGN.md` §4; nothing in the paper's
//! claims depends on natural-image statistics — the workload only needs a
//! non-convex classification task with measurable held-out accuracy.
//!
//! [`Dataset`] carries features and labels; [`Batcher`] yields seeded,
//! shuffled mini-batches so each simulated worker draws an independent
//! stochastic gradient stream.

#![deny(missing_docs)]
#![deny(unsafe_code)]

mod batcher;
mod dataset;
mod partition;
mod synthetic;

pub use batcher::Batcher;
pub use dataset::{Dataset, DatasetError};
pub use partition::{label_skew, partition_dataset, partition_indices, Partition};
pub use synthetic::{gaussian_blobs, synthetic_cifar, SyntheticConfig};

/// Convenience alias for dataset results.
pub type Result<T> = std::result::Result<T, DatasetError>;
