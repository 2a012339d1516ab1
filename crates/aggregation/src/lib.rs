//! Robust Gradient Aggregation Rules (GARs).
//!
//! A GAR is a function `(R^d)^n → R^d` that folds `n` proposed vectors
//! (gradients or parameter vectors) into one. In a Byzantine-free world the
//! arithmetic mean suffices; with up to `f` arbitrary (Byzantine) inputs the
//! mean is unbounded-ly manipulable, so GuanYu relies on two robust rules:
//!
//! * [`CoordinateWiseMedian`] (`M` in the paper) — used by workers to fold
//!   the models received from parameter servers, and by servers to fold each
//!   other's models at the end of each step. Its *contraction effect*
//!   (supplementary §9.2.3) is what keeps the honest servers' models from
//!   drifting apart.
//! * [`MultiKrum`] (`F` in the paper) — used by servers to fold worker
//!   gradients. Its *bounded-deviation* lemma (supplementary §9.2.2) bounds
//!   how far the aggregate can be pulled from the honest inputs.
//!
//! The crate also ships the vulnerable baseline ([`Average`]) and several
//! alternative robust rules used in the ablation benchmarks:
//! [`TrimmedMean`], [`Meamed`], [`Bulyan`], [`GeometricMedian`].
//!
//! All rules implement the object-safe [`Gar`] trait so the protocol code
//! can swap them at run time. Each rule is a thin validation shim over a
//! pure slice-level kernel in [`kernel`]: one code path per rule, the same
//! bits from the same inputs on every node (the determinism contract the
//! protocol relies on).
//!
//! # Example
//!
//! ```
//! use aggregation::{Gar, MultiKrum, CoordinateWiseMedian};
//! use tensor::Tensor;
//!
//! let honest: Vec<Tensor> = (0..6)
//!     .map(|i| Tensor::from_flat(vec![1.0 + 0.01 * i as f32, 2.0]))
//!     .collect();
//! let mut inputs = honest.clone();
//! inputs.push(Tensor::from_flat(vec![1e9, -1e9])); // Byzantine
//!
//! let krum = MultiKrum::new(1).unwrap();
//! let agg = krum.aggregate(&inputs).unwrap();
//! // The Byzantine vector cannot drag the aggregate away from the honest cluster.
//! assert!(agg.distance(&honest[0]).unwrap() < 0.1);
//!
//! let median = CoordinateWiseMedian::new();
//! let m = median.aggregate(&inputs).unwrap();
//! assert!(m.distance(&honest[0]).unwrap() < 0.1);
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

mod average;
mod bulyan;
mod error;
mod gar;
mod geometric_median;
pub mod kernel;
mod krum;
mod meamed;
mod median;
pub mod properties;
mod trimmed_mean;

pub use average::Average;
pub use bulyan::Bulyan;
pub use error::AggregationError;
pub use gar::{Gar, GarKind};
pub use geometric_median::GeometricMedian;
pub use krum::MultiKrum;
pub use meamed::Meamed;
pub use median::CoordinateWiseMedian;
pub use trimmed_mean::TrimmedMean;

/// Convenience alias for aggregation results.
pub type Result<T> = std::result::Result<T, AggregationError>;

/// Vestige of the deleted multi-threaded kernel fork, kept only because the
/// frozen benchmark harness's environment stamp compares `Exec::auto()` with
/// `Exec::Serial` to print its `features` field. No kernel takes it; a
/// `benchmark`-archetype PR can drop it together with that line (ROADMAP
/// item 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exec {
    /// The only execution mode there is.
    Serial,
}

impl Exec {
    /// Always [`Exec::Serial`].
    pub fn auto() -> Exec {
        Exec::Serial
    }
}
