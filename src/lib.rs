//! Workspace umbrella crate for the GuanYu reproduction.
//!
//! This crate exists so that the repository's top-level `examples/` and
//! `tests/` directories can exercise the public API of every member crate.
//! It re-exports the member crates under stable names; see the individual
//! crates for the actual functionality:
//!
//! * [`tensor`] — dense tensor math (substrate S1 in DESIGN.md)
//! * [`nn`] — neural networks and backprop (S2)
//! * [`data`] — datasets, including the synthetic CIFAR substitute (S3)
//! * [`aggregation`] — robust gradient aggregation rules (S4)
//! * [`simnet`] — deterministic asynchronous network simulator (S5)
//! * [`byzantine`] — attack implementations (S6)
//! * [`guanyu`] — the GuanYu protocol: the node machines, the node plant
//!   they start from, the lockstep and event-driven drivers, baselines
//!   and the experiment harness (S7)
//! * [`guanyu_runtime`] — the threaded driver over channels or TCP, and
//!   the wire codec for the machines' messages (S8)
//! * [`scenario`] — declarative fault-injection scenarios and the
//!   deterministic cross-engine trace checker (DESIGN.md §6)

pub use aggregation;
pub use byzantine;
pub use data;
pub use guanyu;
pub use guanyu_runtime;
pub use nn;
pub use scenario;
pub use simnet;
pub use tensor;
