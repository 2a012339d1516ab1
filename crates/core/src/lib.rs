//! GuanYu: Byzantine-resilient distributed SGD with Byzantine parameter
//! servers **and** Byzantine workers.
//!
//! This crate implements the paper's contribution (PODC 2020; arXiv
//! preprint *"SGD: Decentralized Byzantine Resilience"*): the first
//! SGD protocol that replicates the parameter server and keeps converging
//! with up to ⌊(n−3)/3⌋ Byzantine servers and ⌊(n̄−3)/3⌋ Byzantine workers
//! over an asynchronous network.
//!
//! One step of the protocol (the paper's Fig. 2):
//!
//! 1. every honest server broadcasts its model to all workers; each honest
//!    worker folds the first `q` received models with the coordinate-wise
//!    **median** `M` and computes a stochastic gradient there;
//! 2. every honest worker broadcasts its gradient to all servers; each
//!    honest server folds the first `q̄` received gradients with
//!    **Multi-Krum** `F` and applies a local SGD update;
//! 3. honest servers exchange their updated models and fold the first `q`
//!    received with `M` again — the contraction step that stops honest
//!    replicas from drifting apart.
//!
//! # One state machine, three engines
//!
//! The protocol roles — honest server, honest worker, Byzantine server,
//! Byzantine worker — are implemented exactly once, as the sans-I/O
//! state machines of [`node`] (typed messages in, [`node::Output`]s
//! out). Their shared starting state is built exactly once too, by
//! [`plant`]: `θ₀`, the seed derivation, the machine roster per shard
//! group and the forward/backward pass that answers a worker's gradient
//! request. Three engines drive the machines at different levels of
//! physical fidelity, supplying only routing, a clock and I/O
//! (DESIGN.md §3 and §11):
//!
//! * [`lockstep`] — a round-structured driver with a
//!   [`cost::CostModel`]-driven simulated clock. Used for the long
//!   convergence experiments (paper Figs. 3 and 4) because it is fast.
//! * [`protocol`] — the machines wrapped in event-driven
//!   [`simnet::SimNode`]s over the asynchronous network simulator, with
//!   per-message delays, quorum discards and step buffering. Used for
//!   the protocol-correctness tests and throughput/latency measurements.
//! * `guanyu-runtime` (separate crate) — one OS thread per machine over
//!   real transports (in-process channels or TCP loopback).
//!
//! The machines have one fold path: a per-step ledger with one slot per
//! sender, one admission gate and one pump each. Who is folded is a
//! question they put to [`node::MachineSpec`], which answers it from the
//! ledger in [`node::QuorumMode::Arrival`] (the first `q` distinct
//! senders — the paper's rule, and the default) and from a forward plan in
//! [`node::QuorumMode::Planned`], where membership is a pure function of
//! the [`faults::FaultSchedule`] and the step number, so all three
//! engines produce **bit-identical** per-round traces for the same
//! configuration — the cross-engine contract the scenario layer checks.
//! The engines share [`config::ClusterConfig`] (which enforces the
//! paper's bounds `n ≥ 3f + 3`, `2f + 3 ≤ q ≤ n − f`) and the aggregation
//! rules from the `aggregation` crate.
//!
//! # Quick start
//!
//! ```
//! use guanyu::config::ClusterConfig;
//! use guanyu::experiment::{run, ExperimentConfig, SystemKind};
//!
//! let cfg = ExperimentConfig {
//!     steps: 30,
//!     eval_every: 10,
//!     ..ExperimentConfig::tiny()
//! };
//! let result = run(SystemKind::GuanYu, &cfg).unwrap();
//! assert_eq!(result.records.last().unwrap().step, 30);
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod checkpoint;
pub mod config;
pub mod contraction;
pub mod cost;
pub mod error;
pub mod experiment;
pub mod faults;
pub mod lockstep;
pub mod metrics;
pub mod node;
pub mod plant;
pub mod protocol;
pub mod shard;
pub mod trace;

pub use config::ClusterConfig;
pub use error::GuanYuError;

/// Convenience alias for protocol results.
pub type Result<T> = std::result::Result<T, GuanYuError>;
