//! Declarative fault-injection scenarios with deterministic cross-engine
//! trace checking.
//!
//! The paper's headline claim is liveness *and* safety under asynchrony
//! plus Byzantine behaviour — yet most test surfaces only exercise static
//! attack configurations on a well-behaved network. This crate scripts
//! the environment itself: a [`Scenario`] is a cluster shape plus a
//! round-indexed [`guanyu::faults::FaultSchedule`] of time-varying faults
//! — network partitions with heal times, delay spikes, server/worker
//! crash-and-recovery, straggler bursts, attack onset/offset windows and
//! rolling churn — and compiles to *both* deterministic engines:
//!
//! * **lockstep** ([`run_lockstep`]) — the schedule applies round by
//!   round through the fault hooks in `guanyu::lockstep`;
//! * **event-driven** ([`run_event`]) — attack windows gate on the step
//!   numbers carried in protocol messages (exact), while environmental
//!   faults compile to a `simnet::FaultPlan` over simulated time, the
//!   round→time mapping calibrated by a fault-free dry run.
//!
//! Every run records a [`guanyu::trace::Trace`] of per-round digests
//! (model hashes, quorum compositions, message counts). The checker
//! ([`check`]) asserts the two contracts of DESIGN.md §6:
//!
//! 1. **determinism** — same seed ⇒ bit-identical trace fingerprint
//!    ([`check::assert_deterministic`]);
//! 2. **protocol invariants** — honest-server agreement and progress
//!    under bounded faults, on every engine
//!    ([`check::check_invariants`]).
//!
//! [`matrix`] ships the standard scenario suite (one per fault class plus
//! a combined stress), used by `tests/scenario_matrix.rs` and `repro
//! scenario_sweep`.
//!
//! Beyond the fixed matrix, the crate is a *search engine* over the
//! schedule space (DESIGN.md §8): [`chaos`] samples random in-bounds
//! scenarios from a seeded ChaCha8 stream and oracles them through both
//! engines, [`mod@shrink`] delta-debugs any violation down to a minimal
//! reproducer, and [`mod@file`] serialises reproducers as `.scenario.json`
//! artifacts that replay forever. The `scenario` CLI binary drives all of
//! it (`gen` / `run` / `fuzz` / `replay` / `soak`), parsing its flags with
//! [`cli`], as `repro` does.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod chaos;
pub mod check;
pub mod cli;
pub mod file;
mod run;
#[allow(clippy::module_inception)]
mod scenario;
pub mod shrink;

pub use chaos::{fuzz, fuzz_with, seed_from_env, ChaosGen, Violation, ViolationKind};
pub use file::{Expectation, ScenarioFile};
pub use run::{
    calibrate_round_secs, run_event, run_event_with, run_lockstep, run_threaded, Engine,
    ScenarioRun,
};
pub use scenario::{matrix, Scenario};
pub use shrink::{shrink, ShrinkOutcome};
pub use simnet::NetworkModel;
