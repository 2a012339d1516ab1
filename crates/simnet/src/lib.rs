//! Deterministic discrete-event simulation of asynchronous, partially
//! Byzantine networks.
//!
//! The paper's network model (its §2.1) is **asynchronous**: no bound on the
//! time it takes for a message between honest nodes to be delivered. The
//! adversary additionally controls message scheduling within the physical
//! limits of the network and enjoys an arbitrarily fast covert channel
//! between the nodes it corrupts.
//!
//! This crate simulates that model (substitution S5 in `DESIGN.md` — the
//! stand-in for the paper's Grid5000 deployment):
//!
//! * [`Simulator`] — a seeded, deterministic event loop; every experiment
//!   with the same seed replays identically.
//! * [`SimNode`] — the behaviour interface protocol roles implement.
//! * [`DelayModel`] — pluggable link-delay distributions, including
//!   [`DelayModel::BandwidthLatency`] (calibrated to model the paper's
//!   10 Gbps Ethernet) and heavy-tail variants.
//! * [`FaultPlan`] — the one vocabulary for perturbing links: network
//!   partitions with heal times, node crash/recovery windows, lossy links,
//!   and targeted or network-wide delays — the environment misbehaving as
//!   well as the adversary's (partial) control of message scheduling, e.g.
//!   congesting chosen links for chosen periods. Evaluated
//!   deterministically per message, so faulty runs replay bit-identically
//!   (the scenario layer's foundation).
//! * [`TrafficStats`] — per-node message/byte counters and delivery traces
//!   used by the throughput figures.
//! * [`NetworkModel`] / [`SwitchedConfig`] — an optional switched-topology
//!   mode ([`Simulator::with_switched`]): hosts behind top-of-rack
//!   switches, finite-bandwidth links with drop-tail queues, and per-flow
//!   go-back-n retransmission, so parameter-server incast *emerges* from
//!   contention instead of being scripted. See `DESIGN.md` §10.
//!
//! Time is a `u64` nanosecond counter ([`SimTime`]); all delay arithmetic is
//! done in `f64` seconds then quantised, keeping the event order total and
//! reproducible.
//!
//! # Example: two pinging nodes
//!
//! ```
//! use simnet::{Context, DelayModel, NodeId, SimNode, Simulator};
//!
//! struct Echo;
//! impl SimNode<u32> for Echo {
//!     fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
//!         if ctx.me() == NodeId(0) {
//!             ctx.send(NodeId(1), 42, 4);
//!         }
//!     }
//!     fn on_message(&mut self, from: NodeId, msg: u32, ctx: &mut Context<'_, u32>) {
//!         if msg < 45 {
//!             ctx.send(from, msg + 1, 4);
//!         }
//!     }
//! }
//!
//! let mut sim = Simulator::new(7, DelayModel::Fixed { seconds: 0.001 });
//! sim.add_node(Box::new(Echo));
//! sim.add_node(Box::new(Echo));
//! let events = sim.run();
//! assert_eq!(events, 4); // 42, 43, 44, 45
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

mod delay;
mod fault;
mod sim;
mod stats;
mod time;
mod topo;

pub use delay::DelayModel;
pub use fault::{FaultEffect, FaultPlan, FaultRule, FaultVerdict, LinkScope};
pub use sim::{Context, NodeId, SimNode, Simulator};
pub use stats::{DeliveryRecord, TrafficStats};
pub use time::SimTime;
pub use topo::{NetworkModel, Route, SwitchedConfig, Topology};
