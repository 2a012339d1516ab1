//! Scripted network-fault injection: crashes, delay spikes, stragglers.
//!
//! A [`FaultPlan`] models the *environment* misbehaving — nodes that crash
//! and recover, congestion windows, straggling senders — and, with the
//! same `Delay` effect on a `From` / `To` scope, the paper's adversary
//! *slowing* honest traffic ("congest some parts of the network for some
//! short periods of time", §2). Because GuanYu only ever waits for
//! quorums, such scheduling degrades throughput but not safety. The plan
//! decides whether a message survives at all and how much delay it picks
//! up on top of the physical [`crate::DelayModel`].
//!
//! Every rule is a time window over a [`LinkScope`]; rule evaluation is a
//! pure function of `(send time, from, to)` that draws no simulator
//! randomness, so a seeded simulation with a fault plan replays
//! bit-identically — the property the scenario trace checker (`scenario`
//! crate) is built on.

use serde::{Deserialize, Serialize};

use crate::sim::NodeId;
use crate::time::SimTime;

/// Which messages a [`FaultRule`] applies to.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum LinkScope {
    /// Every message.
    All,
    /// Messages sent by this node.
    From(NodeId),
    /// Messages addressed to this node.
    To(NodeId),
    /// Messages with this node at either endpoint — the scope of a node
    /// crash (nothing in, nothing out).
    Node(NodeId),
}

impl LinkScope {
    /// Whether a `from → to` message falls inside this scope.
    pub fn matches(&self, from: NodeId, to: NodeId) -> bool {
        match self {
            LinkScope::All => true,
            LinkScope::From(n) => from == *n,
            LinkScope::To(n) => to == *n,
            LinkScope::Node(n) => from == *n || to == *n,
        }
    }
}

/// What happens to a matched message.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FaultEffect {
    /// The message is lost (a crashed endpoint).
    Drop,
    /// The transit time is stretched: `delay * factor + extra_secs`. With a
    /// large `extra_secs` on a subset of links this also *reorders*
    /// deliveries relative to the no-fault run.
    Delay {
        /// Multiplier on the physical delay (≥ 1 slows down).
        factor: f64,
        /// Additional constant delay in seconds.
        extra_secs: f64,
    },
}

/// One time-windowed fault.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultRule {
    /// Which messages are affected.
    pub scope: LinkScope,
    /// Window start (inclusive), evaluated at the message's send time.
    pub start: SimTime,
    /// Window end (exclusive); `SimTime(u64::MAX)` = never heals.
    pub end: SimTime,
    /// Effect on matched messages.
    pub effect: FaultEffect,
}

/// The verdict a [`FaultPlan`] renders over one message.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultVerdict {
    /// Deliver after `extra_delay_secs` of additional environmental delay
    /// (0.0 when no delay rule matched).
    Deliver {
        /// Seconds added on top of the physical delay.
        extra_delay_secs: f64,
    },
    /// The message is lost.
    Drop,
}

/// A declarative, replayable schedule of network faults.
///
/// Built once before the run (typically compiled from a `scenario`
/// description) and installed with `Simulator::with_faults`.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// A plan with no faults.
    pub fn none() -> Self {
        Self::default()
    }

    /// Adds a rule (builder style).
    #[must_use]
    pub fn with_rule(mut self, rule: FaultRule) -> Self {
        self.rules.push(rule);
        self
    }

    /// Convenience: crashes `node` during `[start, end)` — all its traffic
    /// (both directions) is lost; after `end` the node is reachable again
    /// (crash-recovery with frozen state).
    #[must_use]
    pub fn crash(self, node: NodeId, start: SimTime, end: SimTime) -> Self {
        self.with_rule(FaultRule {
            scope: LinkScope::Node(node),
            start,
            end,
            effect: FaultEffect::Drop,
        })
    }

    /// Convenience: a network-wide delay spike during `[start, end)`.
    #[must_use]
    pub fn delay_spike(self, factor: f64, extra_secs: f64, start: SimTime, end: SimTime) -> Self {
        self.with_rule(FaultRule {
            scope: LinkScope::All,
            start,
            end,
            effect: FaultEffect::Delay { factor, extra_secs },
        })
    }

    /// Convenience: `node`'s outgoing messages pick up `extra_secs` during
    /// `[start, end)` — a straggler burst.
    #[must_use]
    pub fn straggler(self, node: NodeId, extra_secs: f64, start: SimTime, end: SimTime) -> Self {
        self.with_rule(FaultRule {
            scope: LinkScope::From(node),
            start,
            end,
            effect: FaultEffect::Delay {
                factor: 1.0,
                extra_secs,
            },
        })
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Whether the plan has no rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Judges one message. `sent` is the time the message enters the
    /// network. Matching delay rules compose as
    /// `delay · Πfactorᵢ + Σextraᵢ` — independent of rule order, matching
    /// `guanyu::faults::FaultSchedule::delay_stretch` so the same
    /// declarative schedule means the same physics on both engines. Any
    /// matching `Drop` rule loses the message.
    pub fn judge(&self, sent: SimTime, from: NodeId, to: NodeId, delay: f64) -> FaultVerdict {
        let mut factor = 1.0;
        let mut extra = 0.0;
        for rule in &self.rules {
            if sent < rule.start || sent >= rule.end || !rule.scope.matches(from, to) {
                continue;
            }
            match rule.effect {
                FaultEffect::Drop => return FaultVerdict::Drop,
                FaultEffect::Delay {
                    factor: f,
                    extra_secs: e,
                } => {
                    factor *= f;
                    extra += e;
                }
            }
        }
        FaultVerdict::Deliver {
            extra_delay_secs: delay * factor + extra - delay,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T0: SimTime = SimTime(0);
    const T1: SimTime = SimTime(1_000_000_000);
    const T2: SimTime = SimTime(2_000_000_000);

    #[test]
    fn empty_plan_delivers_everything() {
        let plan = FaultPlan::none();
        assert!(plan.is_empty());
        assert_eq!(
            plan.judge(T0, NodeId(0), NodeId(1), 0.1),
            FaultVerdict::Deliver {
                extra_delay_secs: 0.0
            }
        );
    }

    #[test]
    fn crash_silences_both_directions_until_recovery() {
        let plan = FaultPlan::none().crash(NodeId(1), T0, T1);
        assert_eq!(
            plan.judge(T0, NodeId(1), NodeId(0), 0.1),
            FaultVerdict::Drop
        );
        assert_eq!(
            plan.judge(T0, NodeId(0), NodeId(1), 0.1),
            FaultVerdict::Drop
        );
        assert!(matches!(
            plan.judge(T0, NodeId(0), NodeId(2), 0.1),
            FaultVerdict::Deliver { .. }
        ));
        assert!(matches!(
            plan.judge(T1, NodeId(0), NodeId(1), 0.1),
            FaultVerdict::Deliver { .. }
        ));
    }

    #[test]
    fn delay_spike_stretches_and_composes() {
        let plan =
            FaultPlan::none()
                .delay_spike(10.0, 0.5, T0, T1)
                .straggler(NodeId(0), 1.0, T0, T2);
        match plan.judge(T0, NodeId(0), NodeId(1), 0.1) {
            FaultVerdict::Deliver { extra_delay_secs } => {
                // factors multiply, extras add: 0.1·10 + (0.5 + 1.0) = 2.5
                // total → 2.4 extra
                assert!((extra_delay_secs - 2.4).abs() < 1e-12);
            }
            FaultVerdict::Drop => panic!("delay rules must not drop"),
        }
        // Rule order must not matter (the same declarative schedule means
        // the same physics regardless of window listing order).
        let swapped = FaultPlan::none()
            .straggler(NodeId(0), 1.0, T0, T2)
            .delay_spike(10.0, 0.5, T0, T1);
        assert_eq!(
            plan.judge(T0, NodeId(0), NodeId(1), 0.1),
            swapped.judge(T0, NodeId(0), NodeId(1), 0.1)
        );
        // outside the spike window only the straggler applies
        match plan.judge(T1, NodeId(0), NodeId(1), 0.1) {
            FaultVerdict::Deliver { extra_delay_secs } => {
                assert!((extra_delay_secs - 1.0).abs() < 1e-12);
            }
            FaultVerdict::Drop => panic!(),
        }
    }

    #[test]
    fn serde_roundtrip() {
        let plan = FaultPlan::none()
            .crash(NodeId(0), T0, T1)
            .delay_spike(2.0, 0.1, T1, T2);
        let json = serde_json::to_string(&plan).unwrap();
        let back: FaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(back, plan);
    }
}
