//! Scripted network-fault injection: partitions, crashes, drops, spikes.
//!
//! A [`FaultPlan`] models the *environment* misbehaving — links that
//! sever, nodes that crash and recover, lossy paths and congestion windows
//! — and, with the same `Delay` effect on a `From` / `To` scope, the
//! paper's adversary *slowing* honest traffic ("congest some parts of the
//! network for some short periods of time", §2). Because GuanYu only ever
//! waits for quorums, such scheduling degrades throughput but not safety.
//! The plan decides whether a message survives at all and how much delay
//! it picks up on top of the physical [`crate::DelayModel`].
//!
//! Every rule is a time window over a [`LinkScope`]; rule evaluation is a
//! pure function of `(send time, from, to, sequence number)`, so a seeded
//! simulation with a fault plan replays bit-identically — the property the
//! scenario trace checker (`scenario` crate) is built on. Probabilistic
//! drops hash the message sequence number instead of consuming simulator
//! RNG draws, which keeps the physical-delay stream identical with and
//! without the plan.

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
    /// Messages from `from` to `to` (one directed link).
    Link {
        /// Sender side of the link.
        from: NodeId,
        /// Receiver side of the link.
        to: NodeId,
    },
    /// Messages crossing between two different groups. Nodes absent from
    /// every group are unrestricted (they see all sides — e.g. workers
    /// during a server-only partition).
    CrossGroup(Vec<Vec<NodeId>>),
}

impl LinkScope {
    /// Whether a `from → to` message falls inside this scope.
    pub fn matches(&self, from: NodeId, to: NodeId) -> bool {
        match self {
            LinkScope::All => true,
            LinkScope::From(n) => from == *n,
            LinkScope::To(n) => to == *n,
            LinkScope::Node(n) => from == *n || to == *n,
            LinkScope::Link { from: f, to: t } => from == *f && to == *t,
            LinkScope::CrossGroup(groups) => {
                let group_of = |node: NodeId| groups.iter().position(|g| g.contains(&node));
                match (group_of(from), group_of(to)) {
                    (Some(a), Some(b)) => a != b,
                    _ => false,
                }
            }
        }
    }
}

/// What happens to a matched message.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FaultEffect {
    /// The message is lost (a severed link / crashed endpoint).
    Drop,
    /// The message is lost with probability `p` (lossy path). Decided by a
    /// deterministic hash of the message's sequence number, so replays are
    /// exact and the physical-delay RNG stream is untouched.
    DropProb {
        /// Loss probability in `[0, 1]`.
        p: f64,
    },
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

    /// Convenience: partitions the listed groups from each other during
    /// `[start, end)`; cross-group messages are dropped. Unlisted nodes
    /// keep full connectivity.
    #[must_use]
    pub fn partition(self, groups: Vec<Vec<NodeId>>, start: SimTime, end: SimTime) -> Self {
        self.with_rule(FaultRule {
            scope: LinkScope::CrossGroup(groups),
            start,
            end,
            effect: FaultEffect::Drop,
        })
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
    /// network, `seq` its global sequence number (feeds the deterministic
    /// probabilistic-drop hash). Matching delay rules compose as
    /// `delay · Πfactorᵢ + Σextraᵢ` — independent of rule order, matching
    /// `guanyu::faults::FaultSchedule::delay_stretch` so the same
    /// declarative schedule means the same physics on both engines. Any
    /// matching `Drop` rule loses the message; each `DropProb` rule rolls
    /// its own hash (keyed on rule index as well as `seq`), so
    /// overlapping lossy links compound independently.
    pub fn judge(
        &self,
        sent: SimTime,
        from: NodeId,
        to: NodeId,
        seq: u64,
        delay: f64,
    ) -> FaultVerdict {
        let mut factor = 1.0;
        let mut extra = 0.0;
        for (i, rule) in self.rules.iter().enumerate() {
            if sent < rule.start || sent >= rule.end || !rule.scope.matches(from, to) {
                continue;
            }
            match rule.effect {
                FaultEffect::Drop => return FaultVerdict::Drop,
                FaultEffect::DropProb { p } => {
                    if unit_hash(seq, i as u64) < p {
                        return FaultVerdict::Drop;
                    }
                }
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

/// Deterministic hash of `(seq, salt)` into `[0, 1)` (splitmix64
/// finaliser). The salt (rule index) decorrelates overlapping
/// probabilistic-drop rules.
fn unit_hash(seq: u64, salt: u64) -> f64 {
    let mut z = seq
        .wrapping_add(salt.wrapping_mul(0xD1B5_4A32_D192_ED03))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
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
            plan.judge(T0, NodeId(0), NodeId(1), 7, 0.1),
            FaultVerdict::Deliver {
                extra_delay_secs: 0.0
            }
        );
    }

    #[test]
    fn partition_drops_cross_group_only() {
        let plan =
            FaultPlan::none().partition(vec![vec![NodeId(0), NodeId(1)], vec![NodeId(2)]], T0, T1);
        // cross-group: dropped
        assert_eq!(
            plan.judge(T0, NodeId(0), NodeId(2), 0, 0.1),
            FaultVerdict::Drop
        );
        assert_eq!(
            plan.judge(T0, NodeId(2), NodeId(1), 0, 0.1),
            FaultVerdict::Drop
        );
        // within a group: fine
        assert!(matches!(
            plan.judge(T0, NodeId(0), NodeId(1), 0, 0.1),
            FaultVerdict::Deliver { .. }
        ));
        // unlisted node (3): unrestricted in both directions
        assert!(matches!(
            plan.judge(T0, NodeId(3), NodeId(0), 0, 0.1),
            FaultVerdict::Deliver { .. }
        ));
        // after heal: delivered
        assert!(matches!(
            plan.judge(T1, NodeId(0), NodeId(2), 0, 0.1),
            FaultVerdict::Deliver { .. }
        ));
    }

    #[test]
    fn crash_silences_both_directions_until_recovery() {
        let plan = FaultPlan::none().crash(NodeId(1), T0, T1);
        assert_eq!(
            plan.judge(T0, NodeId(1), NodeId(0), 0, 0.1),
            FaultVerdict::Drop
        );
        assert_eq!(
            plan.judge(T0, NodeId(0), NodeId(1), 0, 0.1),
            FaultVerdict::Drop
        );
        assert!(matches!(
            plan.judge(T0, NodeId(0), NodeId(2), 0, 0.1),
            FaultVerdict::Deliver { .. }
        ));
        assert!(matches!(
            plan.judge(T1, NodeId(0), NodeId(1), 0, 0.1),
            FaultVerdict::Deliver { .. }
        ));
    }

    #[test]
    fn delay_spike_stretches_and_composes() {
        let plan =
            FaultPlan::none()
                .delay_spike(10.0, 0.5, T0, T1)
                .straggler(NodeId(0), 1.0, T0, T2);
        match plan.judge(T0, NodeId(0), NodeId(1), 0, 0.1) {
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
            plan.judge(T0, NodeId(0), NodeId(1), 0, 0.1),
            swapped.judge(T0, NodeId(0), NodeId(1), 0, 0.1)
        );
        // outside the spike window only the straggler applies
        match plan.judge(T1, NodeId(0), NodeId(1), 0, 0.1) {
            FaultVerdict::Deliver { extra_delay_secs } => {
                assert!((extra_delay_secs - 1.0).abs() < 1e-12);
            }
            FaultVerdict::Drop => panic!(),
        }
    }

    #[test]
    fn probabilistic_drop_is_deterministic_and_calibrated() {
        let plan = FaultPlan::none().with_rule(FaultRule {
            scope: LinkScope::All,
            start: T0,
            end: SimTime(u64::MAX),
            effect: FaultEffect::DropProb { p: 0.3 },
        });
        let dropped: Vec<bool> = (0..10_000)
            .map(|seq| plan.judge(T0, NodeId(0), NodeId(1), seq, 0.1) == FaultVerdict::Drop)
            .collect();
        let again: Vec<bool> = (0..10_000)
            .map(|seq| plan.judge(T0, NodeId(0), NodeId(1), seq, 0.1) == FaultVerdict::Drop)
            .collect();
        assert_eq!(dropped, again, "drop decisions must replay exactly");
        let rate = dropped.iter().filter(|&&d| d).count() as f64 / dropped.len() as f64;
        assert!((rate - 0.3).abs() < 0.02, "drop rate {rate}");
    }

    #[test]
    fn overlapping_probabilistic_drops_compound_independently() {
        // Two p = 0.3 lossy rules on the same link must combine to
        // 1 − 0.7² = 0.51, not stay at 0.3 (each rule rolls its own hash).
        let rule = |_: usize| FaultRule {
            scope: LinkScope::All,
            start: T0,
            end: SimTime(u64::MAX),
            effect: FaultEffect::DropProb { p: 0.3 },
        };
        let plan = FaultPlan::none().with_rule(rule(0)).with_rule(rule(1));
        let n = 20_000;
        let dropped = (0..n)
            .filter(|&seq| plan.judge(T0, NodeId(0), NodeId(1), seq, 0.1) == FaultVerdict::Drop)
            .count();
        let rate = dropped as f64 / n as f64;
        assert!((rate - 0.51).abs() < 0.02, "compound drop rate {rate}");
    }

    #[test]
    fn link_scope_is_directed() {
        let scope = LinkScope::Link {
            from: NodeId(0),
            to: NodeId(1),
        };
        assert!(scope.matches(NodeId(0), NodeId(1)));
        assert!(!scope.matches(NodeId(1), NodeId(0)));
    }

    #[test]
    fn serde_roundtrip() {
        let plan = FaultPlan::none()
            .partition(vec![vec![NodeId(0)], vec![NodeId(1)]], T0, T1)
            .delay_spike(2.0, 0.1, T1, T2);
        let json = serde_json::to_string(&plan).unwrap();
        let back: FaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(back, plan);
    }
}
