//! The sans-I/O ByzSGD node state machine shared by every engine.
//!
//! The protocol roles (honest server, honest worker, Byzantine server,
//! Byzantine worker) are implemented **once** here as pure state machines:
//! feed them typed inbound [`NodeMsg`]s and they return [`Output`]s —
//! outbound messages, gradient requests, per-step trace records and
//! lifecycle effects (recovery fast-forward). The lockstep engine, the
//! simnet event engine and the Transport-backed threaded runtime are thin
//! drivers over these machines: they own the I/O, the clock and the
//! gradient computation, never the protocol.
//!
//! # Quorum modes
//!
//! * [`QuorumMode::Arrival`] — quorum membership is the first `q` arrivals
//!   (folded in canonical sender-sorted order). This is the historical
//!   behaviour of the event and threaded engines; membership depends on
//!   message timing, so bit-identity across engines holds only at full
//!   quorums.
//! * [`QuorumMode::Planned`] — quorum membership is a pure function of the
//!   [`FaultSchedule`] and the step number, derived once by a forward
//!   [`planner`](MachineSpec). Every engine that drives the machines in
//!   this mode produces bit-identical traces regardless of message timing,
//!   which is what the cross-engine scenario matrix asserts.
//!
//! In planned mode a node that is scheduled *down* for a window of steps
//! discards every inbound message whose carried step falls inside the
//! window — arrival-time independent crash semantics. A crashed server
//! rejoins by *adopting* the first quorate exchange set at a step where the
//! planner marks it recovered, then participates normally from the next
//! step (the `active(s, t) = up(s, t) ∧ completed(s, t−1)` rule below).

use std::collections::HashMap;
use std::sync::Arc;

use aggregation::{CoordinateWiseMedian, Gar, GarKind};
use byzantine::{Attack, AttackKind, AttackView};
use nn::LrSchedule;
use tensor::Tensor;

use crate::config::ClusterConfig;
use crate::faults::{windows_allow, FaultSchedule};
use crate::trace::{positional_digest, DigestHasher, RoundDigest, Trace};
use crate::{GuanYuError, Result};

/// How quorum membership is decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuorumMode {
    /// First-`q` arrivals, folded sender-sorted (engine-timing dependent).
    Arrival,
    /// Membership derived from the fault schedule (timing independent).
    Planned,
}

/// A typed protocol message between nodes — what the machines exchange
/// and, unchanged, what the runtime's wire codec encodes and decodes.
#[derive(Debug, Clone, PartialEq)]
pub enum NodeMsg {
    /// Phase 1: a server's model broadcast to the workers.
    Model {
        /// Step the model belongs to.
        step: u64,
        /// The parameter vector.
        params: Tensor,
    },
    /// Phase 2: a worker's gradient to the servers (also used as the
    /// omniscience "tap" honest workers send to Byzantine workers).
    Gradient {
        /// Step the gradient was computed at.
        step: u64,
        /// The gradient vector.
        grad: Tensor,
    },
    /// Phase 3: a server's updated model to its peer servers.
    Exchange {
        /// Step the exchanged model belongs to.
        step: u64,
        /// The updated parameter vector.
        params: Tensor,
    },
}

impl NodeMsg {
    /// The step number carried by the message.
    pub fn step(&self) -> u64 {
        match self {
            NodeMsg::Model { step, .. }
            | NodeMsg::Gradient { step, .. }
            | NodeMsg::Exchange { step, .. } => *step,
        }
    }

    /// The carried vector.
    pub fn vector(&self) -> &Tensor {
        match self {
            NodeMsg::Model { params, .. } | NodeMsg::Exchange { params, .. } => params,
            NodeMsg::Gradient { grad, .. } => grad,
        }
    }

    /// The payload vector length.
    pub fn len(&self) -> usize {
        self.vector().len()
    }

    /// Whether the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A copy of the message carrying only coordinates `range` of its
    /// vector — the *materialising* fallback behind the runtime's
    /// `Transport::broadcast_range` (the concrete transports encode the
    /// range straight off the original buffer instead).
    ///
    /// # Panics
    ///
    /// Panics when `range` does not fit the carried vector.
    pub fn slice(&self, range: std::ops::Range<usize>) -> NodeMsg {
        let t = Tensor::from_flat(self.vector().as_slice()[range].to_vec());
        match self {
            NodeMsg::Model { step, .. } => NodeMsg::Model {
                step: *step,
                params: t,
            },
            NodeMsg::Gradient { step, .. } => NodeMsg::Gradient {
                step: *step,
                grad: t,
            },
            NodeMsg::Exchange { step, .. } => NodeMsg::Exchange {
                step: *step,
                params: t,
            },
        }
    }
}

/// One completed server step, the unit every engine's trace is built from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StepRecord {
    /// Logical server (replica) id.
    pub server: usize,
    /// The completed step.
    pub step: u64,
    /// Positional digest of the server's parameter slice after the step.
    pub param_hash: u64,
    /// Sorted sender ids folded in the gradient phase (empty if skipped).
    pub grad_quorum: Vec<usize>,
    /// Sorted sender ids folded in the exchange phase — includes the
    /// server itself; for a recovery step these are the adopted senders.
    pub exch_quorum: Vec<usize>,
}

/// An effect emitted by a machine for its driver to act on.
#[derive(Debug, Clone)]
pub enum Output {
    /// Deliver `msg` to logical node `to` (the driver assigns timing).
    Send {
        /// Logical destination node id.
        to: usize,
        /// The message.
        msg: NodeMsg,
    },
    /// The worker machine folded a model view and needs the driver to run
    /// forward/backward; answer with [`WorkerMachine::gradient_ready`].
    NeedGradient {
        /// Step the gradient is for.
        step: u64,
        /// The folded model to compute at.
        model: Tensor,
    },
    /// A server completed a step (trace record).
    Step(StepRecord),
    /// A crashed server fast-forwarded by adopting a quorate exchange.
    Recovered {
        /// The step it was frozen at.
        from: u64,
        /// The step it adopted.
        to: u64,
    },
}

/// Folds per-server [`StepRecord`]s into the canonical cross-engine
/// [`Trace`]: one [`RoundDigest`] per step, servers ascending, with shard
/// groups of the same logical replica XOR-combined (positional digests
/// compose across disjoint coordinate ranges) and identical per-group
/// quorum lists collapsed.
pub fn assemble_trace(records: &[StepRecord]) -> Trace {
    let mut sorted: Vec<&StepRecord> = records.iter().collect();
    sorted.sort_by_key(|r| (r.step, r.server));
    let mut trace = Trace::new();
    let mut i = 0;
    while i < sorted.len() {
        let step = sorted[i].step;
        let mut mh = DigestHasher::new();
        let mut qh = DigestHasher::new();
        let mut messages = 0u64;
        while i < sorted.len() && sorted[i].step == step {
            let server = sorted[i].server;
            let mut param = 0u64;
            let mut quorums: Vec<(&Vec<usize>, &Vec<usize>)> = Vec::new();
            while i < sorted.len() && sorted[i].step == step && sorted[i].server == server {
                let r = sorted[i];
                param ^= r.param_hash;
                let pair = (&r.grad_quorum, &r.exch_quorum);
                if !quorums.contains(&pair) {
                    quorums.push(pair);
                }
                i += 1;
            }
            mh.write_u64(server as u64);
            mh.write_u64(param);
            qh.write_u64(server as u64);
            for (g, e) in quorums {
                qh.write_indices(g);
                qh.write_indices(e);
                messages += (g.len() + e.len()) as u64;
            }
        }
        trace.push(RoundDigest {
            step,
            model_hash: mh.finish(),
            quorum_hash: qh.finish(),
            messages,
        });
    }
    trace
}

/// Seed for the Byzantine worker at `worker_index` (index inside the
/// worker range, `0..workers`). Shared by every engine so stochastic
/// attacks forge identical vectors everywhere.
pub fn worker_attack_seed(seed: u64, worker_index: usize) -> u64 {
    seed ^ 0xEB1 ^ ((worker_index as u64) << 8)
}

/// Seed for the Byzantine server with logical id `server_id`.
pub fn server_attack_seed(seed: u64, server_id: usize) -> u64 {
    seed ^ 0x5E6 ^ ((server_id as u64) << 8)
}

/// The robust-fold safety test the lockstep engine has always applied: a
/// fold is *unsafe* when the forged inputs are at least half of the fold
/// (the median/GAR guarantee needs a strict honest majority), or when
/// there is no honest input at all.
pub fn fold_unsafe(honest: usize, forged: usize) -> bool {
    honest == 0 || forged * 2 >= honest + forged
}

/// Everything a machine needs to know about the deployment. One value is
/// built per run and shared (via [`MachineSpec`]) by every machine.
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// Cluster shape and quorum sizes.
    pub cluster: ClusterConfig,
    /// Number of protocol steps to run.
    pub max_steps: u64,
    /// Learning-rate schedule for the server update.
    pub lr: LrSchedule,
    /// Gradient aggregation rule for the server fold.
    pub server_gar: GarKind,
    /// Base seed (attack RNG derivation).
    pub seed: u64,
    /// How many of the declared Byzantine workers actually attack.
    pub actual_byz_workers: usize,
    /// The worker-side attack, if any.
    pub worker_attack: Option<AttackKind>,
    /// How many of the declared Byzantine servers actually attack.
    pub actual_byz_servers: usize,
    /// The server-side attack, if any.
    pub server_attack: Option<AttackKind>,
    /// Steps during which the worker attack is live (empty = always).
    pub worker_attack_windows: Vec<(u64, u64)>,
    /// Steps during which the server attack is live (empty = always).
    pub server_attack_windows: Vec<(u64, u64)>,
    /// Whether servers run the phase-3 contraction exchange.
    pub exchange_enabled: bool,
    /// Whether workers fold their model view with the median (`false` =
    /// take the lowest-id model, the vanilla baseline).
    pub robust_worker_fold: bool,
    /// Whether crashed servers may fast-forward by adopting a newer
    /// quorate exchange set (always honoured in planned mode).
    pub recovery: bool,
    /// How quorum membership is decided.
    pub mode: QuorumMode,
    /// The fault schedule (drives membership in planned mode only).
    pub faults: FaultSchedule,
}

impl MachineConfig {
    /// Arrival-mode GuanYu (exchange on, robust worker fold) with no
    /// adversary, no faults and seed 0 — the base every engine's config
    /// projection fills in.
    pub fn honest(cluster: ClusterConfig, max_steps: u64, lr: LrSchedule, gar: GarKind) -> Self {
        MachineConfig {
            cluster,
            max_steps,
            lr,
            server_gar: gar,
            seed: 0,
            actual_byz_workers: 0,
            worker_attack: None,
            actual_byz_servers: 0,
            server_attack: None,
            worker_attack_windows: Vec::new(),
            server_attack_windows: Vec::new(),
            exchange_enabled: true,
            robust_worker_fold: true,
            recovery: false,
            mode: QuorumMode::Arrival,
            faults: FaultSchedule::default(),
        }
    }

    /// Number of honest servers (ids `0..honest_servers()`).
    pub fn honest_servers(&self) -> usize {
        self.cluster.servers - self.actual_byz_servers
    }

    /// Number of honest workers.
    pub fn honest_workers(&self) -> usize {
        self.cluster.workers - self.actual_byz_workers
    }

    /// Logical ids of the Byzantine servers (the tail of the server range).
    pub fn byz_server_ids(&self) -> std::ops::Range<usize> {
        self.honest_servers()..self.cluster.servers
    }

    /// Logical ids of the Byzantine workers (the tail of the worker range).
    pub fn byz_worker_ids(&self) -> std::ops::Range<usize> {
        self.cluster.servers + self.honest_workers()..self.cluster.servers + self.cluster.workers
    }

    /// Whether the phase-3 exchange plane exists at all.
    pub fn exchange_plane(&self) -> bool {
        self.exchange_enabled && self.cluster.servers > 1
    }

    fn planned(&self) -> bool {
        self.mode == QuorumMode::Planned
    }

    /// Whether honest server `s` is scheduled up at `step`.
    pub fn server_up(&self, step: u64, s: usize) -> bool {
        !(self.planned() && self.faults.server_down(step, s))
    }

    /// Whether honest worker with logical id `w` is scheduled up at `step`.
    pub fn worker_up(&self, step: u64, w: usize) -> bool {
        !(self.planned() && self.faults.worker_down(step, w - self.cluster.servers))
    }

    /// Validates the deployment (cluster bounds, actual-vs-declared
    /// Byzantine counts, attack presence).
    pub fn validate(&self) -> Result<()> {
        if self.cluster.servers > 1 {
            self.cluster.validate()?;
        }
        if self.actual_byz_workers > self.cluster.byz_workers
            || self.actual_byz_servers > self.cluster.byz_servers
        {
            return Err(GuanYuError::InvalidConfig(
                "actual Byzantine counts exceed the declared f / f̄".into(),
            ));
        }
        if self.actual_byz_workers > 0 && self.worker_attack.is_none() {
            return Err(GuanYuError::InvalidConfig(
                "Byzantine workers require a worker attack".into(),
            ));
        }
        if self.actual_byz_servers > 0 && self.server_attack.is_none() {
            return Err(GuanYuError::InvalidConfig(
                "Byzantine servers require a server attack".into(),
            ));
        }
        Ok(())
    }
}

/// Per-step membership tables derived once from the fault schedule —
/// the planner behind [`QuorumMode::Planned`]. Empty in arrival mode.
#[derive(Debug, Clone, Default)]
struct Plan {
    /// `completed[t][s]`: honest server `s` finished step `t` (either by
    /// running it as an active participant or by adopting it).
    completed: Vec<Vec<bool>>,
    /// `active[t][s]`: `s` runs step `t` in full (fold, update, exchange).
    active: Vec<Vec<bool>>,
    /// Fold members of the worker's phase-1 model view at `t` (sorted).
    model_plan: Vec<Vec<usize>>,
    /// Whether that view is fold-safe (attacker minority).
    model_safe: Vec<bool>,
    /// Honest workers (logical ids) computing a gradient at `t`.
    computing: Vec<Vec<usize>>,
    /// Whether the Byzantine workers forge at `t`.
    worker_forging: Vec<bool>,
    /// Whether the Byzantine servers forge round `t`.
    server_forging: Vec<bool>,
    /// Whether the server's phase-2 gradient fold at `t` is fold-safe
    /// (membership is per-server — see [`MachineSpec::grad_plan`] — but
    /// the forged/honest counts, and hence safety, are not).
    grad_safe: Vec<bool>,
}

/// Shared, immutable run context: the config plus the planned-mode
/// membership tables. Build once, share between machines with [`Arc`].
#[derive(Debug)]
pub struct MachineSpec {
    /// The deployment configuration.
    pub cfg: MachineConfig,
    plan: Plan,
}

impl MachineSpec {
    /// Validates `cfg` and precomputes the planned-mode membership tables.
    pub fn new(cfg: MachineConfig) -> Result<Arc<Self>> {
        cfg.validate()?;
        let plan = if cfg.planned() {
            Self::build_plan(&cfg)
        } else {
            Plan::default()
        };
        Ok(Arc::new(MachineSpec { cfg, plan }))
    }

    fn build_plan(cfg: &MachineConfig) -> Plan {
        let steps = cfg.max_steps as usize;
        let ns = cfg.honest_servers();
        let q = cfg.cluster.server_quorum;
        let qbar = cfg.cluster.worker_quorum;
        let mut plan = Plan::default();
        for t in 0..steps as u64 {
            let ti = t as usize;
            let up: Vec<bool> = (0..ns).map(|s| cfg.server_up(t, s)).collect();
            let active: Vec<bool> = (0..ns)
                .map(|s| up[s] && (t == 0 || plan.completed[ti - 1][s]))
                .collect();
            // Byzantine servers advance their forge round on a static
            // cascade, gated only by the attack windows and max_steps.
            let server_forging = cfg.actual_byz_servers > 0
                && !matches!(cfg.server_attack, Some(AttackKind::Mute) | None)
                && windows_allow(&cfg.server_attack_windows, t);
            // Phase 1: the step-t model is broadcast by every honest server
            // that completed t−1 (it sends before any step-t crash lands),
            // plus the forging Byzantine servers.
            let honest_bcast: Vec<usize> = (0..ns)
                .filter(|&s| {
                    if t == 0 {
                        up[s]
                    } else {
                        plan.completed[ti - 1][s]
                    }
                })
                .collect();
            let mut model_plan: Vec<usize> = Vec::new();
            if server_forging {
                model_plan.extend(cfg.byz_server_ids());
            }
            for &s in &honest_bcast {
                if model_plan.len() >= q {
                    break;
                }
                model_plan.push(s);
            }
            let forged = model_plan.iter().filter(|&&m| m >= ns).count();
            let model_safe =
                !model_plan.is_empty() && !fold_unsafe(model_plan.len() - forged, forged);
            model_plan.sort_unstable();
            // Phase 2: every up worker with a safe model view computes.
            let computing: Vec<usize> = if model_safe {
                (cfg.cluster.servers..cfg.cluster.servers + cfg.honest_workers())
                    .filter(|&w| cfg.worker_up(t, w))
                    .collect()
            } else {
                Vec::new()
            };
            let worker_forging = cfg.actual_byz_workers > 0
                && !matches!(cfg.worker_attack, Some(AttackKind::Mute) | None)
                && windows_allow(&cfg.worker_attack_windows, t)
                && !computing.is_empty();
            // Forged gradients land first (the omniscient attacker pays no
            // compute), then honest computers fill the quorum. Membership
            // rotates per server (see `grad_plan`), but the forged/honest
            // counts — and hence fold safety — are membership-independent.
            let gforged = if worker_forging {
                cfg.byz_worker_ids().len()
            } else {
                0
            };
            let ghonest = computing.len().min(qbar.saturating_sub(gforged));
            let grad_safe = gforged + ghonest > 0 && !fold_unsafe(ghonest, gforged);
            plan.active.push(active);
            plan.model_plan.push(model_plan);
            plan.model_safe.push(model_safe);
            plan.computing.push(computing);
            plan.worker_forging.push(worker_forging);
            plan.server_forging.push(server_forging);
            plan.grad_safe.push(grad_safe);
            // Completion: active servers always finish the step (degraded
            // folds are skipped, never stalled); an up-but-inactive server
            // finishes by adopting iff a safe strict-q exchange set exists.
            let completed: Vec<bool> = (0..ns)
                .map(|s| {
                    if plan.active[ti][s] {
                        true
                    } else {
                        up[s] && self_can_adopt(cfg, &plan, t, s)
                    }
                })
                .collect();
            plan.completed.push(completed);
        }
        plan
    }

    fn step_in_plan(&self, t: u64) -> bool {
        (t as usize) < self.plan.completed.len()
    }

    /// Whether honest server `s` fully participates in step `t`.
    pub fn active(&self, t: u64, s: usize) -> bool {
        self.step_in_plan(t) && self.plan.active[t as usize][s]
    }

    /// Whether honest server `s` finishes step `t` (actively or by
    /// adoption).
    pub fn completed(&self, t: u64, s: usize) -> bool {
        self.step_in_plan(t) && self.plan.completed[t as usize][s]
    }

    /// Whether a frozen server `s` adopts (fast-forwards to) step `t`.
    pub fn adoptable(&self, t: u64, s: usize) -> bool {
        self.completed(t, s) && !self.active(t, s)
    }

    /// Sorted fold members of the worker model view at `t`.
    pub fn model_plan(&self, t: u64) -> &[usize] {
        if self.step_in_plan(t) {
            &self.plan.model_plan[t as usize]
        } else {
            &[]
        }
    }

    /// Whether the worker model view at `t` is fold-safe.
    pub fn model_safe(&self, t: u64) -> bool {
        self.step_in_plan(t) && self.plan.model_safe[t as usize]
    }

    /// Honest workers (logical ids) computing a gradient at `t`.
    pub fn computing(&self, t: u64) -> &[usize] {
        if self.step_in_plan(t) {
            &self.plan.computing[t as usize]
        } else {
            &[]
        }
    }

    /// Whether the Byzantine workers forge gradients at `t`.
    pub fn worker_forging(&self, t: u64) -> bool {
        self.step_in_plan(t) && self.plan.worker_forging[t as usize]
    }

    /// Whether the Byzantine servers forge round `t`.
    pub fn server_forging(&self, t: u64) -> bool {
        self.step_in_plan(t) && self.plan.server_forging[t as usize]
    }

    /// Sorted fold members of server `me`'s phase-2 gradient fold at `t`:
    /// forging Byzantine workers (instant covert forgeries) plus a
    /// quorum-filling rotation of the honest computers — punctual workers
    /// before scheduled stragglers, rotated by server id so each replica
    /// folds its own "first q̄ arrivals", exactly as the asynchronous
    /// engines observe. The per-server rotation is what keeps honest
    /// replicas *heterogeneous* (and the phase-3 contraction meaningful)
    /// even in a fault-free run; the forged/honest counts are the same for
    /// every server, so fold safety is not (see [`MachineSpec::grad_safe`]).
    pub fn grad_plan(&self, t: u64, me: usize) -> Vec<usize> {
        if !self.step_in_plan(t) {
            return Vec::new();
        }
        let cfg = &self.cfg;
        let ti = t as usize;
        let qbar = cfg.cluster.worker_quorum;
        let mut members: Vec<usize> = if self.plan.worker_forging[ti] {
            cfg.byz_worker_ids().collect()
        } else {
            Vec::new()
        };
        let (punctual, late): (Vec<usize>, Vec<usize>) = self.plan.computing[ti]
            .iter()
            .copied()
            .partition(|&w| cfg.faults.straggler_extra(t, w - cfg.cluster.servers) == 0.0);
        for group in [punctual, late] {
            for k in 0..group.len() {
                if members.len() >= qbar {
                    break;
                }
                members.push(group[(me + k) % group.len()]);
            }
        }
        members.sort_unstable();
        members
    }

    /// Whether the server gradient fold at `t` is fold-safe.
    pub fn grad_safe(&self, t: u64) -> bool {
        self.step_in_plan(t) && self.plan.grad_safe[t as usize]
    }

    /// Sorted fold members (including `me`) of server `me`'s phase-3
    /// exchange at `t`: forging Byzantine servers (the covert channel
    /// ignores partitions) plus reachable active honest peers, lowest id
    /// first, up to the quorum.
    pub fn exchange_plan(&self, t: u64, me: usize) -> Vec<usize> {
        let cfg = &self.cfg;
        let q = cfg.cluster.server_quorum;
        let mut members = vec![me];
        if self.server_forging(t) {
            members.extend(cfg.byz_server_ids());
        }
        for p in 0..cfg.honest_servers() {
            if members.len() >= q {
                break;
            }
            if p != me && self.active(t, p) && cfg.faults.exchange_allowed(t, me, p) {
                members.push(p);
            }
        }
        members.sort_unstable();
        members
    }

    /// The strict-`q` sorted adoption set for a frozen server `me` at `t`
    /// (honest first to maximise safety), or `None` if adoption is
    /// impossible there.
    pub fn adoption_plan(&self, t: u64, me: usize) -> Option<Vec<usize>> {
        adoption_set(
            &self.cfg,
            |p| self.active(t, p),
            self.server_forging(t),
            t,
            me,
        )
    }
}

/// Shared adoption-set derivation, usable both during plan construction
/// (where the tables are still being built) and afterwards.
fn adoption_set(
    cfg: &MachineConfig,
    active: impl Fn(usize) -> bool,
    forging: bool,
    t: u64,
    me: usize,
) -> Option<Vec<usize>> {
    if !cfg.exchange_plane() {
        return None;
    }
    let q = cfg.cluster.server_quorum;
    let mut members: Vec<usize> = (0..cfg.honest_servers())
        .filter(|&p| p != me && active(p) && cfg.faults.exchange_allowed(t, me, p))
        .collect();
    if forging {
        members.extend(cfg.byz_server_ids());
    }
    members.truncate(q);
    let forged = members
        .iter()
        .filter(|&&m| m >= cfg.honest_servers())
        .count();
    if members.len() < q || fold_unsafe(members.len() - forged, forged) {
        return None;
    }
    members.sort_unstable();
    Some(members)
}

fn self_can_adopt(cfg: &MachineConfig, plan: &Plan, t: u64, s: usize) -> bool {
    let ti = t as usize;
    adoption_set(cfg, |p| plan.active[ti][p], plan.server_forging[ti], t, s).is_some()
}

/// First-wins insertion into a per-step sender ledger.
fn ledger_insert(ledger: &mut Vec<(usize, Tensor)>, from: usize, t: Tensor) {
    if !ledger.iter().any(|(s, _)| *s == from) {
        ledger.push((from, t));
    }
}

/// Pulls `members`' tensors (in members order) out of a ledger, or `None`
/// if any member is missing.
fn collect(ledger: &[(usize, Tensor)], members: &[usize]) -> Option<Vec<Tensor>> {
    members
        .iter()
        .map(|m| ledger.iter().find(|(s, _)| s == m).map(|(_, t)| t.clone()))
        .collect()
}

/// First `take` arrivals, returned as sorted `(sender, tensor)` pairs —
/// the canonical arrival-mode fold set.
fn canonical_arrivals(ledger: &[(usize, Tensor)], take: usize) -> (Vec<usize>, Vec<Tensor>) {
    let mut first: Vec<(usize, Tensor)> = ledger[..take].to_vec();
    first.sort_by_key(|(s, _)| *s);
    let senders = first.iter().map(|(s, _)| *s).collect();
    let tensors = first.into_iter().map(|(_, t)| t).collect();
    (senders, tensors)
}

/// The honest parameter-server machine (one per logical replica, or one
/// per shard group × replica when the gradient plane is sharded — `params`
/// is then the server's coordinate slice and `offset` its global origin).
pub struct ServerMachine {
    spec: Arc<MachineSpec>,
    me: usize,
    offset: usize,
    params: Tensor,
    step: u64,
    exchanging: bool,
    halted: bool,
    grads: HashMap<u64, Vec<(usize, Tensor)>>,
    exchanges: HashMap<u64, Vec<(usize, Tensor)>>,
    gar: Box<dyn Gar>,
    median: CoordinateWiseMedian,
    grad_quorum: Vec<usize>,
    discarded: u64,
}

impl std::fmt::Debug for ServerMachine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerMachine")
            .field("me", &self.me)
            .field("step", &self.step)
            .finish_non_exhaustive()
    }
}

impl ServerMachine {
    /// Creates the machine for honest server `me` starting from `params`.
    /// `offset` is the global coordinate origin of `params` (0 unless
    /// sharded); `gar` is the gradient aggregation rule instance (drivers
    /// may substitute blockwise variants for sharded planes).
    pub fn new(
        spec: Arc<MachineSpec>,
        me: usize,
        params: Tensor,
        offset: usize,
        gar: Box<dyn Gar>,
    ) -> Self {
        ServerMachine {
            spec,
            me,
            offset,
            params,
            step: 0,
            exchanging: false,
            halted: false,
            grads: HashMap::new(),
            exchanges: HashMap::new(),
            gar,
            median: CoordinateWiseMedian::new(),
            grad_quorum: Vec::new(),
            discarded: 0,
        }
    }

    /// Swaps in a re-built run context (a driver that does not know its
    /// round count up front extends the plan horizon by doubling
    /// `max_steps`; the planner's forward induction makes the new tables a
    /// strict prefix-extension of the old ones).
    pub fn respec(&mut self, spec: Arc<MachineSpec>) {
        self.halted = self.halted && self.step >= spec.cfg.max_steps;
        self.spec = spec;
    }

    /// Current parameter slice.
    pub fn params(&self) -> &Tensor {
        &self.params
    }

    /// Current step counter.
    pub fn step(&self) -> u64 {
        self.step
    }

    /// Whether the machine ran to `max_steps`.
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Messages discarded by planned-mode crash windows and partitions.
    pub fn discarded(&self) -> u64 {
        self.discarded
    }

    /// Resets protocol state to `(params, step)` — checkpoint restore.
    pub fn restore(&mut self, params: Tensor, step: u64) {
        self.params = params;
        self.step = step;
        self.exchanging = false;
        self.halted = step >= self.spec.cfg.max_steps;
        self.grads.clear();
        self.exchanges.clear();
        self.grad_quorum.clear();
    }

    /// Broadcasts the current model to the workers (start-of-run, after a
    /// step completes, and after a checkpoint restore).
    pub fn announce(&mut self, out: &mut Vec<Output>) {
        if self.halted || self.step >= self.spec.cfg.max_steps {
            return;
        }
        // A server scheduled down at its current step broadcasts nothing —
        // mid-run broadcasts come from finish_step, which runs while up.
        if !self.spec.cfg.server_up(self.step, self.me) {
            return;
        }
        self.broadcast_model(out);
    }

    fn broadcast_model(&self, out: &mut Vec<Output>) {
        let cfg = &self.spec.cfg;
        for w in cfg.cluster.servers..cfg.cluster.servers + cfg.cluster.workers {
            out.push(Output::Send {
                to: w,
                msg: NodeMsg::Model {
                    step: self.step,
                    params: self.params.clone(),
                },
            });
        }
    }

    /// Starts the machine: broadcast the step-0 model and run any
    /// degenerate immediate transitions.
    pub fn on_start(&mut self, out: &mut Vec<Output>) {
        self.announce(out);
        self.pump(out);
    }

    /// Feeds one inbound message.
    pub fn on_message(&mut self, from: usize, msg: &NodeMsg, out: &mut Vec<Output>) {
        if self.halted {
            return;
        }
        let cfg = &self.spec.cfg;
        let planned = cfg.planned();
        match msg {
            NodeMsg::Gradient { step, grad } => {
                if *step < self.step || grad.len() != self.params.len() || !grad.is_finite() {
                    return;
                }
                if planned {
                    if !cfg.server_up(*step, self.me) {
                        self.discarded += 1;
                        return;
                    }
                    if !self.spec.grad_plan(*step, self.me).contains(&from) {
                        return;
                    }
                    ledger_insert(self.grads.entry(*step).or_default(), from, grad.clone());
                } else {
                    self.grads
                        .entry(*step)
                        .or_default()
                        .push((from, grad.clone()));
                }
            }
            NodeMsg::Exchange { step, params } => {
                if *step < self.step || params.len() != self.params.len() || !params.is_finite() {
                    return;
                }
                if planned {
                    if !cfg.server_up(*step, self.me) {
                        self.discarded += 1;
                        return;
                    }
                    let honest = from < cfg.honest_servers();
                    if honest && !cfg.faults.exchange_allowed(*step, self.me, from) {
                        self.discarded += 1;
                        return;
                    }
                    if honest && !self.spec.active(*step, from) {
                        return;
                    }
                    if !honest && !self.spec.server_forging(*step) {
                        return;
                    }
                    ledger_insert(
                        self.exchanges.entry(*step).or_default(),
                        from,
                        params.clone(),
                    );
                } else {
                    self.exchanges
                        .entry(*step)
                        .or_default()
                        .push((from, params.clone()));
                }
            }
            NodeMsg::Model { .. } => {}
        }
        self.pump(out);
    }

    /// Runs every enabled transition to fixpoint.
    fn pump(&mut self, out: &mut Vec<Output>) {
        loop {
            if self.halted {
                return;
            }
            if self.spec.cfg.planned() {
                if !self.spec.cfg.server_up(self.step, self.me)
                    || (!self.exchanging && !self.spec.active(self.step, self.me))
                {
                    // Frozen (or waiting on the planner to let it rejoin):
                    // only adoption can move it. A server the plan never
                    // reactivates or readmits is stranded — no message can
                    // change a pure function of the schedule, so it halts
                    // rather than leaving a wall-clock driver waiting on a
                    // quorum that cannot exist.
                    if !self.try_adopt(out) {
                        if self.stranded() {
                            self.halted = true;
                        }
                        return;
                    }
                    continue;
                }
                if !self.exchanging {
                    if !self.try_planned_gradients(out) {
                        return;
                    }
                    continue;
                }
                if !self.try_planned_exchange(out) {
                    return;
                }
                continue;
            }
            // Arrival mode.
            let progressed = if self.exchanging {
                self.try_arrival_exchange(out)
            } else {
                self.try_arrival_gradients(out)
            };
            let recovered = self.try_arrival_recover(out);
            if !progressed && !recovered {
                return;
            }
        }
    }

    fn enter_exchange(&mut self, out: &mut Vec<Output>) {
        let cfg = &self.spec.cfg;
        if cfg.exchange_plane() {
            self.exchanging = true;
            ledger_insert(
                self.exchanges.entry(self.step).or_default(),
                self.me,
                self.params.clone(),
            );
            for s in 0..cfg.cluster.servers {
                if s != self.me {
                    out.push(Output::Send {
                        to: s,
                        msg: NodeMsg::Exchange {
                            step: self.step,
                            params: self.params.clone(),
                        },
                    });
                }
            }
        } else {
            self.finish_step(Vec::new(), out);
        }
    }

    fn finish_step(&mut self, exch_quorum: Vec<usize>, out: &mut Vec<Output>) {
        out.push(Output::Step(StepRecord {
            server: self.me,
            step: self.step,
            param_hash: positional_digest(self.offset, self.params.as_slice()),
            grad_quorum: std::mem::take(&mut self.grad_quorum),
            exch_quorum,
        }));
        self.exchanging = false;
        self.step += 1;
        let step = self.step;
        self.grads.retain(|&s, _| s >= step);
        self.exchanges.retain(|&s, _| s >= step);
        if self.step >= self.spec.cfg.max_steps {
            self.halted = true;
            return;
        }
        self.broadcast_model(out);
    }

    /// Planned-mode gradient phase. Returns `true` if it progressed.
    fn try_planned_gradients(&mut self, out: &mut Vec<Output>) -> bool {
        let members = self.spec.grad_plan(self.step, self.me);
        let empty = Vec::new();
        let ledger = self.grads.get(&self.step).unwrap_or(&empty);
        let Some(tensors) = collect(ledger, &members) else {
            return false;
        };
        if self.spec.grad_safe(self.step) {
            if let Ok(agg) = self.gar.aggregate(&tensors) {
                let lr = self.spec.cfg.lr.at(self.step);
                self.params
                    .axpy(-lr, &agg)
                    .expect("dims match by admission");
                self.grad_quorum = members;
            }
        }
        // Degraded (empty or attacker-dominated) plans skip the update but
        // never stall the step.
        self.enter_exchange(out);
        true
    }

    /// Planned-mode exchange fold. Returns `true` if it progressed.
    fn try_planned_exchange(&mut self, out: &mut Vec<Output>) -> bool {
        let members = self.spec.exchange_plan(self.step, self.me);
        let empty = Vec::new();
        let ledger = self.exchanges.get(&self.step).unwrap_or(&empty);
        let Some(tensors) = collect(ledger, &members) else {
            return false;
        };
        let forged = members
            .iter()
            .filter(|&&m| m >= self.spec.cfg.honest_servers())
            .count();
        let mut folded_members = Vec::new();
        if !fold_unsafe(members.len() - forged, forged) {
            if let Ok(folded) = self.median.aggregate(&tensors) {
                self.params = folded;
                folded_members = members;
            }
        }
        self.finish_step(folded_members, out);
        true
    }

    /// Whether no remaining planned step ever reactivates or readmits
    /// this server: it will never send, fold or adopt again, regardless
    /// of what arrives.
    fn stranded(&self) -> bool {
        (self.step..self.spec.cfg.max_steps)
            .all(|t| !self.spec.active(t, self.me) && !self.spec.adoptable(t, self.me))
    }

    /// Planned-mode adoption fast-forward. Returns `true` if it adopted.
    fn try_adopt(&mut self, out: &mut Vec<Output>) -> bool {
        let spec = self.spec.clone();
        for t in self.step..spec.cfg.max_steps {
            if spec.active(t, self.me) {
                return false;
            }
            if !spec.adoptable(t, self.me) {
                continue;
            }
            let Some(members) = spec.adoption_plan(t, self.me) else {
                return false;
            };
            let empty = Vec::new();
            let ledger = self.exchanges.get(&t).unwrap_or(&empty);
            let Some(tensors) = collect(ledger, &members) else {
                return false;
            };
            let Ok(folded) = self.median.aggregate(&tensors) else {
                return false;
            };
            let from = self.step;
            self.params = folded;
            self.step = t;
            self.grad_quorum.clear();
            out.push(Output::Recovered { from, to: t });
            self.finish_step(members, out);
            return true;
        }
        false
    }

    /// Arrival-mode gradient phase (first `q̄` arrivals, sender-sorted).
    fn try_arrival_gradients(&mut self, out: &mut Vec<Output>) -> bool {
        let qbar = self.spec.cfg.cluster.worker_quorum;
        let Some(ledger) = self.grads.get(&self.step) else {
            return false;
        };
        if ledger.len() < qbar {
            return false;
        }
        let (senders, tensors) = canonical_arrivals(ledger, qbar);
        let Ok(agg) = self.gar.aggregate(&tensors) else {
            return false;
        };
        let lr = self.spec.cfg.lr.at(self.step);
        self.params
            .axpy(-lr, &agg)
            .expect("dims match by admission");
        self.grad_quorum = senders;
        self.enter_exchange(out);
        true
    }

    /// Arrival-mode exchange fold (first `q` arrivals, sender-sorted).
    fn try_arrival_exchange(&mut self, out: &mut Vec<Output>) -> bool {
        let q = self.spec.cfg.cluster.server_quorum;
        let Some(ledger) = self.exchanges.get(&self.step) else {
            return false;
        };
        if ledger.len() < q {
            return false;
        }
        let (senders, tensors) = canonical_arrivals(ledger, q);
        if let Ok(folded) = self.median.aggregate(&tensors) {
            self.params = folded;
        }
        self.finish_step(senders, out);
        true
    }

    /// Arrival-mode recovery: adopt the **newest** step with a full
    /// exchange quorum buffered (protocol-level state transfer).
    fn try_arrival_recover(&mut self, out: &mut Vec<Output>) -> bool {
        if !self.spec.cfg.recovery || !self.spec.cfg.exchange_plane() {
            return false;
        }
        let q = self.spec.cfg.cluster.server_quorum;
        let Some(target) = self
            .exchanges
            .iter()
            .filter(|(&s, l)| s > self.step && l.len() >= q)
            .map(|(&s, _)| s)
            .max()
        else {
            return false;
        };
        let ledger = &self.exchanges[&target];
        let (senders, tensors) = canonical_arrivals(ledger, q);
        let Ok(folded) = self.median.aggregate(&tensors) else {
            return false;
        };
        let from = self.step;
        self.params = folded;
        self.step = target;
        self.grad_quorum.clear();
        out.push(Output::Recovered { from, to: target });
        self.finish_step(senders, out);
        true
    }
}

/// The honest worker machine. The driver owns the model and the data
/// pipeline: when the machine emits [`Output::NeedGradient`] the driver
/// computes a stochastic gradient at the folded model and answers with
/// [`WorkerMachine::gradient_ready`].
pub struct WorkerMachine {
    spec: Arc<MachineSpec>,
    me: usize,
    dim: usize,
    step: u64,
    awaiting: Option<u64>,
    halted: bool,
    models: HashMap<u64, Vec<(usize, Tensor)>>,
    median: CoordinateWiseMedian,
    discarded: u64,
}

impl std::fmt::Debug for WorkerMachine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerMachine")
            .field("me", &self.me)
            .field("step", &self.step)
            .finish_non_exhaustive()
    }
}

impl WorkerMachine {
    /// Creates the machine for honest worker `me` (logical id) over a
    /// `dim`-coordinate model.
    pub fn new(spec: Arc<MachineSpec>, me: usize, dim: usize) -> Self {
        WorkerMachine {
            spec,
            me,
            dim,
            step: 0,
            awaiting: None,
            halted: false,
            models: HashMap::new(),
            median: CoordinateWiseMedian::new(),
            discarded: 0,
        }
    }

    /// Swaps in a re-built run context (see [`ServerMachine::respec`]).
    pub fn respec(&mut self, spec: Arc<MachineSpec>) {
        self.halted = self.halted && self.step >= spec.cfg.max_steps;
        self.spec = spec;
    }

    /// Current step counter.
    pub fn step(&self) -> u64 {
        self.step
    }

    /// Whether the machine ran to `max_steps`.
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Messages discarded by planned-mode crash windows.
    pub fn discarded(&self) -> u64 {
        self.discarded
    }

    /// Resets the step counter (checkpoint restore).
    pub fn restore(&mut self, step: u64) {
        self.step = step;
        self.awaiting = None;
        self.halted = step >= self.spec.cfg.max_steps;
        self.models.clear();
    }

    /// Starts the machine (runs planned-mode skip transitions).
    pub fn on_start(&mut self, out: &mut Vec<Output>) {
        self.pump(out);
    }

    /// Feeds one inbound message (only `Model` is meaningful).
    pub fn on_message(&mut self, from: usize, msg: &NodeMsg, out: &mut Vec<Output>) {
        if self.halted {
            return;
        }
        let cfg = &self.spec.cfg;
        if let NodeMsg::Model { step, params } = msg {
            if *step < self.step || params.len() != self.dim || !params.is_finite() {
                return;
            }
            if cfg.planned() {
                if !cfg.worker_up(*step, self.me) {
                    self.discarded += 1;
                    return;
                }
                if !self.spec.model_plan(*step).contains(&from) {
                    return;
                }
                ledger_insert(self.models.entry(*step).or_default(), from, params.clone());
            } else {
                self.models
                    .entry(*step)
                    .or_default()
                    .push((from, params.clone()));
            }
            self.pump(out);
        }
    }

    /// Answers a [`Output::NeedGradient`] request. A non-finite gradient
    /// is swallowed (the driver flags divergence); the round still
    /// advances.
    pub fn gradient_ready(&mut self, step: u64, grad: Tensor, out: &mut Vec<Output>) {
        debug_assert_eq!(self.awaiting, Some(step));
        self.awaiting = None;
        let cfg = &self.spec.cfg;
        if grad.is_finite() {
            for s in 0..cfg.cluster.servers {
                out.push(Output::Send {
                    to: s,
                    msg: NodeMsg::Gradient {
                        step,
                        grad: grad.clone(),
                    },
                });
            }
            // Omniscience taps: Byzantine workers see every honest
            // gradient before forging their own.
            for b in cfg.byz_worker_ids() {
                out.push(Output::Send {
                    to: b,
                    msg: NodeMsg::Gradient {
                        step,
                        grad: grad.clone(),
                    },
                });
            }
        }
        self.step = step + 1;
        let s = self.step;
        self.models.retain(|&k, _| k >= s);
        self.pump(out);
    }

    fn pump(&mut self, out: &mut Vec<Output>) {
        if self.awaiting.is_some() || self.halted {
            return;
        }
        let spec = self.spec.clone();
        let cfg = &spec.cfg;
        loop {
            if self.step >= cfg.max_steps {
                self.halted = true;
                return;
            }
            if cfg.planned() {
                let t = self.step;
                if !cfg.worker_up(t, self.me)
                    || spec.model_plan(t).is_empty()
                    || !spec.model_safe(t)
                {
                    // Down, starved or attacker-dominated: sit the step out
                    // (no batch is drawn — the data stream stays aligned).
                    self.step += 1;
                    let s = self.step;
                    self.models.retain(|&k, _| k >= s);
                    continue;
                }
                let members = spec.model_plan(t).to_vec();
                let empty = Vec::new();
                let ledger = self.models.get(&t).unwrap_or(&empty);
                let Some(tensors) = collect(ledger, &members) else {
                    return;
                };
                let Some(view) = self.fold_view(&tensors) else {
                    self.step += 1;
                    continue;
                };
                self.awaiting = Some(t);
                out.push(Output::NeedGradient {
                    step: t,
                    model: view,
                });
                return;
            }
            // Arrival mode: optionally fast-forward to the newest quorate
            // step, then fold the first q arrivals sender-sorted.
            let q = cfg.cluster.server_quorum;
            if cfg.recovery {
                if let Some(newest) = self
                    .models
                    .iter()
                    .filter(|(&s, l)| s > self.step && l.len() >= q)
                    .map(|(&s, _)| s)
                    .max()
                {
                    self.step = newest;
                    let s = self.step;
                    self.models.retain(|&k, _| k >= s);
                }
            }
            let t = self.step;
            let Some(ledger) = self.models.get(&t) else {
                return;
            };
            if ledger.len() < q {
                return;
            }
            let (_, tensors) = canonical_arrivals(ledger, q);
            let Some(view) = self.fold_view(&tensors) else {
                self.step += 1;
                continue;
            };
            self.awaiting = Some(t);
            out.push(Output::NeedGradient {
                step: t,
                model: view,
            });
            return;
        }
    }

    fn fold_view(&self, tensors: &[Tensor]) -> Option<Tensor> {
        if self.spec.cfg.robust_worker_fold {
            self.median.aggregate(tensors).ok()
        } else {
            tensors.first().cloned()
        }
    }
}

/// The Byzantine worker machine: observes honest gradients through the
/// omniscience taps and forges per-receiver gradients for every server.
pub struct ByzWorkerMachine {
    spec: Arc<MachineSpec>,
    attack: Box<dyn Attack>,
    taps: HashMap<u64, Vec<(usize, Tensor)>>,
    forged: std::collections::HashSet<u64>,
}

impl std::fmt::Debug for ByzWorkerMachine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ByzWorkerMachine")
            .field("attack", &self.attack.name())
            .finish_non_exhaustive()
    }
}

impl ByzWorkerMachine {
    /// Creates the machine for the Byzantine worker at `worker_index`
    /// (index inside the worker range, `0..workers`).
    pub fn new(spec: Arc<MachineSpec>, worker_index: usize) -> Self {
        let kind = spec
            .cfg
            .worker_attack
            .expect("validated: byz workers imply an attack");
        let attack = kind.build(worker_attack_seed(spec.cfg.seed, worker_index));
        ByzWorkerMachine {
            spec,
            attack,
            taps: HashMap::new(),
            forged: std::collections::HashSet::new(),
        }
    }

    /// Swaps in a re-built run context (see [`ServerMachine::respec`]).
    pub fn respec(&mut self, spec: Arc<MachineSpec>) {
        self.spec = spec;
    }

    /// Feeds one inbound message (only gradient taps are meaningful).
    pub fn on_message(&mut self, from: usize, msg: &NodeMsg, out: &mut Vec<Output>) {
        let NodeMsg::Gradient { step, grad } = msg else {
            return;
        };
        let spec = self.spec.clone();
        let cfg = &spec.cfg;
        if self.forged.contains(step) {
            return;
        }
        if cfg.planned() && !spec.computing(*step).contains(&from) {
            return;
        }
        ledger_insert(self.taps.entry(*step).or_default(), from, grad.clone());
        let ready = if cfg.planned() {
            self.taps[step].len() == spec.computing(*step).len()
        } else {
            true
        };
        if !ready {
            return;
        }
        let t = *step;
        self.forged.insert(t);
        let mut base: Vec<(usize, Tensor)> = self.taps.remove(&t).unwrap_or_default();
        base.sort_by_key(|(s, _)| *s);
        let honest: Vec<Tensor> = base.into_iter().map(|(_, g)| g).collect();
        let live = if cfg.planned() {
            spec.worker_forging(t)
        } else {
            windows_allow(&cfg.worker_attack_windows, t)
        };
        if live && !honest.is_empty() {
            for s in 0..cfg.cluster.servers {
                let view = AttackView::new(&honest, t, s);
                if let Some(forged) = self.attack.forge(&view) {
                    out.push(Output::Send {
                        to: s,
                        msg: NodeMsg::Gradient {
                            step: t,
                            grad: forged,
                        },
                    });
                }
            }
        }
        self.taps.retain(|&k, _| k > t);
    }
}

/// The Byzantine server machine: observes the honest exchange plane and
/// forges per-receiver models (to workers) and exchange vectors (to peer
/// servers), one round after another on a cascade that never stalls the
/// honest plane.
pub struct ByzServerMachine {
    spec: Arc<MachineSpec>,
    me: usize,
    dim: usize,
    attack: Box<dyn Attack>,
    observed: HashMap<u64, Vec<(usize, Tensor)>>,
    round: u64,
}

impl std::fmt::Debug for ByzServerMachine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ByzServerMachine")
            .field("me", &self.me)
            .field("round", &self.round)
            .finish_non_exhaustive()
    }
}

impl ByzServerMachine {
    /// Creates the machine for the Byzantine server `me` (logical id) over
    /// a `dim`-coordinate model.
    pub fn new(spec: Arc<MachineSpec>, me: usize, dim: usize) -> Self {
        let kind = spec
            .cfg
            .server_attack
            .expect("validated: byz servers imply an attack");
        let attack = kind.build(server_attack_seed(spec.cfg.seed, me));
        ByzServerMachine {
            spec,
            me,
            dim,
            attack,
            observed: HashMap::new(),
            round: 0,
        }
    }

    /// Swaps in a re-built run context (see [`ServerMachine::respec`]).
    pub fn respec(&mut self, spec: Arc<MachineSpec>) {
        self.spec = spec;
    }

    /// Starts the machine: forge round 0 (from a zeros base — nothing has
    /// been observed yet) and cascade as far as the plan allows.
    pub fn on_start(&mut self, out: &mut Vec<Output>) {
        self.advance(out);
    }

    /// Feeds one inbound message. Exchange messages feed the forge base;
    /// gradients act as the round trigger when no exchange plane exists.
    pub fn on_message(&mut self, from: usize, msg: &NodeMsg, out: &mut Vec<Output>) {
        let spec = self.spec.clone();
        let cfg = &spec.cfg;
        match msg {
            NodeMsg::Exchange { step, params } => {
                if !cfg.exchange_plane() || *step + 1 < self.round {
                    return;
                }
                if cfg.planned() {
                    // Only the planned honest exchange set feeds the base —
                    // anything else (peer forgeries, stale sends) would make
                    // the base arrival-order dependent.
                    if from >= cfg.honest_servers() || !spec.active(*step, from) {
                        return;
                    }
                    ledger_insert(
                        self.observed.entry(*step).or_default(),
                        from,
                        params.clone(),
                    );
                } else {
                    self.observed
                        .entry(*step)
                        .or_default()
                        .push((from, params.clone()));
                }
                self.advance(out);
            }
            NodeMsg::Gradient { step, .. } => {
                if cfg.exchange_plane() || *step + 1 < self.round {
                    return;
                }
                if cfg.planned() && !spec.computing(*step).contains(&from) {
                    return;
                }
                // Exchange-ablated deployments: the worker gradient stream
                // is the only online signal of round progress.
                ledger_insert(
                    self.observed.entry(*step).or_default(),
                    from,
                    Tensor::zeros(&[1]),
                );
                self.advance(out);
            }
            NodeMsg::Model { .. } => {}
        }
    }

    fn round_ready(&self, t: u64) -> bool {
        // Round t forges from the step t−1 observations.
        if t == 0 {
            return true;
        }
        let prev = t - 1;
        let spec = &self.spec;
        let cfg = &spec.cfg;
        let seen = self.observed.get(&prev).map_or(0, Vec::len);
        if cfg.planned() {
            let expected = if cfg.exchange_plane() {
                (0..cfg.honest_servers())
                    .filter(|&p| spec.active(prev, p))
                    .count()
            } else {
                spec.computing(prev).len()
            };
            seen >= expected
        } else {
            seen > 0
        }
    }

    fn advance(&mut self, out: &mut Vec<Output>) {
        let spec = self.spec.clone();
        let cfg = &spec.cfg;
        while self.round < cfg.max_steps && self.round_ready(self.round) {
            let t = self.round;
            let live = if cfg.planned() {
                spec.server_forging(t)
            } else {
                windows_allow(&cfg.server_attack_windows, t)
            };
            if live {
                let base: Vec<Tensor> = if t == 0 {
                    vec![Tensor::zeros(&[self.dim])]
                } else {
                    let mut prev: Vec<(usize, Tensor)> =
                        self.observed.get(&(t - 1)).cloned().unwrap_or_default();
                    prev.sort_by_key(|(s, _)| *s);
                    prev.dedup_by_key(|(s, _)| *s);
                    let honest: Vec<Tensor> = prev
                        .into_iter()
                        .filter(|(_, p)| p.len() == self.dim)
                        .map(|(_, p)| p)
                        .collect();
                    if honest.is_empty() {
                        vec![Tensor::zeros(&[self.dim])]
                    } else {
                        honest
                    }
                };
                for (idx, w) in
                    (cfg.cluster.servers..cfg.cluster.servers + cfg.cluster.workers).enumerate()
                {
                    let view = AttackView::new(&base, t, idx);
                    if let Some(forged) = self.attack.forge(&view) {
                        out.push(Output::Send {
                            to: w,
                            msg: NodeMsg::Model {
                                step: t,
                                params: forged,
                            },
                        });
                    }
                }
                if cfg.exchange_plane() {
                    for (idx, s) in (0..cfg.cluster.servers).enumerate() {
                        if s == self.me {
                            continue;
                        }
                        let view = AttackView::new(&base, t, idx + 1000);
                        if let Some(forged) = self.attack.forge(&view) {
                            out.push(Output::Send {
                                to: s,
                                msg: NodeMsg::Exchange {
                                    step: t,
                                    params: forged,
                                },
                            });
                        }
                    }
                }
            }
            self.round += 1;
            let r = self.round;
            self.observed.retain(|&k, _| k + 1 >= r);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultKind;

    fn cluster() -> ClusterConfig {
        ClusterConfig::new(6, 1, 9, 2).unwrap()
    }

    fn planned_cfg(faults: FaultSchedule) -> MachineConfig {
        let mut cfg =
            MachineConfig::honest(cluster(), 4, LrSchedule::constant(0.05), GarKind::MultiKrum);
        cfg.mode = QuorumMode::Planned;
        cfg.recovery = true;
        cfg.faults = faults;
        cfg
    }

    fn crash_server(server: usize, from: u64, until: u64) -> FaultSchedule {
        FaultSchedule::none().with(
            from,
            until,
            FaultKind::CrashServers {
                servers: vec![server],
            },
        )
    }

    /// A toy driver: routes every Send synchronously and answers
    /// NeedGradient with a deterministic pseudo-gradient.
    struct Mesh {
        spec: Arc<MachineSpec>,
        servers: Vec<ServerMachine>,
        workers: Vec<WorkerMachine>,
        records: Vec<StepRecord>,
        recovered: usize,
    }

    impl Mesh {
        fn new(cfg: MachineConfig, dim: usize) -> Self {
            let spec = MachineSpec::new(cfg).unwrap();
            let theta0 = Tensor::zeros(&[dim]);
            let ns = spec.cfg.honest_servers();
            let servers = (0..ns)
                .map(|s| {
                    let gar = spec
                        .cfg
                        .server_gar
                        .build(spec.cfg.cluster.krum_f())
                        .unwrap();
                    ServerMachine::new(spec.clone(), s, theta0.clone(), 0, gar)
                })
                .collect();
            let workers = (0..spec.cfg.honest_workers())
                .map(|w| WorkerMachine::new(spec.clone(), spec.cfg.cluster.servers + w, dim))
                .collect();
            Mesh {
                spec,
                servers,
                workers,
                records: Vec::new(),
                recovered: 0,
            }
        }

        fn run(&mut self) {
            let mut queue: std::collections::VecDeque<(usize, usize, NodeMsg)> =
                std::collections::VecDeque::new();
            let mut out = Vec::new();
            for s in 0..self.servers.len() {
                self.servers[s].on_start(&mut out);
                self.drain(s, &mut out, &mut queue);
            }
            for w in 0..self.workers.len() {
                let id = self.spec.cfg.cluster.servers + w;
                self.workers[w].on_start(&mut out);
                self.drain(id, &mut out, &mut queue);
            }
            while let Some((from, to, msg)) = queue.pop_front() {
                let ns = self.spec.cfg.cluster.servers;
                if to < self.servers.len() {
                    self.servers[to].on_message(from, &msg, &mut out);
                    self.drain(to, &mut out, &mut queue);
                } else if to >= ns && to < ns + self.workers.len() {
                    self.workers[to - ns].on_message(from, &msg, &mut out);
                    self.drain(to, &mut out, &mut queue);
                }
            }
        }

        fn drain(
            &mut self,
            me: usize,
            out: &mut Vec<Output>,
            queue: &mut std::collections::VecDeque<(usize, usize, NodeMsg)>,
        ) {
            while !out.is_empty() {
                let batch: Vec<Output> = std::mem::take(out);
                for o in batch {
                    match o {
                        Output::Send { to, msg } => queue.push_back((me, to, msg)),
                        Output::Step(r) => self.records.push(r),
                        Output::Recovered { .. } => self.recovered += 1,
                        Output::NeedGradient { step, model } => {
                            let ns = self.spec.cfg.cluster.servers;
                            let grad = model
                                .map(|x| 0.1 * x + 0.01 * (me - ns) as f32 + 0.001 * step as f32);
                            self.workers[me - ns].gradient_ready(step, grad, out);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn fold_unsafe_requires_honest_majority() {
        assert!(fold_unsafe(0, 0));
        assert!(fold_unsafe(0, 3));
        assert!(fold_unsafe(2, 2));
        assert!(fold_unsafe(1, 1));
        assert!(!fold_unsafe(3, 2));
        assert!(!fold_unsafe(1, 0));
    }

    #[test]
    fn attack_seeds_are_engine_agnostic_constants() {
        assert_eq!(worker_attack_seed(7, 3), 7 ^ 0xEB1 ^ (3u64 << 8));
        assert_eq!(server_attack_seed(7, 5), 7 ^ 0x5E6 ^ (5u64 << 8));
    }

    #[test]
    fn planner_marks_crashed_server_inactive_then_adopting() {
        let cfg = planned_cfg(crash_server(1, 1, 3));
        let spec = MachineSpec::new(cfg).unwrap();
        assert!(spec.active(0, 1));
        assert!(!spec.active(1, 1), "down at 1");
        assert!(!spec.active(2, 1), "down at 2");
        // Up again at 3 but not active (did not complete 2): adopts 3.
        assert!(!spec.active(3, 1));
        assert!(spec.adoptable(3, 1));
        assert!(spec.completed(3, 1));
        let members = spec.adoption_plan(3, 1).unwrap();
        assert_eq!(members.len(), spec.cfg.cluster.server_quorum);
        assert!(!members.contains(&1));
    }

    #[test]
    fn planner_excludes_crashed_workers_from_grad_plan() {
        let faults = FaultSchedule::none().with(
            0,
            2,
            FaultKind::CrashWorkers {
                workers: vec![0, 1],
            },
        );
        let cfg = planned_cfg(faults);
        let servers = cfg.cluster.servers;
        let spec = MachineSpec::new(cfg).unwrap();
        let plan0 = spec.grad_plan(0, 0);
        assert!(!plan0.contains(&servers), "worker 0 is down at step 0");
        assert!(!plan0.contains(&(servers + 1)));
        let plan2 = spec.grad_plan(2, 0);
        assert!(plan2.contains(&servers), "worker 0 is back at step 2");
        assert_eq!(plan2.len(), spec.cfg.cluster.worker_quorum);
    }

    #[test]
    fn grad_plan_rotates_per_server_with_constant_counts() {
        let cfg = planned_cfg(FaultSchedule::default());
        let spec = MachineSpec::new(cfg).unwrap();
        let q = spec.cfg.cluster.worker_quorum;
        let plans: Vec<Vec<usize>> = (0..spec.cfg.cluster.servers)
            .map(|s| spec.grad_plan(0, s))
            .collect();
        for p in &plans {
            assert_eq!(p.len(), q, "every server folds a full quorum");
        }
        assert_ne!(
            plans[0], plans[1],
            "replicas must fold different \"first q̄ arrivals\""
        );
    }

    #[test]
    fn fault_free_planned_run_converges_and_agrees() {
        let mut mesh = Mesh::new(planned_cfg(FaultSchedule::default()), 8);
        mesh.run();
        // 6 servers × 4 steps. Per-server gradient quorums keep the
        // replicas heterogeneous; the contraction keeps them close.
        assert_eq!(mesh.records.len(), 24);
        let scale = mesh.servers[0].params().norm().max(1e-6);
        for s in 1..mesh.servers.len() {
            let gap = mesh.servers[0]
                .params()
                .distance(mesh.servers[s].params())
                .unwrap();
            assert!(
                gap < 0.2 * scale,
                "server {s} drifted: gap {gap} vs norm {scale}"
            );
        }
        let trace = assemble_trace(&mesh.records);
        assert_eq!(trace.len(), 4);
    }

    #[test]
    fn crashed_server_adopts_and_rejoins_bit_identical() {
        let mut mesh = Mesh::new(planned_cfg(crash_server(1, 1, 3)), 8);
        mesh.run();
        assert_eq!(mesh.recovered, 1, "server 1 must fast-forward once");
        // Server 1 finishes steps 0, 3 (adopted); peers finish all 4.
        let s1: Vec<u64> = mesh
            .records
            .iter()
            .filter(|r| r.server == 1)
            .map(|r| r.step)
            .collect();
        assert_eq!(s1, vec![0, 3]);
        // The adopted state is the same quorate exchange median its peers
        // folded, so the recovered replica re-joins the honest cluster.
        let scale = mesh.servers[0].params().norm().max(1e-6);
        for s in 1..mesh.servers.len() {
            let gap = mesh.servers[0]
                .params()
                .distance(mesh.servers[s].params())
                .unwrap();
            assert!(
                gap < 0.2 * scale,
                "server {s} diverged after recovery: gap {gap} vs norm {scale}"
            );
        }
    }

    /// A server crashed through the end of the run can never be
    /// reactivated or readmitted — the plan is a pure function of the
    /// schedule, so the machine must *halt* rather than wait for an
    /// adoption quorum that cannot exist. (A wall-clock driver would
    /// otherwise block on it until its timeout: the committed
    /// `crash_plus_mute_server` reproducer hung the threaded engine this
    /// way before the stranded check.)
    #[test]
    fn server_stranded_by_a_terminal_crash_halts() {
        let mut mesh = Mesh::new(planned_cfg(crash_server(0, 1, 4)), 8);
        mesh.run();
        assert_eq!(mesh.recovered, 0, "no adoptable step exists");
        assert!(
            mesh.servers[0].halted(),
            "the stranded server must halt, not wait forever"
        );
        assert_eq!(mesh.servers[0].step(), 1, "it completed only step 0");
        for s in 1..mesh.servers.len() {
            assert_eq!(mesh.servers[s].step(), 4, "peers finish unimpeded");
        }
    }

    #[test]
    fn planned_run_is_replay_stable() {
        let run = || {
            let mut mesh = Mesh::new(planned_cfg(crash_server(2, 1, 2)), 8);
            mesh.run();
            assemble_trace(&mesh.records).fingerprint()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn assemble_trace_xors_shard_groups() {
        let rec = |server, step, hash| StepRecord {
            server,
            step,
            param_hash: hash,
            grad_quorum: vec![6, 7, 8],
            exch_quorum: vec![0, 1],
        };
        let merged = assemble_trace(&[rec(0, 0, 0xA), rec(0, 0, 0xB)]);
        let direct = assemble_trace(&[rec(0, 0, 0xA ^ 0xB)]);
        assert_eq!(merged, direct);
    }

    #[test]
    fn validation_rejects_byz_without_attack() {
        let mut cfg =
            MachineConfig::honest(cluster(), 2, LrSchedule::constant(0.05), GarKind::MultiKrum);
        cfg.actual_byz_workers = 1;
        assert!(MachineSpec::new(cfg).is_err());
    }
}
