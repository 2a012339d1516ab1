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
//! # One fold path, two membership oracles
//!
//! ByzSGD's safety argument is about *sets of distinct senders*: a server
//! folds `q̄` gradients and `q` exchanged models, a worker `q` models, of
//! which at most `f̄` / `f` are Byzantine. That rule is written once:
//!
//! * a `Ledger` buffers inbound vectors with **one slot per sender per
//!   step** (first message wins) in arrival order, so a quorum is always a
//!   count of distinct senders;
//! * each machine has one admission gate, one `pump` and one `try_*` per
//!   phase, and never looks at the run's [`QuorumMode`]: it asks its
//!   [`MachineSpec`] whether to keep a message, whom to fold, where to
//!   recover to and whether the adversary is live;
//! * [`MachineSpec`] answers from the ledger in [`QuorumMode::Arrival`]
//!   (the paper's semantics: the first `q` distinct senders, folded
//!   sender-sorted; membership depends on message timing, so engines agree
//!   bit for bit only at full quorums) and from its forward-planned
//!   membership tables in [`QuorumMode::Planned`] (a pure function of the
//!   [`FaultSchedule`] and the step number, so every engine produces the
//!   same trace whatever the timing).
//!
//! In both modes a message whose sender's role cannot produce it (a
//! `Gradient` from a server id, an `Exchange` or `Model` from a worker id,
//! anything from the receiver itself or from an id outside the cluster) is
//! ignored.
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
use crate::faults::FaultSchedule;
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
        let t = self
            .vector()
            .slice(range)
            .expect("range fits the carried vector");
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
    /// The fault schedule. Its attack windows gate the adversary in both
    /// modes; everything else drives membership in planned mode only.
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

    /// Whether the Byzantine workers forge at `t`, given honest gradients
    /// to forge from: there are some, their attack says something, and
    /// the schedule's attack windows allow it.
    fn worker_attack_live(&self, t: u64) -> bool {
        self.actual_byz_workers > 0
            && !matches!(self.worker_attack, Some(AttackKind::Mute) | None)
            && self.faults.worker_attack_active(t)
    }

    /// Whether the Byzantine servers forge round `t`.
    fn server_attack_live(&self, t: u64) -> bool {
        self.actual_byz_servers > 0
            && !matches!(self.server_attack, Some(AttackKind::Mute) | None)
            && self.faults.server_attack_active(t)
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

/// A fold set: sorted sender ids and their vectors, in the same order.
type Members = (Vec<usize>, Vec<Tensor>);

/// [`MachineSpec`]'s answer to "what do I do with this inbound message".
enum Admit {
    /// Buffer it.
    Keep,
    /// Drop it silently: stale plan membership or an impossible sender.
    Ignore,
    /// Drop it and count it: a planned crash window or partition ate it.
    Discard,
}

impl Admit {
    fn keep_if(member: bool) -> Admit {
        if member {
            Admit::Keep
        } else {
            Admit::Ignore
        }
    }
}

/// [`MachineSpec`]'s answer to "whom do I fold at this step".
enum Quorum {
    /// The fold set has not arrived yet.
    Wait,
    /// Degraded (empty or attacker-dominated) membership: advance without
    /// folding — a degraded step is skipped, never stalled.
    Skip,
    /// Fold these.
    Fold(Members),
}

/// The per-step sender ledger behind every quorum: **one slot per sender
/// per step** (the first message wins, so a repeated message can never
/// occupy a second slot of a fold that assumes ≤ `f` forgeries), kept in
/// arrival order.
#[derive(Debug, Default)]
struct Ledger {
    steps: HashMap<u64, Vec<(usize, Tensor)>>,
}

impl Ledger {
    /// Buffers `t` as `from`'s message for `step` unless it already has one.
    fn insert(&mut self, step: u64, from: usize, t: &Tensor) {
        let slots = self.steps.entry(step).or_default();
        if !slots.iter().any(|(s, _)| *s == from) {
            slots.push((from, t.clone()));
        }
    }

    /// Distinct senders buffered at `step`.
    fn len(&self, step: u64) -> usize {
        self.steps.get(&step).map_or(0, Vec::len)
    }

    /// `members`' tensors at `step`, in `members` order, or `None` if any
    /// member is missing.
    fn collect(&self, step: u64, members: &[usize]) -> Option<Vec<Tensor>> {
        let slots = self.steps.get(&step).map_or(&[][..], Vec::as_slice);
        members
            .iter()
            .map(|m| slots.iter().find(|(s, _)| s == m).map(|(_, t)| t.clone()))
            .collect()
    }

    /// The first `q` arrivals at `step`, sender-sorted — the canonical
    /// arrival-mode fold set — or `None` while fewer than `q` are buffered.
    fn first_sorted(&self, step: u64, q: usize) -> Option<Members> {
        let mut first = self.steps.get(&step)?.get(..q)?.to_vec();
        first.sort_by_key(|(s, _)| *s);
        Some(first.into_iter().unzip())
    }

    /// Every tensor buffered at `step`, in sender order.
    fn sorted(&self, step: u64) -> Vec<Tensor> {
        self.first_sorted(step, self.len(step))
            .map_or_else(Vec::new, |(_, tensors)| tensors)
    }

    /// The newest step after `step` holding at least `q` distinct senders.
    fn newest_quorate_above(&self, step: u64, q: usize) -> Option<u64> {
        self.steps
            .iter()
            .filter(|(&s, slots)| s > step && slots.len() >= q)
            .map(|(&s, _)| s)
            .max()
    }

    /// Forgets every step before `step`.
    fn prune_below(&mut self, step: u64) {
        self.steps.retain(|&s, _| s >= step);
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
            let server_forging = cfg.server_attack_live(t);
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
            let worker_forging = cfg.worker_attack_live(t) && !computing.is_empty();
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

    /// Admission of a step-`step` `Gradient` from `from` at `me`: an
    /// honest server's fold input, or a Byzantine node's omniscience tap.
    fn admit_gradient(&self, step: u64, me: usize, from: usize) -> Admit {
        let cfg = &self.cfg;
        let workers = cfg.cluster.servers..cfg.cluster.servers + cfg.cluster.workers;
        if from == me || !workers.contains(&from) {
            return Admit::Ignore;
        }
        if !cfg.planned() {
            return Admit::Keep;
        }
        let member = if me < cfg.honest_servers() {
            if !cfg.server_up(step, me) {
                return Admit::Discard;
            }
            self.grad_plan(step, me).contains(&from)
        } else {
            self.computing(step).contains(&from)
        };
        Admit::keep_if(member)
    }

    /// Admission of a step-`step` `Exchange` from `from` at server `me`.
    fn admit_exchange(&self, step: u64, me: usize, from: usize) -> Admit {
        let cfg = &self.cfg;
        if from == me || from >= cfg.cluster.servers || !cfg.exchange_plane() {
            return Admit::Ignore;
        }
        if !cfg.planned() {
            return Admit::Keep;
        }
        let honest = from < cfg.honest_servers();
        if me >= cfg.honest_servers() {
            // A Byzantine observer's forge base is the planned honest
            // exchange set only — peer forgeries or stale sends would make
            // it arrival-order dependent. Its covert channel ignores
            // partitions.
            return Admit::keep_if(honest && self.active(step, from));
        }
        if !cfg.server_up(step, me) || (honest && !cfg.faults.exchange_allowed(step, me, from)) {
            return Admit::Discard;
        }
        Admit::keep_if(if honest {
            self.active(step, from)
        } else {
            self.server_forging(step)
        })
    }

    /// Admission of a step-`step` `Model` from `from` at honest worker `me`.
    fn admit_model(&self, step: u64, me: usize, from: usize) -> Admit {
        let cfg = &self.cfg;
        if from >= cfg.cluster.servers {
            return Admit::Ignore;
        }
        if !cfg.planned() {
            return Admit::Keep;
        }
        if !cfg.worker_up(step, me) {
            return Admit::Discard;
        }
        Admit::keep_if(self.model_plan(step).contains(&from))
    }

    /// The membership rule behind every fold. Arrival: the first `q`
    /// distinct senders buffered at `step`, sender-sorted. Planned: what
    /// `plan` reads off the tables.
    fn fold(&self, ledger: &Ledger, step: u64, q: usize, plan: impl FnOnce() -> Quorum) -> Quorum {
        match self.cfg.mode {
            QuorumMode::Arrival => ledger
                .first_sorted(step, q)
                .map_or(Quorum::Wait, Quorum::Fold),
            QuorumMode::Planned => plan(),
        }
    }

    /// Server `me`'s phase-2 fold at `step`; planned: [`Self::grad_plan`]
    /// once all of it has arrived.
    fn gradient_fold(&self, step: u64, me: usize, grads: &Ledger) -> Quorum {
        self.fold(grads, step, self.cfg.cluster.worker_quorum, || {
            if !self.active(step, me) {
                return Quorum::Wait;
            }
            let members = self.grad_plan(step, me);
            match grads.collect(step, &members) {
                None => Quorum::Wait,
                Some(tensors) if self.grad_safe(step) => Quorum::Fold((members, tensors)),
                Some(_) => Quorum::Skip,
            }
        })
    }

    /// Server `me`'s phase-3 fold at `step` (itself included); planned:
    /// [`Self::exchange_plan`] once all of it has arrived.
    fn exchange_fold(&self, step: u64, me: usize, exchanges: &Ledger) -> Quorum {
        self.fold(exchanges, step, self.cfg.cluster.server_quorum, || {
            if !self.active(step, me) {
                return Quorum::Wait;
            }
            let members = self.exchange_plan(step, me);
            let forged = members
                .iter()
                .filter(|&&m| m >= self.cfg.honest_servers())
                .count();
            match exchanges.collect(step, &members) {
                None => Quorum::Wait,
                Some(_) if fold_unsafe(members.len() - forged, forged) => Quorum::Skip,
                Some(tensors) => Quorum::Fold((members, tensors)),
            }
        })
    }

    /// Worker `me`'s phase-1 model view at `step`; planned:
    /// [`Self::model_plan`] once all of it has arrived, and a worker that
    /// is down, starved or attacker-dominated skips.
    fn model_fold(&self, step: u64, me: usize, models: &Ledger) -> Quorum {
        self.fold(models, step, self.cfg.cluster.server_quorum, || {
            if !self.cfg.worker_up(step, me) || !self.model_safe(step) {
                return Quorum::Skip;
            }
            let members = self.model_plan(step);
            match models.collect(step, members) {
                None => Quorum::Wait,
                Some(tensors) => Quorum::Fold((members.to_vec(), tensors)),
            }
        })
    }

    /// Which buffered step node `me`, stuck at `step`, jumps to, and whose
    /// messages it adopts there. Arrival: the **newest** step holding a
    /// full quorum, when `recovery` is set. Planned: the **oldest** step
    /// the planner lets server `me` adopt, once its strict-`q` adoption set
    /// has arrived (planned workers never jump — [`Self::model_fold`] skips
    /// their dead steps one by one).
    fn recovery(&self, step: u64, me: usize, ledger: &Ledger) -> Option<(u64, Members)> {
        let cfg = &self.cfg;
        match cfg.mode {
            QuorumMode::Arrival => {
                if !cfg.recovery {
                    return None;
                }
                let q = cfg.cluster.server_quorum;
                let to = ledger.newest_quorate_above(step, q)?;
                Some((to, ledger.first_sorted(to, q)?))
            }
            QuorumMode::Planned => {
                if me >= cfg.honest_servers() {
                    return None;
                }
                for t in step..cfg.max_steps {
                    if self.active(t, me) {
                        return None;
                    }
                    if self.adoptable(t, me) {
                        let members = self.adoption_plan(t, me)?;
                        let tensors = ledger.collect(t, &members)?;
                        return Some((t, (members, tensors)));
                    }
                }
                None
            }
        }
    }

    /// Whether no remaining planned step ever reactivates or readmits
    /// server `me`, stuck at `step`: it will never send, fold or adopt
    /// again, whatever arrives. Never true in arrival mode, where any
    /// message may still fill a quorum.
    fn stranded(&self, step: u64, me: usize) -> bool {
        self.cfg.planned()
            && (step..self.cfg.max_steps).all(|t| !self.active(t, me) && !self.adoptable(t, me))
    }

    /// Whether a Byzantine node has observed everything it forges round
    /// `step + 1` (servers) or step `step` (workers) from: `seen` distinct
    /// honest gradients (`gradients`) or exchanges. Arrival: anything at
    /// all; planned: the whole planned honest set.
    fn observed_all(&self, step: u64, seen: usize, gradients: bool) -> bool {
        match self.cfg.mode {
            QuorumMode::Arrival => seen > 0,
            QuorumMode::Planned if gradients => seen >= self.computing(step).len(),
            QuorumMode::Planned => {
                let active = (0..self.cfg.honest_servers()).filter(|&p| self.active(step, p));
                seen >= active.count()
            }
        }
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
    grads: Ledger,
    exchanges: Ledger,
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
    /// sharded); `gar` is the gradient aggregation rule instance (a shard
    /// group's server folds its own slices with the same rule).
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
            grads: Ledger::default(),
            exchanges: Ledger::default(),
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

    /// Broadcasts the current model to the workers (start-of-run and after
    /// a step completes).
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
        let (step, vector) = (msg.step(), msg.vector());
        if self.halted
            || step < self.step
            || vector.len() != self.params.len()
            || !vector.is_finite()
        {
            return;
        }
        let (verdict, ledger) = match msg {
            NodeMsg::Gradient { .. } => (
                self.spec.admit_gradient(step, self.me, from),
                &mut self.grads,
            ),
            NodeMsg::Exchange { .. } => (
                self.spec.admit_exchange(step, self.me, from),
                &mut self.exchanges,
            ),
            NodeMsg::Model { .. } => return,
        };
        match verdict {
            Admit::Keep => {
                ledger.insert(step, from, vector);
                self.pump(out);
            }
            Admit::Discard => self.discarded += 1,
            Admit::Ignore => {}
        }
    }

    /// Runs every enabled transition to fixpoint: the current phase's fold,
    /// then recovery (a frozen planned server, whose folds all answer
    /// `Wait`, moves by adoption only). A server that can never move again
    /// is stranded — no message can change a pure function of the
    /// schedule, so it halts rather than leaving a wall-clock driver
    /// waiting on a quorum that cannot exist.
    fn pump(&mut self, out: &mut Vec<Output>) {
        while !self.halted {
            let progressed = if self.exchanging {
                self.try_exchange(out)
            } else {
                self.try_gradients(out)
            };
            let recovered = self.try_recover(out);
            if !progressed && !recovered {
                self.halted = self.spec.stranded(self.step, self.me);
                return;
            }
        }
    }

    fn enter_exchange(&mut self, out: &mut Vec<Output>) {
        let cfg = &self.spec.cfg;
        if cfg.exchange_plane() {
            self.exchanging = true;
            self.exchanges.insert(self.step, self.me, &self.params);
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
        self.grads.prune_below(self.step);
        self.exchanges.prune_below(self.step);
        if self.step >= self.spec.cfg.max_steps {
            self.halted = true;
            return;
        }
        self.broadcast_model(out);
    }

    /// The gradient phase. Returns `true` if it progressed. A skipped or
    /// failed fold leaves the parameters alone but never stalls the step.
    fn try_gradients(&mut self, out: &mut Vec<Output>) -> bool {
        match self.spec.gradient_fold(self.step, self.me, &self.grads) {
            Quorum::Wait => return false,
            Quorum::Skip => {}
            Quorum::Fold((members, tensors)) => {
                if let Ok(agg) = self.gar.aggregate(&tensors) {
                    let lr = self.spec.cfg.lr.at(self.step);
                    self.params
                        .axpy(-lr, &agg)
                        .expect("dims match by admission");
                    self.grad_quorum = members;
                }
            }
        }
        self.enter_exchange(out);
        true
    }

    /// The exchange fold. Returns `true` if it progressed.
    fn try_exchange(&mut self, out: &mut Vec<Output>) -> bool {
        let mut folded = Vec::new();
        match self.spec.exchange_fold(self.step, self.me, &self.exchanges) {
            Quorum::Wait => return false,
            Quorum::Skip => {}
            Quorum::Fold((members, tensors)) => {
                if let Ok(median) = self.median.aggregate(&tensors) {
                    self.params = median;
                    folded = members;
                }
            }
        }
        self.finish_step(folded, out);
        true
    }

    /// Recovery fast-forward: adopt the median of a quorate exchange set
    /// buffered for a later step (protocol-level state transfer). Returns
    /// `true` if it adopted.
    fn try_recover(&mut self, out: &mut Vec<Output>) -> bool {
        let Some((to, (members, tensors))) =
            self.spec.recovery(self.step, self.me, &self.exchanges)
        else {
            return false;
        };
        let Ok(median) = self.median.aggregate(&tensors) else {
            return false;
        };
        out.push(Output::Recovered {
            from: self.step,
            to,
        });
        self.params = median;
        self.step = to;
        self.grad_quorum.clear();
        self.finish_step(members, out);
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
    models: Ledger,
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
            models: Ledger::default(),
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

    /// Starts the machine (runs planned-mode skip transitions).
    pub fn on_start(&mut self, out: &mut Vec<Output>) {
        self.pump(out);
    }

    /// Feeds one inbound message (only `Model` is meaningful).
    pub fn on_message(&mut self, from: usize, msg: &NodeMsg, out: &mut Vec<Output>) {
        let NodeMsg::Model { step, params } = msg else {
            return;
        };
        if self.halted || *step < self.step || params.len() != self.dim || !params.is_finite() {
            return;
        }
        match self.spec.admit_model(*step, self.me, from) {
            Admit::Keep => {
                self.models.insert(*step, from, params);
                self.pump(out);
            }
            Admit::Discard => self.discarded += 1,
            Admit::Ignore => {}
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
            // Every server, then the omniscience taps: Byzantine workers
            // see every honest gradient before forging their own.
            for to in (0..cfg.cluster.servers).chain(cfg.byz_worker_ids()) {
                out.push(Output::Send {
                    to,
                    msg: NodeMsg::Gradient {
                        step,
                        grad: grad.clone(),
                    },
                });
            }
        }
        self.advance_to(step + 1);
        self.pump(out);
    }

    /// Moves to `step`, forgetting every older buffered model.
    fn advance_to(&mut self, step: u64) {
        self.step = step;
        self.models.prune_below(step);
    }

    fn pump(&mut self, out: &mut Vec<Output>) {
        if self.awaiting.is_some() {
            return;
        }
        let spec = self.spec.clone();
        while !self.halted {
            if let Some((to, _)) = spec.recovery(self.step, self.me, &self.models) {
                self.advance_to(to);
            }
            if self.step >= spec.cfg.max_steps {
                self.halted = true;
                return;
            }
            let view = match spec.model_fold(self.step, self.me, &self.models) {
                Quorum::Wait => return,
                Quorum::Skip => None,
                Quorum::Fold((_, tensors)) => self.fold_view(&tensors),
            };
            let Some(model) = view else {
                // Skipped or unfoldable: sit the step out (no batch is
                // drawn — the data stream stays aligned).
                self.advance_to(self.step + 1);
                continue;
            };
            self.awaiting = Some(self.step);
            out.push(Output::NeedGradient {
                step: self.step,
                model,
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
    me: usize,
    attack: Box<dyn Attack>,
    taps: Ledger,
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
            me: spec.cfg.cluster.servers + worker_index,
            spec,
            attack,
            taps: Ledger::default(),
            forged: std::collections::HashSet::new(),
        }
    }

    /// Swaps in a re-built run context (see [`ServerMachine::respec`]).
    pub fn respec(&mut self, spec: Arc<MachineSpec>) {
        self.spec = spec;
    }

    /// Feeds one inbound message (only gradient taps are meaningful).
    pub fn on_message(&mut self, from: usize, msg: &NodeMsg, out: &mut Vec<Output>) {
        let NodeMsg::Gradient { step: t, grad } = msg else {
            return;
        };
        let (t, spec) = (*t, self.spec.clone());
        if self.forged.contains(&t) || !matches!(spec.admit_gradient(t, self.me, from), Admit::Keep)
        {
            return;
        }
        self.taps.insert(t, from, grad);
        if !spec.observed_all(t, self.taps.len(t), true) {
            return;
        }
        self.forged.insert(t);
        if spec.cfg.worker_attack_live(t) {
            let honest = self.taps.sorted(t);
            for s in 0..spec.cfg.cluster.servers {
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
        self.taps.prune_below(t + 1);
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
    observed: Ledger,
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
            observed: Ledger::default(),
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
    /// in exchange-ablated deployments the worker gradient stream is the
    /// only online signal of round progress and acts as the round trigger.
    pub fn on_message(&mut self, from: usize, msg: &NodeMsg, out: &mut Vec<Output>) {
        let step = msg.step();
        let plane = self.spec.cfg.exchange_plane();
        let verdict = match msg {
            _ if step + 1 < self.round => return,
            NodeMsg::Exchange { .. } if plane => self.spec.admit_exchange(step, self.me, from),
            NodeMsg::Gradient { .. } if !plane => self.spec.admit_gradient(step, self.me, from),
            _ => return,
        };
        if let Admit::Keep = verdict {
            self.observed.insert(step, from, msg.vector());
            self.advance(out);
        }
    }

    fn advance(&mut self, out: &mut Vec<Output>) {
        let spec = self.spec.clone();
        let cfg = &spec.cfg;
        let plane = cfg.exchange_plane();
        // Round t forges from the step t−1 observations.
        while self.round < cfg.max_steps
            && (self.round == 0
                || spec.observed_all(self.round - 1, self.observed.len(self.round - 1), !plane))
        {
            let t = self.round;
            if cfg.server_attack_live(t) {
                let mut base = if plane && t > 0 {
                    self.observed.sorted(t - 1)
                } else {
                    Vec::new()
                };
                base.retain(|p| p.len() == self.dim);
                if base.is_empty() {
                    base.push(Tensor::zeros(&[self.dim]));
                }
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
                if plane {
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
            self.observed.prune_below(self.round - 1);
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

    fn arrival_cfg(cluster: ClusterConfig) -> MachineConfig {
        MachineConfig::honest(cluster, 4, LrSchedule::constant(0.05), GarKind::MultiKrum)
    }

    fn planned_cfg(faults: FaultSchedule) -> MachineConfig {
        MachineConfig {
            mode: QuorumMode::Planned,
            recovery: true,
            faults,
            ..arrival_cfg(cluster())
        }
    }

    /// The same deployment with every quorum full (`q = n`, `q̄ = n̄`).
    fn full_quorums() -> ClusterConfig {
        ClusterConfig::with_quorums(6, 0, 9, 0, 6, 9).unwrap()
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
    /// NeedGradient with a deterministic pseudo-gradient. Delivery is FIFO,
    /// or — with a `shuffle` seed — a seeded random pick among the
    /// messages in flight.
    struct Mesh {
        spec: Arc<MachineSpec>,
        servers: Vec<ServerMachine>,
        workers: Vec<WorkerMachine>,
        records: Vec<StepRecord>,
        recovered: usize,
        shuffle: Option<u64>,
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
                shuffle: None,
            }
        }

        /// Runs `cfg` to completion and returns its step records in
        /// `(step, server)` order.
        fn records_of(cfg: MachineConfig, shuffle: Option<u64>) -> Vec<StepRecord> {
            let mut mesh = Mesh::new(cfg, 8);
            mesh.shuffle = shuffle;
            mesh.run();
            mesh.records.sort_by_key(|r| (r.step, r.server));
            mesh.records
        }

        /// The next message to deliver: the oldest, or a seeded random one.
        fn next(
            &mut self,
            queue: &mut std::collections::VecDeque<(usize, usize, NodeMsg)>,
        ) -> Option<(usize, usize, NodeMsg)> {
            let Some(state) = &mut self.shuffle else {
                return queue.pop_front();
            };
            if queue.is_empty() {
                return None;
            }
            // xorshift64: any fixed full-period generator will do.
            *state ^= *state << 13;
            *state ^= *state >> 7;
            *state ^= *state << 17;
            queue.swap_remove_back((*state % queue.len() as u64) as usize)
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
            while let Some((from, to, msg)) = self.next(&mut queue) {
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
    fn fault_free_run_converges_and_agrees_in_both_modes() {
        for cfg in [
            planned_cfg(FaultSchedule::default()),
            arrival_cfg(cluster()),
        ] {
            let mode = cfg.mode;
            let mut mesh = Mesh::new(cfg, 8);
            mesh.run();
            // 6 servers × 4 steps. Per-server gradient quorums keep the
            // replicas heterogeneous; the contraction keeps them close.
            assert_eq!(mesh.records.len(), 24, "{mode:?}");
            let scale = mesh.servers[0].params().norm().max(1e-6);
            for s in 1..mesh.servers.len() {
                let gap = mesh.servers[0]
                    .params()
                    .distance(mesh.servers[s].params())
                    .unwrap();
                assert!(
                    gap < 0.2 * scale,
                    "{mode:?}: server {s} drifted: gap {gap} vs norm {scale}"
                );
            }
            let trace = assemble_trace(&mesh.records);
            assert_eq!(trace.len(), 4, "{mode:?}");
        }
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
    fn runs_are_replay_stable_in_both_modes() {
        for cfg in [planned_cfg(crash_server(2, 1, 2)), arrival_cfg(cluster())] {
            for shuffle in [None, Some(0x9E37_79B9)] {
                let run = || Mesh::records_of(cfg.clone(), shuffle);
                assert_eq!(run(), run(), "{:?} shuffle {shuffle:?}", cfg.mode);
            }
        }
    }

    /// The claim behind "one fold path, two oracles": with every quorum
    /// full and no faults the first-`q` oracle and the planner name the
    /// same members, so the two modes — and any delivery order — produce
    /// the same records.
    #[test]
    fn full_quorum_arrival_is_order_independent_and_equals_planned() {
        let arrival = arrival_cfg(full_quorums());
        let planned = MachineConfig {
            mode: QuorumMode::Planned,
            ..arrival.clone()
        };
        let reference = Mesh::records_of(planned.clone(), None);
        assert_eq!(reference.len(), 24);
        assert!(reference
            .iter()
            .all(|r| r.grad_quorum.len() == 9 && r.exch_quorum.len() == 6));
        for shuffle in [None, Some(1), Some(0xDEAD_BEEF), Some(0x5EED_5EED_5EED)] {
            assert_eq!(
                Mesh::records_of(arrival.clone(), shuffle),
                reference,
                "arrival, shuffle {shuffle:?}"
            );
            assert_eq!(
                Mesh::records_of(planned.clone(), shuffle),
                reference,
                "planned, shuffle {shuffle:?}"
            );
        }
    }

    #[test]
    fn partial_quorum_arrival_folds_exactly_q_distinct_members() {
        let distinct = |ids: &[usize]| ids.windows(2).all(|w| w[0] < w[1]);
        for shuffle in [None, Some(7), Some(0xC0FF_EE00), Some(0x1234_5678_9ABC)] {
            let records = Mesh::records_of(arrival_cfg(cluster()), shuffle);
            assert_eq!(records.len(), 24, "shuffle {shuffle:?}");
            for r in &records {
                assert_eq!(r.grad_quorum.len(), 7, "q̄ gradients: {r:?}");
                assert_eq!(r.exch_quorum.len(), 5, "q exchanges: {r:?}");
                assert!(
                    distinct(&r.grad_quorum) && distinct(&r.exch_quorum),
                    "{r:?}"
                );
                assert!(r.grad_quorum.iter().all(|w| (6..15).contains(w)), "{r:?}");
                assert!(r.exch_quorum.iter().all(|s| (0..6).contains(s)), "{r:?}");
            }
        }
    }

    fn vector(x: f32) -> Tensor {
        Tensor::full(&[4], x)
    }

    fn gradient(step: u64, x: f32) -> NodeMsg {
        NodeMsg::Gradient {
            step,
            grad: vector(x),
        }
    }

    fn exchange(step: u64, x: f32) -> NodeMsg {
        NodeMsg::Exchange {
            step,
            params: vector(x),
        }
    }

    fn model(step: u64, x: f32) -> NodeMsg {
        NodeMsg::Model {
            step,
            params: vector(x),
        }
    }

    /// Honest server 0 of `cfg`, started, over a 4-coordinate model.
    fn started_server(cfg: MachineConfig) -> ServerMachine {
        let spec = MachineSpec::new(cfg).unwrap();
        let gar = spec
            .cfg
            .server_gar
            .build(spec.cfg.cluster.krum_f())
            .unwrap();
        let mut server = ServerMachine::new(spec, 0, vector(0.0), 0, gar);
        server.on_start(&mut Vec::new());
        server
    }

    fn sends_exchange(out: &[Output]) -> bool {
        out.iter().any(|o| {
            matches!(
                o,
                Output::Send {
                    msg: NodeMsg::Exchange { .. },
                    ..
                }
            )
        })
    }

    fn completes_step(out: &[Output]) -> bool {
        out.iter().any(|o| matches!(o, Output::Step(_)))
    }

    fn needs_gradient(out: &[Output]) -> bool {
        out.iter().any(|o| matches!(o, Output::NeedGradient { .. }))
    }

    /// Feeds server 0 seven distinct honest gradients for step 0, which
    /// moves it into the exchange phase.
    fn fill_gradient_quorum(server: &mut ServerMachine) {
        let mut out = Vec::new();
        for w in 6..13 {
            server.on_message(w, &gradient(0, w as f32), &mut out);
        }
        assert!(sends_exchange(&out), "q̄ distinct gradients fold");
        assert!(!completes_step(&out));
    }

    #[test]
    fn a_repeated_message_never_fills_an_arrival_quorum() {
        // q̄ = 7 copies of one worker's gradient: one slot, no fold.
        let mut server = started_server(arrival_cfg(cluster()));
        let mut out = Vec::new();
        for k in 0..7 {
            server.on_message(6, &gradient(0, k as f32), &mut out);
        }
        assert!(!sends_exchange(&out), "one sender filled the q̄ slots");
        // Six more distinct senders complete the quorum; the repeats'
        // first message is the one that counts.
        for w in 7..13 {
            server.on_message(w, &gradient(0, 1.0), &mut out);
        }
        assert!(sends_exchange(&out));

        // q = 5 copies of one peer's exchange next to the server's own.
        let mut out = Vec::new();
        for k in 0..5 {
            server.on_message(1, &exchange(0, k as f32), &mut out);
        }
        assert!(!completes_step(&out), "one peer filled the q slots");
        for s in 2..5 {
            server.on_message(s, &exchange(0, 1.0), &mut out);
        }
        let Some(Output::Step(record)) = out.iter().find(|o| matches!(o, Output::Step(_))) else {
            panic!("self + 4 distinct peers fold");
        };
        assert_eq!(record.grad_quorum, (6..13).collect::<Vec<_>>());
        assert_eq!(record.exch_quorum, vec![0, 1, 2, 3, 4]);

        // q = 5 copies of one server's model at a worker.
        let spec = MachineSpec::new(arrival_cfg(cluster())).unwrap();
        let mut worker = WorkerMachine::new(spec, 6, 4);
        let mut out = Vec::new();
        worker.on_start(&mut out);
        for k in 0..5 {
            worker.on_message(0, &model(0, k as f32), &mut out);
        }
        assert!(!needs_gradient(&out), "one server filled the q slots");
        for s in 1..5 {
            worker.on_message(s, &model(0, 1.0), &mut out);
        }
        assert!(needs_gradient(&out));
    }

    #[test]
    fn a_sender_whose_role_cannot_produce_the_message_is_ignored() {
        for cfg in [
            arrival_cfg(cluster()),
            planned_cfg(FaultSchedule::default()),
        ] {
            let mode = cfg.mode;
            // Gradients from server ids (the receiver's own included) and
            // from outside the cluster: ≥ q̄ distinct senders, no fold.
            let mut server = started_server(cfg.clone());
            let mut out = Vec::new();
            for from in (0..6).chain(15..18) {
                server.on_message(from, &gradient(0, 1.0), &mut out);
            }
            assert!(!sends_exchange(&out), "{mode:?}: servers sent gradients");
            // Exchanges from worker ids, from outside the cluster and from
            // the receiver itself: ≥ q distinct senders, no fold.
            fill_gradient_quorum(&mut server);
            let mut out = Vec::new();
            for from in (6..15).chain(15..18).chain([0]) {
                server.on_message(from, &exchange(0, 1.0), &mut out);
            }
            assert!(!completes_step(&out), "{mode:?}: workers sent exchanges");
            // Models from worker ids (the receiver's own included) and
            // from outside the cluster.
            let mut worker = WorkerMachine::new(MachineSpec::new(cfg).unwrap(), 6, 4);
            let mut out = Vec::new();
            worker.on_start(&mut out);
            for from in 6..18 {
                worker.on_message(from, &model(0, 1.0), &mut out);
            }
            assert!(!needs_gradient(&out), "{mode:?}: workers sent models");
        }
    }

    #[test]
    fn ledger_gives_each_sender_one_slot_and_keeps_arrival_order() {
        let mut ledger = Ledger::default();
        for (from, x) in [(9, 1.0), (3, 2.0), (9, 3.0), (5, 4.0), (3, 5.0)] {
            ledger.insert(0, from, &vector(x));
        }
        assert_eq!(ledger.len(0), 3, "distinct senders");
        assert_eq!(ledger.len(1), 0);
        // First wins: the repeats' later payloads are gone.
        assert_eq!(
            ledger.collect(0, &[3, 5, 9]),
            Some(vec![vector(2.0), vector(4.0), vector(1.0)])
        );
        assert_eq!(ledger.collect(0, &[3, 4]), None, "4 never sent");
        assert_eq!(ledger.collect(1, &[]), Some(Vec::new()));
        // The first two *arrivals* are 9 and 3 — not the two lowest ids.
        assert_eq!(
            ledger.first_sorted(0, 2),
            Some((vec![3, 9], vec![vector(2.0), vector(1.0)]))
        );
        assert_eq!(ledger.first_sorted(0, 4), None, "below quorum");
        assert_eq!(ledger.first_sorted(1, 1), None);
        assert_eq!(
            ledger.sorted(0),
            vec![vector(2.0), vector(4.0), vector(1.0)]
        );
        assert!(ledger.sorted(1).is_empty());
    }

    #[test]
    fn ledger_recovery_target_and_pruning() {
        let mut ledger = Ledger::default();
        for (step, senders) in [(2, 3), (4, 3), (5, 2), (7, 1)] {
            for from in 0..senders {
                ledger.insert(step, from, &vector(step as f32));
            }
        }
        // Steps 5 and 7 are newer but hold fewer than 3 distinct senders;
        // a sender repeating itself there changes nothing.
        ledger.insert(7, 0, &vector(0.0));
        ledger.insert(7, 0, &vector(0.0));
        assert_eq!(ledger.newest_quorate_above(0, 3), Some(4));
        assert_eq!(ledger.newest_quorate_above(2, 3), Some(4));
        assert_eq!(ledger.newest_quorate_above(4, 3), None, "strictly above");
        assert_eq!(ledger.newest_quorate_above(0, 1), Some(7));
        ledger.prune_below(5);
        assert_eq!((ledger.len(2), ledger.len(4)), (0, 0));
        assert_eq!((ledger.len(5), ledger.len(7)), (2, 1));
        assert_eq!(ledger.newest_quorate_above(0, 3), None);
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
