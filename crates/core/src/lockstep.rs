//! The round-structured ("lockstep") execution engine.
//!
//! This engine drives the sans-I/O node machines of [`crate::node`] one
//! synchronised round at a time, which makes the long convergence
//! experiments of the paper's §5 fast. All protocol logic — quorum
//! membership, GAR folds, the contraction exchange, crash-recovery
//! adoption, Byzantine forging — lives in the machines; this module only
//! routes their messages synchronously, answers their gradient requests
//! with real forward/backward passes over per-worker data shards, and
//! advances a [`CostModel`]-driven simulated clock.
//!
//! The machines run in [`QuorumMode::Planned`]: fold membership is a pure
//! function of the [`FaultSchedule`] and the step number, so a lockstep
//! run is bit-identical to the event-driven ([`crate::protocol`]) and
//! threaded (`guanyu-runtime`) engines driving the same machines in the
//! same mode — message timing moves the clock, never the quorums.
//!
//! Attack semantics under the shared machines: Byzantine workers are
//! omniscient *within the round* (honest workers tap their gradients to
//! the attacker, who forges per-receiver only after seeing every planned
//! gradient of the step), and Byzantine servers cascade reactively from
//! the honest exchange traffic of the previous round — the same adversary
//! every engine now faces. The declared Byzantine counts
//! (`ClusterConfig::byz_*`, which size the quorums) stay independent from
//! the **actual** number of attackers ([`LockstepConfig::actual_byz_workers`]
//! etc.): the paper's Fig. 3 runs GuanYu *declared* `f̄ = 5, f = 1` in a
//! fault-free environment, while Fig. 4 adds real attackers.

use std::collections::VecDeque;
use std::sync::Arc;

use aggregation::{CoordinateWiseMedian, Gar, GarKind};
use byzantine::AttackKind;
use data::{partition_dataset, Dataset, Partition};
use nn::{LrSchedule, Sequential};
use simnet::DelayModel;
use tensor::{Tensor, TensorRng};

use crate::config::ClusterConfig;
use crate::contraction::{alignment_snapshot, AlignmentRecord};
use crate::cost::CostModel;
use crate::faults::FaultSchedule;
use crate::metrics::{evaluate, RunResult, TrainingRecord};
use crate::node::{self, MachineConfig, MachineSpec, NodeMsg, Output, QuorumMode, StepRecord};
use crate::plant::{GradientSource, Node, Plant};
use crate::trace::Trace;
use crate::Result;

/// Initial plan horizon; the trainer doubles it whenever a run outgrows
/// the current [`MachineSpec`] (callers do not declare a step budget).
const INITIAL_HORIZON: u64 = 64;

/// Full configuration of one lockstep run.
#[derive(Debug, Clone)]
pub struct LockstepConfig {
    /// Cluster sizing and quorums (declared Byzantine counts).
    pub cluster: ClusterConfig,
    /// Mini-batch size per worker.
    pub batch_size: usize,
    /// Learning-rate schedule.
    pub lr: LrSchedule,
    /// Master seed (everything derives from it).
    pub seed: u64,
    /// Gradient-aggregation rule at the servers (`MultiKrum` for GuanYu,
    /// `Average` for the vanilla baselines).
    pub server_gar: GarKind,
    /// Whether workers fold incoming models with the median (GuanYu) or
    /// trust the single server (vanilla).
    pub robust_worker_fold: bool,
    /// Whether the inter-server model-exchange phase runs (GuanYu yes;
    /// `repro ablate_exchange` turns it off).
    pub exchange_enabled: bool,
    /// Number of *actually* Byzantine workers (≤ declared `byz_workers`).
    pub actual_byz_workers: usize,
    /// Their attack.
    pub worker_attack: Option<AttackKind>,
    /// Number of *actually* Byzantine servers (≤ declared `byz_servers`).
    pub actual_byz_servers: usize,
    /// Their attack.
    pub server_attack: Option<AttackKind>,
    /// Physical link delays (time axis only — planned quorums are
    /// delay-independent).
    pub delay: DelayModel,
    /// Compute/serialisation cost model (time axis).
    pub cost: CostModel,
    /// Take a Table-2 alignment snapshot every this many steps (0 = never).
    pub alignment_every: u64,
    /// How the training set is distributed across honest workers. The
    /// paper's setting is [`Partition::Iid`]; the non-IID variants stress
    /// the proof's assumption 3 (see `repro noniid`).
    pub partition: Partition,
    /// Round-indexed fault schedule: crash/recovery, server partitions,
    /// delay spikes, straggler bursts, attack onset/offset windows
    /// (DESIGN.md §6). Empty = the fault-free environment of Fig. 3.
    pub faults: FaultSchedule,
    /// Record a per-round [`Trace`] digest (model hashes, quorum
    /// compositions, message counts). Off by default.
    pub trace_enabled: bool,
}

impl LockstepConfig {
    /// GuanYu with the paper's deployment shape, scaled-down network
    /// delays, and no actual attackers (the Fig. 3 setting).
    pub fn guanyu(cluster: ClusterConfig, seed: u64) -> Self {
        LockstepConfig {
            cluster,
            batch_size: 32,
            lr: LrSchedule::constant(0.05),
            seed,
            server_gar: GarKind::MultiKrum,
            robust_worker_fold: true,
            exchange_enabled: true,
            actual_byz_workers: 0,
            worker_attack: None,
            actual_byz_servers: 0,
            server_attack: None,
            delay: DelayModel::grid5000(),
            cost: CostModel::guanyu(),
            alignment_every: 20,
            partition: Partition::Iid,
            faults: FaultSchedule::none(),
            trace_enabled: false,
        }
    }

    /// A single-server averaging baseline over the same workers:
    /// `native = true` gives "vanilla TF" (optimised runtime), `false`
    /// gives "vanilla GuanYu" (same graph, our communication stack).
    pub fn vanilla(workers: usize, native: bool, seed: u64) -> Self {
        LockstepConfig {
            server_gar: GarKind::Average,
            robust_worker_fold: false,
            exchange_enabled: false,
            cost: if native {
                CostModel::vanilla_tf()
            } else {
                CostModel::guanyu()
            },
            alignment_every: 0,
            ..Self::guanyu(ClusterConfig::single_server(workers), seed)
        }
    }

    fn machine_config(&self, horizon: u64) -> MachineConfig {
        MachineConfig {
            seed: self.seed,
            actual_byz_workers: self.actual_byz_workers,
            worker_attack: self.worker_attack,
            actual_byz_servers: self.actual_byz_servers,
            server_attack: self.server_attack,
            exchange_enabled: self.exchange_enabled,
            robust_worker_fold: self.robust_worker_fold,
            recovery: true,
            mode: QuorumMode::Planned,
            faults: self.faults.clone(),
            ..MachineConfig::honest(self.cluster, horizon, self.lr, self.server_gar)
        }
    }
}

/// The lockstep trainer. See the module docs for semantics.
pub struct LockstepTrainer {
    cfg: LockstepConfig,
    spec: Arc<MachineSpec>,
    /// Every machine of the deployment, indexed by logical id.
    nodes: Vec<Node>,
    /// Honest workers' training substrates ([`Partition::Iid`] gives every
    /// worker the full training set with its own batch stream).
    sources: Vec<GradientSource>,
    /// In-flight machine messages `(from, to, msg)`, delivered in order.
    queue: VecDeque<(usize, usize, NodeMsg)>,
    /// Gradient requests `(honest worker index, step, folded model)` the
    /// driver has not answered yet — answered once the round reaches them.
    pending: Vec<(usize, u64, Tensor)>,
    /// The steps completed in the current round, across all servers; folded
    /// into the trace when the round closes (empty unless tracing).
    records: Vec<StepRecord>,
    /// Mirror of the honest server machines' parameters (public API).
    server_params: Vec<Tensor>,
    /// Evaluation fold (the paper's Equation 1 global model) — not a
    /// protocol fold.
    model_fold: CoordinateWiseMedian,
    eval_model: Sequential,
    /// Full training set, kept for inspection (workers hold their shards).
    train: Arc<Dataset>,
    test: Dataset,
    rng: TensorRng,
    step: u64,
    sim_time: f64,
    alignment: Vec<AlignmentRecord>,
    trace: Trace,
    dim: usize,
    diverged: bool,
    started: bool,
    last_phase_time: f64,
}

impl LockstepTrainer {
    /// Builds a trainer. `model_builder` constructs the (identical) network
    /// architecture; the initial parameter vector is drawn once and shared
    /// by every honest server (`θ₀`, §3.3 initialisation).
    ///
    /// # Errors
    ///
    /// Returns [`crate::GuanYuError::InvalidConfig`] for inconsistent Byzantine
    /// counts or an invalid cluster, and propagates substrate errors.
    pub fn new(
        cfg: LockstepConfig,
        model_builder: impl Fn(&mut TensorRng) -> Sequential,
        train: Dataset,
        test: Dataset,
    ) -> Result<Self> {
        let train = Arc::new(train);
        let mut plant = Plant::new(
            cfg.machine_config(INITIAL_HORIZON),
            cfg.batch_size,
            &model_builder,
            |honest_workers| {
                Ok(match cfg.partition {
                    // IID keeps the paper's semantics exactly: every worker
                    // samples the full training set with its own stream.
                    Partition::Iid => vec![Arc::clone(&train); honest_workers],
                    other => partition_dataset(&train, honest_workers, other, cfg.seed)?
                        .into_iter()
                        .map(Arc::new)
                        .collect(),
                })
            },
        )?;
        let dim = plant.dim();
        let nodes = plant.roster(0..dim)?;
        let eval_model = model_builder(&mut plant.rng.fork(0xE7A1));
        let server_params = honest_params(&nodes);

        Ok(LockstepTrainer {
            cfg,
            spec: plant.spec,
            nodes,
            sources: plant.sources,
            queue: VecDeque::new(),
            pending: Vec::new(),
            records: Vec::new(),
            server_params,
            model_fold: CoordinateWiseMedian::new(),
            eval_model,
            train,
            test,
            rng: plant.rng,
            step: 0,
            sim_time: 0.0,
            alignment: Vec::new(),
            trace: Trace::new(),
            dim,
            diverged: false,
            started: false,
            last_phase_time: 0.0,
        })
    }

    /// Whether training has diverged to non-finite parameters — the fate of
    /// the unprotected baselines under attack (paper Fig. 4). A diverged
    /// trainer keeps counting steps and simulated time (the cluster is
    /// still "running"), but the model is destroyed.
    pub fn diverged(&self) -> bool {
        self.diverged
    }

    /// Model updates completed so far.
    pub fn step_count(&self) -> u64 {
        self.step
    }

    /// Simulated seconds elapsed.
    pub fn sim_time_secs(&self) -> f64 {
        self.sim_time
    }

    /// The full training set (workers train on per-worker shards derived
    /// from it according to [`LockstepConfig::partition`]).
    pub fn train_set(&self) -> &Dataset {
        &self.train
    }

    /// Parameter vectors currently held by the honest servers.
    pub fn honest_server_params(&self) -> &[Tensor] {
        &self.server_params
    }

    /// The "global" model the paper evaluates: the coordinate-wise median
    /// of the honest servers' parameter vectors (Equation 1's `θ_t`).
    ///
    /// # Errors
    ///
    /// Propagates aggregation failures (cannot happen on a healthy state).
    pub fn global_model(&self) -> Result<Tensor> {
        Ok(self.model_fold.aggregate(&self.server_params)?)
    }

    /// Alignment snapshots collected so far (Table 2 rows).
    pub fn alignment_records(&self) -> &[AlignmentRecord] {
        &self.alignment
    }

    /// The canonical digest trace (empty unless
    /// [`LockstepConfig::trace_enabled`]): one [`crate::trace::RoundDigest`]
    /// per completed step, assembled with [`node::assemble_trace`] — the
    /// same folding every engine uses.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Doubles the plan horizon until it covers `round + 1` and swaps the
    /// re-built [`MachineSpec`] into every machine. The planner's forward
    /// induction makes the extended tables a strict prefix-extension, so
    /// in-flight state stays valid.
    fn ensure_horizon(&mut self, round: u64) -> Result<()> {
        let mut horizon = self.spec.cfg.max_steps;
        if round + 1 < horizon {
            return Ok(());
        }
        while round + 1 >= horizon {
            horizon = horizon.saturating_mul(2);
        }
        let spec = MachineSpec::new(self.cfg.machine_config(horizon))?;
        for node in &mut self.nodes {
            node.respec(Arc::clone(&spec));
        }
        self.spec = spec;
        Ok(())
    }

    /// Files one machine's outputs: sends into the queue, gradient
    /// requests into the pending list, step records into the round's trace
    /// log (dropped when tracing is off).
    fn route(&mut self, src: usize, out: Vec<Output>) {
        for o in out {
            match o {
                Output::Send { to, msg } => self.queue.push_back((src, to, msg)),
                Output::NeedGradient { step, model } => {
                    self.pending
                        .push((src - self.cfg.cluster.servers, step, model));
                }
                Output::Step(r) => {
                    if self.cfg.trace_enabled {
                        self.records.push(r);
                    }
                }
                Output::Recovered { .. } => {}
            }
        }
    }

    /// Delivers queued messages until the network is silent.
    fn drain_queue(&mut self) {
        while let Some((from, to, msg)) = self.queue.pop_front() {
            let mut out = Vec::new();
            self.nodes[to].on_message(from, &msg, &mut out);
            self.route(to, out);
        }
    }

    /// Answers every pending gradient request for steps the round has
    /// reached. Returns whether anything was answered. A non-finite
    /// gradient (loss overflow) marks the run diverged.
    fn fulfill_pending(&mut self, round: u64) -> Result<bool> {
        let mut fulfilled = false;
        let mut i = 0;
        while i < self.pending.len() {
            if self.pending[i].1 > round {
                i += 1;
                continue;
            }
            let (w, step, view) = self.pending.remove(i);
            let grad = self.sources[w].compute(&view)?;
            if !grad.is_finite() {
                // Loss overflow: the run is past saving (only happens to
                // the unprotected baselines under attack).
                self.diverged = true;
                return Ok(true);
            }
            let id = self.cfg.cluster.servers + w;
            let Node::Worker(machine) = &mut self.nodes[id] else {
                unreachable!("gradient requests come from honest workers");
            };
            let mut out = Vec::new();
            machine.gradient_ready(step, grad, &mut out);
            self.route(id, out);
            fulfilled = true;
        }
        Ok(fulfilled)
    }

    /// Slowest sampled arrival among `senders` under the round's delay
    /// stretch and per-sender extras (planned quorums wait for *all* their
    /// members; Byzantine members are excluded by the callers — the covert
    /// channel is instantaneous).
    fn slowest_arrival(
        &mut self,
        senders: &[usize],
        bytes: usize,
        stretch: (f64, f64),
        per_sender: impl Fn(usize) -> f64,
    ) -> f64 {
        let (factor, extra) = stretch;
        let mut worst = 0.0f64;
        for &id in senders {
            let physical = self.cfg.delay.sample(bytes, &mut self.rng);
            worst = worst.max(physical * factor + extra + per_sender(id));
        }
        worst
    }

    /// Charges the round's critical path to the simulated clock: the three
    /// phases' slowest planned arrival plus the [`CostModel`]'s compute,
    /// conversion, aggregation and update costs. Membership comes from the
    /// plan, so the clock is an *observer* of the protocol, never an input
    /// to it.
    fn round_phase_time(&mut self, t: u64) -> f64 {
        let cfg = self.cfg.clone();
        let spec = Arc::clone(&self.spec);
        let fs = &cfg.faults;
        let stretch = fs.delay_stretch(t);
        let d = self.dim;
        let bytes = CostModel::message_bytes(d);
        let ns = cfg.cluster.servers;
        let hs = spec.cfg.honest_servers();
        let hw = spec.cfg.honest_workers();
        let q_model = cfg.cluster.server_quorum;
        let q_grad = cfg.cluster.worker_quorum;
        let mut phase = 0.0f64;

        // Phase 1: model broadcasts into every computing worker's view.
        let model_honest: Vec<usize> = spec
            .model_plan(t)
            .iter()
            .copied()
            .filter(|&s| s < hs)
            .collect();
        let mut worst = 0.0f64;
        for _ in 0..spec.computing(t).len() {
            worst = worst.max(self.slowest_arrival(&model_honest, bytes, stretch, |_| 0.0));
        }
        phase += worst + cfg.cost.convert_secs(d);
        if cfg.robust_worker_fold {
            phase += cfg.cost.median_secs(q_model, d);
        }

        // Phase 2: gradient compute, transfer into every active server.
        phase += cfg.cost.gradient_secs(cfg.batch_size, d) + cfg.cost.convert_secs(d);
        let active: Vec<usize> = (0..hs).filter(|&s| spec.active(t, s)).collect();
        let mut worst = 0.0f64;
        for &s in &active {
            let grad_honest: Vec<usize> = spec
                .grad_plan(t, s)
                .into_iter()
                .filter(|&w| w >= ns && w < ns + hw)
                .collect();
            worst = worst.max(self.slowest_arrival(&grad_honest, bytes, stretch, |w| {
                fs.straggler_extra(t, w - ns)
            }));
        }
        phase += worst + cfg.cost.convert_secs(d);
        phase += match cfg.server_gar {
            GarKind::MultiKrum | GarKind::Bulyan => cfg.cost.multikrum_secs(q_grad, d),
            GarKind::Median | GarKind::TrimmedMean | GarKind::Meamed | GarKind::GeometricMedian => {
                cfg.cost.median_secs(q_grad, d)
            }
            GarKind::Average => cfg.cost.average_secs(q_grad, d),
        };
        phase += cfg.cost.update_secs(d);

        // Phase 3: the contraction exchange among active servers.
        if cfg.exchange_enabled && hs > 1 {
            let mut worst = 0.0f64;
            for &s in &active {
                let peers: Vec<usize> = spec
                    .exchange_plan(t, s)
                    .into_iter()
                    .filter(|&p| p < hs && p != s)
                    .collect();
                worst = worst.max(self.slowest_arrival(&peers, bytes, stretch, |_| 0.0));
            }
            phase += worst + cfg.cost.median_secs(q_model, d);
        }
        phase
    }

    /// Runs one full protocol round (all three phases). Advances the
    /// simulated clock by the round's critical path.
    ///
    /// Faults scheduled for this round ([`LockstepConfig::faults`]) apply
    /// through the machines' planned membership: crashed servers neither
    /// fold nor update until they fast-forward by adopting a newer quorate
    /// exchange on recovery (the same state transfer the event engine
    /// performs), partitions cut honest exchange links, delay spikes and
    /// straggler bursts stretch the clock, and attack windows gate the
    /// configured forgeries. Environmental faults never touch the
    /// adversary's covert channel — the paper's worst case.
    ///
    /// # Errors
    ///
    /// Propagates substrate failures.
    pub fn step(&mut self) -> Result<()> {
        // Divergence check: once any honest server holds non-finite
        // parameters the deployment is destroyed; keep the clock and step
        // counter moving (machines still burn time) but skip computation.
        if self.diverged || self.server_params.iter().any(|p| !p.is_finite()) {
            self.diverged = true;
            self.step += 1;
            self.sim_time += self.last_phase_time.max(1e-6);
            return Ok(());
        }
        let round = self.step;
        self.ensure_horizon(round)?;
        if !self.started {
            self.started = true;
            for id in 0..self.nodes.len() {
                let mut out = Vec::new();
                self.nodes[id].on_start(&mut out);
                self.route(id, out);
            }
        }
        // Round fixpoint: deliver everything in flight, answer gradient
        // requests up to this round, repeat. Requests for later steps stay
        // pending — that is the lockstep barrier.
        loop {
            self.drain_queue();
            if !self.fulfill_pending(round)? {
                break;
            }
            if self.diverged {
                self.step += 1;
                self.sim_time += self.last_phase_time.max(1e-6);
                return Ok(());
            }
        }

        self.server_params = honest_params(&self.nodes);
        let phase_time = self.round_phase_time(round);
        self.step += 1;
        self.sim_time += phase_time;
        self.last_phase_time = phase_time;
        // Fold only this round's records: the digests of earlier rounds
        // are final.
        self.trace
            .rounds
            .extend(node::assemble_trace(&self.records).rounds);
        self.records.clear();

        if self.cfg.alignment_every > 0
            && self.step.is_multiple_of(self.cfg.alignment_every)
            && self.server_params.len() >= 3
        {
            if let Some(rec) = alignment_snapshot(self.step, &self.server_params)? {
                self.alignment.push(rec);
            }
        }
        Ok(())
    }

    /// Evaluates the global model on the held-out test set.
    ///
    /// # Errors
    ///
    /// Propagates substrate failures.
    pub fn evaluate(&mut self) -> Result<TrainingRecord> {
        if self.diverged || self.server_params.iter().any(|p| !p.is_finite()) {
            // A destroyed model predicts garbage: report chance accuracy
            // and a finite sentinel loss (keeps records JSON-serialisable).
            return Ok(TrainingRecord {
                step: self.step,
                sim_time_secs: self.sim_time,
                accuracy: 1.0 / self.test.num_classes().max(1) as f32,
                loss: 99.9,
            });
        }
        let params = self.global_model()?;
        let (acc, loss) = evaluate(&mut self.eval_model, &params, &self.test, 64)?;
        Ok(TrainingRecord {
            step: self.step,
            sim_time_secs: self.sim_time,
            accuracy: acc,
            loss: if loss.is_finite() { loss } else { 99.9 },
        })
    }

    /// Runs `steps` updates, evaluating every `eval_every` (and at the end).
    ///
    /// # Errors
    ///
    /// Propagates substrate failures.
    pub fn run(&mut self, steps: u64, eval_every: u64, system: &str) -> Result<RunResult> {
        let mut records = vec![self.evaluate()?];
        for s in 1..=steps {
            self.step()?;
            if (eval_every > 0 && s % eval_every == 0) || s == steps {
                records.push(self.evaluate()?);
            }
        }
        Ok(RunResult {
            system: system.to_owned(),
            records,
            total_steps: self.step,
            total_secs: self.sim_time,
        })
    }
}

/// The honest servers' current parameter vectors, in server order.
fn honest_params(nodes: &[Node]) -> Vec<Tensor> {
    nodes
        .iter()
        .filter_map(|n| match n {
            Node::Server(m) => Some(m.params().clone()),
            _ => None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use data::{synthetic_cifar, SyntheticConfig};
    use nn::models;

    fn tiny_data() -> (Dataset, Dataset) {
        synthetic_cifar(&SyntheticConfig {
            train: 128,
            test: 64,
            side: 8,
            noise: 0.3,
            ..Default::default()
        })
        .unwrap()
    }

    fn small_cluster() -> ClusterConfig {
        ClusterConfig::new(6, 1, 9, 2).unwrap()
    }

    fn builder(rng: &mut TensorRng) -> Sequential {
        models::small_cnn(8, 4, 10, rng)
    }

    #[test]
    fn broadcast_state_is_shared_not_copied() {
        // The per-round fan-out paths must not deep-copy parameter buffers:
        // all honest servers start from one θ₀ allocation, and cloning it
        // again (as every broadcast does) is a refcount bump.
        let (train, test) = tiny_data();
        let cfg = LockstepConfig::guanyu(small_cluster(), 0);
        let t = LockstepTrainer::new(cfg, builder, train, test).unwrap();
        let params = t.honest_server_params();
        assert!(params.len() > 1);
        for p in &params[1..] {
            assert!(
                params[0].shares_storage(p),
                "initial server replicas must share one θ₀ buffer"
            );
        }
        let broadcast = params[0].clone();
        assert!(broadcast.shares_storage(&params[0]));
    }

    #[test]
    fn construction_validates_actual_vs_declared() {
        let (train, test) = tiny_data();
        let mut cfg = LockstepConfig::guanyu(small_cluster(), 0);
        cfg.actual_byz_workers = 3; // declared max is 2
        cfg.worker_attack = Some(AttackKind::Mute);
        assert!(LockstepTrainer::new(cfg, builder, train, test).is_err());
    }

    #[test]
    fn construction_requires_attack_when_byzantine() {
        let (train, test) = tiny_data();
        let mut cfg = LockstepConfig::guanyu(small_cluster(), 0);
        cfg.actual_byz_workers = 1;
        assert!(LockstepTrainer::new(cfg, builder, train, test).is_err());
    }

    #[test]
    fn steps_advance_clock_and_counter() {
        let (train, test) = tiny_data();
        let cfg = LockstepConfig::guanyu(small_cluster(), 1);
        let mut t = LockstepTrainer::new(cfg, builder, train, test).unwrap();
        t.step().unwrap();
        t.step().unwrap();
        assert_eq!(t.step_count(), 2);
        assert!(t.sim_time_secs() > 0.0);
    }

    #[test]
    fn honest_servers_stay_in_agreement_without_attack() {
        let (train, test) = tiny_data();
        let cfg = LockstepConfig::guanyu(small_cluster(), 2);
        let mut t = LockstepTrainer::new(cfg, builder, train, test).unwrap();
        for _ in 0..5 {
            t.step().unwrap();
        }
        let params = t.honest_server_params();
        let diam = aggregation::properties::diameter(params).unwrap();
        let scale = params[0].norm();
        assert!(
            diam < scale,
            "honest servers should stay clustered: diameter {diam} vs norm {scale}"
        );
    }

    #[test]
    fn vanilla_baseline_runs_and_learns() {
        let (train, test) = tiny_data();
        let cfg = LockstepConfig::vanilla(9, true, 3);
        let mut t = LockstepTrainer::new(cfg, builder, train, test).unwrap();
        let result = t.run(40, 20, "vanilla TF").unwrap();
        assert_eq!(result.total_steps, 40);
        let first = result.records.first().unwrap();
        let last = result.records.last().unwrap();
        assert!(
            last.loss < first.loss,
            "training should reduce loss: {} -> {}",
            first.loss,
            last.loss
        );
    }

    #[test]
    fn guanyu_learns_under_gross_worker_attack() {
        let (train, test) = tiny_data();
        let mut cfg = LockstepConfig::guanyu(small_cluster(), 4);
        cfg.actual_byz_workers = 2;
        cfg.worker_attack = Some(AttackKind::Random { scale: 100.0 });
        let mut t = LockstepTrainer::new(cfg, builder, train, test).unwrap();
        let result = t.run(40, 20, "guanyu-attacked").unwrap();
        let first = result.records.first().unwrap();
        let last = result.records.last().unwrap();
        assert!(
            last.loss < first.loss * 1.05,
            "GuanYu should not diverge under attack: {} -> {}",
            first.loss,
            last.loss
        );
    }

    #[test]
    fn vanilla_diverges_under_the_same_attack() {
        let (train, test) = tiny_data();
        let mut cfg = LockstepConfig::vanilla(9, true, 4);
        cfg.cluster.byz_workers = 0; // vanilla declares nothing
        cfg.actual_byz_workers = 1;
        // vanilla has no byz_workers headroom declared; bypass the
        // declared-vs-actual check by declaring it.
        cfg.cluster = ClusterConfig {
            byz_workers: 1,
            ..ClusterConfig::single_server(9)
        };
        cfg.worker_attack = Some(AttackKind::LargeValue { value: 1e6 });
        let mut t = LockstepTrainer::new(cfg, builder, train, test).unwrap();
        let result = t.run(10, 5, "vanilla-attacked").unwrap();
        let last = result.records.last().unwrap();
        // One huge forged gradient in the average destroys the model: loss
        // explodes (or becomes NaN-adjacent large).
        assert!(
            last.loss > 5.0 || !last.loss.is_finite() || last.accuracy <= 0.15,
            "vanilla averaging should break: loss {} acc {}",
            last.loss,
            last.accuracy
        );
    }

    #[test]
    fn guanyu_survives_byzantine_server_equivocation() {
        let (train, test) = tiny_data();
        let mut cfg = LockstepConfig::guanyu(small_cluster(), 5);
        cfg.actual_byz_servers = 1;
        cfg.server_attack = Some(AttackKind::Equivocate { scale: 50.0 });
        let mut t = LockstepTrainer::new(cfg, builder, train, test).unwrap();
        let result = t.run(30, 15, "guanyu-byz-server").unwrap();
        let first = result.records.first().unwrap();
        let last = result.records.last().unwrap();
        assert!(
            last.loss < first.loss * 1.1,
            "GuanYu should survive an equivocating server: {} -> {}",
            first.loss,
            last.loss
        );
        // honest servers must not have drifted apart
        let diam = aggregation::properties::diameter(t.honest_server_params()).unwrap();
        assert!(diam < 2.0 * t.honest_server_params()[0].norm().max(1.0));
    }

    #[test]
    fn alignment_snapshots_are_collected() {
        let (train, test) = tiny_data();
        let mut cfg = LockstepConfig::guanyu(small_cluster(), 6);
        cfg.alignment_every = 2;
        let mut t = LockstepTrainer::new(cfg, builder, train, test).unwrap();
        for _ in 0..6 {
            t.step().unwrap();
        }
        assert!(!t.alignment_records().is_empty());
    }

    #[test]
    fn deterministic_under_seed() {
        let run = |seed| {
            let (train, test) = tiny_data();
            let cfg = LockstepConfig::guanyu(small_cluster(), seed);
            let mut t = LockstepTrainer::new(cfg, builder, train, test).unwrap();
            t.run(5, 5, "det").unwrap()
        };
        let a = run(9);
        let b = run(9);
        assert_eq!(
            a.records.last().unwrap().loss,
            b.records.last().unwrap().loss
        );
        let c = run(10);
        assert_ne!(
            a.records.last().unwrap().loss,
            c.records.last().unwrap().loss
        );
    }

    #[test]
    fn trace_records_one_digest_per_round_and_replays() {
        use crate::faults::{FaultKind, FaultSchedule};
        let run = || {
            let (train, test) = tiny_data();
            let mut cfg = LockstepConfig::guanyu(small_cluster(), 21);
            cfg.trace_enabled = true;
            cfg.faults = FaultSchedule::none()
                .with(2, 4, FaultKind::CrashServers { servers: vec![1] })
                .with(
                    1,
                    5,
                    FaultKind::DelaySpike {
                        factor: 5.0,
                        extra_secs: 0.01,
                    },
                );
            let mut t = LockstepTrainer::new(cfg, builder, train, test).unwrap();
            for _ in 0..6 {
                t.step().unwrap();
            }
            assert_eq!(t.trace().len(), 6);
            t.trace().fingerprint()
        };
        assert_eq!(run(), run(), "same seed + schedule ⇒ identical trace");
    }

    #[test]
    fn crashed_server_freezes_then_recovers_via_exchange() {
        use crate::faults::{FaultKind, FaultSchedule};
        let (train, test) = tiny_data();
        let mut cfg = LockstepConfig::guanyu(small_cluster(), 22);
        cfg.faults = FaultSchedule::none().with(1, 4, FaultKind::CrashServers { servers: vec![0] });
        let mut t = LockstepTrainer::new(cfg, builder, train, test).unwrap();
        t.step().unwrap();
        let frozen = t.honest_server_params()[0].clone();
        t.step().unwrap();
        t.step().unwrap();
        assert_eq!(
            t.honest_server_params()[0],
            frozen,
            "crashed server must not move"
        );
        // Live servers keep making progress meanwhile.
        assert_ne!(t.honest_server_params()[1], frozen);
        // After recovery the adoption fast-forward pulls the stale replica
        // back to the live cluster.
        let gap_before = t.honest_server_params()[0]
            .distance(&t.honest_server_params()[1])
            .unwrap();
        for _ in 0..3 {
            t.step().unwrap();
        }
        let gap_after = t.honest_server_params()[0]
            .distance(&t.honest_server_params()[1])
            .unwrap();
        assert!(
            gap_after < gap_before,
            "recovery should re-converge: {gap_before} -> {gap_after}"
        );
    }

    #[test]
    fn crashed_server_adopts_peer_state_on_recovery() {
        use crate::faults::{FaultKind, FaultSchedule};
        // The recovery fast-forward is protocol-level state transfer: once
        // the crash window closes and the peers' next exchange reaches the
        // stale replica, it adopts the quorum median and re-joins the
        // honest cluster (within the per-server-quorum heterogeneity the
        // contraction keeps bounded).
        let (train, test) = tiny_data();
        let mut cfg = LockstepConfig::guanyu(small_cluster(), 27);
        cfg.faults = FaultSchedule::none().with(1, 3, FaultKind::CrashServers { servers: vec![0] });
        let mut t = LockstepTrainer::new(cfg, builder, train, test).unwrap();
        for _ in 0..5 {
            t.step().unwrap();
        }
        let params = t.honest_server_params();
        let scale = params[1].norm().max(1e-6);
        for p in &params[1..] {
            let gap = params[0].distance(p).unwrap();
            assert!(
                gap < 0.2 * scale,
                "recovered replica must re-join the cluster: gap {gap} vs norm {scale}"
            );
        }
    }

    #[test]
    fn worker_attack_window_gates_forging() {
        use crate::faults::{FaultKind, FaultSchedule};
        let (train, test) = tiny_data();
        // Windowed gross attack that never opens ≡ mute attacker.
        let mut windowed = LockstepConfig::guanyu(small_cluster(), 23);
        windowed.trace_enabled = true;
        windowed.actual_byz_workers = 2;
        windowed.worker_attack = Some(AttackKind::LargeValue { value: 1e9 });
        windowed.faults = FaultSchedule::none().with(100, 200, FaultKind::WorkerAttack);
        let mut muted = LockstepConfig::guanyu(small_cluster(), 23);
        muted.trace_enabled = true;
        muted.actual_byz_workers = 2;
        muted.worker_attack = Some(AttackKind::Mute);
        let fingerprint = |cfg: LockstepConfig| {
            let mut t = LockstepTrainer::new(cfg, builder, train.clone(), test.clone()).unwrap();
            for _ in 0..4 {
                t.step().unwrap();
            }
            t.trace().fingerprint()
        };
        assert_eq!(fingerprint(windowed.clone()), fingerprint(muted));
        // An open window must change the run.
        let mut open = windowed;
        open.faults = FaultSchedule::none().with(0, 200, FaultKind::WorkerAttack);
        let mut always = LockstepConfig::guanyu(small_cluster(), 23);
        always.trace_enabled = true;
        always.actual_byz_workers = 2;
        always.worker_attack = Some(AttackKind::Mute);
        assert_ne!(fingerprint(open), fingerprint(always));
    }

    #[test]
    fn isolated_server_refuses_attacker_dominated_fold() {
        use crate::faults::{FaultKind, FaultSchedule};
        // Server 5 is cut off from every honest peer while a gross
        // Byzantine server attacks: its degraded exchange "quorum" would
        // be {own, forged} — majority adversary. The guard must make it
        // keep its own update instead of folding toward 1e9.
        let (train, test) = tiny_data();
        let mut cfg = LockstepConfig::guanyu(small_cluster(), 31);
        cfg.actual_byz_servers = 1;
        cfg.server_attack = Some(AttackKind::LargeValue { value: 1e9 });
        // 5 honest servers (index 4 is the last honest one after the
        // Byzantine assignment); isolate honest server 4.
        cfg.faults = FaultSchedule::none().with(
            0,
            10,
            FaultKind::PartitionServers {
                groups: vec![vec![0, 1, 2, 3], vec![4]],
            },
        );
        let mut t = LockstepTrainer::new(cfg, builder, train, test).unwrap();
        for _ in 0..3 {
            t.step().unwrap();
        }
        let isolated = &t.honest_server_params()[4];
        assert!(isolated.is_finite());
        assert!(
            isolated.norm() < 1e3,
            "isolated server was dragged by the forgery: norm {}",
            isolated.norm()
        );
    }

    #[test]
    fn partition_and_straggler_faults_keep_honest_agreement() {
        use crate::faults::{FaultKind, FaultSchedule};
        let (train, test) = tiny_data();
        let mut cfg = LockstepConfig::guanyu(small_cluster(), 24);
        cfg.faults = FaultSchedule::none()
            .with(
                2,
                6,
                FaultKind::PartitionServers {
                    groups: vec![vec![0, 1, 2], vec![3, 4, 5]],
                },
            )
            .with(
                3,
                8,
                FaultKind::StragglerWorkers {
                    workers: vec![0, 1],
                    extra_secs: 5.0,
                },
            );
        let mut t = LockstepTrainer::new(cfg, builder, train, test).unwrap();
        for _ in 0..10 {
            t.step().unwrap();
        }
        assert!(!t.diverged());
        let params = t.honest_server_params();
        let diam = aggregation::properties::diameter(params).unwrap();
        let scale = params[0].norm().max(1.0);
        assert!(
            diam < scale,
            "honest servers must re-agree after the partition heals: {diam} vs {scale}"
        );
    }

    #[test]
    fn byzantine_deployment_time_exceeds_vanilla() {
        let (train, test) = tiny_data();
        let mut v = LockstepTrainer::new(
            LockstepConfig::vanilla(9, true, 7),
            builder,
            train.clone(),
            test.clone(),
        )
        .unwrap();
        let mut g = LockstepTrainer::new(
            LockstepConfig::guanyu(small_cluster(), 7),
            builder,
            train,
            test,
        )
        .unwrap();
        for _ in 0..3 {
            v.step().unwrap();
            g.step().unwrap();
        }
        assert!(
            g.sim_time_secs() > v.sim_time_secs(),
            "Byzantine resilience must cost simulated time: {} vs {}",
            g.sim_time_secs(),
            v.sim_time_secs()
        );
    }
}
