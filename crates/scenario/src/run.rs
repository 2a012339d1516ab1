//! Engine drivers: compile a [`Scenario`] and run it to a [`ScenarioRun`].

use std::time::Duration;

use data::synthetic_cifar;
use guanyu::cost::CostModel;
use guanyu::faults::FaultKind;
use guanyu::lockstep::{LockstepConfig, LockstepTrainer};
use guanyu::node::QuorumMode;
use guanyu::protocol::{build_simulation_net, ProtocolConfig};
use guanyu::trace::Trace;
use guanyu::Result;
use guanyu_runtime::{run_cluster, RuntimeConfig, TransportKind};
use nn::{models, LrSchedule, Sequential};
use simnet::{FaultPlan, NodeId, SimTime};
use tensor::{Tensor, TensorRng};

use crate::scenario::Scenario;

/// Which engine produced a [`ScenarioRun`].
///
/// All three run the same [`guanyu::node`] machines in
/// [`QuorumMode::Planned`], so on a common scenario their traces are
/// bit-identical — the property the differential chaos checker leans on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// The round-structured engine (`guanyu::lockstep`).
    Lockstep,
    /// The event-driven engine over `simnet` (`guanyu::protocol`).
    EventDriven,
    /// The thread-per-node engine over real transports
    /// (`guanyu_runtime::cluster`).
    Threaded,
}

impl std::fmt::Display for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Engine::Lockstep => write!(f, "lockstep"),
            Engine::EventDriven => write!(f, "event-driven"),
            Engine::Threaded => write!(f, "threaded"),
        }
    }
}

/// One completed scenario execution.
#[derive(Debug, Clone)]
pub struct ScenarioRun {
    /// The engine that ran it.
    pub engine: Engine,
    /// Per-round digest trace.
    pub trace: Trace,
    /// Honest server ids that completed the final step, ascending.
    pub finishers: Vec<usize>,
    /// Those servers' final parameter vectors, in `finishers` order.
    pub final_params: Vec<Tensor>,
    /// Whether the run diverged to non-finite parameters (lockstep keeps
    /// running a destroyed deployment; the event engine filters non-finite
    /// messages, so it reports `false`).
    pub diverged: bool,
    /// Messages lost to the fault plan (event engine; 0 for lockstep,
    /// whose faults shrink quorums instead of dropping queued messages).
    pub messages_dropped: u64,
    /// Switched-network event runs: transient drop-tail queue overflows
    /// (recovered by retransmission; 0 elsewhere).
    pub queue_drops: u64,
    /// Switched-network event runs: go-back-n retransmission attempts
    /// (0 elsewhere).
    pub retransmits: u64,
    /// Seconds the run covered: simulated on the lockstep and event
    /// engines, wall-clock on the threaded one.
    pub sim_secs: f64,
}

impl ScenarioRun {
    /// The trace fingerprint (determinism witness).
    pub fn fingerprint(&self) -> u64 {
        self.trace.fingerprint()
    }
}

fn model_builder(scn: &Scenario) -> impl Fn(&mut TensorRng) -> Sequential {
    let side = scn.data.side;
    let filters = scn.model_filters;
    let classes = scn.data.classes;
    move |rng| models::small_cnn(side, filters, classes, rng)
}

/// Runs the scenario on the lockstep engine.
///
/// # Errors
///
/// Propagates configuration and substrate errors.
pub fn run_lockstep(scn: &Scenario) -> Result<ScenarioRun> {
    let (train, test) = synthetic_cifar(&scn.data)?;
    let mut cfg = LockstepConfig::guanyu(scn.cluster, scn.seed);
    cfg.batch_size = scn.batch_size;
    cfg.actual_byz_workers = scn.actual_byz_workers;
    cfg.worker_attack = scn.worker_attack;
    cfg.actual_byz_servers = scn.actual_byz_servers;
    cfg.server_attack = scn.server_attack;
    cfg.faults = scn.faults.clone();
    cfg.trace_enabled = true;
    cfg.alignment_every = 0;
    let mut trainer = LockstepTrainer::new(cfg, model_builder(scn), train, test)?;
    for _ in 0..scn.steps {
        trainer.step()?;
    }
    let final_params = trainer.honest_server_params().to_vec();
    Ok(ScenarioRun {
        engine: Engine::Lockstep,
        trace: trainer.trace().clone(),
        finishers: (0..final_params.len()).collect(),
        final_params,
        diverged: trainer.diverged(),
        messages_dropped: 0,
        queue_drops: 0,
        retransmits: 0,
        sim_secs: trainer.sim_time_secs(),
    })
}

/// Compiles the *timing* faults of the schedule to a [`FaultPlan`] over
/// simulated time, mapping round `r` to `[r · round_secs, …)`. Only delay
/// spikes and stragglers compile: membership faults (crashes, partitions,
/// churn) and attack windows gate on exact step numbers inside the shared
/// node machines' planner, so compiling them here too would apply them
/// twice — once exactly and once at the approximate time scale.
fn compile_fault_plan(scn: &Scenario, round_secs: f64) -> FaultPlan {
    let servers = scn.cluster.servers;
    let t = |step: u64| SimTime::from_secs_f64(step as f64 * round_secs);
    let worker_node = |w: usize| NodeId(servers + w);
    let mut plan = FaultPlan::none();
    for w in &scn.faults.windows {
        let (start, end) = (t(w.start), t(w.end));
        match &w.kind {
            FaultKind::DelaySpike { factor, extra_secs } => {
                plan = plan.delay_spike(*factor, *extra_secs, start, end);
            }
            FaultKind::StragglerWorkers {
                workers,
                extra_secs,
            } => {
                for &wk in workers {
                    plan = plan.straggler(worker_node(wk), *extra_secs, start, end);
                }
            }
            // Membership faults and attack windows gate inside the node
            // machines, exactly per step.
            _ => {}
        }
    }
    plan
}

fn protocol_config(scn: &Scenario) -> ProtocolConfig {
    ProtocolConfig {
        cluster: scn.cluster,
        max_steps: scn.steps,
        lr: LrSchedule::constant(0.05),
        server_gar: aggregation::GarKind::MultiKrum,
        cost: CostModel::guanyu(),
        batch_size: scn.batch_size,
        actual_byz_workers: scn.actual_byz_workers,
        worker_attack: scn.worker_attack,
        actual_byz_servers: scn.actual_byz_servers,
        server_attack: scn.server_attack,
        worker_attack_windows: scn.faults.worker_attack_windows(),
        server_attack_windows: scn.faults.server_attack_windows(),
        // Crash windows make nodes lose rounds: they must rejoin by
        // fast-forward.
        recovery: true,
        // Planned membership: the trace is a pure function of seed +
        // scenario, bit-identical across all three engines.
        mode: QuorumMode::Planned,
        faults: scn.faults.clone(),
    }
}

/// Calibrates the event engine's round→time mapping: mean round duration
/// of a fault-free dry run at the scenario's seed. Deterministic, so the
/// result can be computed once and shared across repeated runs of the
/// same scenario (the determinism checker runs each scenario twice).
///
/// # Errors
///
/// Propagates configuration and substrate errors.
pub fn calibrate_round_secs(scn: &Scenario) -> Result<f64> {
    let cfg = protocol_config(scn);
    let (train, _) = synthetic_cifar(&scn.data)?;
    let (mut sim, rec) =
        build_simulation_net(&cfg, model_builder(scn), train, scn.seed, &scn.network)?;
    sim.run();
    let last = rec.borrow().step_finished_at(scn.steps.saturating_sub(1));
    Ok(match last {
        Some(t) if scn.steps > 0 => t.as_secs_f64() / scn.steps as f64,
        _ => 0.05,
    })
}

/// Runs the scenario on the event-driven engine.
///
/// Environmental fault windows are given in rounds; the event engine runs
/// on simulated time, so [`calibrate_round_secs`] first measures the mean
/// round duration fault-free, then the schedule compiles at that scale.
/// The mapping is approximate by construction (faults themselves stretch
/// rounds); the invariants the checker asserts are robust to that skew.
///
/// # Errors
///
/// Propagates configuration and substrate errors.
pub fn run_event(scn: &Scenario) -> Result<ScenarioRun> {
    let round_secs = calibrate_round_secs(scn)?;
    run_event_with(scn, round_secs)
}

/// Runs the scenario on the event-driven engine with a pre-computed
/// round→time calibration (see [`calibrate_round_secs`]).
///
/// # Errors
///
/// Propagates configuration and substrate errors.
pub fn run_event_with(scn: &Scenario, round_secs: f64) -> Result<ScenarioRun> {
    let cfg = protocol_config(scn);
    let builder = model_builder(scn);
    let (train, _) = synthetic_cifar(&scn.data)?;
    let plan = compile_fault_plan(scn, round_secs);
    let (sim, rec) = build_simulation_net(&cfg, &builder, train, scn.seed, &scn.network)?;
    let mut sim = sim.with_faults(plan);
    sim.run();
    let sim_dropped = sim.stats().messages_dropped;
    let queue_drops = sim.stats().queue_drops;
    let retransmits = sim.stats().retransmits;
    let sim_secs = sim.now().as_secs_f64();

    let rec = rec.borrow();
    // Losses have two layers now: the network plane (dropped in flight)
    // and the machines (discarded on arrival — stale, crashed, partition).
    let dropped = sim_dropped + rec.discarded;
    let finishers = rec.servers_finishing(scn.steps.saturating_sub(1));
    let final_params: Vec<Tensor> = finishers
        .iter()
        .map(|id| rec.server_params[id].clone())
        .collect();
    Ok(ScenarioRun {
        engine: Engine::EventDriven,
        trace: rec.trace(),
        finishers,
        final_params,
        diverged: false,
        messages_dropped: dropped,
        queue_drops,
        retransmits,
        sim_secs,
    })
}

/// Runs the scenario on the threaded engine (in-process channel
/// transport, one OS thread per node). Planned quorums make its trace
/// bit-identical to the other two engines; the network model is ignored —
/// frames travel at wall-clock channel speed.
///
/// # Errors
///
/// Propagates configuration and substrate errors; a wedged run surfaces
/// as a wall-timeout error rather than a hang.
pub fn run_threaded(scn: &Scenario) -> Result<ScenarioRun> {
    let (train, _) = synthetic_cifar(&scn.data)?;
    let cfg = RuntimeConfig {
        cluster: scn.cluster,
        max_steps: scn.steps,
        lr: LrSchedule::constant(0.05),
        server_gar: aggregation::GarKind::MultiKrum,
        batch_size: scn.batch_size,
        seed: scn.seed,
        actual_byz_workers: scn.actual_byz_workers,
        worker_attack: scn.worker_attack,
        actual_byz_servers: scn.actual_byz_servers,
        server_attack: scn.server_attack,
        wall_timeout: Duration::from_secs(120),
        transport: TransportKind::Channel,
        shards: 1,
        recovery: true,
        mode: QuorumMode::Planned,
        faults: scn.faults.clone(),
    };
    let report = run_cluster(&cfg, model_builder(scn), train)?;
    let finishers: Vec<usize> = report
        .final_steps
        .iter()
        .enumerate()
        .filter(|&(_, &step)| step >= scn.steps)
        .map(|(s, _)| s)
        .collect();
    let final_params: Vec<Tensor> = finishers
        .iter()
        .map(|&s| report.final_params[s].clone())
        .collect();
    Ok(ScenarioRun {
        engine: Engine::Threaded,
        trace: report.trace,
        finishers,
        final_params,
        diverged: false,
        messages_dropped: report.dropped_sends,
        queue_drops: 0,
        retransmits: 0,
        sim_secs: report.wall_secs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;
    use guanyu::faults::FaultKind;

    #[test]
    fn lockstep_run_produces_full_trace() {
        let scn = Scenario::baseline("t", 5);
        let run = run_lockstep(&scn).unwrap();
        assert_eq!(run.trace.len() as u64, scn.steps);
        assert_eq!(run.finishers.len(), 6);
        assert!(!run.diverged);
        assert!(run.sim_secs > 0.0);
    }

    #[test]
    fn event_run_reports_finishers_and_drops() {
        let scn = Scenario::baseline("t", 5).with_fault(
            2,
            4,
            FaultKind::CrashServers { servers: vec![1] },
        );
        let run = run_event(&scn).unwrap();
        assert!(run.messages_dropped > 0, "the crash must cost messages");
        assert!(
            run.finishers.len() >= scn.min_finishers(),
            "finishers {:?}",
            run.finishers
        );
        assert!(!run.trace.is_empty());
    }

    #[test]
    fn only_timing_faults_compile_to_the_sim_plan() {
        // Membership faults (churn, crashes, partitions) gate inside the
        // node machines — compiling them into the sim plan too would
        // apply them twice.
        let scn = Scenario::baseline("t", 5)
            .with_fault(0, 6, FaultKind::WorkerChurn { period: 2, pool: 3 })
            .with_fault(1, 2, FaultKind::CrashServers { servers: vec![1] })
            .with_fault(
                2,
                4,
                FaultKind::DelaySpike {
                    factor: 2.0,
                    extra_secs: 0.01,
                },
            );
        let plan = compile_fault_plan(&scn, 1.0);
        assert_eq!(plan.len(), 1, "only the delay spike compiles");
    }

    #[test]
    fn threaded_run_matches_lockstep_trace() {
        let scn = Scenario::baseline("t", 4);
        let lock = run_lockstep(&scn).unwrap();
        let thr = run_threaded(&scn).unwrap();
        assert_eq!(thr.finishers, lock.finishers);
        assert_eq!(
            thr.fingerprint(),
            lock.fingerprint(),
            "threaded and lockstep traces must be bit-identical"
        );
    }
}
