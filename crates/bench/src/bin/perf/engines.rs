//! Runs one workload on its engine as a closed loop and hands back what
//! the system reported plus what the harness's stopwatches saw.
//!
//! The harness is the only load generator and drives from one thread; the
//! workers are the clients (each sends its next gradient only after the
//! round's models arrive), and every node thread belongs to the system
//! under test.

use std::time::Instant;

use data::Dataset;
use guanyu::lockstep::LockstepTrainer;
use guanyu::protocol::build_simulation_net;
use guanyu::trace::Trace;
use guanyu_runtime::{run_cluster_with, PoolStats, RunHooks, RuntimeConfig};
use scenario::{Engine, Scenario};
use tensor::Tensor;

use crate::probes::Probes;
use crate::stats::CpuTimes;
use crate::workloads::{lockstep_config, protocol_config, runtime_config, Plan, Workload};

/// Anything that stops a run from producing numbers.
pub type Failure = String;

/// What the threaded runtime reports beyond the common fields.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClusterExtras {
    /// Sends that found their peer gone.
    pub dropped_sends: u64,
    /// Links severed abnormally.
    pub link_failures: u64,
    /// Frame-pool counters.
    pub pool: PoolStats,
}

/// What the simulator reports beyond the common fields.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SimExtras {
    /// Messages delivered (`Simulator::run`'s return value).
    pub events: u64,
    /// Messages handed to the network.
    pub messages_sent: u64,
    /// Their payload bytes.
    pub bytes_sent: u64,
    /// Drop-tail queue overflows.
    pub queue_drops: u64,
    /// Go-back-n retransmissions.
    pub retransmits: u64,
    /// Deepest backlog on any link.
    pub peak_queue_bytes: u64,
    /// Simulated seconds covered.
    pub sim_s: f64,
}

/// One finished run.
#[derive(Debug, Clone)]
pub struct RunData {
    /// Rounds the run was asked for.
    pub rounds: u64,
    /// Per-round digests.
    pub trace: Trace,
    /// Final parameters of honest server 0.
    pub params: Tensor,
    /// Model updates the honest servers applied.
    pub applied_updates: u64,
    /// Honest servers that reached the last round.
    pub finishers: usize,
    /// The steady-state window: `ClusterReport::wall_secs`, the summed
    /// `step()` calls, or the `Simulator::run` call.
    pub wall_secs: f64,
    /// The whole engine call, building the mesh or simulator included.
    pub call_secs: f64,
    /// Process CPU time over the call.
    pub cpu: CpuTimes,
    /// Round-to-round intervals in milliseconds, in round order.
    pub round_ms: Vec<f64>,
    /// Threaded runs only.
    pub cluster: Option<ClusterExtras>,
    /// Event-engine runs only.
    pub sim: Option<SimExtras>,
}

impl RunData {
    /// Wall milliseconds per round over the steady-state window.
    pub fn ms_per_round(&self) -> f64 {
        self.wall_secs * 1e3 / self.rounds as f64
    }

    /// Applied model updates per wall second.
    pub fn updates_per_s(&self) -> f64 {
        self.applied_updates as f64 / self.wall_secs
    }
}

/// Runs `w` with `probes` installed.
pub fn run(
    w: &Workload,
    train: &Dataset,
    test: &Dataset,
    probes: &Probes,
) -> Result<RunData, Failure> {
    match &w.plan {
        Plan::Cluster(cfg) => threaded(w, cfg, train, probes),
        Plan::Scenario(scn, Engine::Threaded) => threaded(w, &runtime_config(scn), train, probes),
        Plan::Scenario(scn, Engine::Lockstep) => lockstep(w, scn, train, test, probes),
        Plan::Scenario(scn, Engine::EventDriven) => event(w, scn, train, probes),
    }
}

/// The threaded runtime. Also used for the traced pass's comparison runs,
/// which vary `cfg` but not the workload's model or data.
pub fn threaded(
    w: &Workload,
    cfg: &RuntimeConfig,
    train: &Dataset,
    probes: &Probes,
) -> Result<RunData, Failure> {
    let hooks = RunHooks {
        wrap: Some(probes.wrap_transport(cfg.shards * cfg.cluster.servers)),
        ..RunHooks::default()
    };
    let cpu0 = CpuTimes::now();
    let t0 = Instant::now();
    let report = run_cluster_with(
        cfg,
        |rng| probes.build_model(w.model, rng),
        train.clone(),
        hooks,
    )
    .map_err(|e| format!("{}: threaded run failed: {e}", w.spec.name))?;
    let call_secs = t0.elapsed().as_secs_f64();
    let cpu = CpuTimes::now().since(cpu0);
    Ok(RunData {
        rounds: cfg.max_steps,
        applied_updates: report.final_steps.iter().sum(),
        finishers: report
            .final_steps
            .iter()
            .filter(|&&s| s >= cfg.max_steps)
            .count(),
        params: report.final_params[0].clone(),
        trace: report.trace,
        wall_secs: report.wall_secs,
        call_secs,
        cpu,
        round_ms: probes.round_intervals_ms(),
        cluster: Some(ClusterExtras {
            dropped_sends: report.dropped_sends,
            link_failures: report.link_failures,
            pool: report.pool,
        }),
        sim: None,
    })
}

fn lockstep(
    w: &Workload,
    scn: &Scenario,
    train: &Dataset,
    test: &Dataset,
    probes: &Probes,
) -> Result<RunData, Failure> {
    let fail = |e| format!("{}: lockstep run failed: {e}", w.spec.name);
    let cpu0 = CpuTimes::now();
    let t0 = Instant::now();
    let mut trainer = LockstepTrainer::new(
        lockstep_config(scn),
        |rng| probes.build_model(w.model, rng),
        train.clone(),
        test.clone(),
    )
    .map_err(fail)?;
    let mut round_ms = Vec::with_capacity(scn.steps as usize);
    for _ in 0..scn.steps {
        let t = Instant::now();
        trainer.step().map_err(fail)?;
        round_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let call_secs = t0.elapsed().as_secs_f64();
    let cpu = CpuTimes::now().since(cpu0);
    let honest = trainer.honest_server_params().len();
    let done = !trainer.diverged() && trainer.trace().len() as u64 == scn.steps;
    Ok(RunData {
        rounds: scn.steps,
        trace: trainer.trace().clone(),
        params: trainer.honest_server_params()[0].clone(),
        applied_updates: trainer.trace().len() as u64 * honest as u64,
        finishers: if done { honest } else { 0 },
        wall_secs: round_ms.iter().sum::<f64>() / 1e3,
        call_secs,
        cpu,
        round_ms,
        cluster: None,
        sim: None,
    })
}

/// The event engine, built directly rather than through
/// `scenario::run_event`, whose calibration dry run would execute the
/// scenario twice. The workload is fault-free, so there is no timing fault
/// to compile and no round length to calibrate.
fn event(
    w: &Workload,
    scn: &Scenario,
    train: &Dataset,
    probes: &Probes,
) -> Result<RunData, Failure> {
    let cpu0 = CpuTimes::now();
    let t0 = Instant::now();
    let (mut sim, rec) = build_simulation_net(
        &protocol_config(scn),
        |rng| probes.build_model(w.model, rng),
        train.clone(),
        scn.seed,
        &scn.network,
    )
    .map_err(|e| format!("{}: event engine set-up failed: {e}", w.spec.name))?;
    let t_run = Instant::now();
    let events = sim.run();
    let wall_secs = t_run.elapsed().as_secs_f64();
    let call_secs = t0.elapsed().as_secs_f64();
    let cpu = CpuTimes::now().since(cpu0);
    let stats = sim.stats();
    let rec = rec.borrow();
    let finishers = rec.servers_finishing(scn.steps.saturating_sub(1));
    let params = finishers
        .first()
        .and_then(|id| rec.server_params.get(id))
        .cloned()
        .ok_or_else(|| format!("{}: no server finished the run", w.spec.name))?;
    Ok(RunData {
        rounds: scn.steps,
        trace: rec.trace(),
        params,
        applied_updates: rec.updates,
        finishers: finishers.len(),
        wall_secs,
        call_secs,
        cpu,
        round_ms: probes.round_intervals_ms(),
        cluster: None,
        sim: Some(SimExtras {
            events,
            messages_sent: stats.messages_sent,
            bytes_sent: stats.bytes_sent,
            queue_drops: stats.queue_drops,
            retransmits: stats.retransmits,
            peak_queue_bytes: stats.peak_queue_bytes,
            sim_s: sim.now().as_secs_f64(),
        }),
    })
}
