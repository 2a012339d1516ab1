//! One measured run of one workload: set-up, the timed window, the output
//! checks, and the metrics.
//!
//! With tracing off the run yields the end-to-end metrics. With tracing on
//! the time budget is split over a traced run, an untraced run of the same
//! length (their difference is the tracing overhead, their fingerprints
//! must agree) and, where a workload has one, a comparison run; the
//! per-layer metrics come out of that pass.

use std::time::Instant;

use aggregation::GarKind;
use data::{synthetic_cifar, Dataset};
use guanyu::config::ClusterConfig;
use guanyu::metrics::evaluate;
use guanyu::trace::Trace;
use guanyu_runtime::{run_cluster, RuntimeConfig, TransportKind};
use scenario::{run_lockstep, Engine};
use tensor::TensorRng;

use crate::engines::{self, Failure, RunData, SimExtras};
use crate::layers;
use crate::probes::Probes;
use crate::stats::{self, percentile, sorted};
use crate::workloads::{Plan, Spec, Workload, REFERENCE_ROUNDS};

/// Share of a traced pass's time given to the traced run and to the
/// untraced run it is compared with.
const TRACED_SHARE: f64 = 0.4;
/// Share given to the comparison run (channel twin, vanilla baseline).
const COMPARISON_SHARE: f64 = 0.2;
/// `trace.overhead_share` at or above this fails the traced pass: wrappers
/// that slow the run this much distort the per-layer numbers they take.
const OVERHEAD_LIMIT: f64 = 0.05;
/// Readings of the overhead a traced pass may take. Two untraced runs of
/// 6 s differ by 2-3% on the sizing box, and 2 of 32 readings taken there
/// were over the limit around a median of +0.5%, so one reading over the
/// limit proves nothing; three in a row do.
const OVERHEAD_READINGS: usize = 3;

/// A named, united measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
}

impl Metric {
    /// Names a value.
    pub fn new(name: &'static str, value: f64) -> Metric {
        Metric { name, value }
    }
}

/// What one run prints.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Output checks that failed; empty on a correct run.
    pub failures: Vec<String>,
    /// Model updates the run should have applied.
    pub attempted: u64,
    /// Updates it did not apply.
    pub failed: u64,
    /// End-to-end or per-layer metrics, by `--trace`.
    pub metrics: Vec<Metric>,
    /// Whole-run trace fingerprint, for the cross-run checks.
    pub fingerprint: u64,
    /// Spin-probe time before and after the measured window.
    pub spin_ms: (f64, f64),
    /// The simulator's exact counts, which must repeat with the
    /// fingerprint; event-engine runs only.
    pub sim: Option<SimExtras>,
}

impl Outcome {
    fn new(
        w: &Workload,
        run: &RunData,
        failures: Vec<String>,
        metrics: Vec<Metric>,
        spin_ms: (f64, f64),
    ) -> Outcome {
        Outcome {
            failures,
            attempted: w.expected_updates(),
            failed: w.expected_updates().saturating_sub(run.applied_updates),
            metrics,
            fingerprint: run.trace.fingerprint(),
            spin_ms,
            sim: run.sim,
        }
    }

    /// Whether the machine's speed changed under the run.
    pub fn noisy(&self) -> bool {
        stats::probes_disagree(self.spin_ms.0, self.spin_ms.1)
    }
}

/// What set-up produces: the data and the references the checks need.
struct Setup {
    train: Dataset,
    test: Dataset,
    /// First rounds of the workload as the reference engine runs them.
    reference: Trace,
    /// Held-out loss at θ₀.
    loss0: f32,
    /// Model dimension.
    d: usize,
}

fn held_out_loss(w: &Workload, params: &tensor::Tensor, test: &Dataset) -> Result<f32, Failure> {
    let mut model = w.model.build(&mut TensorRng::new(0));
    evaluate(&mut model, params, test, 64)
        .map(|(_, loss)| loss)
        .map_err(|e| format!("{}: held-out evaluation failed: {e}", w.spec.name))
}

/// The reference for the first [`REFERENCE_ROUNDS`] rounds. Clean threaded
/// workloads are compared with the same configuration on channels with one
/// shard, which proves tcp == channel and sharded == unsharded; scenarios
/// are compared with the lockstep engine, which proves the engines agree.
fn reference_trace(w: &Workload, train: &Dataset) -> Result<Trace, Failure> {
    let rounds = w.rounds.min(REFERENCE_ROUNDS);
    let fail = |e: guanyu::GuanYuError| format!("{}: reference run failed: {e}", w.spec.name);
    match &w.plan {
        Plan::Cluster(cfg) => {
            let cfg = RuntimeConfig {
                max_steps: rounds,
                transport: TransportKind::Channel,
                shards: 1,
                ..cfg.clone()
            };
            run_cluster(&cfg, |rng| w.model.build(rng), train.clone())
                .map(|r| r.trace)
                .map_err(fail)
        }
        Plan::Scenario(scn, _) => {
            let mut scn = scn.clone();
            scn.steps = rounds;
            run_lockstep(&scn).map(|r| r.trace).map_err(fail)
        }
    }
}

fn set_up(w: &Workload) -> Result<Setup, Failure> {
    let (train, test) = synthetic_cifar(&w.data)
        .map_err(|e| format!("{}: dataset generation failed: {e}", w.spec.name))?;
    // θ₀ as every engine draws it: the 0xA11 fork of the master seed.
    let theta0 = w
        .model
        .build(&mut TensorRng::new(w.seed()).fork(0xA11))
        .param_vector();
    let loss0 = held_out_loss(w, &theta0, &test)?;
    let reference = reference_trace(w, &train)?;
    Ok(Setup {
        train,
        test,
        reference,
        loss0,
        d: theta0.len(),
    })
}

/// Compares the first rounds of a run with the reference.
pub fn check_prefix(run: &Trace, reference: &Trace) -> Result<(), String> {
    let n = reference.len();
    if run.len() < n {
        return Err(format!(
            "run recorded {} rounds, fewer than the {n} of the reference",
            run.len()
        ));
    }
    match (0..n).find(|&i| run.rounds[i] != reference.rounds[i]) {
        None => Ok(()),
        Some(i) => Err(format!(
            "round {i} diverges from the reference: {:?} against {:?}",
            run.rounds[i], reference.rounds[i]
        )),
    }
}

/// The output checks of one run. Numbers count only if this is empty.
fn check(w: &Workload, run: &RunData, setup: &Setup) -> Result<Vec<String>, Failure> {
    let mut failures = Vec::new();
    if run.finishers != w.honest_servers() {
        failures.push(format!(
            "{} of {} honest servers reached round {}",
            run.finishers,
            w.honest_servers(),
            w.rounds
        ));
    }
    let unclean = run
        .cluster
        .filter(|c| w.clean_threaded() && (c.dropped_sends != 0 || c.link_failures != 0));
    if let Some(c) = unclean {
        failures.push(format!(
            "clean run dropped {} sends and severed {} links",
            c.dropped_sends, c.link_failures
        ));
    }
    if let Err(e) = check_prefix(&run.trace, &setup.reference) {
        failures.push(e);
    }
    let loss = held_out_loss(w, &run.params, &setup.test)?;
    if !(loss.is_finite() && loss < setup.loss0) {
        failures.push(format!(
            "held-out loss {loss} is not below the {} at the initial parameters",
            setup.loss0
        ));
    }
    Ok(failures)
}

fn end_to_end(run: &RunData, setup_s: f64) -> Vec<Metric> {
    let intervals = sorted(&run.round_ms);
    let cpu_ms = run.cpu.total() * 1e3;
    vec![
        Metric::new("updates_per_s", run.updates_per_s()),
        Metric::new("round_ms_p50", percentile(&intervals, 0.50)),
        Metric::new("round_ms_p95", percentile(&intervals, 0.95)),
        Metric::new(
            "cpu_ms_per_update",
            cpu_ms / run.applied_updates.max(1) as f64,
        ),
        Metric::new("peak_rss_mib", stats::peak_rss_mib()),
        Metric::new("setup_s", setup_s),
    ]
}

/// Runs `spec` untraced for about `seconds` and returns the end-to-end
/// metrics. `started` is when the process began.
pub fn untraced(
    spec: &'static Spec,
    seed: u64,
    seconds: f64,
    started: Instant,
) -> Result<Outcome, Failure> {
    let w = Workload::new(spec, seed, spec.rounds(seconds, 1.0));
    let setup = set_up(&w)?;
    let ready_s = started.elapsed().as_secs_f64();
    let spin_before = stats::spin_probe_ms();
    let probes = probes_for(&w, false);
    let run = engines::run(&w, &setup.train, &setup.test, &probes)?;
    let spin_after = stats::spin_probe_ms();
    let failures = check(&w, &run, &setup)?;
    // Process start to the start of the window: everything up to here
    // but the harness's own spin probe, then building the mesh or
    // simulator inside the engine call.
    let setup_s = ready_s + (run.call_secs - run.wall_secs);
    let metrics = end_to_end(&run, setup_s);
    Ok(Outcome::new(
        &w,
        &run,
        failures,
        metrics,
        (spin_before, spin_after),
    ))
}

/// Probes for `w`. The event engine has no transport to stamp rounds on,
/// so its stopwatch sits on worker 0's model.
fn probes_for(w: &Workload, traced: bool) -> Probes {
    let probes = Probes::new(traced);
    match w.engine() {
        Engine::EventDriven => probes.stamping_worker_model(),
        _ => probes,
    }
}

/// The comparison run of a traced pass: `(runtime.tcp_over_channel,
/// core.overhead_vs_vanilla)`, 0 where the workload has no such twin.
fn comparison(
    w: &Workload,
    setup: &Setup,
    untraced: &RunData,
    rounds: u64,
) -> Result<(f64, f64), Failure> {
    let Plan::Cluster(cfg) = &w.plan else {
        return Ok((0.0, 0.0));
    };
    let twin = |cfg: RuntimeConfig| engines::threaded(w, &cfg, &setup.train, &Probes::new(false));
    match w.spec.name {
        // ROADMAP anomaly (a): the same run on channels.
        "tcp-wide" => {
            let channel = twin(RuntimeConfig {
                max_steps: rounds,
                transport: TransportKind::Channel,
                ..cfg.clone()
            })?;
            Ok((untraced.updates_per_s() / channel.updates_per_s(), 0.0))
        }
        // The paper's overhead number: the same task on one trusted
        // server that averages.
        "channel-cnn" => {
            let vanilla = twin(RuntimeConfig {
                max_steps: rounds,
                cluster: ClusterConfig::single_server(cfg.cluster.workers),
                server_gar: GarKind::Average,
                ..cfg.clone()
            })?;
            Ok((0.0, untraced.ms_per_round() / vanilla.ms_per_round()))
        }
        _ => Ok((0.0, 0.0)),
    }
}

/// A traced run and the untraced run of the same length it is compared
/// with.
struct Pair {
    probes: Probes,
    run: RunData,
    plain: RunData,
}

impl Pair {
    fn measure(w: &Workload, setup: &Setup) -> Result<Pair, Failure> {
        let probes = probes_for(w, true);
        let run = engines::run(w, &setup.train, &setup.test, &probes)?;
        let plain = engines::run(w, &setup.train, &setup.test, &probes_for(w, false))?;
        Ok(Pair { probes, run, plain })
    }

    /// `trace.overhead_share`: traced wall over untraced wall, minus one.
    fn overhead_share(&self) -> f64 {
        self.run.ms_per_round() / self.plain.ms_per_round() - 1.0
    }
}

/// Runs the traced pass of `spec` in about `seconds` and returns the
/// per-layer metrics.
pub fn traced(spec: &'static Spec, seed: u64, seconds: f64) -> Result<Outcome, Failure> {
    let w = Workload::new(spec, seed, spec.rounds(seconds, TRACED_SHARE));
    let setup = set_up(&w)?;
    // The two runs of a pair are compared with each other, so neither may
    // pay for the process's first use of the workload's own transport and
    // allocation sizes (the reference run warms only the channel plane).
    let warm_up = Workload::new(spec, seed, w.rounds.min(REFERENCE_ROUNDS));
    engines::run(&warm_up, &setup.train, &setup.test, &Probes::new(false))?;
    let spin_before = stats::spin_probe_ms();
    // A sub-second smoke run cannot resolve 5% of itself.
    let gated = seconds >= 1.0;
    let mut pair = Pair::measure(&w, &setup)?;
    for _ in 1..OVERHEAD_READINGS {
        if !gated || pair.overhead_share() < OVERHEAD_LIMIT {
            break;
        }
        pair = Pair::measure(&w, &setup)?;
    }
    let Pair { probes, run, plain } = &pair;
    let (tcp_over_channel, overhead_vs_vanilla) =
        comparison(&w, &setup, plain, spec.rounds(seconds, COMPARISON_SHARE))?;
    let spin_after = stats::spin_probe_ms();

    let mut failures = check(&w, run, &setup)?;
    if run.trace.fingerprint() != plain.trace.fingerprint() {
        failures.push(format!(
            "traced fingerprint {:#x} differs from untraced {:#x}: a wrapper changed the arithmetic",
            run.trace.fingerprint(),
            plain.trace.fingerprint()
        ));
    }
    if gated && pair.overhead_share() >= OVERHEAD_LIMIT {
        failures.push(format!(
            "tracing cost {:.1}% of the round time, and at least {:.0}% in each of {OVERHEAD_READINGS} readings",
            pair.overhead_share() * 100.0,
            OVERHEAD_LIMIT * 100.0
        ));
    }
    let traced_run = layers::TracedRun {
        workload: &w,
        run,
        probes,
        d: setup.d,
        train: &setup.train,
    };
    failures.extend(traced_run.frame_count_mismatch());
    let mut metrics = traced_run.metrics();
    metrics.extend([
        Metric::new("runtime.tcp_over_channel", tcp_over_channel),
        Metric::new("core.overhead_vs_vanilla", overhead_vs_vanilla),
        Metric::new("trace.overhead_share", pair.overhead_share()),
        Metric::new("env.spin_ms", (spin_before + spin_after) / 2.0),
    ]);
    Ok(Outcome::new(
        &w,
        run,
        failures,
        metrics,
        (spin_before, spin_after),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::spec;
    use guanyu::trace::RoundDigest;

    fn trace(hashes: &[u64]) -> Trace {
        Trace {
            rounds: hashes
                .iter()
                .enumerate()
                .map(|(i, &h)| RoundDigest {
                    step: i as u64,
                    model_hash: h,
                    quorum_hash: 1,
                    messages: 2,
                })
                .collect(),
        }
    }

    #[test]
    fn prefix_check_accepts_a_longer_run_and_rejects_one_flipped_digest() {
        let reference = trace(&[10, 11, 12]);
        assert!(check_prefix(&trace(&[10, 11, 12, 13, 14]), &reference).is_ok());
        let err = check_prefix(&trace(&[10, 11 ^ 1, 12, 13]), &reference).unwrap_err();
        assert!(err.contains("round 1"), "{err}");
        let err = check_prefix(&trace(&[10, 11]), &reference).unwrap_err();
        assert!(err.contains("fewer"), "{err}");
    }

    /// The whole path at smoke scale: a wrong reference must fail the run,
    /// the right one must pass it.
    #[test]
    fn a_wrong_reference_fails_the_run() {
        let s = spec("lockstep-byz").unwrap();
        let w = Workload::new(s, 7, 40);
        let mut setup = set_up(&w).unwrap();
        let run = engines::run(&w, &setup.train, &setup.test, &Probes::new(false)).unwrap();
        assert_eq!(check(&w, &run, &setup).unwrap(), Vec::<String>::new());
        setup.reference.rounds[5].model_hash ^= 1;
        let failures = check(&w, &run, &setup).unwrap();
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("round 5"), "{failures:?}");
    }
}
