//! The six named workloads and the engine configurations they compile to.
//!
//! Each workload is sized in rounds, not seconds: the round count is what
//! makes a run's trace fingerprint a pure function of `(workload, seed,
//! seconds)`. [`WORKLOADS`] gives the count that fills about
//! [`NOMINAL_SECONDS`] on the 2-core box the benchmark was sized on, and
//! `--seconds` scales all six by one common factor.

use std::time::Duration;

use aggregation::GarKind;
use byzantine::AttackKind;
use data::SyntheticConfig;
use guanyu::config::ClusterConfig;
use guanyu::cost::CostModel;
use guanyu::faults::{FaultKind, FaultSchedule};
use guanyu::lockstep::LockstepConfig;
use guanyu::node::QuorumMode;
use guanyu::protocol::ProtocolConfig;
use guanyu_runtime::{RuntimeConfig, TransportKind};
use nn::{models, Dense, Flatten, Layer, LrSchedule, Relu, Sequential};
use nn::{Conv2d, MaxPool2d, Padding};
use scenario::{Engine, NetworkModel, Scenario};
use tensor::TensorRng;

/// Run length the per-workload round counts below were sized to.
pub const NOMINAL_SECONDS: f64 = 20.0;

/// Rounds compared against the reference run taken in set-up.
pub const REFERENCE_ROUNDS: u64 = 32;

/// Name, reason and size of one workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why the workload exists: which layers carry it.
    pub why: &'static str,
    /// Rounds that fill [`NOMINAL_SECONDS`].
    pub nominal_rounds: u64,
    /// Compiles the workload for `(seed, rounds)`.
    build: fn(u64, u64) -> Parts,
}

/// Model, dataset and engine plan of one workload.
type Parts = (ModelKind, SyntheticConfig, Plan);

/// The benchmark's workloads, in reporting order.
pub const WORKLOADS: [Spec; 6] = [
    Spec {
        name: "tcp-wide",
        why: "260 KB frames over TCP loopback, wide folds, almost no nn: wire, tcp and pool changes show here",
        nominal_rounds: 1400,
        build: tcp_wide,
    },
    Spec {
        name: "channel-cnn",
        why: "small CNN on channels: nn forward/backward dominates, the bypass workload for every comms change",
        nominal_rounds: 2400,
        build: channel_cnn,
    },
    Spec {
        name: "tcp-sharded",
        why: "tcp-wide split over 4 shard groups with a median: 4x threads and links, folds a quarter as wide",
        nominal_rounds: 1200,
        build: tcp_sharded,
    },
    Spec {
        name: "threaded-byz",
        why: "planned partial quorums, forging server and worker, crash recovery on the real deployment path",
        nominal_rounds: 5000,
        build: threaded_byz,
    },
    Spec {
        name: "lockstep-byz",
        why: "threaded-byz's scenario on one thread: node machines and aggregation with no scheduler noise",
        nominal_rounds: 5000,
        build: lockstep_byz,
    },
    Spec {
        name: "event-switched",
        why: "paper deployment on the event engine over an 8:1 switched fabric: simnet and protocol carry the run",
        nominal_rounds: 5000,
        build: event_switched,
    },
];

/// Looks a workload up by name.
pub fn spec(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|s| s.name == name)
}

impl Spec {
    /// Rounds of a run meant to last `seconds`, scaled by `share` (the
    /// traced pass splits its time over several runs).
    pub fn rounds(&self, seconds: f64, share: f64) -> u64 {
        let r = self.nominal_rounds as f64 * seconds / NOMINAL_SECONDS * share;
        (r.round() as u64).max(8)
    }
}

/// The two model families the workloads use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelKind {
    /// Flatten, Dense(192, hidden), ReLU, Dense(hidden, 10): about
    /// `203 * hidden` parameters over the 3x8x8 synthetic images, so the
    /// frame size is set without touching compute structure.
    WideMlp {
        /// Hidden width.
        hidden: usize,
    },
    /// [`models::small_cnn`] over 8x8 inputs and 10 classes.
    SmallCnn {
        /// Feature maps per convolution.
        filters: usize,
    },
}

const SIDE: usize = 8;
const CLASSES: usize = 10;

impl ModelKind {
    /// The model as the repo's own constructors build it.
    pub fn build(self, rng: &mut TensorRng) -> Sequential {
        match self {
            ModelKind::WideMlp { .. } => self.build_wrapped(rng, &mut |_, l| l),
            ModelKind::SmallCnn { filters } => models::small_cnn(SIDE, filters, CLASSES, rng),
        }
    }

    /// The same stack, layer by layer in the same RNG order, with every
    /// layer passed through `wrap(index, layer)` before it is installed.
    pub fn build_wrapped(
        self,
        rng: &mut TensorRng,
        wrap: &mut dyn FnMut(usize, Box<dyn Layer>) -> Box<dyn Layer>,
    ) -> Sequential {
        let layers: Vec<Box<dyn Layer>> = match self {
            ModelKind::WideMlp { hidden } => vec![
                Box::new(Flatten::new()),
                Box::new(Dense::new(3 * SIDE * SIDE, hidden, rng)),
                Box::new(Relu::new()),
                Box::new(Dense::new(hidden, CLASSES, rng)),
            ],
            ModelKind::SmallCnn { filters } => {
                let flat = (SIDE / 4) * (SIDE / 4) * filters;
                vec![
                    Box::new(Conv2d::new(3, filters, 3, 1, Padding::Same, rng)),
                    Box::new(Relu::new()),
                    Box::new(MaxPool2d::new(2, 2, Padding::Same)),
                    Box::new(Conv2d::new(filters, filters, 3, 1, Padding::Same, rng)),
                    Box::new(Relu::new()),
                    Box::new(MaxPool2d::new(2, 2, Padding::Same)),
                    Box::new(Flatten::new()),
                    Box::new(Dense::new(flat, 4 * CLASSES, rng)),
                    Box::new(Relu::new()),
                    Box::new(Dense::new(4 * CLASSES, CLASSES, rng)),
                ]
            }
        };
        let mut model = Sequential::new();
        for (i, layer) in layers.into_iter().enumerate() {
            model.push(wrap(i, layer));
        }
        model
    }
}

/// What a workload runs on.
#[derive(Debug, Clone)]
pub enum Plan {
    /// An arrival-mode, full-quorum, fault-free run of the threaded
    /// runtime: the regime where transports and shard counts are provably
    /// bit-identical.
    Cluster(RuntimeConfig),
    /// A scripted scenario in planned-quorum mode on one of the three
    /// engines, bit-identical across them.
    Scenario(Scenario, Engine),
}

/// One workload, ready to run.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Its name, reason and size.
    pub spec: &'static Spec,
    /// Rounds this instance runs.
    pub rounds: u64,
    /// The network every worker trains.
    pub model: ModelKind,
    /// The synthetic dataset (train and held-out split).
    pub data: SyntheticConfig,
    /// Engine and configuration.
    pub plan: Plan,
}

fn dataset(train: usize, test: usize, seed: u64) -> SyntheticConfig {
    SyntheticConfig {
        train,
        test,
        side: SIDE,
        classes: CLASSES,
        seed,
        ..Default::default()
    }
}

fn clean_cluster(seed: u64, rounds: u64) -> RuntimeConfig {
    RuntimeConfig {
        cluster: ClusterConfig::with_quorums(3, 0, 6, 0, 3, 6).expect("3+6 at full quorum"),
        max_steps: rounds,
        seed,
        wall_timeout: Duration::from_secs(170),
        ..RuntimeConfig::default_for_tests()
    }
}

/// `wide_mlp(320)` over TCP loopback: 260 KB frames, batch 16.
fn wide_over_tcp(seed: u64, rounds: u64, server_gar: GarKind, shards: usize) -> Parts {
    let cfg = RuntimeConfig {
        server_gar,
        batch_size: 16,
        transport: TransportKind::TcpLoopback,
        shards,
        ..clean_cluster(seed, rounds)
    };
    (
        ModelKind::WideMlp { hidden: 320 },
        dataset(128, 64, seed),
        Plan::Cluster(cfg),
    )
}

fn tcp_wide(seed: u64, rounds: u64) -> Parts {
    wide_over_tcp(seed, rounds, GarKind::MultiKrum, 1)
}

/// A coordinate-wise server rule: per-range folds tile to the full fold,
/// so sharding preserves the trace bit for bit.
fn tcp_sharded(seed: u64, rounds: u64) -> Parts {
    wide_over_tcp(seed, rounds, GarKind::Median, 4)
}

fn channel_cnn(seed: u64, rounds: u64) -> Parts {
    let cfg = RuntimeConfig {
        batch_size: 64,
        ..clean_cluster(seed, rounds)
    };
    (
        ModelKind::SmallCnn { filters: 8 },
        dataset(512, 128, seed),
        Plan::Cluster(cfg),
    )
}

fn on_engine(scn: Scenario, engine: Engine) -> Parts {
    let model = ModelKind::SmallCnn {
        filters: scn.model_filters,
    };
    (model, scn.data.clone(), Plan::Scenario(scn, engine))
}

fn threaded_byz(seed: u64, rounds: u64) -> Parts {
    on_engine(byz_scenario(seed, rounds), Engine::Threaded)
}

fn lockstep_byz(seed: u64, rounds: u64) -> Parts {
    on_engine(byz_scenario(seed, rounds), Engine::Lockstep)
}

fn event_switched(seed: u64, rounds: u64) -> Parts {
    on_engine(switched_scenario(seed, rounds), Engine::EventDriven)
}

/// 6 servers (f = 1) and 9 workers (f̄ = 2); one server equivocates from
/// round 8, one worker sends noise throughout, and honest worker 0 is down
/// for rounds 16–24 and for 8 rounds at mid-run. Together the crashed and
/// the Byzantine worker use the whole worker budget.
fn byz_scenario(seed: u64, rounds: u64) -> Scenario {
    let crash = || FaultKind::CrashWorkers { workers: vec![0] };
    let mut scn = Scenario::baseline("perf-byz", seed);
    scn.steps = rounds;
    scn.data = dataset(128, 64, seed);
    scn.actual_byz_servers = 1;
    scn.server_attack = Some(AttackKind::Equivocate { scale: 20.0 });
    scn.actual_byz_workers = 1;
    scn.worker_attack = Some(AttackKind::Random { scale: 100.0 });
    scn.faults = FaultSchedule::none()
        .with(8, u64::MAX, FaultKind::ServerAttack)
        .with(16, 24, crash())
        .with(rounds / 2, rounds / 2 + 8, crash());
    scn
}

/// The paper's 6+18 deployment, fault-free, over an 8:1 oversubscribed
/// fabric with 64 KiB drop-tail queues on 10 Gbit/s host links.
fn switched_scenario(seed: u64, rounds: u64) -> Scenario {
    let mut scn = Scenario::baseline("perf-switched", seed).with_network(NetworkModel::Switched {
        oversubscription: 8.0,
        queue_bytes: 64 * 1024,
        link_bw: 1.25e9,
    });
    scn.cluster = ClusterConfig::paper_deployment();
    scn.steps = rounds;
    scn.batch_size = 4;
    scn.data = dataset(512, 128, seed);
    scn.model_filters = 4;
    scn
}

impl Workload {
    /// Builds the workload for `seed` at `rounds` rounds.
    pub fn new(spec: &'static Spec, seed: u64, rounds: u64) -> Workload {
        let (model, data, plan) = (spec.build)(seed, rounds);
        Workload {
            spec,
            rounds,
            model,
            data,
            plan,
        }
    }

    /// Master seed of the run.
    pub fn seed(&self) -> u64 {
        match &self.plan {
            Plan::Cluster(cfg) => cfg.seed,
            Plan::Scenario(scn, _) => scn.seed,
        }
    }

    /// The engine the workload runs on.
    pub fn engine(&self) -> Engine {
        match &self.plan {
            Plan::Cluster(_) => Engine::Threaded,
            Plan::Scenario(_, engine) => *engine,
        }
    }

    /// Declared cluster shape.
    pub fn cluster(&self) -> ClusterConfig {
        match &self.plan {
            Plan::Cluster(cfg) => cfg.cluster,
            Plan::Scenario(scn, _) => scn.cluster,
        }
    }

    /// Honest servers: the replicas whose updates count.
    pub fn honest_servers(&self) -> usize {
        match &self.plan {
            Plan::Cluster(cfg) => cfg.cluster.servers,
            Plan::Scenario(scn, _) => scn.honest_servers(),
        }
    }

    /// Model updates a complete run applies.
    pub fn expected_updates(&self) -> u64 {
        self.rounds * self.honest_servers() as u64
    }

    /// Whether this is one of the three clean threaded workloads, which
    /// must drop no send and sever no link.
    pub fn clean_threaded(&self) -> bool {
        matches!(self.plan, Plan::Cluster(_))
    }
}

/// The threaded runtime's configuration of a scenario, field for field
/// what `scenario::run_threaded` compiles (that function keeps its
/// `ClusterReport` and takes no hooks, so the harness cannot call it).
pub fn runtime_config(scn: &Scenario) -> RuntimeConfig {
    RuntimeConfig {
        cluster: scn.cluster,
        max_steps: scn.steps,
        lr: LrSchedule::constant(0.05),
        server_gar: GarKind::MultiKrum,
        batch_size: scn.batch_size,
        seed: scn.seed,
        actual_byz_workers: scn.actual_byz_workers,
        worker_attack: scn.worker_attack,
        actual_byz_servers: scn.actual_byz_servers,
        server_attack: scn.server_attack,
        wall_timeout: Duration::from_secs(170),
        transport: TransportKind::Channel,
        shards: 1,
        recovery: true,
        mode: QuorumMode::Planned,
        faults: scn.faults.clone(),
    }
}

/// The lockstep engine's configuration of a scenario, as
/// `scenario::run_lockstep` compiles it.
pub fn lockstep_config(scn: &Scenario) -> LockstepConfig {
    let mut cfg = LockstepConfig::guanyu(scn.cluster, scn.seed);
    cfg.batch_size = scn.batch_size;
    cfg.actual_byz_workers = scn.actual_byz_workers;
    cfg.worker_attack = scn.worker_attack;
    cfg.actual_byz_servers = scn.actual_byz_servers;
    cfg.server_attack = scn.server_attack;
    cfg.faults = scn.faults.clone();
    cfg.trace_enabled = true;
    cfg.alignment_every = 0;
    cfg
}

/// The event engine's configuration of a scenario, as
/// `scenario::run_event_with` compiles it.
pub fn protocol_config(scn: &Scenario) -> ProtocolConfig {
    ProtocolConfig {
        cluster: scn.cluster,
        max_steps: scn.steps,
        lr: LrSchedule::constant(0.05),
        server_gar: GarKind::MultiKrum,
        cost: CostModel::guanyu(),
        batch_size: scn.batch_size,
        actual_byz_workers: scn.actual_byz_workers,
        worker_attack: scn.worker_attack,
        actual_byz_servers: scn.actual_byz_servers,
        server_attack: scn.server_attack,
        worker_attack_windows: scn.faults.worker_attack_windows(),
        server_attack_windows: scn.faults.server_attack_windows(),
        recovery: true,
        mode: QuorumMode::Planned,
        faults: scn.faults.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rebuilt_stacks_draw_the_same_parameters_as_the_model_zoo() {
        for filters in [2, 4, 8] {
            let kind = ModelKind::SmallCnn { filters };
            let zoo = kind.build(&mut TensorRng::new(11)).param_vector();
            let rebuilt = kind
                .build_wrapped(&mut TensorRng::new(11), &mut |_, l| l)
                .param_vector();
            assert_eq!(zoo.as_slice(), rebuilt.as_slice(), "filters = {filters}");
        }
    }

    #[test]
    fn wide_mlp_has_the_dimension_the_frames_are_sized_by() {
        let d = ModelKind::WideMlp { hidden: 320 }
            .build(&mut TensorRng::new(0))
            .param_count();
        assert_eq!(d, 64_970);
        let cnn = ModelKind::SmallCnn { filters: 8 }
            .build(&mut TensorRng::new(0))
            .param_count();
        assert_eq!(cnn, 2_538);
    }

    #[test]
    fn every_workload_builds_inside_the_paper_bounds() {
        for spec in &WORKLOADS {
            let w = Workload::new(spec, 7, spec.rounds(NOMINAL_SECONDS, 1.0));
            assert_eq!(w.rounds, spec.nominal_rounds);
            assert_eq!(w.seed(), 7);
            assert!(w.cluster().validate().is_ok(), "{}", spec.name);
            if let Plan::Scenario(scn, _) = &w.plan {
                assert!(scn.within_bounds(), "{} leaves the bounds", spec.name);
            }
            assert!(spec.why.len() <= 200 && !spec.why.contains('\n'));
        }
    }

    #[test]
    fn byz_scenarios_share_one_definition_and_a_stable_prefix() {
        let threaded = Workload::new(spec("threaded-byz").unwrap(), 3, 5000);
        let lockstep = Workload::new(spec("lockstep-byz").unwrap(), 3, 5000);
        let (Plan::Scenario(a, ea), Plan::Scenario(b, eb)) = (&threaded.plan, &lockstep.plan)
        else {
            panic!("byz workloads are scenarios");
        };
        assert_eq!(a, b, "same scenario, two engines");
        assert_eq!((*ea, *eb), (Engine::Threaded, Engine::Lockstep));
        // The mid-run crash lies beyond the reference prefix, so a
        // truncated run scripts the same first REFERENCE_ROUNDS rounds.
        let Some(mid_run_crash) = a.faults.windows.last() else {
            panic!("the scenario scripts faults");
        };
        assert!(mid_run_crash.start >= REFERENCE_ROUNDS);
        assert_eq!(threaded.expected_updates(), 5000 * 5);
    }

    #[test]
    fn rounds_scale_with_seconds_and_never_vanish() {
        let s = spec("tcp-wide").unwrap();
        assert_eq!(s.rounds(20.0, 1.0), 1400);
        assert_eq!(s.rounds(10.0, 1.0), 700);
        assert_eq!(s.rounds(10.0, 0.4), 280);
        assert_eq!(s.rounds(0.01, 1.0), 8);
    }
}
