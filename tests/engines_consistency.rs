//! Cross-engine consistency: the lockstep engine, the event-driven
//! simulator and the threaded runtime are thin drivers over the *same*
//! sans-I/O node machine (`guanyu::node`, DESIGN.md §11), so on the same
//! workload all three must (a) make progress, (b) keep honest servers in
//! agreement, (c) produce models that learn — and, in planned-quorum
//! mode, (d) produce **bit-identical** per-round traces, scenario by
//! scenario across the whole fault matrix, crash recovery included.

use std::time::Duration;

use byzantine::AttackKind;
use data::{synthetic_cifar, Dataset, SyntheticConfig};
use guanyu::config::ClusterConfig;
use guanyu::cost::CostModel;
use guanyu::lockstep::{LockstepConfig, LockstepTrainer};
use guanyu::metrics::evaluate;
use guanyu::protocol::{build_simulation, ProtocolConfig};
use guanyu_runtime::{run_cluster, ClusterReport, RuntimeConfig, TransportKind};
use nn::{models, LrSchedule, Sequential};
use simnet::DelayModel;
use tensor::{Tensor, TensorRng};

const STEPS: u64 = 50;

fn dataset() -> (Dataset, Dataset) {
    synthetic_cifar(&SyntheticConfig {
        train: 256,
        test: 128,
        side: 8,
        noise: 0.3,
        ..Default::default()
    })
    .unwrap()
}

fn cluster() -> ClusterConfig {
    ClusterConfig::new(6, 1, 9, 2).unwrap()
}

fn builder(rng: &mut TensorRng) -> Sequential {
    models::small_cnn(8, 4, 10, rng)
}

fn eval_accuracy(params: &[Tensor], test: &Dataset) -> f32 {
    use aggregation::Gar;
    let global = aggregation::CoordinateWiseMedian::new()
        .aggregate(params)
        .unwrap();
    let mut model = {
        let mut rng = TensorRng::new(123);
        builder(&mut rng)
    };
    evaluate(&mut model, &global, test, 64).unwrap().0
}

fn run_lockstep(test: &Dataset) -> f32 {
    let (train, _) = dataset();
    let mut cfg = LockstepConfig::guanyu(cluster(), 5);
    cfg.batch_size = 16;
    let mut t = LockstepTrainer::new(cfg, builder, train, test.clone()).unwrap();
    for _ in 0..STEPS {
        t.step().unwrap();
    }
    eval_accuracy(t.honest_server_params(), test)
}

fn run_event_driven(test: &Dataset) -> f32 {
    let (train, _) = dataset();
    let cfg = ProtocolConfig {
        cluster: cluster(),
        max_steps: STEPS,
        lr: LrSchedule::constant(0.05),
        server_gar: aggregation::GarKind::MultiKrum,
        cost: CostModel::guanyu(),
        batch_size: 16,
        actual_byz_workers: 0,
        worker_attack: None,
        actual_byz_servers: 0,
        server_attack: None,
        worker_attack_windows: Vec::new(),
        server_attack_windows: Vec::new(),
        recovery: false,
        mode: guanyu::node::QuorumMode::Arrival,
        faults: guanyu::faults::FaultSchedule::none(),
    };
    let (mut sim, rec) = build_simulation(&cfg, builder, train, 5, DelayModel::grid5000()).unwrap();
    sim.run();
    let params = rec.borrow().final_params();
    eval_accuracy(&params, test)
}

fn run_threaded(test: &Dataset) -> f32 {
    let (train, _) = dataset();
    let cfg = RuntimeConfig {
        cluster: cluster(),
        max_steps: STEPS,
        batch_size: 16,
        seed: 5,
        wall_timeout: Duration::from_secs(120),
        ..RuntimeConfig::default_for_tests()
    };
    let report = run_cluster(&cfg, builder, train).unwrap();
    eval_accuracy(&report.final_params, test)
}

#[test]
fn all_engines_learn_the_same_task() {
    let (_, test) = dataset();
    let lockstep = run_lockstep(&test);
    let event = run_event_driven(&test);
    let threaded = run_threaded(&test);
    println!("accuracies: lockstep {lockstep}, event-driven {event}, threaded {threaded}");
    for (name, acc) in [
        ("lockstep", lockstep),
        ("event-driven", event),
        ("threaded", threaded),
    ] {
        assert!(
            acc > 0.3,
            "{name} engine should clear 30% after {STEPS} steps, got {acc}"
        );
    }
}

#[test]
fn event_driven_and_threaded_tolerate_byzantine_workers() {
    let (train, test) = dataset();

    // Event-driven with gross attackers.
    let cfg = ProtocolConfig {
        cluster: cluster(),
        max_steps: STEPS,
        lr: LrSchedule::constant(0.05),
        server_gar: aggregation::GarKind::MultiKrum,
        cost: CostModel::guanyu(),
        batch_size: 16,
        actual_byz_workers: 2,
        worker_attack: Some(AttackKind::SignFlip { factor: 100.0 }),
        actual_byz_servers: 0,
        server_attack: None,
        worker_attack_windows: Vec::new(),
        server_attack_windows: Vec::new(),
        recovery: false,
        mode: guanyu::node::QuorumMode::Arrival,
        faults: guanyu::faults::FaultSchedule::none(),
    };
    let (mut sim, rec) =
        build_simulation(&cfg, builder, train.clone(), 6, DelayModel::grid5000()).unwrap();
    sim.run();
    let acc_event = eval_accuracy(&rec.borrow().final_params(), &test);

    // Threaded with the same attack.
    let cfg = RuntimeConfig {
        cluster: cluster(),
        max_steps: STEPS,
        batch_size: 16,
        seed: 6,
        actual_byz_workers: 2,
        worker_attack: Some(AttackKind::SignFlip { factor: 100.0 }),
        wall_timeout: Duration::from_secs(120),
        ..RuntimeConfig::default_for_tests()
    };
    let report = run_cluster(&cfg, builder, train).unwrap();
    let acc_threaded = eval_accuracy(&report.final_params, &test);

    assert!(
        acc_event > 0.3,
        "event-driven engine under attack got {acc_event}"
    );
    assert!(
        acc_threaded > 0.3,
        "threaded engine under attack got {acc_threaded}"
    );
}

/// The TCP loopback engine is the *same protocol over different physics*
/// as the channel-backed threaded runtime. At full quorums (every fold
/// waits for the complete sender set, folded in canonical sender order)
/// both runs are pure functions of seed and config, so their
/// `guanyu::trace` digests — model hashes, quorum compositions, message
/// counts, round by round — must be **bit-identical**, and so must the
/// final models.
#[test]
fn tcp_engine_matches_channel_engine_trace_for_trace() {
    let run = |transport: TransportKind| -> ClusterReport {
        let (train, _) = dataset();
        let cfg = RuntimeConfig {
            cluster: ClusterConfig::with_quorums(3, 0, 4, 0, 3, 4).unwrap(),
            max_steps: 6,
            batch_size: 16,
            seed: 11,
            wall_timeout: Duration::from_secs(120),
            transport,
            ..RuntimeConfig::default_for_tests()
        };
        run_cluster(&cfg, builder, train).unwrap()
    };
    let chan = run(TransportKind::Channel);
    let tcp = run(TransportKind::TcpLoopback);

    assert_eq!(chan.trace.len(), 6, "channel engine recorded every round");
    assert_eq!(
        chan.trace, tcp.trace,
        "per-round digests diverged between channel and TCP transports"
    );
    assert_eq!(chan.trace.fingerprint(), tcp.trace.fingerprint());
    for (i, (a, b)) in chan.final_params.iter().zip(&tcp.final_params).enumerate() {
        assert_eq!(
            a.as_slice(),
            b.as_slice(),
            "server {i}: final params diverged between transports"
        );
    }
    assert_eq!(chan.dropped_sends, 0, "clean channel run dropped sends");
    assert_eq!(tcp.dropped_sends, 0, "clean TCP run dropped sends");
    assert_eq!(chan.link_failures, 0, "clean channel run severed links");
    assert_eq!(tcp.link_failures, 0, "clean TCP run severed links");
}

/// Sharding is a deployment choice, not a semantics choice: for every
/// coordinate-wise GAR (whose per-range folds tile to the full-vector
/// fold) and on both transports, a sharded run at full quorums must be
/// **bit-identical** to the unsharded run — same round-by-round trace,
/// same fingerprint, same final parameters (DESIGN.md §9).
#[test]
fn sharded_runs_match_unsharded_for_all_coordinatewise_gars() {
    let run = |gar: aggregation::GarKind, transport: TransportKind, shards: usize| {
        let (train, _) = dataset();
        let cfg = RuntimeConfig {
            // worker quorum 6 makes `krum_f()` = 1, so TrimmedMean builds.
            cluster: ClusterConfig::with_quorums(3, 0, 6, 0, 3, 6).unwrap(),
            max_steps: 4,
            batch_size: 16,
            seed: 11,
            server_gar: gar,
            wall_timeout: Duration::from_secs(120),
            transport,
            shards,
            ..RuntimeConfig::default_for_tests()
        };
        run_cluster(&cfg, builder, train).unwrap()
    };
    for gar in [
        aggregation::GarKind::Average,
        aggregation::GarKind::Median,
        aggregation::GarKind::TrimmedMean,
        aggregation::GarKind::Meamed,
    ] {
        for transport in [TransportKind::Channel, TransportKind::TcpLoopback] {
            let flat = run(gar, transport, 1);
            let sharded = run(gar, transport, 2);
            assert_eq!(
                flat.trace, sharded.trace,
                "{gar:?}/{transport}: sharded trace diverged"
            );
            assert_eq!(
                flat.trace.fingerprint(),
                sharded.trace.fingerprint(),
                "{gar:?}/{transport}: fingerprint diverged"
            );
            for (i, (a, b)) in flat
                .final_params
                .iter()
                .zip(&sharded.final_params)
                .enumerate()
            {
                assert_eq!(
                    a.as_slice(),
                    b.as_slice(),
                    "{gar:?}/{transport}: server {i} final params diverged"
                );
            }
            assert_eq!(sharded.dropped_sends, 0, "{gar:?}/{transport}: drops");
            assert_eq!(
                sharded.link_failures, 0,
                "{gar:?}/{transport}: severed links"
            );
        }
    }
}

/// Four shard groups behave exactly like one; the group count only remaps
/// where each coordinate range lives.
#[test]
fn four_shard_groups_still_match_unsharded() {
    let run = |shards: usize| {
        let (train, _) = dataset();
        let cfg = RuntimeConfig {
            cluster: ClusterConfig::with_quorums(3, 0, 4, 0, 3, 4).unwrap(),
            max_steps: 4,
            batch_size: 16,
            seed: 23,
            server_gar: aggregation::GarKind::Median,
            wall_timeout: Duration::from_secs(120),
            shards,
            ..RuntimeConfig::default_for_tests()
        };
        run_cluster(&cfg, builder, train).unwrap()
    };
    let flat = run(1);
    let sharded = run(4);
    assert_eq!(flat.trace, sharded.trace);
    for (a, b) in flat.final_params.iter().zip(&sharded.final_params) {
        assert_eq!(a.as_slice(), b.as_slice());
    }
}

/// The full scenario matrix, once per engine per scenario: every entry's
/// planned-mode trace must be bit-identical across the three drivers
/// (`tests/scenario_matrix.rs` additionally replays each engine twice for
/// the determinism half of the contract).
#[test]
fn scenario_matrix_traces_are_bit_identical_across_all_three_drivers() {
    let matrix = scenario::matrix(40);
    assert!(matrix.len() >= 9, "matrix shrank to {}", matrix.len());
    for scn in &matrix {
        let lock = scenario::run_lockstep(scn)
            .unwrap_or_else(|e| panic!("{}: lockstep failed: {e}", scn.name));
        let event =
            scenario::run_event(scn).unwrap_or_else(|e| panic!("{}: event failed: {e}", scn.name));
        let threaded = scenario::run_threaded(scn)
            .unwrap_or_else(|e| panic!("{}: threaded failed: {e}", scn.name));
        assert_eq!(
            lock.trace, event.trace,
            "{}: lockstep vs event-driven trace",
            scn.name
        );
        assert_eq!(
            lock.trace, threaded.trace,
            "{}: lockstep vs threaded trace",
            scn.name
        );
        assert_eq!(lock.fingerprint(), event.fingerprint(), "{}", scn.name);
        assert_eq!(lock.fingerprint(), threaded.fingerprint(), "{}", scn.name);
    }
}

/// Crash recovery is where engines historically drift (freeze-until vs
/// adopt-and-fast-forward semantics live in the machine now, not in the
/// drivers): a server crashed mid-run must rejoin by adopting a quorate
/// exchange, and the whole episode — freeze, discards, adoption, the
/// rounds after — must digest bit-identically on all three drivers, down
/// to the final parameter vectors of every finisher.
#[test]
fn crash_recovery_is_bit_identical_across_all_three_drivers() {
    use guanyu::faults::FaultKind;
    let scn = scenario::Scenario::baseline("crash-recovery-xengine", 93).with_fault(
        2,
        4,
        FaultKind::CrashServers { servers: vec![1] },
    );
    let lock = scenario::run_lockstep(&scn).unwrap();
    let event = scenario::run_event(&scn).unwrap();
    let threaded = scenario::run_threaded(&scn).unwrap();
    assert_eq!(lock.trace, event.trace, "lockstep vs event-driven");
    assert_eq!(lock.trace, threaded.trace, "lockstep vs threaded");
    assert_eq!(lock.finishers, event.finishers);
    assert_eq!(lock.finishers, threaded.finishers);
    for (engine, run) in [("event-driven", &event), ("threaded", &threaded)] {
        assert_eq!(lock.final_params.len(), run.final_params.len());
        for (i, (a, b)) in lock.final_params.iter().zip(&run.final_params).enumerate() {
            assert_eq!(
                a.as_slice(),
                b.as_slice(),
                "server {i}: lockstep vs {engine} final params"
            );
        }
    }
}

/// Shard groups are failure-isolated: a server that goes mute in one
/// group must not stall the other groups or the run — quorums inside the
/// victim's group absorb the silence and every round still completes.
#[test]
fn crashed_server_in_one_shard_group_does_not_stall_others() {
    use guanyu_runtime::{run_cluster_with, Incoming, RecvError, RunHooks, Transport, WireMsg};
    use std::sync::Arc;

    /// Outbound-mute decorator: the victim keeps receiving (so its own
    /// thread exits cleanly) but nothing it sends ever leaves the node.
    struct MuteOutbound(Box<dyn Transport>);
    impl Transport for MuteOutbound {
        fn me(&self) -> usize {
            self.0.me()
        }
        fn send(&mut self, _to: usize, _msg: &WireMsg) {}
        fn broadcast(&mut self, _targets: &[usize], _msg: &WireMsg) {}
        // `broadcast_range`'s default delegates to `broadcast`: muted too.
        fn recv_timeout(&mut self, timeout: Duration) -> Result<Incoming, RecvError> {
            self.0.recv_timeout(timeout)
        }
        fn dropped_sends(&self) -> u64 {
            self.0.dropped_sends()
        }
        fn link_failures(&self) -> u64 {
            self.0.link_failures()
        }
        fn shutdown(&mut self) {
            self.0.shutdown()
        }
    }

    let (train, _) = dataset();
    const MAX_STEPS: u64 = 4;
    let cfg = RuntimeConfig {
        // 4 servers per group, exchange quorum 3: group 0 keeps folding
        // with servers {0, 2, 3} once raw id 1 goes silent.
        cluster: ClusterConfig::with_quorums(4, 0, 4, 0, 3, 4).unwrap(),
        max_steps: MAX_STEPS,
        batch_size: 16,
        seed: 29,
        server_gar: aggregation::GarKind::Median,
        wall_timeout: Duration::from_secs(120),
        shards: 2,
        ..RuntimeConfig::default_for_tests()
    };
    let hooks = RunHooks {
        wrap: Some(Arc::new(|id, net| {
            if id == 1 {
                Box::new(MuteOutbound(net)) as Box<dyn Transport>
            } else {
                net
            }
        })),
        ..RunHooks::default()
    };
    let report = run_cluster_with(&cfg, builder, train, hooks).unwrap();
    assert_eq!(
        report.trace.len(),
        MAX_STEPS as usize,
        "every group must complete every round despite the mute server"
    );
    assert_eq!(report.final_params.len(), 4);
    for p in &report.final_params {
        assert!(p.is_finite());
    }
}
