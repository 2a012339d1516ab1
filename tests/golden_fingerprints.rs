//! Absolute fingerprints: the behavioural oracle pinned to constants.
//!
//! Every other cross-engine test asserts *equality* between engines, so a
//! change that shifts all three drivers together (a different θ₀ draw, a
//! re-ordered RNG fork, a batch stream seeded differently) would pass them
//! all. The values below were recorded once, on the code as it stood
//! before the drivers were collapsed onto the shared node plant, and must
//! never change: a refactor of the drivers is held to "same fingerprints",
//! not merely "engines still agree". The arrival-mode event-engine entries
//! were added the same way before the machines' two fold paths became one
//! (recorded on the two-path code, unchanged since).
//!
//! Re-recording is only legitimate for a deliberate semantics change (a
//! new planner rule, a new seed derivation); the failure message prints
//! the observed value.

use std::cell::RefCell;
use std::path::Path;
use std::rc::Rc;
use std::time::Duration;

use byzantine::AttackKind;
use data::{synthetic_cifar, SyntheticConfig};
use guanyu::config::ClusterConfig;
use guanyu::cost::CostModel;
use guanyu::faults::FaultSchedule;
use guanyu::node::QuorumMode;
use guanyu::protocol::{build_simulation, ProtocolConfig, Recorder};
use guanyu::trace::positional_digest;
use guanyu_runtime::{run_cluster, RuntimeConfig, TransportKind};
use nn::{models, LrSchedule};
use scenario::{Scenario, ScenarioFile};
use simnet::{DelayModel, FaultEffect, FaultPlan, FaultRule, LinkScope, NodeId, SimTime};

/// Planned-mode trace fingerprint of every `scenario::matrix(40)` entry.
const MATRIX: [(&str, u64); 10] = [
    ("partition_heal", 0x10fa_4d36_30f2_f662),
    ("delay_spike", 0x8527_e4e8_37cf_a0fa),
    ("server_crash_recovery", 0xc7b1_6377_3565_1ab9),
    ("worker_crash_recovery", 0x266b_d98c_8fe1_777d),
    ("straggler_burst", 0x1b1e_f502_fa6a_32bb),
    ("worker_attack_onset", 0x35a1_a534_5acd_214b),
    ("server_attack_window", 0x135a_4f7d_236f_34ab),
    ("worker_churn", 0x340a_7acc_6342_6f5a),
    ("combined_stress", 0x7542_d042_9d17_9afe),
    ("switched_incast", 0xd004_1f78_afad_2ed9),
];

/// Planned-mode trace fingerprint of every committed reproducer.
const REPRODUCERS: [(&str, u64); 4] = [
    ("combined_stress", 0xefdc_8423_87c8_5a55),
    ("crash_after_partition", 0x1125_433f_0765_b12d),
    ("crash_plus_mute_server", 0xc517_d4ac_efcd_385a),
    ("switched_crash_budget", 0xa3e6_cbd4_0b19_837e),
];

/// `f64::to_bits` of the lockstep clock after `combined_stress` (matrix).
const LOCKSTEP_CLOCK_BITS: u64 = 0x3ff2_568f_0b9d_bfb5;

/// Arrival-mode full-quorum threaded run: `(trace fingerprint,
/// positional digest of server 0's final parameters)`, the same on every
/// transport and shard count.
const THREADED_ARRIVAL: (u64, u64) = (0x4406_3a39_1263_680a, 0xa25f_ea38_5b24_2ca8);

/// Runs `scn` on all three engines; every engine whose fingerprint is not
/// `want` adds a line to `wrong` (so one failing run lists every observed
/// value, not just the first).
fn check_all_engines(scn: &Scenario, want: u64, wrong: &mut Vec<String>) {
    let runs = [
        scenario::run_lockstep(scn).unwrap(),
        scenario::run_event(scn).unwrap(),
        scenario::run_threaded(scn).unwrap(),
    ];
    for run in runs {
        if run.fingerprint() != want {
            wrong.push(format!(
                "{}: {} fingerprint is {:#018x}, golden {want:#018x}",
                scn.name,
                run.engine,
                run.fingerprint()
            ));
        }
    }
}

#[test]
fn scenario_matrix_fingerprints_are_pinned() {
    let matrix = scenario::matrix(40);
    assert_eq!(matrix.len(), MATRIX.len(), "the matrix changed size");
    let mut wrong = Vec::new();
    for (scn, (name, want)) in matrix.iter().zip(MATRIX) {
        assert_eq!(scn.name, name, "the matrix changed order");
        check_all_engines(scn, want, &mut wrong);
    }
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}

#[test]
fn committed_reproducer_fingerprints_are_pinned() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/scenarios");
    let mut wrong = Vec::new();
    for (name, want) in REPRODUCERS {
        let file = ScenarioFile::load(&dir.join(format!("{name}.scenario.json"))).unwrap();
        check_all_engines(&file.scenario, want, &mut wrong);
    }
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}

#[test]
fn lockstep_clock_is_pinned() {
    let scn = scenario::matrix(40)
        .into_iter()
        .find(|s| s.name == "combined_stress")
        .unwrap();
    let run = scenario::run_lockstep(&scn).unwrap();
    assert_eq!(
        run.sim_secs.to_bits(),
        LOCKSTEP_CLOCK_BITS,
        "lockstep clock is {:#018x} ({} s)",
        run.sim_secs.to_bits(),
        run.sim_secs
    );
}

#[test]
fn threaded_arrival_run_is_pinned_on_every_transport_and_shard_count() {
    let run = |transport: TransportKind, shards: usize| {
        let (train, _) = synthetic_cifar(&SyntheticConfig {
            train: 64,
            test: 0,
            side: 8,
            seed: 77,
            ..Default::default()
        })
        .unwrap();
        let cfg = RuntimeConfig {
            cluster: ClusterConfig::with_quorums(3, 0, 4, 0, 3, 4).unwrap(),
            max_steps: 4,
            batch_size: 8,
            seed: 77,
            server_gar: aggregation::GarKind::Median,
            wall_timeout: Duration::from_secs(120),
            transport,
            shards,
            ..RuntimeConfig::default_for_tests()
        };
        let report = run_cluster(&cfg, |rng| models::small_cnn(8, 2, 10, rng), train).unwrap();
        (
            report.trace.fingerprint(),
            positional_digest(0, report.final_params[0].as_slice()),
        )
    };
    for (transport, shards) in [
        (TransportKind::Channel, 1),
        (TransportKind::TcpLoopback, 1),
        (TransportKind::TcpLoopback, 4),
    ] {
        let got = run(transport, shards);
        assert_eq!(
            got, THREADED_ARRIVAL,
            "{transport}/{shards} shards: got ({:#018x}, {:#018x})",
            got.0, got.1
        );
    }
}

/// Arrival-mode event-engine runs at the default partial quorums
/// (6/1/9/2 ⇒ q = 5 of 6, q̄ = 7 of 9): `(trace fingerprint, positional digest of
/// server 0's final parameters)`. Membership here is the first `q`
/// arrivals under the seeded delay model, folded sender-sorted, so these
/// pin first-`q` selection, fold order and newest-quorate recovery — which
/// `seed_stability` only ever compares with themselves.
const EVENT_ARRIVAL_HONEST: (u64, u64) = (0x9119_a4ae_592d_1fff, 0x49d1_f08a_96c3_ec11);
const EVENT_ARRIVAL_BYZANTINE: (u64, u64) = (0xd909_05e1_c133_0fa3, 0x1daa_ef98_51da_4dd7);
const EVENT_ARRIVAL_RECOVERY: (u64, u64) = (0x273e_5a7d_5c5c_04c4, 0xc24f_8003_4822_678e);
const EVENT_ARRIVAL_SINGLE_SERVER: (u64, u64) = (0xc8c0_b0df_7cf7_d6a0, 0x83e7_0307_4b3d_2d4a);
const EVENT_ARRIVAL_CONGESTED: (u64, u64) = (0x7f98_2f7f_3353_e4d7, 0xfcb9_1d96_784c_8722);

/// The recovery case's crash window in simulated seconds: a fault-free
/// round takes ≈ 0.7 ms at this shape, so server 1 is cut off from early
/// in step 2 until step 5 is under way.
const CRASH_FROM_SECS: f64 = 0.0015;
const CRASH_UNTIL_SECS: f64 = 0.0036;

fn event_arrival_cfg(max_steps: u64) -> ProtocolConfig {
    ProtocolConfig {
        cluster: ClusterConfig::new(6, 1, 9, 2).unwrap(),
        max_steps,
        lr: LrSchedule::constant(0.05),
        server_gar: aggregation::GarKind::MultiKrum,
        cost: CostModel::guanyu(),
        batch_size: 8,
        actual_byz_workers: 0,
        worker_attack: None,
        actual_byz_servers: 0,
        server_attack: None,
        worker_attack_windows: Vec::new(),
        server_attack_windows: Vec::new(),
        recovery: false,
        mode: QuorumMode::Arrival,
        faults: FaultSchedule::none(),
    }
}

/// Runs `cfg` on the event engine (seed 77, grid5000 delays, `plan`
/// installed) and returns the recorder.
fn run_event_arrival(cfg: &ProtocolConfig, plan: FaultPlan) -> Rc<RefCell<Recorder>> {
    let (train, _) = synthetic_cifar(&SyntheticConfig {
        train: 64,
        test: 0,
        side: 8,
        seed: 77,
        ..Default::default()
    })
    .unwrap();
    let (sim, rec) = build_simulation(
        cfg,
        |rng| models::small_cnn(8, 2, 10, rng),
        train,
        77,
        DelayModel::grid5000(),
    )
    .unwrap();
    sim.with_faults(plan).run();
    rec
}

fn pinned(rec: &Recorder) -> (u64, u64) {
    (
        rec.trace().fingerprint(),
        positional_digest(0, rec.final_params()[0].as_slice()),
    )
}

fn assert_pinned(case: &str, got: (u64, u64), want: (u64, u64)) {
    assert_eq!(got, want, "{case}: got ({:#018x}, {:#018x})", got.0, got.1);
}

#[test]
fn event_arrival_honest_run_is_pinned() {
    let rec = run_event_arrival(&event_arrival_cfg(6), FaultPlan::none());
    let rec = rec.borrow();
    assert_eq!(rec.updates, 36, "6 servers × 6 steps");
    assert!(
        rec.records
            .iter()
            .all(|r| r.grad_quorum.len() == 7 && r.exch_quorum.len() == 5),
        "every fold is a partial quorum"
    );
    assert_pinned("honest", pinned(&rec), EVENT_ARRIVAL_HONEST);
}

#[test]
fn event_arrival_byzantine_run_is_pinned() {
    let mut cfg = event_arrival_cfg(6);
    cfg.actual_byz_servers = 1;
    cfg.server_attack = Some(AttackKind::Equivocate { scale: 10.0 });
    cfg.actual_byz_workers = 2;
    cfg.worker_attack = Some(AttackKind::Random { scale: 100.0 });
    let rec = run_event_arrival(&cfg, FaultPlan::none());
    let rec = rec.borrow();
    assert_eq!(rec.updates, 30, "5 honest servers × 6 steps");
    let forged = |ids: &[usize], byz: std::ops::Range<usize>| ids.iter().any(|id| byz.contains(id));
    assert!(
        rec.records.iter().any(|r| forged(&r.grad_quorum, 13..15)),
        "forged gradients must reach a fold"
    );
    assert!(
        rec.records.iter().any(|r| forged(&r.exch_quorum, 5..6)),
        "forged exchanges must reach a fold"
    );
    assert_pinned("byzantine", pinned(&rec), EVENT_ARRIVAL_BYZANTINE);
}

#[test]
fn event_arrival_recovery_run_is_pinned() {
    let mut cfg = event_arrival_cfg(10);
    cfg.recovery = true;
    // Server 1 loses all traffic for a few rounds in the middle of the run;
    // when it is reachable again its step is stale and only the
    // newest-quorate fast-forward brings it back.
    let plan = FaultPlan::none().crash(
        NodeId(1),
        SimTime::from_secs_f64(CRASH_FROM_SECS),
        SimTime::from_secs_f64(CRASH_UNTIL_SECS),
    );
    let rec = run_event_arrival(&cfg, plan);
    let rec = rec.borrow();
    let steps_of = |s: usize| -> Vec<u64> {
        rec.records
            .iter()
            .filter(|r| r.server == s)
            .map(|r| r.step)
            .collect()
    };
    assert_eq!(steps_of(0), (0..10).collect::<Vec<_>>());
    let crashed = steps_of(1);
    assert!(
        crashed.len() < 10 && crashed.last() == Some(&9),
        "server 1 must skip steps and still finish: {crashed:?}"
    );
    assert_pinned("recovery", pinned(&rec), EVENT_ARRIVAL_RECOVERY);
}

#[test]
fn event_arrival_single_server_run_is_pinned() {
    let cfg = ProtocolConfig {
        cluster: ClusterConfig::single_server(4),
        server_gar: aggregation::GarKind::Average,
        cost: CostModel::vanilla_tf(),
        ..event_arrival_cfg(5)
    };
    let rec = run_event_arrival(&cfg, FaultPlan::none());
    let rec = rec.borrow();
    assert_eq!(rec.updates, 5, "1 server × 5 steps");
    assert!(
        rec.records.iter().all(|r| r.exch_quorum.is_empty()),
        "no exchange plane"
    );
    assert_pinned("single server", pinned(&rec), EVENT_ARRIVAL_SINGLE_SERVER);
}

#[test]
fn event_arrival_congested_run_is_pinned() {
    // The paper's case against timing assumptions (§2): the adversary slows
    // server 0's ingress 50× and makes honest worker 12 straggle by 2 s.
    // Quorums are the first q arrivals, so every honest server still
    // finishes every step; the delays only move when.
    let mut cfg = event_arrival_cfg(6);
    cfg.actual_byz_workers = 2;
    cfg.worker_attack = Some(AttackKind::Random { scale: 100.0 });
    let plan = FaultPlan::none()
        .with_rule(FaultRule {
            scope: LinkScope::To(NodeId(0)),
            start: SimTime::ZERO,
            end: SimTime(u64::MAX),
            effect: FaultEffect::Delay {
                factor: 50.0,
                extra_secs: 0.0,
            },
        })
        .straggler(NodeId(12), 2.0, SimTime::ZERO, SimTime(u64::MAX));
    let last_step_at = |rec: &Recorder| rec.step_finished_at(cfg.max_steps - 1).unwrap();
    let clean = last_step_at(&run_event_arrival(&cfg, FaultPlan::none()).borrow());
    let rec = run_event_arrival(&cfg, plan);
    let rec = rec.borrow();
    for server in 0..6 {
        let steps: Vec<u64> = rec
            .records
            .iter()
            .filter(|r| r.server == server)
            .map(|r| r.step)
            .collect();
        assert_eq!(steps, (0..6).collect::<Vec<_>>(), "server {server}");
    }
    assert!(
        last_step_at(&rec) > clean,
        "the delay must take effect: last step at {} vs {clean} fault-free",
        last_step_at(&rec)
    );
    assert_pinned("congested", pinned(&rec), EVENT_ARRIVAL_CONGESTED);
}
