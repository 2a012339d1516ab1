//! Absolute fingerprints: the behavioural oracle pinned to constants.
//!
//! Every other cross-engine test asserts *equality* between engines, so a
//! change that shifts all three drivers together (a different θ₀ draw, a
//! re-ordered RNG fork, a batch stream seeded differently) would pass them
//! all. The values below were recorded once, on the code as it stood
//! before the drivers were collapsed onto the shared node plant, and must
//! never change: a refactor of the drivers is held to "same fingerprints",
//! not merely "engines still agree".
//!
//! Re-recording is only legitimate for a deliberate semantics change (a
//! new planner rule, a new seed derivation); the failure message prints
//! the observed value.

use std::path::Path;
use std::time::Duration;

use data::{synthetic_cifar, SyntheticConfig};
use guanyu::config::ClusterConfig;
use guanyu::trace::positional_digest;
use guanyu_runtime::{run_cluster, RuntimeConfig, TransportKind};
use nn::models;
use scenario::{Scenario, ScenarioFile};

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
