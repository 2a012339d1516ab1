//! Asynchrony in action: GuanYu under adversarial network scheduling.
//!
//! The paper's argument against state-machine replication (§2) is that any
//! timing assumption hands the adversary a lever — so GuanYu makes none.
//! This example runs the *event-driven* protocol over the discrete-event
//! simulator twice: once on a clean 10 Gbps network, once with the
//! adversary congesting one honest server's ingress by 50× and turning an
//! honest worker into an extreme straggler. Quorums route around the slow
//! nodes; every server still finishes every step.
//!
//! Run with: `cargo run --release --example async_simulation`

use byzantine::AttackKind;
use data::{synthetic_cifar, SyntheticConfig};
use guanyu::config::ClusterConfig;
use guanyu::cost::CostModel;
use guanyu::protocol::{build_simulation, ProtocolConfig};
use nn::{models, LrSchedule};
use simnet::{DelayModel, FaultEffect, FaultPlan, FaultRule, LinkScope, NodeId, SimTime};

fn run(label: &str, plan: FaultPlan) {
    let train = synthetic_cifar(&SyntheticConfig {
        train: 256,
        test: 0,
        side: 8,
        ..Default::default()
    })
    .expect("dataset")
    .0;

    let cfg = ProtocolConfig {
        cluster: ClusterConfig::new(6, 1, 18, 5).expect("valid"),
        max_steps: 10,
        lr: LrSchedule::constant(0.05),
        server_gar: aggregation::GarKind::MultiKrum,
        cost: CostModel::guanyu(),
        batch_size: 16,
        actual_byz_workers: 3,
        worker_attack: Some(AttackKind::Random { scale: 100.0 }),
        actual_byz_servers: 0,
        server_attack: None,
        worker_attack_windows: Vec::new(),
        server_attack_windows: Vec::new(),
        recovery: false,
        mode: guanyu::node::QuorumMode::Arrival,
        faults: guanyu::faults::FaultSchedule::none(),
    };
    let (sim, recorder) = build_simulation(
        &cfg,
        |rng| models::small_cnn(8, 4, 10, rng),
        train,
        17,
        DelayModel::grid5000(),
    )
    .expect("simulation");
    let mut sim = sim.with_faults(plan);
    let delivered = sim.run();

    let rec = recorder.borrow();
    let last_step_at = rec
        .step_finished_at(cfg.max_steps - 1)
        .expect("all steps finish");
    println!("== {label} ==");
    println!(
        "  {} messages delivered | {} honest-server updates | last step done at {}",
        delivered, rec.updates, last_step_at
    );
    let diam = aggregation::properties::diameter(&rec.final_params()).expect("diameter");
    println!("  final honest-server diameter: {diam:.6}\n");
    assert_eq!(
        rec.updates,
        cfg.max_steps * (cfg.cluster.servers - cfg.actual_byz_servers) as u64,
        "every honest server must finish every step — asynchrony cannot block quorums"
    );
}

fn main() {
    run("clean 10 Gbps network", FaultPlan::none());
    run(
        "adversarial scheduling (server-0 ingress 50x slower, worker-6 straggles 2s)",
        FaultPlan::none()
            .with_rule(FaultRule {
                scope: LinkScope::To(NodeId(0)),
                start: SimTime::ZERO,
                end: SimTime(u64::MAX),
                effect: FaultEffect::Delay {
                    factor: 50.0,
                    extra_secs: 0.0,
                },
            })
            .straggler(NodeId(12), 2.0, SimTime::ZERO, SimTime(u64::MAX)),
    );
    println!(
        "same updates completed in both runs: GuanYu's quorums wait for the \
         fastest q responders, so targeted congestion slows but never halts training."
    );
}
