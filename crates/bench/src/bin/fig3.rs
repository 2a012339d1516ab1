//! Figure 3 — overhead of GuanYu in a non-Byzantine environment.
//!
//! Reproduces all four panels: accuracy vs model updates (a/c) and accuracy
//! vs time (b/d), for the five systems of the paper's legend, at two
//! mini-batch sizes. No actual attackers run; the GuanYu variants differ
//! only in the *declared* Byzantine counts (which size the quorums).
//!
//! Usage: `fig3 [--batch 32] [--steps 400] [--seed 1] [--quick]`

use guanyu::config::ClusterConfig;
use guanyu::experiment::{run, ExperimentConfig, SystemKind};
use guanyu_bench::{print_curve, print_time_to_accuracy, save_json};
use scenario::cli::{arg, flag};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let batch: usize = arg(&args, "batch", 32);
    let steps: u64 = arg(&args, "steps", if flag(&args, "quick") { 60 } else { 400 });
    let seed: u64 = arg(&args, "seed", 1);

    let mut base = ExperimentConfig::paper_shaped(seed);
    base.batch_size = batch;
    base.steps = steps;
    base.eval_every = (steps / 20).max(1);

    println!("Figure 3 | mini-batch {batch} | {steps} steps | seed {seed}");
    println!("(accuracy-vs-updates = panels a/c, accuracy-vs-time = panels b/d)");

    let mut results = Vec::new();

    // vanilla TF and vanilla GuanYu: single server, averaging.
    for system in [SystemKind::VanillaTf, SystemKind::VanillaGuanYu] {
        let r = run(system, &base).expect("baseline run");
        print_curve(&r);
        results.push(r);
    }

    // GuanYu with the paper's three declared-fault settings.
    let declared = [
        (0usize, 0usize),
        (5, 0),
        (5, 1), // the full paper deployment
    ];
    for (fw, fs) in declared {
        let mut cfg = base.clone();
        cfg.cluster = ClusterConfig::new(6, fs, 18, fw).expect("paper-shaped clusters are valid");
        let r = run(SystemKind::GuanYu, &cfg).expect("guanyu run");
        print_curve(&r);
        results.push(r);
    }

    print_time_to_accuracy(&results, 0.6);
    save_json(&format!("fig3_batch{batch}"), &results);
}
