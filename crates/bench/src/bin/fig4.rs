//! Figure 4 — impact of Byzantine players on convergence.
//!
//! Three curves: honest vanilla TF, vanilla TF with one Byzantine worker
//! (sending totally corrupted gradients — averaging has no defence), and
//! GuanYu (fwrk=5, fps=1) running with five actually-Byzantine workers and
//! one actually-Byzantine (equivocating) server.
//!
//! Usage: `fig4 [--steps 400] [--seed 2] [--quick]`

use byzantine::AttackKind;
use guanyu::experiment::{run, ExperimentConfig, SystemKind};
use guanyu_bench::{print_curve, save_json};
use scenario::cli::{arg, flag};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let steps: u64 = arg(&args, "steps", if flag(&args, "quick") { 60 } else { 400 });
    let seed: u64 = arg(&args, "seed", 2);

    let mut base = ExperimentConfig::paper_shaped(seed);
    base.steps = steps;
    base.eval_every = (steps / 20).max(1);

    println!("Figure 4 | {steps} steps | seed {seed}");

    let mut results = Vec::new();

    // Honest vanilla TF (reference).
    let r = run(SystemKind::VanillaTf, &base).expect("vanilla run");
    print_curve(&r);
    results.push(r);

    // Vanilla TF with a single Byzantine worker: the paper's point that it
    // "cannot tolerate even one Byzantine player".
    let mut attacked = base.clone();
    attacked.actual_byz_workers = 1;
    attacked.worker_attack = Some(AttackKind::Random { scale: 100.0 });
    let mut r = run(SystemKind::VanillaTf, &attacked).expect("attacked vanilla run");
    r.system = "vanilla TF (Byzantine)".to_owned();
    print_curve(&r);
    results.push(r);

    // GuanYu under the full declared fault load, actually attacked on both
    // sides.
    let mut guanyu = base.clone();
    guanyu.actual_byz_workers = 5;
    guanyu.worker_attack = Some(AttackKind::Random { scale: 100.0 });
    guanyu.actual_byz_servers = 1;
    guanyu.server_attack = Some(AttackKind::Equivocate { scale: 10.0 });
    let r = run(SystemKind::GuanYu, &guanyu).expect("guanyu attacked run");
    print_curve(&r);
    results.push(r);

    println!("\n-- verdict --");
    for r in &results {
        println!(
            "{:<28} best accuracy {:.4} | final loss {:.4}",
            r.system,
            r.best_accuracy(),
            r.records.last().map_or(f32::NAN, |x| x.loss)
        );
    }
    save_json("fig4", &results);
}
