//! Ablation: gradient-quorum size q̄ vs convergence and throughput.
//!
//! The paper's §5.3 observes that *declaring more Byzantine workers helps
//! step-efficiency*: a larger q̄ makes servers wait for more gradients, so
//! each update averages more information (fewer steps to a given accuracy)
//! at lower throughput. This bin sweeps q̄ across its legal range
//! `[2f̄ + 3, n̄ − f̄]` for a fixed cluster and reports both sides of the
//! trade-off.
//!
//! Usage: `ablate_quorum [--steps 200] [--seed 5] [--quick]`

use guanyu::config::ClusterConfig;
use guanyu::experiment::{run, ExperimentConfig, SystemKind};
use guanyu_bench::save_json;
use scenario::cli::{arg, flag};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let steps: u64 = arg(&args, "steps", if flag(&args, "quick") { 60 } else { 200 });
    let seed: u64 = arg(&args, "seed", 5);

    // n̄ = 18, f̄ = 2 → q̄ ∈ [7, 16]; f = 1 on 6 servers → q = 5.
    let sweep = [7usize, 10, 13, 16];
    println!("Quorum ablation | n̄=18, f̄=2 | q̄ in {sweep:?} | {steps} steps\n");
    println!(
        "{:<8} {:>12} {:>14} {:>16} {:>14}",
        "q̄", "best acc", "steps to 50%", "updates/s", "total time (s)"
    );

    let mut results = Vec::new();
    for &q in &sweep {
        let mut cfg = ExperimentConfig::paper_shaped(seed);
        cfg.cluster = ClusterConfig::with_quorums(6, 1, 18, 2, 5, q).expect("legal quorum");
        cfg.steps = steps;
        cfg.eval_every = (steps / 20).max(1);
        let mut r = run(SystemKind::GuanYu, &cfg).expect("run");
        r.system = format!("q̄={q}");
        println!(
            "{:<8} {:>12.4} {:>14} {:>16.3} {:>14.3}",
            q,
            r.best_accuracy(),
            r.steps_to_accuracy(0.5)
                .map_or("never".to_owned(), |s| s.to_string()),
            r.throughput(),
            r.total_secs
        );
        results.push(r);
    }
    println!("\nexpected shape: larger q̄ → fewer steps to target, lower updates/s");
    save_json("ablate_quorum", &results);
}
