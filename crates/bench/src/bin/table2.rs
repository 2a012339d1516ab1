//! Table 2 — contraction / alignment of the parameter vectors.
//!
//! Runs GuanYu and, every 20 steps, takes the two largest difference
//! vectors between honest servers' models and prints the cosine of the
//! angle between them (the paper's supplementary §9.4 methodology). The
//! paper's claim: late in training the value is consistently close to 1.
//!
//! Usage: `table2 [--steps 400] [--seed 3] [--quick]`

use guanyu::contraction::aligned_fraction;
use guanyu::experiment::{run_with_alignment, ExperimentConfig};
use guanyu_bench::save_json;
use scenario::cli::{arg, flag};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let steps: u64 = arg(&args, "steps", if flag(&args, "quick") { 120 } else { 400 });
    let seed: u64 = arg(&args, "seed", 3);

    let mut cfg = ExperimentConfig::paper_shaped(seed);
    cfg.steps = steps;
    cfg.eval_every = steps; // only final accuracy matters here

    println!("Table 2 | GuanYu (fwrk=5, fps=1) | {steps} steps | snapshot every 20\n");
    let (result, alignment) = run_with_alignment(&cfg).expect("guanyu run");

    println!(
        "{:>8} {:>12} {:>12} {:>12}",
        "step", "cos(phi)", "max diff1", "max diff2"
    );
    for rec in &alignment {
        println!(
            "{:>8} {:>12.6} {:>12.6} {:>12.6}",
            rec.step, rec.cos_phi, rec.max_diff1, rec.max_diff2
        );
    }

    // The paper's assumption 2 holds *eventually*: judge the second half.
    let late: Vec<_> = alignment
        .iter()
        .copied()
        .filter(|r| r.step > steps / 2)
        .collect();
    let frac = aligned_fraction(&late, 0.9);
    println!(
        "\nlate-training snapshots with |cos(phi)| >= 0.9: {:.0}% ({} of {})",
        frac * 100.0,
        (frac * late.len() as f32).round(),
        late.len()
    );
    println!("final accuracy: {:.4}", result.best_accuracy());
    save_json("table2", &alignment);
}
