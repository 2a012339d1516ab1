//! Ablation: the inter-server model-exchange phase (step 3 of the
//! protocol).
//!
//! The exchange-and-median fold is what the contraction lemma acts
//! through: without it, honest servers' models drift apart (each folds a
//! different gradient quorum every step). This bin runs GuanYu with the
//! phase on and off and reports the honest-server diameter over time plus
//! final accuracy.
//!
//! Usage: `ablate_exchange [--steps 150] [--seed 7] [--quick]`

use guanyu::experiment::{build_trainer, ExperimentConfig, SystemKind};
use guanyu_bench::save_json;
use scenario::cli::{arg, flag};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let steps: u64 = arg(&args, "steps", if flag(&args, "quick") { 50 } else { 150 });
    let seed: u64 = arg(&args, "seed", 7);

    println!("Exchange ablation | GuanYu (6,1,18,5) | {steps} steps\n");
    let mut summary = Vec::new();
    for disable in [false, true] {
        let mut cfg = ExperimentConfig::paper_shaped(seed);
        cfg.steps = steps;
        cfg.disable_exchange = disable;
        let label = if disable {
            "exchange OFF"
        } else {
            "exchange ON"
        };
        let mut trainer = build_trainer(SystemKind::GuanYu, &cfg).expect("trainer");
        println!("-- {label} --");
        println!("{:>8} {:>16} {:>12}", "step", "server diameter", "accuracy");
        let mut rows = Vec::new();
        let eval_every = (steps / 10).max(1);
        for s in 1..=steps {
            trainer.step().expect("step");
            if s % eval_every == 0 || s == steps {
                let diam = aggregation::properties::diameter(trainer.honest_server_params())
                    .expect("diameter");
                let rec = trainer.evaluate().expect("eval");
                println!("{:>8} {:>16.6} {:>12.4}", s, diam, rec.accuracy);
                rows.push((s, diam, rec.accuracy));
            }
        }
        let final_diam = rows.last().map_or(0.0, |r| r.1);
        summary.push((label.to_owned(), final_diam, rows));
        println!();
    }

    let on_diam = summary[0].1;
    let off_diam = summary[1].1;
    println!(
        "final honest-server diameter: exchange ON {on_diam:.6} vs OFF {off_diam:.6} \
         (expected shape: OFF ≫ ON — the median exchange is what contracts the replicas)"
    );
    save_json(
        "ablate_exchange",
        &summary
            .iter()
            .map(|(l, d, rows)| (l.clone(), *d, rows.clone()))
            .collect::<Vec<_>>(),
    );
}
