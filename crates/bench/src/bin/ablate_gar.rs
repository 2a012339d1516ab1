//! Ablation: the server-side gradient aggregation rule under attack.
//!
//! GuanYu specifies Multi-Krum at the servers; this bin swaps in the other
//! robust rules (median, trimmed mean, geometric median) and the vulnerable
//! average, all under the same Byzantine-worker attacks, and reports final
//! accuracy. Expected shape: every robust rule survives, averaging
//! collapses.
//!
//! Usage: `ablate_gar [--steps 150] [--seed 6] [--quick]`

use aggregation::GarKind;
use byzantine::AttackKind;
use guanyu::experiment::{run, ExperimentConfig, SystemKind};
use guanyu_bench::save_json;
use scenario::cli::{arg, flag};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let steps: u64 = arg(&args, "steps", if flag(&args, "quick") { 50 } else { 150 });
    let seed: u64 = arg(&args, "seed", 6);

    let gars = [
        GarKind::MultiKrum,
        GarKind::Median,
        GarKind::TrimmedMean,
        GarKind::Meamed,
        GarKind::GeometricMedian,
        GarKind::Average,
    ];
    let attacks = [
        AttackKind::Random { scale: 100.0 },
        AttackKind::SignFlip { factor: 10.0 },
        AttackKind::LittleIsEnough { z: 1.5 },
    ];

    println!("GAR ablation | GuanYu cluster (6,1,18,5) | 5 Byzantine workers | {steps} steps\n");
    println!(
        "{:<20} {:<26} {:>12} {:>12}",
        "server GAR", "attack", "best acc", "final loss"
    );

    let mut results = Vec::new();
    for gar in gars {
        for attack in attacks {
            let mut cfg = ExperimentConfig::paper_shaped(seed);
            cfg.steps = steps;
            cfg.eval_every = (steps / 10).max(1);
            cfg.server_gar = Some(gar);
            cfg.actual_byz_workers = 5;
            cfg.worker_attack = Some(attack);
            let mut r = run(SystemKind::GuanYu, &cfg).expect("run");
            r.system = format!("{gar} vs {attack}");
            let final_loss = r.records.last().map_or(f32::NAN, |x| x.loss);
            println!(
                "{:<20} {:<26} {:>12.4} {:>12.4}",
                gar.to_string(),
                attack.to_string(),
                r.best_accuracy(),
                final_loss
            );
            results.push(r);
        }
    }
    println!("\nexpected shape: robust rules keep accuracy near the honest run; average collapses on gross attacks");
    save_json("ablate_gar", &results);
}
