//! Extension experiment: attack-strength sweep.
//!
//! How strong does an attack have to be before it matters? Sweeps the
//! amplification of the sign-flip attack and the `z` of *a little is
//! enough* against GuanYu at full declared fault load, plus the two
//! stealth attacks added in this reproduction (stale replay, orthogonal
//! drift). Gross attacks are filtered at any strength; stealth attacks
//! trade strength against detectability.
//!
//! Usage: `attack_sweep [--steps 150] [--seed 9] [--quick]`

use byzantine::AttackKind;
use guanyu::experiment::{run, ExperimentConfig, SystemKind};
use guanyu_bench::save_json;
use scenario::cli::{arg, flag};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let steps: u64 = arg(&args, "steps", if flag(&args, "quick") { 50 } else { 150 });
    let seed: u64 = arg(&args, "seed", 9);

    let attacks: Vec<AttackKind> = vec![
        AttackKind::SignFlip { factor: 1.0 },
        AttackKind::SignFlip { factor: 10.0 },
        AttackKind::SignFlip { factor: 100.0 },
        AttackKind::LittleIsEnough { z: 0.5 },
        AttackKind::LittleIsEnough { z: 1.5 },
        AttackKind::LittleIsEnough { z: 3.0 },
        AttackKind::StaleReplay {
            lag: 1,
            factor: 1.0,
        },
        AttackKind::StaleReplay {
            lag: 5,
            factor: 2.0,
        },
        AttackKind::Orthogonal,
    ];

    println!("Attack-strength sweep | GuanYu (6,1,18,5) | 5 Byzantine workers | {steps} steps\n");
    println!("{:<28} {:>12} {:>12}", "attack", "best acc", "final loss");
    let mut results = Vec::new();
    for attack in attacks {
        let mut cfg = ExperimentConfig::paper_shaped(seed);
        cfg.steps = steps;
        cfg.eval_every = (steps / 10).max(1);
        cfg.actual_byz_workers = 5;
        cfg.worker_attack = Some(attack);
        let mut r = run(SystemKind::GuanYu, &cfg).expect("run");
        r.system = attack.to_string();
        println!(
            "{:<28} {:>12.4} {:>12.4}",
            attack.to_string(),
            r.best_accuracy(),
            r.records.last().map_or(f32::NAN, |x| x.loss)
        );
        results.push(r);
    }
    println!(
        "\nexpected shape: gross attacks (high factors) are fully filtered — the \
         bounded-deviation lemma in action. The interesting row is sign-flip(x1): \
         five colluding copies of exactly -mean sit INSIDE the honest spread, score \
         each other as closest neighbours and get selected — the inner-product \
         attack of El-Mhamdi et al.'s own 'Hidden Vulnerability' paper (ICML 2018), \
         which Multi-Krum is known not to cover and which motivated Bulyan. \
         GuanYu inherits the limitation from its GAR; it is orthogonal to the \
         Byzantine-server contribution reproduced here."
    );
    save_json("attack_sweep", &results);
}
