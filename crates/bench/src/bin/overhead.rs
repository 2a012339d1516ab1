//! §5.3 overhead numbers: the 65% low-level-runtime cost and the ~30%
//! Byzantine-resilience cost.
//!
//! Two views:
//!
//! 1. **analytic** — the per-step critical path from the cost model at the
//!    paper's scale (d = 1.75M, batch 128, 18 workers, 10 Gbps), matching
//!    the units of the paper's measurements;
//! 2. **measured** — simulated time-to-target-accuracy ratios from actual
//!    scaled-down runs (same code path as fig3).
//!
//! Usage: `overhead [--steps 300] [--seed 4] [--quick]`

use guanyu::cost::CostModel;
use guanyu::experiment::{run, ExperimentConfig, SystemKind};
use guanyu_bench::save_json;
use scenario::cli::{arg, flag};

fn analytic() -> (f64, f64, f64) {
    let d = 1_750_000usize;
    let batch = 128usize;
    let workers = 18usize;
    let (q_grad, q_model) = (13usize, 5usize);
    let tf = CostModel::vanilla_tf();
    let gy = CostModel::guanyu();

    let t_tf = tf.gradient_secs(batch, d)
        + 2.0 * tf.transfer_secs(d)
        + tf.average_secs(workers, d)
        + tf.update_secs(d);
    let t_gyv = gy.gradient_secs(batch, d)
        + 2.0 * gy.transfer_secs(d)
        + gy.average_secs(workers, d)
        + gy.update_secs(d)
        + 2.0 * gy.convert_secs(d);
    let t_gyb = t_gyv
        + gy.median_secs(q_model, d)
        + gy.multikrum_secs(q_grad, d)
        + gy.transfer_secs(d)
        + gy.median_secs(q_model, d);
    (t_tf, t_gyv, t_gyb)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let steps: u64 = arg(&args, "steps", if flag(&args, "quick") { 60 } else { 300 });
    let seed: u64 = arg(&args, "seed", 4);

    println!("== analytic per-step cost at the paper's scale ==");
    let (t_tf, t_gyv, t_gyb) = analytic();
    println!("{:<28} {:>12} {:>12}", "system", "s/step", "vs vanilla");
    println!("{:<28} {:>12.4} {:>11.0}%", "vanilla TF", t_tf, 0.0);
    println!(
        "{:<28} {:>12.4} {:>11.0}%",
        "GuanYu (vanilla)",
        t_gyv,
        (t_gyv / t_tf - 1.0) * 100.0
    );
    println!(
        "{:<28} {:>12.4} {:>11.0}%",
        "GuanYu (Byzantine)",
        t_gyb,
        (t_gyb / t_tf - 1.0) * 100.0
    );
    println!(
        "low-level-runtime overhead: {:.0}% (paper: 65%) | Byzantine cost over vanilla GuanYu: {:.0}% (paper: up to 33%)",
        (t_gyv / t_tf - 1.0) * 100.0,
        (t_gyb / t_gyv - 1.0) * 100.0
    );

    println!("\n== measured from scaled-down runs ==");
    let mut base = ExperimentConfig::paper_shaped(seed);
    base.steps = steps;
    base.eval_every = (steps / 15).max(1);
    let systems = [
        SystemKind::VanillaTf,
        SystemKind::VanillaGuanYu,
        SystemKind::GuanYu,
    ];
    let results: Vec<_> = systems
        .iter()
        .map(|&s| run(s, &base).expect("run"))
        .collect();
    println!(
        "{:<28} {:>14} {:>16}",
        "system", "total time (s)", "updates/s"
    );
    for r in &results {
        println!(
            "{:<28} {:>14.3} {:>16.3}",
            r.system,
            r.total_secs,
            r.throughput()
        );
    }
    let tf = &results[0];
    let gv = &results[1];
    let gy = &results[2];
    println!(
        "\nmeasured: low-level overhead {:.0}% | Byzantine cost {:.0}% (time ratios for equal steps)",
        (gv.total_secs / tf.total_secs - 1.0) * 100.0,
        (gy.total_secs / gv.total_secs - 1.0) * 100.0
    );
    save_json("overhead", &results);
}
