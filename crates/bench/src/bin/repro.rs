//! Regenerates the paper's tables and figures, and this reproduction's
//! extensions, one subcommand per table (DESIGN.md §3 has the index):
//! `repro <table | all> [--steps N] [--seed S] [--tiny] [--batch B]`.
//!
//! A table takes `--steps`, `--seed` and `--tiny` (test scale:
//! `ExperimentConfig::tiny()`, or the matrix's own `Scenario::baseline`);
//! `fig3` also takes `--batch` and `table1` takes none. It prints aligned
//! text and hands its JSON to `main`, which writes `results/<name>.json`.
//! Exit codes: 0 clean, 1 a failed scenario check, 2 an unknown table, a
//! flag the table does not take or an unreadable value.

use std::fs;
use std::path::PathBuf;
use std::str::FromStr;

use aggregation::GarKind;
use byzantine::AttackKind;
use data::{label_skew, partition_indices, synthetic_cifar, Dataset, Partition};
use guanyu::config::ClusterConfig;
use guanyu::contraction::aligned_fraction;
use guanyu::cost::CostModel;
use guanyu::experiment::{build_trainer, run, run_with_alignment, ExperimentConfig, SystemKind};
use guanyu::metrics::RunResult;
use nn::models;
use scenario::check::{assert_deterministic, check_invariants, InvariantReport};
use scenario::cli::{flag, parse_arg};
use scenario::{matrix, Engine};
use tensor::TensorRng;

/// A table: its name, the flags it takes and the function that runs it.
type Table = (&'static str, &'static [&'static str], fn(&Args) -> Output);

const RUN_FLAGS: &[&str] = &["steps", "seed", "tiny"];

/// Every table, in the order `all` runs them.
const TABLES: [Table; 11] = [
    ("fig3", &["steps", "seed", "tiny", "batch"], fig3),
    ("fig4", RUN_FLAGS, fig4),
    ("table1", &[], table1),
    ("table2", RUN_FLAGS, table2),
    ("overhead", RUN_FLAGS, overhead),
    ("attack_sweep", RUN_FLAGS, attack_sweep),
    ("noniid", RUN_FLAGS, noniid),
    ("ablate_gar", RUN_FLAGS, ablate_gar),
    ("ablate_exchange", RUN_FLAGS, ablate_exchange),
    ("ablate_quorum", RUN_FLAGS, ablate_quorum),
    ("scenario_sweep", RUN_FLAGS, scenario_sweep),
];

/// The flags of one invocation; `None` keeps a table's own default.
#[derive(Debug, Default)]
struct Args {
    steps: Option<u64>,
    seed: Option<u64>,
    batch: Option<usize>,
    tiny: bool,
}

impl Args {
    /// A training table's configuration: test scale under `--tiny`, else
    /// the paper's shape, at `--seed` / `--steps` or the table's `seed` and
    /// paper-scale `steps`, evaluating `evals` times.
    fn config(&self, seed: u64, steps: u64, evals: u64) -> ExperimentConfig {
        let seed = self.seed.unwrap_or(seed);
        let mut cfg = if self.tiny {
            let mut cfg = ExperimentConfig::tiny();
            cfg.seed = seed;
            cfg.data.seed = seed;
            cfg
        } else {
            ExperimentConfig::paper_shaped(seed)
        };
        cfg.steps = self
            .steps
            .unwrap_or(if self.tiny { cfg.steps } else { steps });
        cfg.eval_every = (cfg.steps / evals).max(1);
        cfg
    }
}

/// What a table hands `main`.
#[derive(Default)]
struct Output {
    /// `(name, json)` for `results/<name>.json`; `table1` saves nothing.
    json: Option<(String, String)>,
    /// Printed after the save; an `Err` goes to stderr and fails the run.
    verdict: Option<Result<String, String>>,
}

fn saved(name: impl Into<String>, value: &impl serde::Serialize) -> Output {
    let json = serde_json::to_string_pretty(value).expect("results serialise");
    Output {
        json: Some((name.into(), json)),
        verdict: None,
    }
}

/// Reads `repro <table | all> [flags]`.
///
/// # Errors
///
/// An unknown table, a flag none of the chosen tables takes, or a flag
/// value that does not parse; the message names it.
fn parse(args: &[String]) -> Result<(Vec<&'static Table>, Args), String> {
    let name = args.get(1).map_or("", String::as_str);
    let tables: Vec<&Table> = TABLES
        .iter()
        .filter(|t| name == "all" || t.0 == name)
        .collect();
    if tables.is_empty() {
        let names = TABLES.map(|t| t.0).join(", ");
        return Err(format!("unknown table `{name}`: expected all, {names}"));
    }
    let takes = |f: &str| tables.iter().any(|t| t.1.contains(&f));
    let mut rest = args[2..].iter();
    while let Some(a) = rest.next() {
        match a.strip_prefix("--").filter(|f| takes(f)) {
            Some("tiny") => {}
            Some(_) => _ = rest.next(),
            None => return Err(format!("{name} does not take `{a}`")),
        }
    }
    let parsed = Args {
        steps: value(args, "steps")?,
        seed: value(args, "seed")?,
        batch: value(args, "batch")?,
        tiny: flag(args, "tiny"),
    };
    Ok((tables, parsed))
}

/// `--name`'s value, or `None` when the flag is absent.
fn value<T: FromStr + Default>(args: &[String], name: &str) -> Result<Option<T>, String> {
    flag(args, name)
        .then(|| parse_arg(args, name, T::default()))
        .transpose()
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let (tables, parsed) = parse(&args).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2)
    });
    let mut failed = false;
    for (_, _, table) in tables {
        let out = table(&parsed);
        if let Some((name, json)) = out.json {
            save_json(&name, &json);
        }
        match out.verdict {
            Some(Ok(line)) => println!("{line}"),
            Some(Err(e)) => {
                eprintln!("{e}");
                failed = true;
            }
            None => {}
        }
    }
    if failed {
        std::process::exit(1);
    }
}

/// Writes `json` to `results/<name>.json` (creating the directory), and
/// prints where it went.
fn save_json(name: &str, json: &str) {
    let dir = PathBuf::from("results");
    if let Err(e) = fs::create_dir_all(&dir) {
        eprintln!("warning: cannot create results dir: {e}");
        return;
    }
    let path = dir.join(format!("{name}.json"));
    match fs::write(&path, json) {
        Ok(()) => println!("[saved {}]", path.display()),
        Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
    }
}

/// Prints one training curve as an aligned table.
fn print_curve(result: &RunResult) {
    println!("\n== {} ==", result.system);
    println!(
        "{:>8} {:>12} {:>10} {:>10}",
        "step", "time (s)", "accuracy", "loss"
    );
    for r in &result.records {
        println!(
            "{:>8} {:>12.3} {:>10.4} {:>10.4}",
            r.step, r.sim_time_secs, r.accuracy, r.loss
        );
    }
    println!(
        "throughput: {:.3} updates/s | best accuracy: {:.4}",
        result.throughput(),
        result.best_accuracy()
    );
}

/// Prints the "who reaches `target` accuracy when" comparison the paper
/// uses for its overhead numbers.
fn print_time_to_accuracy(results: &[RunResult], target: f32) {
    println!(
        "\n-- time / steps to reach {:.0}% accuracy --",
        target * 100.0
    );
    println!("{:<28} {:>12} {:>10}", "system", "time (s)", "steps");
    for r in results {
        match (r.time_to_accuracy(target), r.steps_to_accuracy(target)) {
            (Some(t), Some(s)) => println!("{:<28} {:>12.3} {:>10}", r.system, t, s),
            _ => println!("{:<28} {:>12} {:>10}", r.system, "never", "-"),
        }
    }
}

/// A cluster as the headers print it: `(n, f, n̄, f̄)`.
fn shape(c: &ClusterConfig) -> String {
    let (n, f, nw, fw) = (c.servers, c.byz_servers, c.workers, c.byz_workers);
    format!("({n},{f},{nw},{fw})")
}

fn final_loss(r: &RunResult) -> f32 {
    r.records.last().map_or(f32::NAN, |x| x.loss)
}

/// Figure 3 — overhead with no attackers: accuracy vs updates (panels a/c)
/// and vs time (b/d) for the paper legend's five systems at one batch
/// size. The GuanYu variants differ only in the *declared* Byzantine
/// counts, which size the quorums.
fn fig3(a: &Args) -> Output {
    let mut base = a.config(1, 400, 20);
    base.batch_size = a.batch.unwrap_or(base.batch_size);
    let (batch, steps, seed) = (base.batch_size, base.steps, base.seed);

    println!("Figure 3 | mini-batch {batch} | {steps} steps | seed {seed}");
    println!("(accuracy-vs-updates = panels a/c, accuracy-vs-time = panels b/d)");

    let mut results = Vec::new();
    // vanilla TF and vanilla GuanYu: single server, averaging.
    for system in [SystemKind::VanillaTf, SystemKind::VanillaGuanYu] {
        let r = run(system, &base).expect("baseline run");
        print_curve(&r);
        results.push(r);
    }
    // GuanYu declaring no faults, only the Byzantine workers, then the
    // full deployment.
    let c = base.cluster;
    for (fw, fs) in [(0, 0), (c.byz_workers, 0), (c.byz_workers, c.byz_servers)] {
        let mut cfg = base.clone();
        cfg.cluster = ClusterConfig::new(c.servers, fs, c.workers, fw)
            .expect("declaring fewer faults than the cluster keeps it valid");
        let r = run(SystemKind::GuanYu, &cfg).expect("guanyu run");
        print_curve(&r);
        results.push(r);
    }

    print_time_to_accuracy(&results, 0.6);
    saved(format!("fig3_batch{batch}"), &results)
}

/// Figure 4 — impact of Byzantine players: honest vanilla TF, vanilla TF
/// with one Byzantine worker (averaging has no defence), and GuanYu with
/// every declared worker and server actually Byzantine.
fn fig4(a: &Args) -> Output {
    let base = a.config(2, 400, 20);
    println!("Figure 4 | {} steps | seed {}", base.steps, base.seed);

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
    let mut guanyu = attacked;
    guanyu.actual_byz_workers = base.cluster.byz_workers;
    guanyu.actual_byz_servers = base.cluster.byz_servers;
    guanyu.server_attack = Some(AttackKind::Equivocate { scale: 10.0 });
    let r = run(SystemKind::GuanYu, &guanyu).expect("guanyu attacked run");
    print_curve(&r);
    results.push(r);

    println!("\n-- verdict --");
    for r in &results {
        let (best, loss) = (r.best_accuracy(), final_loss(r));
        println!(
            "{:<28} best accuracy {best:.4} | final loss {loss:.4}",
            r.system
        );
    }
    saved("fig4", &results)
}

/// Table 1 — the paper's CNN, built layer by layer, with its exact
/// per-layer parameter counts (1.75M in total). Saves no JSON.
fn table1(_: &Args) -> Output {
    let mut rng = TensorRng::new(0);
    let mut model = models::paper_cnn(&mut rng);

    println!("Table 1: CNN model parameters (input 32x32x3, 10 classes)\n");
    println!("{:<14} {:>14}", "layer", "parameters");
    let expected = [
        ("conv1 5x5x64", 5 * 5 * 3 * 64 + 64),
        ("pool1 3x3/2", 0),
        ("conv2 5x5x64", 5 * 5 * 64 * 64 + 64),
        ("pool2 3x3/2", 0),
        ("fc1 384", 8 * 8 * 64 * 384 + 384),
        ("fc2 192", 384 * 192 + 192),
        ("fc3 10", 192 * 10 + 10),
    ];
    for (name, count) in expected {
        println!("{name:<14} {count:>14}");
    }
    println!("{:<14} {:>14}", "TOTAL", model.param_count());
    println!(
        "\npaper reports \"a total of 1.75M parameters\"; exact count {} = {:.3}M",
        model.param_count(),
        model.param_count() as f64 / 1e6
    );
    assert_eq!(model.param_count(), models::PAPER_CNN_PARAMS);

    // Demonstrate a forward pass at the paper's input size.
    let x = rng.uniform_tensor(&[1, 3, 32, 32], -1.0, 1.0);
    let y = model.forward(&x, false).expect("forward pass");
    let probs = nn::softmax(&y).expect("softmax");
    println!(
        "forward check: logits shape {:?}, softmax sums to {:.6}",
        y.dims(),
        probs.sum()
    );
    Output::default()
}

/// Table 2 — alignment: every 20 steps of a GuanYu run, the cosine of the
/// angle between the two largest difference vectors of honest servers'
/// models (supplementary §9.4). The paper's claim: late in training it is
/// consistently close to 1.
fn table2(a: &Args) -> Output {
    let cfg = a.config(3, 400, 1); // only final accuracy matters here
    let steps = cfg.steps;
    let label = SystemKind::GuanYu.label(&cfg);
    println!("Table 2 | {label} | {steps} steps | snapshot every 20\n");
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
    saved("table2", &alignment)
}

/// §5.3's overhead numbers — the 65% low-level-runtime cost and the ~30%
/// Byzantine-resilience cost. First the per-step critical path from the
/// cost model at the paper's scale (d = 1.75M, batch 128, 18 workers,
/// 10 Gbps), then time ratios of equal-step runs (fig3's code path).
fn overhead(a: &Args) -> Output {
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
    let pct = |t: f64, reference: f64| (t / reference - 1.0) * 100.0;

    println!("== analytic per-step cost at the paper's scale ==");
    println!("{:<28} {:>12} {:>12}", "system", "s/step", "vs vanilla");
    let rows = [
        ("vanilla TF", t_tf),
        ("GuanYu (vanilla)", t_gyv),
        ("GuanYu (Byzantine)", t_gyb),
    ];
    for (system, t) in rows {
        println!("{system:<28} {t:>12.4} {:>11.0}%", pct(t, t_tf));
    }
    println!(
        "low-level-runtime overhead: {:.0}% (paper: 65%) | Byzantine cost over vanilla GuanYu: {:.0}% (paper: up to 33%)",
        pct(t_gyv, t_tf),
        pct(t_gyb, t_gyv)
    );

    println!("\n== measured from scaled-down runs ==");
    let base = a.config(4, 300, 15);
    let systems = [
        SystemKind::VanillaTf,
        SystemKind::VanillaGuanYu,
        SystemKind::GuanYu,
    ];
    let results: Vec<RunResult> = systems.map(|s| run(s, &base).expect("run")).into();
    println!(
        "{:<28} {:>14} {:>16}",
        "system", "total time (s)", "updates/s"
    );
    for r in &results {
        let (total, rate) = (r.total_secs, r.throughput());
        println!("{:<28} {total:>14.3} {rate:>16.3}", r.system);
    }
    let [tf, gv, gy] = [0, 1, 2].map(|i| results[i].total_secs);
    println!(
        "\nmeasured: low-level overhead {:.0}% | Byzantine cost {:.0}% (time ratios for equal steps)",
        pct(gv, tf),
        pct(gy, gv)
    );
    saved("overhead", &results)
}

/// Extension: attack strength. Sweeps the sign-flip factor and the `z` of
/// *a little is enough* against GuanYu with every declared worker
/// attacking, plus two stealth attacks (stale replay, orthogonal drift).
fn attack_sweep(a: &Args) -> Output {
    let mut base = a.config(9, 150, 10);
    base.actual_byz_workers = base.cluster.byz_workers;

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

    let (shape, byz) = (shape(&base.cluster), base.actual_byz_workers);
    let steps = base.steps;
    println!("Attack-strength sweep | GuanYu {shape} | {byz} Byzantine workers | {steps} steps\n");
    println!("{:<28} {:>12} {:>12}", "attack", "best acc", "final loss");
    let mut results = Vec::new();
    for attack in attacks {
        let mut cfg = base.clone();
        cfg.worker_attack = Some(attack);
        let mut r = run(SystemKind::GuanYu, &cfg).expect("run");
        r.system = attack.to_string();
        let (best, loss) = (r.best_accuracy(), final_loss(&r));
        println!("{:<28} {best:>12.4} {loss:>12.4}", r.system);
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
    saved("attack_sweep", &results)
}

/// The label skew `partition` induces on the shards the trainer builds
/// from `train`: one per honest worker, split with `cfg.seed`.
fn partition_skew(cfg: &ExperimentConfig, train: &Dataset, partition: Partition) -> f32 {
    if partition == Partition::Iid {
        return 0.0;
    }
    let honest = cfg.cluster.workers - cfg.actual_byz_workers;
    let shards = partition_indices(train, honest, partition, cfg.seed).expect("partition");
    label_skew(train, &shards)
}

/// Extension: non-IID worker data. The proof assumes i.i.d. gradients
/// (assumption 3), and distance-based selection penalises honest but
/// different ones. Sweeps the Dirichlet concentration α (low α = heavy
/// skew) and compares Multi-Krum with the coordinate-wise median.
fn noniid(a: &Args) -> Output {
    let base = a.config(8, 200, 10);
    let (shape, steps) = (shape(&base.cluster), base.steps);
    println!("Non-IID extension | GuanYu {shape} | {steps} steps | Dirichlet sweep\n");
    println!(
        "{:<14} {:>12} {:<14} {:>12} {:>12}",
        "partition", "label skew", "server GAR", "best acc", "final loss"
    );

    let partitions = [
        ("iid", Partition::Iid),
        ("dir(a=10)", Partition::Dirichlet { alpha: 10.0 }),
        ("dir(a=0.5)", Partition::Dirichlet { alpha: 0.5 }),
        ("dir(a=0.1)", Partition::Dirichlet { alpha: 0.1 }),
        (
            "shards(2)",
            Partition::Shards {
                classes_per_worker: 2,
            },
        ),
    ];
    let (train, _) = synthetic_cifar(&base.data).expect("dataset");
    let mut results = Vec::new();
    for (pname, partition) in partitions {
        let skew = partition_skew(&base, &train, partition);
        for gar in [GarKind::MultiKrum, GarKind::Median] {
            let mut cfg = base.clone();
            cfg.partition = partition;
            cfg.server_gar = Some(gar);
            let mut r = run(SystemKind::GuanYu, &cfg).expect("run");
            r.system = format!("{pname}/{gar}");
            let (gar, best, loss) = (gar.to_string(), r.best_accuracy(), final_loss(&r));
            println!("{pname:<14} {skew:>12.3} {gar:<14} {best:>12.4} {loss:>12.4}");
            results.push(r);
        }
    }
    println!(
        "\nexpected shape: accuracy degrades as skew grows (selection rules drop \
         honest-but-different gradients); the effect is the known open cost of \
         distance-based Byzantine resilience outside the paper's i.i.d. assumption."
    );
    saved("noniid", &results)
}

/// Ablation: the server-side gradient aggregation rule. Swaps Multi-Krum
/// for the other robust rules and for the vulnerable average, all under
/// the same Byzantine-worker attacks.
fn ablate_gar(a: &Args) -> Output {
    let mut base = a.config(6, 150, 10);
    base.actual_byz_workers = base.cluster.byz_workers;

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

    let (shape, byz) = (shape(&base.cluster), base.actual_byz_workers);
    let steps = base.steps;
    println!("GAR ablation | GuanYu cluster {shape} | {byz} Byzantine workers | {steps} steps\n");
    println!(
        "{:<20} {:<26} {:>12} {:>12}",
        "server GAR", "attack", "best acc", "final loss"
    );

    let mut results = Vec::new();
    for gar in gars {
        for attack in attacks {
            let mut cfg = base.clone();
            cfg.server_gar = Some(gar);
            cfg.worker_attack = Some(attack);
            let mut r = run(SystemKind::GuanYu, &cfg).expect("run");
            r.system = format!("{gar} vs {attack}");
            let (gar, attack) = (gar.to_string(), attack.to_string());
            let (best, loss) = (r.best_accuracy(), final_loss(&r));
            println!("{gar:<20} {attack:<26} {best:>12.4} {loss:>12.4}");
            results.push(r);
        }
    }
    println!("\nexpected shape: robust rules keep accuracy near the honest run; average collapses on gross attacks");
    saved("ablate_gar", &results)
}

/// Ablation: the inter-server model exchange (step 3 of the protocol),
/// through which the contraction lemma acts. Runs GuanYu with the phase on
/// and off and reports the honest-server diameter over time.
fn ablate_exchange(a: &Args) -> Output {
    let base = a.config(7, 150, 10);
    let (steps, shape) = (base.steps, shape(&base.cluster));
    println!("Exchange ablation | GuanYu {shape} | {steps} steps\n");
    let mut summary = Vec::new();
    for (disable, label) in [(false, "exchange ON"), (true, "exchange OFF")] {
        let mut cfg = base.clone();
        cfg.disable_exchange = disable;
        let mut trainer = build_trainer(SystemKind::GuanYu, &cfg).expect("trainer");
        println!("-- {label} --");
        println!("{:>8} {:>16} {:>12}", "step", "server diameter", "accuracy");
        let mut rows = Vec::new();
        for s in 1..=steps {
            trainer.step().expect("step");
            if s % base.eval_every == 0 || s == steps {
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

    let (on_diam, off_diam) = (summary[0].1, summary[1].1);
    println!(
        "final honest-server diameter: exchange ON {on_diam:.6} vs OFF {off_diam:.6} \
         (expected shape: OFF ≫ ON — the median exchange is what contracts the replicas)"
    );
    saved("ablate_exchange", &summary)
}

/// Ablation: gradient-quorum size q̄. §5.3 observes that *declaring more
/// Byzantine workers helps step-efficiency*: a larger q̄ averages more
/// gradients per update (fewer steps to a given accuracy) at lower
/// throughput. Sweeps q̄ across its legal range `[2f̄ + 3, n̄ − f̄]`.
fn ablate_quorum(a: &Args) -> Output {
    let base = a.config(5, 200, 20);
    let c = base.cluster;
    // f̄ = 2 (fewer than the paper's declared 5) widens q̄'s range; four
    // evenly spaced points of it, [7, 10, 13, 16] at n̄ = 18.
    let fw = 2;
    let (lo, hi) = (2 * fw + 3, c.workers - fw);
    let mut sweep: Vec<usize> = (0..4).map(|i| lo + i * (hi - lo) / 3).collect();
    sweep.dedup();
    let (nw, steps) = (c.workers, base.steps);
    println!("Quorum ablation | n̄={nw}, f̄={fw} | q̄ in {sweep:?} | {steps} steps\n");
    println!(
        "{:<8} {:>12} {:>14} {:>16} {:>14}",
        "q̄", "best acc", "steps to 50%", "updates/s", "total time (s)"
    );

    let mut results = Vec::new();
    for &q in &sweep {
        let mut cfg = base.clone();
        cfg.cluster = ClusterConfig {
            byz_workers: fw,
            worker_quorum: q,
            ..c
        };
        cfg.cluster.validate().expect("legal quorum");
        let mut r = run(SystemKind::GuanYu, &cfg).expect("run");
        r.system = format!("q̄={q}");
        let to_half = r
            .steps_to_accuracy(0.5)
            .map_or("never".to_owned(), |s| s.to_string());
        let (best, rate, total) = (r.best_accuracy(), r.throughput(), r.total_secs);
        println!("{q:<8} {best:>12.4} {to_half:>14} {rate:>16.3} {total:>14.3}");
        results.push(r);
    }
    println!("\nexpected shape: larger q̄ → fewer steps to target, lower updates/s");
    saved("ablate_quorum", &results)
}

/// The scenario matrix — every fault class of DESIGN.md §6 — on both
/// deterministic engines: each run twice with its trace fingerprints
/// compared, then checked for honest-server agreement and progress. At
/// paper scale the fault windows stretch to `--steps`; `--tiny` keeps each
/// scenario's own 12-step shape.
fn scenario_sweep(a: &Args) -> Output {
    let seed = a.seed.unwrap_or(40);
    let steps = a.steps.unwrap_or(36);

    println!("== scenario sweep: fault-injection matrix ==");
    println!(
        "{:<24} {:<14} {:>10} {:>6} {:>12} {:>10} {:>10}",
        "scenario", "engine", "fingerpr.", "fin.", "agreement", "dropped", "sim (s)"
    );

    let mut reports: Vec<InvariantReport> = Vec::new();
    let mut failures = 0usize;
    for scn in matrix(seed) {
        let scn = if a.tiny {
            scn
        } else {
            scn.at_paper_scale(steps)
        };
        for engine in [Engine::Lockstep, Engine::EventDriven] {
            // assert_deterministic panics on a replay mismatch; catch it
            // so one broken combination still leaves the rest of the
            // table, the JSON artifact and the exit code intact.
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                assert_deterministic(&scn, engine)
            }));
            let (name, engine) = (&scn.name, engine.to_string());
            let failure = match outcome.map(|run| run.map(|run| check_invariants(&scn, &run))) {
                Ok(Ok(Ok(report))) => {
                    println!(
                        "{:<24} {:<14} {:>10x} {:>6} {:>12.4e} {:>10} {:>10.3}",
                        report.scenario,
                        report.engine,
                        report.fingerprint & 0xFFFF_FFFF,
                        report.finishers,
                        report.agreement_diameter,
                        report.messages_dropped,
                        report.sim_secs
                    );
                    reports.push(report);
                    continue;
                }
                Ok(Ok(Err(e))) => format!("INVARIANT VIOLATION: {e}"),
                Ok(Err(e)) => format!("{name:<24} {engine:<14} FAILED: {e}"),
                Err(_) => format!("{name:<24} {engine:<14} NON-DETERMINISTIC (replay mismatch)"),
            };
            println!("{failure}");
            failures += 1;
        }
    }

    let verdict = if failures > 0 {
        Err(format!("{failures} scenario/engine combinations failed"))
    } else {
        let n = reports.len();
        Ok(format!(
            "all {n} scenario/engine combinations deterministic and invariant-clean"
        ))
    };
    Output {
        verdict: Some(verdict),
        ..saved("scenario_sweep", &reports)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use guanyu::metrics::TrainingRecord;

    fn parsed(line: &str) -> Result<(Vec<&'static Table>, Args), String> {
        let args: Vec<String> = line.split(' ').map(String::from).collect();
        parse(&args)
    }

    #[test]
    fn arg_falls_back_to_default() {
        let (tables, a) = parsed("repro fig3").unwrap();
        assert_eq!(
            (tables.len(), a.steps, a.seed, a.batch),
            (1, None, None, None)
        );
        let paper = a.config(1, 400, 20);
        assert_eq!((paper.seed, paper.steps, paper.eval_every), (1, 400, 20));
        assert_eq!(paper.cluster, ClusterConfig::paper_deployment());

        let (tables, a) = parsed("repro all --tiny").unwrap();
        let (tiny, test_scale) = (a.config(1, 400, 20), ExperimentConfig::tiny());
        assert_eq!((tables.len(), tiny.steps), (TABLES.len(), test_scale.steps));
        assert_eq!(tiny.cluster, test_scale.cluster);
    }

    #[test]
    fn a_present_flag_with_a_bad_value_is_an_error_naming_it() {
        let (_, a) = parsed("repro fig3 --seed 9 --batch 16 --steps 12").unwrap();
        assert_eq!((a.steps, a.seed, a.batch), (Some(12), Some(9), Some(16)));
        let bad = parsed("repro fig3 --steps 4o0").unwrap_err();
        assert!(bad.contains("--steps") && bad.contains("4o0"), "{bad}");
        let missing = parsed("repro fig4 --seed").unwrap_err();
        assert!(missing.contains("--seed"), "{missing}");
    }

    #[test]
    fn unknown_flags_and_tables_are_rejected() {
        for (line, culprit) in [
            ("repro fig3 --quick", "`--quick`"),
            ("repro nosuch", "`nosuch`"),
            ("repro --tiny", "`--tiny`"),
            ("repro fig4 --batch 16", "`--batch`"),
            ("repro table1 --tiny", "`--tiny`"),
            ("repro noniid --steps 4 12", "`12`"),
        ] {
            let err = parsed(line).unwrap_err();
            assert!(err.contains(culprit), "{line}: {err}");
        }
    }

    #[test]
    fn printing_does_not_panic() {
        let r = RunResult {
            system: "test".into(),
            records: vec![TrainingRecord {
                step: 1,
                sim_time_secs: 0.5,
                accuracy: 0.2,
                loss: 2.0,
            }],
            total_steps: 1,
            total_secs: 0.5,
        };
        print_curve(&r);
        print_time_to_accuracy(&[r], 0.1);
    }

    #[test]
    fn every_table_but_the_matrix_runs_at_test_scale() {
        let (_, a) = parsed("repro all --tiny --steps 2").unwrap();
        for (name, _, table) in TABLES.iter().filter(|t| t.0 != "scenario_sweep") {
            let out = table(&a);
            assert!(out.verdict.is_none(), "{name}");
            match out.json {
                Some((file, json)) => assert!(file.starts_with(name) && json.starts_with('[')),
                None => assert_eq!(*name, "table1"),
            }
        }
    }

    #[test]
    fn noniid_skew_is_measured_over_the_trainers_shards() {
        let cfg = Args::default().config(8, 200, 10);
        let (train, _) = synthetic_cifar(&cfg.data).unwrap();
        let alpha = Partition::Dirichlet { alpha: 0.5 };
        let over = |n| label_skew(&train, &partition_indices(&train, n, alpha, 8).unwrap());
        let skew = partition_skew(&cfg, &train, alpha);
        assert_eq!(skew, over(18));
        assert_ne!(skew, over(13));
        assert_eq!(partition_skew(&cfg, &train, Partition::Iid), 0.0);
    }
}
