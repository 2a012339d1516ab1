//! The `scenario` CLI: chaos search, replayable reproducers, and the
//! long-soak endurance mode (DESIGN.md §8).
//!
//! ```text
//! scenario gen    [--seed S] [--count N] [--dir DIR]
//! scenario run    FILE...
//! scenario fuzz   [--seed S] [--samples N] [--dir DIR]
//! scenario replay PATH...            # files or directories
//! scenario soak   [--transport channel|tcp] [--rounds N] [--tiny]
//!                 [--churn PERIOD,POOL] [--seed S] [--timeout SECS]
//! ```
//!
//! `fuzz` and `gen` default their seed to `GUANYU_CHAOS_SEED` (falling
//! back to 40), so CI pins the stream with one env var. Exit codes:
//! 0 clean, 1 violations / mismatches / drops, 2 usage errors.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use data::synthetic_cifar;
use guanyu::config::ClusterConfig;
use guanyu_runtime::{
    run_soak_with, ChurnSpec, RuntimeConfig, SoakConfig, SoakCounters, TransportKind,
};
use nn::models;
use scenario::check::{assert_deterministic, check_invariants};
use scenario::file::scenario_files;
use scenario::{seed_from_env, ChaosGen, Engine, ScenarioFile};
use tensor::TensorRng;

fn usage() -> ! {
    eprintln!(
        "usage: scenario <gen|run|fuzz|replay|soak> [flags]\n\
         \n\
         gen    [--seed S] [--count N] [--dir DIR]   sample N scenarios, save with verdicts\n\
         run    FILE...                              run scenario files on both engines\n\
         fuzz   [--seed S] [--samples N] [--dir DIR] chaos search; shrink + save violations\n\
         replay PATH...                              re-verify recorded expectations\n\
         soak   [--transport channel|tcp] [--rounds N] [--tiny]\n\
                [--churn PERIOD,POOL] [--seed S] [--timeout SECS]\n\
         \n\
         gen/fuzz seed defaults to $GUANYU_CHAOS_SEED, then 40"
    );
    std::process::exit(2);
}

/// `--name value` flag lookup over raw args (parsed via `FromStr`): the
/// default when the flag is absent, an error naming the flag when its value
/// is missing or does not parse.
fn parse_arg<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    let Some(i) = args.iter().position(|a| a == &format!("--{name}")) else {
        return Ok(default);
    };
    let value = args
        .get(i + 1)
        .ok_or_else(|| format!("--{name} needs a value"))?;
    value
        .parse()
        .map_err(|_| format!("--{name}: cannot read `{value}`"))
}

/// [`parse_arg`]; a bad value prints the error and exits with code 2.
fn arg<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> T {
    parse_arg(args, name, default).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2)
    })
}

fn flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == &format!("--{name}"))
}

/// Positional (non-flag) operands: everything not starting with `--` and
/// not consumed as a flag value.
fn operands(args: &[String]) -> Vec<String> {
    let mut out = Vec::new();
    let mut skip = false;
    for a in args {
        if skip {
            skip = false;
            continue;
        }
        if let Some(stripped) = a.strip_prefix("--") {
            // Boolean flags (`--tiny`) take no value; everything else does.
            skip = !matches!(stripped, "tiny");
            continue;
        }
        out.push(a.clone());
    }
    out
}

fn save_json(path: &Path, json: &str) {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent).ok();
    }
    match std::fs::write(path, format!("{json}\n")) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("cannot write {}: {e}", path.display()),
    }
}

fn cmd_gen(args: &[String]) -> i32 {
    let seed = arg(args, "seed", seed_from_env(40));
    let count: usize = arg(args, "count", 5);
    let dir = PathBuf::from(arg(args, "dir", "results/generated".to_string()));
    std::fs::create_dir_all(&dir).ok();
    let mut gen = ChaosGen::new(seed);
    for _ in 0..count {
        let scn = gen.sample();
        let v = scenario::chaos::verdict(&scn);
        let file = ScenarioFile::new(scn, v.as_ref());
        let path = dir.join(format!("{}.scenario.json", file.scenario.name));
        match file.save(&path) {
            Ok(()) => println!(
                "{:<12} {:<40} {}",
                file.scenario.name,
                file.expect,
                path.display()
            ),
            Err(e) => {
                eprintln!("{e}");
                return 1;
            }
        }
    }
    0
}

fn cmd_run(args: &[String]) -> i32 {
    let files = operands(args);
    if files.is_empty() {
        usage();
    }
    let mut failures = 0;
    for path in &files {
        let file = match ScenarioFile::load(Path::new(path)) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("{e}");
                failures += 1;
                continue;
            }
        };
        let scn = &file.scenario;
        println!("== {} (expect {}) ==", scn.name, file.expect);
        for engine in [Engine::Lockstep, Engine::EventDriven] {
            match assert_deterministic(scn, engine) {
                Ok(run) => match check_invariants(scn, &run) {
                    Ok(rep) => println!(
                        "  {:<14} fingerprint {:016x}  finishers {}  diameter {:.4e}",
                        engine.to_string(),
                        rep.fingerprint,
                        rep.finishers,
                        rep.agreement_diameter
                    ),
                    Err(e) => {
                        println!("  {:<14} INVARIANT VIOLATION: {e}", engine.to_string());
                        failures += usize::from(file.expect == scenario::Expectation::Pass);
                    }
                },
                Err(e) => {
                    println!("  {:<14} ERROR: {e}", engine.to_string());
                    failures += usize::from(file.expect == scenario::Expectation::Pass);
                }
            }
        }
    }
    i32::from(failures > 0)
}

fn cmd_fuzz(args: &[String]) -> i32 {
    let seed = arg(args, "seed", seed_from_env(40));
    let samples: usize = arg(args, "samples", 50);
    let dir = PathBuf::from(arg(args, "dir", "results/chaos".to_string()));
    println!("chaos fuzz: seed {seed}, {samples} samples");
    let report = scenario::fuzz_with(seed, samples, |i, outcome| match &outcome.violation {
        None => println!(
            "  [{:>3}/{samples}] {:<12} ok",
            i + 1,
            outcome.scenario.name
        ),
        Some(v) => println!(
            "  [{:>3}/{samples}] {:<12} VIOLATION {:?} on {} ({} shrink probes)",
            i + 1,
            outcome.scenario.name,
            v.kind,
            v.engine,
            outcome.shrink_tried
        ),
    });
    for outcome in &report.outcomes {
        let (Some(v), Some(min)) = (&outcome.violation, &outcome.minimized) else {
            continue;
        };
        let file = ScenarioFile::new(min.clone(), Some(v));
        let path = dir.join(format!("{}.scenario.json", min.name));
        if let Err(e) = file.save(&path) {
            eprintln!("{e}");
        } else {
            println!("  reproducer: {}", path.display());
        }
    }
    match serde_json::to_string_pretty(&report) {
        Ok(json) => save_json(Path::new("results/chaos_fuzz.json"), &json),
        Err(e) => eprintln!("cannot serialise fuzz report: {e}"),
    }
    println!(
        "{} violations in {} samples (seed {seed})",
        report.violations, report.samples
    );
    i32::from(report.violations > 0)
}

fn cmd_replay(args: &[String]) -> i32 {
    let paths = operands(args);
    if paths.is_empty() {
        usage();
    }
    let mut files = Vec::new();
    for p in &paths {
        let p = Path::new(p);
        if p.is_dir() {
            match scenario_files(p) {
                Ok(found) => files.extend(found),
                Err(e) => {
                    eprintln!("{e}");
                    return 1;
                }
            }
        } else {
            files.push(p.to_path_buf());
        }
    }
    let mut mismatches = 0;
    for path in &files {
        match ScenarioFile::load(path).and_then(|f| {
            let expect = f.expect.clone();
            f.replay().map(|e| (expect, e))
        }) {
            Ok((_, actual)) => println!("{:<50} {actual}", path.display().to_string()),
            Err(e) => {
                println!("{:<50} MISMATCH: {e}", path.display().to_string());
                mismatches += 1;
            }
        }
    }
    println!("{} files, {mismatches} mismatches", files.len());
    i32::from(mismatches > 0)
}

fn parse_churn(spec: &str) -> Option<ChurnSpec> {
    let (p, k) = spec.split_once(',')?;
    Some(ChurnSpec {
        period: p.trim().parse().ok()?,
        pool: k.trim().parse().ok()?,
    })
}

fn cmd_soak(args: &[String]) -> i32 {
    let tiny = flag(args, "tiny");
    let transport = match arg(args, "transport", "channel".to_string()).as_str() {
        "channel" => TransportKind::Channel,
        "tcp" => TransportKind::TcpLoopback,
        other => {
            eprintln!("unknown transport '{other}' (channel|tcp)");
            return 2;
        }
    };
    let rounds: u64 = arg(args, "rounds", if tiny { 20 } else { 2000 });
    let seed: u64 = arg(args, "seed", 7);
    let timeout: u64 = arg(args, "timeout", if tiny { 120 } else { 3600 });
    let churn_spec = args
        .iter()
        .position(|a| a == "--churn")
        .and_then(|i| args.get(i + 1));
    let churn = match churn_spec {
        None => None,
        Some(spec) => match parse_churn(spec) {
            Some(c) => Some(c),
            None => {
                eprintln!("bad --churn '{spec}' (expected PERIOD,POOL)");
                return 2;
            }
        },
    };

    // Clean soaks use full quorums (lossless by construction, so the zero
    // drops assertion is meaningful); churned soaks use the paper shape
    // with quorum slack for the victim.
    let cluster = if churn.is_some() {
        ClusterConfig::new(6, 1, 9, 2).expect("valid")
    } else {
        ClusterConfig::with_quorums(3, 0, 4, 0, 3, 4).expect("valid")
    };
    let cfg = SoakConfig {
        runtime: RuntimeConfig {
            cluster,
            max_steps: rounds,
            seed,
            wall_timeout: Duration::from_secs(timeout),
            transport,
            ..RuntimeConfig::default_for_tests()
        },
        churn,
    };
    println!(
        "soak: {} transport, {rounds} rounds, churn {:?}, timeout {timeout}s",
        cfg.runtime.transport, cfg.churn
    );

    let (train, _) = match synthetic_cifar(&data::SyntheticConfig {
        train: 64,
        test: 0,
        side: 8,
        ..Default::default()
    }) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("cannot build soak dataset: {e}");
            return 1;
        }
    };
    let counters = Arc::new(SoakCounters::default());
    let stop = Arc::new(AtomicBool::new(false));
    let monitor = {
        let counters = Arc::clone(&counters);
        let stop = Arc::clone(&stop);
        let every = Duration::from_millis(if tiny { 500 } else { 2000 });
        std::thread::spawn(move || {
            let start = std::time::Instant::now();
            while !stop.load(Ordering::Relaxed) {
                std::thread::sleep(every);
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                let (rounds, drops, recoveries, _) = counters.snapshot();
                let secs = start.elapsed().as_secs_f64();
                println!(
                    "  {secs:>7.1}s  rounds {rounds:>6}  ({:>6.1} r/s)  churn drops {drops:>6}  recoveries {recoveries:>4}",
                    rounds as f64 / secs.max(1e-9)
                );
            }
        })
    };
    let outcome = run_soak_with(
        &cfg,
        |rng: &mut TensorRng| models::small_cnn(8, 2, 10, rng),
        train,
        Arc::clone(&counters),
    );
    stop.store(true, Ordering::Relaxed);
    monitor.join().ok();

    let report = match outcome {
        Ok(r) => r,
        Err(e) => {
            eprintln!("soak failed: {e}");
            return 1;
        }
    };
    println!(
        "soak done: {} rounds in {:.1}s ({:.1} r/s), churn drops {}, recoveries {}, dropped sends {}{}",
        report.rounds,
        report.wall_secs,
        report.rounds_per_sec,
        report.churn_drops,
        report.recoveries,
        report.dropped_sends,
        if report.timed_out { " [TIMED OUT]" } else { "" }
    );
    match serde_json::to_string_pretty(&report) {
        Ok(json) => save_json(
            Path::new(&format!("results/soak_{}.json", report.transport)),
            &json,
        ),
        Err(e) => eprintln!("cannot serialise soak report: {e}"),
    }
    if report.timed_out {
        eprintln!("soak exceeded the wall timeout");
        return 1;
    }
    if report.churn.is_none() && report.dropped_sends > 0 {
        eprintln!(
            "clean soak dropped {} sends (expected 0)",
            report.dropped_sends
        );
        return 1;
    }
    if report.rounds < rounds {
        eprintln!("soak completed only {}/{rounds} rounds", report.rounds);
        return 1;
    }
    0
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else { usage() };
    let rest = &args[1..];
    let code = match cmd.as_str() {
        "gen" => cmd_gen(rest),
        "run" => cmd_run(rest),
        "fuzz" => cmd_fuzz(rest),
        "replay" => cmd_replay(rest),
        "soak" => cmd_soak(rest),
        _ => usage(),
    };
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_present_flag_with_a_bad_value_is_an_error_naming_it() {
        let args: Vec<String> = ["--samples", "1e3", "--seed", "41", "--dir"]
            .map(String::from)
            .to_vec();
        assert_eq!(parse_arg(&args, "seed", 40u64), Ok(41));
        assert_eq!(parse_arg(&args, "count", 5usize), Ok(5));
        let bad = parse_arg(&args, "samples", 50usize).unwrap_err();
        assert!(bad.contains("--samples") && bad.contains("1e3"), "{bad}");
        let missing = parse_arg(&args, "dir", String::new()).unwrap_err();
        assert!(missing.contains("--dir"), "{missing}");
    }
}
