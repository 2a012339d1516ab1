//! Shared plumbing for the experiment binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the paper
//! (see DESIGN.md §3 for the index). They all print aligned text tables to
//! stdout and write machine-readable JSON into `results/`.

#![deny(missing_docs)]
#![deny(unsafe_code)]

use std::fs;
use std::path::PathBuf;

use guanyu::metrics::RunResult;

/// Parses `--key value` style flags from `std::env::args`.
///
/// Unknown flags are ignored; missing values fall back to the default.
pub fn arg<T: std::str::FromStr>(name: &str, default: T) -> T {
    let args: Vec<String> = std::env::args().collect();
    for pair in args.windows(2) {
        if pair[0] == format!("--{name}") {
            if let Ok(v) = pair[1].parse() {
                return v;
            }
        }
    }
    default
}

/// Returns true when `--flag` is present (no value).
pub fn flag(name: &str) -> bool {
    std::env::args().any(|a| a == format!("--{name}"))
}

/// Writes a JSON value under `results/<name>.json` (creating the
/// directory), and prints where it went.
pub fn save_json<T: serde::Serialize>(name: &str, value: &T) {
    let dir = PathBuf::from("results");
    if let Err(e) = fs::create_dir_all(&dir) {
        eprintln!("warning: cannot create results dir: {e}");
        return;
    }
    let path = dir.join(format!("{name}.json"));
    match serde_json::to_string_pretty(value) {
        Ok(json) => match fs::write(&path, json) {
            Ok(()) => println!("[saved {}]", path.display()),
            Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
        },
        Err(e) => eprintln!("warning: cannot serialise {name}: {e}"),
    }
}

/// Prints one training curve as an aligned table.
pub fn print_curve(result: &RunResult) {
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
pub fn print_time_to_accuracy(results: &[RunResult], target: f32) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use guanyu::metrics::TrainingRecord;

    #[test]
    fn arg_falls_back_to_default() {
        assert_eq!(arg("definitely-not-passed", 42usize), 42);
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
}
