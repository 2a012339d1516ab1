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

/// `--name value` lookup over `args`: the default when the flag is absent.
///
/// # Errors
///
/// A flag that is present with a missing or unparsable value is an error
/// naming the flag — `--steps 4o0` must not silently run the default.
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

/// Parses a `--name value` flag from `std::env::args`: the default when
/// the flag is absent; a present flag with a missing or unparsable value
/// prints an error naming it and exits with code 2. Unknown flags are
/// ignored.
pub fn arg<T: std::str::FromStr>(name: &str, default: T) -> T {
    let args: Vec<String> = std::env::args().collect();
    parse_arg(&args, name, default).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2)
    })
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
    fn a_present_flag_with_a_bad_value_is_an_error_naming_it() {
        let args: Vec<String> = ["bin", "--steps", "4o0", "--seed", "9", "--samples"]
            .map(String::from)
            .to_vec();
        assert_eq!(parse_arg(&args, "seed", 1u64), Ok(9));
        assert_eq!(parse_arg(&args, "batch", 32usize), Ok(32));
        let bad = parse_arg(&args, "steps", 150u64).unwrap_err();
        assert!(bad.contains("--steps") && bad.contains("4o0"), "{bad}");
        let missing = parse_arg(&args, "samples", 50usize).unwrap_err();
        assert!(missing.contains("--samples"), "{missing}");
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
