//! `perf`: the repo's benchmark (see `README.md` beside this file).
//!
//! Two ways in:
//!
//! * `perf --workload NAME --seed N --seconds S --trace 0|1` runs one
//!   workload once in this process and prints its metrics, the last line
//!   of standard output being one JSON object. `BENCHMARK.json`'s command
//!   is this form; `--trace 0` gives the end-to-end metrics, `--trace 1`
//!   the per-layer ones.
//! * `perf [--smoke | --agree] [--seed N] [--seconds S]` runs every
//!   workload [`REPEATS`] times untraced and once traced, each run in a
//!   fresh child process of the first form, checks the runs against each
//!   other, and prints every metric as median and quartiles.
//!
//! Either way the exit code is non-zero when any output check fails.

mod engines;
mod layers;
mod probes;
mod replay;
mod report;
mod run;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use report::{ResultLine, END_TO_END, PER_LAYER};
use workloads::{Spec, WORKLOADS};

const HELP: &str = "\
perf — six workloads, six end-to-end metrics, a per-layer trace

USAGE:
    perf --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    perf [--smoke | --agree] [--seed N] [--seconds S]

    --workload NAME  run one workload once, in this process: tcp-wide,
                     channel-cnn, tcp-sharded, threaded-byz, lockstep-byz
                     or event-switched
    --trace 0|1      0: end-to-end metrics, tracing off (default);
                     1: the traced pass and its per-layer metrics
    --seed N         drives data, initialisation, batching and attacks
                     (default 7)
    --seconds S      length of one run; round counts scale with it
                     (default 15)
    --smoke          a full set at 1% length with one repeat instead of
                     five: seconds, not minutes, for CI
    --agree          two full sets; reports per metric and workload whether
                     their medians agree within the regression bound
    --help           print this and exit";

/// Length of one run when `--seconds` is not given; `BENCHMARK.json`'s
/// `run_seconds`.
const DEFAULT_SECONDS: f64 = 15.0;

/// Untraced runs per workload in a full set.
const REPEATS: usize = 5;

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    agree: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: 7,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        agree: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        let bad = |v: &str| format!("{flag}: cannot read `{v}`");
        match flag.as_str() {
            "--workload" => out.workload = Some(value()?.to_owned()),
            "--seed" => out.seed = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--seconds" => out.seconds = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--trace" => {
                out.trace = match value()? {
                    "0" => false,
                    "1" => true,
                    v => return Err(bad(v)),
                }
            }
            "--smoke" => out.smoke = true,
            "--agree" => out.agree = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !(out.seconds.is_finite() && out.seconds > 0.0) {
        return Err(format!("--seconds must be positive, not {}", out.seconds));
    }
    Ok(out)
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
}

/// Where and with what the numbers were taken.
fn print_environment() {
    let unknown = || "unknown".to_owned();
    let cores = std::thread::available_parallelism().map_or(0, usize::from);
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| unknown(), |s| s.trim().to_owned());
    // The workspace's one feature switches the aggregation kernels; ask
    // the crate that was linked rather than this package's own flags.
    let features = if aggregation::Exec::auto() == aggregation::Exec::Serial {
        "none"
    } else {
        "parallel"
    };
    println!(
        "env: nproc {cores} | {} | features {features} | git {} | kernel {kernel}",
        command_line("rustc", &["--version"]).unwrap_or_else(unknown),
        command_line("git", &["rev-parse", "--short", "HEAD"]).unwrap_or_else(unknown),
    );
}

/// Runs one workload once in this process.
fn run_one(spec: &'static Spec, args: &Args, started: Instant) -> ExitCode {
    let (outcome, defs) = if args.trace {
        (run::traced(spec, args.seed, args.seconds), &PER_LAYER[..])
    } else {
        (
            run::untraced(spec, args.seed, args.seconds, started),
            &END_TO_END[..],
        )
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perf: {e}");
            return ExitCode::FAILURE;
        }
    };
    let line = match ResultLine::new(&outcome, defs) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("perf: {}: {e}", spec.name);
            return ExitCode::FAILURE;
        }
    };
    println!(
        "perf: {} | seed {} | {} s | trace {}",
        spec.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    print_environment();
    println!("fingerprint = {:#018x}", outcome.fingerprint);
    if let Some(sim) = &outcome.sim {
        println!("simnet = {sim:?}");
    }
    println!(
        "spin_ms = {:.3} before, {:.3} after",
        outcome.spin_ms.0, outcome.spin_ms.1
    );
    println!("noisy = {}", outcome.noisy());
    for f in &outcome.failures {
        println!("check failed: {f}");
    }
    for (name, value, unit) in &line.metrics {
        println!("{name:<40} {value:>16.4} {unit}");
    }
    println!(
        "{}",
        serde_json::to_string(&line).expect("a result line serialises")
    );
    if line.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// What the parent of a full set keeps of one child run.
struct ChildRun {
    line: ResultLine,
    exact: Exact,
    noisy: bool,
}

/// What every run of one (workload, seed, length) must print identically.
#[derive(Debug, Clone, PartialEq)]
struct Exact {
    /// Whole-run trace fingerprint.
    fingerprint: String,
    /// The simulator's counts; empty off the event engine. Congestion
    /// leaves the digests alone, so the fingerprint does not cover them.
    simnet: String,
}

impl Exact {
    /// Names what differs from `other`, with both values.
    fn differences(&self, other: &Exact) -> Vec<String> {
        [
            ("fingerprints", &self.fingerprint, &other.fingerprint),
            ("simnet counts", &self.simnet, &other.simnet),
        ]
        .into_iter()
        .filter(|(_, a, b)| a != b)
        .map(|(what, a, b)| format!("{what} differ, {a} against {b}"))
        .collect()
    }
}

/// Runs one workload once in a fresh process: repeats in one process let
/// the allocator's high-water mark of one run leak into the next one's
/// peak RSS.
fn spawn(spec: &Spec, seed: u64, seconds: f64, trace: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", spec.name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a child run: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let field = |key: &str| {
        text.lines()
            .find_map(|l| l.strip_prefix(key)?.strip_prefix(" = "))
            .map(str::to_owned)
    };
    for l in text.lines().filter(|l| l.starts_with("check failed")) {
        println!("  {}: {l}", spec.name);
    }
    let last = text.lines().last().unwrap_or_default();
    let line: ResultLine = serde_json::from_str(last)
        .map_err(|e| format!("{}: run printed no result ({e}); {}", spec.name, out.status))?;
    Ok(ChildRun {
        line,
        exact: Exact {
            fingerprint: field("fingerprint").unwrap_or_default(),
            simnet: field("simnet").unwrap_or_default(),
        },
        noisy: field("noisy").as_deref() == Some("true"),
    })
}

/// [`spawn`], run again once when the spin probes say the machine's speed
/// changed under the run.
fn spawn_steady(spec: &Spec, seed: u64, seconds: f64, trace: bool) -> Result<ChildRun, String> {
    let first = spawn(spec, seed, seconds, trace)?;
    if !first.noisy {
        return Ok(first);
    }
    println!(
        "  {}: noisy run (spin probes disagree), running it again",
        spec.name
    );
    spawn(spec, seed, seconds, trace)
}

/// One full set: per workload the untraced repeats and the traced pass.
struct FullSet {
    untraced: BTreeMap<&'static str, Vec<ResultLine>>,
    /// Per workload, what its first untraced repeat printed of [`Exact`].
    exact: BTreeMap<&'static str, Exact>,
    problems: Vec<String>,
}

fn full_set(seed: u64, seconds: f64, repeats: usize) -> FullSet {
    let mut set = FullSet {
        untraced: BTreeMap::new(),
        exact: BTreeMap::new(),
        problems: Vec::new(),
    };
    for spec in &WORKLOADS {
        let mut lines = Vec::new();
        for rep in 0..repeats {
            match spawn_steady(spec, seed, seconds, false) {
                Ok(run) => {
                    if !run.line.correct {
                        set.problems.push(format!(
                            "{} repeat {rep}: an output check failed",
                            spec.name
                        ));
                    }
                    let first = set
                        .exact
                        .entry(spec.name)
                        .or_insert_with(|| run.exact.clone());
                    for d in run.exact.differences(first) {
                        set.problems.push(format!(
                            "{} repeat {rep} against the first repeat: {d}",
                            spec.name
                        ));
                    }
                    lines.push(run.line);
                }
                Err(e) => set.problems.push(e),
            }
        }
        report::print_end_to_end(spec, &lines);
        set.untraced.insert(spec.name, lines);
        match spawn_steady(spec, seed, seconds, true) {
            Ok(run) => {
                if !run.line.correct {
                    set.problems
                        .push(format!("{} traced pass: an output check failed", spec.name));
                }
                report::print_per_layer(spec.name, &run.line);
            }
            Err(e) => set.problems.push(e),
        }
    }
    // The two engines of the one Byzantine scenario must agree on the
    // whole run, not just on the reference prefix each checks alone.
    if let (Some(t), Some(l)) = (set.exact.get("threaded-byz"), set.exact.get("lockstep-byz")) {
        if t.fingerprint != l.fingerprint {
            set.problems.push(format!(
                "threaded-byz fingerprint {} differs from lockstep-byz's {}",
                t.fingerprint, l.fingerprint
            ));
        }
    }
    set
}

/// Compares the medians of two sets of runs of the same code against the
/// regression bounds: a bound the box cannot hold between two identical
/// sets cannot detect a regression either.
fn print_agreement(a: &FullSet, b: &FullSet) -> Vec<String> {
    let mut problems = Vec::new();
    for (name, first) in &a.exact {
        for d in b
            .exact
            .get(name)
            .map_or_else(Vec::new, |second| second.differences(first))
        {
            problems.push(format!("{name}, second set against the first: {d}"));
        }
    }
    println!("\n== agreement of two sets of runs of the same code ==");
    println!(
        "{:<16} {:<20} {:>12} {:>12} {:>9} {:>7}  verdict",
        "workload", "metric", "first", "second", "worse by", "bound"
    );
    for spec in &WORKLOADS {
        for d in &END_TO_END {
            let medians = (
                report::summarise(&a.untraced[spec.name], d.name),
                report::summarise(&b.untraced[spec.name], d.name),
            );
            let (Some(first), Some(second)) = medians else {
                continue;
            };
            let gap = report::worse_by(d, first.median, second.median).abs();
            let bound = d.bound.expect("end-to-end metrics are bounded");
            let agrees = gap < bound;
            println!(
                "{:<16} {:<20} {:>12.4} {:>12.4} {:>8.2}% {:>6.0}%  {}",
                spec.name,
                d.name,
                first.median,
                second.median,
                gap * 100.0,
                bound * 100.0,
                if agrees { "agree" } else { "DISAGREE" }
            );
            if !agrees {
                problems.push(format!(
                    "{} {}: two sets of the same code differ by {:.1}%, beyond the {:.0}% bound",
                    spec.name,
                    d.name,
                    gap * 100.0,
                    bound * 100.0
                ));
            }
        }
    }
    problems
}

fn main() -> ExitCode {
    let started = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help") {
        println!("{HELP}");
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perf: {e}\n\n{HELP}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(name) = &args.workload {
        return match workloads::spec(name) {
            Some(spec) => run_one(spec, &args, started),
            None => {
                eprintln!("perf: no workload named `{name}`\n\n{HELP}");
                ExitCode::FAILURE
            }
        };
    }

    let (seconds, repeats) = if args.smoke {
        (workloads::NOMINAL_SECONDS / 100.0, 1)
    } else {
        (args.seconds, REPEATS)
    };
    print_environment();
    println!(
        "full set: {} workloads x {repeats} untraced repeats + 1 traced pass, seed {}, {seconds} s per run",
        WORKLOADS.len(),
        args.seed,
    );
    let first = full_set(args.seed, seconds, repeats);
    let mut problems = first.problems.clone();
    if args.agree {
        let second = full_set(args.seed, seconds, repeats);
        problems.extend(second.problems.iter().cloned());
        problems.extend(print_agreement(&first, &second));
    }
    if problems.is_empty() {
        println!("\nall output checks passed");
        ExitCode::SUCCESS
    } else {
        println!();
        for p in &problems {
            println!("FAILED: {p}");
        }
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>())
    }

    #[test]
    fn the_contract_command_line_parses() {
        let a = args(&[
            "--workload",
            "tcp-wide",
            "--seed",
            "3",
            "--seconds",
            "15",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("tcp-wide"));
        assert_eq!((a.seed, a.seconds, a.trace), (3, 15.0, true));
        let d = args(&[]).unwrap();
        assert_eq!((d.seed, d.seconds, d.trace), (7, 15.0, false));
    }

    #[test]
    fn malformed_arguments_are_errors_not_defaults() {
        assert!(args(&["--seed", "garbage"]).unwrap_err().contains("--seed"));
        assert!(args(&["--seconds"]).unwrap_err().contains("needs a value"));
        assert!(args(&["--seconds", "0"]).is_err());
        assert!(args(&["--trace", "2"]).is_err());
        assert!(args(&["--frobnicate"]).unwrap_err().contains("unknown"));
    }

    #[test]
    fn exact_names_what_differs() {
        let run = |fingerprint: &str, simnet: &str| Exact {
            fingerprint: fingerprint.to_owned(),
            simnet: simnet.to_owned(),
        };
        let first = run("0x1", "SimExtras { queue_drops: 27 }");
        assert!(first.differences(&first).is_empty());
        // Congestion alone: the digests, hence the fingerprint, hold.
        let d = run("0x1", "SimExtras { queue_drops: 28 }").differences(&first);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(
            d[0].starts_with("simnet counts") && d[0].contains("28"),
            "{d:?}"
        );
        assert_eq!(run("0x2", "").differences(&first).len(), 2);
    }
}
