//! Runs already-built `perf` binaries against each other in alternating
//! pairs and prints the ledger's JSON: every run's result line and
//! fingerprint, and per workload × metric each side's runs, median and
//! quartiles, the pairs a later side won and its ratio of medians — the
//! `workloads` shape of the `BENCH_<pr>.json` files at the repo root.
//!
//! ```text
//! ledger --side parent=PATH --side change=PATH [--side copy=PATH]
//!        --workloads W[,W…] --seeds A-B[,C…] [--seconds S] [--trace 0|1]
//! ```
//!
//! Pair `p` runs at the `p`-th seed: every workload in turn, once on every
//! side, each run one process in the harness's one-run form (`PATH
//! --workload W --seed N --seconds S --trace T`). The sides run in the
//! order given at even `p` and in reverse at odd `p`. Every later side is
//! compared with the first: it wins a pair when its value is strictly
//! better. `better` and `bound` come from `BENCHMARK.json`, and so does the
//! default `--seconds` (`run_seconds`).
//!
//! Each run also records what the process cost the machine: its minor page
//! faults and its user and system CPU seconds, read as the change in this
//! process's own children counters (`/proc/self/stat`'s `cminflt`,
//! `cutime`, `cstime`) across the wait for that one child. Their medians
//! per side are printed under each workload's `process` key.
//!
//! Building the sides is a shell step: extract each tree into a directory
//! of its own and build the benchmark package there (the verify skill has
//! the commands). Progress goes to stderr and the JSON to stdout. Exit
//! codes: 0 when every run passed its output checks and every pair's
//! fingerprints agree, 1 when not, 2 on bad arguments or a binary that
//! does not start.

use std::process::{Command, ExitCode, Stdio};

use serde::Value;

/// The benchmark's declaration: metric directions, bounds, run length.
const BENCHMARK: &str = include_str!("../../../../BENCHMARK.json");

const HELP: &str = "usage: ledger --side NAME=PATH --side NAME=PATH [--side NAME=PATH] \
--workloads W[,W...] --seeds A-B[,C...] [--seconds S] [--trace 0|1]";

#[derive(Debug)]
struct Args {
    /// `(name, path to a built perf binary)`; the first is the base.
    sides: Vec<(String, String)>,
    workloads: Vec<String>,
    seeds: Vec<u64>,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String], default_seconds: f64) -> Result<Args, String> {
    let mut out = Args {
        sides: Vec::new(),
        workloads: Vec::new(),
        seeds: Vec::new(),
        seconds: default_seconds,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--side" => {
                let v = value()?;
                let (name, path) = v
                    .split_once('=')
                    .ok_or_else(|| format!("--side {v}: expected NAME=PATH"))?;
                out.sides.push((name.to_owned(), path.to_owned()));
            }
            "--workloads" => out.workloads = value()?.split(',').map(str::to_owned).collect(),
            "--seeds" => out.seeds = parse_seeds(value()?)?,
            "--seconds" => {
                let v = value()?;
                out.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds: cannot read `{v}`"))?;
            }
            "--trace" => {
                out.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace: expected 0 or 1, not `{v}`")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !(2..=3).contains(&out.sides.len()) {
        return Err("give two or three --side NAME=PATH".to_owned());
    }
    let mut names: Vec<&str> = out.sides.iter().map(|(n, _)| n.as_str()).collect();
    names.sort_unstable();
    names.dedup();
    if names.len() != out.sides.len() {
        return Err("side names must differ".to_owned());
    }
    if out.workloads.iter().any(String::is_empty) || out.workloads.is_empty() {
        return Err("--workloads needs at least one name".to_owned());
    }
    if out.seeds.is_empty() {
        return Err("--seeds needs at least one seed".to_owned());
    }
    Ok(out)
}

/// `451-460`, `7,9` or a mix (`451-455,460`), in the order given.
fn parse_seeds(s: &str) -> Result<Vec<u64>, String> {
    let bad = || format!("--seeds: cannot read `{s}`");
    let mut seeds = Vec::new();
    for part in s.split(',') {
        match part.split_once('-') {
            Some((a, b)) => {
                let (a, b): (u64, u64) =
                    (a.parse().map_err(|_| bad())?, b.parse().map_err(|_| bad())?);
                if a > b {
                    return Err(bad());
                }
                seeds.extend(a..=b);
            }
            None => seeds.push(part.parse().map_err(|_| bad())?),
        }
    }
    Ok(seeds)
}

/// Indices of the sides in the order pair `p` runs them.
fn side_order(p: usize, sides: usize) -> Vec<usize> {
    if p.is_multiple_of(2) {
        (0..sides).collect()
    } else {
        (0..sides).rev().collect()
    }
}

/// A metric as `BENCHMARK.json` declares it.
#[derive(Debug)]
struct Def {
    name: String,
    unit: String,
    higher_is_better: bool,
    /// How much worse a median may get before it counts as a regression
    /// (end-to-end metrics only).
    bound: Option<f64>,
}

fn metric_defs(benchmark: &Value) -> Vec<Def> {
    let list = |key| {
        benchmark
            .as_object()
            .and_then(|o| serde::get_field_opt(o, key))
            .and_then(Value::as_array)
            .unwrap_or(&[])
    };
    list("end_to_end")
        .iter()
        .chain(list("per_layer"))
        .filter_map(|m| {
            let m = m.as_object()?;
            let text = |k| serde::get_field_opt(m, k).and_then(Value::as_str);
            Some(Def {
                name: text("name")?.to_owned(),
                unit: text("unit")?.to_owned(),
                higher_is_better: text("better")? == "higher",
                bound: serde::get_field_opt(m, "bound").and_then(Value::as_f64),
            })
        })
        .collect()
}

/// What one child process cost: minor page faults and CPU seconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Usage {
    minor_faults: u64,
    user_s: f64,
    sys_s: f64,
}

/// Linux reports process times in `USER_HZ` ticks, which is 100 on every
/// architecture it ships for.
const TICKS_PER_SEC: f64 = 100.0;

/// The waited-for children's totals of a `/proc/<pid>/stat` line: fields 11
/// (`cminflt`), 16 (`cutime`) and 17 (`cstime`). The fields are counted
/// after the *last* `)`, since the command name in parentheses may itself
/// hold spaces and parentheses.
fn parse_child_usage(line: &str) -> Option<Usage> {
    let after_comm = &line[line.rfind(')')? + 1..];
    // The first field after the name is field 3, the state.
    let field =
        |n: usize| -> Option<u64> { after_comm.split_whitespace().nth(n - 3)?.parse().ok() };
    Some(Usage {
        minor_faults: field(11)?,
        user_s: field(16)? as f64 / TICKS_PER_SEC,
        sys_s: field(17)? as f64 / TICKS_PER_SEC,
    })
}

/// This process's children totals now; `None` when `/proc` is unreadable.
fn child_usage() -> Option<Usage> {
    parse_child_usage(&std::fs::read_to_string("/proc/self/stat").ok()?)
}

impl Usage {
    /// What accrued between `self` and the later reading `after`.
    fn until(self, after: Usage) -> Usage {
        Usage {
            minor_faults: after.minor_faults.saturating_sub(self.minor_faults),
            user_s: after.user_s - self.user_s,
            sys_s: after.sys_s - self.sys_s,
        }
    }

    /// The fields by name, in the order the JSON lists them.
    fn fields(self) -> [(&'static str, f64); 3] {
        [
            ("minor_faults", self.minor_faults as f64),
            ("user_s", self.user_s),
            ("sys_s", self.sys_s),
        ]
    }
}

/// One run of one side: what the harness printed.
#[derive(Debug)]
struct Run {
    exit: i32,
    /// What the child cost, when `/proc` could say.
    usage: Option<Usage>,
    /// The `env:` line.
    env: Option<String>,
    /// The value of the `fingerprint = …` line.
    fingerprint: Option<String>,
    /// The last line of standard output, when it is a result line.
    result: Option<ResultLine>,
}

/// The harness's result line, `{"correct", "attempted", "failed",
/// "metrics": {name: {"value", "unit"}}}`.
#[derive(Debug)]
struct ResultLine {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64)>,
}

impl Run {
    fn correct(&self) -> bool {
        self.exit == 0 && self.result.as_ref().is_some_and(|r| r.correct)
    }

    fn value(&self, metric: &str) -> Option<f64> {
        let r = self.result.as_ref()?;
        r.metrics.iter().find(|(n, _)| n == metric).map(|&(_, v)| v)
    }
}

fn parse_output(stdout: &str, exit: i32) -> Run {
    let line = |prefix: &str| {
        stdout
            .lines()
            .find_map(|l| l.strip_prefix(prefix))
            .map(|v| v.trim().to_owned())
    };
    Run {
        exit,
        usage: None,
        env: line("env:").map(|e| format!("env: {e}")),
        fingerprint: line("fingerprint ="),
        result: stdout
            .lines()
            .rev()
            .find(|l| !l.trim().is_empty())
            .and_then(parse_result_line),
    }
}

fn parse_result_line(line: &str) -> Option<ResultLine> {
    let v: Value = serde_json::from_str(line).ok()?;
    let o = v.as_object()?;
    let field = |k| serde::get_field_opt(o, k);
    let metrics = field("metrics")?
        .as_object()?
        .iter()
        .map(|(name, entry)| {
            let value = serde::get_field_opt(entry.as_object()?, "value")?.as_f64()?;
            Some((name.clone(), value))
        })
        .collect::<Option<_>>()?;
    Some(ResultLine {
        correct: field("correct")?.as_bool()?,
        attempted: field("attempted")?.as_u64()?,
        failed: field("failed")?.as_u64()?,
        metrics,
    })
}

/// Median of `xs` (mean of the two middle values for an even count).
fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The `p`-quantile by linear interpolation between the closest ranks
/// (numpy's default): position `(n − 1)·p` in the sorted values.
fn quantile(xs: &[f64], p: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    assert!(!v.is_empty(), "quantile of no values");
    let pos = (v.len() - 1) as f64 * p;
    let lo = pos.floor() as usize;
    let hi = (lo + 1).min(v.len() - 1);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// How often `other` beat `base` pair by pair, and how often they tied.
fn pair_wins(base: &[f64], other: &[f64], higher_is_better: bool) -> (usize, usize) {
    let mut won = 0;
    let mut tied = 0;
    for (&b, &o) in base.iter().zip(other) {
        if o == b {
            tied += 1;
        } else if (o > b) == higher_is_better {
            won += 1;
        }
    }
    (won, tied)
}

/// Whether `other`'s median is no worse than `base`'s by more than
/// `bound`, relative to `base`'s.
fn within_bound(base: f64, other: f64, higher_is_better: bool, bound: f64) -> bool {
    if higher_is_better {
        other >= base * (1.0 - bound)
    } else {
        other <= base * (1.0 + bound)
    }
}

fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Object(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_owned(), v))
            .collect(),
    )
}

fn stats(runs: &[f64]) -> Value {
    obj(vec![
        (
            "runs",
            Value::Array(runs.iter().copied().map(Value::F64).collect()),
        ),
        ("median", Value::F64(median(runs))),
        ("q1", Value::F64(quantile(runs, 0.25))),
        ("q3", Value::F64(quantile(runs, 0.75))),
    ])
}

/// One workload's pairs; `runs[p][s]` is side `s` of pair `p`.
struct Workload<'a> {
    sides: &'a [(String, String)],
    seeds: &'a [u64],
    runs: Vec<Vec<Run>>,
}

impl Workload<'_> {
    fn fingerprints_equal(runs: &[Run]) -> bool {
        runs.iter().all(|r| r.fingerprint.is_some())
            && runs.iter().all(|r| r.fingerprint == runs[0].fingerprint)
    }

    fn run_json(run: &Run) -> Value {
        let mut entries = vec![("exit", Value::I64(i64::from(run.exit)))];
        if let Some(f) = &run.fingerprint {
            entries.push(("fingerprint", Value::Str(f.clone())));
        }
        if let Some(u) = run.usage {
            entries.extend(u.fields().map(|(k, v)| (k, Value::F64(v))));
        }
        let Some(r) = &run.result else {
            entries.push(("correct", Value::Bool(false)));
            return obj(entries);
        };
        entries.extend([
            ("attempted", Value::U64(r.attempted)),
            ("failed", Value::U64(r.failed)),
            ("correct", Value::Bool(run.correct())),
        ]);
        let mut out = obj(entries);
        if let Value::Object(o) = &mut out {
            o.extend(r.metrics.iter().map(|(n, v)| (n.clone(), Value::F64(*v))));
        }
        out
    }

    fn pairs_json(&self) -> Value {
        let pairs = self.runs.iter().enumerate().map(|(p, runs)| {
            let first = side_order(p, self.sides.len())[0];
            let mut entries = vec![
                ("seed", Value::U64(self.seeds[p])),
                ("first", Value::Str(self.sides[first].0.clone())),
                (
                    "fingerprint_equal",
                    Value::Bool(Self::fingerprints_equal(runs)),
                ),
            ];
            if let Some(f) = &runs[0].fingerprint {
                entries.push(("fingerprint", Value::Str(f.clone())));
            }
            let mut pair = obj(entries);
            if let Value::Object(o) = &mut pair {
                o.extend(
                    self.sides
                        .iter()
                        .zip(runs)
                        .map(|((name, _), run)| (name.clone(), Self::run_json(run))),
                );
            }
            pair
        });
        Value::Array(pairs.collect())
    }

    /// Metrics in the order of the first result line, restricted to the
    /// declared ones.
    fn metrics<'d>(&self, defs: &'d [Def]) -> Vec<&'d Def> {
        let first = self.runs.iter().flatten().find_map(|r| r.result.as_ref());
        first
            .map(|r| {
                r.metrics
                    .iter()
                    .filter_map(|(n, _)| defs.iter().find(|d| &d.name == n))
                    .collect()
            })
            .unwrap_or_default()
    }

    fn summary_json(&self, defs: &[Def]) -> Value {
        let base_name = &self.sides[0].0;
        let summary = self.metrics(defs).into_iter().map(|def| {
            let mut entries = vec![
                ("unit".to_owned(), Value::Str(def.unit.clone())),
                (
                    "better".to_owned(),
                    Value::Str(
                        if def.higher_is_better {
                            "higher"
                        } else {
                            "lower"
                        }
                        .to_owned(),
                    ),
                ),
            ];
            if let Some(b) = def.bound {
                entries.push(("bound".to_owned(), Value::F64(b)));
            }
            let column = |s: usize| -> Vec<f64> {
                self.runs
                    .iter()
                    .filter_map(|runs| runs[s].value(&def.name))
                    .collect()
            };
            for (s, (name, _)) in self.sides.iter().enumerate() {
                let runs = column(s);
                if !runs.is_empty() {
                    entries.push((name.clone(), stats(&runs)));
                }
            }
            // Pairs in which both the base and the compared side measured
            // the metric.
            for (s, (name, _)) in self.sides.iter().enumerate().skip(1) {
                let (base, other): (Vec<f64>, Vec<f64>) = self
                    .runs
                    .iter()
                    .filter_map(|runs| Some((runs[0].value(&def.name)?, runs[s].value(&def.name)?)))
                    .unzip();
                if base.is_empty() {
                    continue;
                }
                let (won, tied) = pair_wins(&base, &other, def.higher_is_better);
                let (mb, mo) = (median(&base), median(&other));
                if s == 1 {
                    entries.push(("pairs".to_owned(), Value::U64(base.len() as u64)));
                }
                entries.push((format!("pairs_won_by_{name}"), Value::U64(won as u64)));
                if s == 1 {
                    entries.push(("pairs_tied".to_owned(), Value::U64(tied as u64)));
                }
                entries.push((
                    format!("{name}_over_{base_name}_median"),
                    Value::F64(mo / mb),
                ));
                if let (1, Some(bound)) = (s, def.bound) {
                    let ok = within_bound(mb, mo, def.higher_is_better, bound);
                    entries.push(("within_bound".to_owned(), Value::Bool(ok)));
                }
            }
            (def.name.clone(), Value::Object(entries))
        });
        Value::Object(summary.collect())
    }

    /// Per usage field, each side's runs with their median and quartiles.
    fn process_json(&self) -> Value {
        let fields = Usage::default().fields().map(|(k, _)| k);
        let per_field = fields.iter().enumerate().map(|(i, &field)| {
            let sides = self.sides.iter().enumerate().filter_map(|(s, (name, _))| {
                let runs: Vec<f64> = self
                    .runs
                    .iter()
                    .filter_map(|runs| Some(runs[s].usage?.fields()[i].1))
                    .collect();
                (!runs.is_empty()).then(|| (name.clone(), stats(&runs)))
            });
            (field.to_owned(), Value::Object(sides.collect()))
        });
        Value::Object(per_field.collect())
    }

    fn json(&self, defs: &[Def]) -> Value {
        let all: Vec<&Run> = self.runs.iter().flatten().collect();
        let mut attempted: Vec<u64> = all
            .iter()
            .filter_map(|r| r.result.as_ref().map(|l| l.attempted))
            .collect();
        attempted.sort_unstable();
        attempted.dedup();
        let failed: u64 = all
            .iter()
            .filter_map(|r| r.result.as_ref().map(|l| l.failed))
            .sum();
        obj(vec![
            ("pairs", self.pairs_json()),
            ("summary", self.summary_json(defs)),
            ("process", self.process_json()),
            (
                "attempted",
                Value::Array(attempted.into_iter().map(Value::U64).collect()),
            ),
            ("failed", Value::U64(failed)),
            ("all_correct", Value::Bool(self.all_correct())),
            (
                "all_fingerprints_equal",
                Value::Bool(self.runs.iter().all(|r| Self::fingerprints_equal(r))),
            ),
        ])
    }

    fn all_correct(&self) -> bool {
        self.runs.iter().flatten().all(Run::correct)
    }

    fn clean(&self) -> bool {
        self.all_correct() && self.runs.iter().all(|r| Self::fingerprints_equal(r))
    }
}

/// Runs `path` once in the harness's one-run form, and reads what the
/// child cost from this process's children counters around the wait.
fn run_once(
    path: &str,
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<Run, String> {
    let before = child_usage();
    let out = Command::new(path)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("{path}: {e}"))?;
    let usage = before.zip(child_usage()).map(|(b, a)| b.until(a));
    let exit = out.status.code().unwrap_or(-1);
    Ok(Run {
        usage,
        ..parse_output(&String::from_utf8_lossy(&out.stdout), exit)
    })
}

fn main() -> ExitCode {
    let benchmark: Value = serde_json::from_str(BENCHMARK).expect("BENCHMARK.json parses");
    let default_seconds = benchmark
        .as_object()
        .and_then(|o| serde::get_field_opt(o, "run_seconds"))
        .and_then(Value::as_f64)
        .expect("BENCHMARK.json has run_seconds");
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw, default_seconds) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ledger: {e}\n\n{HELP}");
            return ExitCode::from(2);
        }
    };
    let defs = metric_defs(&benchmark);

    let mut workloads: Vec<Workload> = args
        .workloads
        .iter()
        .map(|_| Workload {
            sides: &args.sides,
            seeds: &args.seeds,
            runs: Vec::new(),
        })
        .collect();
    let mut env = None;
    for (p, &seed) in args.seeds.iter().enumerate() {
        for (name, w) in args.workloads.iter().zip(&mut workloads) {
            let mut runs = Vec::new();
            for s in side_order(p, args.sides.len()) {
                let (side, path) = &args.sides[s];
                let run = match run_once(path, name, seed, args.seconds, args.trace) {
                    Ok(r) => r,
                    Err(e) => {
                        eprintln!("ledger: {e}");
                        return ExitCode::from(2);
                    }
                };
                eprintln!(
                    "ledger: pair {}/{} seed {seed} {name} {side}: exit {} fingerprint {} updates_per_s {} minor_faults {}",
                    p + 1,
                    args.seeds.len(),
                    run.exit,
                    run.fingerprint.as_deref().unwrap_or("-"),
                    run.value("updates_per_s").map_or("-".to_owned(), |v| format!("{v:.1}")),
                    run.usage.map_or("-".to_owned(), |u| u.minor_faults.to_string()),
                );
                env = env.take().or_else(|| run.env.clone());
                runs.push((s, run));
            }
            runs.sort_by_key(|&(s, _)| s);
            w.runs.push(runs.into_iter().map(|(_, r)| r).collect());
        }
    }

    let doc = obj(vec![
        ("env", env.map_or(Value::Null, Value::Str)),
        (
            "command",
            Value::Str(format!(
                "perf --workload W --seed N --seconds {} --trace {} (one process per run)",
                args.seconds,
                u8::from(args.trace)
            )),
        ),
        (
            "sides",
            Value::Object(
                args.sides
                    .iter()
                    .map(|(n, p)| (n.clone(), Value::Str(p.clone())))
                    .collect(),
            ),
        ),
        (
            "workloads",
            Value::Object(
                args.workloads
                    .iter()
                    .zip(&workloads)
                    .map(|(n, w)| (n.clone(), w.json(&defs)))
                    .collect(),
            ),
        ),
    ]);
    println!(
        "{}",
        serde_json::to_string_pretty(&doc).expect("a Value serialises")
    );
    if workloads.iter().all(Workload::clean) {
        ExitCode::SUCCESS
    } else {
        eprintln!("ledger: a run failed its checks or a pair's fingerprints differ");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() <= 1e-9 * b.abs().max(1.0)
    }

    #[test]
    fn quartiles_interpolate_between_the_closest_ranks() {
        // BENCH_24.json, tcp-wide, parent updates_per_s.
        let runs = [
            220.00706463218526,
            208.92949306666577,
            225.46690867929624,
            193.9746779105402,
            209.75710271538767,
            231.10044316250168,
            232.20497048366437,
            205.98943846255864,
            207.3029548090137,
            216.91625264973075,
        ];
        assert!(close(median(&runs), 213.3366776825592));
        assert!(close(quantile(&runs, 0.25), 207.70958937342672));
        assert!(close(quantile(&runs, 0.75), 224.1019476675185));
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0], 0.25), 1.75);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0], 0.75), 3.25);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(quantile(&[7.0], 0.25), 7.0);
    }

    #[test]
    fn pair_wins_follow_the_metric_direction_and_ties_count_for_neither() {
        let base = [10.0, 20.0, 30.0, 40.0];
        let other = [11.0, 20.0, 29.0, 41.0];
        assert_eq!(pair_wins(&base, &other, true), (2, 1));
        assert_eq!(pair_wins(&base, &other, false), (1, 1));
    }

    #[test]
    fn the_bound_is_relative_to_the_base_median() {
        assert!(within_bound(100.0, 75.0, true, 0.25));
        assert!(!within_bound(100.0, 74.9, true, 0.25));
        assert!(within_bound(100.0, 125.0, false, 0.25));
        assert!(!within_bound(100.0, 125.1, false, 0.25));
    }

    fn line(updates: f64, correct: bool) -> String {
        format!(
            "{{\"correct\":{correct},\"attempted\":50,\"failed\":0,\"metrics\":{{\"updates_per_s\":{{\"value\":{updates},\"unit\":\"1/s\"}},\"peak_rss_mib\":{{\"value\":5,\"unit\":\"MiB\"}}}}}}"
        )
    }

    fn run(updates: f64, fingerprint: &str) -> Run {
        let stdout = format!(
            "perf: event-switched | seed 1 | 15 s | trace 0\nenv: nproc 2 | rustc x\nfingerprint = {fingerprint}\nupdates_per_s 1.0 1/s\n{}\n",
            line(updates, true)
        );
        parse_output(&stdout, 0)
    }

    #[test]
    fn a_run_keeps_its_env_fingerprint_and_result_line() {
        let r = run(2674.5, "0x00000000000000ab");
        assert_eq!(r.env.as_deref(), Some("env: nproc 2 | rustc x"));
        assert_eq!(r.fingerprint.as_deref(), Some("0x00000000000000ab"));
        assert!(r.correct());
        assert_eq!(r.value("updates_per_s"), Some(2674.5));
        assert_eq!(r.value("peak_rss_mib"), Some(5.0));
        assert_eq!(r.result.as_ref().map(|l| l.attempted), Some(50));
        // No result line: the run counts as incorrect and has no values.
        let broken = parse_output("perf: no workload named `x`\n", 2);
        assert!(!broken.correct() && broken.value("updates_per_s").is_none());
        // A result line that reports a failed check.
        assert!(!parse_output(&line(1.0, false), 1).correct());
    }

    #[test]
    fn the_summary_compares_later_sides_with_the_first() {
        let sides = [
            ("parent".to_owned(), "a".to_owned()),
            ("change".to_owned(), "b".to_owned()),
        ];
        let seeds = [1, 2, 3];
        let w = Workload {
            sides: &sides,
            seeds: &seeds,
            runs: vec![
                vec![run(100.0, "0x1"), run(120.0, "0x1")],
                vec![run(110.0, "0x2"), run(110.0, "0x2")],
                vec![run(90.0, "0x3"), run(130.0, "0x3")],
            ],
        };
        let defs = metric_defs(&serde_json::from_str(BENCHMARK).unwrap());
        let json = w.json(&defs);
        let o = json.as_object().unwrap();
        let summary = serde::get_field(o, "summary").unwrap().as_object().unwrap();
        let ups = serde::get_field(summary, "updates_per_s")
            .unwrap()
            .as_object()
            .unwrap();
        let get = |k| serde::get_field(ups, k).unwrap().clone();
        assert_eq!(get("better"), Value::Str("higher".to_owned()));
        assert_eq!(get("bound"), Value::F64(0.25));
        assert_eq!(get("pairs"), Value::U64(3));
        assert_eq!(get("pairs_won_by_change"), Value::U64(2));
        assert_eq!(get("pairs_tied"), Value::U64(1));
        assert_eq!(get("change_over_parent_median"), Value::F64(120.0 / 100.0));
        assert_eq!(get("within_bound"), Value::Bool(true));
        let parent = get("parent");
        let parent = parent.as_object().unwrap();
        assert_eq!(
            serde::get_field(parent, "median").unwrap(),
            &Value::F64(100.0)
        );
        assert_eq!(serde::get_field(parent, "q1").unwrap(), &Value::F64(95.0));
        assert_eq!(serde::get_field(parent, "q3").unwrap(), &Value::F64(105.0));
        assert!(w.clean());
        let pairs = serde::get_field(o, "pairs").unwrap().as_array().unwrap();
        let second = pairs[1].as_object().unwrap();
        assert_eq!(
            serde::get_field(second, "first").unwrap(),
            &Value::Str("change".to_owned())
        );
        assert_eq!(
            serde::get_field(second, "fingerprint").unwrap(),
            &Value::Str("0x2".to_owned())
        );

        // One pair whose fingerprints differ makes the workload unclean.
        let mut bad = w;
        bad.runs[2][1] = run(130.0, "0x4");
        assert!(!bad.clean());
    }

    #[test]
    fn child_usage_is_read_after_the_last_parenthesis() {
        // pid, a name holding spaces and `)`, then fields 3…: state R,
        // minflt 7 (field 10), cminflt 123456 (field 11), utime 11, stime
        // 12, cutime 2345 and cstime 678 (fields 16 and 17).
        let line =
            "4242 (perf (x) y) z) R 1 1 1 0 -1 4194560 7 123456 0 0 11 12 2345 678 20 0 9 0 1 2 3";
        let u = parse_child_usage(line).unwrap();
        assert_eq!(u.minor_faults, 123_456);
        assert!(close(u.user_s, 23.45) && close(u.sys_s, 6.78));
        assert!(
            parse_child_usage("4242 (perf) R 1 1").is_none(),
            "too few fields"
        );
        assert!(parse_child_usage("no parenthesis at all").is_none());
        let later = Usage {
            minor_faults: 123_500,
            user_s: 24.0,
            sys_s: 7.0,
        };
        let d = u.until(later);
        assert_eq!(d.minor_faults, 44);
        assert!(close(d.user_s, 0.55) && close(d.sys_s, 0.22));
    }

    #[test]
    fn the_process_section_has_each_sides_medians() {
        let sides = [
            ("parent".to_owned(), "a".to_owned()),
            ("change".to_owned(), "b".to_owned()),
        ];
        let seeds = [1, 2];
        let with = |faults: u64, r: Run| Run {
            usage: Some(Usage {
                minor_faults: faults,
                user_s: 1.0,
                sys_s: 0.5,
            }),
            ..r
        };
        let w = Workload {
            sides: &sides,
            seeds: &seeds,
            runs: vec![
                vec![with(100, run(1.0, "0x1")), with(40, run(2.0, "0x1"))],
                vec![with(300, run(1.0, "0x2")), run(2.0, "0x2")],
            ],
        };
        let json = w.process_json();
        let faults = serde::get_field(json.as_object().unwrap(), "minor_faults")
            .unwrap()
            .as_object()
            .unwrap();
        let median = |side| {
            let o = serde::get_field(faults, side).unwrap().as_object().unwrap();
            serde::get_field(o, "median").unwrap().clone()
        };
        assert_eq!(median("parent"), Value::F64(200.0));
        // A run without counters is left out, not counted as zero.
        assert_eq!(median("change"), Value::F64(40.0));
    }

    #[test]
    fn sides_alternate_by_pair_index() {
        assert_eq!(side_order(0, 2), vec![0, 1]);
        assert_eq!(side_order(1, 2), vec![1, 0]);
        assert_eq!(side_order(2, 3), vec![0, 1, 2]);
        assert_eq!(side_order(3, 3), vec![2, 1, 0]);
    }

    #[test]
    fn arguments_are_checked() {
        let args = |s: &str| -> Vec<String> { s.split_whitespace().map(str::to_owned).collect() };
        let ok = parse_args(
            &args("--side parent=/p --side change=/c --workloads event-switched,tcp-wide --seeds 451-453,460"),
            15.0,
        )
        .unwrap();
        assert_eq!(ok.seeds, vec![451, 452, 453, 460]);
        assert_eq!(ok.workloads, vec!["event-switched", "tcp-wide"]);
        assert_eq!(ok.seconds, 15.0);
        assert!(!ok.trace);
        for bad in [
            "--side parent=/p --workloads w --seeds 1",
            "--side a=/p --side a=/c --workloads w --seeds 1",
            "--side a=/p --side b=/c --workloads w --seeds 3-1",
            "--side a=/p --side b=/c --workloads w --seeds 1 --trace 2",
            "--side a=/p --side b=/c --workloads w --seeds 1 --seconds 0",
            "--side a=/p --side b=/c --workloads w --seeds 1 --smoke",
            "--side a=/p --side b=/c --seeds 1",
            "--side a /p --side b=/c --workloads w --seeds 1",
        ] {
            assert!(parse_args(&args(bad), 15.0).is_err(), "{bad}");
        }
    }

    #[test]
    fn every_benchmark_metric_has_a_definition() {
        let defs = metric_defs(&serde_json::from_str(BENCHMARK).unwrap());
        assert_eq!(defs.iter().filter(|d| d.bound.is_some()).count(), 6);
        assert!(defs
            .iter()
            .any(|d| d.name == "aggregation.multi_krum_ms" && !d.higher_is_better));
        assert!(defs.len() > 40);
    }
}
