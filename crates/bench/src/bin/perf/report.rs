//! Metric definitions, the one-line result a run prints, and the tables a
//! full set prints.

use serde::{DeError, Deserialize, Serialize, Value};

use crate::run::{Metric, Outcome};
use crate::stats::{median, quartiles, spread};
use crate::workloads::Spec;

use Better::{Higher, Lower};

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

/// Name, unit and direction of one metric; `BENCHMARK.json` lists the same
/// (a unit test holds the two together).
#[derive(Debug, Clone, Copy)]
pub struct Def {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen;
    /// per-layer metrics have none.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Def {
    Def {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Def {
    Def {
        name,
        unit,
        better,
        bound: None,
    }
}

/// What a user of the system sees. The bounds are the regression limits.
/// `BENCHMARK.json` takes one per metric, so each is what the noisiest of
/// the six workloads needs on the 2-core sizing box (README, "Spread"):
/// the timing metrics spread up to 10-16% over ten seeds when the host has
/// a slow phase, so they sit at the contract's cap of 0.25; peak RSS does
/// not depend on the host's speed and gets three times its widest spread.
pub const END_TO_END: [Def; 6] = [
    e2e("updates_per_s", "1/s", Higher, 0.25),
    e2e("round_ms_p50", "ms", Lower, 0.25),
    e2e("round_ms_p95", "ms", Lower, 0.25),
    e2e("cpu_ms_per_update", "ms", Lower, 0.25),
    e2e("peak_rss_mib", "MiB", Lower, 0.18),
    e2e("setup_s", "s", Lower, 0.25),
];

/// What single layers do, from the traced pass.
pub const PER_LAYER: [Def; 45] = [
    layer("runtime.tcp_over_channel", "ratio", Higher),
    layer("core.overhead_vs_vanilla", "ratio", Lower),
    layer("runtime.transport.send_busy_ms", "ms", Lower),
    layer("runtime.transport.recv_wait_ms.server", "ms", Lower),
    layer("runtime.transport.recv_wait_ms.worker", "ms", Lower),
    layer("runtime.transport.recv_timeouts", "count", Lower),
    layer("runtime.transport.frames", "count", Lower),
    layer("runtime.transport.bytes", "bytes", Lower),
    layer("runtime.pool.fresh", "count", Lower),
    layer("runtime.pool.recycled", "count", Higher),
    layer("runtime.pool.high_water", "count", Lower),
    layer("runtime.cluster.mesh_setup_ms", "ms", Lower),
    layer("runtime.cluster.dropped_sends", "count", Lower),
    layer("runtime.cluster.link_failures", "count", Lower),
    layer("runtime.cluster.round_ms_p99", "ms", Lower),
    layer("runtime.sys_cpu_share", "ratio", Lower),
    layer("runtime.wire.encode_ms", "ms", Lower),
    layer("runtime.wire.decode_ms", "ms", Lower),
    layer("runtime.wire.decodes", "count", Lower),
    layer("nn.forward_ms", "ms", Lower),
    layer("nn.backward_ms", "ms", Lower),
    layer("nn.gradients", "count", Higher),
    layer("nn.param_io_ms", "ms", Lower),
    layer("data.next_batch_ms", "ms", Lower),
    layer("aggregation.multi_krum_ms", "ms", Lower),
    layer("aggregation.median_ms", "ms", Lower),
    layer("aggregation.folds", "count", Lower),
    layer("byzantine.forge_ms", "ms", Lower),
    layer("core.node.residual_ms.server", "ms", Lower),
    layer("core.node.residual_ms.worker", "ms", Lower),
    layer("core.node.machine_ms", "ms", Lower),
    layer("core.node.unattributed_share", "ratio", Lower),
    layer("core.lockstep.round_ms_first_decile", "ms", Lower),
    layer("core.lockstep.round_ms_last_decile", "ms", Lower),
    layer("core.protocol.residual_ms", "ms", Lower),
    layer("simnet.events", "count", Lower),
    layer("simnet.messages_sent", "count", Lower),
    layer("simnet.bytes_sent", "bytes", Lower),
    layer("simnet.queue_drops", "count", Lower),
    layer("simnet.retransmits", "count", Lower),
    layer("simnet.peak_queue_bytes", "bytes", Lower),
    layer("simnet.sim_s", "s", Lower),
    layer("simnet.events_per_s", "1/s", Higher),
    layer("trace.overhead_share", "ratio", Lower),
    layer("env.spin_ms", "ms", Lower),
];

/// The last line of a run's standard output.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultLine {
    /// Whether every output check passed.
    pub correct: bool,
    /// Model updates the run should have applied.
    pub attempted: u64,
    /// Updates it did not apply.
    pub failed: u64,
    /// `(name, value, unit)` in table order.
    pub metrics: Vec<(String, f64, String)>,
}

impl ResultLine {
    /// The result line of `outcome`, metrics in the order of `defs`.
    ///
    /// # Errors
    ///
    /// Names a metric the run did not produce or produced as a non-finite
    /// number: JSON cannot carry it, and a run that computes one is wrong.
    pub fn new(outcome: &Outcome, defs: &[Def]) -> Result<ResultLine, String> {
        let metrics = defs
            .iter()
            .map(|d| {
                let m: &Metric = outcome
                    .metrics
                    .iter()
                    .find(|m| m.name == d.name)
                    .ok_or_else(|| format!("metric {} was not measured", d.name))?;
                if !m.value.is_finite() {
                    return Err(format!("metric {} is {}", d.name, m.value));
                }
                Ok((d.name.to_owned(), m.value, d.unit.to_owned()))
            })
            .collect::<Result<_, String>>()?;
        Ok(ResultLine {
            correct: outcome.failures.is_empty(),
            attempted: outcome.attempted,
            failed: outcome.failed,
            metrics,
        })
    }

    /// The value of one metric.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|&(_, v, _)| v)
    }
}

impl Serialize for ResultLine {
    fn serialize_value(&self) -> Value {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let entry = vec![
                    ("value".to_owned(), Value::F64(*value)),
                    ("unit".to_owned(), Value::Str(unit.clone())),
                ];
                (name.clone(), Value::Object(entry))
            })
            .collect();
        Value::Object(vec![
            ("correct".to_owned(), Value::Bool(self.correct)),
            ("attempted".to_owned(), Value::U64(self.attempted)),
            ("failed".to_owned(), Value::U64(self.failed)),
            ("metrics".to_owned(), Value::Object(metrics)),
        ])
    }
}

impl Deserialize for ResultLine {
    fn deserialize_value(v: &Value) -> Result<Self, DeError> {
        let obj = v
            .as_object()
            .ok_or_else(|| DeError::expected("object", "result line"))?;
        let field = |name| serde::get_field(obj, name);
        let metrics = field("metrics")?
            .as_object()
            .ok_or_else(|| DeError::expected("object", "metrics"))?
            .iter()
            .map(|(name, entry)| {
                let entry = entry
                    .as_object()
                    .ok_or_else(|| DeError::expected("object", "metric"))?;
                let value = serde::get_field(entry, "value")?
                    .as_f64()
                    .ok_or_else(|| DeError::expected("number", "value"))?;
                let unit = String::deserialize_value(serde::get_field(entry, "unit")?)?;
                Ok((name.clone(), value, unit))
            })
            .collect::<Result<_, DeError>>()?;
        Ok(ResultLine {
            correct: bool::deserialize_value(field("correct")?)?,
            attempted: u64::deserialize_value(field("attempted")?)?,
            failed: u64::deserialize_value(field("failed")?)?,
            metrics,
        })
    }
}

/// Median and quartiles of one metric over the repeats of one workload.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    /// Median over the repeats.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// `(q3 − q1) / median`, the spread the regression bound must exceed.
    pub spread: f64,
    /// Repeats summarised.
    pub n: usize,
}

/// Summarises one metric over `runs`.
pub fn summarise(runs: &[ResultLine], name: &str) -> Option<Summary> {
    let values: Vec<f64> = runs.iter().filter_map(|r| r.value(name)).collect();
    if values.is_empty() {
        return None;
    }
    let (q1, q3) = quartiles(&values);
    Some(Summary {
        median: median(&values),
        q1,
        q3,
        spread: spread(&values),
        n: values.len(),
    })
}

/// `(expected − applied + failed runs × their expected) / expected` over
/// the repeats of one workload.
pub fn failed_share(runs: &[ResultLine]) -> f64 {
    let expected: u64 = runs.iter().map(|r| r.attempted).sum();
    let failed: u64 = runs
        .iter()
        .map(|r| if r.correct { r.failed } else { r.attempted })
        .sum();
    failed as f64 / expected.max(1) as f64
}

/// Prints the end-to-end table of one workload.
pub fn print_end_to_end(spec: &Spec, runs: &[ResultLine]) {
    println!("\n== {}: end to end, tracing off ==", spec.name);
    println!("   ({})", spec.why);
    println!(
        "{:<22} {:>6} {:>14} {:>14} {:>14} {:>8} {:>3}",
        "metric", "unit", "median", "q1", "q3", "spread", "n"
    );
    for d in &END_TO_END {
        if let Some(s) = summarise(runs, d.name) {
            println!(
                "{:<22} {:>6} {:>14.4} {:>14.4} {:>14.4} {:>7.2}% {:>3}",
                d.name,
                d.unit,
                s.median,
                s.q1,
                s.q3,
                s.spread * 100.0,
                s.n
            );
        }
    }
    println!(
        "{:<22} {:>6} {:>14.4} {:>14} {:>14} {:>8} {:>3}",
        "failed_share",
        "ratio",
        failed_share(runs),
        "",
        "",
        "",
        runs.len()
    );
}

/// Prints the per-layer table of one workload's traced pass, leaving out
/// the metrics that do not apply to its engine (they read 0).
pub fn print_per_layer(workload: &str, traced: &ResultLine) {
    println!("\n== {workload}: per layer, traced pass (per round unless a count) ==");
    // A threaded run's zero drops are a result; elsewhere a zero means
    // the metric does not apply.
    let threaded = traced.value("runtime.transport.frames") != Some(0.0);
    for (name, value, unit) in &traced.metrics {
        if *value != 0.0 || (threaded && name.starts_with("runtime.cluster.")) {
            println!("{name:<40} {value:>16.4} {unit}");
        }
    }
    if let Some(share) = traced.value("core.node.unattributed_share") {
        if share > 0.25 {
            println!(
                "warning: {:.0}% of node-thread time is outside every seam and replay",
                share * 100.0
            );
        }
    }
}

/// By how much of `first` the median `second` is worse, in the metric's
/// own direction; negative when it is better.
pub fn worse_by(d: &Def, first: f64, second: f64) -> f64 {
    let delta = match d.better {
        Better::Higher => first - second,
        Better::Lower => second - first,
    };
    delta / first.abs().max(f64::MIN_POSITIVE)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` as the contract reads it.
    #[derive(Debug, Deserialize)]
    struct Manifest {
        command: Vec<String>,
        paths: Vec<String>,
        run_seconds: u64,
        workloads: Vec<ManifestWorkload>,
        end_to_end: Vec<ManifestMetric>,
        per_layer: Vec<ManifestLayer>,
    }

    #[derive(Debug, Deserialize)]
    struct ManifestWorkload {
        name: String,
        why: String,
    }

    #[derive(Debug, Deserialize)]
    struct ManifestMetric {
        name: String,
        unit: String,
        better: String,
        bound: f64,
    }

    #[derive(Debug, Deserialize)]
    struct ManifestLayer {
        name: String,
        unit: String,
        better: String,
    }

    #[test]
    fn benchmark_json_lists_exactly_what_the_binary_measures() {
        let text = include_str!("../../../../../BENCHMARK.json");
        let manifest: Manifest = serde_json::from_str(text).expect("BENCHMARK.json parses");
        assert_eq!(manifest.paths, ["crates/bench/src/bin/perf"]);
        assert!(manifest
            .command
            .iter()
            .any(|a| a.ends_with("perf/Cargo.toml")));
        assert!((1..=60).contains(&manifest.run_seconds));
        assert_eq!(manifest.run_seconds as f64, crate::DEFAULT_SECONDS);

        let specs = &crate::workloads::WORKLOADS;
        assert_eq!(manifest.workloads.len(), specs.len());
        for (m, s) in manifest.workloads.iter().zip(specs) {
            assert_eq!((m.name.as_str(), m.why.as_str()), (s.name, s.why));
        }
        assert_eq!(manifest.end_to_end.len(), END_TO_END.len());
        for (m, d) in manifest.end_to_end.iter().zip(&END_TO_END) {
            assert_eq!((m.name.as_str(), m.unit.as_str()), (d.name, d.unit));
            assert_eq!(m.better == "higher", d.better == Higher, "{}", d.name);
            assert_eq!(Some(m.bound), d.bound, "{}", d.name);
            assert!(m.bound <= 0.25);
        }
        assert_eq!(manifest.per_layer.len(), PER_LAYER.len());
        for (m, d) in manifest.per_layer.iter().zip(&PER_LAYER) {
            assert_eq!((m.name.as_str(), m.unit.as_str()), (d.name, d.unit));
            assert_eq!(m.better == "higher", d.better == Higher, "{}", d.name);
            assert!(m.better == "higher" || m.better == "lower");
        }
    }

    fn line(updates_per_s: f64, failed: u64, correct: bool) -> ResultLine {
        ResultLine {
            correct,
            attempted: 100,
            failed,
            metrics: vec![
                ("updates_per_s".into(), updates_per_s, "1/s".into()),
                ("setup_s".into(), 0.5, "s".into()),
            ],
        }
    }

    #[test]
    fn result_line_round_trips_through_json() {
        let original = line(205.25, 3, true);
        let text = serde_json::to_string(&original).unwrap();
        assert!(text.starts_with("{\"correct\":true,\"attempted\":100,\"failed\":3,"));
        assert!(text.contains("\"updates_per_s\":{\"value\":205.25,\"unit\":\"1/s\"}"));
        let back: ResultLine = serde_json::from_str(&text).unwrap();
        assert_eq!(back, original);
    }

    #[test]
    fn result_line_refuses_missing_and_non_finite_metrics() {
        let mut outcome = Outcome {
            failures: vec![],
            attempted: 1,
            failed: 0,
            metrics: vec![Metric::new("updates_per_s", f64::NAN)],
            fingerprint: 0,
            spin_ms: (1.0, 1.0),
            sim: None,
        };
        let err = ResultLine::new(&outcome, &END_TO_END[..1]).unwrap_err();
        assert!(err.contains("NaN"), "{err}");
        outcome.metrics.clear();
        let err = ResultLine::new(&outcome, &END_TO_END[..1]).unwrap_err();
        assert!(err.contains("not measured"), "{err}");
    }

    #[test]
    fn failed_share_counts_a_failed_run_as_all_its_updates() {
        let runs = [line(1.0, 0, true), line(1.0, 10, true), line(1.0, 0, false)];
        assert!((failed_share(&runs) - 110.0 / 300.0).abs() < 1e-12);
        assert_eq!(failed_share(&runs[..1]), 0.0);
    }

    #[test]
    fn worse_by_follows_the_direction() {
        let (up, ms) = (&END_TO_END[0], &END_TO_END[1]);
        assert_eq!((up.better, ms.better), (Higher, Lower));
        assert!((worse_by(up, 200.0, 190.0) - 0.05).abs() < 1e-12);
        assert!(worse_by(up, 200.0, 210.0) < 0.0);
        assert!((worse_by(ms, 10.0, 11.0) - 0.10).abs() < 1e-12);
    }

    #[test]
    fn summary_reports_median_and_quartiles() {
        let runs: Vec<ResultLine> = (1..=5).map(|i| line(f64::from(i), 0, true)).collect();
        let s = summarise(&runs, "updates_per_s").unwrap();
        assert_eq!((s.median, s.q1, s.q3, s.n), (3.0, 1.5, 4.5, 5));
        assert!((s.spread - 1.0).abs() < 1e-12);
        assert!(summarise(&runs, "round_ms_p50").is_none());
    }
}
