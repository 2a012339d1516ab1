//! Long-soak endurance mode: thousands of rounds on the threaded runtime
//! under rolling worker churn, with live counters and a JSON-serialisable
//! final report (DESIGN.md §8).
//!
//! The deterministic engines prove the protocol correct round by round;
//! the soak asks a different question — does the *deployment* survive
//! hours of churn without leaking threads, wedging quorums, or dropping
//! sends it should not drop? Churn is injected below the protocol, as a
//! [`Transport`] decorator that drops frames to/from the current victim
//! worker, so both interconnects ([`TransportKind::Channel`] and
//! [`TransportKind::TcpLoopback`]) soak identically.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use data::Dataset;
use guanyu::GuanYuError;
use nn::Sequential;
use serde::{Deserialize, Serialize};
use tensor::TensorRng;

use crate::cluster::{run_cluster_with, RunHooks, RuntimeConfig};
use crate::pool::PoolStats;
use crate::transport::{Incoming, RecvError, Transport};
use crate::wire::WireMsg;

/// Live counters shared between the soak run and any monitor thread.
///
/// Node threads bump these with relaxed atomics (no ordering is needed —
/// each counter is an independent statistic, not a synchronisation point).
#[derive(Debug, Default)]
pub struct SoakCounters {
    /// Rounds completed by server 0 (the progress clock of the run).
    pub rounds: AtomicU64,
    /// Frames suppressed by the churn decorator.
    pub churn_drops: AtomicU64,
    /// Worker fast-forward recoveries (a worker that lost rounds to churn
    /// rejoined at the newest quorate step).
    pub recoveries: AtomicU64,
    /// Transport-level sends that found their peer gone, folded in when
    /// node threads exit.
    pub dropped_sends: AtomicU64,
}

impl SoakCounters {
    /// A point-in-time snapshot (for the live monitor line).
    pub fn snapshot(&self) -> (u64, u64, u64, u64) {
        (
            self.rounds.load(Ordering::Relaxed),
            self.churn_drops.load(Ordering::Relaxed),
            self.recoveries.load(Ordering::Relaxed),
            self.dropped_sends.load(Ordering::Relaxed),
        )
    }
}

/// Rolling churn: at round `r` the worker `(r / period) % pool` (counting
/// from the first worker) is down — its frames are dropped in both
/// directions. The victim rolls through the pool forever, so every pool
/// member keeps crashing and recovering for the whole soak.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChurnSpec {
    /// Rounds between victim moves (≥ 1).
    pub period: u64,
    /// Number of workers cycling through the down slot (≥ 1).
    pub pool: usize,
}

/// Configuration of a soak run.
#[derive(Debug, Clone)]
pub struct SoakConfig {
    /// The threaded run to endure: `max_steps` is the round budget and
    /// `wall_timeout` the abort safety net.
    pub runtime: RuntimeConfig,
    /// Rolling churn, or `None` for a clean endurance run (which must
    /// drop nothing — the CI smoke asserts it).
    pub churn: Option<ChurnSpec>,
}

/// What a finished (or aborted) soak reports.
#[derive(Debug, Clone, Serialize)]
pub struct SoakReport {
    /// Interconnect label (`channel` / `tcp`).
    pub transport: String,
    /// Cluster shape: servers.
    pub servers: usize,
    /// Cluster shape: workers.
    pub workers: usize,
    /// Round budget of the run.
    pub max_steps: u64,
    /// Churn spec, if any.
    pub churn: Option<ChurnSpec>,
    /// Rounds server 0 completed.
    pub rounds: u64,
    /// Wall-clock duration.
    pub wall_secs: f64,
    /// Throughput (`rounds / wall_secs`).
    pub rounds_per_sec: f64,
    /// Frames the churn decorator suppressed.
    pub churn_drops: u64,
    /// Worker fast-forward recoveries.
    pub recoveries: u64,
    /// Transport-level drops (peer already gone).
    pub dropped_sends: u64,
    /// Mesh-shared frame-pool counters (zeros when the run timed out —
    /// the abort path carries no report to snapshot them from).
    pub pool: PoolStats,
    /// Whether the wall timeout aborted the run.
    pub timed_out: bool,
    /// Trace fingerprint of the completed run (absent on timeout).
    pub trace_fingerprint: Option<u64>,
}

/// Transport decorator dropping frames to and from the churn victim.
///
/// The victim for a frame is derived from the *step carried in the frame*
/// ([`WireMsg::step`]), not from wall time — filtering is sender-side and
/// needs no decode, and the drop pattern is a pure function of the
/// protocol round on every transport.
struct ChurnTransport {
    inner: Box<dyn Transport>,
    servers: usize,
    spec: ChurnSpec,
    counters: Arc<SoakCounters>,
}

impl ChurnTransport {
    fn victim(&self, step: u64) -> usize {
        self.servers + ((step / self.spec.period) as usize % self.spec.pool)
    }

    fn down(&self, node: usize, step: u64) -> bool {
        node == self.victim(step)
    }
}

impl Transport for ChurnTransport {
    fn me(&self) -> usize {
        self.inner.me()
    }

    fn send(&mut self, to: usize, msg: &WireMsg) {
        let step = msg.step();
        if self.down(to, step) || self.down(self.me(), step) {
            self.counters.churn_drops.fetch_add(1, Ordering::Relaxed);
            return;
        }
        self.inner.send(to, msg);
    }

    fn broadcast(&mut self, targets: &[usize], msg: &WireMsg) {
        let step = msg.step();
        if self.down(self.me(), step) {
            self.counters
                .churn_drops
                .fetch_add(targets.len() as u64, Ordering::Relaxed);
            return;
        }
        let keep: Vec<usize> = targets
            .iter()
            .copied()
            .filter(|&t| !self.down(t, step))
            .collect();
        let dropped = (targets.len() - keep.len()) as u64;
        if dropped > 0 {
            self.counters
                .churn_drops
                .fetch_add(dropped, Ordering::Relaxed);
        }
        if !keep.is_empty() {
            self.inner.broadcast(&keep, msg);
        }
    }

    fn broadcast_range(&mut self, targets: &[usize], msg: &WireMsg, range: std::ops::Range<usize>) {
        // Same victim filter as `broadcast`, then the zero-copy scatter of
        // the inner engine (the default materialising fallback would also
        // be correct, just slower).
        let step = msg.step();
        if self.down(self.me(), step) {
            self.counters
                .churn_drops
                .fetch_add(targets.len() as u64, Ordering::Relaxed);
            return;
        }
        let keep: Vec<usize> = targets
            .iter()
            .copied()
            .filter(|&t| !self.down(t, step))
            .collect();
        let dropped = (targets.len() - keep.len()) as u64;
        if dropped > 0 {
            self.counters
                .churn_drops
                .fetch_add(dropped, Ordering::Relaxed);
        }
        if !keep.is_empty() {
            self.inner.broadcast_range(&keep, msg, range);
        }
    }

    fn pool_stats(&self) -> PoolStats {
        self.inner.pool_stats()
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Incoming, RecvError> {
        self.inner.recv_timeout(timeout)
    }

    fn dropped_sends(&self) -> u64 {
        self.inner.dropped_sends()
    }

    fn link_failures(&self) -> u64 {
        self.inner.link_failures()
    }

    fn shutdown(&mut self) {
        self.inner.shutdown();
    }
}

fn validate(cfg: &SoakConfig) -> Result<(), GuanYuError> {
    let Some(churn) = cfg.churn else {
        return Ok(());
    };
    let c = &cfg.runtime.cluster;
    if churn.period == 0 || churn.pool == 0 {
        return Err(GuanYuError::InvalidConfig(
            "churn period and pool must be >= 1".into(),
        ));
    }
    let honest = c.workers - cfg.runtime.actual_byz_workers;
    if churn.pool > honest {
        return Err(GuanYuError::InvalidConfig(format!(
            "churn pool {} exceeds the {honest} honest workers",
            churn.pool
        )));
    }
    // With one worker down, the gradient quorum must still be fillable —
    // otherwise every round wedges until the wall timeout.
    if c.workers - 1 < c.worker_quorum {
        return Err(GuanYuError::InvalidConfig(format!(
            "churn with worker quorum {} needs at least {} workers (one is always down)",
            c.worker_quorum,
            c.worker_quorum + 1
        )));
    }
    Ok(())
}

/// Runs the soak with caller-owned counters, so a monitor thread can read
/// them live while the cluster runs.
///
/// Churn implies `recovery = true` (victims must fast-forward past the
/// rounds they lost, or they stall forever and the run wedges).
///
/// # Errors
///
/// Invalid configurations and transport build failures. A wall-timeout
/// abort is *not* an error: the soak's job is to report it
/// ([`SoakReport::timed_out`]).
pub fn run_soak_with(
    cfg: &SoakConfig,
    model_builder: impl Fn(&mut TensorRng) -> Sequential,
    train: Dataset,
    counters: Arc<SoakCounters>,
) -> Result<SoakReport, GuanYuError> {
    validate(cfg)?;
    let mut runtime = cfg.runtime.clone();
    if cfg.churn.is_some() {
        runtime.recovery = true;
    }
    let hooks = RunHooks {
        wrap: cfg.churn.map(|spec| {
            // With k shard groups the server plane occupies raw ids
            // 0..k*servers; workers start right after it.
            let servers = runtime.cluster.servers * runtime.shards.max(1);
            let counters = Arc::clone(&counters);
            Arc::new(move |_id: usize, inner: Box<dyn Transport>| {
                Box::new(ChurnTransport {
                    inner,
                    servers,
                    spec,
                    counters: Arc::clone(&counters),
                }) as Box<dyn Transport>
            })
                as Arc<dyn Fn(usize, Box<dyn Transport>) -> Box<dyn Transport> + Send + Sync>
        }),
        counters: Arc::clone(&counters),
    };
    let start = std::time::Instant::now();
    let outcome = run_cluster_with(&runtime, model_builder, train, hooks);
    let wall_secs = start.elapsed().as_secs_f64();
    let (rounds, churn_drops, recoveries, dropped_sends) = counters.snapshot();
    let (timed_out, trace_fingerprint, pool) = match outcome {
        Ok(report) => (false, Some(report.trace.fingerprint()), report.pool),
        Err(GuanYuError::WallTimeout(_)) => (true, None, PoolStats::default()),
        Err(e) => return Err(e),
    };
    Ok(SoakReport {
        transport: runtime.transport.to_string(),
        servers: runtime.cluster.servers,
        workers: runtime.cluster.workers,
        max_steps: runtime.max_steps,
        churn: cfg.churn,
        rounds,
        wall_secs,
        rounds_per_sec: if wall_secs > 0.0 {
            rounds as f64 / wall_secs
        } else {
            0.0
        },
        churn_drops,
        recoveries,
        dropped_sends,
        pool,
        timed_out,
        trace_fingerprint,
    })
}

/// Runs the soak with internal counters (no live monitoring).
///
/// # Errors
///
/// See [`run_soak_with`].
pub fn run_soak(
    cfg: &SoakConfig,
    model_builder: impl Fn(&mut TensorRng) -> Sequential,
    train: Dataset,
) -> Result<SoakReport, GuanYuError> {
    run_soak_with(cfg, model_builder, train, Arc::new(SoakCounters::default()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use data::{synthetic_cifar, SyntheticConfig};
    use guanyu::config::ClusterConfig;
    use nn::models;

    fn train_data() -> Dataset {
        synthetic_cifar(&SyntheticConfig {
            train: 64,
            test: 0,
            side: 8,
            ..Default::default()
        })
        .unwrap()
        .0
    }

    fn builder(rng: &mut TensorRng) -> Sequential {
        models::small_cnn(8, 2, 10, rng)
    }

    #[test]
    fn clean_soak_drops_nothing() {
        // Full quorums: the run is lossless, so every counter that tracks
        // a loss must end at zero.
        let cfg = SoakConfig {
            runtime: RuntimeConfig {
                cluster: ClusterConfig::with_quorums(3, 0, 4, 0, 3, 4).unwrap(),
                max_steps: 5,
                ..RuntimeConfig::default_for_tests()
            },
            churn: None,
        };
        let report = run_soak(&cfg, builder, train_data()).unwrap();
        assert!(!report.timed_out);
        assert_eq!(report.rounds, 5);
        assert!(
            report.pool.fresh > 0 && report.pool.high_water > 0,
            "pool counters must surface in the report: {:?}",
            report.pool
        );
        assert_eq!(report.churn_drops, 0);
        assert_eq!(report.recoveries, 0);
        assert_eq!(report.dropped_sends, 0, "clean soak must not drop sends");
        assert!(report.trace_fingerprint.is_some());
        assert!(report.rounds_per_sec > 0.0);
    }

    #[test]
    fn churn_soak_survives_and_recovers() {
        let cfg = SoakConfig {
            runtime: RuntimeConfig {
                cluster: ClusterConfig::new(6, 1, 9, 2).unwrap(),
                max_steps: 12,
                wall_timeout: Duration::from_secs(120),
                ..RuntimeConfig::default_for_tests()
            },
            churn: Some(ChurnSpec { period: 2, pool: 3 }),
        };
        let report = run_soak(&cfg, builder, train_data()).unwrap();
        assert!(!report.timed_out, "churned soak must still make progress");
        assert_eq!(report.rounds, 12);
        assert!(report.churn_drops > 0, "the victim's frames must be cut");
    }

    #[test]
    fn a_soak_past_its_wall_timeout_reports_timed_out() {
        // The timeout is the soak's own verdict, not an error.
        let cfg = SoakConfig {
            runtime: RuntimeConfig {
                cluster: ClusterConfig::with_quorums(3, 0, 4, 0, 3, 4).unwrap(),
                max_steps: 1_000_000,
                wall_timeout: Duration::from_millis(300),
                ..RuntimeConfig::default_for_tests()
            },
            churn: None,
        };
        let report = run_soak(&cfg, builder, train_data()).unwrap();
        assert!(report.timed_out);
        assert_eq!(report.trace_fingerprint, None);
        assert!(report.rounds < cfg.runtime.max_steps);
    }

    #[test]
    fn rejects_unfillable_churn_quorums() {
        // worker quorum == workers: one victim down leaves the quorum
        // unfillable, which would wedge every round.
        let cfg = SoakConfig {
            runtime: RuntimeConfig {
                cluster: ClusterConfig::with_quorums(3, 0, 4, 0, 3, 4).unwrap(),
                ..RuntimeConfig::default_for_tests()
            },
            churn: Some(ChurnSpec { period: 1, pool: 2 }),
        };
        assert!(run_soak(&cfg, builder, train_data()).is_err());
    }

    #[test]
    fn soak_report_serialises() {
        let report = SoakReport {
            transport: "channel".into(),
            servers: 3,
            workers: 4,
            max_steps: 5,
            churn: Some(ChurnSpec { period: 1, pool: 2 }),
            rounds: 5,
            wall_secs: 1.0,
            rounds_per_sec: 5.0,
            churn_drops: 7,
            recoveries: 2,
            dropped_sends: 0,
            pool: PoolStats {
                fresh: 3,
                recycled: 11,
                high_water: 2,
            },
            timed_out: false,
            trace_fingerprint: Some(42),
        };
        let json = serde_json::to_string(&report).unwrap();
        assert!(json.contains("\"rounds_per_sec\""), "{json}");
        assert!(json.contains("\"pool\""), "{json}");
        assert!(json.contains("\"high_water\":2"), "{json}");
    }
}
