//! The per-layer metrics of a traced run, named after the repo's modules.
//!
//! Times are milliseconds of thread time per round (summed over the
//! threads that spent them, so they can exceed the round's wall time);
//! counts are per round where the name says so and totals otherwise. A
//! metric that does not apply to the workload's engine reads 0.

use std::time::Duration;

use data::Dataset;
use scenario::Engine;

use crate::engines::RunData;
use crate::probes::{frames_per_round, NodeSpan, Probes};
use crate::replay::{replay, OpCounts, ReplayCosts, Shapes};
use crate::run::Metric;
use crate::stats::{percentile, sorted};
use crate::workloads::{Plan, Workload};

/// A traced run and what its probes collected.
pub struct TracedRun<'a> {
    /// The workload that ran.
    pub workload: &'a Workload,
    /// What the engine handed back.
    pub run: &'a RunData,
    /// The probes that were installed.
    pub probes: &'a Probes,
    /// Model dimension.
    pub d: usize,
    /// The training set, for the batching replay.
    pub train: &'a Dataset,
}

fn total(
    spans: &[NodeSpan],
    server: Option<bool>,
    pick: impl Fn(&NodeSpan) -> Duration,
) -> Duration {
    spans
        .iter()
        .filter(|s| server.is_none_or(|want| s.server == want))
        .map(pick)
        .sum()
}

fn count(spans: &[NodeSpan], pick: impl Fn(&NodeSpan) -> u64) -> f64 {
    spans.iter().map(pick).sum::<u64>() as f64
}

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len().max(1) as f64
}

impl TracedRun<'_> {
    fn rounds(&self) -> f64 {
        self.run.rounds as f64
    }

    fn per_round_ms(&self, d: Duration) -> f64 {
        d.as_secs_f64() * 1e3 / self.rounds()
    }

    /// On the clean threaded workloads the frames sent must equal the
    /// closed form exactly; anything else means the protocol changed or
    /// the decorator miscounts.
    pub fn frame_count_mismatch(&self) -> Option<String> {
        let Plan::Cluster(cfg) = &self.workload.plan else {
            return None;
        };
        let sent = count(&self.probes.node_spans(), |s| s.frames);
        let expected = self.run.rounds
            * cfg.shards as u64
            * frames_per_round(cfg.cluster.servers, cfg.cluster.workers);
        (sent != expected as f64)
            .then(|| format!("{sent} frames sent, the closed form gives {expected}"))
    }

    /// Every per-layer metric except the three the traced pass computes
    /// from its other runs.
    pub fn metrics(&self) -> Vec<Metric> {
        let spans = self.probes.node_spans();
        let nn = self.probes.nn();
        let counts = OpCounts {
            sends: count(&spans, |s| s.sends) / self.rounds(),
            receives: count(&spans, |s| s.received) / self.rounds(),
            gradients: nn.gradients() as f64 / self.rounds(),
        };
        let shapes = Shapes::of(self.workload, self.d);
        let costs = replay(self.workload, &shapes, counts, self.train);
        let nn_ms = self.per_round_ms(nn.forward() + nn.backward());

        let mut out = self.runtime(&spans, &costs, counts);
        out.extend([
            Metric::new("nn.forward_ms", self.per_round_ms(nn.forward())),
            Metric::new("nn.backward_ms", self.per_round_ms(nn.backward())),
            Metric::new("nn.gradients", nn.gradients() as f64),
            Metric::new("nn.param_io_ms", costs.param_io_ms),
            Metric::new("data.next_batch_ms", costs.next_batch_ms),
            Metric::new("aggregation.multi_krum_ms", costs.multi_krum_ms),
            Metric::new("aggregation.median_ms", costs.median_ms),
            Metric::new(
                "aggregation.folds",
                shapes.folds_per_round() as f64 * self.rounds(),
            ),
            Metric::new("byzantine.forge_ms", costs.forge_ms),
        ]);
        out.extend(self.core(&spans, &costs, nn_ms));
        out.extend(self.simnet());
        out
    }

    /// `runtime.*`: the endpoint decorators, the report's own fields, and
    /// the codec replay at the run's frame counts.
    fn runtime(&self, spans: &[NodeSpan], costs: &ReplayCosts, counts: OpCounts) -> Vec<Metric> {
        let run = self.run;
        let c = run.cluster.unwrap_or_default();
        let mesh_setup_ms = match run.cluster {
            Some(_) => (run.call_secs - run.wall_secs) * 1e3,
            None => 0.0,
        };
        vec![
            Metric::new(
                "runtime.transport.send_busy_ms",
                self.per_round_ms(total(spans, None, |s| s.send_busy)),
            ),
            Metric::new(
                "runtime.transport.recv_wait_ms.server",
                self.per_round_ms(total(spans, Some(true), |s| s.recv_wait)),
            ),
            Metric::new(
                "runtime.transport.recv_wait_ms.worker",
                self.per_round_ms(total(spans, Some(false), |s| s.recv_wait)),
            ),
            Metric::new(
                "runtime.transport.recv_timeouts",
                count(spans, |s| s.recv_timeouts),
            ),
            Metric::new(
                "runtime.transport.frames",
                count(spans, |s| s.frames) / self.rounds(),
            ),
            Metric::new(
                "runtime.transport.bytes",
                count(spans, |s| s.bytes) / self.rounds(),
            ),
            Metric::new("runtime.pool.fresh", c.pool.fresh as f64),
            Metric::new("runtime.pool.recycled", c.pool.recycled as f64),
            Metric::new("runtime.pool.high_water", c.pool.high_water as f64),
            Metric::new("runtime.cluster.mesh_setup_ms", mesh_setup_ms),
            Metric::new("runtime.cluster.dropped_sends", c.dropped_sends as f64),
            Metric::new("runtime.cluster.link_failures", c.link_failures as f64),
            Metric::new(
                "runtime.cluster.round_ms_p99",
                percentile(&sorted(&run.round_ms), 0.99),
            ),
            Metric::new(
                "runtime.sys_cpu_share",
                run.cpu.sys / run.cpu.total().max(f64::MIN_POSITIVE),
            ),
            Metric::new("runtime.wire.encode_ms", costs.encode_ms),
            Metric::new("runtime.wire.decode_ms", costs.decode_ms),
            Metric::new("runtime.wire.decodes", counts.receives),
        ]
    }

    /// `core.*`: what is left of each driver's time once the transport,
    /// the layers and the replayed kernels are taken out.
    fn core(&self, spans: &[NodeSpan], costs: &ReplayCosts, nn_ms: f64) -> Vec<Metric> {
        let run = self.run;
        let engine = self.workload.engine();
        let (threaded, lockstep) = (engine == Engine::Threaded, engine == Engine::Lockstep);

        let residual_server = self.per_round_ms(total(spans, Some(true), NodeSpan::self_time));
        // Every training pass runs on a worker thread.
        let residual_worker =
            self.per_round_ms(total(spans, Some(false), NodeSpan::self_time)) - nn_ms;
        // Thread time the machines had, and what of it the seams leave.
        let (thread_ms, residual_ms) = match engine {
            Engine::Threaded => (
                self.per_round_ms(total(spans, None, |s| s.span)),
                residual_server + residual_worker,
            ),
            // One thread and no transport: a step is layers plus the rest.
            Engine::Lockstep => (run.ms_per_round(), run.ms_per_round() - nn_ms),
            Engine::EventDriven => (0.0, 0.0),
        };
        let machine_ms = residual_ms - costs.inside_node_ms();
        let measured = thread_ms > 0.0;

        let decile = (run.round_ms.len() / 10).max(1);
        let first_decile = mean(&run.round_ms[..decile]);
        let last_decile = mean(&run.round_ms[run.round_ms.len() - decile..]);
        let protocol_residual = run.ms_per_round() - nn_ms - costs.multi_krum_ms - costs.median_ms;
        let when = |applies: bool, value: f64| if applies { value } else { 0.0 };
        vec![
            Metric::new(
                "core.node.residual_ms.server",
                when(threaded, residual_server),
            ),
            Metric::new(
                "core.node.residual_ms.worker",
                when(threaded, residual_worker),
            ),
            Metric::new("core.node.machine_ms", when(measured, machine_ms)),
            Metric::new(
                "core.node.unattributed_share",
                when(measured, machine_ms.abs() / thread_ms),
            ),
            Metric::new(
                "core.lockstep.round_ms_first_decile",
                when(lockstep, first_decile),
            ),
            Metric::new(
                "core.lockstep.round_ms_last_decile",
                when(lockstep, last_decile),
            ),
            Metric::new(
                "core.protocol.residual_ms",
                when(engine == Engine::EventDriven, protocol_residual),
            ),
        ]
    }

    /// `simnet.*`: exact, replay-deterministic counts.
    fn simnet(&self) -> Vec<Metric> {
        let s = self.run.sim.unwrap_or_default();
        let events_per_s = match self.run.sim {
            Some(_) => s.events as f64 / self.run.wall_secs,
            None => 0.0,
        };
        vec![
            Metric::new("simnet.events", s.events as f64),
            Metric::new("simnet.messages_sent", s.messages_sent as f64),
            Metric::new("simnet.bytes_sent", s.bytes_sent as f64),
            Metric::new("simnet.queue_drops", s.queue_drops as f64),
            Metric::new("simnet.retransmits", s.retransmits as f64),
            Metric::new("simnet.peak_queue_bytes", s.peak_queue_bytes as f64),
            Metric::new("simnet.sim_s", s.sim_s),
            Metric::new("simnet.events_per_s", events_per_s),
        ]
    }
}
