//! The threaded cluster: one OS thread per node, frames over a pluggable
//! [`Transport`] — in-process channels or real TCP loopback sockets.
//!
//! Every node thread is a thin driver over the sans-I/O machines of
//! [`guanyu::node`]: it receives [`NodeMsg`]s its transport decoded from
//! wire frames, feeds them to its machine, and puts the machine's outbound
//! messages back on the wire. All protocol logic — quorum ledgers, GAR folds, the contraction
//! exchange, crash adoption, Byzantine forging — lives in the shared
//! machines, so the threaded runtime cannot drift from the lockstep and
//! event-driven engines (DESIGN.md §11), and the machines themselves, `θ₀`
//! and the workers' gradient sources come from the shared node plant
//! ([`guanyu::plant`]). What remains here is exactly the driver contract:
//! transport I/O, thread lifecycle, and the shard-plane scatter/gather
//! (DESIGN.md §9).

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crate::soak::SoakCounters;
use std::time::{Duration, Instant};

use aggregation::GarKind;
use byzantine::AttackKind;
use data::Dataset;
use guanyu::config::ClusterConfig;
use guanyu::faults::FaultSchedule;
use guanyu::node::{self, MachineConfig, NodeMsg, Output, QuorumMode, StepRecord, WorkerMachine};
use guanyu::plant::{GradientSource, Node, Plant};
use guanyu::shard::ShardPlan;
use guanyu::trace::Trace;
use guanyu::GuanYuError;
use nn::{LrSchedule, Sequential};
use tensor::{Tensor, TensorRng};

use crate::pool::PoolStats;
use crate::tcp::TcpTransport;
use crate::transport::{ChannelTransport, Incoming, RecvError, Transport};

/// Which interconnect carries the frames (DESIGN.md §7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransportKind {
    /// In-process `mpsc` channels with `Arc`-shared broadcast buffers.
    #[default]
    Channel,
    /// Real TCP sockets over `127.0.0.1`: length-prefixed stream framing,
    /// id-carrying handshakes, batched per-peer writer threads, one
    /// poll-style reader thread per node.
    TcpLoopback,
}

impl std::fmt::Display for TransportKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportKind::Channel => write!(f, "channel"),
            TransportKind::TcpLoopback => write!(f, "tcp"),
        }
    }
}

/// Configuration of a threaded run.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Cluster sizing and quorums.
    pub cluster: ClusterConfig,
    /// Updates each server performs before reporting.
    pub max_steps: u64,
    /// Learning-rate schedule.
    pub lr: LrSchedule,
    /// Server-side gradient GAR.
    pub server_gar: GarKind,
    /// Per-worker mini-batch size.
    pub batch_size: usize,
    /// Master seed.
    pub seed: u64,
    /// Actually-Byzantine workers (last worker ids).
    pub actual_byz_workers: usize,
    /// Their attack (forged after observing the honest gradients of the
    /// step through the omniscience taps — the same adversary every
    /// engine faces).
    pub worker_attack: Option<AttackKind>,
    /// Actually-Byzantine servers (last server ids of each shard group).
    pub actual_byz_servers: usize,
    /// Their attack (a reactive cascade forged from the previous round's
    /// observed honest exchanges).
    pub server_attack: Option<AttackKind>,
    /// Safety net: abort the run after this much wall time.
    pub wall_timeout: Duration,
    /// The interconnect the frames travel over.
    pub transport: TransportKind,
    /// Shard groups of the gradient plane (DESIGN.md §9). With `k` shards
    /// the parameter vector is split into `k` contiguous ranges and the
    /// server plane into `k` groups of `cluster.servers` replicas each:
    /// group `g` occupies raw node ids `g*servers..(g+1)*servers` and owns
    /// only range `g`. Workers scatter per-range gradient slices and
    /// gather per-range model slices; at full quorums a sharded run is
    /// bit-identical (trace and final parameters) to the unsharded one.
    /// `1` is the classic unsharded plane.
    pub shards: usize,
    /// Worker fast-forward recovery: a worker whose current step can no
    /// longer fill its model quorum (frames lost to churn or crashes)
    /// jumps to the newest step that *is* fully quorate instead of
    /// stalling forever. Off by default — on a lossless run every quorum
    /// eventually fills and skipping would forfeit rounds.
    pub recovery: bool,
    /// Quorum membership mode of the node machines. [`QuorumMode::Arrival`]
    /// (the default) folds the first `q` arrivals sender-sorted — the
    /// classic timing-dependent threaded run. [`QuorumMode::Planned`]
    /// derives membership purely from `faults` and the step number, making
    /// the trace bit-identical to the lockstep and event-driven engines on
    /// the same config (the scenario runner's cross-engine mode).
    pub mode: QuorumMode,
    /// Round-indexed fault schedule, meaningful in planned mode: crash
    /// windows freeze machines (they discard while down and fast-forward
    /// by adoption on recovery), partitions cut exchange links, attack
    /// windows gate forging. Timing faults (delay spikes, stragglers)
    /// shape no planned membership and are ignored by the wall-clock
    /// engine.
    pub faults: FaultSchedule,
}

impl RuntimeConfig {
    /// Small defaults for tests and the quickstart example.
    pub fn default_for_tests() -> Self {
        RuntimeConfig {
            cluster: ClusterConfig::new(6, 1, 9, 2).expect("valid"),
            max_steps: 3,
            lr: LrSchedule::constant(0.05),
            server_gar: GarKind::MultiKrum,
            batch_size: 8,
            seed: 0,
            actual_byz_workers: 0,
            worker_attack: None,
            actual_byz_servers: 0,
            server_attack: None,
            wall_timeout: Duration::from_secs(60),
            transport: TransportKind::Channel,
            shards: 1,
            recovery: false,
            mode: QuorumMode::Arrival,
            faults: FaultSchedule::none(),
        }
    }

    fn machine_config(&self) -> MachineConfig {
        MachineConfig {
            seed: self.seed,
            actual_byz_workers: self.actual_byz_workers,
            worker_attack: self.worker_attack,
            actual_byz_servers: self.actual_byz_servers,
            server_attack: self.server_attack,
            recovery: self.recovery,
            mode: self.mode,
            faults: self.faults.clone(),
            ..MachineConfig::honest(self.cluster, self.max_steps, self.lr, self.server_gar)
        }
    }
}

/// Wraps a node's endpoint before its thread starts (fault-injection
/// decorators like the soak's churn transport). The `usize` is the node's
/// wire id: servers first, then workers.
pub type WrapTransport = Arc<dyn Fn(usize, Box<dyn Transport>) -> Box<dyn Transport> + Send + Sync>;

/// Instrumentation hooks threaded through [`run_cluster_with`].
#[derive(Clone)]
pub struct RunHooks {
    /// Endpoint decorator, applied to every node.
    pub wrap: Option<WrapTransport>,
    /// Live counters the node threads bump while running.
    pub counters: Arc<SoakCounters>,
}

impl Default for RunHooks {
    fn default() -> Self {
        RunHooks {
            wrap: None,
            counters: Arc::new(SoakCounters::default()),
        }
    }
}

/// What a finished run reports.
#[derive(Debug, Clone)]
pub struct ClusterReport {
    /// Final parameter vector of each honest server, in server order.
    pub final_params: Vec<Tensor>,
    /// The step each honest server reached, in server order. On a clean
    /// run every entry is `max_steps`; under planned crash windows a
    /// server that could not adopt back in reports where it froze.
    pub final_steps: Vec<u64>,
    /// Total model updates across honest servers.
    pub updates: u64,
    /// Wall-clock duration of the run.
    pub wall_secs: f64,
    /// Per-round digests of the run, assembled with
    /// [`node::assemble_trace`] — the same canonical folding every engine
    /// uses. In [`QuorumMode::Planned`] the trace is a deterministic
    /// function of seed + config + faults, bit-identical across transports
    /// *and* across engines; in arrival mode only full-quorum runs are
    /// timing-independent.
    pub trace: Trace,
    /// Sends that found their peer already disconnected, summed over all
    /// node endpoints. A clean full-quorum run drops nothing — the
    /// regression `tests` assert exactly zero.
    pub dropped_sends: u64,
    /// Links severed abnormally (poisoned streams, socket errors, wedged
    /// peers), summed over all node endpoints
    /// ([`Transport::link_failures`]). Always 0 on the channel plane and
    /// on clean TCP runs.
    pub link_failures: u64,
    /// Mesh-shared frame-pool counters ([`PoolStats`]): every endpoint
    /// snapshots the same pool at shutdown, so the report keeps the
    /// latest (field-wise largest) snapshot rather than a sum.
    pub pool: PoolStats,
}

const POLL: Duration = Duration::from_millis(20);

/// Endpoint counters a node thread hands back after shutdown.
#[derive(Debug, Clone, Copy, Default)]
struct NetStats {
    dropped: u64,
    link_failures: u64,
    pool: PoolStats,
}

impl NetStats {
    fn collect(net: &dyn Transport) -> NetStats {
        NetStats {
            dropped: net.dropped_sends(),
            link_failures: net.link_failures(),
            pool: net.pool_stats(),
        }
    }

    /// Adds another endpoint's counters. Every endpoint snapshots the
    /// *same* mesh-shared pool at its own shutdown instant; the latest
    /// snapshot has the largest (monotonic) counters, so a field-wise max
    /// keeps it without double counting.
    fn absorb(&mut self, other: NetStats) {
        self.dropped += other.dropped;
        self.link_failures += other.link_failures;
        self.pool.fresh = self.pool.fresh.max(other.pool.fresh);
        self.pool.recycled = self.pool.recycled.max(other.pool.recycled);
        self.pool.high_water = self.pool.high_water.max(other.pool.high_water);
    }
}

/// Raw-wire ↔ logical id translation for one node's outbound plane. The
/// machines speak logical ids (servers `0..n`, workers `n..n+n̄`); the wire
/// speaks raw ids (shard group `g`'s replicas at `g*n..(g+1)*n`, workers
/// after the whole server plane). Server-targeted sends stay inside the
/// sender's own shard group — shard groups never talk across.
#[derive(Debug, Clone, Copy)]
struct IdMap {
    /// Shard group whose server replicas this node addresses.
    group: usize,
    /// Logical server replicas per group (`cluster.servers`).
    replicas: usize,
    /// Total server plane width (`shards * replicas`).
    plane: usize,
}

impl IdMap {
    fn raw(&self, logical: usize) -> usize {
        if logical < self.replicas {
            self.group * self.replicas + logical
        } else {
            self.plane + (logical - self.replicas)
        }
    }

    fn logical(&self, raw: usize) -> usize {
        if raw < self.plane {
            raw % self.replicas
        } else {
            self.replicas + (raw - self.plane)
        }
    }
}

/// Whether two outbound messages carry the same payload (a machine
/// broadcasting clones one tensor per receiver — a refcount bump, so
/// storage identity detects the fan-out).
fn same_payload(a: &NodeMsg, b: &NodeMsg) -> bool {
    std::mem::discriminant(a) == std::mem::discriminant(b)
        && a.step() == b.step()
        && a.vector().shares_storage(b.vector())
}

/// One node thread's side of the run: its endpoint, the run-wide flags
/// and counters, and the step records it collects.
struct Link {
    net: Box<dyn Transport>,
    done: Arc<AtomicBool>,
    counters: Arc<SoakCounters>,
    /// Whether this node's completed steps tick the live round counter.
    count_rounds: bool,
    records: Vec<StepRecord>,
}

impl Link {
    /// Blocks for the next message; `None` once the run is flagged done or
    /// the transport has closed.
    fn recv(&mut self) -> Option<Incoming> {
        loop {
            if self.done.load(Ordering::Relaxed) {
                return None;
            }
            match self.net.recv_timeout(POLL) {
                Ok(frame) => return Some(frame),
                Err(RecvError::Timeout) => {}
                Err(RecvError::Closed) => return None,
            }
        }
    }

    /// Acts on a machine's outputs: sends go on the wire, completed steps
    /// and recoveries into the records and run counters; the gradient
    /// requests are handed back. Consecutive sends sharing one payload (a
    /// machine-level broadcast) are coalesced into a single transport
    /// broadcast so the frame is encoded once for all receivers.
    fn drive(&mut self, map: IdMap, out: &mut Vec<Output>) -> Vec<(u64, Tensor)> {
        let mut sends: Vec<(usize, NodeMsg)> = Vec::new();
        let mut requests = Vec::new();
        for o in out.drain(..) {
            match o {
                Output::Send { to, msg } => sends.push((to, msg)),
                Output::Step(r) => {
                    self.records.push(r);
                    if self.count_rounds {
                        self.counters.rounds.fetch_add(1, Ordering::Relaxed);
                    }
                }
                Output::Recovered { .. } => {
                    self.counters.recoveries.fetch_add(1, Ordering::Relaxed);
                }
                Output::NeedGradient { step, model } => requests.push((step, model)),
            }
        }
        let mut i = 0;
        while i < sends.len() {
            let mut targets = vec![map.raw(sends[i].0)];
            let mut j = i + 1;
            while j < sends.len() && same_payload(&sends[i].1, &sends[j].1) {
                targets.push(map.raw(sends[j].0));
                j += 1;
            }
            self.net.broadcast(&targets, &sends[i].1);
            i = j;
        }
        requests
    }

    /// Tears the endpoint down and hands back what the thread collected.
    fn close(mut self) -> (Vec<StepRecord>, NetStats) {
        self.net.shutdown();
        let stats = NetStats::collect(self.net.as_ref());
        (self.records, stats)
    }
}

/// The node thread of every single-machine role (honest server,
/// Byzantine server, Byzantine worker): feed each received message to the
/// machine, put its outputs on the wire. An honest server leaves when its machine halts;
/// the Byzantine machines never halt and leave when the run is done.
fn node_thread(mut node: Node, map: IdMap, mut link: Link) -> (Node, Vec<StepRecord>, NetStats) {
    let mut out = Vec::new();
    node.on_start(&mut out);
    link.drive(map, &mut out);
    while !node.halted() {
        let Some(got) = link.recv() else { break };
        node.on_message(map.logical(got.from), &got.msg, &mut out);
        link.drive(map, &mut out);
    }
    let (records, stats) = link.close();
    (node, records, stats)
}

/// The honest-worker data pipeline: one machine per shard group, one
/// gradient source shared across the groups. A gradient is computed once
/// per step — when every group's machine has folded its model slice — and
/// scattered back to the groups as per-range slices.
struct WorkerPipeline {
    machines: Vec<WorkerMachine>,
    plan: ShardPlan,
    source: GradientSource,
    /// Folded model slices awaiting the full set, per step: `pending[step][g]`.
    pending: HashMap<u64, Vec<Option<Tensor>>>,
}

impl WorkerPipeline {
    /// Answers every gradient request whose slice set is complete, and
    /// unblocks groups stuck on a step their sibling groups fast-forwarded
    /// past (recovery mode): those receive a NaN sentinel, which the
    /// machine swallows — the step is skipped, never stalled.
    fn resolve(&mut self, out_by_group: &mut [Vec<Output>]) {
        loop {
            let mut steps: Vec<u64> = self.pending.keys().copied().collect();
            steps.sort_unstable();
            let mut progressed = false;
            for t in steps {
                let slices = &self.pending[&t];
                let complete = slices.iter().all(Option::is_some);
                let abandoned = !complete
                    && slices
                        .iter()
                        .enumerate()
                        .all(|(g, s)| s.is_some() || self.machines[g].step() > t);
                if complete {
                    let slices = self.pending.remove(&t).expect("checked");
                    self.answer(t, slices, out_by_group);
                    progressed = true;
                } else if abandoned {
                    // Some groups skipped `t` (fast-forward): feed the
                    // waiting groups a sentinel so they skip it too.
                    let slices = self.pending.remove(&t).expect("checked");
                    for (g, s) in slices.into_iter().enumerate() {
                        if s.is_some() {
                            let d = self.plan.range(g).len();
                            self.machines[g].gradient_ready(
                                t,
                                Tensor::full(&[d], f32::NAN),
                                &mut out_by_group[g],
                            );
                        }
                    }
                    progressed = true;
                }
            }
            if !progressed {
                return;
            }
        }
    }

    fn answer(&mut self, step: u64, slices: Vec<Option<Tensor>>, out_by_group: &mut [Vec<Output>]) {
        let shards = self.machines.len();
        let view = if shards == 1 {
            slices.into_iter().next().flatten().expect("complete")
        } else {
            // Each group's slice written into its range of one buffer.
            let mut view = Tensor::zeros(&[self.plan.d()]);
            let flat = view.as_mut_slice();
            for (g, s) in slices.into_iter().enumerate() {
                flat[self.plan.range(g)].copy_from_slice(s.expect("complete").as_slice());
            }
            view
        };
        let grad = self.source.compute(&view).ok();
        for (g, out) in out_by_group.iter_mut().enumerate() {
            let slice = match &grad {
                Some(full) if shards == 1 => full.clone(),
                Some(full) => full
                    .slice(self.plan.range(g))
                    .expect("plan ranges are in bounds"),
                // Failed forward/backward: a sentinel the machine swallows.
                None => Tensor::full(&[self.plan.range(g).len()], f32::NAN),
            };
            self.machines[g].gradient_ready(step, slice, out);
        }
    }
}

fn worker_thread(mut pipe: WorkerPipeline, maps: Vec<IdMap>, mut link: Link) -> NetStats {
    let shards = pipe.machines.len();
    let replicas = maps[0].replicas;
    let plane = maps[0].plane;
    let mut outs: Vec<Vec<Output>> = vec![Vec::new(); shards];
    for (machine, out) in pipe.machines.iter_mut().zip(&mut outs) {
        machine.on_start(out);
    }
    loop {
        // Drain to quiescence: resolving requests can make the machines
        // emit new ones (fast-forward), so alternate until nothing moves.
        // Incomplete slice sets stay pending across the recv below — their
        // missing groups only fill in when more frames arrive.
        loop {
            pipe.resolve(&mut outs);
            let mut inserted = false;
            for g in 0..shards {
                for (t, model) in link.drive(maps[g], &mut outs[g]) {
                    pipe.pending.entry(t).or_insert_with(|| vec![None; shards])[g] = Some(model);
                    inserted = true;
                }
            }
            if !inserted {
                break;
            }
        }
        // The worker keeps draining (and discarding) frames after it halts
        // so late server broadcasts never hit a closed endpoint.
        let Some(got) = link.recv() else { break };
        // Model slices are dispatched to their shard group's machine
        // (group = sender's position in the server plane); anything else
        // is not addressed to an honest worker.
        if got.from >= plane {
            continue;
        }
        let g = got.from / replicas;
        if g >= shards {
            continue;
        }
        pipe.machines[g].on_message(maps[g].logical(got.from), &got.msg, &mut outs[g]);
    }
    link.close().1
}

/// Builds one endpoint per node on the configured interconnect. The TCP
/// mesh links only what the protocol uses: servers within one shard group
/// exchange with each other, workers talk to every server, and honest
/// workers additionally tap their gradients to Byzantine workers (the
/// omniscience channel) — honest workers never talk to each other.
fn build_endpoints(cfg: &RuntimeConfig) -> Result<Vec<Box<dyn Transport>>, GuanYuError> {
    let n = cfg.cluster.servers;
    let plane = cfg.shards.max(1) * n;
    let total = plane + cfg.cluster.workers;
    let honest_plane = plane + (cfg.cluster.workers - cfg.actual_byz_workers);
    match cfg.transport {
        TransportKind::Channel => Ok(ChannelTransport::mesh(total)
            .into_iter()
            .map(|t| Box::new(t) as Box<dyn Transport>)
            .collect()),
        TransportKind::TcpLoopback => {
            let mesh = TcpTransport::mesh(total, move |a, b| {
                let (sa, sb) = (a < plane, b < plane);
                if sa && sb {
                    a / n == b / n // same shard group exchanges models
                } else if sa || sb {
                    true // worker ↔ server
                } else {
                    // worker ↔ worker only for the omniscience taps
                    a >= honest_plane || b >= honest_plane
                }
            })
            .map_err(|e| GuanYuError::Transport(format!("tcp mesh: {e}")))?;
            Ok(mesh
                .into_iter()
                .map(|t| Box::new(t) as Box<dyn Transport>)
                .collect())
        }
    }
}

/// Runs a full cluster on OS threads until every honest server completes
/// `max_steps` updates (or the wall timeout fires).
///
/// # Errors
///
/// Returns [`GuanYuError::InvalidConfig`] for invalid configurations,
/// [`GuanYuError::WallTimeout`] when the run exceeds `wall_timeout`, and
/// [`GuanYuError::Transport`] when the interconnect cannot be built.
pub fn run_cluster(
    cfg: &RuntimeConfig,
    model_builder: impl Fn(&mut TensorRng) -> Sequential,
    train: Dataset,
) -> Result<ClusterReport, GuanYuError> {
    run_cluster_with(cfg, model_builder, train, RunHooks::default())
}

/// [`run_cluster`] with instrumentation [`RunHooks`]: an endpoint
/// decorator applied per node and live counters (the soak mode's churn
/// injection and monitor line are built on these).
///
/// # Errors
///
/// See [`run_cluster`].
pub fn run_cluster_with(
    cfg: &RuntimeConfig,
    model_builder: impl Fn(&mut TensorRng) -> Sequential,
    train: Dataset,
    hooks: RunHooks,
) -> Result<ClusterReport, GuanYuError> {
    if cfg.actual_byz_workers > 0 && cfg.shards > 1 {
        // The omniscience taps carry per-range gradient slices with no
        // group marker on the worker↔worker wire, so the attacker cannot
        // attribute them on a sharded plane.
        return Err(GuanYuError::InvalidConfig(
            "Byzantine workers are not supported on a sharded gradient plane".into(),
        ));
    }
    let train = Arc::new(train);
    let plant = Plant::new(
        cfg.machine_config(),
        cfg.batch_size,
        model_builder,
        |honest_workers| Ok(vec![train; honest_workers]),
    )?;
    let plan = ShardPlan::even(plant.dim(), cfg.shards)
        .map_err(|e| GuanYuError::InvalidConfig(format!("shard plan: {e}")))?;
    let shards = plan.shards();
    let n = cfg.cluster.servers;
    let plane = shards * n;
    let honest_servers = plant.spec.cfg.honest_servers();
    let honest_workers = plant.spec.cfg.honest_workers();
    // Every group's machines before any thread starts: a failed build
    // must not leave node threads behind.
    let rosters = plan
        .ranges()
        .map(|range| plant.roster(range))
        .collect::<Result<Vec<_>, _>>()?;

    let mut endpoints = build_endpoints(cfg)?.into_iter();
    let done = Arc::new(AtomicBool::new(false));
    // Called once per node, in wire-id order (servers first, then workers).
    let mut link = |id: usize| {
        let net = endpoints.next().expect("one endpoint per node");
        Link {
            net: match &hooks.wrap {
                Some(wrap) => wrap(id, net),
                None => net,
            },
            done: Arc::clone(&done),
            counters: Arc::clone(&hooks.counters),
            count_rounds: id == 0,
            records: Vec::new(),
        }
    };
    let maps: Vec<IdMap> = (0..shards)
        .map(|group| IdMap {
            group,
            replicas: n,
            plane,
        })
        .collect();

    let start = Instant::now();
    let mut server_handles = Vec::new();
    let mut byz_handles = Vec::new();
    // Worker `w`'s machines, one per shard group; Byzantine workers exist
    // on an unsharded plane only.
    let mut worker_machines: Vec<Vec<WorkerMachine>> =
        (0..honest_workers).map(|_| Vec::new()).collect();
    let mut byz_workers = Vec::new();
    for (g, mut roster) in rosters.into_iter().enumerate() {
        for (w, node) in roster.split_off(n).into_iter().enumerate() {
            match node {
                Node::Worker(machine) => worker_machines[w].push(machine),
                byz => byz_workers.push(byz),
            }
        }
        for (r, node) in roster.into_iter().enumerate() {
            let (map, link) = (maps[g], link(g * n + r));
            let handle = std::thread::spawn(move || node_thread(node, map, link));
            if r < honest_servers {
                server_handles.push(handle);
            } else {
                byz_handles.push(handle);
            }
        }
    }
    let mut worker_handles = Vec::new();
    for (w, (machines, source)) in worker_machines.into_iter().zip(plant.sources).enumerate() {
        let pipe = WorkerPipeline {
            machines,
            plan: plan.clone(),
            source,
            pending: HashMap::new(),
        };
        let (maps, link) = (maps.clone(), link(plane + w));
        worker_handles.push(std::thread::spawn(move || worker_thread(pipe, maps, link)));
    }
    for (b, node) in byz_workers.into_iter().enumerate() {
        let (map, link) = (maps[0], link(plane + honest_workers + b));
        byz_handles.push(std::thread::spawn(move || node_thread(node, map, link)));
    }

    // Join servers with a wall timeout (a stalled Byzantine-heavy run must
    // not hang the caller).
    let mut raw_params = Vec::with_capacity(server_handles.len());
    let mut raw_steps = Vec::with_capacity(server_handles.len());
    let mut records = Vec::new();
    let mut net = NetStats::default();
    let mut timed_out = false;
    for h in server_handles {
        loop {
            if h.is_finished() {
                let (node, recs, stats) = h.join().expect("server thread panicked");
                let Node::Server(machine) = node else {
                    unreachable!("server handles hold honest servers");
                };
                raw_params.push(machine.params().clone());
                raw_steps.push(machine.step());
                records.extend(recs);
                net.absorb(stats);
                break;
            }
            if timed_out || start.elapsed() > cfg.wall_timeout {
                // Flag every thread down, then keep draining the joins —
                // even a failed run must not leak node or I/O threads.
                timed_out = true;
                done.store(true, Ordering::Relaxed);
            }
            std::thread::sleep(POLL);
        }
    }
    done.store(true, Ordering::Relaxed);
    for h in byz_handles {
        if let Ok((_, _, stats)) = h.join() {
            net.absorb(stats);
        }
    }
    for h in worker_handles {
        if let Ok(stats) = h.join() {
            net.absorb(stats);
        }
    }
    hooks
        .counters
        .dropped_sends
        .fetch_add(net.dropped, Ordering::Relaxed);
    if timed_out {
        return Err(GuanYuError::WallTimeout(cfg.wall_timeout));
    }

    // Honest logical replica `r`'s full parameter vector is the
    // concatenation of its shard groups' slices (join order is g-major:
    // raw_params[g * honest_servers + r]).
    let mut final_params = Vec::with_capacity(honest_servers);
    let mut final_steps = Vec::with_capacity(honest_servers);
    for r in 0..honest_servers {
        if shards == 1 {
            final_params.push(raw_params[r].clone());
        } else {
            let mut flat = Vec::with_capacity(plan.d());
            for g in 0..shards {
                flat.extend_from_slice(raw_params[g * honest_servers + r].as_slice());
            }
            final_params.push(Tensor::from_flat(flat));
        }
        // A logical replica's groups run in lockstep; min is the honest
        // answer if one group fell behind at shutdown.
        final_steps.push(
            (0..shards)
                .map(|g| raw_steps[g * honest_servers + r])
                .min()
                .expect("at least one shard"),
        );
    }
    let updates = cfg.max_steps * honest_servers as u64;
    Ok(ClusterReport {
        final_params,
        final_steps,
        updates,
        wall_secs: start.elapsed().as_secs_f64(),
        trace: node::assemble_trace(&records),
        dropped_sends: net.dropped,
        link_failures: net.link_failures,
        pool: net.pool,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use data::{synthetic_cifar, SyntheticConfig};
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
    fn honest_cluster_completes() {
        let cfg = RuntimeConfig {
            max_steps: 3,
            ..RuntimeConfig::default_for_tests()
        };
        let report = run_cluster(&cfg, builder, train_data()).unwrap();
        assert_eq!(report.final_params.len(), 6);
        assert!(report.wall_secs > 0.0);
        assert_eq!(report.trace.len(), 3, "one digest per completed round");
    }

    #[test]
    fn servers_agree_after_run() {
        let cfg = RuntimeConfig {
            max_steps: 4,
            ..RuntimeConfig::default_for_tests()
        };
        let report = run_cluster(&cfg, builder, train_data()).unwrap();
        let diam = aggregation::properties::diameter(&report.final_params).unwrap();
        let scale = report.final_params[0].norm().max(1.0);
        assert!(diam < scale, "server diameter {diam} vs scale {scale}");
    }

    #[test]
    fn byzantine_workers_tolerated() {
        let cfg = RuntimeConfig {
            max_steps: 3,
            actual_byz_workers: 2,
            worker_attack: Some(AttackKind::Random { scale: 100.0 }),
            ..RuntimeConfig::default_for_tests()
        };
        let report = run_cluster(&cfg, builder, train_data()).unwrap();
        assert_eq!(report.final_params.len(), 6);
        for p in &report.final_params {
            assert!(p.is_finite(), "attack must not corrupt honest servers");
        }
    }

    #[test]
    fn mute_byzantine_workers_tolerated() {
        let cfg = RuntimeConfig {
            max_steps: 2,
            actual_byz_workers: 2,
            worker_attack: Some(AttackKind::Mute),
            ..RuntimeConfig::default_for_tests()
        };
        let report = run_cluster(&cfg, builder, train_data()).unwrap();
        assert_eq!(report.final_params.len(), 6);
    }

    #[test]
    fn byzantine_servers_tolerated() {
        let cfg = RuntimeConfig {
            max_steps: 3,
            actual_byz_servers: 1,
            server_attack: Some(AttackKind::Random { scale: 100.0 }),
            ..RuntimeConfig::default_for_tests()
        };
        let report = run_cluster(&cfg, builder, train_data()).unwrap();
        assert_eq!(
            report.final_params.len(),
            5,
            "only honest replicas report parameters"
        );
        for p in &report.final_params {
            assert!(p.is_finite(), "attack must not corrupt honest servers");
        }
    }

    #[test]
    fn rejects_invalid_byzantine_counts() {
        let cfg = RuntimeConfig {
            actual_byz_workers: 5, // declared 2
            worker_attack: Some(AttackKind::Mute),
            ..RuntimeConfig::default_for_tests()
        };
        assert!(run_cluster(&cfg, builder, train_data()).is_err());
    }

    #[test]
    fn rejects_byzantine_workers_on_sharded_plane() {
        let cfg = RuntimeConfig {
            shards: 2,
            actual_byz_workers: 1,
            worker_attack: Some(AttackKind::Mute),
            ..RuntimeConfig::default_for_tests()
        };
        assert!(run_cluster(&cfg, builder, train_data()).is_err());
    }

    #[test]
    fn single_server_vanilla_shape() {
        let cfg = RuntimeConfig {
            cluster: ClusterConfig::single_server(4),
            server_gar: GarKind::Average,
            max_steps: 3,
            ..RuntimeConfig::default_for_tests()
        };
        let report = run_cluster(&cfg, builder, train_data()).unwrap();
        assert_eq!(report.final_params.len(), 1);
        assert_eq!(report.trace.len(), 3);
    }

    #[test]
    fn full_quorum_run_drops_nothing() {
        // Full quorums: every server waits for every worker and every
        // peer server, so nobody exits while traffic is still in flight.
        let cfg = RuntimeConfig {
            cluster: ClusterConfig::with_quorums(3, 0, 4, 0, 3, 4).unwrap(),
            max_steps: 3,
            ..RuntimeConfig::default_for_tests()
        };
        let report = run_cluster(&cfg, builder, train_data()).unwrap();
        assert_eq!(
            report.dropped_sends, 0,
            "clean full-quorum run must not drop sends"
        );
        assert_eq!(
            report.link_failures, 0,
            "clean full-quorum run must not sever links"
        );
        assert!(
            report.pool.fresh > 0 && report.pool.high_water > 0,
            "pool counters must surface in the report: {:?}",
            report.pool
        );
    }

    #[test]
    fn sharded_run_matches_unsharded_bit_for_bit() {
        // Full quorums + a coordinate-wise GAR: sharding must change
        // nothing observable — same trace, same final parameters.
        let base = RuntimeConfig {
            cluster: ClusterConfig::with_quorums(3, 0, 4, 0, 3, 4).unwrap(),
            server_gar: GarKind::Median,
            max_steps: 3,
            ..RuntimeConfig::default_for_tests()
        };
        let flat = run_cluster(&base, builder, train_data()).unwrap();
        let sharded_cfg = RuntimeConfig {
            shards: 2,
            ..base.clone()
        };
        let sharded = run_cluster(&sharded_cfg, builder, train_data()).unwrap();
        assert_eq!(flat.trace, sharded.trace, "traces must be identical");
        assert_eq!(
            flat.trace.fingerprint(),
            sharded.trace.fingerprint(),
            "fingerprints must be identical"
        );
        assert_eq!(flat.final_params.len(), sharded.final_params.len());
        for (a, b) in flat.final_params.iter().zip(&sharded.final_params) {
            assert_eq!(
                a.as_slice(),
                b.as_slice(),
                "merged sharded parameters must be bit-identical"
            );
        }
        assert_eq!(sharded.updates, flat.updates, "logical replica updates");
        assert_eq!(sharded.dropped_sends, 0);
        assert_eq!(sharded.link_failures, 0);
    }

    #[test]
    fn planned_mode_trace_matches_across_transports() {
        // Planned quorums make the trace a pure function of seed + config:
        // the channel and TCP planes must produce identical fingerprints.
        let base = RuntimeConfig {
            max_steps: 3,
            mode: QuorumMode::Planned,
            ..RuntimeConfig::default_for_tests()
        };
        let channel = run_cluster(&base, builder, train_data()).unwrap();
        let tcp_cfg = RuntimeConfig {
            transport: TransportKind::TcpLoopback,
            ..base.clone()
        };
        let tcp = run_cluster(&tcp_cfg, builder, train_data()).unwrap();
        assert_eq!(channel.trace.len(), 3);
        assert_eq!(
            channel.trace.fingerprint(),
            tcp.trace.fingerprint(),
            "planned-mode trace must be transport-independent"
        );
    }

    #[test]
    fn rejects_zero_shards() {
        let cfg = RuntimeConfig {
            shards: 0,
            ..RuntimeConfig::default_for_tests()
        };
        let err = run_cluster(&cfg, builder, train_data()).unwrap_err();
        assert!(err.to_string().contains("shard"), "{err}");
    }

    #[test]
    fn rejects_more_shards_than_coordinates() {
        let cfg = RuntimeConfig {
            shards: 100_000_000,
            ..RuntimeConfig::default_for_tests()
        };
        let err = run_cluster(&cfg, builder, train_data()).unwrap_err();
        assert!(err.to_string().contains("shard"), "{err}");
    }
}
