//! The node plant: everything a driver needs *before* its first message.
//!
//! The cross-engine bit-identity contract rests on every engine starting
//! from the same state: the same `θ₀`, the same per-worker model and batch
//! streams, the same machines with the same logical ids. That state is
//! built here, once — the lockstep, event-driven and threaded drivers all
//! take their roster and their gradients from a [`Plant`] and add only a
//! clock, routing and I/O.
//!
//! * [`Plant::new`] draws `θ₀` and builds one [`GradientSource`] per honest
//!   worker. It owns the seed derivation (the RNG fork streams and the
//!   batcher seeds), so no driver can drift from the others by a constant.
//! * [`Plant::roster`] builds the machines of one shard group as [`Node`]s
//!   indexed by logical id (servers, then workers; the tail of each range
//!   Byzantine). Unsharded drivers ask for the whole coordinate range;
//!   the threaded runtime asks once per group.
//! * [`GradientSource::compute`] is the one forward/backward pass that
//!   answers [`Output::NeedGradient`].

use std::ops::Range;
use std::sync::Arc;

use data::{Batcher, Dataset};
use nn::{softmax_cross_entropy, Sequential};
use tensor::{Tensor, TensorRng};

use crate::node::{
    ByzServerMachine, ByzWorkerMachine, MachineConfig, MachineSpec, NodeMsg, Output, ServerMachine,
    WorkerMachine,
};
use crate::{GuanYuError, Result};

/// RNG fork stream of the `θ₀` draw.
const THETA0_STREAM: u64 = 0xA11;
/// RNG fork stream of honest worker 0's model; worker `w` forks `+ w`.
const WORKER_STREAM: u64 = 0xB0B;

/// One protocol role behind the interface every driver loop needs: start
/// it, feed it messages, extend its plan horizon, ask whether it is done.
#[derive(Debug)]
pub enum Node {
    /// An honest parameter server.
    Server(ServerMachine),
    /// A Byzantine parameter server.
    ByzServer(ByzServerMachine),
    /// An honest worker.
    Worker(WorkerMachine),
    /// A Byzantine worker.
    ByzWorker(ByzWorkerMachine),
}

impl Node {
    /// Starts the machine (a Byzantine worker only ever reacts).
    pub fn on_start(&mut self, out: &mut Vec<Output>) {
        match self {
            Node::Server(m) => m.on_start(out),
            Node::ByzServer(m) => m.on_start(out),
            Node::Worker(m) => m.on_start(out),
            Node::ByzWorker(_) => {}
        }
    }

    /// Feeds one inbound message.
    pub fn on_message(&mut self, from: usize, msg: &NodeMsg, out: &mut Vec<Output>) {
        match self {
            Node::Server(m) => m.on_message(from, msg, out),
            Node::ByzServer(m) => m.on_message(from, msg, out),
            Node::Worker(m) => m.on_message(from, msg, out),
            Node::ByzWorker(m) => m.on_message(from, msg, out),
        }
    }

    /// Swaps in a re-built run context (see [`ServerMachine::respec`]).
    pub fn respec(&mut self, spec: Arc<MachineSpec>) {
        match self {
            Node::Server(m) => m.respec(spec),
            Node::ByzServer(m) => m.respec(spec),
            Node::Worker(m) => m.respec(spec),
            Node::ByzWorker(m) => m.respec(spec),
        }
    }

    /// Whether the machine will never act again. Byzantine machines are
    /// purely reactive and never halt on their own.
    pub fn halted(&self) -> bool {
        match self {
            Node::Server(m) => m.halted(),
            Node::Worker(m) => m.halted(),
            Node::ByzServer(_) | Node::ByzWorker(_) => false,
        }
    }

    /// Messages an honest machine discarded to planned crash windows and
    /// partitions.
    pub fn discarded(&self) -> u64 {
        match self {
            Node::Server(m) => m.discarded(),
            Node::Worker(m) => m.discarded(),
            Node::ByzServer(_) | Node::ByzWorker(_) => 0,
        }
    }
}

/// An honest worker's training substrate: its model instance, its batch
/// stream and its data. The machine asks for a gradient
/// ([`Output::NeedGradient`]); the driver answers with [`Self::compute`].
pub struct GradientSource {
    model: Sequential,
    batcher: Batcher,
    data: Arc<Dataset>,
}

impl GradientSource {
    /// One forward/backward pass on the next mini-batch at the folded
    /// model `view`.
    ///
    /// # Errors
    ///
    /// Propagates substrate failures. Drivers that cannot surface an error
    /// answer the machine with a non-finite gradient instead, which it
    /// swallows: the step is skipped, never stalled.
    pub fn compute(&mut self, view: &Tensor) -> Result<Tensor> {
        self.model.set_param_vector(view)?;
        self.model.zero_grads();
        let (x, labels) = self.batcher.next_batch(&self.data)?;
        let logits = self.model.forward(&x, true)?;
        let (_, dlogits) = softmax_cross_entropy(&logits, &labels)?;
        self.model.backward(&dlogits)?;
        Ok(self.model.grad_vector())
    }
}

/// The shared starting state of a run. Fields are public so a driver can
/// take the plant apart once its roster is built.
pub struct Plant {
    /// The run context every machine of the roster shares.
    pub spec: Arc<MachineSpec>,
    /// The initial parameter vector every honest server starts from.
    pub theta0: Tensor,
    /// Honest workers' gradient sources, in worker order.
    pub sources: Vec<GradientSource>,
    /// The master stream after the plant's forks; a driver that needs more
    /// randomness (the lockstep clock) continues it.
    pub rng: TensorRng,
}

impl Plant {
    /// Validates `cfg`, draws `θ₀` and builds the honest workers' gradient
    /// sources. `model_builder` is called once for `θ₀` and then once per
    /// honest worker, in worker order; `datasets(h)` returns the `h` honest
    /// workers' training sets, in worker order.
    ///
    /// # Errors
    ///
    /// Returns [`GuanYuError::InvalidConfig`] for an invalid deployment and
    /// propagates `datasets`' error.
    pub fn new(
        cfg: MachineConfig,
        batch_size: usize,
        model_builder: impl Fn(&mut TensorRng) -> Sequential,
        datasets: impl FnOnce(usize) -> Result<Vec<Arc<Dataset>>>,
    ) -> Result<Self> {
        let spec = MachineSpec::new(cfg)?;
        let seed = spec.cfg.seed;
        let mut rng = TensorRng::new(seed);
        let theta0 = model_builder(&mut rng.fork(THETA0_STREAM)).param_vector();
        let sources = datasets(spec.cfg.honest_workers())?
            .into_iter()
            .enumerate()
            .map(|(w, data)| GradientSource {
                model: model_builder(&mut rng.fork(WORKER_STREAM + w as u64)),
                batcher: Batcher::new(data.len(), batch_size, seed ^ ((w as u64) << 17)),
                data,
            })
            .collect();
        Ok(Plant {
            spec,
            theta0,
            sources,
            rng,
        })
    }

    /// Model dimension `d`.
    pub fn dim(&self) -> usize {
        self.theta0.len()
    }

    /// The machines of the shard group owning coordinates `range`, indexed
    /// by logical id: servers `0..n` then workers `n..n + n̄`, the last
    /// `actual_byz_*` of each range Byzantine. Honest servers start from
    /// `θ₀[range]` (one copy, shared by the replicas); every machine works
    /// on `range.len()` coordinates.
    ///
    /// # Errors
    ///
    /// Returns [`GuanYuError::InvalidConfig`] when the server GAR cannot be
    /// built for the cluster, and a tensor error when `range` does not fit
    /// the model.
    pub fn roster(&self, range: Range<usize>) -> Result<Vec<Node>> {
        let cfg = &self.spec.cfg;
        let spec = || Arc::clone(&self.spec);
        let dim = range.len();
        let theta = self.theta0.slice(range.clone())?;
        let mut nodes = Vec::with_capacity(cfg.cluster.servers + cfg.cluster.workers);
        for s in 0..cfg.cluster.servers {
            nodes.push(if s < cfg.honest_servers() {
                let gar = cfg.server_gar.build(cfg.cluster.krum_f()).map_err(|e| {
                    GuanYuError::InvalidConfig(format!("server GAR construction failed: {e}"))
                })?;
                Node::Server(ServerMachine::new(
                    spec(),
                    s,
                    theta.clone(),
                    range.start,
                    gar,
                ))
            } else {
                Node::ByzServer(ByzServerMachine::new(spec(), s, dim))
            });
        }
        for w in 0..cfg.cluster.workers {
            nodes.push(if w < cfg.honest_workers() {
                Node::Worker(WorkerMachine::new(spec(), cfg.cluster.servers + w, dim))
            } else {
                Node::ByzWorker(ByzWorkerMachine::new(spec(), w))
            });
        }
        Ok(nodes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ClusterConfig;
    use crate::shard::ShardPlan;
    use aggregation::GarKind;
    use data::{synthetic_cifar, SyntheticConfig};
    use nn::{models, LrSchedule};

    fn plant(seed: u64) -> Plant {
        let mut cfg = MachineConfig::honest(
            ClusterConfig::new(6, 1, 9, 2).unwrap(),
            4,
            LrSchedule::constant(0.05),
            GarKind::Median,
        );
        cfg.seed = seed;
        cfg.actual_byz_workers = 2;
        cfg.worker_attack = Some(byzantine::AttackKind::Mute);
        cfg.actual_byz_servers = 1;
        cfg.server_attack = Some(byzantine::AttackKind::Mute);
        let (train, _) = synthetic_cifar(&SyntheticConfig {
            train: 64,
            test: 0,
            side: 8,
            ..Default::default()
        })
        .unwrap();
        let train = Arc::new(train);
        Plant::new(
            cfg,
            8,
            |rng| models::small_cnn(8, 2, 10, rng),
            |h| Ok(vec![train; h]),
        )
        .unwrap()
    }

    #[test]
    fn same_config_and_seed_give_bit_equal_starting_state() {
        let (mut a, mut b) = (plant(7), plant(7));
        assert_eq!(a.theta0.as_slice(), b.theta0.as_slice());
        assert_eq!(a.sources.len(), 7, "one source per honest worker");
        let mut first_batches = Vec::new();
        for (x, y) in a.sources.iter_mut().zip(&mut b.sources) {
            let batch = x.batcher.clone().next_indices();
            assert_eq!(batch, y.batcher.clone().next_indices());
            let (gx, gy) = (x.compute(&a.theta0).unwrap(), y.compute(&b.theta0).unwrap());
            assert!(gx.is_finite());
            assert_eq!(gx.as_slice(), gy.as_slice());
            first_batches.push(batch);
        }
        first_batches.dedup();
        assert_eq!(first_batches.len(), 7, "workers draw independent batches");
        assert_ne!(plant(8).theta0.as_slice(), a.theta0.as_slice());
    }

    #[test]
    fn roster_follows_the_logical_id_convention() {
        let p = plant(7);
        let roster = p.roster(0..p.dim()).unwrap();
        let roles: Vec<u8> = roster
            .iter()
            .map(|n| match n {
                Node::Server(_) => b's',
                Node::ByzServer(_) => b'S',
                Node::Worker(_) => b'w',
                Node::ByzWorker(_) => b'W',
            })
            .collect();
        assert_eq!(roles, b"sssssSwwwwwwwWW");
    }

    #[test]
    fn shard_group_slices_concatenate_to_theta0() {
        let p = plant(7);
        let plan = ShardPlan::even(p.dim(), 4).unwrap();
        let mut flat = Vec::new();
        for range in plan.ranges() {
            let roster = p.roster(range).unwrap();
            let Node::Server(first) = &roster[0] else {
                panic!("logical id 0 is an honest server");
            };
            for node in &roster[1..5] {
                let Node::Server(replica) = node else {
                    panic!("ids below honest_servers are honest servers");
                };
                assert!(replica.params().shares_storage(first.params()));
            }
            flat.extend_from_slice(first.params().as_slice());
        }
        let Node::Server(whole) = &p.roster(0..p.dim()).unwrap()[0] else {
            panic!("logical id 0 is an honest server");
        };
        assert_eq!(flat, whole.params().as_slice());
        assert_eq!(flat, p.theta0.as_slice());
    }
}
