//! Replays the public kernels at a run's exact shapes, after the run, to
//! price the work the seams cannot see inside a node thread: the wire
//! codec, parameter I/O, batching, the aggregation rules and the attacks.
//! Each cost is multiplied by how often the run performed the operation.

use std::hint::black_box;
use std::time::{Duration, Instant};

use aggregation::GarKind;
use byzantine::{AttackKind, AttackView};
use data::{Batcher, Dataset};
use guanyu::node::{server_attack_seed, worker_attack_seed};
use guanyu_runtime::{decode, encode_shared, BufPool, WireMsg};
use tensor::{Tensor, TensorRng};

use crate::workloads::{Plan, Workload};

/// Keeps each replay long enough to read the clock reliably.
const MIN_REPLAY: Duration = Duration::from_millis(20);

/// Mean milliseconds of one call of `op`, over at least three calls and
/// at least [`MIN_REPLAY`].
fn cost_ms(mut op: impl FnMut()) -> f64 {
    op(); // first call pays allocation and cache warm-up
    let t = Instant::now();
    let mut calls = 0u32;
    while calls < 3 || t.elapsed() < MIN_REPLAY {
        op();
        calls += 1;
    }
    t.elapsed().as_secs_f64() * 1e3 / f64::from(calls)
}

fn vectors(n: usize, d: usize, rng: &mut TensorRng) -> Vec<Tensor> {
    (0..n).map(|_| rng.normal_tensor(&[d], 0.0, 1.0)).collect()
}

/// A Byzantine role's attack as the machines build it.
#[derive(Debug, Clone, Copy)]
pub struct Forger {
    /// The attack.
    pub kind: AttackKind,
    /// Nodes running it.
    pub nodes: usize,
    /// Seed of the first of them.
    pub seed: u64,
}

/// The shapes of one run, as the kernels see them.
#[derive(Debug, Clone, Copy)]
pub struct Shapes {
    /// Coordinates per frame and per fold: `d` over the shard count.
    pub width: usize,
    /// Shard groups.
    pub groups: usize,
    /// Declared servers per group (forgeries are per receiver).
    pub servers: usize,
    /// Declared workers.
    pub workers: usize,
    /// Honest servers per group.
    pub honest_servers: usize,
    /// Honest workers.
    pub honest_workers: usize,
    /// Model quorum `q`.
    pub q: usize,
    /// Gradient quorum `q̄`.
    pub q_bar: usize,
    /// Server-side gradient rule and its `f`.
    pub server_gar: (GarKind, usize),
    /// The Byzantine workers.
    pub worker_attack: Option<Forger>,
    /// The Byzantine servers.
    pub server_attack: Option<Forger>,
    /// Mini-batch size.
    pub batch: usize,
}

impl Shapes {
    /// Shapes of `w` at model dimension `d`.
    pub fn of(w: &Workload, d: usize) -> Shapes {
        let cluster = w.cluster();
        let clean = Shapes {
            width: d,
            groups: 1,
            servers: cluster.servers,
            workers: cluster.workers,
            honest_servers: cluster.servers,
            honest_workers: cluster.workers,
            q: cluster.server_quorum,
            q_bar: cluster.worker_quorum,
            server_gar: (GarKind::MultiKrum, cluster.krum_f()),
            worker_attack: None,
            server_attack: None,
            batch: 0,
        };
        match &w.plan {
            Plan::Cluster(cfg) => Shapes {
                width: d / cfg.shards,
                groups: cfg.shards,
                server_gar: (cfg.server_gar, cluster.krum_f()),
                batch: cfg.batch_size,
                ..clean
            },
            // Byzantine nodes take the last ids of their range.
            Plan::Scenario(scn, _) => Shapes {
                honest_servers: scn.honest_servers(),
                honest_workers: scn.honest_workers(),
                worker_attack: scn.worker_attack.map(|kind| Forger {
                    kind,
                    nodes: scn.actual_byz_workers,
                    seed: worker_attack_seed(scn.seed, scn.honest_workers()),
                }),
                server_attack: scn.server_attack.map(|kind| Forger {
                    kind,
                    nodes: scn.actual_byz_servers,
                    seed: server_attack_seed(scn.seed, scn.honest_servers()),
                }),
                batch: scn.batch_size,
                ..clean
            },
        }
    }

    /// Folds per round: per group, every honest server folds the gradients
    /// and the exchanged models, and every honest worker folds the models.
    pub fn folds_per_round(&self) -> u64 {
        (self.groups * (2 * self.honest_servers + self.honest_workers)) as u64
    }

    /// Forged vectors per round: a Byzantine worker forges one gradient
    /// per server; a Byzantine server one model per worker and one
    /// exchange vector per peer.
    pub fn forgeries_per_round(&self) -> (u64, u64) {
        let by_workers = self.worker_attack.map_or(0, |a| a.nodes * self.servers);
        let by_servers = self
            .server_attack
            .map_or(0, |a| a.nodes * (self.workers + self.servers - 1));
        (by_workers as u64, by_servers as u64)
    }
}

/// Per-round cost of the replayed kernels, in milliseconds of thread time.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReplayCosts {
    /// `encode_shared`, once per send call.
    pub encode_ms: f64,
    /// `decode`, once per received frame.
    pub decode_ms: f64,
    /// `set_param_vector` + `grad_vector`, once per gradient.
    pub param_io_ms: f64,
    /// `Batcher::next_batch`, once per gradient.
    pub next_batch_ms: f64,
    /// The Multi-Krum folds (zero when the server rule is the median).
    pub multi_krum_ms: f64,
    /// The median folds: models at workers, exchanges at servers, and the
    /// gradients too when the server rule is the median.
    pub median_ms: f64,
    /// Both attacks' forgeries.
    pub forge_ms: f64,
}

impl ReplayCosts {
    /// Everything replayed that runs inside a node thread but outside the
    /// transport and layer seams. Encoding happens inside `send`, so it is
    /// already in the transport span.
    pub fn inside_node_ms(&self) -> f64 {
        self.decode_ms
            + self.param_io_ms
            + self.next_batch_ms
            + self.multi_krum_ms
            + self.median_ms
            + self.forge_ms
    }
}

/// Per-round operation counts the run itself reported.
#[derive(Debug, Clone, Copy, Default)]
pub struct OpCounts {
    /// Send calls per round (each encodes once).
    pub sends: f64,
    /// Frames received per round (each decodes once).
    pub receives: f64,
    /// Gradients computed per round.
    pub gradients: f64,
}

/// Prices the kernels at `shapes` and scales them by `counts`.
pub fn replay(w: &Workload, shapes: &Shapes, counts: OpCounts, train: &Dataset) -> ReplayCosts {
    let mut rng = TensorRng::new(w.seed() ^ 0x9E9_1A7);
    let mut costs = ReplayCosts::default();

    if counts.sends > 0.0 || counts.receives > 0.0 {
        let pool = BufPool::new();
        let msg = WireMsg::Gradient {
            step: 1,
            grad: rng.normal_tensor(&[shapes.width], 0.0, 1.0),
        };
        let frame = encode_shared(&msg, &pool);
        costs.encode_ms = counts.sends
            * cost_ms(|| {
                black_box(encode_shared(black_box(&msg), &pool));
            });
        costs.decode_ms = counts.receives
            * cost_ms(|| {
                black_box(decode(black_box(&frame)).expect("a frame this module encoded"));
            });
    }

    if counts.gradients > 0.0 {
        let mut model = w.model.build(&mut rng.fork(1));
        let theta = model.param_vector();
        costs.param_io_ms = counts.gradients
            * cost_ms(|| {
                model
                    .set_param_vector(black_box(&theta))
                    .expect("the model's own parameter vector");
                black_box(model.grad_vector());
            });
        let mut batcher = Batcher::new(train.len(), shapes.batch, w.seed());
        costs.next_batch_ms = counts.gradients
            * cost_ms(|| {
                black_box(
                    batcher
                        .next_batch(train)
                        .expect("batch of the training set"),
                );
            });
    }

    let per_group = shapes.groups as f64;
    let (gar, f) = shapes.server_gar;
    let grad_fold = {
        let rule = gar.build(f).expect("the run built this rule");
        let inputs = vectors(shapes.q_bar, shapes.width, &mut rng);
        per_group
            * shapes.honest_servers as f64
            * cost_ms(|| {
                black_box(rule.aggregate(black_box(&inputs)).expect("finite inputs"));
            })
    };
    let model_folds = {
        let rule = GarKind::Median.build(0).expect("median takes any f");
        let inputs = vectors(shapes.q, shapes.width, &mut rng);
        per_group
            * (shapes.honest_servers + shapes.honest_workers) as f64
            * cost_ms(|| {
                black_box(rule.aggregate(black_box(&inputs)).expect("finite inputs"));
            })
    };
    if gar == GarKind::Median {
        costs.median_ms = grad_fold + model_folds;
    } else {
        costs.multi_krum_ms = grad_fold;
        costs.median_ms = model_folds;
    }

    let (by_workers, by_servers) = shapes.forgeries_per_round();
    if let Some(forger) = shapes.worker_attack {
        let mut attack = forger.kind.build(forger.seed);
        let honest = vectors(shapes.honest_workers, shapes.width, &mut rng);
        costs.forge_ms += by_workers as f64
            * cost_ms(|| {
                black_box(attack.forge(&AttackView::new(&honest, 1, 0)));
            });
    }
    if let Some(forger) = shapes.server_attack {
        let mut attack = forger.kind.build(forger.seed);
        let honest = vectors(shapes.honest_servers, shapes.width, &mut rng);
        costs.forge_ms += by_servers as f64
            * cost_ms(|| {
                black_box(attack.forge(&AttackView::new(&honest, 1, 0)));
            });
    }
    costs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{spec, Workload};

    #[test]
    fn shapes_follow_the_shard_count_and_the_adversary() {
        let sharded = Workload::new(spec("tcp-sharded").unwrap(), 7, 8);
        let s = Shapes::of(&sharded, 64_970);
        assert_eq!((s.width, s.groups), (64_970 / 4, 4));
        assert_eq!(s.folds_per_round(), 4 * (2 * 3 + 6));
        assert_eq!(s.forgeries_per_round(), (0, 0));
        assert_eq!(s.server_gar.0, GarKind::Median);

        let byz = Workload::new(spec("lockstep-byz").unwrap(), 7, 8);
        let s = Shapes::of(&byz, 100);
        assert_eq!((s.honest_servers, s.honest_workers), (5, 8));
        assert_eq!(s.folds_per_round(), 2 * 5 + 8);
        // 1 worker forging for 6 servers; 1 server for 9 workers + 5 peers.
        assert_eq!(s.forgeries_per_round(), (6, 14));
    }

    #[test]
    fn cost_scales_with_the_work() {
        let mut rng = TensorRng::new(1);
        let small = rng.normal_tensor(&[1_000], 0.0, 1.0);
        let large = rng.normal_tensor(&[100_000], 0.0, 1.0);
        let sum = |t: &Tensor| {
            black_box(t.as_slice().iter().sum::<f32>());
        };
        let (a, b) = (cost_ms(|| sum(&small)), cost_ms(|| sum(&large)));
        assert!(b > a * 10.0, "100x the data took {b} ms against {a} ms");
    }
}
