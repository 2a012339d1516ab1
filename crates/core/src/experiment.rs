//! High-level experiment harness: one call per curve of the paper's
//! figures.
//!
//! [`run`] builds the dataset, the model and the right
//! [`crate::lockstep::LockstepTrainer`] for the requested [`SystemKind`],
//! runs it and returns the [`RunResult`] the figure binaries print. The
//! five curves of Fig. 3 are five calls; Fig. 4 adds actual attackers.

use aggregation::GarKind;
use byzantine::AttackKind;
use data::{synthetic_cifar, Partition, SyntheticConfig};
use nn::{models, LrSchedule, Sequential};
use tensor::TensorRng;

use crate::config::ClusterConfig;
use crate::contraction::AlignmentRecord;
use crate::lockstep::{LockstepConfig, LockstepTrainer};
use crate::metrics::RunResult;
use crate::Result;

/// The systems compared throughout the paper's §5.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SystemKind {
    /// Native-runtime single-server averaging ("vanilla TF").
    VanillaTf,
    /// Same graph over our communication stack ("GuanYu (vanilla)"):
    /// quantifies the low-level-API overhead.
    VanillaGuanYu,
    /// The full Byzantine-resilient protocol.
    GuanYu,
}

impl SystemKind {
    /// The label used in the paper's legends.
    pub fn label(&self, cfg: &ExperimentConfig) -> String {
        match self {
            SystemKind::VanillaTf => "vanilla TF".to_owned(),
            SystemKind::VanillaGuanYu => "GuanYu (vanilla)".to_owned(),
            SystemKind::GuanYu => format!(
                "GuanYu (fwrk={}, fps={})",
                cfg.cluster.byz_workers, cfg.cluster.byz_servers
            ),
        }
    }
}

/// Everything one experiment needs.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Cluster shape for the GuanYu variants (vanilla runs use
    /// `cluster.workers` with a single server).
    pub cluster: ClusterConfig,
    /// Model updates to run.
    pub steps: u64,
    /// Evaluate every this many steps (0 = only at the end).
    pub eval_every: u64,
    /// Per-worker mini-batch size.
    pub batch_size: usize,
    /// Learning-rate schedule.
    pub lr: LrSchedule,
    /// Master seed.
    pub seed: u64,
    /// Synthetic dataset configuration (the CIFAR substitute).
    pub data: SyntheticConfig,
    /// Feature maps of the scaled-down CNN (see `nn::models::small_cnn`).
    pub model_filters: usize,
    /// Actually-Byzantine workers (0 in Fig. 3, >0 in Fig. 4).
    pub actual_byz_workers: usize,
    /// Their attack.
    pub worker_attack: Option<AttackKind>,
    /// Actually-Byzantine servers.
    pub actual_byz_servers: usize,
    /// Their attack.
    pub server_attack: Option<AttackKind>,
    /// Override the server-side GAR (None = Multi-Krum), for the GAR
    /// ablation.
    pub server_gar: Option<GarKind>,
    /// Disable the inter-server model exchange (ablation).
    pub disable_exchange: bool,
    /// How the training data is spread across workers (the paper assumes
    /// [`Partition::Iid`]; see `repro noniid` for the stress test).
    pub partition: Partition,
}

impl ExperimentConfig {
    /// A minutes-scale configuration mirroring the paper's deployment
    /// shape: 6 servers (1 declared Byzantine), 18 workers (5 declared),
    /// 8×8 synthetic CIFAR, a small CNN.
    pub fn paper_shaped(seed: u64) -> Self {
        ExperimentConfig {
            cluster: ClusterConfig::paper_deployment(),
            steps: 400,
            eval_every: 20,
            batch_size: 32,
            lr: LrSchedule::constant(0.05),
            seed,
            data: SyntheticConfig {
                train: 2048,
                test: 512,
                side: 8,
                noise: 0.35,
                seed,
                ..Default::default()
            },
            model_filters: 8,
            actual_byz_workers: 0,
            worker_attack: None,
            actual_byz_servers: 0,
            server_attack: None,
            server_gar: None,
            disable_exchange: false,
            partition: Partition::Iid,
        }
    }

    /// A seconds-scale configuration for tests and doc examples.
    pub fn tiny() -> Self {
        ExperimentConfig {
            cluster: ClusterConfig::new(6, 1, 9, 2).expect("valid"),
            steps: 10,
            eval_every: 5,
            batch_size: 8,
            lr: LrSchedule::constant(0.05),
            seed: 0,
            data: SyntheticConfig {
                train: 64,
                test: 32,
                side: 8,
                ..Default::default()
            },
            model_filters: 2,
            actual_byz_workers: 0,
            worker_attack: None,
            actual_byz_servers: 0,
            server_attack: None,
            server_gar: None,
            disable_exchange: false,
            partition: Partition::Iid,
        }
    }

    fn model_builder(&self) -> impl Fn(&mut TensorRng) -> Sequential {
        let side = self.data.side;
        let filters = self.model_filters;
        let classes = self.data.classes;
        move |rng| models::small_cnn(side, filters, classes, rng)
    }
}

/// Builds the lockstep trainer for `(system, cfg)` without running it —
/// used by callers that need step-by-step control (e.g. the Table-2
/// harness).
///
/// # Errors
///
/// Propagates configuration and substrate errors.
pub fn build_trainer(system: SystemKind, cfg: &ExperimentConfig) -> Result<LockstepTrainer> {
    let (train, test) = synthetic_cifar(&cfg.data)?;
    let mut ls = match system {
        SystemKind::VanillaTf => {
            let mut c = LockstepConfig::vanilla(cfg.cluster.workers, true, cfg.seed);
            // vanilla under attack: declare the actual attackers so the
            // trainer accepts them (averaging still won't defend).
            c.cluster.byz_workers = cfg.actual_byz_workers;
            c
        }
        SystemKind::VanillaGuanYu => {
            let mut c = LockstepConfig::vanilla(cfg.cluster.workers, false, cfg.seed);
            c.cluster.byz_workers = cfg.actual_byz_workers;
            c
        }
        SystemKind::GuanYu => LockstepConfig::guanyu(cfg.cluster, cfg.seed),
    };
    ls.batch_size = cfg.batch_size;
    ls.lr = cfg.lr;
    ls.actual_byz_workers = cfg.actual_byz_workers;
    ls.worker_attack = cfg.worker_attack;
    ls.partition = cfg.partition;
    if system == SystemKind::GuanYu {
        ls.actual_byz_servers = cfg.actual_byz_servers;
        ls.server_attack = cfg.server_attack;
        if let Some(gar) = cfg.server_gar {
            ls.server_gar = gar;
        }
        if cfg.disable_exchange {
            ls.exchange_enabled = false;
        }
    }
    LockstepTrainer::new(ls, cfg.model_builder(), train, test)
}

/// Runs one system end-to-end and returns its training curve.
///
/// # Errors
///
/// Propagates configuration and substrate errors.
pub fn run(system: SystemKind, cfg: &ExperimentConfig) -> Result<RunResult> {
    let mut trainer = build_trainer(system, cfg)?;
    trainer.run(cfg.steps, cfg.eval_every, &system.label(cfg))
}

/// Runs GuanYu and returns both the curve and the Table-2 alignment
/// snapshots.
///
/// # Errors
///
/// Propagates configuration and substrate errors.
pub fn run_with_alignment(cfg: &ExperimentConfig) -> Result<(RunResult, Vec<AlignmentRecord>)> {
    let mut trainer = build_trainer(SystemKind::GuanYu, cfg)?;
    let result = trainer.run(cfg.steps, cfg.eval_every, &SystemKind::GuanYu.label(cfg))?;
    Ok((result, trainer.alignment_records().to_vec()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_configs_run_every_system() {
        let cfg = ExperimentConfig::tiny();
        for system in [
            SystemKind::VanillaTf,
            SystemKind::VanillaGuanYu,
            SystemKind::GuanYu,
        ] {
            let result = run(system, &cfg).unwrap();
            assert_eq!(result.total_steps, cfg.steps);
            assert!(!result.records.is_empty());
            assert!(result.total_secs > 0.0);
        }
    }

    #[test]
    fn labels_match_paper_legends() {
        let cfg = ExperimentConfig::tiny();
        assert_eq!(SystemKind::VanillaTf.label(&cfg), "vanilla TF");
        assert_eq!(SystemKind::VanillaGuanYu.label(&cfg), "GuanYu (vanilla)");
        assert_eq!(SystemKind::GuanYu.label(&cfg), "GuanYu (fwrk=2, fps=1)");
    }

    #[test]
    fn vanilla_tf_is_fastest_per_step() {
        let cfg = ExperimentConfig::tiny();
        let tf = run(SystemKind::VanillaTf, &cfg).unwrap();
        let gv = run(SystemKind::VanillaGuanYu, &cfg).unwrap();
        let gy = run(SystemKind::GuanYu, &cfg).unwrap();
        assert!(
            tf.total_secs < gv.total_secs,
            "native runtime must be faster"
        );
        assert!(gv.total_secs < gy.total_secs, "resilience must cost time");
    }

    #[test]
    fn alignment_harness_returns_snapshots() {
        let mut cfg = ExperimentConfig::tiny();
        cfg.steps = 45;
        let (result, alignment) = run_with_alignment(&cfg).unwrap();
        assert_eq!(result.total_steps, 45);
        assert!(!alignment.is_empty(), "alignment every 20 steps -> 2 rows");
    }

    #[test]
    fn byzantine_environment_runs() {
        let mut cfg = ExperimentConfig::tiny();
        cfg.actual_byz_workers = 2;
        cfg.worker_attack = Some(AttackKind::Random { scale: 100.0 });
        cfg.actual_byz_servers = 1;
        cfg.server_attack = Some(AttackKind::Equivocate { scale: 10.0 });
        let result = run(SystemKind::GuanYu, &cfg).unwrap();
        assert!(result.records.last().unwrap().loss.is_finite());
    }

    #[test]
    fn gar_override_applies() {
        let mut cfg = ExperimentConfig::tiny();
        cfg.server_gar = Some(GarKind::Median);
        let result = run(SystemKind::GuanYu, &cfg).unwrap();
        assert_eq!(result.total_steps, cfg.steps);
    }
}
