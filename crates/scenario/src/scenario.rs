//! The declarative [`Scenario`] type and the standard matrix.

use byzantine::AttackKind;
use data::SyntheticConfig;
use guanyu::config::ClusterConfig;
use guanyu::faults::{FaultKind, FaultSchedule};
use serde::{Deserialize, Serialize};
use simnet::NetworkModel;

/// One scripted deployment: cluster shape, workload, adversary, and a
/// round-indexed schedule of environmental faults.
///
/// A scenario is engine-agnostic; [`crate::run_lockstep`] and
/// [`crate::run_event`] compile it to the respective engine. Indices in
/// the fault schedule follow the `guanyu::faults` convention (honest
/// server / honest worker indices).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Scenario name (manifest key).
    pub name: String,
    /// Cluster sizing and quorums (declared Byzantine bounds).
    pub cluster: ClusterConfig,
    /// Protocol steps to run.
    pub steps: u64,
    /// Master seed — everything (data, initialisation, delays, attacks)
    /// derives from it.
    pub seed: u64,
    /// Per-worker mini-batch size.
    pub batch_size: usize,
    /// Synthetic dataset configuration.
    pub data: SyntheticConfig,
    /// Feature maps of the scaled-down CNN.
    pub model_filters: usize,
    /// Actually-Byzantine workers (≤ declared).
    pub actual_byz_workers: usize,
    /// Their attack.
    pub worker_attack: Option<AttackKind>,
    /// Actually-Byzantine servers (≤ declared).
    pub actual_byz_servers: usize,
    /// Their attack.
    pub server_attack: Option<AttackKind>,
    /// The fault schedule (rounds).
    pub faults: FaultSchedule,
    /// Physical network the event engine runs over. Defaults to
    /// [`NetworkModel::Sampled`] (independent per-message delays), which
    /// is also what scenario files written before this field existed
    /// deserialize to. The lockstep engine ignores it (it has no network).
    #[serde(default)]
    pub network: NetworkModel,
}

impl Scenario {
    /// A fault-free baseline at the tiny test shape: 6 servers (1
    /// declared Byzantine), 9 workers (2 declared), 12 steps.
    pub fn baseline(name: &str, seed: u64) -> Self {
        Scenario {
            name: name.to_owned(),
            cluster: ClusterConfig::new(6, 1, 9, 2).expect("valid tiny cluster"),
            steps: 12,
            seed,
            batch_size: 8,
            data: SyntheticConfig {
                train: 64,
                test: 32,
                side: 8,
                seed,
                ..Default::default()
            },
            model_filters: 2,
            actual_byz_workers: 0,
            worker_attack: None,
            actual_byz_servers: 0,
            server_attack: None,
            faults: FaultSchedule::none(),
            network: NetworkModel::Sampled,
        }
    }

    /// Adds a fault window (builder style).
    #[must_use]
    pub fn with_fault(mut self, start: u64, end: u64, kind: FaultKind) -> Self {
        self.faults = self.faults.with(start, end, kind);
        self
    }

    /// Selects the physical network model (builder style).
    #[must_use]
    pub fn with_network(mut self, network: NetworkModel) -> Self {
        self.network = network;
        self
    }

    /// Rescales to the paper's deployment shape — 6 servers (1 declared
    /// Byzantine), 18 workers (5 declared), a larger dataset and model,
    /// `steps` rounds — stretching every fault window proportionally so
    /// the schedule covers the same fraction of the run. Node indices are
    /// untouched (the tiny matrix only names indices valid in both
    /// shapes).
    #[must_use]
    pub fn at_paper_scale(mut self, steps: u64) -> Self {
        let old_steps = self.steps.max(1);
        self.cluster = ClusterConfig::paper_deployment();
        self.batch_size = 32;
        self.data.train = 512;
        self.data.test = 128;
        self.model_filters = 4;
        // `u64::MAX` is the open ("always on") end and stays open; the rest
        // scale in u128 so a long window cannot overflow.
        let scale = |s: u64| match s {
            u64::MAX => s,
            _ => u64::try_from(u128::from(s) * u128::from(steps) / u128::from(old_steps))
                .unwrap_or(u64::MAX),
        };
        for w in &mut self.faults.windows {
            w.start = scale(w.start);
            w.end = scale(w.end).max(w.start + 1);
        }
        self.steps = steps;
        self
    }

    /// Honest server count under the *actual* attacker assignment.
    pub fn honest_servers(&self) -> usize {
        self.cluster.servers - self.actual_byz_servers
    }

    /// Honest worker count under the *actual* attacker assignment.
    pub fn honest_workers(&self) -> usize {
        self.cluster.workers - self.actual_byz_workers
    }

    /// Honest servers that a fault may permanently knock out of the
    /// event-driven run: servers named in a crash window, or stranded in
    /// a partition group that cannot self-sustain the exchange quorum —
    /// reachable servers (the group itself plus every server listed in no
    /// group, which keeps full connectivity) fewer than `server_quorum`.
    /// The lockstep engine recovers all of them (its rounds re-open every
    /// quorum); the event engine recovers them only when a full exchange
    /// quorum reaches them afterwards, so the progress invariant counts
    /// them out. Conservative: forged exchange messages topping up a
    /// quorum are not counted.
    pub fn at_risk_servers(&self) -> Vec<usize> {
        let honest = self.honest_servers();
        let mut at_risk: Vec<usize> = Vec::new();
        for w in &self.faults.windows {
            match &w.kind {
                FaultKind::CrashServers { servers } => {
                    at_risk.extend(servers.iter().copied());
                }
                FaultKind::PartitionServers { groups } => {
                    let listed: usize = groups.iter().map(Vec::len).sum();
                    let unlisted = honest.saturating_sub(listed);
                    for g in groups {
                        if g.len() + unlisted < self.cluster.server_quorum {
                            at_risk.extend(g.iter().copied());
                        }
                    }
                }
                _ => {}
            }
        }
        at_risk.sort_unstable();
        at_risk.dedup();
        at_risk
    }

    /// Lower bound on honest servers expected to complete the final step
    /// on *any* engine.
    pub fn min_finishers(&self) -> usize {
        self.honest_servers()
            .saturating_sub(self.at_risk_servers().len())
            .max(1)
    }

    /// Largest number of honest workers simultaneously down (crash or
    /// churn) at any step of the run.
    pub fn max_workers_down(&self) -> usize {
        (0..self.steps)
            .map(|t| {
                (0..self.honest_workers())
                    .filter(|&w| self.faults.worker_down(t, w))
                    .count()
            })
            .max()
            .unwrap_or(0)
    }

    /// Whether every fault window names only indices that exist under the
    /// honest-index convention. Out-of-range indices are no-ops on the
    /// lockstep engine but would alias other nodes in the event engine's
    /// `NodeId` space, so the chaos generator must never emit them.
    pub fn indices_valid(&self) -> bool {
        let servers = self.honest_servers();
        let workers = self.honest_workers();
        self.faults.windows.iter().all(|w| match &w.kind {
            FaultKind::CrashServers { servers: ss } => ss.iter().all(|&s| s < servers),
            FaultKind::PartitionServers { groups } => groups.iter().flatten().all(|&s| s < servers),
            FaultKind::CrashWorkers { workers: ws }
            | FaultKind::StragglerWorkers { workers: ws, .. } => ws.iter().all(|&w| w < workers),
            FaultKind::WorkerChurn { pool, .. } => *pool <= workers,
            _ => true,
        })
    }

    /// Whether the network model's parameters are sane for this workload:
    /// a switched fabric needs finite, positive parameters, an
    /// oversubscription ratio in `[1, 16]`, and queues of at least 64 KiB
    /// — a single protocol message (a few tens of KB at these scales)
    /// must fit in a drop-tail queue or it can never be admitted, which
    /// would deadlock progress rather than merely congest it.
    pub fn network_valid(&self) -> bool {
        match self.network {
            NetworkModel::Sampled => true,
            NetworkModel::Switched {
                oversubscription,
                queue_bytes,
                link_bw,
            } => {
                oversubscription.is_finite()
                    && (1.0..=16.0).contains(&oversubscription)
                    && queue_bytes >= 64 * 1024
                    && link_bw.is_finite()
                    && link_bw >= 1e6
            }
        }
    }

    /// Whether the scenario stays inside the paper's feasible region: the
    /// declared cluster validates, the actual adversary fits the declared
    /// bounds, and — on each plane — the environmental faults *plus* the
    /// actual adversary together fit the declared budget (`at_risk + byz ≤
    /// f` servers, `down + byz ≤ f̄` workers at every step). The two draws
    /// share one budget because quorum fillability only counts on nodes
    /// that are both up *and* honest: `q ≤ n − f` guarantees progress
    /// when at most `f` nodes are crashed-or-Byzantine combined — a mute
    /// Byzantine server eats exactly as much quorum margin as a crashed
    /// one (the boundary the first chaos run found, see the committed
    /// `crash_plus_mute_server` reproducer). Only scenarios passing this
    /// check carry the checker's invariant guarantees — the chaos
    /// generator resamples until it holds.
    pub fn within_bounds(&self) -> bool {
        self.cluster.validate().is_ok()
            && self.actual_byz_workers <= self.cluster.byz_workers
            && self.actual_byz_servers <= self.cluster.byz_servers
            && self.indices_valid()
            && self.network_valid()
            && self.at_risk_servers().len() + self.actual_byz_servers <= self.cluster.byz_servers
            && self.max_workers_down() + self.actual_byz_workers <= self.cluster.byz_workers
    }

    /// Labels of the distinct fault classes this scenario exercises.
    pub fn fault_classes(&self) -> Vec<&'static str> {
        let mut classes: Vec<&'static str> =
            self.faults.windows.iter().map(|w| w.kind.label()).collect();
        classes.sort_unstable();
        classes.dedup();
        classes
    }
}

/// The standard scenario matrix: every fault class the subsystem models,
/// one scenario each, plus a combined stress. All scenarios keep the
/// faults inside the paper's bounds (≤ f servers / ≤ f̄ workers impaired
/// at once), so liveness and safety must hold on every engine.
pub fn matrix(seed: u64) -> Vec<Scenario> {
    vec![
        // 1. Network partition with heal time: one server is cut off from
        //    the exchange plane for three rounds, then the partition heals.
        Scenario::baseline("partition_heal", seed).with_fault(
            3,
            6,
            FaultKind::PartitionServers {
                groups: vec![vec![0, 1, 2, 3, 4], vec![5]],
            },
        ),
        // 2. Network-wide delay spike: every link 20× slower plus 50 ms.
        Scenario::baseline("delay_spike", seed.wrapping_add(1)).with_fault(
            2,
            5,
            FaultKind::DelaySpike {
                factor: 20.0,
                extra_secs: 0.05,
            },
        ),
        // 3. Server crash-and-recovery: server 1 is down for three rounds,
        //    rejoins with frozen state, and the exchange median pulls it
        //    back.
        Scenario::baseline("server_crash_recovery", seed.wrapping_add(2)).with_fault(
            2,
            5,
            FaultKind::CrashServers { servers: vec![1] },
        ),
        // 4. Worker crash-and-recovery: two workers (the declared f̄) are
        //    down for four rounds.
        Scenario::baseline("worker_crash_recovery", seed.wrapping_add(3)).with_fault(
            2,
            6,
            FaultKind::CrashWorkers {
                workers: vec![0, 1],
            },
        ),
        // 5. Straggler burst: two workers pick up seconds of extra delay —
        //    they fall out of every gradient quorum but are never wrong.
        Scenario::baseline("straggler_burst", seed.wrapping_add(4)).with_fault(
            3,
            7,
            FaultKind::StragglerWorkers {
                workers: vec![0, 1],
                extra_secs: 2.0,
            },
        ),
        // 6. Attack onset/offset: gross worker forgeries switch on
        //    mid-training and off again.
        {
            let mut s = Scenario::baseline("worker_attack_onset", seed.wrapping_add(5)).with_fault(
                3,
                8,
                FaultKind::WorkerAttack,
            );
            s.actual_byz_workers = 2;
            s.worker_attack = Some(AttackKind::Random { scale: 100.0 });
            s
        },
        // 6b. Byzantine-server equivocation, windowed.
        {
            let mut s = Scenario::baseline("server_attack_window", seed.wrapping_add(6))
                .with_fault(2, 7, FaultKind::ServerAttack);
            s.actual_byz_servers = 1;
            s.server_attack = Some(AttackKind::Equivocate { scale: 20.0 });
            s
        },
        // 7. Rolling churn: one of four workers is always restarting.
        Scenario::baseline("worker_churn", seed.wrapping_add(7)).with_fault(
            2,
            10,
            FaultKind::WorkerChurn { period: 2, pool: 4 },
        ),
        // 8. Combined stress: a delay spike over a straggler burst while a
        //    windowed attack fires.
        {
            let mut s = Scenario::baseline("combined_stress", seed.wrapping_add(8))
                .with_fault(
                    2,
                    6,
                    FaultKind::DelaySpike {
                        factor: 5.0,
                        extra_secs: 0.01,
                    },
                )
                .with_fault(
                    3,
                    8,
                    FaultKind::StragglerWorkers {
                        workers: vec![2],
                        extra_secs: 1.0,
                    },
                )
                .with_fault(4, 9, FaultKind::WorkerAttack);
            s.actual_byz_workers = 2;
            s.worker_attack = Some(AttackKind::SignFlip { factor: 10.0 });
            s
        },
        // 9. Emergent congestion: no scripted faults at all — the run goes
        //    through the switched fabric at 8:1 oversubscription with
        //    minimum-size queues, so any straggling or loss comes from
        //    parameter-server incast alone (queue overflows recovered by
        //    go-back-n).
        Scenario::baseline("switched_incast", seed.wrapping_add(9)).with_network(
            NetworkModel::Switched {
                oversubscription: 8.0,
                queue_bytes: 64 * 1024,
                link_bw: 1.25e9,
            },
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_covers_the_required_fault_classes() {
        let matrix = matrix(0);
        let mut classes: Vec<&'static str> =
            matrix.iter().flat_map(|s| s.fault_classes()).collect();
        classes.sort_unstable();
        classes.dedup();
        for required in [
            "partition",
            "delay-spike",
            "crash-servers",
            "crash-workers",
            "straggler-burst",
            "worker-attack-window",
            "server-attack-window",
            "churn",
        ] {
            assert!(classes.contains(&required), "matrix missing {required}");
        }
        assert!(matrix.len() >= 6);
    }

    #[test]
    fn matrix_stays_inside_the_paper_bounds() {
        for s in matrix(3) {
            assert!(s.actual_byz_workers <= s.cluster.byz_workers, "{}", s.name);
            assert!(s.actual_byz_servers <= s.cluster.byz_servers, "{}", s.name);
            assert!(
                s.at_risk_servers().len() <= s.cluster.byz_servers,
                "{}: environmental faults must stay within the declared f",
                s.name
            );
            assert!(s.min_finishers() >= s.honest_servers() - s.cluster.byz_servers);
            assert!(s.within_bounds(), "{}: outside the feasible region", s.name);
        }
    }

    #[test]
    fn within_bounds_rejects_infeasible_schedules() {
        // Crashing every server exceeds the declared f = 1.
        let all_down = Scenario::baseline("all-down", 0).with_fault(
            2,
            5,
            FaultKind::CrashServers {
                servers: (0..6).collect(),
            },
        );
        assert!(!all_down.within_bounds());
        // Out-of-range worker index: invalid, would alias in NodeId space.
        let bad_index = Scenario::baseline("bad-index", 0).with_fault(
            1,
            3,
            FaultKind::CrashWorkers { workers: vec![40] },
        );
        assert!(!bad_index.indices_valid());
        assert!(!bad_index.within_bounds());
        // Crash + churn overlapping: 3 simultaneous downs exceed f̄ = 2.
        let stacked = Scenario::baseline("stacked", 0)
            .with_fault(
                2,
                6,
                FaultKind::CrashWorkers {
                    workers: vec![5, 6],
                },
            )
            .with_fault(2, 6, FaultKind::WorkerChurn { period: 1, pool: 3 });
        assert_eq!(stacked.max_workers_down(), 3);
        assert!(!stacked.within_bounds());
    }

    #[test]
    fn at_risk_accounts_for_crashes_and_minority_partitions() {
        let s = Scenario::baseline("x", 0)
            .with_fault(1, 3, FaultKind::CrashServers { servers: vec![2] })
            .with_fault(
                4,
                6,
                FaultKind::PartitionServers {
                    groups: vec![vec![0, 1, 3, 4], vec![5]],
                },
            );
        assert_eq!(s.at_risk_servers(), vec![2, 5]);
        assert_eq!(s.min_finishers(), 4);
    }

    #[test]
    fn at_risk_flags_every_subquorate_partition_group() {
        // A 3/3 split with q = 5: neither side (even counting unlisted
        // servers — there are none) can fill the exchange quorum, so every
        // server is at risk of stalling on the event engine. Such a
        // schedule exceeds the paper's f-bound and the matrix guard would
        // reject it.
        let s = Scenario::baseline("split", 0).with_fault(
            1,
            4,
            FaultKind::PartitionServers {
                groups: vec![vec![0, 1, 2], vec![3, 4, 5]],
            },
        );
        assert_eq!(s.at_risk_servers(), vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(s.min_finishers(), 1);
        // A quorate majority group is safe even with a minority cut off.
        let s = Scenario::baseline("maj", 0).with_fault(
            1,
            4,
            FaultKind::PartitionServers {
                groups: vec![vec![0, 1, 2, 3], vec![5]],
            },
        );
        // Group [0,1,2,3] plus unlisted server 4 = 5 = q: safe.
        assert_eq!(s.at_risk_servers(), vec![5]);
    }

    #[test]
    fn paper_scale_keeps_open_ended_windows_open() {
        // `u64::MAX` is the "always on" end; rescaling must neither
        // overflow on it nor shrink the window to one step.
        let paper = Scenario::baseline("x", 1)
            .with_fault(2, u64::MAX, FaultKind::WorkerAttack)
            .at_paper_scale(36);
        assert_eq!(paper.faults.windows[0].start, 6);
        assert_eq!(paper.faults.windows[0].end, u64::MAX);
    }

    #[test]
    fn paper_scale_stretches_windows_and_shape() {
        let tiny = Scenario::baseline("p", 0).with_fault(
            3,
            6,
            FaultKind::CrashServers { servers: vec![1] },
        );
        let paper = tiny.clone().at_paper_scale(36);
        assert_eq!(paper.cluster.workers, 18);
        assert_eq!(paper.steps, 36);
        assert_eq!(paper.faults.windows[0].start, 9);
        assert_eq!(paper.faults.windows[0].end, 18);
        // Bounds still hold after rescaling.
        assert!(paper.at_risk_servers().len() <= paper.cluster.byz_servers);
    }

    #[test]
    fn serde_roundtrip() {
        let s = &matrix(7)[0];
        let json = serde_json::to_string(s).unwrap();
        let back: Scenario = serde_json::from_str(&json).unwrap();
        assert_eq!(back.name, s.name);
        assert_eq!(back.faults, s.faults);
    }

    #[test]
    fn switched_network_roundtrips_and_defaults() {
        // A switched scenario round-trips with its network intact.
        let s = matrix(7)
            .into_iter()
            .find(|s| s.name == "switched_incast")
            .expect("matrix has a switched scenario");
        assert_ne!(s.network, NetworkModel::Sampled);
        let json = serde_json::to_string(&s).unwrap();
        let back: Scenario = serde_json::from_str(&json).unwrap();
        assert_eq!(back.network, s.network);
        // A pre-switched-mode file (no `network` key) deserializes to the
        // historical sampled model (`#[serde(default)]`).
        let legacy = {
            let mut v = serde::Serialize::serialize_value(&Scenario::baseline("old", 3));
            match &mut v {
                serde::Value::Object(pairs) => pairs.retain(|(k, _)| k != "network"),
                _ => panic!("scenario serializes to an object"),
            }
            v
        };
        let back =
            <Scenario as serde::Deserialize>::deserialize_value(&legacy).expect("legacy shape");
        assert_eq!(back.network, NetworkModel::Sampled);
        assert_eq!(back, Scenario::baseline("old", 3));
    }

    #[test]
    fn network_bounds_reject_degenerate_fabrics() {
        let with = |network| Scenario::baseline("net", 0).with_network(network);
        assert!(with(NetworkModel::Sampled).within_bounds());
        let ok = NetworkModel::Switched {
            oversubscription: 8.0,
            queue_bytes: 1 << 20,
            link_bw: 1.25e9,
        };
        assert!(with(ok).within_bounds());
        // Queues too small to admit one protocol message: deadlock risk.
        let tiny_queue = NetworkModel::Switched {
            oversubscription: 2.0,
            queue_bytes: 1024,
            link_bw: 1.25e9,
        };
        assert!(!with(tiny_queue).within_bounds());
        // Oversubscription outside [1, 16].
        for bad in [0.5, 64.0, f64::NAN] {
            let m = NetworkModel::Switched {
                oversubscription: bad,
                queue_bytes: 1 << 20,
                link_bw: 1.25e9,
            };
            assert!(!with(m).network_valid(), "oversubscription {bad}");
        }
    }
}
