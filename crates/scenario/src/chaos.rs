//! Chaos search: seeded random exploration of the fault-schedule space.
//!
//! The scenario matrix covers one hand-written schedule per fault class;
//! this module samples *arbitrary compositions* of all eight
//! [`FaultKind`]s — random windows, scopes and intensities over random
//! cluster shapes inside the paper's feasible region — and runs each
//! sample through all three engines under the full checker (determinism +
//! honest-agreement + progress + cross-engine trace identity). The shared
//! node machine and its planned quorums make this nearly free: same seed
//! ⇒ bit-identical trace on every engine, so a violation is a crisp,
//! replayable artifact rather than a flake.
//!
//! Pipeline ([`fuzz`]):
//!
//! 1. [`ChaosGen`] derives sample `i` from `fork(i)` of one ChaCha8
//!    stream, so the sampled schedule sequence is a pure function of the
//!    seed (`GUANYU_CHAOS_SEED` or `--seed`) — resampling until the
//!    candidate passes [`Scenario::within_bounds`] keeps the checker's
//!    invariant guarantees meaningful;
//! 2. [`verdict`] runs the sample twice per engine (panic-safe),
//!    differentially compares the engines' traces, and classifies the
//!    outcome ([`Violation`] or pass);
//! 3. on violation, [`crate::shrink::shrink`] reduces the schedule to a
//!    minimal reproducer that [`crate::file`] serialises for replay.

use std::panic::{catch_unwind, AssertUnwindSafe};

use byzantine::AttackKind;
use guanyu::config::ClusterConfig;
use guanyu::faults::FaultKind;
use serde::{Deserialize, Serialize};
use tensor::TensorRng;

use crate::check::{check_invariants, run_pair};
use crate::run::{Engine, ScenarioRun};
use crate::scenario::Scenario;
use crate::shrink::{shrink, ShrinkOutcome};

/// Environment variable overriding the default chaos seed (documented in
/// DESIGN.md §8).
pub const CHAOS_SEED_ENV: &str = "GUANYU_CHAOS_SEED";

/// Resolves the chaos seed: `GUANYU_CHAOS_SEED` when set and parseable,
/// else `default`.
pub fn seed_from_env(default: u64) -> u64 {
    std::env::var(CHAOS_SEED_ENV)
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(default)
}

/// How a scenario broke a contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ViolationKind {
    /// Same seed, different trace — the determinism contract is broken.
    NonDeterministic,
    /// The run completed but an invariant (agreement/progress) failed.
    Invariant,
    /// The engine returned an error on a valid configuration.
    EngineError,
    /// The engine panicked.
    Panic,
    /// Two engines produced different traces for the same scenario — the
    /// engines have drifted apart (the bug class the shared node machine
    /// exists to kill).
    CrossEngineDivergence,
}

/// One detected contract violation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Violation {
    /// Engine label (`lockstep` / `event-driven` / `threaded`, or
    /// `a≠b` for cross-engine divergence).
    pub engine: String,
    /// The broken contract.
    pub kind: ViolationKind,
    /// Human-readable description.
    pub detail: String,
}

impl Violation {
    /// Whether `other` is "the same bug" for shrinking purposes: same
    /// contract broken on the same engine. Details legitimately drift as
    /// the shrinker mutates the scenario.
    pub fn matches(&self, other: &Violation) -> bool {
        self.kind == other.kind && self.engine == other.engine
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// The chaos oracle: runs `scn` through all three engines (twice each)
/// and returns the first contract violation, or `None` when every check
/// passes. Per engine it checks determinism (same seed, same trace) and
/// the protocol invariants; across engines it checks that the three
/// planned-mode traces are bit-identical — the differential check that
/// catches engine drift. Panic-safe — an engine panic is reported as a
/// [`ViolationKind::Panic`] violation instead of unwinding into the
/// caller, so a fuzz run survives any single bad sample.
pub fn verdict(scn: &Scenario) -> Option<Violation> {
    let mut runs: Vec<(Engine, ScenarioRun)> = Vec::with_capacity(3);
    for engine in [Engine::Lockstep, Engine::EventDriven, Engine::Threaded] {
        let outcome = catch_unwind(AssertUnwindSafe(|| run_pair(scn, engine)));
        match outcome {
            Err(payload) => {
                return Some(Violation {
                    engine: engine.to_string(),
                    kind: ViolationKind::Panic,
                    detail: panic_message(payload),
                })
            }
            Ok(Err(e)) => {
                return Some(Violation {
                    engine: engine.to_string(),
                    kind: ViolationKind::EngineError,
                    detail: e.to_string(),
                })
            }
            Ok(Ok((a, b))) => {
                if a.trace != b.trace {
                    return Some(Violation {
                        engine: engine.to_string(),
                        kind: ViolationKind::NonDeterministic,
                        detail: format!(
                            "fingerprint {:#x} vs {:#x} at seed {}",
                            a.fingerprint(),
                            b.fingerprint(),
                            scn.seed
                        ),
                    });
                }
                if let Err(detail) = check_invariants(scn, &a) {
                    return Some(Violation {
                        engine: engine.to_string(),
                        kind: ViolationKind::Invariant,
                        detail,
                    });
                }
                runs.push((engine, a));
            }
        }
    }
    let (base_engine, base) = &runs[0];
    for (engine, run) in &runs[1..] {
        if run.trace != base.trace {
            return Some(Violation {
                engine: format!("{base_engine}≠{engine}"),
                kind: ViolationKind::CrossEngineDivergence,
                detail: format!(
                    "fingerprint {:#x} ({base_engine}, {} rounds) vs {:#x} ({engine}, {} rounds) \
                     at seed {}",
                    base.fingerprint(),
                    base.trace.len(),
                    run.fingerprint(),
                    run.trace.len(),
                    scn.seed
                ),
            });
        }
    }
    None
}

/// Seeded generator of random in-bounds [`Scenario`]s.
///
/// Sample `i` derives from `fork(i)` of one ChaCha8 stream, so the
/// sequence is a pure function of the seed regardless of how many draws
/// each sample consumes — the determinism the fuzz CLI advertises.
pub struct ChaosGen {
    rng: TensorRng,
    index: u64,
}

/// Attack palette the generator draws from (worker and server attacks).
const ATTACKS: [AttackKind; 6] = [
    AttackKind::Random { scale: 100.0 },
    AttackKind::SignFlip { factor: 10.0 },
    AttackKind::LittleIsEnough { z: 1.5 },
    AttackKind::Equivocate { scale: 20.0 },
    AttackKind::Mute,
    AttackKind::Reversed { factor: 4.0 },
];

impl ChaosGen {
    /// A generator over the given master seed.
    pub fn new(seed: u64) -> Self {
        ChaosGen {
            rng: TensorRng::new(seed ^ 0xC4A0_5EED),
            index: 0,
        }
    }

    /// Samples the next scenario. Candidates outside the feasible region
    /// are resampled (deterministically) a bounded number of times; the
    /// schedule degrades toward fault-free rather than ever returning an
    /// out-of-bounds scenario.
    pub fn sample(&mut self) -> Scenario {
        let index = self.index;
        self.index += 1;
        let mut rng = self.rng.fork(index);
        for _ in 0..32 {
            let scn = sample_candidate(&mut rng, index);
            if scn.within_bounds() {
                return scn;
            }
        }
        // Degenerate fallback: strip the schedule — a fault-free scenario
        // at a valid shape is always in bounds.
        let mut scn = sample_candidate(&mut rng, index);
        scn.faults = guanyu::faults::FaultSchedule::none();
        scn.actual_byz_workers = 0;
        scn.worker_attack = None;
        scn.actual_byz_servers = 0;
        scn.server_attack = None;
        debug_assert!(scn.within_bounds());
        scn
    }
}

/// One unconstrained draw from the scenario distribution (may land outside
/// the feasible region; the caller filters).
fn sample_candidate(rng: &mut TensorRng, index: u64) -> Scenario {
    // Cluster shape inside the paper's region: n ≥ 3f+3, n̄ ≥ 3f̄+3.
    let servers = 6 + rng.below(4); // 6..=9
    let byz_servers = rng.below((servers - 3) / 3 + 1);
    let workers = 9 + rng.below(4); // 9..=12
    let byz_workers = rng.below((workers - 3) / 3 + 1);
    let cluster = if rng.below(2) == 0 {
        ClusterConfig::new(servers, byz_servers, workers, byz_workers)
    } else {
        // Widen the quorums inside the legal band [2f+3, n−f].
        let sq = 2 * byz_servers + 3;
        let sq = sq + rng.below(servers - byz_servers - sq + 1);
        let wq = 2 * byz_workers + 3;
        let wq = wq + rng.below(workers - byz_workers - wq + 1);
        ClusterConfig::with_quorums(servers, byz_servers, workers, byz_workers, sq, wq)
    }
    .expect("sampled shape is inside the feasible region");

    let steps = 8 + rng.below(5) as u64; // 8..=12
    let mut scn = Scenario::baseline(&format!("chaos-{index:04}"), rng.next_u64());
    scn.cluster = cluster;
    scn.steps = steps;
    scn.batch_size = [4, 8][rng.below(2)];
    scn.data.train = 48 + 16 * rng.below(2);

    // Adversary assignment (within the declared bounds).
    if cluster.byz_workers > 0 && rng.below(10) < 4 {
        scn.actual_byz_workers = 1 + rng.below(cluster.byz_workers);
        scn.worker_attack = Some(ATTACKS[rng.below(ATTACKS.len())]);
    }
    if cluster.byz_servers > 0 && rng.below(10) < 3 {
        scn.actual_byz_servers = 1 + rng.below(cluster.byz_servers);
        scn.server_attack = Some(ATTACKS[rng.below(ATTACKS.len())]);
    }

    // Arbitrary composition of fault windows. Environmental faults and
    // the actual adversary share the declared budget on each plane (see
    // `Scenario::within_bounds`).
    let budget_servers = cluster.byz_servers.saturating_sub(scn.actual_byz_servers);
    let budget_workers = cluster.byz_workers.saturating_sub(scn.actual_byz_workers);
    for _ in 0..rng.below(5) {
        let start = rng.below(steps.max(2) as usize - 1) as u64;
        let len = 1 + rng.below((steps - start) as usize) as u64;
        let end = (start + len).min(steps);
        if let Some(kind) = sample_kind(rng, &scn, budget_servers, budget_workers) {
            scn = scn.with_fault(start, end, kind);
        }
    }

    // Physical network, drawn last so the fault-schedule stream above is
    // unchanged from pre-switched-mode seeds (same seed, same schedules).
    // ~30% of samples run over the switched fabric, composing emergent
    // congestion with whatever scripted faults were drawn.
    if rng.below(10) < 3 {
        let oversubscription = [1.0, 2.0, 4.0, 8.0][rng.below(4)];
        let queue_bytes = [128 * 1024, 256 * 1024, 512 * 1024, 1 << 20][rng.below(4)];
        scn = scn.with_network(simnet::NetworkModel::Switched {
            oversubscription,
            queue_bytes,
            link_bw: 1.25e9,
        });
    }
    scn
}

/// Draws one fault kind with scopes/intensities that *individually*
/// respect the budgets (composition is re-checked by `within_bounds`).
/// `None` when the drawn class is not applicable to the shape.
fn sample_kind(
    rng: &mut TensorRng,
    scn: &Scenario,
    budget_servers: usize,
    budget_workers: usize,
) -> Option<FaultKind> {
    let honest_servers = scn.honest_servers();
    let honest_workers = scn.honest_workers();
    match rng.below(8) {
        0 if budget_servers > 0 => {
            let k = 1 + rng.below(budget_servers);
            Some(FaultKind::CrashServers {
                servers: rng.sample_indices(honest_servers, k),
            })
        }
        1 if budget_workers > 0 => {
            let k = 1 + rng.below(budget_workers);
            Some(FaultKind::CrashWorkers {
                workers: rng.sample_indices(honest_workers, k),
            })
        }
        2 if budget_servers > 0 => {
            // Quorate majority + minority cut-off: the only partition
            // shape whose stranded side fits the f budget.
            let m = 1 + rng.below(budget_servers);
            if honest_servers.saturating_sub(m) < scn.cluster.server_quorum {
                return None;
            }
            let minority = rng.sample_indices(honest_servers, m);
            let majority: Vec<usize> = (0..honest_servers)
                .filter(|s| !minority.contains(s))
                .collect();
            Some(FaultKind::PartitionServers {
                groups: vec![majority, minority],
            })
        }
        3 => Some(FaultKind::DelaySpike {
            factor: rng.uniform(1.5, 15.0) as f64,
            extra_secs: rng.uniform(0.0, 0.05) as f64,
        }),
        4 => {
            let k = 1 + rng.below(scn.cluster.byz_workers.max(1));
            Some(FaultKind::StragglerWorkers {
                workers: rng.sample_indices(honest_workers, k.min(honest_workers)),
                extra_secs: rng.uniform(0.5, 2.0) as f64,
            })
        }
        5 if scn.worker_attack.is_some() => Some(FaultKind::WorkerAttack),
        6 if scn.server_attack.is_some() => Some(FaultKind::ServerAttack),
        7 if budget_workers > 0 => Some(FaultKind::WorkerChurn {
            period: 1 + rng.below(3) as u64,
            pool: 2 + rng.below(3.min(honest_workers.saturating_sub(1))),
        }),
        _ => None,
    }
}

/// One fuzzed sample's outcome.
#[derive(Debug, Clone, Serialize)]
pub struct FuzzOutcome {
    /// The scenario as sampled.
    pub scenario: Scenario,
    /// The violation, when one was found.
    pub violation: Option<Violation>,
    /// The shrunk minimal reproducer (present iff `violation` is).
    pub minimized: Option<Scenario>,
    /// Oracle calls the shrinker spent (0 on pass).
    pub shrink_tried: usize,
}

/// A whole fuzz run's record (serialised to `results/chaos_fuzz.json` by
/// the CLI).
#[derive(Debug, Clone, Serialize)]
pub struct FuzzReport {
    /// The master seed.
    pub seed: u64,
    /// Samples requested.
    pub samples: usize,
    /// Violations found.
    pub violations: usize,
    /// Per-sample outcomes, in sample order.
    pub outcomes: Vec<FuzzOutcome>,
}

/// Runs the full chaos pipeline: sample → verdict → shrink, invoking
/// `observer` after each sample (progress reporting). Deterministic in
/// `(seed, samples)`.
pub fn fuzz_with(
    seed: u64,
    samples: usize,
    mut observer: impl FnMut(usize, &FuzzOutcome),
) -> FuzzReport {
    let mut gen = ChaosGen::new(seed);
    let mut outcomes = Vec::with_capacity(samples);
    let mut violations = 0;
    for i in 0..samples {
        let scenario = gen.sample();
        let outcome = match verdict(&scenario) {
            None => FuzzOutcome {
                scenario,
                violation: None,
                minimized: None,
                shrink_tried: 0,
            },
            Some(v) => {
                violations += 1;
                let ShrinkOutcome {
                    scenario: minimized,
                    violation,
                    tried,
                } = shrink(&scenario, &v, &mut verdict);
                FuzzOutcome {
                    scenario,
                    violation: Some(violation),
                    minimized: Some(minimized),
                    shrink_tried: tried,
                }
            }
        };
        observer(i, &outcome);
        outcomes.push(outcome);
    }
    FuzzReport {
        seed,
        samples,
        violations,
        outcomes,
    }
}

/// [`fuzz_with`] without an observer.
pub fn fuzz(seed: u64, samples: usize) -> FuzzReport {
    fuzz_with(seed, samples, |_, _| {})
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_is_deterministic_and_in_bounds() {
        let scns: Vec<Scenario> = {
            let mut g = ChaosGen::new(7);
            (0..12).map(|_| g.sample()).collect()
        };
        let again: Vec<Scenario> = {
            let mut g = ChaosGen::new(7);
            (0..12).map(|_| g.sample()).collect()
        };
        assert_eq!(scns, again, "same seed must sample the same scenarios");
        for s in &scns {
            assert!(s.within_bounds(), "{}: out of bounds", s.name);
            assert!(s.cluster.validate().is_ok());
        }
        // A different seed explores elsewhere.
        let mut g = ChaosGen::new(8);
        let other: Vec<Scenario> = (0..12).map(|_| g.sample()).collect();
        assert_ne!(scns, other);
    }

    #[test]
    fn sampler_varies_shapes_and_fault_classes() {
        let mut g = ChaosGen::new(3);
        let scns: Vec<Scenario> = (0..40).map(|_| g.sample()).collect();
        let shapes: std::collections::BTreeSet<(usize, usize)> = scns
            .iter()
            .map(|s| (s.cluster.servers, s.cluster.workers))
            .collect();
        assert!(shapes.len() >= 4, "shape diversity: {shapes:?}");
        let classes: std::collections::BTreeSet<&'static str> =
            scns.iter().flat_map(|s| s.fault_classes()).collect();
        assert!(
            classes.len() >= 5,
            "fault-class diversity too low: {classes:?}"
        );
    }

    #[test]
    fn sampler_emits_switched_networks_in_bounds() {
        let mut g = ChaosGen::new(11);
        let scns: Vec<Scenario> = (0..40).map(|_| g.sample()).collect();
        let switched = scns
            .iter()
            .filter(|s| s.network != simnet::NetworkModel::Sampled)
            .count();
        assert!(switched > 0, "sampler never drew a switched fabric");
        assert!(switched < scns.len(), "sampler only drew switched fabrics");
        for s in &scns {
            assert!(s.network_valid(), "{}: degenerate fabric", s.name);
        }
    }

    #[test]
    fn verdict_passes_the_matrix_baseline() {
        let scn = Scenario::baseline("chaos-smoke", 21);
        assert_eq!(verdict(&scn), None);
    }

    /// The CI chaos budget: 50 samples at the default seed must come back
    /// clean (any violation is a protocol bug or a generator-bounds bug —
    /// either way a red build). Ignored by default (minutes of work);
    /// CI's `chaos` job runs it explicitly alongside the CLI fuzz.
    #[test]
    #[ignore = "fuzz budget: run explicitly (CI chaos job)"]
    fn fuzz_budget_is_clean_at_default_seed() {
        let report = fuzz(seed_from_env(40), 50);
        let bad: Vec<String> = report
            .outcomes
            .iter()
            .filter_map(|o| {
                o.violation.as_ref().map(|v| {
                    format!(
                        "{}: {:?} on {} — {}",
                        o.scenario.name, v.kind, v.engine, v.detail
                    )
                })
            })
            .collect();
        assert!(report.violations == 0, "violations:\n{}", bad.join("\n"));
    }

    #[test]
    fn verdict_flags_infeasible_schedules() {
        // Every server down past the declared f: the event engine cannot
        // recover everyone, so the progress invariant must fire — this is
        // the boundary artifact committed under tests/scenarios/.
        let scn = Scenario::baseline("all-servers-down", 5).with_fault(
            3,
            6,
            FaultKind::CrashServers {
                servers: (0..6).collect(),
            },
        );
        assert!(!scn.within_bounds());
        let v = verdict(&scn).expect("out-of-bounds schedule must violate");
        assert_eq!(v.kind, ViolationKind::Invariant);
    }
}
