//! Runs the scenario matrix — every fault class of DESIGN.md §6 — on both
//! deterministic engines at paper scale, verifying determinism (each run
//! executed twice, trace fingerprints compared) and the protocol
//! invariants (honest-server agreement, progress under bounded faults).
//!
//! Prints one row per (scenario, engine) and writes the invariant reports
//! to `results/scenario_sweep.json`.
//!
//! Flags: `--seed <u64>` (default 40), `--steps <u64>` (default 36),
//! `--tiny` (keep the test-sized shape instead of the paper deployment).

use guanyu_bench::save_json;
use scenario::check::{assert_deterministic, check_invariants, InvariantReport};
use scenario::cli::{arg, flag};
use scenario::{matrix, Engine};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let seed: u64 = arg(&args, "seed", 40);
    let steps: u64 = arg(&args, "steps", 36);
    let tiny = flag(&args, "tiny");

    println!("== scenario sweep: fault-injection matrix ==");
    println!(
        "{:<24} {:<14} {:>10} {:>6} {:>12} {:>10} {:>10}",
        "scenario", "engine", "fingerpr.", "fin.", "agreement", "dropped", "sim (s)"
    );

    let mut reports: Vec<InvariantReport> = Vec::new();
    let mut failures = 0usize;
    for scn in matrix(seed) {
        let scn = if tiny { scn } else { scn.at_paper_scale(steps) };
        for engine in [Engine::Lockstep, Engine::EventDriven] {
            // assert_deterministic panics on a replay mismatch; catch it
            // so one broken combination still leaves the rest of the
            // table, the JSON artifact and the exit code intact.
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                assert_deterministic(&scn, engine)
            }));
            let run = match outcome {
                Ok(Ok(run)) => run,
                Ok(Err(e)) => {
                    println!("{:<24} {:<14} FAILED: {e}", scn.name, engine.to_string());
                    failures += 1;
                    continue;
                }
                Err(_) => {
                    println!(
                        "{:<24} {:<14} NON-DETERMINISTIC (replay mismatch)",
                        scn.name,
                        engine.to_string()
                    );
                    failures += 1;
                    continue;
                }
            };
            match check_invariants(&scn, &run) {
                Ok(report) => {
                    println!(
                        "{:<24} {:<14} {:>10x} {:>6} {:>12.4e} {:>10} {:>10.3}",
                        report.scenario,
                        report.engine,
                        report.fingerprint & 0xFFFF_FFFF,
                        report.finishers,
                        report.agreement_diameter,
                        report.messages_dropped,
                        report.sim_secs
                    );
                    reports.push(report);
                }
                Err(e) => {
                    println!("INVARIANT VIOLATION: {e}");
                    failures += 1;
                }
            }
        }
    }

    save_json("scenario_sweep", &reports);
    if failures > 0 {
        eprintln!("{failures} scenario/engine combinations failed");
        std::process::exit(1);
    }
    println!(
        "all {} scenario/engine combinations deterministic and invariant-clean",
        reports.len()
    );
}
