//! Incast regression suite for the switched-topology network model
//! (DESIGN.md §10).
//!
//! The parameter-server traffic pattern is a textbook incast: every
//! worker fires its gradient at every server at once, and every server
//! answers with a model broadcast. Over the switched fabric that burst
//! has to squeeze through finite drop-tail queues, so at high
//! oversubscription with tight queues the stragglers and losses the
//! paper's protocol must tolerate *emerge* from contention rather than
//! being scripted. These tests pin both ends of the regime:
//!
//! * congested (8:1, minimum queues): overflows and retransmissions
//!   occur, permanent drops feed the recovery fast-forward path, and the
//!   §6 invariants (honest agreement + progress) still hold;
//! * line-rate (1:1, ample queues): the fabric is inert — zero drops,
//!   zero retransmissions, and the delay-sampler's round structure is
//!   reproduced exactly.

use guanyu::faults::FaultKind;
use scenario::check::{assert_deterministic, check_invariants};
use scenario::{run_event, Engine, NetworkModel, Scenario};

/// A contended fabric: 8:1 oversubscription over minimum-size (64 KiB)
/// switch queues at grid5000 line rate.
fn congested() -> NetworkModel {
    NetworkModel::Switched {
        oversubscription: 8.0,
        queue_bytes: 64 * 1024,
        link_bw: 1.25e9,
    }
}

/// An uncontended fabric: full bisection bandwidth, queues far larger
/// than any burst the tiny cluster can produce.
fn ample(queue_bytes: usize) -> NetworkModel {
    NetworkModel::Switched {
        oversubscription: 1.0,
        queue_bytes,
        link_bw: 1.25e9,
    }
}

/// Congested regime: queue overflows happen, go-back-n recovers them,
/// and the run is deterministic with all invariants intact — the
/// emergent incast never costs agreement or progress.
#[test]
fn incast_under_oversubscription_keeps_invariants() {
    let scn = Scenario::baseline("incast_tight", 40).with_network(congested());
    let run = assert_deterministic(&scn, Engine::EventDriven).unwrap();
    let report = check_invariants(&scn, &run).unwrap();
    assert!(
        report.queue_drops > 0,
        "8:1 over 64 KiB queues must overflow (got {} drops)",
        report.queue_drops
    );
    assert!(
        report.retransmits > 0,
        "overflows must be retransmitted, not lost"
    );
    assert_eq!(
        report.messages_dropped, 0,
        "go-back-n must recover every transient overflow"
    );
    assert!(report.finishers >= report.min_finishers);
    assert!(report.agreement_diameter <= report.scale);

    // The same queues at full bisection bandwidth: thinning the core is
    // what costs — overflows grow with oversubscription, and from a clean
    // baseline they cost simulated time too.
    let line_rate = run_event(&scn.clone().with_network(NetworkModel::Switched {
        oversubscription: 1.0,
        queue_bytes: 64 * 1024,
        link_bw: 1.25e9,
    }))
    .unwrap();
    assert!(
        report.queue_drops > line_rate.queue_drops,
        "contention did not grow: {} drops at 8:1 vs {} at 1:1",
        report.queue_drops,
        line_rate.queue_drops
    );
    if line_rate.queue_drops == 0 {
        assert!(
            report.sim_secs >= line_rate.sim_secs,
            "throughput did not degrade from a clean baseline"
        );
    }
}

/// Congestion plus a server crash: the crash turns fabric drops
/// permanent (no retransmitting into a dead endpoint), which is exactly
/// what engages the recovery fast-forward path — and the survivors still
/// agree and progress.
#[test]
fn incast_with_crash_engages_recovery() {
    let scn = Scenario::baseline("incast_crash", 40)
        .with_fault(2, 5, FaultKind::CrashServers { servers: vec![1] })
        .with_network(congested());
    let run = assert_deterministic(&scn, Engine::EventDriven).unwrap();
    let report = check_invariants(&scn, &run).unwrap();
    assert!(
        report.messages_dropped > 0,
        "the crash must cost messages permanently"
    );
    assert!(
        report.queue_drops > 0,
        "the fabric must also be contending (got {} queue drops)",
        report.queue_drops
    );
    assert!(report.finishers >= report.min_finishers);
    assert!(report.agreement_diameter <= report.scale);
}

/// Line-rate regime: at 1:1 with ample queues the switched fabric
/// reproduces the delay-sampler's round structure — same number of
/// rounds, same per-round message counts, same finisher set, and not a
/// single drop, retransmission or overflow anywhere.
#[test]
fn line_rate_switched_matches_sampler_round_structure() {
    let switched = Scenario::baseline("line_rate", 40).with_network(ample(16 * 1024 * 1024));
    let sampled = switched.clone().with_network(NetworkModel::Sampled);

    let sw = run_event(&switched).unwrap();
    let sp = run_event(&sampled).unwrap();

    assert_eq!(sw.queue_drops, 0, "ample queues must never overflow");
    assert_eq!(sw.retransmits, 0);
    assert_eq!(sw.messages_dropped, 0);
    assert_eq!(sp.messages_dropped, 0);

    assert_eq!(sw.trace.len(), sp.trace.len(), "same round count");
    for (a, b) in sw.trace.rounds.iter().zip(&sp.trace.rounds) {
        assert_eq!(a.step, b.step);
        assert_eq!(
            a.messages, b.messages,
            "step {}: switched and sampled round structure diverged",
            a.step
        );
    }
    assert_eq!(sw.finishers, sp.finishers, "same servers finish");
    // Quorum *composition* may legitimately differ: the sampler draws
    // per-message jitter while the fabric computes deterministic
    // serialization delays, so message arrival order differs even though
    // every round fills completely on both.
}

/// With no contention the queue capacity is unobservable: two ample
/// sizes replay to bit-identical traces. Under contention the capacity
/// *must* still matter — but with planned quorum membership (DESIGN.md
/// §11) it shows up in the congestion counters and simulated time, never
/// in the trace, which stays bit-identical across fabrics.
#[test]
fn queue_capacity_is_inert_without_contention() {
    let base = Scenario::baseline("ample_inert", 40);
    let a = run_event(&base.clone().with_network(ample(16 * 1024 * 1024))).unwrap();
    let b = run_event(&base.clone().with_network(ample(64 * 1024 * 1024))).unwrap();
    assert_eq!(a.trace, b.trace, "ample queue size leaked into the trace");
    assert_eq!(a.fingerprint(), b.fingerprint());

    let congested = run_event(&base.with_network(congested())).unwrap();
    assert!(
        congested.queue_drops > 0,
        "the tight fabric must actually contend"
    );
    assert!(congested.retransmits > 0, "overflows must be retransmitted");
    assert_ne!(
        congested.sim_secs, a.sim_secs,
        "contention must be observable in simulated time"
    );
    assert_eq!(
        congested.fingerprint(),
        a.fingerprint(),
        "queue capacity must not leak into the planned-mode trace"
    );
}
