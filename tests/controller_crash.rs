//! Crash-restart convergence: killing the control plane at *any* point
//! of a chaos run and recovering it from the WAL must leave the run's
//! observable behavior untouched.
//!
//! The property pinned here is strong: for every crash instant swept,
//! the crashed run's trace minus the two crash markers
//! (`controller_crashed` / `controller_recovered`) is **byte-identical**
//! to the uninterrupted run's trace — prefix and suffix both — and the
//! terminal per-job / per-function outcomes are equal. Recovery costs
//! zero simulated time (the restarted controller resumes the same
//! deterministic schedule), so any divergence means metadata was lost or
//! invented across the restart.
//!
//! Crash instants are midpoints between consecutive distinct event
//! timestamps, so the injected fault can never tie with (and reorder
//! against) a regular event. `wal_study --quick` runs the denser
//! every-Nth-prefix sweep in CI; this test keeps a representative sweep
//! plus a proptest over arbitrary crash points fast enough for tier-1.

use canary_cluster::ControllerCrashSpec;
use canary_core::ReplicationStrategyKind;
use canary_experiments::{chaos, trace_to_jsonl, Observe, StrategyKind};
use canary_platform::{RunResult, TraceKind};
use proptest::prelude::*;
use std::sync::OnceLock;

const CANARY: StrategyKind = StrategyKind::Canary(ReplicationStrategyKind::Dynamic);
const SEEDS: [u64; 3] = [7, 42, 1337];

/// The uninterrupted mixed-chaos baseline for each pinned seed, computed
/// once per process (each crashed run is compared against it).
fn baseline(seed: u64) -> &'static (RunResult, String) {
    static BASELINES: [OnceLock<(RunResult, String)>; 3] =
        [OnceLock::new(), OnceLock::new(), OnceLock::new()];
    let slot = SEEDS.iter().position(|s| *s == seed).expect("pinned seed");
    BASELINES[slot].get_or_init(|| {
        let r = chaos::demo_scenario(chaos::named("mixed").expect("mixed")).run(
            CANARY,
            seed,
            Observe::TRACE,
        );
        let jsonl = trace_to_jsonl(&r.trace);
        (r, jsonl)
    })
}

/// Candidate crash instants for a seed: midpoints of consecutive
/// distinct event timestamps (strictly between both, so never a tie).
fn crash_points(seed: u64) -> Vec<u64> {
    let (run, _) = baseline(seed);
    let mut times: Vec<u64> = run.trace.events.iter().map(|e| e.at.as_micros()).collect();
    times.dedup();
    times
        .windows(2)
        .filter(|w| w[1] - w[0] >= 2)
        .map(|w| w[0] + (w[1] - w[0]) / 2)
        .collect()
}

fn crashed_run(seed: u64, at_us: u64) -> RunResult {
    let mut spec = chaos::named("mixed").expect("mixed");
    spec.controller_crashes.push(ControllerCrashSpec { at_us });
    chaos::demo_scenario(spec).run(CANARY, seed, Observe::TRACE)
}

/// The convergence check: crash markers aside, the crashed run must be
/// indistinguishable from the baseline.
fn assert_converges(seed: u64, at_us: u64, crashed: &RunResult) {
    let (base, base_jsonl) = baseline(seed);
    assert_eq!(
        crashed
            .trace
            .count(|k| matches!(k, TraceKind::ControllerCrashed)),
        1,
        "seed {seed} at_us {at_us}: the crash must land inside the run"
    );
    assert_eq!(
        crashed
            .trace
            .count(|k| matches!(k, TraceKind::ControllerRecovered { .. })),
        1,
        "seed {seed} at_us {at_us}: every crash must be followed by a recovery"
    );
    let filtered: String = trace_to_jsonl(&crashed.trace)
        .lines()
        .filter(|l| {
            !l.contains("\"kind\":\"controller_crashed\"")
                && !l.contains("\"kind\":\"controller_recovered\"")
        })
        .flat_map(|l| [l, "\n"])
        .collect();
    assert!(
        filtered == *base_jsonl,
        "seed {seed} at_us {at_us}: trace diverged after the crash-restart \
         (recovery lost or invented metadata)"
    );
    assert_eq!(crashed.completed_count(), base.completed_count());
    assert_eq!(crashed.finished_at, base.finished_at);
    assert_eq!(
        format!("{:?}", crashed.jobs),
        format!("{:?}", base.jobs),
        "seed {seed} at_us {at_us}: terminal job outcomes diverged"
    );
    assert_eq!(
        format!("{:?}", crashed.fns),
        format!("{:?}", base.fns),
        "seed {seed} at_us {at_us}: terminal function outcomes diverged"
    );
    // The crash is visible only in its own accounting.
    assert_eq!(crashed.counters.controller_crashes, 1);
    assert_eq!(
        crashed.counters.chaos_events,
        base.counters.chaos_events + 1
    );
    assert_eq!(
        crashed.counters.checkpoints_written,
        base.counters.checkpoints_written
    );
    assert_eq!(crashed.counters.restores, base.counters.restores);
    assert_eq!(
        crashed.counters.function_failures,
        base.counters.function_failures
    );
    assert!(
        crashed.counters.wal_torn_tails == 1,
        "seed {seed} at_us {at_us}: the torn in-flight record must be \
         detected and discarded"
    );
}

/// Representative deterministic sweep: ~12 evenly spaced crash points
/// per pinned seed, endpoints included (crash during the very first and
/// very last event gaps).
#[test]
fn crash_at_swept_points_converges_for_pinned_seeds() {
    for seed in SEEDS {
        let points = crash_points(seed);
        assert!(
            points.len() > 50,
            "seed {seed}: a mixed run must expose a rich crash surface \
             (got {})",
            points.len()
        );
        let stride = (points.len() / 10).max(1);
        let mut swept: Vec<u64> = points.iter().copied().step_by(stride).collect();
        swept.push(*points.last().expect("nonempty"));
        for at_us in swept {
            assert_converges(seed, at_us, &crashed_run(seed, at_us));
        }
    }
}

/// Crashing twice in one run converges too: the second recovery replays
/// the log the first recovery already truncated and compacted.
#[test]
fn double_crash_converges() {
    let points = crash_points(42);
    let (a, b) = (points[points.len() / 3], points[2 * points.len() / 3]);
    let mut spec = chaos::named("mixed").expect("mixed");
    spec.controller_crashes.extend([
        ControllerCrashSpec { at_us: a },
        ControllerCrashSpec { at_us: b },
    ]);
    let crashed = chaos::demo_scenario(spec).run(CANARY, 42, Observe::TRACE);
    let (base, base_jsonl) = baseline(42);
    let filtered: String = trace_to_jsonl(&crashed.trace)
        .lines()
        .filter(|l| {
            !l.contains("\"kind\":\"controller_crashed\"")
                && !l.contains("\"kind\":\"controller_recovered\"")
        })
        .flat_map(|l| [l, "\n"])
        .collect();
    assert!(filtered == *base_jsonl, "double crash diverged");
    assert_eq!(crashed.counters.controller_crashes, 2);
    assert_eq!(crashed.counters.wal_torn_tails, 2);
    assert_eq!(crashed.completed_count(), base.completed_count());
}

/// A crash-restart is reproducible like everything else in the sim: the
/// same seed and crash instant replay byte-identical traces, crash
/// markers included.
#[test]
fn crashed_runs_are_deterministic() {
    let points = crash_points(7);
    let at_us = points[points.len() / 2];
    let a = trace_to_jsonl(&crashed_run(7, at_us).trace);
    let b = trace_to_jsonl(&crashed_run(7, at_us).trace);
    assert_eq!(a, b);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Arbitrary crash points over arbitrary pinned seeds converge. The
    /// index is drawn uniformly and mapped onto the seed's crash surface,
    /// so repeated runs keep probing new prefixes of the event schedule.
    #[test]
    fn any_crash_point_converges(seed_idx in 0usize..3, point in 0usize..usize::MAX) {
        let seed = SEEDS[seed_idx];
        let points = crash_points(seed);
        let at_us = points[point % points.len()];
        assert_converges(seed, at_us, &crashed_run(seed, at_us));
    }
}
