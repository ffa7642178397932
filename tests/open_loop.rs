//! Open-loop queueing invariants: timed arrivals against the admission
//! gate, under light load, sustained overload, and chaos.
//!
//! The invariants come from conservation of jobs. At every prefix of the
//! ordered trace log, every arrived job is in exactly one place —
//! submitted (admitted), held in the queue, rejected, or momentarily in
//! transit between a dequeue and its submit event — and by the end of
//! the run nothing is left in the queue or in transit. Admission is
//! strictly FIFO, so under sustained overload no job starves. And the
//! whole open-loop pipeline stays deterministic: the same seed replays a
//! byte-identical trace, pinned by a committed golden (with its
//! telemetry export).

use canary_cluster::{ChaosSpec, DegradeSpec, PartitionSpec, StoreOutageSpec};
use canary_core::ReplicationStrategyKind;
use canary_experiments::load::open_loop_jobs;
use canary_experiments::{telemetry_to_jsonl, trace_to_jsonl, Observe, Scenario, StrategyKind};
use canary_platform::{JobId, RunResult, Trace, TraceKind};
use golden::check_golden;

mod common;
mod golden;

const CANARY: StrategyKind = StrategyKind::Canary(ReplicationStrategyKind::Dynamic);

/// An open-loop scenario: `n` single-invocation web-service jobs offered
/// at `rate_hz` against an admission gate of `max_inflight`.
fn open_loop(rate_hz: f64, n: usize, max_inflight: u32, error_rate: f64) -> Scenario {
    let mut s = Scenario::chameleon(error_rate, open_loop_jobs(rate_hz, n, 0xA11));
    s.max_inflight = Some(max_inflight);
    s
}

/// Replay the trace and check conservation at every step: each arrival
/// is accounted for as admitted, queued, rejected, or in transit from a
/// dequeue to its (same-timestamp) submit; the balance never goes
/// negative and fully settles by the end of the run.
fn assert_conservation(trace: &Trace) {
    let (mut arrived, mut submitted, mut rejected) = (0i64, 0i64, 0i64);
    let mut queued = 0i64;
    for (i, e) in trace.events.iter().enumerate() {
        match e.kind {
            TraceKind::JobArrived { .. } => arrived += 1,
            TraceKind::JobSubmitted { .. } => submitted += 1,
            TraceKind::JobQueued { .. } => queued += 1,
            TraceKind::JobDequeued { .. } => queued -= 1,
            TraceKind::JobRejected { .. } => rejected += 1,
            _ => continue,
        }
        assert!(queued >= 0, "queue depth went negative at event {i}");
        let in_transit = arrived - submitted - queued - rejected;
        assert!(
            in_transit >= 0,
            "more jobs admitted than arrived at event {i}: \
             arrived={arrived} submitted={submitted} queued={queued} rejected={rejected}"
        );
    }
    assert_eq!(
        arrived,
        submitted + rejected,
        "run ended with jobs still queued or in transit"
    );
    assert_eq!(queued, 0, "queue must drain to empty after arrivals stop");
}

/// Admission must be strictly FIFO: jobs are submitted in arrival order,
/// so no queued job is ever overtaken (starvation-free).
fn assert_fifo(trace: &Trace) {
    let order = |pick: fn(&TraceKind) -> Option<JobId>| -> Vec<JobId> {
        trace.events.iter().filter_map(|e| pick(&e.kind)).collect()
    };
    let arrivals = order(|k| match *k {
        TraceKind::JobArrived { job } => Some(job),
        _ => None,
    });
    let submits = order(|k| match *k {
        TraceKind::JobSubmitted { job } => Some(job),
        _ => None,
    });
    let rejected: Vec<JobId> = order(|k| match *k {
        TraceKind::JobRejected { job } => Some(job),
        _ => None,
    });
    let expected: Vec<JobId> = arrivals
        .iter()
        .filter(|j| !rejected.contains(j))
        .copied()
        .collect();
    assert_eq!(
        submits, expected,
        "admission order must equal arrival order (FIFO, no overtaking)"
    );
}

#[test]
fn conservation_holds_under_light_load() {
    let r = open_loop(0.5, 20, 16, 0.15).run(CANARY, 42, Observe::TRACE);
    assert_eq!(r.completed_count(), 20);
    assert_conservation(&r.trace);
    assert_fifo(&r.trace);
    // Light load never queues: every job is admitted on arrival.
    assert_eq!(r.counters.jobs_queued, 0);
}

#[test]
fn fifo_no_starvation_under_sustained_overload() {
    // 4 jobs/s against a gate that sustains well under 2 jobs/s: the
    // queue builds for the whole run, yet every job is eventually
    // admitted, in arrival order.
    let r = open_loop(4.0, 40, 8, 0.15).run(CANARY, 42, Observe::TRACE);
    assert_eq!(r.completed_count(), 40);
    assert!(r.counters.jobs_queued > 20, "overload must queue most jobs");
    assert_conservation(&r.trace);
    assert_fifo(&r.trace);
    // Queue waits must be monotone in arrival order bursts — concretely,
    // every job completed, so the last arrival did not starve.
    let last = r.jobs.last().expect("jobs");
    assert!(!last.rejected);
    assert!(last.completed_at > last.submitted_at);
}

#[test]
fn queue_wait_accounting_is_consistent() {
    let r = open_loop(4.0, 30, 8, 0.0).run(CANARY, 7, Observe::TRACE);
    for j in &r.jobs {
        let admitted = j.admitted_at.expect("all jobs admitted");
        assert!(admitted >= j.submitted_at, "admission after arrival");
        let first_exec = j.first_exec_at.expect("all jobs ran");
        assert!(first_exec >= admitted, "execution after admission");
        assert!(j.completed_at >= first_exec);
    }
    // Under overload someone must actually wait.
    assert!(r
        .jobs
        .iter()
        .any(|j| j.queue_wait() > canary_sim::SimDuration::ZERO));
}

#[test]
fn same_seed_replays_byte_identical_traces() {
    let scenario = open_loop(3.0, 25, 8, 0.2);
    let a = scenario.run(CANARY, 1337, Observe::TRACE);
    let b = scenario.run(CANARY, 1337, Observe::TRACE);
    assert_eq!(trace_to_jsonl(&a.trace), trace_to_jsonl(&b.trace));
}

/// A chaos plan whose windows overlap the open-loop stream's lifetime.
fn chaos_spec() -> ChaosSpec {
    let mut spec = ChaosSpec {
        straggler_rate: 0.2,
        corruption_rate: 0.3,
        ..ChaosSpec::default()
    };
    spec.partitions.push(PartitionSpec {
        a: 0,
        b: 5,
        from_s: 2,
        until_s: 12,
    });
    spec.degrades.push(DegradeSpec {
        factor: 2.5,
        from_s: 5,
        until_s: 15,
    });
    spec.store_outages.push(StoreOutageSpec {
        member: 1,
        from_s: 3,
        rejoin_s: Some(10),
    });
    spec.validate().expect("valid spec");
    spec
}

#[test]
fn chaos_and_open_loop_compose_across_strategies() {
    let strategies = [
        StrategyKind::Retry,
        CANARY,
        StrategyKind::RequestReplication(2),
        StrategyKind::ActiveStandby,
    ];
    for seed in [7, 42, 1337] {
        for strategy in strategies {
            let mut s = open_loop(3.0, 20, 8, 0.2);
            s.chaos = chaos_spec();
            let r = s.run(strategy, seed, Observe::TRACE);
            assert_eq!(
                r.completed_count(),
                20,
                "{} seed {seed} lost functions",
                r.strategy
            );
            assert_conservation(&r.trace);
            assert_fifo(&r.trace);
        }
    }
}

#[test]
fn admission_queue_survives_controller_restart() {
    // Regression test: a control-plane crash-restart must not drop (or
    // reorder) jobs parked in the admission queue. Overload the gate so
    // the queue is deep, then crash the controller mid-backlog.
    let mut s = open_loop(4.0, 40, 8, 0.15);
    s.chaos
        .controller_crashes
        .push(canary_cluster::ControllerCrashSpec { at_us: 6_000_001 });
    let r = s.run(CANARY, 42, Observe::TRACE);

    // The crash must land while jobs are actually waiting: replay the
    // trace to the crash marker and check the queue depth there.
    let mut depth = 0i64;
    let mut depth_at_crash = None;
    for e in &r.trace.events {
        match e.kind {
            TraceKind::JobQueued { .. } => depth += 1,
            TraceKind::JobDequeued { .. } => depth -= 1,
            TraceKind::ControllerCrashed => depth_at_crash = Some(depth),
            _ => {}
        }
    }
    let depth_at_crash = depth_at_crash.expect("crash marker must be in the trace");
    assert!(
        depth_at_crash > 0,
        "crash must hit a non-empty admission queue (depth {depth_at_crash})"
    );

    // Every queued job is eventually admitted, in arrival order, and
    // nothing is lost or double-admitted across the restart.
    assert_eq!(r.completed_count(), 40);
    assert_conservation(&r.trace);
    assert_fifo(&r.trace);

    // And the restart is invisible to the queue: the uninterrupted run
    // admits the same jobs in the same order at the same times.
    let base = open_loop(4.0, 40, 8, 0.15).run(CANARY, 42, Observe::TRACE);
    let filtered: String = trace_to_jsonl(&r.trace)
        .lines()
        .filter(|l| {
            !l.contains("\"kind\":\"controller_crashed\"")
                && !l.contains("\"kind\":\"controller_recovered\"")
        })
        .flat_map(|l| [l, "\n"])
        .collect();
    assert!(
        filtered == trace_to_jsonl(&base.trace),
        "controller restart perturbed the admission schedule"
    );
}

fn golden_run() -> RunResult {
    // Small enough for a reviewable golden, busy enough to exercise
    // arrive → queue → dequeue → submit and a failure recovery.
    open_loop(2.5, 8, 4, 0.25).run(CANARY, 42, Observe::TRACE)
}

#[test]
fn open_loop_trace_matches_golden() {
    let r = golden_run();
    assert_eq!(r.completed_count(), 8);
    common::assert_counts_fold_from_trace(&r);
    check_golden("open_loop_seed42.jsonl", trace_to_jsonl(&r.trace));
    check_golden(
        "telemetry_open_loop_seed42.txt",
        telemetry_to_jsonl(&r.telemetry),
    );
}
