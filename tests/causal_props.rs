//! Property-based tests for the causal span layer: link structure,
//! blame arithmetic, and the seed-42 chaos acceptance check.
//!
//! The invariants here are the contract the causal tracer promises:
//!
//! - every event in a causal trace carries a unique span, and every
//!   `parent`/`cause` link resolves to a span defined by an *earlier*
//!   event (so the link graph is acyclic by construction);
//! - every span belongs to exactly one containment tree;
//! - per-job blame components are disjoint timeline segments, so they
//!   sum *exactly* (integer microseconds, no epsilon) to the job's
//!   measured end-to-end latency, and tie out against the engine's own
//!   [`JobOutcome`](canary_platform::JobOutcome) accounting;
//! - turning causal recording on never changes the simulated outcome.

use canary_core::ReplicationStrategyKind;
use canary_experiments::{chaos, Observe, Scenario, StrategyKind};
use canary_metrics::{aggregate_blame, critical_path, critical_paths, span_forest};
use canary_platform::{JobSpec, SpanId, TraceKind};
use canary_workloads::WorkloadSpec;
use proptest::prelude::*;

const CANARY: StrategyKind = StrategyKind::Canary(ReplicationStrategyKind::Dynamic);

fn scenario(rate: f64, invocations: u32) -> Scenario {
    Scenario::chameleon(
        rate,
        vec![JobSpec::new(WorkloadSpec::web_service(10), invocations)],
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every event gets a unique span; every link resolves to an
    /// earlier event; every span lands in exactly one tree.
    #[test]
    fn links_form_a_valid_forest(
        rate in 0.0f64..0.5,
        seed in 0u64..1000,
        n in 3u32..25,
    ) {
        for kind in [StrategyKind::Retry, CANARY] {
            let r = scenario(rate, n).run(kind, seed, Observe::ALL);
            // Spans on every event (unique ids are checked by the
            // forest build below).
            prop_assert!(r.trace.events.iter().all(|e| e.span.is_some()));
            let forest = span_forest(&r.trace).expect("valid forest");
            prop_assert_eq!(forest.defined.len(), r.trace.events.len());
            // Exactly one tree per span: root_of is total over spans
            // and every root maps to itself.
            for (span, root) in &forest.root_of {
                prop_assert!(forest.defined.contains_key(span));
                prop_assert_eq!(forest.root_of[root], *root);
            }
            // Links point strictly backwards in emit order.
            for (i, e) in r.trace.events.iter().enumerate() {
                for link in [e.parent, e.cause] {
                    if link.is_some() {
                        prop_assert!(forest.defined[&link.0] < i);
                    }
                }
            }
        }
    }

    /// Blame components sum exactly to the job's measured end-to-end
    /// latency, and tie out against the engine's own accounting: the
    /// queue component equals `JobOutcome::queue_wait()`, and the job's
    /// earliest attempt launch (recovered from the causal trace) bounds
    /// `time_to_first_exec()` from below (execution begins at or after
    /// launch, never before).
    #[test]
    fn blame_ties_out_against_job_accounting(
        rate in 0.0f64..0.5,
        seed in 0u64..1000,
        n in 3u32..25,
    ) {
        let r = scenario(rate, n).run(CANARY, seed, Observe::ALL);
        let paths = critical_paths(&r.trace);
        prop_assert_eq!(paths.len(), r.jobs.len());
        for cp in &paths {
            let job = &r.jobs[cp.job.0 as usize];
            prop_assert_eq!(job.id, cp.job);
            prop_assert_eq!(cp.blame.total(), job.makespan());
            prop_assert_eq!(cp.blame.queue, job.queue_wait());
            let ttfe = job.time_to_first_exec().expect("completed job ran");
            prop_assert!(ttfe <= job.makespan());
            // fn → job comes from the causal parent link: the job's
            // root span is defined by its JobArrived event.
            let root = r.trace.events.iter().find_map(|e| match e.kind {
                TraceKind::JobArrived { job: j } if j == cp.job => Some(e.span),
                _ => None,
            }).expect("job root span");
            let first_launch = r.trace.events.iter().find_map(|e| match e.kind {
                TraceKind::AttemptStarted { .. } if e.parent == root => Some(e.at),
                _ => None,
            }).expect("job launched at least one attempt");
            prop_assert!(first_launch.saturating_since(job.submitted_at) <= ttfe);
            // Steps are contiguous and cover arrival → completion.
            let mut at = cp.arrived_at;
            for s in &cp.steps {
                prop_assert_eq!(s.from, at);
                at = s.to;
            }
            prop_assert_eq!(at, cp.completed_at);
        }
        let agg = aggregate_blame(&paths);
        let total: canary_sim::SimDuration = r.jobs.iter().map(|j| j.makespan()).sum();
        prop_assert_eq!(agg.total(), total);
    }

    /// Causal recording is observation only: the simulated outcome is
    /// identical with it on or off.
    #[test]
    fn causal_never_perturbs_the_run(
        rate in 0.0f64..0.5,
        seed in 0u64..1000,
        n in 3u32..20,
    ) {
        let s = scenario(rate, n);
        let plain = s.run(CANARY, seed, Observe::NONE);
        let instrumented = s.run(CANARY, seed, Observe::ALL);
        prop_assert_eq!(plain.finished_at, instrumented.finished_at);
        prop_assert_eq!(
            format!("{:?}", plain.jobs),
            format!("{:?}", instrumented.jobs)
        );
        prop_assert_eq!(
            format!("{:?}", plain.fns),
            format!("{:?}", instrumented.fns)
        );
        prop_assert_eq!(
            format!("{:?}", plain.counters),
            format!("{:?}", instrumented.counters)
        );
        // The profiler bills every dispatch to exactly one event kind.
        prop_assert_eq!(
            instrumented.profile.total_dispatches(),
            instrumented.counters.events_dispatched
        );
    }
}

/// The issue's acceptance check: for the canonical chaos scenario at
/// seed 42, the causal layer produces a critical path for a job that
/// lived through failures and recovered, and the blame components sum
/// exactly to that job's end-to-end latency.
#[test]
fn chaos_seed42_recovered_job_has_exact_critical_path() {
    let spec = chaos::named("mixed").expect("mixed scenario exists");
    let scenario = chaos::demo_scenario(spec);
    let r = scenario.run(CANARY, 42, Observe::ALL);
    assert!(
        r.counters.function_failures > 0,
        "seed-42 mixed chaos must inject failures"
    );
    span_forest(&r.trace).expect("chaos trace forms a valid span forest");

    let recovered: Vec<_> = r
        .jobs
        .iter()
        .filter(|j| !j.rejected)
        .filter(|j| {
            // A recovered job: one of its functions failed and the job
            // still completed.
            r.fns.iter().any(|f| f.job == j.id && f.failures > 0)
        })
        .collect();
    assert!(!recovered.is_empty(), "no job recovered from a failure");
    for job in recovered {
        let cp = critical_path(&r.trace, job.id).expect("critical path exists");
        assert_eq!(
            cp.blame.total(),
            job.makespan(),
            "blame components must sum exactly to the job's latency"
        );
        assert_eq!(cp.blame.queue, job.queue_wait());
    }

    // Cross-tree causality is present: at least one fault → failure or
    // failure → recovery cause link survived into the trace.
    assert!(
        r.trace.events.iter().any(|e| e.cause.is_some()
            && matches!(
                e.kind,
                TraceKind::AttemptFailed { .. } | TraceKind::AttemptStarted { .. }
            )),
        "expected cause links on failures/recovery attempts"
    );
}

/// With causal off, no event carries any link (the fields stay at the
/// `SpanId::NONE` sentinel and the JSONL writer omits them).
#[test]
fn causal_off_leaves_no_links() {
    let r = scenario(0.3, 10).run(CANARY, 7, Observe::TRACE);
    assert!(r
        .trace
        .events
        .iter()
        .all(|e| e.span == SpanId::NONE && e.parent == SpanId::NONE && e.cause == SpanId::NONE));
    assert!(!canary_experiments::trace_to_jsonl(&r.trace).contains("\"span\""));
}
