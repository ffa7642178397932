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

use canary_cluster::NodeId;
use canary_core::ReplicationStrategyKind;
use canary_experiments::{chaos, Observe, Scenario, StrategyKind};
use canary_metrics::{
    aggregate_blame, critical_path, critical_paths, span_forest, Blame, CausalError, CpStep,
    CriticalPath,
};
use canary_platform::{FnId, JobId, JobSpec, SpanId, Trace, TraceEvent, TraceKind};
use canary_sim::{SimDuration, SimTime};
use canary_workloads::WorkloadSpec;
use proptest::prelude::*;
use std::collections::BTreeMap;

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
            prop_assert_eq!(forest.span_count(), r.trace.events.len());
            // Exactly one tree per span: root_of is total over spans
            // and every root maps to itself.
            let mut roots = 0;
            for e in &r.trace.events {
                let root = forest.root_of(e.span).expect("every span has a root");
                prop_assert_eq!(forest.root_of(root), Some(root));
                roots += usize::from(root == e.span);
            }
            prop_assert_eq!(forest.tree_count(), roots);
            // Links point strictly backwards in emit order.
            for (i, e) in r.trace.events.iter().enumerate() {
                prop_assert_eq!(forest.defined(e.span), Some(i));
                for link in [e.parent, e.cause] {
                    if link.is_some() {
                        prop_assert!(forest.defined(link).expect("link resolves") < i);
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

/// The four-scan critical path the one-pass fold replaced, kept as its
/// oracle. It reads the whole trace once per question: the arrival, the
/// submission, the job's functions, their completions, and the critical
/// function's timeline.
fn oracle_critical_path(trace: &Trace, job: JobId) -> Option<CriticalPath> {
    let events = &trace.events;
    // Arrival defines the job's root span; submission ends the queue.
    let (arrived_at, root) = events.iter().find_map(|e| match e.kind {
        TraceKind::JobArrived { job: j } if j == job => Some((e.at, e.span)),
        _ => None,
    })?;
    if root.is_none() {
        return None;
    }
    let submitted_at = events.iter().find_map(|e| match e.kind {
        TraceKind::JobSubmitted { job: j } if j == job => Some(e.at),
        _ => None,
    })?;
    // The job's functions: attempts whose parent is the job root span.
    // (fn → job is not derivable from the flat kinds alone; the causal
    // parent link carries it.)
    let mut job_fns: BTreeMap<FnId, SimTime> = BTreeMap::new();
    for e in events {
        if let TraceKind::AttemptStarted { fn_id, .. } = e.kind {
            if e.parent == root {
                job_fns.entry(fn_id).or_insert(e.at);
            }
        }
    }
    // Critical function: the job's last-completing one.
    let (critical_fn, completed_at) = events
        .iter()
        .filter_map(|e| match e.kind {
            TraceKind::FunctionCompleted { fn_id } if job_fns.contains_key(&fn_id) => {
                Some((fn_id, e.at))
            }
            _ => None,
        })
        .max_by_key(|&(f, t)| (t, f))?;

    let mut blame = Blame {
        queue: submitted_at.saturating_since(arrived_at),
        ..Default::default()
    };
    let mut steps = Vec::new();
    if blame.queue > SimDuration::ZERO {
        steps.push(CpStep {
            from: arrived_at,
            to: submitted_at,
            label: "queue".into(),
        });
    }
    let first_start = job_fns[&critical_fn];
    blame.admission = first_start.saturating_since(submitted_at);
    steps.push(CpStep {
        from: submitted_at,
        to: first_start,
        label: "admission + start".into(),
    });

    // Walk the critical function's own timeline. Attempt windows split
    // into exec + checkpoint; inter-attempt gaps into restore +
    // fault-wait. Segments are contiguous from `first_start` to
    // `completed_at`, so the components sum to the makespan exactly.
    let mut attempt_start: Option<(SimTime, u32)> = None;
    let mut ckpt_us = 0u64;
    let mut gap_start: Option<SimTime> = None;
    let mut pending_restore_us = 0u64;
    for e in events {
        match e.kind {
            TraceKind::AttemptStarted { fn_id, attempt, .. } if fn_id == critical_fn => {
                if let Some(gs) = gap_start.take() {
                    let gap_us = e.at.saturating_since(gs).as_micros();
                    let restore_us = pending_restore_us.min(gap_us);
                    blame.restore += SimDuration::from_micros(restore_us);
                    blame.fault_wait += SimDuration::from_micros(gap_us - restore_us);
                    steps.push(CpStep {
                        from: gs,
                        to: e.at,
                        label: format!(
                            "recovery gap (restore {}, wait {})",
                            SimDuration::from_micros(restore_us),
                            SimDuration::from_micros(gap_us - restore_us)
                        ),
                    });
                }
                attempt_start = Some((e.at, attempt));
                ckpt_us = 0;
                pending_restore_us = 0;
            }
            TraceKind::CheckpointWritten { fn_id, cost, .. } if fn_id == critical_fn => {
                ckpt_us += cost.as_micros();
            }
            TraceKind::RecoveryPlanned { fn_id, restore, .. } if fn_id == critical_fn => {
                pending_restore_us = restore.as_micros();
            }
            TraceKind::AttemptFailed { fn_id, .. } if fn_id == critical_fn => {
                if let Some((start, attempt)) = attempt_start.take() {
                    let span_us = e.at.saturating_since(start).as_micros();
                    let ck = ckpt_us.min(span_us);
                    blame.checkpoint += SimDuration::from_micros(ck);
                    blame.exec += SimDuration::from_micros(span_us - ck);
                    steps.push(CpStep {
                        from: start,
                        to: e.at,
                        label: format!("attempt {attempt} (failed)"),
                    });
                }
                gap_start = Some(e.at);
            }
            TraceKind::FunctionCompleted { fn_id } if fn_id == critical_fn => {
                if let Some((start, attempt)) = attempt_start.take() {
                    let span_us = e.at.saturating_since(start).as_micros();
                    let ck = ckpt_us.min(span_us);
                    blame.checkpoint += SimDuration::from_micros(ck);
                    blame.exec += SimDuration::from_micros(span_us - ck);
                    steps.push(CpStep {
                        from: start,
                        to: e.at,
                        label: format!("attempt {attempt} (completed)"),
                    });
                }
                if e.at == completed_at {
                    break;
                }
            }
            _ => {}
        }
    }

    Some(CriticalPath {
        job,
        critical_fn,
        arrived_at,
        completed_at,
        blame,
        steps,
    })
}

/// Every job's one-pass critical path equals the oracle's, field for
/// field and step for step, and the whole-run fold equals the per-job
/// results. Returns the number of paths and of recovery gaps on them.
fn assert_blame_matches_oracle(trace: &Trace, context: &str) -> (usize, usize) {
    let mut jobs: Vec<JobId> = trace
        .events
        .iter()
        .filter_map(|e| match e.kind {
            TraceKind::JobArrived { job } => Some(job),
            _ => None,
        })
        .collect();
    jobs.sort();
    jobs.dedup();
    let mut expected = Vec::new();
    for job in jobs {
        let oracle = oracle_critical_path(trace, job);
        assert_eq!(critical_path(trace, job), oracle, "{context}: {job}");
        expected.extend(oracle);
    }
    assert_eq!(critical_paths(trace), expected, "{context}: whole run");
    let gaps = expected
        .iter()
        .flat_map(|p| &p.steps)
        .filter(|s| s.label.starts_with("recovery gap"))
        .count();
    (expected.len(), gaps)
}

/// The one-pass blame equals the four-scan oracle on every curated chaos
/// scenario under every strategy at the pinned seeds, and on chameleon
/// runs whose jobs own up to 200 functions.
#[test]
fn one_pass_blame_matches_the_four_scan_oracle() {
    const CAUSAL: Observe = Observe {
        trace: true,
        causal: true,
        profile: false,
    };
    let strategies = [
        StrategyKind::Retry,
        CANARY,
        StrategyKind::CanaryMigrate,
        StrategyKind::RequestReplication(2),
        StrategyKind::ActiveStandby,
        StrategyKind::Ideal,
    ];
    let (mut paths, mut gaps) = (0, 0);
    let mut tally = |(p, g): (usize, usize)| {
        paths += p;
        gaps += g;
    };
    for name in chaos::SCENARIOS {
        let scenario = chaos::demo_scenario(chaos::named(name).expect("curated scenario"));
        for kind in strategies {
            for seed in [7, 42, 1337] {
                let r = scenario.run(kind, seed, CAUSAL);
                tally(assert_blame_matches_oracle(
                    &r.trace,
                    &format!("{name} {} seed {seed}", kind.label()),
                ));
            }
        }
    }
    for (invocations, seed) in [(1, 3), (25, 5), (200, 11)] {
        let jobs = vec![
            JobSpec::new(WorkloadSpec::web_service(10), invocations),
            JobSpec::new(WorkloadSpec::web_service(10), 7),
        ];
        for kind in [StrategyKind::Retry, CANARY] {
            let r = Scenario::chameleon(0.3, jobs.clone()).run(kind, seed, CAUSAL);
            tally(assert_blame_matches_oracle(
                &r.trace,
                &format!("chameleon {invocations} {} seed {seed}", kind.label()),
            ));
        }
    }
    assert!(
        paths > 150 && gaps > 0,
        "{paths} paths, {gaps} recovery gaps"
    );
}

fn event(span: u64, parent: u64, cause: u64) -> TraceEvent {
    let mut e = TraceEvent::new(SimTime::ZERO, TraceKind::NodeFailed { node: NodeId(0) });
    e.span = SpanId(span);
    e.parent = SpanId(parent);
    e.cause = SpanId(cause);
    e
}

/// The forest names the first offending event, and within one event
/// the first fault in the order: links without a span, a repeated span,
/// `parent`, `cause`.
#[test]
fn forest_errors_keep_their_precedence() {
    let forest = |events: Vec<TraceEvent>| span_forest(&Trace { events });
    // A repeated span that also carries a dangling link is a duplicate.
    assert_eq!(
        forest(vec![event(1, 0, 0), event(1, 9, 9)]).unwrap_err(),
        CausalError::DuplicateSpan {
            span: SpanId(1),
            event_index: 1,
        }
    );
    // Both links dangling: the parent is named.
    assert_eq!(
        forest(vec![event(1, 0, 0), event(2, 8, 9)]).unwrap_err(),
        CausalError::UnresolvedLink {
            event_index: 1,
            field: "parent",
            target: SpanId(8),
        }
    );
    assert_eq!(
        forest(vec![event(1, 0, 0), event(2, 1, 9)]).unwrap_err(),
        CausalError::UnresolvedLink {
            event_index: 1,
            field: "cause",
            target: SpanId(9),
        }
    );
    // Links without a span outrank everything on their event, and the
    // earlier event's fault outranks a later one's.
    assert_eq!(
        forest(vec![event(1, 0, 0), event(0, 7, 0), event(1, 0, 0)]).unwrap_err(),
        CausalError::LinkWithoutSpan { event_index: 1 }
    );
    // A link must name an earlier event: a span defined later, or the
    // event's own span, does not resolve.
    for (parent, cause) in [(2, 0), (0, 2), (1, 0)] {
        let err = forest(vec![event(1, parent, cause), event(2, 0, 0)]).unwrap_err();
        assert!(
            matches!(err, CausalError::UnresolvedLink { event_index: 0, .. }),
            "{err}"
        );
    }
    // Spans out of emit order still index and root correctly.
    let f = forest(vec![
        event(5, 0, 0),
        event(3, 5, 0),
        event(4, 3, 5),
        event(9, 0, 4),
    ])
    .unwrap();
    assert_eq!((f.span_count(), f.tree_count()), (4, 2));
    assert_eq!(f.defined(SpanId(4)), Some(2));
    assert_eq!(f.root_of(SpanId(4)), Some(SpanId(5)));
    assert_eq!(f.root_of(SpanId(9)), Some(SpanId(9)));
    assert_eq!(f.root_of(SpanId(6)), None);
}
