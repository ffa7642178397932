//! Causal span trees and critical-path attribution.
//!
//! A trace recorded with [`canary_platform::RunConfig::causal`] carries a
//! `span` on every event plus `parent` (containment: job → attempt →
//! checkpoint) and `cause` (cross-tree trigger: fault → killed attempt →
//! recovery) links, assigned at emit time so they are exact. This module
//! turns those links into answers:
//!
//! - [`span_forest`] validates the link structure (every link resolves
//!   to an *earlier* event; every span belongs to exactly one tree) and
//!   indexes it.
//! - [`critical_path`] walks one job's timeline from arrival to its
//!   last-completing function and splits the end-to-end latency into
//!   blame components — queue, admission, exec, checkpoint, restore,
//!   fault-wait — that **sum exactly to the job's makespan** by
//!   construction (each component is a disjoint segment of the
//!   timeline).
//! - [`aggregate_blame`] and [`blame_report`] roll per-job blame up to
//!   the run: "where did this run's latency actually go?"

use canary_platform::{FnId, JobId, SpanId, Trace, TraceKind};
use canary_sim::{SimDuration, SimTime};
use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;

/// Where a job's end-to-end latency went, as disjoint timeline segments.
///
/// `queue + admission + exec + checkpoint + restore + fault_wait` equals
/// the job's makespan (arrival → last-function completion) exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Blame {
    /// Held in the admission queue (arrival → gate release).
    pub queue: SimDuration,
    /// Gate release → the critical function's first execution start
    /// (controller admission, placement, cold start).
    pub admission: SimDuration,
    /// Executing on the critical function's attempts (checkpoint writes
    /// excluded).
    pub exec: SimDuration,
    /// Writing checkpoints on the critical function's attempts.
    pub checkpoint: SimDuration,
    /// Restoring state during the critical function's recoveries.
    pub restore: SimDuration,
    /// Dead time between a failure and the recovered attempt that the
    /// restore itself does not explain (detection, replanning,
    /// placement after a fault).
    pub fault_wait: SimDuration,
}

impl Blame {
    /// Sum of all components — the job's makespan.
    pub fn total(&self) -> SimDuration {
        self.queue + self.admission + self.exec + self.checkpoint + self.restore + self.fault_wait
    }

    fn add(&mut self, other: &Blame) {
        self.queue += other.queue;
        self.admission += other.admission;
        self.exec += other.exec;
        self.checkpoint += other.checkpoint;
        self.restore += other.restore;
        self.fault_wait += other.fault_wait;
    }
}

/// One contiguous segment of a job's critical path.
#[derive(Debug, Clone)]
pub struct CpStep {
    /// Segment start.
    pub from: SimTime,
    /// Segment end.
    pub to: SimTime,
    /// What the time was spent on (e.g. `queue`, `attempt 2 exec`).
    pub label: String,
}

/// A job's critical path: the contiguous chain of segments from arrival
/// to the completion of its last-finishing function.
#[derive(Debug, Clone)]
pub struct CriticalPath {
    /// The job.
    pub job: JobId,
    /// The job's last-completing function — the one that gated the
    /// job's completion.
    pub critical_fn: FnId,
    /// Job arrival.
    pub arrived_at: SimTime,
    /// Last-function completion.
    pub completed_at: SimTime,
    /// Blame decomposition; `blame.total()` equals
    /// `completed_at - arrived_at`.
    pub blame: Blame,
    /// The segments, in time order and contiguous.
    pub steps: Vec<CpStep>,
}

/// Why a trace's causal links failed validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CausalError {
    /// Two events claimed the same span id.
    DuplicateSpan {
        /// The repeated span.
        span: SpanId,
        /// Index of the second claimant.
        event_index: usize,
    },
    /// A `parent` or `cause` link points at a span no earlier event
    /// defined.
    UnresolvedLink {
        /// Index of the linking event.
        event_index: usize,
        /// Which link field ("parent" or "cause").
        field: &'static str,
        /// The dangling target.
        target: SpanId,
    },
    /// An event carries links but no span of its own.
    LinkWithoutSpan {
        /// Index of the offending event.
        event_index: usize,
    },
}

impl fmt::Display for CausalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CausalError::DuplicateSpan { span, event_index } => {
                write!(f, "event {event_index} re-defines {span}")
            }
            CausalError::UnresolvedLink {
                event_index,
                field,
                target,
            } => write!(
                f,
                "event {event_index} {field} link targets {target}, which no earlier event defined"
            ),
            CausalError::LinkWithoutSpan { event_index } => {
                write!(f, "event {event_index} carries links but no span")
            }
        }
    }
}

impl std::error::Error for CausalError {}

/// The validated span forest of a causal trace.
#[derive(Debug, Clone, Default)]
pub struct SpanForest {
    /// Span id → index of the event that defined it.
    pub defined: BTreeMap<u64, usize>,
    /// Span id → root span of its containment tree (self for roots).
    pub root_of: BTreeMap<u64, u64>,
}

impl SpanForest {
    /// Number of distinct containment trees.
    pub fn tree_count(&self) -> usize {
        self.root_of.iter().filter(|(s, r)| s == r).count()
    }
}

/// Build and validate the span forest of a causal trace.
///
/// Checks, in one forward pass: every span id is defined at most once;
/// every `parent` and `cause` link targets a span defined by an
/// *earlier* event (so links are acyclic by construction); no event
/// carries links without a span. Events without a span (a trace
/// recorded with causal off) are skipped.
pub fn span_forest(trace: &Trace) -> Result<SpanForest, CausalError> {
    let mut forest = SpanForest::default();
    for (i, e) in trace.events.iter().enumerate() {
        if e.span.is_none() {
            if e.parent.is_some() || e.cause.is_some() {
                return Err(CausalError::LinkWithoutSpan { event_index: i });
            }
            continue;
        }
        if forest.defined.insert(e.span.0, i).is_some() {
            return Err(CausalError::DuplicateSpan {
                span: e.span,
                event_index: i,
            });
        }
        for (field, link) in [("parent", e.parent), ("cause", e.cause)] {
            if link.is_some() && !forest.defined.contains_key(&link.0) {
                return Err(CausalError::UnresolvedLink {
                    event_index: i,
                    field,
                    target: link,
                });
            }
        }
        let root = if e.parent.is_some() {
            forest.root_of[&e.parent.0]
        } else {
            e.span.0
        };
        forest.root_of.insert(e.span.0, root);
    }
    Ok(forest)
}

/// Compute one job's critical path from a causal trace.
///
/// Returns `None` when the job is absent, never completed a function,
/// or the trace carries no causal links (nothing to attribute).
pub fn critical_path(trace: &Trace, job: JobId) -> Option<CriticalPath> {
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
        ..Blame::default()
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

/// Critical paths for every job that completed, in `JobId` order.
pub fn critical_paths(trace: &Trace) -> Vec<CriticalPath> {
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
    jobs.into_iter()
        .filter_map(|j| critical_path(trace, j))
        .collect()
}

/// Sum per-job blame into run-level blame: where the run's total
/// job-latency went.
pub fn aggregate_blame(paths: &[CriticalPath]) -> Blame {
    let mut total = Blame::default();
    for p in paths {
        total.add(&p.blame);
    }
    total
}

fn blame_row(out: &mut String, label: &str, b: &Blame) {
    let _ = writeln!(
        out,
        "  {label:<12} {:>12} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}",
        b.total().to_string(),
        b.queue.to_string(),
        b.admission.to_string(),
        b.exec.to_string(),
        b.checkpoint.to_string(),
        b.restore.to_string(),
        b.fault_wait.to_string(),
    );
}

/// Render the run-level blame table: one row per completed job plus an
/// aggregate row. Needs a causal trace; renders a note otherwise.
pub fn blame_report(trace: &Trace) -> String {
    let paths = critical_paths(trace);
    let mut out = String::from("critical-path blame\n");
    if paths.is_empty() {
        out.push_str("  (no causal links in trace; record with causal observation on)\n");
        return out;
    }
    let _ = writeln!(
        out,
        "  {:<12} {:>12} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "job", "total", "queue", "admission", "exec", "checkpoint", "restore", "fault-wait"
    );
    for p in &paths {
        blame_row(&mut out, &p.job.to_string(), &p.blame);
    }
    blame_row(&mut out, "all jobs", &aggregate_blame(&paths));
    out
}

/// Render one job's critical path as a step-by-step listing.
pub fn critical_path_report(trace: &Trace, job: JobId) -> String {
    let mut out = String::new();
    let Some(cp) = critical_path(trace, job) else {
        let _ = writeln!(
            out,
            "no critical path for {job}: absent, incomplete, or trace has no causal links"
        );
        return out;
    };
    let _ = writeln!(
        out,
        "critical path of {} (gated by {}): {} end to end",
        cp.job,
        cp.critical_fn,
        cp.blame.total()
    );
    for s in &cp.steps {
        let _ = writeln!(
            out,
            "  [{}] +{:<12} {}",
            s.from,
            s.to.saturating_since(s.from).to_string(),
            s.label
        );
    }
    out.push_str("blame:\n");
    for (label, d) in [
        ("queue", cp.blame.queue),
        ("admission", cp.blame.admission),
        ("exec", cp.blame.exec),
        ("checkpoint", cp.blame.checkpoint),
        ("restore", cp.blame.restore),
        ("fault-wait", cp.blame.fault_wait),
    ] {
        let _ = writeln!(out, "  {label:<12} {d}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use canary_platform::TraceEvent;

    fn ev(us: u64, span: u64, parent: u64, cause: u64, kind: TraceKind) -> TraceEvent {
        let mut e = TraceEvent::new(SimTime::from_micros(us), kind);
        e.span = SpanId(span);
        e.parent = SpanId(parent);
        e.cause = SpanId(cause);
        e
    }

    /// A hand-built causal trace: one job, one function, one failure
    /// with a checkpointed restore, then completion.
    fn recovered_trace() -> Trace {
        use canary_cluster::{NodeId, StorageTier};
        use canary_platform::RecoveryTarget;
        let f = FnId(0);
        Trace {
            events: vec![
                ev(0, 1, 0, 0, TraceKind::JobArrived { job: JobId(0) }),
                ev(
                    2_000_000,
                    2,
                    1,
                    0,
                    TraceKind::JobSubmitted { job: JobId(0) },
                ),
                ev(
                    3_000_000,
                    3,
                    1,
                    0,
                    TraceKind::AttemptStarted {
                        fn_id: f,
                        attempt: 1,
                        node: NodeId(0),
                        warm: false,
                    },
                ),
                ev(
                    4_000_000,
                    4,
                    3,
                    0,
                    TraceKind::CheckpointWritten {
                        fn_id: f,
                        state: 0,
                        bytes: 1024,
                        tier: StorageTier::Ramdisk,
                        cost: SimDuration::from_micros(500_000),
                    },
                ),
                ev(
                    5_000_000,
                    5,
                    0,
                    0,
                    TraceKind::NodeFailed { node: NodeId(0) },
                ),
                ev(
                    5_000_000,
                    6,
                    3,
                    5,
                    TraceKind::AttemptFailed {
                        fn_id: f,
                        attempt: 1,
                        node: NodeId(0),
                    },
                ),
                ev(
                    6_000_000,
                    7,
                    1,
                    6,
                    TraceKind::RecoveryPlanned {
                        fn_id: f,
                        target: RecoveryTarget::FreshContainer,
                        detect: SimDuration::from_micros(1_000_000),
                        restore: SimDuration::from_micros(1_500_000),
                    },
                ),
                ev(
                    8_000_000,
                    8,
                    1,
                    7,
                    TraceKind::AttemptStarted {
                        fn_id: f,
                        attempt: 2,
                        node: NodeId(1),
                        warm: false,
                    },
                ),
                ev(
                    10_000_000,
                    9,
                    8,
                    0,
                    TraceKind::FunctionCompleted { fn_id: f },
                ),
            ],
        }
    }

    #[test]
    fn forest_validates_and_roots() {
        let forest = span_forest(&recovered_trace()).unwrap();
        assert_eq!(forest.defined.len(), 9);
        // Job tree rooted at span 1; the node failure is its own tree.
        assert_eq!(forest.root_of[&9], 1);
        assert_eq!(forest.root_of[&5], 5);
    }

    #[test]
    fn forest_rejects_forward_links() {
        let mut t = recovered_trace();
        t.events[1].parent = SpanId(99);
        let err = span_forest(&t).unwrap_err();
        assert!(matches!(
            err,
            CausalError::UnresolvedLink {
                field: "parent",
                ..
            }
        ));
    }

    #[test]
    fn forest_rejects_duplicate_spans() {
        let mut t = recovered_trace();
        t.events[2].span = SpanId(1);
        assert!(matches!(
            span_forest(&t).unwrap_err(),
            CausalError::DuplicateSpan { .. }
        ));
    }

    #[test]
    fn blame_sums_to_makespan() {
        let cp = critical_path(&recovered_trace(), JobId(0)).unwrap();
        let sec = SimDuration::from_secs;
        assert_eq!(cp.critical_fn, FnId(0));
        assert_eq!(cp.blame.queue, sec(2)); // 0 → 2s
        assert_eq!(cp.blame.admission, sec(1)); // 2 → 3s
                                                // Attempts: 3→5s and 8→10s = 4s, of which 0.5s checkpoint.
        assert_eq!(cp.blame.checkpoint, SimDuration::from_micros(500_000));
        assert_eq!(cp.blame.exec, SimDuration::from_micros(3_500_000));
        // Gap 5→8s: 1.5s restore, 1.5s fault wait.
        assert_eq!(cp.blame.restore, SimDuration::from_micros(1_500_000));
        assert_eq!(cp.blame.fault_wait, SimDuration::from_micros(1_500_000));
        assert_eq!(cp.blame.total(), sec(10));
        assert_eq!(
            cp.blame.total(),
            cp.completed_at.saturating_since(cp.arrived_at)
        );
    }

    #[test]
    fn linkless_trace_yields_no_paths() {
        let t = Trace {
            events: vec![TraceEvent::new(
                SimTime::ZERO,
                TraceKind::JobArrived { job: JobId(0) },
            )],
        };
        assert!(critical_path(&t, JobId(0)).is_none());
        assert!(blame_report(&t).contains("no causal links"));
    }

    #[test]
    fn reports_render() {
        let t = recovered_trace();
        let blame = blame_report(&t);
        assert!(blame.contains("job0"));
        assert!(blame.contains("all jobs"));
        let cp = critical_path_report(&t, JobId(0));
        assert!(cp.contains("critical path of job0"));
        assert!(cp.contains("fault-wait"));
        assert!(critical_path_report(&t, JobId(9)).contains("no critical path"));
    }
}
