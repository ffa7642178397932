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
//!   indexes it in a sorted `(span, event)` table.
//! - [`critical_path`] follows one job's timeline from arrival to its
//!   last-completing function and splits the end-to-end latency into
//!   blame components — queue, admission, exec, checkpoint, restore,
//!   fault-wait — that **sum exactly to the job's makespan** by
//!   construction (each component is a disjoint segment of the
//!   timeline).
//! - [`critical_paths`], [`aggregate_blame`] and [`blame_report`] roll
//!   per-job blame up to the run: "where did this run's latency
//!   actually go?"
//!
//! Each is one forward pass over the trace. The per-job and whole-run
//! paths share one fold, so a whole-run report costs one pass, not one
//! per job.

use canary_platform::{FnId, JobId, SpanId, Trace, TraceEvent, TraceKind};
use canary_sim::hash::HashMap;
use canary_sim::{SimDuration, SimTime};
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
#[derive(Debug, Clone, PartialEq, Eq)]
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
#[derive(Debug, Clone, PartialEq, Eq)]
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

/// The validated span forest of a causal trace, as flat indexes.
#[derive(Debug, Clone, Default)]
pub struct SpanForest {
    /// `(span, index of the event that defined it)`, sorted.
    defined: Vec<(u64, usize)>,
    /// Root span of each event's containment tree, by event index (zero
    /// for an event without a span).
    roots: Vec<u64>,
    /// Number of containment trees: spans without a parent.
    trees: usize,
}

impl SpanForest {
    /// Number of spans the trace defines.
    pub fn span_count(&self) -> usize {
        self.defined.len()
    }

    /// Number of distinct containment trees.
    pub fn tree_count(&self) -> usize {
        self.trees
    }

    /// Index of the event that defined `span`.
    pub fn defined(&self, span: SpanId) -> Option<usize> {
        let at = self.defined.partition_point(|&(s, _)| s < span.0);
        match self.defined.get(at) {
            Some(&(s, index)) if s == span.0 => Some(index),
            _ => None,
        }
    }

    /// Root span of `span`'s containment tree (itself for a root).
    pub fn root_of(&self, span: SpanId) -> Option<SpanId> {
        self.defined(span).map(|index| SpanId(self.roots[index]))
    }

    /// Index of the event an event's `link` names, which must precede
    /// the linking event `index`. `None` for an absent link.
    fn earlier(
        &self,
        index: usize,
        field: &'static str,
        link: SpanId,
    ) -> Result<Option<usize>, CausalError> {
        if link.is_none() {
            return Ok(None);
        }
        match self.defined(link) {
            Some(target) if target < index => Ok(Some(target)),
            _ => Err(CausalError::UnresolvedLink {
                event_index: index,
                field,
                target: link,
            }),
        }
    }
}

/// Build and validate the span forest of a causal trace.
///
/// Checks, in one forward pass: every span id is defined at most once;
/// every `parent` and `cause` link targets a span defined by an
/// *earlier* event (so links are acyclic by construction); no event
/// carries links without a span. Events without a span (a trace
/// recorded with causal off) are skipped. The error names the first
/// offending event, checked in that order: links without a span, a
/// repeated span, `parent`, `cause`.
pub fn span_forest(trace: &Trace) -> Result<SpanForest, CausalError> {
    let events = &trace.events;
    let mut defined: Vec<(u64, usize)> = events
        .iter()
        .enumerate()
        .filter(|(_, e)| e.span.is_some())
        .map(|(index, e)| (e.span.0, index))
        .collect();
    // A causal run hands out spans in emit order, so this confirms one
    // ascending run in linear time.
    defined.sort_unstable();
    // A span's first claimant sorts first among its claimants; the
    // earliest later claimant is the first repeat.
    let repeat = defined
        .windows(2)
        .filter(|w| w[0].0 == w[1].0)
        .map(|w| w[1].1)
        .min();
    let mut forest = SpanForest {
        defined,
        roots: vec![0; events.len()],
        trees: 0,
    };
    for (i, e) in events.iter().enumerate() {
        if e.span.is_none() {
            if e.parent.is_some() || e.cause.is_some() {
                return Err(CausalError::LinkWithoutSpan { event_index: i });
            }
            continue;
        }
        if repeat == Some(i) {
            return Err(CausalError::DuplicateSpan {
                span: e.span,
                event_index: i,
            });
        }
        let parent = forest.earlier(i, "parent", e.parent)?;
        forest.earlier(i, "cause", e.cause)?;
        forest.roots[i] = match parent {
            Some(p) => forest.roots[p],
            None => {
                forest.trees += 1;
                e.span.0
            }
        };
    }
    Ok(forest)
}

/// Ends a function's list of job memberships.
const NO_FN: u32 = u32::MAX;

/// One closed segment of a function's timeline, labelled only if the
/// function turns out to be its job's critical one.
#[derive(Clone, Copy)]
enum Seg {
    /// An attempt window and the checkpoint cost written inside it.
    Attempt {
        attempt: u32,
        completed: bool,
        ckpt_us: u64,
    },
    /// A recovery gap and the restore estimate of its plan.
    Gap { restore_us: u64 },
}

/// One function's timeline in one job: its open attempt or recovery
/// gap, and its closed segments.
struct FnFold {
    /// Index of the job's [`JobFold`].
    job: u32,
    /// The function's next job membership, or [`NO_FN`]. A function
    /// whose attempts hang off two jobs' roots is folded in both.
    next: u32,
    /// The function's first attempt under the job's root.
    first_start: SimTime,
    /// The open attempt: its start and number.
    attempt: Option<(SimTime, u32)>,
    ckpt_us: u64,
    /// Start of the open recovery gap.
    gap: Option<SimTime>,
    restore_us: u64,
    /// Closed segments: `(from, to, what)`, in time order.
    segs: Vec<(SimTime, SimTime, Seg)>,
    /// The latest completion, and how many segments it had closed.
    done: Option<(SimTime, usize)>,
}

impl FnFold {
    fn new(job: u32, next: u32, first_start: SimTime) -> Self {
        FnFold {
            job,
            next,
            first_start,
            attempt: None,
            ckpt_us: 0,
            gap: None,
            restore_us: 0,
            segs: Vec::new(),
            done: None,
        }
    }

    fn close_attempt(&mut self, at: SimTime, completed: bool) {
        if let Some((start, attempt)) = self.attempt.take() {
            let seg = Seg::Attempt {
                attempt,
                completed,
                ckpt_us: self.ckpt_us,
            };
            self.segs.push((start, at, seg));
        }
    }

    /// Fold one of the function's events. Returns the instant when the
    /// event completes the function later than any completion before.
    fn step(&mut self, e: &TraceEvent) -> Option<SimTime> {
        match e.kind {
            TraceKind::AttemptStarted { attempt, .. } => {
                if let Some(from) = self.gap.take() {
                    let seg = Seg::Gap {
                        restore_us: self.restore_us,
                    };
                    self.segs.push((from, e.at, seg));
                }
                self.attempt = Some((e.at, attempt));
                self.ckpt_us = 0;
                self.restore_us = 0;
            }
            TraceKind::CheckpointWritten { cost, .. } => self.ckpt_us += cost.as_micros(),
            TraceKind::RecoveryPlanned { restore, .. } => self.restore_us = restore.as_micros(),
            TraceKind::AttemptFailed { .. } => {
                self.close_attempt(e.at, false);
                self.gap = Some(e.at);
            }
            TraceKind::FunctionCompleted { .. } => {
                self.close_attempt(e.at, true);
                if self.done.is_none_or(|(at, _)| e.at > at) {
                    self.done = Some((e.at, self.segs.len()));
                    return Some(e.at);
                }
            }
            _ => {}
        }
        None
    }
}

/// One job's fold: its arrival, its submission and its latest function
/// completion.
struct JobFold {
    job: JobId,
    arrived_at: SimTime,
    submitted_at: Option<SimTime>,
    /// `(completed_at, fn, its FnFold)` of the last-completing function.
    critical: Option<(SimTime, FnId, u32)>,
}

impl JobFold {
    /// The critical path: queue and admission, then the critical
    /// function's segments up to its latest completion.
    fn path(&self, fns: &[FnFold]) -> Option<CriticalPath> {
        let submitted_at = self.submitted_at?;
        let (completed_at, critical_fn, f) = self.critical?;
        let f = &fns[f as usize];
        let (_, closed) = f.done?;
        let mut blame = Blame {
            queue: submitted_at.saturating_since(self.arrived_at),
            admission: f.first_start.saturating_since(submitted_at),
            ..Blame::default()
        };
        let mut steps = Vec::with_capacity(closed + 2);
        if blame.queue > SimDuration::ZERO {
            steps.push(CpStep {
                from: self.arrived_at,
                to: submitted_at,
                label: "queue".into(),
            });
        }
        steps.push(CpStep {
            from: submitted_at,
            to: f.first_start,
            label: "admission + start".into(),
        });
        // Attempt windows split into exec + checkpoint, inter-attempt
        // gaps into restore + fault-wait. The segments are contiguous
        // from the first start to the completion, so the components
        // sum to the makespan exactly.
        for &(from, to, seg) in &f.segs[..closed] {
            let span_us = to.saturating_since(from).as_micros();
            let label = match seg {
                Seg::Attempt {
                    attempt,
                    completed,
                    ckpt_us,
                } => {
                    let ck = ckpt_us.min(span_us);
                    blame.checkpoint += SimDuration::from_micros(ck);
                    blame.exec += SimDuration::from_micros(span_us - ck);
                    let fate = if completed { "completed" } else { "failed" };
                    format!("attempt {attempt} ({fate})")
                }
                Seg::Gap { restore_us } => {
                    let restore = SimDuration::from_micros(restore_us.min(span_us));
                    let wait = SimDuration::from_micros(span_us - restore.as_micros());
                    blame.restore += restore;
                    blame.fault_wait += wait;
                    format!("recovery gap (restore {restore}, wait {wait})")
                }
            };
            steps.push(CpStep { from, to, label });
        }
        Some(CriticalPath {
            job: self.job,
            critical_fn,
            arrived_at: self.arrived_at,
            completed_at,
            blame,
            steps,
        })
    }
}

/// Critical paths of the jobs arriving in `events` (only of `only`, when
/// given), in `JobId` order, from one forward pass.
///
/// Each event is routed to the jobs it belongs to: a submission by its
/// job, an attempt by its parent (a job's root span) and every event of
/// a function by the jobs it joined. A function joins a job at its first
/// attempt whose parent is the job's root span.
fn fold(events: &[TraceEvent], only: Option<JobId>) -> Vec<CriticalPath> {
    let mut jobs: Vec<JobFold> = Vec::new();
    let mut fns: Vec<FnFold> = Vec::new();
    let mut job_fold: HashMap<JobId, u32> = HashMap::default();
    let mut root_job: HashMap<u64, u32> = HashMap::default();
    // A function's most recent membership; older ones follow `next`.
    let mut fn_fold: HashMap<FnId, u32> = HashMap::default();
    // The ids those maps hold lie in these ranges, so an event of a job
    // outside the fold is skipped without hashing its ids.
    let (mut roots, mut fn_ids) = ((u64::MAX, 0), (u64::MAX, 0));
    let within = |(lo, hi): (u64, u64), id: u64| lo <= id && id <= hi;
    for e in events {
        let fn_id = match e.kind {
            TraceKind::JobArrived { job } => {
                if only.is_none_or(|j| j == job) && !job_fold.contains_key(&job) {
                    let k = jobs.len() as u32;
                    job_fold.insert(job, k);
                    if e.span.is_some() {
                        root_job.entry(e.span.0).or_insert(k);
                        roots = (roots.0.min(e.span.0), roots.1.max(e.span.0));
                    }
                    jobs.push(JobFold {
                        job,
                        arrived_at: e.at,
                        submitted_at: None,
                        critical: None,
                    });
                }
                continue;
            }
            TraceKind::JobSubmitted { job } => {
                if let Some(&k) = job_fold.get(&job) {
                    jobs[k as usize].submitted_at.get_or_insert(e.at);
                }
                continue;
            }
            TraceKind::AttemptStarted { fn_id, .. } => {
                let job = within(roots, e.parent.0)
                    .then(|| root_job.get(&e.parent.0).copied())
                    .flatten();
                if let Some(k) = job {
                    let head = fn_fold.get(&fn_id).copied().unwrap_or(NO_FN);
                    let mut m = head;
                    while m != NO_FN && fns[m as usize].job != k {
                        m = fns[m as usize].next;
                    }
                    if m == NO_FN {
                        fn_fold.insert(fn_id, fns.len() as u32);
                        fns.push(FnFold::new(k, head, e.at));
                        fn_ids = (fn_ids.0.min(fn_id.0), fn_ids.1.max(fn_id.0));
                    }
                }
                fn_id
            }
            TraceKind::CheckpointWritten { fn_id, .. }
            | TraceKind::RecoveryPlanned { fn_id, .. }
            | TraceKind::AttemptFailed { fn_id, .. }
            | TraceKind::FunctionCompleted { fn_id } => fn_id,
            _ => continue,
        };
        if !within(fn_ids, fn_id.0) {
            continue;
        }
        let mut m = fn_fold.get(&fn_id).copied().unwrap_or(NO_FN);
        while m != NO_FN {
            let f = &mut fns[m as usize];
            if let Some(at) = f.step(e) {
                let job = &mut jobs[f.job as usize];
                job.critical = job.critical.max(Some((at, fn_id, m)));
            }
            m = f.next;
        }
    }
    let mut paths: Vec<CriticalPath> = jobs.iter().filter_map(|j| j.path(&fns)).collect();
    paths.sort_by_key(|p| p.job);
    paths
}

/// Compute one job's critical path from a causal trace.
///
/// Reads the trace from the job's arrival on: in a trace whose span
/// forest validates, every event of the job's tree follows its root.
/// Returns `None` when the job is absent, never completed a function,
/// or the trace carries no causal links (nothing to attribute).
pub fn critical_path(trace: &Trace, job: JobId) -> Option<CriticalPath> {
    let arrival = trace
        .events
        .iter()
        .position(|e| matches!(e.kind, TraceKind::JobArrived { job: j } if j == job))?;
    fold(&trace.events[arrival..], Some(job)).pop()
}

/// Critical paths for every job that completed, in `JobId` order: the
/// same fold as [`critical_path`], over every job at once, in one pass.
pub fn critical_paths(trace: &Trace) -> Vec<CriticalPath> {
    fold(&trace.events, None)
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
        assert_eq!(forest.span_count(), 9);
        assert_eq!(forest.tree_count(), 2);
        // Job tree rooted at span 1; the node failure is its own tree.
        assert_eq!(forest.root_of(SpanId(9)), Some(SpanId(1)));
        assert_eq!(forest.root_of(SpanId(5)), Some(SpanId(5)));
        assert_eq!(forest.defined(SpanId(5)), Some(4));
        assert_eq!(forest.defined(SpanId(10)), None);
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
