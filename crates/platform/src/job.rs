//! Job and function records.

use crate::ids::{FnId, JobId};
use canary_cluster::NodeId;
use canary_container::ContainerId;
use canary_sim::{SimDuration, SimTime};
use canary_workloads::WorkloadSpec;
use std::sync::Arc;

/// A batch of identical function invocations of one workload — the unit
/// the paper submits (e.g. "100 invocations of the DL workload").
///
/// Jobs can be *chained* (§I: stateful applications are workflows whose
/// stages consume previous stages' outputs — mappers before reducers, DL
/// preprocessing before training): a job with `after = Some(i)` is only
/// submitted once job `i` of the same batch has completed.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// The workload every invocation runs.
    pub workload: WorkloadSpec,
    /// Number of function invocations.
    pub invocations: u32,
    /// Index (within the submitted batch) of the job that must complete
    /// before this one is admitted; `None` for independent jobs.
    pub after: Option<usize>,
    /// Open-loop arrival offset: when (relative to run start) the job's
    /// request reaches the platform. `ZERO` reproduces the closed-batch
    /// behaviour of submitting everything up front. Ignored for chained
    /// jobs, which arrive when their prerequisite completes.
    pub arrival_offset: SimDuration,
}

impl JobSpec {
    /// An independent job of `invocations` copies of `workload`.
    pub fn new(workload: WorkloadSpec, invocations: u32) -> Self {
        assert!(invocations > 0, "job needs at least one invocation");
        JobSpec {
            workload,
            invocations,
            after: None,
            arrival_offset: SimDuration::ZERO,
        }
    }

    /// A chained job admitted only after batch job `prereq` completes.
    /// `prereq` must index an *earlier* entry of the batch (enforced at
    /// run start), which makes cycles unrepresentable.
    pub fn chained(workload: WorkloadSpec, invocations: u32, prereq: usize) -> Self {
        let mut spec = Self::new(workload, invocations);
        spec.after = Some(prereq);
        spec
    }

    /// The same job arriving `offset` after run start (open-loop traffic).
    pub fn at(mut self, offset: SimDuration) -> Self {
        self.arrival_offset = offset;
        self
    }
}

/// Runtime record of a submitted job.
#[derive(Debug)]
pub struct JobRecord {
    /// Identity.
    pub id: JobId,
    /// Shared workload spec.
    pub workload: Arc<WorkloadSpec>,
    /// Function invocations belonging to this job.
    pub fn_ids: Vec<FnId>,
    /// When the job's request arrived at the platform (the client-side
    /// submission instant, not the admission instant).
    pub submitted_at: SimTime,
    /// When the admission gate released the job for execution (`None`
    /// until then). `admitted_at - submitted_at` is the queue wait.
    pub admitted_at: Option<SimTime>,
    /// When the job's first function began executing (`None` until then).
    pub first_exec: Option<SimTime>,
    /// Completion time of the last function (None while running).
    pub completed_at: Option<SimTime>,
    /// Functions still outstanding.
    pub remaining: u32,
    /// True when the request was rejected at arrival; its functions never
    /// run.
    pub rejected: bool,
}

/// Lifecycle of one function invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FnStatus {
    /// Known but not yet launched.
    Pending,
    /// Container starting or executing.
    Running,
    /// Between a failure and the next attempt's execution start.
    Recovering,
    /// Finished successfully.
    Completed,
}

/// Completion timing of one state within a planned attempt.
#[derive(Debug, Clone, Copy)]
pub struct StateTiming {
    /// State index in the workload spec.
    pub idx: u32,
    /// When its work began.
    pub start: SimTime,
    /// When its work (plus checkpoint overhead) finished.
    pub done: SimTime,
    /// Reference (unscaled) execution work of the state.
    pub ref_exec: SimDuration,
}

/// The planned fate of one clone of an attempt.
#[derive(Debug, Clone)]
pub struct CloneOutcome {
    /// Container hosting the clone.
    pub container: ContainerId,
    /// Node hosting the container.
    pub node: NodeId,
    /// When execution (not cold start) began.
    pub exec_start: SimTime,
    /// When the clone ends (completion or kill).
    pub end: SimTime,
    /// True when the clone runs to completion.
    pub completes: bool,
    /// Timings of the states the clone finishes, in order.
    pub timings: Vec<StateTiming>,
    /// Reference work (unscaled execution seconds) completed by the
    /// clone at its end — partial state work included for kills.
    pub work_done: SimDuration,
}

/// The planned fate of one attempt, computed when the attempt starts
/// (failure times are known from the deterministic oracle, so the whole
/// attempt timeline is resolvable up front). This is the engine's only
/// record of an attempt.
#[derive(Debug, Clone)]
pub struct PlannedAttempt {
    /// Attempt number this plan belongs to.
    pub attempt: u32,
    /// When the attempt ends (completion or kill).
    pub end: SimTime,
    /// True when the attempt runs to completion.
    pub completes: bool,
    /// First state index of this attempt.
    pub from_state: u32,
    /// One outcome per clone, in launch order.
    pub clones: Vec<CloneOutcome>,
    /// Index in `clones` of the primary clone: the winner of a
    /// completing attempt, else the clone that got furthest.
    pub primary: usize,
}

impl PlannedAttempt {
    /// The primary clone, `clones[primary]`.
    pub fn primary(&self) -> &CloneOutcome {
        &self.clones[self.primary]
    }
}

/// Runtime record of one function invocation.
#[derive(Debug)]
pub struct FnRecord {
    /// Identity.
    pub id: FnId,
    /// Owning job.
    pub job: JobId,
    /// Workload (shared with the job).
    pub workload: Arc<WorkloadSpec>,
    /// Current status.
    pub status: FnStatus,
    /// Attempts started so far (also the stale-event fence: events carry
    /// the attempt they belong to and are dropped on mismatch).
    pub attempt: u32,
    /// The running attempt's plan (`None` between attempts).
    pub plan: Option<PlannedAttempt>,
    /// Reference work already *banked* at the start of the current
    /// attempt (durable progress; 0 for stateless retry).
    pub banked_work: SimDuration,
    /// First launch request time.
    pub first_launch: Option<SimTime>,
    /// Completion time.
    pub completed_at: Option<SimTime>,
    /// Failures suffered.
    pub failures: u32,
    /// Accumulated recovery time (Σ over failures of time from kill until
    /// the function regained its pre-kill progress).
    pub recovery: SimDuration,
    /// Pending recovery accounting: (kill time, progress at kill in
    /// reference work) — resolved when the next attempt starts executing.
    pub pending_recovery: Option<(SimTime, SimDuration)>,
}

impl FnRecord {
    /// Fresh record.
    pub fn new(id: FnId, job: JobId, workload: Arc<WorkloadSpec>) -> Self {
        FnRecord {
            id,
            job,
            workload,
            status: FnStatus::Pending,
            attempt: 0,
            plan: None,
            banked_work: SimDuration::ZERO,
            first_launch: None,
            completed_at: None,
            failures: 0,
            recovery: SimDuration::ZERO,
            pending_recovery: None,
        }
    }

    /// Reference work of states `[0, state)` (prefix sums of the spec).
    pub fn work_before_state(&self, state: u32) -> SimDuration {
        self.workload
            .states
            .iter()
            .take(state as usize)
            .map(|s| s.exec)
            .sum()
    }

    /// Total reference work of the whole function.
    pub fn total_work(&self) -> SimDuration {
        self.workload.total_exec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use canary_workloads::WorkloadSpec;

    #[test]
    fn work_prefix_sums() {
        let rec = FnRecord::new(FnId(0), JobId(0), Arc::new(WorkloadSpec::web_service(10)));
        assert_eq!(rec.work_before_state(0), SimDuration::ZERO);
        assert_eq!(rec.work_before_state(1), SimDuration::from_millis(600));
        assert_eq!(rec.work_before_state(10), rec.total_work());
        // Beyond the end clamps to the total.
        assert_eq!(rec.work_before_state(99), rec.total_work());
    }

    #[test]
    #[should_panic]
    fn empty_job_rejected() {
        JobSpec::new(WorkloadSpec::web_service(1), 0);
    }
}
