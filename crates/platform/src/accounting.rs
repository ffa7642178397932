//! Run outcomes and cost-relevant accounting: per-function and per-job
//! outcomes, container billing records, the run's counter registry
//! ([`Counts`]), and the complete [`RunResult`] including the optional
//! trace and telemetry.

use crate::ids::{FnId, JobId};
use crate::profile::HotPathProfile;
use crate::strategy::RecoveryTarget;
use crate::telemetry::TelemetrySnapshot;
use crate::trace::{Trace, TraceKind};
use canary_container::ContainerPurpose;
use canary_sim::{SimDuration, SimTime};

/// Billing record for one container: the GB·s cost model in §V-D.4 prices
/// each container's lifetime × memory allocation.
#[derive(Debug, Clone, Copy)]
pub struct ContainerUsage {
    /// Why the container existed (function / replica / standby).
    pub purpose: ContainerPurpose,
    /// Memory allocated, MB.
    pub memory_mb: u64,
    /// Creation time.
    pub created: SimTime,
    /// Termination time (run end for containers still alive then).
    pub terminated: SimTime,
}

impl ContainerUsage {
    /// Billed container-seconds.
    pub fn seconds(&self) -> f64 {
        self.terminated.saturating_since(self.created).as_secs_f64()
    }

    /// Billed GB·seconds.
    pub fn gb_seconds(&self) -> f64 {
        self.seconds() * self.memory_mb as f64 / 1024.0
    }
}

/// Per-function outcome.
#[derive(Debug, Clone, Copy)]
pub struct FnOutcome {
    /// Function id.
    pub id: FnId,
    /// Owning job.
    pub job: JobId,
    /// When the launch was first requested.
    pub first_launch: SimTime,
    /// When it completed.
    pub completed_at: SimTime,
    /// Failures suffered.
    pub failures: u32,
    /// Total recovery time (Σ kill → progress-regained).
    pub recovery: SimDuration,
    /// Attempts executed.
    pub attempts: u32,
}

/// Per-job outcome.
#[derive(Debug, Clone, Copy)]
pub struct JobOutcome {
    /// Job id.
    pub id: JobId,
    /// When the request arrived at the platform (client submission).
    pub submitted_at: SimTime,
    /// When the admission gate released the job (`None` for rejected
    /// jobs). `admitted_at - submitted_at` is the queue wait.
    pub admitted_at: Option<SimTime>,
    /// When the job's first function began executing (`None` for
    /// rejected jobs).
    pub first_exec_at: Option<SimTime>,
    /// Completion of the last function (the rejection instant for
    /// rejected jobs).
    pub completed_at: SimTime,
    /// True when the request was rejected at arrival and never ran.
    pub rejected: bool,
}

impl JobOutcome {
    /// Job makespan: submission (arrival) to last-function completion.
    /// Under open-loop load this is the job's *response time*, queue
    /// wait included.
    pub fn makespan(&self) -> SimDuration {
        self.completed_at.saturating_since(self.submitted_at)
    }

    /// Time spent held in the admission queue (zero for jobs admitted on
    /// arrival, and for rejected jobs).
    pub fn queue_wait(&self) -> SimDuration {
        self.admitted_at
            .map_or(SimDuration::ZERO, |t| t.saturating_since(self.submitted_at))
    }

    /// Submission to first execution start: queue wait plus controller
    /// admission and cold start (`None` for rejected jobs).
    pub fn time_to_first_exec(&self) -> Option<SimDuration> {
        self.first_exec_at
            .map(|t| t.saturating_since(self.submitted_at))
    }
}

/// Miscellaneous run counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunCounters {
    /// Function-level failures injected.
    pub function_failures: u64,
    /// Node crashes that occurred.
    pub node_failures: u64,
    /// Containers created over the run.
    pub containers_created: u64,
    /// Recoveries that resumed on a warm container.
    pub warm_recoveries: u64,
    /// Recoveries that had to cold-start.
    pub cold_recoveries: u64,
    /// Placement retries due to a full cluster.
    pub placement_retries: u64,
    /// Checkpoint bytes written (strategy-reported).
    pub checkpoint_bytes: u64,
    /// Checkpoints written (strategy-reported).
    pub checkpoints_written: u64,
    /// Restores performed (strategy-reported).
    pub restores: u64,
    /// Jobs the validator parked in its admission queue.
    pub jobs_queued: u64,
    /// Jobs the validator rejected outright.
    pub jobs_rejected: u64,
    /// Warm replicas consumed by recoveries.
    pub replicas_consumed: u64,
    /// Replicas re-spawned by pool reconciliation after a loss.
    pub replicas_refreshed: u64,
    /// Chaos fault events dispatched by the engine (all classes).
    pub chaos_events: u64,
    /// Replicated-store member outages injected by the chaos plan.
    pub store_outages: u64,
    /// Attempts slowed down by an injected straggler fault.
    pub stragglers_injected: u64,
    /// Checkpoint writes dropped because the store was unavailable.
    pub checkpoints_skipped: u64,
    /// Restores that fell back past the newest retained checkpoint.
    pub restore_fallbacks: u64,
    /// Control-plane crash-restarts injected by the chaos plan.
    pub controller_crashes: u64,
    /// WAL records replayed across all controller recoveries.
    pub wal_records_replayed: u64,
    /// Torn trailing WAL records discarded during controller recoveries.
    pub wal_torn_tails: u64,
    /// Events dequeued and dispatched by the run loop. The honest
    /// denominator for events/s and allocs/event throughput claims —
    /// counted at dispatch, with or without tracing.
    pub events_dispatched: u64,
    /// Node-crash recoveries resolved by live migration to a warm
    /// replica instead of rerun-from-checkpoint.
    pub migrations: u64,
    /// Chunks shipped to warm replicas by those migrations (the deltas).
    pub chunks_migrated: u64,
}

/// The run's one counter registry: [`RunCounters`] plus three counts only
/// telemetry reports. `Platform::emit` folds every event into it through
/// [`Counts::record`], traced or not, so [`counters_from_trace`] rebuilds
/// every count except the four with no trace event, which the engine
/// increments directly: `containers_created` (function and standby
/// containers emit nothing), `placement_retries`, `chaos_events` (a node
/// burst on a node already down emits nothing) and `events_dispatched`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// The run counters carried in [`RunResult::counters`].
    pub run: RunCounters,
    /// Jobs released from the admission queue.
    pub jobs_dequeued: u64,
    /// Replicated-store members rejoined after an outage.
    pub store_rejoins: u64,
    /// Retained checkpoints found corrupted during restore probing.
    pub checkpoints_corrupted: u64,
}

impl Counts {
    /// Fold one event into the counts: the rule for which event moves
    /// which count.
    pub fn record(&mut self, kind: &TraceKind) {
        let c = &mut self.run;
        match *kind {
            TraceKind::AttemptFailed { .. } => c.function_failures += 1,
            TraceKind::NodeFailed { .. } => c.node_failures += 1,
            TraceKind::RecoveryPlanned { target, .. } => match target {
                RecoveryTarget::FreshContainer => c.cold_recoveries += 1,
                RecoveryTarget::WarmContainer(_) => c.warm_recoveries += 1,
            },
            TraceKind::CheckpointWritten { bytes, .. } => {
                c.checkpoints_written += 1;
                c.checkpoint_bytes += bytes;
            }
            TraceKind::CheckpointRestored { .. } => c.restores += 1,
            TraceKind::MigrationPlanned { chunks, .. } => {
                c.restores += 1;
                c.migrations += 1;
                c.chunks_migrated += u64::from(chunks);
            }
            TraceKind::JobQueued { .. } => c.jobs_queued += 1,
            TraceKind::JobDequeued { .. } => self.jobs_dequeued += 1,
            TraceKind::JobRejected { .. } => c.jobs_rejected += 1,
            TraceKind::ReplicaConsumed { .. } => c.replicas_consumed += 1,
            TraceKind::ReplicaRefreshed { spawned, .. } => {
                c.replicas_refreshed += u64::from(spawned)
            }
            TraceKind::StoreOutage { .. } => c.store_outages += 1,
            TraceKind::StoreRejoined { .. } => self.store_rejoins += 1,
            TraceKind::StragglerInjected { .. } => c.stragglers_injected += 1,
            TraceKind::CheckpointCorrupted { .. } => self.checkpoints_corrupted += 1,
            TraceKind::CheckpointSkipped { .. } => c.checkpoints_skipped += 1,
            TraceKind::RestoreFallback { .. } | TraceKind::MigrationFallback { .. } => {
                c.restore_fallbacks += 1
            }
            TraceKind::ControllerCrashed => c.controller_crashes += 1,
            TraceKind::ControllerRecovered { replayed, torn, .. } => {
                c.wal_records_replayed += replayed;
                c.wal_torn_tails += u64::from(torn);
            }
            TraceKind::JobArrived { .. }
            | TraceKind::JobSubmitted { .. }
            | TraceKind::AttemptStarted { .. }
            | TraceKind::FunctionCompleted { .. }
            | TraceKind::WarmPoolSpawned { .. }
            | TraceKind::WarmPoolReady { .. }
            | TraceKind::PartitionStarted { .. }
            | TraceKind::PartitionHealed { .. }
            | TraceKind::NetworkDegraded { .. }
            | TraceKind::NetworkRestored => {}
        }
    }
}

/// [`Counts::record`] folded over a recorded trace: the run's own counts,
/// with the four untraced ones left zero.
pub fn counters_from_trace(trace: &Trace) -> Counts {
    let mut counts = Counts::default();
    for e in &trace.events {
        counts.record(&e.kind);
    }
    counts
}

/// The complete result of one simulated run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Strategy label.
    pub strategy: String,
    /// Per-function outcomes, in `FnId` order.
    pub fns: Vec<FnOutcome>,
    /// Per-job outcomes, in `JobId` order.
    pub jobs: Vec<JobOutcome>,
    /// All container usage records.
    pub containers: Vec<ContainerUsage>,
    /// Counters.
    pub counters: RunCounters,
    /// Virtual time at which the run drained.
    pub finished_at: SimTime,
    /// Execution trace (empty unless `RunConfig::trace` was set).
    pub trace: Trace,
    /// Telemetry snapshot (all-zero unless `RunConfig::telemetry` was
    /// set).
    pub telemetry: TelemetrySnapshot,
    /// Engine hot-path profile (empty unless `RunConfig::profile` was
    /// set).
    pub profile: HotPathProfile,
}

impl RunResult {
    /// Makespan across all jobs (first submit to last completion).
    pub fn makespan(&self) -> SimDuration {
        let start = self
            .jobs
            .iter()
            .map(|j| j.submitted_at)
            .min()
            .unwrap_or(SimTime::ZERO);
        let end = self
            .jobs
            .iter()
            .map(|j| j.completed_at)
            .max()
            .unwrap_or(SimTime::ZERO);
        end.saturating_since(start)
    }

    /// Total recovery time across all functions.
    pub fn total_recovery(&self) -> SimDuration {
        self.fns.iter().map(|f| f.recovery).sum()
    }

    /// Mean recovery time per *failed* function (0 when nothing failed).
    pub fn mean_recovery_per_failure(&self) -> SimDuration {
        let failures: u32 = self.fns.iter().map(|f| f.failures).sum();
        if failures == 0 {
            return SimDuration::ZERO;
        }
        SimDuration::from_secs_f64(self.total_recovery().as_secs_f64() / failures as f64)
    }

    /// Total billed GB·seconds over all containers.
    pub fn gb_seconds(&self) -> f64 {
        self.containers.iter().map(ContainerUsage::gb_seconds).sum()
    }

    /// GB·seconds split by container purpose.
    pub fn gb_seconds_for(&self, purpose: ContainerPurpose) -> f64 {
        self.containers
            .iter()
            .filter(|c| c.purpose == purpose)
            .map(ContainerUsage::gb_seconds)
            .sum()
    }

    /// Number of functions that completed.
    pub fn completed_count(&self) -> usize {
        self.fns.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usage_math() {
        let u = ContainerUsage {
            purpose: ContainerPurpose::Function,
            memory_mb: 2048,
            created: SimTime::from_micros(0),
            terminated: SimTime::from_micros(10_000_000),
        };
        assert!((u.seconds() - 10.0).abs() < 1e-9);
        assert!((u.gb_seconds() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn makespan_spans_jobs() {
        let r = RunResult {
            strategy: "x".into(),
            fns: vec![],
            jobs: vec![
                JobOutcome {
                    id: JobId(0),
                    submitted_at: SimTime::from_micros(0),
                    admitted_at: Some(SimTime::from_micros(0)),
                    first_exec_at: Some(SimTime::from_micros(100_000)),
                    completed_at: SimTime::from_micros(5_000_000),
                    rejected: false,
                },
                JobOutcome {
                    id: JobId(1),
                    submitted_at: SimTime::from_micros(1_000_000),
                    admitted_at: Some(SimTime::from_micros(2_000_000)),
                    first_exec_at: Some(SimTime::from_micros(2_100_000)),
                    completed_at: SimTime::from_micros(9_000_000),
                    rejected: false,
                },
            ],
            containers: vec![],
            counters: RunCounters::default(),
            finished_at: SimTime::from_micros(9_000_000),
            trace: Trace::default(),
            telemetry: TelemetrySnapshot::default(),
            profile: HotPathProfile::default(),
        };
        assert_eq!(r.makespan(), SimDuration::from_secs(9));
    }

    #[test]
    fn recovery_aggregates() {
        let f = |rec_s: u64, fails: u32| FnOutcome {
            id: FnId(0),
            job: JobId(0),
            first_launch: SimTime::ZERO,
            completed_at: SimTime::ZERO,
            failures: fails,
            recovery: SimDuration::from_secs(rec_s),
            attempts: fails + 1,
        };
        let r = RunResult {
            strategy: "x".into(),
            fns: vec![f(10, 1), f(0, 0), f(20, 3)],
            jobs: vec![],
            containers: vec![],
            counters: RunCounters::default(),
            finished_at: SimTime::ZERO,
            trace: Trace::default(),
            telemetry: TelemetrySnapshot::default(),
            profile: HotPathProfile::default(),
        };
        assert_eq!(r.total_recovery(), SimDuration::from_secs(30));
        assert_eq!(
            r.mean_recovery_per_failure(),
            SimDuration::from_secs_f64(7.5)
        );
    }

    #[test]
    fn mean_recovery_with_no_failures_is_zero() {
        let r = RunResult {
            strategy: "x".into(),
            fns: vec![],
            jobs: vec![],
            containers: vec![],
            counters: RunCounters::default(),
            finished_at: SimTime::ZERO,
            trace: Trace::default(),
            telemetry: TelemetrySnapshot::default(),
            profile: HotPathProfile::default(),
        };
        assert_eq!(r.mean_recovery_per_failure(), SimDuration::ZERO);
    }
}
