//! The engine's event vocabulary and its dispatch table.
//!
//! Every state change in a run is driven by one of these events popping
//! off the deterministic queue; dispatch fans each out to its handler in
//! [`super::handlers`].

use super::Platform;
use crate::ids::{FnId, JobId};
use crate::strategy::FtStrategy;
use canary_cluster::NodeId;
use canary_container::ContainerId;

/// Engine events. `Copy` and 24 bytes, so the event queue holds them
/// by value.
#[derive(Debug, Clone, Copy)]
pub enum Event {
    /// A job's request reaches the platform (its `JobSpec` arrival
    /// offset elapsed, or its chain prerequisite completed). The request
    /// is validated and either admitted, parked in the FIFO admission
    /// queue, or rejected.
    JobArrival {
        /// The arriving job.
        job: JobId,
    },
    /// Admit one job (strategy hook + function launches).
    SubmitJob {
        /// The job to admit.
        job: JobId,
    },
    /// Launch (or relaunch) a function attempt on a fresh container.
    Launch {
        /// The function to launch.
        fn_id: FnId,
        /// First state index of the attempt.
        from_state: u32,
    },
    /// The current attempt of `fn_id` ends (completion or kill).
    AttemptEnd {
        /// The function whose attempt ends.
        fn_id: FnId,
        /// Attempt number the event belongs to (stale-event fence).
        attempt: u32,
    },
    /// Resume a function on a warm container (replica / standby).
    WarmResume {
        /// The function to resume.
        fn_id: FnId,
        /// The reserved warm container.
        container: ContainerId,
        /// First state index of the resumed attempt.
        from_state: u32,
    },
    /// A replica container finished its cold start.
    ReplicaWarm {
        /// The container that is now warm.
        container: ContainerId,
    },
    /// A node crashes.
    NodeFailure {
        /// The crashing node.
        node: NodeId,
    },
    /// The `idx`-th event of the chaos plan fires.
    ChaosFault {
        /// Index into the chaos plan's event list.
        idx: usize,
    },
    /// The serialized controller finishes an admission slot: admit the
    /// head of the pending-launch FIFO. Exactly one of these is in flight
    /// while the FIFO is non-empty — launches park in the queue instead
    /// of re-polling the controller every slot, which turns the admission
    /// model from O(pending²) dispatches into O(pending).
    AdmissionFree,
}

/// Number of [`Event`] kinds (the hot-path profiler keys fixed-size
/// tables by kind).
pub(super) const EVENT_KINDS: usize = 9;

/// Stable labels for the hot-path profiler's per-kind report rows, in
/// [`Event::kind_index`] order.
pub(super) const EVENT_KIND_LABELS: [&str; EVENT_KINDS] = [
    "job_arrival",
    "submit_job",
    "launch",
    "attempt_end",
    "warm_resume",
    "replica_warm",
    "node_failure",
    "chaos_fault",
    "admission_free",
];

impl Event {
    /// Dense index of this event's kind, for profiler tables.
    pub(super) fn kind_index(&self) -> usize {
        match self {
            Event::JobArrival { .. } => 0,
            Event::SubmitJob { .. } => 1,
            Event::Launch { .. } => 2,
            Event::AttemptEnd { .. } => 3,
            Event::WarmResume { .. } => 4,
            Event::ReplicaWarm { .. } => 5,
            Event::NodeFailure { .. } => 6,
            Event::ChaosFault { .. } => 7,
            Event::AdmissionFree => 8,
        }
    }
}

impl Platform {
    /// Route one popped event to its handler.
    pub(super) fn dispatch(&mut self, strategy: &mut dyn FtStrategy, ev: Event) {
        self.counts.run.events_dispatched += 1;
        match ev {
            Event::JobArrival { job } => self.handle_job_arrival(strategy, job),
            Event::SubmitJob { job } => self.handle_submit(strategy, job),
            Event::Launch { fn_id, from_state } => self.handle_launch(strategy, fn_id, from_state),
            Event::AttemptEnd { fn_id, attempt } => {
                self.handle_attempt_end(strategy, fn_id, attempt)
            }
            Event::WarmResume {
                fn_id,
                container,
                from_state,
            } => self.handle_warm_resume(strategy, fn_id, container, from_state),
            Event::ReplicaWarm { container } => self.handle_replica_warm(strategy, container),
            Event::NodeFailure { node } => self.handle_node_failure(strategy, node),
            Event::ChaosFault { idx } => self.handle_chaos(strategy, idx),
            Event::AdmissionFree => self.handle_admission_free(strategy),
        }
    }
}
