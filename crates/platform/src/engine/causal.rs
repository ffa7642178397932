//! Causal span assignment for trace events.
//!
//! With [`crate::RunConfig::causal`] on, every emitted [`TraceEvent`]
//! receives a fresh span id plus `parent` (containment) and `cause`
//! (cross-tree trigger) links, computed *at emit time* from the engine's
//! live state — the links are exact, never reconstructed heuristically
//! from the flat log afterwards.
//!
//! The containment grammar: a job's `JobArrived` event roots its tree;
//! admission-lifecycle events (`JobSubmitted`/`JobQueued`/...) and
//! attempt starts hang off the root; checkpoints, stragglers and
//! completions hang off their attempt; restore probing hangs off the
//! failure that triggered it. Cause links cross trees: a chaos fault to
//! the attempts it killed and the pool churn it forced, a failure to the
//! recovery it planned, a recovery to the attempt it restarted, a
//! prerequisite job's completion to the chained job it released.
//!
//! Because links are taken from maps populated by *earlier* emits, every
//! non-zero `parent`/`cause` always references an event already in the
//! trace — the invariant the proptests in `tests/causal_props.rs` pin.

use super::Platform;
use crate::ids::{FnId, JobId};
use crate::trace::{SpanId, TraceKind};
use canary_cluster::NodeId;
use canary_container::ContainerId;
use canary_sim::hash::HashMap;

/// Live bookkeeping for span assignment. All maps key spans already
/// handed out, so looking one up always yields an earlier event.
#[derive(Debug, Default)]
pub(super) struct CausalState {
    /// Next span id to hand out (ids start at 1; 0 is the sentinel).
    next: u64,
    /// Job → its `JobArrived` root span.
    job_root: HashMap<JobId, SpanId>,
    /// Function → span of its currently-running `AttemptStarted`.
    attempt: HashMap<FnId, SpanId>,
    /// Function → span of its open `AttemptFailed` (set at failure,
    /// consumed when the recovery plan lands).
    failure: HashMap<FnId, SpanId>,
    /// Function → span of its open `RecoveryPlanned` (consumed by the
    /// restarted attempt).
    recovery: HashMap<FnId, SpanId>,
    /// Container → span of its `WarmPoolSpawned`.
    pool: HashMap<ContainerId, SpanId>,
    /// Chained job → the prerequisite job's completing span (recorded
    /// when the dependent's arrival is enqueued).
    arrival_cause: HashMap<JobId, SpanId>,
    /// Node-pair partition → its `PartitionStarted` span.
    partition: HashMap<(NodeId, NodeId), SpanId>,
    /// Store member → its `StoreOutage` span.
    store: HashMap<u32, SpanId>,
    /// Most recent `StoreOutage` span (checkpoint skips blame it).
    last_store_outage: SpanId,
    /// Open `NetworkDegraded` span.
    degrade: SpanId,
    /// Span of the fault currently being handled (`NodeFailed`): the
    /// attempts it preempts and the pool churn it forces blame it.
    fault_context: SpanId,
}

impl CausalState {
    fn alloc(&mut self) -> SpanId {
        self.next += 1;
        SpanId(self.next)
    }
}

impl Platform {
    /// Assign `(span, parent, cause)` for the event about to be emitted,
    /// updating the live causal maps.
    pub(super) fn causal_links(&mut self, kind: &TraceKind) -> (SpanId, SpanId, SpanId) {
        let span = self.causal.alloc();
        let none = SpanId::NONE;
        let job_of = |fns: &[crate::job::FnRecord], fn_id: FnId| fns[fn_id.0 as usize].job;
        let (parent, cause) = match *kind {
            TraceKind::JobArrived { job } => {
                self.causal.job_root.insert(job, span);
                let cause = self.causal.arrival_cause.remove(&job).unwrap_or(none);
                (none, cause)
            }
            TraceKind::JobSubmitted { job }
            | TraceKind::JobQueued { job }
            | TraceKind::JobDequeued { job }
            | TraceKind::JobRejected { job } => {
                let parent = self.causal.job_root.get(&job).copied().unwrap_or(none);
                (parent, none)
            }
            TraceKind::AttemptStarted { fn_id, .. } => {
                let job = job_of(&self.fns, fn_id);
                let parent = self.causal.job_root.get(&job).copied().unwrap_or(none);
                let cause = self.causal.recovery.remove(&fn_id).unwrap_or(none);
                self.causal.attempt.insert(fn_id, span);
                (parent, cause)
            }
            TraceKind::AttemptFailed { fn_id, .. } => {
                let parent = self.causal.attempt.remove(&fn_id).unwrap_or(none);
                self.causal.failure.insert(fn_id, span);
                (parent, self.causal.fault_context)
            }
            TraceKind::FunctionCompleted { fn_id } => {
                let parent = self.causal.attempt.remove(&fn_id).unwrap_or(none);
                (parent, none)
            }
            TraceKind::RecoveryPlanned { fn_id, .. } => {
                let job = job_of(&self.fns, fn_id);
                let parent = self.causal.job_root.get(&job).copied().unwrap_or(none);
                let cause = self.causal.failure.remove(&fn_id).unwrap_or(none);
                self.causal.recovery.insert(fn_id, span);
                (parent, cause)
            }
            // Restore probing and migration planning happen between a
            // failure and its recovery plan; they hang off the open
            // failure span.
            TraceKind::CheckpointRestored { fn_id, .. }
            | TraceKind::CheckpointCorrupted { fn_id, .. }
            | TraceKind::RestoreFallback { fn_id, .. }
            | TraceKind::MigrationPlanned { fn_id, .. }
            | TraceKind::MigrationFallback { fn_id } => {
                let parent = self.causal.failure.get(&fn_id).copied().unwrap_or(none);
                (parent, none)
            }
            TraceKind::CheckpointWritten { fn_id, .. } => {
                let parent = self.causal.attempt.get(&fn_id).copied().unwrap_or(none);
                (parent, none)
            }
            TraceKind::CheckpointSkipped { fn_id, .. } => {
                let parent = self.causal.attempt.get(&fn_id).copied().unwrap_or(none);
                (parent, self.causal.last_store_outage)
            }
            TraceKind::StragglerInjected { fn_id, .. } => {
                let parent = self.causal.attempt.get(&fn_id).copied().unwrap_or(none);
                (parent, none)
            }
            TraceKind::WarmPoolSpawned { container, .. } => {
                self.causal.pool.insert(container, span);
                (none, self.causal.fault_context)
            }
            TraceKind::WarmPoolReady { container } => {
                let parent = self.causal.pool.get(&container).copied().unwrap_or(none);
                (parent, none)
            }
            TraceKind::ReplicaConsumed { container, fn_id } => {
                let parent = self.causal.recovery.get(&fn_id).copied().unwrap_or(none);
                let cause = self.causal.pool.remove(&container).unwrap_or(none);
                (parent, cause)
            }
            TraceKind::ReplicaRefreshed { .. } => (none, self.causal.fault_context),
            TraceKind::NodeFailed { .. } => {
                self.causal.fault_context = span;
                (none, none)
            }
            TraceKind::PartitionStarted { a, b } => {
                self.causal.partition.insert((a, b), span);
                (none, none)
            }
            TraceKind::PartitionHealed { a, b } => {
                let cause = self.causal.partition.remove(&(a, b)).unwrap_or(none);
                (none, cause)
            }
            TraceKind::NetworkDegraded { .. } => {
                self.causal.degrade = span;
                (none, none)
            }
            TraceKind::NetworkRestored => {
                let cause = self.causal.degrade;
                self.causal.degrade = none;
                (none, cause)
            }
            TraceKind::StoreOutage { member } => {
                self.causal.store.insert(member, span);
                self.causal.last_store_outage = span;
                (none, none)
            }
            TraceKind::StoreRejoined { member } => {
                let cause = self.causal.store.remove(&member).unwrap_or(none);
                if self.causal.store.is_empty() {
                    self.causal.last_store_outage = none;
                }
                (none, cause)
            }
            TraceKind::ControllerCrashed => {
                // The recovery emitted while handling the crash blames
                // this span via the fault context, exactly like node
                // failures; the engine closes it after the handler.
                self.causal.fault_context = span;
                (none, none)
            }
            TraceKind::ControllerRecovered { .. } => (none, self.causal.fault_context),
        };
        (span, parent, cause)
    }

    /// Record that `job`'s upcoming arrival was triggered by the span
    /// `cause` (the prerequisite job's completion).
    pub(super) fn causal_note_arrival_cause(&mut self, job: JobId, cause: SpanId) {
        if self.config.causal && cause.is_some() {
            self.causal.arrival_cause.insert(job, cause);
        }
    }

    /// Close the fault context opened by a `NodeFailed` emit once its
    /// handler finishes.
    pub(super) fn causal_clear_fault_context(&mut self) {
        self.causal.fault_context = SpanId::NONE;
    }
}
