//! Execution traces: an opt-in, time-ordered log of platform events.
//!
//! Enabled via [`crate::RunConfig::trace`]; the engine then records every
//! noteworthy transition (job admission and validator queueing, attempt
//! starts, failures, recovery plans, checkpoint writes/restores, replica
//! lifecycle, node crashes) into the run result. Traces make recovery
//! behaviour inspectable — e.g. asserting that a failure is followed by a
//! warm resume on a replica — and feed the swimlane renderer in
//! `canary_metrics::timeline` as well as the JSONL exporter in
//! `canary_experiments::export`. Aggregate latency statistics live in the
//! companion [`crate::telemetry`] layer.

use crate::ids::{FnId, JobId};
use crate::strategy::RecoveryTarget;
use canary_cluster::{NodeId, StorageTier};
use canary_container::ContainerId;
use canary_sim::{SimDuration, SimTime};
use std::fmt;

/// Identity of one trace span. Every emitted [`TraceEvent`] gets a fresh
/// `SpanId` at emit time when [`crate::RunConfig::causal`] is on; the id
/// `0` is reserved as the "no span" sentinel so that links stay `Copy`
/// and cost nothing to carry when causal observation is off.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SpanId(pub u64);

impl SpanId {
    /// The "no span / no link" sentinel.
    pub const NONE: SpanId = SpanId(0);

    /// True for the sentinel value.
    pub fn is_none(self) -> bool {
        self.0 == 0
    }

    /// True for a real span id.
    pub fn is_some(self) -> bool {
        self.0 != 0
    }
}

impl fmt::Display for SpanId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "span{}", self.0)
    }
}

/// What happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// A job's request arrived at the platform (client submission). Under
    /// open-loop load this precedes admission — the gap to the matching
    /// [`TraceKind::JobSubmitted`] is the job's queue wait.
    JobArrived {
        /// The job.
        job: JobId,
    },
    /// A job was admitted by the controller.
    JobSubmitted {
        /// The job.
        job: JobId,
    },
    /// A function attempt began executing.
    AttemptStarted {
        /// The function.
        fn_id: FnId,
        /// Attempt number (1-based).
        attempt: u32,
        /// Hosting node.
        node: NodeId,
        /// True when resumed on a warm container.
        warm: bool,
    },
    /// An attempt was killed.
    AttemptFailed {
        /// The function.
        fn_id: FnId,
        /// Attempt number that died.
        attempt: u32,
        /// Node it died on.
        node: NodeId,
    },
    /// A function completed.
    FunctionCompleted {
        /// The function.
        fn_id: FnId,
    },
    /// A replica/standby container was created.
    WarmPoolSpawned {
        /// The container.
        container: ContainerId,
        /// Node hosting it.
        node: NodeId,
    },
    /// A replica/standby finished its cold start.
    WarmPoolReady {
        /// The container.
        container: ContainerId,
    },
    /// A node crashed.
    NodeFailed {
        /// The node.
        node: NodeId,
    },
    /// A checkpoint became durable on a storage tier.
    CheckpointWritten {
        /// The function whose state was checkpointed.
        fn_id: FnId,
        /// State index the checkpoint covers.
        state: u32,
        /// Serialized payload size.
        bytes: u64,
        /// Tier it landed on.
        tier: StorageTier,
        /// Synchronous write cost charged to the attempt's execution
        /// timeline. Recorded only under [`crate::RunConfig::causal`]
        /// (zero otherwise) so critical-path blame can split an attempt's
        /// wall time into exec vs checkpoint components.
        cost: SimDuration,
    },
    /// A checkpoint was read back during recovery.
    CheckpointRestored {
        /// The recovering function.
        fn_id: FnId,
        /// State index execution resumes from.
        state: u32,
        /// Payload size read.
        bytes: u64,
        /// Tier it was read from.
        tier: StorageTier,
    },
    /// The validator parked a job in its admission queue.
    JobQueued {
        /// The job.
        job: JobId,
    },
    /// The validator released a queued job for execution.
    JobDequeued {
        /// The job.
        job: JobId,
    },
    /// The validator rejected a job outright.
    JobRejected {
        /// The job.
        job: JobId,
    },
    /// A warm replica was consumed by a recovery.
    ReplicaConsumed {
        /// The container now hosting the function.
        container: ContainerId,
        /// The recovered function.
        fn_id: FnId,
    },
    /// Pool reconciliation refreshed a runtime's replica pool after a
    /// loss or demand change.
    ReplicaRefreshed {
        /// Replicas spawned this round.
        spawned: u32,
        /// Surplus idle replicas reclaimed this round.
        reclaimed: u32,
    },
    /// The strategy issued a recovery plan for a failed attempt.
    RecoveryPlanned {
        /// The failed function.
        fn_id: FnId,
        /// Where the recovered attempt runs.
        target: RecoveryTarget,
        /// Failure-detection share of the recovery delay.
        detect: SimDuration,
        /// Restore share of the recovery delay.
        restore: SimDuration,
    },
    /// A chaos fault partitioned a node pair.
    PartitionStarted {
        /// One endpoint of the pair.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
    },
    /// A chaos node-pair partition healed.
    PartitionHealed {
        /// One endpoint of the pair.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
    },
    /// Cluster-wide network degradation began.
    NetworkDegraded {
        /// Slowdown in percent (250 = 2.5× slower).
        pct: u32,
    },
    /// Cluster-wide network degradation ended.
    NetworkRestored,
    /// A replicated-store member went down (checkpoint store/metadata DB).
    StoreOutage {
        /// Member index within the replica group.
        member: u32,
    },
    /// A previously-failed store member rejoined the replica group.
    StoreRejoined {
        /// Member index within the replica group.
        member: u32,
    },
    /// An attempt was slowed down by an injected straggler fault.
    StragglerInjected {
        /// The slowed function.
        fn_id: FnId,
        /// The slowed attempt (1-based).
        attempt: u32,
        /// Slowdown in percent (400 = 4× slower).
        pct: u32,
    },
    /// A retained checkpoint was found corrupted while probing for a
    /// restore point.
    CheckpointCorrupted {
        /// The recovering function.
        fn_id: FnId,
        /// The corrupted checkpoint.
        ckpt_id: u64,
    },
    /// A checkpoint write was dropped because the store was unavailable.
    CheckpointSkipped {
        /// The function whose checkpoint was lost.
        fn_id: FnId,
        /// State index the dropped checkpoint would have covered.
        state: u32,
    },
    /// A restore fell back past the newest checkpoint (state 0 means a
    /// full rerun from the start).
    RestoreFallback {
        /// The recovering function.
        fn_id: FnId,
        /// State index execution actually resumes from.
        state: u32,
    },
    /// The control plane's metadata substrate crashed: every in-memory
    /// copy is lost and the write in flight is torn mid-record.
    ControllerCrashed,
    /// The control plane restarted, rebuilding its metadata from the
    /// write-ahead log (snapshot + replayed records). With durability off
    /// both counts are 0 and the metadata is simply gone.
    ControllerRecovered {
        /// Rows loaded from the compacted snapshot.
        snapshot: u64,
        /// Log records replayed on top of the snapshot.
        replayed: u64,
        /// Whether a torn trailing record was found and discarded.
        torn: bool,
    },
    /// Live migration (DESIGN.md §14): a node crash is recovered by
    /// moving the function's manifest-reachable checkpoint state to a
    /// warm replica on a surviving node — only the chunks the replica
    /// lacks travel.
    MigrationPlanned {
        /// The migrating function.
        fn_id: FnId,
        /// The warm replica receiving the state.
        container: ContainerId,
        /// The checkpoint the replica resumes from.
        ckpt_id: u64,
        /// Chunks actually shipped (the delta).
        chunks: u32,
        /// Bytes actually shipped.
        bytes: u64,
    },
    /// Migration found no usable checkpoint (all retained ones corrupted
    /// or their rows lost): the warm replica reruns from the start.
    MigrationFallback {
        /// The function rerunning from state 0.
        fn_id: FnId,
    },
}

/// One trace record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// When it happened.
    pub at: SimTime,
    /// What happened.
    pub kind: TraceKind,
    /// This event's own span identity. [`SpanId::NONE`] unless the run
    /// recorded causal links ([`crate::RunConfig::causal`]).
    pub span: SpanId,
    /// Containment link: the span this event belongs under (a job root
    /// for its attempts, an attempt for its checkpoints, ...).
    pub parent: SpanId,
    /// Trigger link across trees: the earlier span that caused this event
    /// (a chaos fault for the attempts it killed, a recovery plan for the
    /// restarted attempt, ...).
    pub cause: SpanId,
}

impl TraceEvent {
    /// An event with no causal links (the pre-causal wire form).
    pub fn new(at: SimTime, kind: TraceKind) -> Self {
        TraceEvent {
            at,
            kind,
            span: SpanId::NONE,
            parent: SpanId::NONE,
            cause: SpanId::NONE,
        }
    }
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{:>10}] ", self.at.to_string())?;
        match self.kind {
            TraceKind::JobArrived { job } => write!(f, "arrive   {job}"),
            TraceKind::JobSubmitted { job } => write!(f, "submit   {job}"),
            TraceKind::AttemptStarted {
                fn_id,
                attempt,
                node,
                warm,
            } => write!(
                f,
                "start    {fn_id} attempt {attempt} on {node}{}",
                if warm { " (warm resume)" } else { "" }
            ),
            TraceKind::AttemptFailed {
                fn_id,
                attempt,
                node,
            } => write!(f, "FAIL     {fn_id} attempt {attempt} on {node}"),
            TraceKind::FunctionCompleted { fn_id } => write!(f, "complete {fn_id}"),
            TraceKind::WarmPoolSpawned { container, node } => {
                write!(f, "replica  {container} spawning on {node}")
            }
            TraceKind::WarmPoolReady { container } => write!(f, "replica  {container} warm"),
            TraceKind::NodeFailed { node } => write!(f, "NODE     {node} crashed"),
            TraceKind::CheckpointWritten {
                fn_id,
                state,
                bytes,
                tier,
                ..
            } => write!(f, "ckpt     {fn_id} state {state} ({bytes} B to {tier:?})"),
            TraceKind::CheckpointRestored {
                fn_id,
                state,
                bytes,
                tier,
            } => write!(
                f,
                "restore  {fn_id} from state {state} ({bytes} B from {tier:?})"
            ),
            TraceKind::JobQueued { job } => write!(f, "queue    {job} held by validator"),
            TraceKind::JobDequeued { job } => write!(f, "dequeue  {job} released by validator"),
            TraceKind::JobRejected { job } => write!(f, "REJECT   {job} by validator"),
            TraceKind::ReplicaConsumed { container, fn_id } => {
                write!(f, "consume  {container} by {fn_id}")
            }
            TraceKind::ReplicaRefreshed { spawned, reclaimed } => {
                write!(f, "refresh  pool +{spawned} -{reclaimed}")
            }
            TraceKind::RecoveryPlanned {
                fn_id,
                target,
                detect,
                restore,
            } => {
                write!(f, "plan     {fn_id} -> ")?;
                match target {
                    RecoveryTarget::FreshContainer => write!(f, "fresh container")?,
                    RecoveryTarget::WarmContainer(c) => write!(f, "warm {c}")?,
                }
                write!(f, " (detect {detect}, restore {restore})")
            }
            TraceKind::PartitionStarted { a, b } => {
                write!(f, "NET      {a} -x- {b} partitioned")
            }
            TraceKind::PartitionHealed { a, b } => write!(f, "net      {a} --- {b} healed"),
            TraceKind::NetworkDegraded { pct } => {
                write!(f, "NET      degraded ({pct}% slowdown)")
            }
            TraceKind::NetworkRestored => write!(f, "net      restored"),
            TraceKind::StoreOutage { member } => write!(f, "STORE    member {member} down"),
            TraceKind::StoreRejoined { member } => {
                write!(f, "store    member {member} rejoined")
            }
            TraceKind::StragglerInjected {
                fn_id,
                attempt,
                pct,
            } => write!(f, "straggle {fn_id} attempt {attempt} ({pct}% slowdown)"),
            TraceKind::CheckpointCorrupted { fn_id, ckpt_id } => {
                write!(f, "CORRUPT  {fn_id} ckpt {ckpt_id} unreadable")
            }
            TraceKind::CheckpointSkipped { fn_id, state } => {
                write!(f, "ckpt     {fn_id} state {state} SKIPPED (store down)")
            }
            TraceKind::RestoreFallback { fn_id, state } => {
                if state == 0 {
                    write!(f, "fallback {fn_id} rerun from start")
                } else {
                    write!(f, "fallback {fn_id} to state {state}")
                }
            }
            TraceKind::ControllerCrashed => {
                write!(f, "CTRL     control plane crashed (metadata lost)")
            }
            TraceKind::ControllerRecovered {
                snapshot,
                replayed,
                torn,
            } => {
                write!(
                    f,
                    "ctrl     recovered from WAL: {snapshot} snapshot rows + {replayed} records"
                )?;
                if torn {
                    write!(f, " (torn tail discarded)")?;
                }
                Ok(())
            }
            TraceKind::MigrationPlanned {
                fn_id,
                container,
                ckpt_id,
                chunks,
                bytes,
            } => write!(
                f,
                "migrate  {fn_id} -> warm {container} (ckpt {ckpt_id}, {chunks} chunks, {bytes} B delta)"
            ),
            TraceKind::MigrationFallback { fn_id } => {
                write!(f, "fallback {fn_id} migration found no usable ckpt")
            }
        }
    }
}

/// A recorded trace.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Events in simulation-time order.
    pub events: Vec<TraceEvent>,
}

impl Trace {
    /// All events concerning one function, in order.
    pub fn for_function(&self, fn_id: FnId) -> Vec<TraceEvent> {
        self.events
            .iter()
            .filter(|e| match e.kind {
                TraceKind::AttemptStarted { fn_id: f, .. }
                | TraceKind::AttemptFailed { fn_id: f, .. }
                | TraceKind::FunctionCompleted { fn_id: f } => f == fn_id,
                _ => false,
            })
            .copied()
            .collect()
    }

    /// Count events matching a predicate.
    pub fn count(&self, pred: impl Fn(&TraceKind) -> bool) -> usize {
        self.events.iter().filter(|e| pred(&e.kind)).count()
    }

    /// Render the trace (or its first `limit` lines) as text.
    pub fn render(&self, limit: usize) -> String {
        let mut out = String::new();
        for e in self.events.iter().take(limit) {
            out.push_str(&e.to_string());
            out.push('\n');
        }
        if self.events.len() > limit {
            out.push_str(&format!(
                "... ({} more events)\n",
                self.events.len() - limit
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(us: u64, kind: TraceKind) -> TraceEvent {
        TraceEvent::new(SimTime::from_micros(us), kind)
    }

    #[test]
    fn per_function_filter() {
        let trace = Trace {
            events: vec![
                ev(1, TraceKind::JobSubmitted { job: JobId(0) }),
                ev(
                    2,
                    TraceKind::AttemptStarted {
                        fn_id: FnId(1),
                        attempt: 1,
                        node: NodeId(0),
                        warm: false,
                    },
                ),
                ev(
                    3,
                    TraceKind::AttemptFailed {
                        fn_id: FnId(1),
                        attempt: 1,
                        node: NodeId(0),
                    },
                ),
                ev(4, TraceKind::FunctionCompleted { fn_id: FnId(2) }),
            ],
        };
        let f1 = trace.for_function(FnId(1));
        assert_eq!(f1.len(), 2);
        assert!(matches!(f1[1].kind, TraceKind::AttemptFailed { .. }));
        assert_eq!(trace.for_function(FnId(9)).len(), 0);
    }

    #[test]
    fn render_truncates() {
        let trace = Trace {
            events: (0..10)
                .map(|i| ev(i, TraceKind::NodeFailed { node: NodeId(0) }))
                .collect(),
        };
        let s = trace.render(3);
        assert_eq!(s.lines().count(), 4);
        assert!(s.contains("7 more events"));
    }

    #[test]
    fn display_formats() {
        let e = ev(
            1_500_000,
            TraceKind::AttemptStarted {
                fn_id: FnId(3),
                attempt: 2,
                node: NodeId(1),
                warm: true,
            },
        );
        let s = e.to_string();
        assert!(s.contains("fn3"));
        assert!(s.contains("warm resume"));
        assert!(s.contains("1.500s"));
    }

    /// Pin the rendered form of every variant: these lines are what
    /// operators read, and what doc examples and tests grep for.
    #[test]
    fn display_snapshot_for_every_variant() {
        let cases: Vec<(TraceKind, &str)> = vec![
            (TraceKind::JobArrived { job: JobId(0) }, "arrive   job0"),
            (TraceKind::JobSubmitted { job: JobId(0) }, "submit   job0"),
            (
                TraceKind::JobQueued { job: JobId(1) },
                "queue    job1 held by validator",
            ),
            (
                TraceKind::JobDequeued { job: JobId(1) },
                "dequeue  job1 released by validator",
            ),
            (
                TraceKind::JobRejected { job: JobId(2) },
                "REJECT   job2 by validator",
            ),
            (
                TraceKind::AttemptStarted {
                    fn_id: FnId(3),
                    attempt: 1,
                    node: NodeId(4),
                    warm: false,
                },
                "start    fn3 attempt 1 on node4",
            ),
            (
                TraceKind::AttemptStarted {
                    fn_id: FnId(3),
                    attempt: 2,
                    node: NodeId(5),
                    warm: true,
                },
                "start    fn3 attempt 2 on node5 (warm resume)",
            ),
            (
                TraceKind::AttemptFailed {
                    fn_id: FnId(3),
                    attempt: 1,
                    node: NodeId(4),
                },
                "FAIL     fn3 attempt 1 on node4",
            ),
            (
                TraceKind::FunctionCompleted { fn_id: FnId(3) },
                "complete fn3",
            ),
            (
                TraceKind::NodeFailed { node: NodeId(4) },
                "NODE     node4 crashed",
            ),
            (
                TraceKind::CheckpointWritten {
                    fn_id: FnId(3),
                    state: 7,
                    bytes: 4096,
                    tier: StorageTier::Ramdisk,
                    cost: SimDuration::ZERO,
                },
                "ckpt     fn3 state 7 (4096 B to Ramdisk)",
            ),
            (
                TraceKind::CheckpointRestored {
                    fn_id: FnId(3),
                    state: 7,
                    bytes: 4096,
                    tier: StorageTier::Nfs,
                },
                "restore  fn3 from state 7 (4096 B from Nfs)",
            ),
            (
                TraceKind::WarmPoolSpawned {
                    container: ContainerId(9),
                    node: NodeId(2),
                },
                "replica  ctr9 spawning on node2",
            ),
            (
                TraceKind::WarmPoolReady {
                    container: ContainerId(9),
                },
                "replica  ctr9 warm",
            ),
            (
                TraceKind::ReplicaConsumed {
                    container: ContainerId(9),
                    fn_id: FnId(3),
                },
                "consume  ctr9 by fn3",
            ),
            (
                TraceKind::ReplicaRefreshed {
                    spawned: 2,
                    reclaimed: 1,
                },
                "refresh  pool +2 -1",
            ),
            (
                TraceKind::RecoveryPlanned {
                    fn_id: FnId(3),
                    target: RecoveryTarget::FreshContainer,
                    detect: SimDuration::from_millis(500),
                    restore: SimDuration::from_millis(25),
                },
                "plan     fn3 -> fresh container (detect 0.500s, restore 0.025s)",
            ),
            (
                TraceKind::RecoveryPlanned {
                    fn_id: FnId(3),
                    target: RecoveryTarget::WarmContainer(ContainerId(9)),
                    detect: SimDuration::from_millis(500),
                    restore: SimDuration::from_millis(25),
                },
                "plan     fn3 -> warm ctr9 (detect 0.500s, restore 0.025s)",
            ),
            (
                TraceKind::PartitionStarted {
                    a: NodeId(0),
                    b: NodeId(3),
                },
                "NET      node0 -x- node3 partitioned",
            ),
            (
                TraceKind::PartitionHealed {
                    a: NodeId(0),
                    b: NodeId(3),
                },
                "net      node0 --- node3 healed",
            ),
            (
                TraceKind::NetworkDegraded { pct: 250 },
                "NET      degraded (250% slowdown)",
            ),
            (TraceKind::NetworkRestored, "net      restored"),
            (
                TraceKind::StoreOutage { member: 1 },
                "STORE    member 1 down",
            ),
            (
                TraceKind::StoreRejoined { member: 1 },
                "store    member 1 rejoined",
            ),
            (
                TraceKind::StragglerInjected {
                    fn_id: FnId(3),
                    attempt: 2,
                    pct: 400,
                },
                "straggle fn3 attempt 2 (400% slowdown)",
            ),
            (
                TraceKind::CheckpointCorrupted {
                    fn_id: FnId(3),
                    ckpt_id: 7,
                },
                "CORRUPT  fn3 ckpt 7 unreadable",
            ),
            (
                TraceKind::CheckpointSkipped {
                    fn_id: FnId(3),
                    state: 7,
                },
                "ckpt     fn3 state 7 SKIPPED (store down)",
            ),
            (
                TraceKind::RestoreFallback {
                    fn_id: FnId(3),
                    state: 2,
                },
                "fallback fn3 to state 2",
            ),
            (
                TraceKind::RestoreFallback {
                    fn_id: FnId(3),
                    state: 0,
                },
                "fallback fn3 rerun from start",
            ),
            (
                TraceKind::MigrationPlanned {
                    fn_id: FnId(3),
                    container: ContainerId(9),
                    ckpt_id: 7,
                    chunks: 4,
                    bytes: 256,
                },
                "migrate  fn3 -> warm ctr9 (ckpt 7, 4 chunks, 256 B delta)",
            ),
            (
                TraceKind::MigrationFallback { fn_id: FnId(3) },
                "fallback fn3 migration found no usable ckpt",
            ),
        ];
        for (kind, expect) in cases {
            let line = ev(2_000_000, kind).to_string();
            assert_eq!(
                line,
                format!("[{:>10}] {expect}", "2.000s"),
                "snapshot mismatch for {kind:?}"
            );
        }
    }

    #[test]
    fn count_predicate() {
        let trace = Trace {
            events: vec![
                ev(1, TraceKind::NodeFailed { node: NodeId(0) }),
                ev(2, TraceKind::NodeFailed { node: NodeId(1) }),
                ev(3, TraceKind::FunctionCompleted { fn_id: FnId(0) }),
            ],
        };
        assert_eq!(
            trace.count(|k| matches!(k, TraceKind::NodeFailed { .. })),
            2
        );
    }
}
