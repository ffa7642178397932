//! The pluggable fault-tolerance interface.
//!
//! The engine executes jobs and injects failures; *how* a failure is
//! survived is the strategy's business. The default retry baseline, the
//! request-replication (RR) and active-standby (AS) baselines, and Canary
//! itself all implement [`FtStrategy`]; the engine is identical across
//! them, so measured differences are attributable to the strategy alone —
//! mirroring how the paper swaps recovery strategies on one OpenWhisk
//! deployment.

use crate::engine::Platform;
use crate::ids::{FnId, JobId};
use canary_cluster::{FaultEvent, NodeId};
use canary_container::ContainerId;
use canary_sim::{SimDuration, SimTime};

/// What killed the function attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// The container hosting the attempt was killed (function-level
    /// failure, the paper's random container kill).
    ContainerKill,
    /// The whole node crashed (Fig. 11's node-level failures).
    NodeCrash,
    /// A planned warm resume found its target container gone.
    ResumeTargetLost,
}

/// Failure context handed to [`FtStrategy::on_failure`].
#[derive(Debug, Clone, Copy)]
pub struct FailureInfo {
    /// What happened.
    pub kind: FailureKind,
    /// When the kill occurred.
    pub at: SimTime,
    /// Node that hosted the attempt.
    pub node: NodeId,
    /// Attempt number that died (0-based).
    pub attempt: u32,
    /// Index of the first state NOT yet completed in the dead attempt
    /// (volatile progress; what a perfect resume would continue from).
    pub volatile_state: u32,
}

/// A strategy's verdict on an arriving job (§IV-C.2 request validation).
///
/// The engine owns the FIFO admission queue and the concurrency gate
/// ([`crate::RunConfig::max_inflight`]); the verdict lets a strategy's
/// own validator reject a request outright or hold it even when the
/// engine-level gate would pass it. `Reject` is authoritative; `Queue`
/// is honored in addition to the engine's own gate; `Admit` defers to
/// the gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalVerdict {
    /// No objection: admit unless the engine's concurrency gate queues it.
    Admit,
    /// Hold the job in the admission queue until capacity frees up.
    Queue,
    /// Refuse the request; its functions never run.
    Reject,
}

/// Where the recovered attempt runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryTarget {
    /// Launch a fresh container through the controller (placement chosen
    /// by the load balancer at launch time). Pays the cold start.
    FreshContainer,
    /// Resume on an existing warm container (a Canary replicated runtime
    /// or an AS standby). No cold start.
    WarmContainer(ContainerId),
}

/// A strategy's decision after a failure.
#[derive(Debug, Clone, Copy)]
pub struct RecoveryPlan {
    /// State index to resume execution from (0 for stateless retry;
    /// the latest checkpointed state for Canary).
    pub resume_from_state: u32,
    /// Delay before the recovery action begins: failure detection plus
    /// any restore / migration / wait-for-replica time the strategy
    /// incurs. The engine acts at `failure.at + delay`.
    pub delay: SimDuration,
    /// Where to run.
    pub target: RecoveryTarget,
    /// Informational: the failure-detection share of `delay`. Recorded
    /// in the trace's `RecoveryPlanned` event so the timeline renderer
    /// can break recovery into detect → restore → resume; the engine's
    /// timing uses only `delay`.
    pub detect: SimDuration,
    /// Informational: the checkpoint-restore share of `delay` (zero for
    /// strategies that restart from scratch).
    pub restore: SimDuration,
}

/// A pluggable fault-tolerance strategy.
///
/// All callbacks receive the platform so strategies can inspect state and
/// create replica containers; the engine guarantees callbacks are invoked
/// in nondecreasing simulation-time order.
pub trait FtStrategy {
    /// Human-readable name (used as the series label in figures).
    fn name(&self) -> String;

    /// A job's request arrived (client submission, before admission).
    /// Canary's Request Validator produces its verdict here against the
    /// real in-flight load; the engine then applies the verdict together
    /// with its own concurrency gate. Default: no objection.
    fn on_job_arrival(&mut self, _platform: &mut Platform, _job: JobId) -> ArrivalVerdict {
        ArrivalVerdict::Admit
    }

    /// A job was admitted; Canary's Replication Module launches runtime
    /// replicas here (Algorithm 2 runs at job submission).
    fn on_job_admitted(&mut self, _platform: &mut Platform, _job: JobId) {}

    /// Parallel clones per attempt (1 for everything except request
    /// replication). Clone 0 is the primary; durable-state callbacks are
    /// only delivered for single-clone strategies.
    fn attempt_clones(&self, _platform: &Platform, _fn_id: FnId) -> u32 {
        1
    }

    /// Extra time appended to state `state_idx`'s execution for
    /// checkpointing (Algorithm 1's `ckp_i`). Must be pure: the engine
    /// calls it when planning an attempt's timeline.
    fn state_overhead(&self, _platform: &Platform, _fn_id: FnId, _state_idx: u32) -> SimDuration {
        SimDuration::ZERO
    }

    /// State `state_idx` completed (and, if the strategy checkpoints, its
    /// checkpoint is durable) at time `at`. Single-clone strategies only.
    fn on_state_durable(
        &mut self,
        _platform: &mut Platform,
        _fn_id: FnId,
        _state_idx: u32,
        _at: SimTime,
    ) {
    }

    /// An attempt died; decide how to recover. This is the heart of each
    /// strategy.
    fn on_failure(
        &mut self,
        platform: &mut Platform,
        fn_id: FnId,
        failure: FailureInfo,
    ) -> RecoveryPlan;

    /// A chaos fault event fired (store outage/rejoin, partition,
    /// network degradation). The engine has already emitted the trace
    /// event and bumped the counters; strategies that own stateful
    /// dependencies react here (Canary fails/rejoins its replicated DB
    /// members). Node-burst crashes are delivered through the regular
    /// node-failure path instead, so most strategies need no override.
    fn on_chaos(&mut self, _platform: &mut Platform, _fault: &FaultEvent) {}

    /// A replica container the strategy created reached the `Warm` state.
    fn on_replica_warm(&mut self, _platform: &mut Platform, _container: ContainerId) {}

    /// Containers tracked by the strategy were lost to a node crash.
    fn on_containers_lost(&mut self, _platform: &mut Platform, _lost: &[ContainerId]) {}

    /// A function completed successfully.
    fn on_function_complete(&mut self, _platform: &mut Platform, _fn_id: FnId) {}

    /// The run drained; final cleanup (replica teardown accounting).
    fn on_run_end(&mut self, _platform: &mut Platform) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovery_plan_is_copyable() {
        let p = RecoveryPlan {
            resume_from_state: 3,
            delay: SimDuration::from_secs(1),
            target: RecoveryTarget::FreshContainer,
            detect: SimDuration::from_secs(1),
            restore: SimDuration::ZERO,
        };
        let q = p;
        assert_eq!(q.resume_from_state, p.resume_from_state);
        assert_eq!(q.target, RecoveryTarget::FreshContainer);
    }
}
