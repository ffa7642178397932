//! Run configuration.

use canary_cluster::{ChaosSpec, Cluster, FailureModel, NetworkModel, StorageHierarchy};
use canary_sim::SimDuration;

/// Everything that defines one simulated run besides the jobs and the
/// strategy.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The cluster to run on.
    pub cluster: Cluster,
    /// Interconnect model.
    pub network: NetworkModel,
    /// Checkpoint storage hierarchy.
    pub storage: StorageHierarchy,
    /// Failure injection model.
    pub failure: FailureModel,
    /// Chaos fault plan beyond plain kills: partitions, store outages,
    /// network degradation, bursts, stragglers, checkpoint corruption.
    /// Empty by default.
    pub chaos: ChaosSpec,
    /// Master seed; every random decision derives from it.
    pub seed: u64,
    /// Serialized controller admission overhead per cold function launch
    /// (the OpenWhisk controller + CouchDB round trip). This is the
    /// cluster-size-independent term that bounds batch scalability in
    /// Fig. 12.
    pub admission_delay: SimDuration,
    /// Failure-detection latency of the platform's health checks for the
    /// default (retry) path.
    pub detection_delay: SimDuration,
    /// Horizon within which planned node failures are drawn (experiments
    /// set this near the expected makespan).
    pub node_failure_horizon: SimDuration,
    /// Backoff before re-attempting placement when the cluster has no
    /// free slot.
    pub placement_backoff: SimDuration,
    /// Account-level concurrency cap on simultaneously admitted function
    /// invocations (§IV-C.2's concurrency quota). Arriving jobs that
    /// would exceed it wait in the engine's FIFO admission queue until
    /// running functions complete; jobs larger than the cap by themselves
    /// are rejected at arrival. `None` (the default) admits every job
    /// immediately, reproducing the closed-batch behaviour.
    pub max_inflight: Option<u32>,
    /// Record an execution trace into the result (off by default; traces
    /// of large batches are big).
    pub trace: bool,
    /// Record phase latency histograms and counter rows into the
    /// result (off by default). Telemetry observes simulation time only
    /// and never perturbs the simulated timeline: a run with telemetry
    /// on produces the same outcomes as the same run with it off.
    pub telemetry: bool,
    /// Assign causal span ids and `parent`/`cause` links to every trace
    /// event at emit time (off by default; requires `trace`). Causal
    /// observation never perturbs the simulated timeline, and with it off
    /// trace output is byte-identical to the pre-causal format.
    pub causal: bool,
    /// Profile the engine's own hot path: per-event-kind dispatch counts,
    /// cumulative wall-clock handler cost (host time, not simulated
    /// time), and allocation counts when an allocator hook is installed
    /// (off by default). Purely observational.
    pub profile: bool,
}

impl RunConfig {
    /// Reasonable defaults on the given cluster with the given failure
    /// model and seed.
    pub fn new(cluster: Cluster, failure: FailureModel, seed: u64) -> Self {
        RunConfig {
            cluster,
            network: NetworkModel::default(),
            storage: StorageHierarchy::default(),
            failure,
            chaos: ChaosSpec::default(),
            seed,
            admission_delay: SimDuration::from_millis(100),
            detection_delay: SimDuration::from_millis(1_000),
            node_failure_horizon: SimDuration::from_secs(1_200),
            placement_backoff: SimDuration::from_millis(500),
            max_inflight: None,
            trace: false,
            telemetry: false,
            causal: false,
            profile: false,
        }
    }

    /// Validate cross-field consistency.
    pub fn validate(&self) -> Result<(), String> {
        self.storage.validate()?;
        if self.cluster.is_empty() {
            return Err("empty cluster".into());
        }
        if !(0.0..=1.0).contains(&self.failure.error_rate) {
            return Err(format!(
                "error rate {} out of range",
                self.failure.error_rate
            ));
        }
        if self.max_inflight == Some(0) {
            return Err("max_inflight of 0 can never admit a job".into());
        }
        if self.causal && !self.trace {
            return Err("causal span links require trace to be enabled".into());
        }
        self.chaos.validate()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        let cfg = RunConfig::new(
            Cluster::chameleon_16(),
            FailureModel::with_error_rate(0.15),
            1,
        );
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn bad_storage_detected() {
        let mut cfg = RunConfig::new(Cluster::homogeneous(2), FailureModel::default(), 1);
        cfg.storage.spill_tiers.clear();
        assert!(cfg.validate().is_err());
    }
}
