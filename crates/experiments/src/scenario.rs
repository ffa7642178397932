//! Shared experiment machinery: strategy factory, repeated runs, and the
//! evaluation's common parameters.

use crate::sweep::parallel_map;
use canary_baselines::{
    ActiveStandbyStrategy, IdealStrategy, RequestReplicationStrategy, RetryStrategy,
};
use canary_cluster::{ChaosSpec, Cluster, FailureModel};
use canary_core::{CanaryConfig, CanaryStrategy, ReplicationStrategyKind};
use canary_metrics::{PricingModel, Repeated};
use canary_platform::{run, FtStrategy, JobSpec, RunConfig, RunResult};

/// The error rates the paper sweeps (§V-B: 1% to 50%).
pub const ERROR_RATES: [f64; 6] = [0.01, 0.05, 0.10, 0.15, 0.25, 0.50];

/// Pricing used everywhere (IBM Cloud Functions, §V-D.4).
pub const PRICING: PricingModel = PricingModel::IBM_CLOUD;

/// Which strategy to instantiate for a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StrategyKind {
    /// Failure-free reference.
    Ideal,
    /// Default retry.
    Retry,
    /// Canary with the given replication policy.
    Canary(ReplicationStrategyKind),
    /// Canary (dynamic replication) with live migration on node crashes:
    /// manifest-reachable state moves to the warm replica instead of a
    /// full rerun-from-checkpoint (DESIGN.md §14).
    CanaryMigrate,
    /// Request replication with the given instance count.
    RequestReplication(u32),
    /// Active-standby.
    ActiveStandby,
}

impl StrategyKind {
    /// Series label for figures.
    pub fn label(&self) -> String {
        match self {
            StrategyKind::Ideal => "Ideal".into(),
            StrategyKind::Retry => "Retry".into(),
            StrategyKind::Canary(ReplicationStrategyKind::Dynamic) => "Canary".into(),
            StrategyKind::Canary(k) => format!("Canary-{}", k.label()),
            StrategyKind::CanaryMigrate => "Canary-Migrate".into(),
            StrategyKind::RequestReplication(_) => "RR".into(),
            StrategyKind::ActiveStandby => "AS".into(),
        }
    }

    /// The configuration of a Canary kind, `None` for the baselines:
    /// the one place a Canary kind's config is built.
    pub fn canary_config(&self) -> Option<CanaryConfig> {
        match self {
            StrategyKind::Canary(k) => Some(CanaryConfig::with_replication(*k)),
            StrategyKind::CanaryMigrate => {
                let mut config = CanaryConfig::with_replication(ReplicationStrategyKind::Dynamic);
                config.migrate = true;
                Some(config)
            }
            _ => None,
        }
    }

    /// Instantiate a fresh strategy object.
    pub fn build(&self) -> Box<dyn FtStrategy + Send> {
        match self {
            StrategyKind::Ideal => Box::new(IdealStrategy::new()),
            StrategyKind::Retry => Box::new(RetryStrategy::new()),
            StrategyKind::Canary(_) | StrategyKind::CanaryMigrate => Box::new(CanaryStrategy::new(
                self.canary_config()
                    .expect("a Canary kind has a Canary config"),
            )),
            StrategyKind::RequestReplication(n) => Box::new(RequestReplicationStrategy::new(*n)),
            StrategyKind::ActiveStandby => Box::new(ActiveStandbyStrategy::new()),
        }
    }
}

/// What one run records besides its outcome. Observation only: the
/// simulated run is the same whatever is observed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Observe {
    /// Record the execution trace and the telemetry snapshot.
    pub trace: bool,
    /// Thread causal span/parent/cause links through the trace (only
    /// recorded with `trace`).
    pub causal: bool,
    /// Profile the engine's own hot path.
    pub profile: bool,
}

impl Observe {
    /// Record nothing (the sweeps).
    pub const NONE: Observe = Observe {
        trace: false,
        causal: false,
        profile: false,
    };
    /// Trace and telemetry.
    pub const TRACE: Observe = Observe {
        trace: true,
        ..Observe::NONE
    };
    /// Trace, telemetry, causal links and the hot-path profiler.
    pub const ALL: Observe = Observe {
        trace: true,
        causal: true,
        profile: true,
    };
}

/// One experiment point: a cluster / failure configuration plus the jobs.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Cluster size (heterogeneous nodes, as on the testbed).
    pub nodes: u32,
    /// Error rate (forced to 0 for the ideal strategy).
    pub error_rate: f64,
    /// Node-failure probability per node (Fig. 11 only).
    pub node_failure_rate: f64,
    /// Horizon for node-failure placement, seconds.
    pub node_failure_horizon_s: u64,
    /// Chaos fault plan: partitions, store outages, degradation, bursts,
    /// stragglers, corruption (empty for plain sweeps; forced empty for
    /// the ideal strategy).
    pub chaos: ChaosSpec,
    /// Admission-gate cap on concurrently inflight function invocations
    /// (`None` = closed-batch behavior: everything admitted at arrival).
    pub max_inflight: Option<u32>,
    /// The submitted jobs.
    pub jobs: Vec<JobSpec>,
}

impl Scenario {
    /// A 16-node scenario with the given failure rate and jobs.
    pub fn chameleon(error_rate: f64, jobs: Vec<JobSpec>) -> Self {
        Scenario {
            nodes: 16,
            error_rate,
            node_failure_rate: 0.0,
            node_failure_horizon_s: 1_200,
            chaos: ChaosSpec::default(),
            max_inflight: None,
            jobs,
        }
    }

    fn config(&self, strategy: StrategyKind, seed: u64, observe: Observe) -> RunConfig {
        // The ideal scenario is defined as failure-free (§V-B).
        let (rate, node_rate) = if strategy == StrategyKind::Ideal {
            (0.0, 0.0)
        } else {
            (self.error_rate, self.node_failure_rate)
        };
        let failure = FailureModel::with_error_rate(rate).with_node_failures(node_rate);
        let mut cfg = RunConfig::new(Cluster::heterogeneous(self.nodes), failure, seed);
        cfg.node_failure_horizon = canary_sim::SimDuration::from_secs(self.node_failure_horizon_s);
        cfg.trace = observe.trace;
        cfg.telemetry = observe.trace;
        cfg.causal = observe.causal;
        cfg.profile = observe.profile;
        cfg.max_inflight = self.max_inflight;
        if strategy != StrategyKind::Ideal {
            cfg.chaos = self.chaos.clone();
        }
        cfg
    }

    /// Run once with the given strategy and seed, recording what
    /// `observe` asks for.
    pub fn run(&self, kind: StrategyKind, seed: u64, observe: Observe) -> RunResult {
        self.run_with(kind, seed, observe, kind.build().as_mut())
    }

    /// Like [`Scenario::run`], but driving a caller-built strategy
    /// object, so state the strategy keeps after the run — e.g. the
    /// Canary metadata db and its write-ahead log — can be read. `kind`
    /// must match the strategy for the config (the ideal kind forces a
    /// failure-free run).
    pub fn run_with(
        &self,
        kind: StrategyKind,
        seed: u64,
        observe: Observe,
        strategy: &mut dyn FtStrategy,
    ) -> RunResult {
        run(
            self.config(kind, seed, observe),
            self.jobs.clone(),
            strategy,
        )
    }

    /// Run `reps` repetitions in parallel (distinct seeds) and aggregate.
    pub fn run_repeated(&self, strategy: StrategyKind, reps: u64) -> Repeated {
        let runs: Vec<RunResult> = parallel_map((0..reps).collect(), |rep| {
            self.run(strategy, 1000 + rep * 7919, Observe::NONE)
        });
        Repeated::from_runs(&runs, PRICING)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use canary_workloads::WorkloadSpec;

    fn jobs() -> Vec<JobSpec> {
        vec![JobSpec::new(WorkloadSpec::web_service(10), 30)]
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(StrategyKind::Ideal.label(), "Ideal");
        assert_eq!(
            StrategyKind::Canary(ReplicationStrategyKind::Dynamic).label(),
            "Canary"
        );
        assert_eq!(
            StrategyKind::Canary(ReplicationStrategyKind::Aggressive).label(),
            "Canary-AR"
        );
        assert_eq!(StrategyKind::RequestReplication(2).label(), "RR");
    }

    #[test]
    fn ideal_strategy_forces_zero_failures() {
        let s = Scenario::chameleon(0.5, jobs());
        let r = s.run(StrategyKind::Ideal, 1, Observe::NONE);
        assert_eq!(r.counters.function_failures, 0);
    }

    #[test]
    fn repeated_runs_aggregate() {
        let s = Scenario::chameleon(0.15, jobs());
        let rep = s.run_repeated(StrategyKind::Retry, 4);
        assert_eq!(rep.repetitions(), 4);
        assert!(rep.makespan().mean > 0.0);
    }

    #[test]
    fn every_strategy_kind_completes() {
        let s = Scenario::chameleon(0.2, jobs());
        for kind in [
            StrategyKind::Ideal,
            StrategyKind::Retry,
            StrategyKind::Canary(ReplicationStrategyKind::Dynamic),
            StrategyKind::Canary(ReplicationStrategyKind::Aggressive),
            StrategyKind::Canary(ReplicationStrategyKind::Lenient),
            StrategyKind::CanaryMigrate,
            StrategyKind::RequestReplication(2),
            StrategyKind::ActiveStandby,
        ] {
            let r = s.run(kind, 5, Observe::NONE);
            assert_eq!(r.completed_count(), 30, "{kind:?}");
        }
    }
}
