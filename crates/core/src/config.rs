//! Canary configuration.

use canary_sim::SimDuration;

/// Runtime-replication policy (§V-D.4 / Fig. 9).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReplicationStrategyKind {
    /// Dynamic replication — Canary's default: the replication factor
    /// follows the observed failure rate.
    Dynamic,
    /// Aggressive replication: a high fixed fraction of active functions.
    Aggressive,
    /// Lenient replication: one active replica per runtime in use.
    Lenient,
}

impl ReplicationStrategyKind {
    /// Label used in figures.
    pub fn label(self) -> &'static str {
        match self {
            ReplicationStrategyKind::Dynamic => "DR",
            ReplicationStrategyKind::Aggressive => "AR",
            ReplicationStrategyKind::Lenient => "LR",
        }
    }

    /// Database ordinal.
    pub fn ordinal(self) -> u8 {
        match self {
            ReplicationStrategyKind::Dynamic => 0,
            ReplicationStrategyKind::Aggressive => 1,
            ReplicationStrategyKind::Lenient => 2,
        }
    }
}

/// Checkpointing mode (§IV-C.4b).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CheckpointMode {
    /// Implicit: Canary checkpoints every registered state with
    /// coarse-grained control — the default.
    Implicit,
    /// Explicit: the application marks its own state and critical data,
    /// shrinking the checkpoint payload at the cost of programming
    /// complexity.
    Explicit,
}

/// Full Canary configuration.
#[derive(Debug, Clone)]
pub struct CanaryConfig {
    /// Replication policy.
    pub replication: ReplicationStrategyKind,
    /// Checkpointing mode.
    pub checkpoint_mode: CheckpointMode,
    /// Fraction of the implicit checkpoint payload written in explicit
    /// mode (the application knows what is truly critical).
    pub explicit_size_factor: f64,
    /// Latest-n checkpoint window (initially 3, dynamically adjusted).
    pub ckpt_window: usize,
    /// Canary's failure-detection latency: the Core Module actively
    /// tracks function state, so it detects kills faster than the
    /// platform's generic health checks.
    pub detection_delay: SimDuration,
    /// Time to migrate a failed function onto a replicated runtime.
    pub migration_delay: SimDuration,
    /// Aggressive replication: replicas per active function.
    pub aggressive_factor: f64,
    /// Dynamic replication: fraction of the observed failure volume the
    /// pool must absorb *concurrently*. Failures arrive spread over the
    /// run and each replica is replaced after consumption, so the pool
    /// only needs to cover near-simultaneous failures, not the cumulative
    /// count.
    pub dynamic_headroom: f64,
    /// Dynamic replication: lower bound on the assumed failure rate until
    /// real failures are observed.
    pub dynamic_min_rate: f64,
    /// Upper bound on replicas per runtime (cost guard).
    pub max_replicas_per_runtime: usize,
    /// Proactive failure prediction (§VII future work): when enabled,
    /// replica placement avoids nodes the predictor currently flags.
    pub proactive: bool,
    /// Checkpoint-frequency budget (§I: Canary "adjusts the checkpointing
    /// frequency"): per-state checkpoint overhead is kept below this
    /// fraction of the state's execution time by checkpointing every
    /// k-th state instead of every state when payloads are expensive.
    pub max_ckpt_overhead_ratio: f64,
    /// Live migration (DESIGN.md §14): on a node crash with a warm
    /// replica available, move the function's manifest-reachable state to
    /// the replica — transferring only the chunks it lacks — instead of
    /// rerunning from the checkpoint read back in full. Off by default;
    /// the pinned golden traces were blessed without it.
    pub migrate: bool,
}

impl Default for CanaryConfig {
    fn default() -> Self {
        CanaryConfig {
            replication: ReplicationStrategyKind::Dynamic,
            checkpoint_mode: CheckpointMode::Implicit,
            explicit_size_factor: 0.35,
            ckpt_window: 3,
            detection_delay: SimDuration::from_millis(500),
            migration_delay: SimDuration::from_millis(300),
            aggressive_factor: 0.30,
            dynamic_headroom: 0.2,
            dynamic_min_rate: 0.02,
            max_replicas_per_runtime: 32,
            proactive: true,
            max_ckpt_overhead_ratio: 0.10,
            migrate: false,
        }
    }
}

impl CanaryConfig {
    /// Default configuration with a specific replication policy.
    pub fn with_replication(replication: ReplicationStrategyKind) -> Self {
        CanaryConfig {
            replication,
            ..Default::default()
        }
    }

    /// Validate parameter ranges.
    pub fn validate(&self) -> Result<(), String> {
        if self.ckpt_window == 0 {
            return Err("checkpoint window must be positive".into());
        }
        if !(0.0..=1.0).contains(&self.explicit_size_factor) {
            return Err("explicit size factor must be in [0,1]".into());
        }
        if self.aggressive_factor <= 0.0 || self.dynamic_headroom <= 0.0 {
            return Err("replication factors must be positive".into());
        }
        if self.max_replicas_per_runtime == 0 {
            return Err("replica cap must be positive".into());
        }
        if self.max_ckpt_overhead_ratio <= 0.0 {
            return Err("checkpoint overhead ratio must be positive".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        assert!(CanaryConfig::default().validate().is_ok());
    }

    #[test]
    fn default_window_is_three() {
        assert_eq!(CanaryConfig::default().ckpt_window, 3);
    }

    #[test]
    fn bad_configs_rejected() {
        let c = CanaryConfig {
            ckpt_window: 0,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let c = CanaryConfig {
            explicit_size_factor: 1.5,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let c = CanaryConfig {
            max_replicas_per_runtime: 0,
            ..Default::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn labels() {
        assert_eq!(ReplicationStrategyKind::Dynamic.label(), "DR");
        assert_eq!(ReplicationStrategyKind::Aggressive.label(), "AR");
        assert_eq!(ReplicationStrategyKind::Lenient.label(), "LR");
    }
}
