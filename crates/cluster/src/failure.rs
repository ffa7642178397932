//! Failure injection.
//!
//! §V-B: "We simulate failures by randomly killing containers that host
//! functions based on the defined error rate, and vary the error rate from
//! 1% to 50%." Fig. 11 additionally includes node-level failures that lose
//! every function scheduled on the failed node.
//!
//! Decisions are derived from split PRNG streams keyed by the function id
//! and attempt number, so whether a given attempt fails (and where in its
//! execution) is independent of event interleaving — essential for
//! comparing strategies on *identical* failure schedules.

use crate::node::NodeId;
use crate::topology::Cluster;
use canary_sim::{SimDuration, SimRng, SimTime};

/// Failure configuration for one run.
#[derive(Debug, Clone, Copy)]
pub struct FailureModel {
    /// Probability that any given function *attempt* is killed before it
    /// completes (the paper's error rate, 0.01–0.50).
    pub error_rate: f64,
    /// Probability that a node crashes during the run (0 except in the
    /// Fig. 11 scaling experiment).
    pub node_failure_rate: f64,
    /// Upper bound on consecutive failures of one function, as a safety
    /// net against non-terminating simulations at error rates ≥ 1.
    pub max_failures_per_function: u32,
}

impl Default for FailureModel {
    fn default() -> Self {
        FailureModel {
            error_rate: 0.0,
            node_failure_rate: 0.0,
            max_failures_per_function: 64,
        }
    }
}

impl FailureModel {
    /// A function-level failure model at the given error rate.
    pub fn with_error_rate(error_rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&error_rate), "error rate {error_rate}");
        FailureModel {
            error_rate,
            ..Default::default()
        }
    }

    /// Enable node-level failures (Fig. 11).
    pub fn with_node_failures(mut self, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "node failure rate {rate}");
        self.node_failure_rate = rate;
        self
    }
}

/// A planned node crash.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeFailure {
    /// The node that crashes.
    pub node: NodeId,
    /// When it crashes.
    pub at: SimTime,
}

/// Deterministic failure oracle for one run.
#[derive(Debug, Clone)]
pub struct FailureInjector {
    base: SimRng,
    model: FailureModel,
}

/// Outcome of consulting the oracle for one attempt.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttemptFailure {
    /// Fraction of the attempt's execution (0, 1) at which the container
    /// is killed.
    pub at_fraction: f64,
}

impl FailureInjector {
    /// Create an oracle from a run seed.
    pub fn new(model: FailureModel, seed: u64) -> Self {
        FailureInjector {
            base: SimRng::seed_from_u64(seed).split(0xFA11),
            model,
        }
    }

    /// The configured model.
    pub fn model(&self) -> &FailureModel {
        &self.model
    }

    /// Does attempt `attempt` of function `fn_id` fail, and if so at what
    /// fraction of its execution? Pure in `(fn_id, attempt)`.
    pub fn attempt(&self, fn_id: u64, attempt: u32) -> Option<AttemptFailure> {
        if attempt >= self.model.max_failures_per_function {
            return None; // safety net: guarantee eventual completion
        }
        let tag = fn_id
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(attempt as u64);
        let mut rng = self.base.split(tag);
        if rng.bernoulli(self.model.error_rate) {
            // Strictly interior kill point: a kill at exactly 0 or 1 would
            // degenerate to "never started" / "already finished".
            let frac = rng.range_f64(1e-6, 1.0 - 1e-6);
            Some(AttemptFailure { at_fraction: frac })
        } else {
            None
        }
    }

    /// Plan node-level crashes within `[0, horizon)`. Older CPU classes are
    /// proportionally more likely to crash (§I). Pure per run seed.
    pub fn plan_node_failures(&self, cluster: &Cluster, horizon: SimDuration) -> Vec<NodeFailure> {
        if self.model.node_failure_rate <= 0.0 || horizon.is_zero() {
            return Vec::new();
        }
        let mean_weight = cluster
            .nodes()
            .iter()
            .map(|n| n.cpu.failure_weight())
            .sum::<f64>()
            / cluster.len() as f64;
        let mut failures = Vec::new();
        for node in cluster.nodes() {
            let mut rng = self.base.split(0x4E4F_4445u64 ^ ((node.id.0 as u64) << 8));
            let p = (self.model.node_failure_rate * node.cpu.failure_weight() / mean_weight)
                .clamp(0.0, 1.0);
            if rng.bernoulli(p) {
                let at =
                    SimTime::ZERO + SimDuration::from_micros(rng.u64_below(horizon.as_micros()));
                failures.push(NodeFailure { node: node.id, at });
            }
        }
        failures
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_is_pure() {
        let inj = FailureInjector::new(FailureModel::with_error_rate(0.3), 99);
        for fid in 0..50u64 {
            for att in 0..3u32 {
                assert_eq!(inj.attempt(fid, att), inj.attempt(fid, att));
            }
        }
    }

    #[test]
    fn zero_rate_never_fails() {
        let inj = FailureInjector::new(FailureModel::with_error_rate(0.0), 1);
        assert!((0..1000u64).all(|f| inj.attempt(f, 0).is_none()));
    }

    #[test]
    fn full_rate_always_fails_until_cap() {
        let mut model = FailureModel::with_error_rate(1.0);
        model.max_failures_per_function = 5;
        let inj = FailureInjector::new(model, 1);
        for att in 0..5 {
            assert!(inj.attempt(7, att).is_some());
        }
        // Cap guarantees the 6th attempt succeeds.
        assert!(inj.attempt(7, 5).is_none());
    }

    #[test]
    fn empirical_rate_matches() {
        let inj = FailureInjector::new(FailureModel::with_error_rate(0.15), 42);
        let fails = (0..20_000u64)
            .filter(|&f| inj.attempt(f, 0).is_some())
            .count();
        let rate = fails as f64 / 20_000.0;
        assert!((rate - 0.15).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn kill_fraction_is_interior() {
        let inj = FailureInjector::new(FailureModel::with_error_rate(1.0), 3);
        for f in 0..1000u64 {
            let k = inj.attempt(f, 0).unwrap();
            assert!(k.at_fraction > 0.0 && k.at_fraction < 1.0);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = FailureInjector::new(FailureModel::with_error_rate(0.5), 1);
        let b = FailureInjector::new(FailureModel::with_error_rate(0.5), 2);
        let diff = (0..200u64)
            .filter(|&f| a.attempt(f, 0).is_some() != b.attempt(f, 0).is_some())
            .count();
        assert!(diff > 0, "seeds must change the failure schedule");
    }

    #[test]
    fn node_failures_within_horizon() {
        let inj = FailureInjector::new(
            FailureModel::with_error_rate(0.1).with_node_failures(0.5),
            7,
        );
        let cluster = Cluster::chameleon_16();
        let horizon = SimDuration::from_secs(1000);
        let plan = inj.plan_node_failures(&cluster, horizon);
        assert!(!plan.is_empty(), "at 50% node rate some node should fail");
        for f in &plan {
            assert!(f.at < SimTime::ZERO + horizon);
            assert!((f.node.0 as usize) < cluster.len());
        }
        // Determinism.
        assert_eq!(plan, inj.plan_node_failures(&cluster, horizon));
    }

    #[test]
    fn no_node_failures_by_default() {
        let inj = FailureInjector::new(FailureModel::with_error_rate(0.5), 7);
        let cluster = Cluster::chameleon_16();
        assert!(inj
            .plan_node_failures(&cluster, SimDuration::from_secs(100))
            .is_empty());
    }
}
