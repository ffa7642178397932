//! The Replication Module (Algorithm 2).
//!
//! Replicates *runtimes*, not functions: for each runtime in use it keeps
//! a pool of warm containers sized by the replication policy, and places
//! them to avoid single points of failure (first replica near the job's
//! functions, further replicas on other racks, §IV-C.5b). The policy is
//! one of the three strategies of Fig. 9:
//!
//! - **LR** (lenient): one active replica per runtime in use,
//! - **AR** (aggressive): a fixed high fraction of active functions,
//! - **DR** (dynamic, the default): the observed failure rate — with
//!   headroom — times the number of active functions.

use crate::config::{CanaryConfig, ReplicationStrategyKind};
use crate::runtime_manager::RuntimeManager;
use canary_cluster::NodeId;
use canary_platform::Platform;
use canary_workloads::RuntimeKind;
use std::collections::HashMap;

/// Per-runtime failure statistics feeding the dynamic policy.
#[derive(Debug, Clone, Copy, Default)]
struct RuntimeStats {
    attempts: u64,
    failures: u64,
}

impl RuntimeStats {
    fn observed_rate(&self) -> f64 {
        if self.attempts == 0 {
            0.0
        } else {
            self.failures as f64 / self.attempts as f64
        }
    }
}

/// The Replication Module.
#[derive(Debug)]
pub struct ReplicationModule {
    config: CanaryConfig,
    stats: HashMap<RuntimeKind, RuntimeStats>,
    /// Memory billed per replica of each runtime (the largest allocation
    /// among jobs using it — a replica must be able to host any of them).
    replica_memory: HashMap<RuntimeKind, u64>,
    spawned_total: u64,
    /// Scratch for the pool-shrink path (reconcile runs on every job
    /// admit/completion; the reclaim set is rebuilt in place).
    reclaim_scratch: Vec<canary_container::ContainerId>,
}

impl ReplicationModule {
    /// New module with the given policy configuration.
    pub fn new(config: CanaryConfig) -> Self {
        ReplicationModule {
            config,
            stats: HashMap::new(),
            replica_memory: HashMap::new(),
            spawned_total: 0,
            reclaim_scratch: Vec::new(),
        }
    }

    /// Register that a job with this runtime/memory exists (sets the
    /// replica memory floor).
    pub fn note_job(&mut self, runtime: RuntimeKind, memory_mb: u64) {
        let m = self.replica_memory.entry(runtime).or_insert(0);
        *m = (*m).max(memory_mb);
    }

    /// Record an attempt start (denominator of the observed rate).
    pub fn note_attempt(&mut self, runtime: RuntimeKind) {
        self.stats.entry(runtime).or_default().attempts += 1;
    }

    /// Record a failure (numerator of the observed rate).
    pub fn note_failure(&mut self, runtime: RuntimeKind) {
        self.stats.entry(runtime).or_default().failures += 1;
    }

    /// Observed failure rate for a runtime.
    pub fn observed_rate(&self, runtime: RuntimeKind) -> f64 {
        self.stats
            .get(&runtime)
            .map(RuntimeStats::observed_rate)
            .unwrap_or(0.0)
    }

    /// Replicas ever spawned (for cost analysis in tests).
    pub fn spawned_total(&self) -> u64 {
        self.spawned_total
    }

    /// Algorithm 2's target pool size (`rep_req`) for a runtime given the
    /// number of active functions using it.
    pub fn target_replicas(&self, runtime: RuntimeKind, active_fns: usize) -> usize {
        if active_fns == 0 {
            return 0;
        }
        let raw = match self.config.replication {
            ReplicationStrategyKind::Lenient => 1.0,
            ReplicationStrategyKind::Aggressive => {
                (active_fns as f64 * self.config.aggressive_factor).ceil()
            }
            ReplicationStrategyKind::Dynamic => {
                let rate = self
                    .observed_rate(runtime)
                    .max(self.config.dynamic_min_rate);
                (active_fns as f64 * rate * self.config.dynamic_headroom).ceil()
            }
        };
        (raw as usize)
            .max(1)
            .min(self.config.max_replicas_per_runtime)
            .min(active_fns)
    }

    /// Replica placement (§IV-C.5b): prefer nodes that do not already
    /// host a replica of this runtime, then other racks, then faster
    /// nodes; among equals the least-loaded node wins. Replicas yield to
    /// functions: nodes whose invoker is nearly full (below 10% free
    /// slots) are not eligible, so the warm pool never starves function
    /// placement on small clusters.
    pub fn choose_node(
        &self,
        platform: &Platform,
        existing: &[NodeId],
        risky: &[NodeId],
    ) -> Option<NodeId> {
        let cluster = &platform.config().cluster;
        platform
            .nodes_by_free_slots() // up nodes, most-free first
            .filter(|&n| {
                let capacity = cluster.node(n).container_slots;
                platform.free_slots(n) as u64 >= (capacity as u64 / 10).max(2)
            })
            .min_by_key(|&n| {
                let spec = cluster.node(n);
                // `existing` is a handful of nodes at most, so the rack
                // test scans it inline rather than materializing a rack
                // list per call — reconcile runs on every job admit and
                // completion, and this is its only would-be allocation.
                let same_rack = existing.iter().any(|&m| cluster.node(m).rack == spec.rack);
                (
                    existing.contains(&n) as u8, // avoid same node
                    risky.contains(&n) as u8,    // avoid predicted-risky nodes
                    same_rack as u8,             // avoid same rack
                    // Faster nodes recover faster (heterogeneity-aware).
                    (1000.0 / spec.speed()) as u64,
                    n.0, // deterministic tie-break
                )
            })
    }

    /// Reconcile the pool of `runtime` toward its target: spawn missing
    /// replicas (warm containers begin cold-starting now) and reclaim
    /// surplus idle ones. Returns (spawned, reclaimed).
    pub fn reconcile(
        &mut self,
        platform: &mut Platform,
        manager: &mut RuntimeManager,
        runtime: RuntimeKind,
        risky: &[NodeId],
    ) -> (usize, usize) {
        let active = manager.active_functions(runtime);
        let target = self.target_replicas(runtime, active);
        let have = manager.total(runtime);
        let memory = self.replica_memory.get(&runtime).copied().unwrap_or(512);

        let mut spawned = 0;
        if manager.total(runtime) < target {
            // One anti-affinity snapshot per round, extended in place as
            // replicas land (the recollected set would differ only by
            // exactly those nodes).
            let mut existing = manager.nodes_with_replicas(runtime);
            while manager.total(runtime) < target {
                let Some(node) = self.choose_node(platform, &existing, risky) else {
                    break;
                };
                match platform.create_replica(node, runtime, memory) {
                    Ok((container, ready_at)) => {
                        manager.note_spawned(container, runtime, node, ready_at);
                        if !existing.contains(&node) {
                            existing.push(node);
                        }
                        self.spawned_total += 1;
                        spawned += 1;
                    }
                    Err(_) => break, // cluster full: stop trying this round
                }
            }
        }

        let mut reclaimed = 0;
        if have > target {
            let surplus = have - target;
            let mut scratch = std::mem::take(&mut self.reclaim_scratch);
            manager.idle_warm_into(runtime, surplus, &mut scratch);
            for &container in &scratch {
                manager.note_consumed(container);
                platform.reclaim_container(container);
                reclaimed += 1;
            }
            self.reclaim_scratch = scratch;
        }
        (spawned, reclaimed)
    }

    /// The policy in force.
    pub fn strategy(&self) -> ReplicationStrategyKind {
        self.config.replication
    }

    /// Current (`cur_rep_factor`) and prospective (`new_rep_factor`)
    /// replication factors from Algorithm 2: the ratios of functions to
    /// replicas with and without the newly scheduled functions.
    pub fn replication_factors(
        &self,
        active_fns: usize,
        scheduled_fns: usize,
        active_replicas: usize,
    ) -> (f64, f64) {
        let denom = active_replicas.max(1) as f64;
        let cur = active_fns as f64 / denom;
        let new = (active_fns + scheduled_fns) as f64 / denom;
        (cur, new)
    }

    /// A point-in-time snapshot used by tests/reports.
    pub fn describe(&self, runtime: RuntimeKind, manager: &RuntimeManager) -> String {
        format!(
            "{} {}: active={} replicas={} rate={:.3}",
            self.config.replication.label(),
            runtime,
            manager.active_functions(runtime),
            manager.total(runtime),
            self.observed_rate(runtime)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CanaryConfig;

    fn module(kind: ReplicationStrategyKind) -> ReplicationModule {
        ReplicationModule::new(CanaryConfig::with_replication(kind))
    }

    #[test]
    fn lenient_targets_one() {
        let m = module(ReplicationStrategyKind::Lenient);
        assert_eq!(m.target_replicas(RuntimeKind::Python, 100), 1);
        assert_eq!(m.target_replicas(RuntimeKind::Python, 1), 1);
        assert_eq!(m.target_replicas(RuntimeKind::Python, 0), 0);
    }

    #[test]
    fn aggressive_scales_with_active() {
        let m = module(ReplicationStrategyKind::Aggressive);
        let small = m.target_replicas(RuntimeKind::Python, 10);
        let large = m.target_replicas(RuntimeKind::Python, 100);
        assert!(large > small);
        assert_eq!(large, 30); // 100 × 0.30
    }

    #[test]
    fn dynamic_follows_observed_rate() {
        let mut m = module(ReplicationStrategyKind::Dynamic);
        // No observations: the minimum prior applies.
        let idle = m.target_replicas(RuntimeKind::Python, 100);
        // 25% observed failures.
        for _ in 0..100 {
            m.note_attempt(RuntimeKind::Python);
        }
        for _ in 0..25 {
            m.note_failure(RuntimeKind::Python);
        }
        let busy = m.target_replicas(RuntimeKind::Python, 100);
        assert!(busy > idle, "idle={idle} busy={busy}");
        assert_eq!(busy, (100.0f64 * 0.25 * 0.2).ceil() as usize);
    }

    #[test]
    fn targets_are_capped() {
        let mut cfg = CanaryConfig::with_replication(ReplicationStrategyKind::Aggressive);
        cfg.max_replicas_per_runtime = 5;
        let m = ReplicationModule::new(cfg);
        assert_eq!(m.target_replicas(RuntimeKind::Python, 1000), 5);
        // Never more replicas than active functions.
        let m2 = module(ReplicationStrategyKind::Dynamic);
        assert!(m2.target_replicas(RuntimeKind::Python, 2) <= 2);
    }

    #[test]
    fn observed_rate_math() {
        let mut m = module(ReplicationStrategyKind::Dynamic);
        assert_eq!(m.observed_rate(RuntimeKind::Java), 0.0);
        m.note_attempt(RuntimeKind::Java);
        m.note_attempt(RuntimeKind::Java);
        m.note_failure(RuntimeKind::Java);
        assert!((m.observed_rate(RuntimeKind::Java) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn replication_factor_algebra() {
        let m = module(ReplicationStrategyKind::Dynamic);
        let (cur, new) = m.replication_factors(10, 5, 2);
        assert!((cur - 5.0).abs() < 1e-12);
        assert!((new - 7.5).abs() < 1e-12);
        // New factor always ≥ current: scheduling functions never lowers it.
        assert!(new >= cur);
        // Zero replicas does not divide by zero.
        let (c0, n0) = m.replication_factors(4, 0, 0);
        assert!((c0 - 4.0).abs() < 1e-12 && (n0 - 4.0).abs() < 1e-12);
    }

    #[test]
    fn risky_nodes_rank_behind_safe_ones() {
        // choose_node is exercised end-to-end in the integration tests;
        // here we check the scoring predicate directly: a risky node must
        // sort after an otherwise-identical safe node.
        let existing: Vec<canary_cluster::NodeId> = vec![];
        let risky = [canary_cluster::NodeId(0)];
        let score = |n: canary_cluster::NodeId| {
            (
                existing.contains(&n) as u8,
                risky.contains(&n) as u8,
                0u8,
                1000u64,
                n.0,
            )
        };
        assert!(score(canary_cluster::NodeId(1)) < score(canary_cluster::NodeId(0)));
    }

    #[test]
    fn job_memory_floor_is_max() {
        let mut m = module(ReplicationStrategyKind::Dynamic);
        m.note_job(RuntimeKind::Python, 512);
        m.note_job(RuntimeKind::Python, 2048);
        m.note_job(RuntimeKind::Python, 256);
        assert_eq!(m.replica_memory[&RuntimeKind::Python], 2048);
    }
}
