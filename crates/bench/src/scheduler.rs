//! Harness for the scheduler-query benchmarks.
//!
//! Builds registries and platforms of controlled size and exposes the
//! three scheduler queries in their indexed and naive-scan forms, which
//! the `bench_engine` runner measures. The `*_scan` oracles are the
//! pre-refactor implementations, kept precisely so this comparison stays
//! honest as the indexes evolve.

use canary_cluster::Cluster;
use canary_container::{ContainerPurpose, ContainerRegistry, ContainerState};
use canary_platform::engine::bench_platform;
use canary_platform::{JobSpec, Platform, RunConfig};
use canary_workloads::{RuntimeKind, WorkloadSpec};

/// Container populations the micro-bench sweeps.
pub const SIZES: [usize; 3] = [100, 1_000, 10_000];

/// Containers placed per node (under the 70-slot capacity, so creates
/// never fail and every node keeps free slots).
const PER_NODE: usize = 50;

/// A registry holding `n` live containers: every third is a warm replica
/// (runtimes round-robin), the rest are executing function containers.
pub fn registry_with(n: usize) -> ContainerRegistry {
    let nodes = n.div_ceil(PER_NODE).max(2) as u32;
    let cluster = Cluster::homogeneous(nodes);
    let mut reg = ContainerRegistry::new(&cluster);
    for i in 0..n {
        let node = canary_cluster::NodeId((i % nodes as usize) as u32);
        let runtime = RuntimeKind::ALL[i % RuntimeKind::ALL.len()];
        if i % 3 == 0 {
            let id = reg
                .create(node, runtime, ContainerPurpose::Replica)
                .expect("bench cluster has room");
            for s in [
                ContainerState::Launching,
                ContainerState::Initializing,
                ContainerState::Warm,
            ] {
                reg.transition(id, s).expect("startup walk");
            }
        } else {
            let id = reg
                .create(node, runtime, ContainerPurpose::Function)
                .expect("bench cluster has room");
            for s in [
                ContainerState::Launching,
                ContainerState::Initializing,
                ContainerState::Warm,
                ContainerState::Executing,
            ] {
                reg.transition(id, s).expect("startup walk");
            }
        }
    }
    reg
}

/// A platform with `n` registered functions, all marked active, spread
/// evenly over the three runtimes.
pub fn platform_with(n: usize) -> Platform {
    let per_runtime = (n / 3).max(1) as u32;
    let config = RunConfig::new(
        Cluster::homogeneous(4),
        canary_cluster::FailureModel::default(),
        7,
    );
    let jobs = vec![
        JobSpec::new(WorkloadSpec::web_service(3), per_runtime), // NodeJs
        JobSpec::new(WorkloadSpec::deep_learning(2), per_runtime), // Python
        JobSpec::new(WorkloadSpec::spark_mining(2), per_runtime), // Java
    ];
    bench_platform(config, jobs)
}

// The three scheduler queries, indexed vs pre-refactor scan. Each returns
// something cheap so the measured cost is the query, not the collection.

/// Recovery path: first warm replica of a runtime (indexed).
pub fn warm_first_indexed(reg: &ContainerRegistry, rt: RuntimeKind) -> Option<u64> {
    reg.warm_replicas(rt).next().map(|c| c.0)
}

/// Recovery path: first warm replica of a runtime (naive scan + sort).
pub fn warm_first_scan(reg: &ContainerRegistry, rt: RuntimeKind) -> Option<u64> {
    reg.warm_replicas_scan(rt).first().map(|c| c.0)
}

/// Placement: best node by free slots (indexed).
pub fn best_node_indexed(reg: &ContainerRegistry) -> Option<u32> {
    reg.nodes_by_free_slots().next().map(|n| n.0)
}

/// Placement: best node by free slots (naive collect + sort).
pub fn best_node_scan(reg: &ContainerRegistry) -> Option<u32> {
    reg.nodes_by_free_slots_scan().first().map(|n| n.0)
}

/// Replication sizing: active functions of a runtime (O(1) counter).
pub fn active_indexed(p: &Platform, rt: RuntimeKind) -> usize {
    p.active_functions_with_runtime(rt)
}

/// Replication sizing: active functions of a runtime (full scan).
pub fn active_scan(p: &Platform, rt: RuntimeKind) -> usize {
    p.active_functions_with_runtime_scan(rt)
}
