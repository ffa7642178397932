//! The strategy-facing read API of [`Platform`].
//!
//! Every scheduler-visible query here is answered from state maintained
//! incrementally as containers and functions transition — mirroring the
//! paper's Runtime Manager, which "tracks deployed runtimes and replicas"
//! rather than rediscovering them on the recovery critical path
//! (§IV-C.5). The `*_scan` variants recompute each answer from first
//! principles; they are the equivalence oracles for the proptests and the
//! pre-refactor baseline for the scheduler micro-benches.

use super::Platform;
use crate::accounting::RunCounters;
use crate::config::RunConfig;
use crate::ids::{FnId, JobId};
use crate::job::{FnRecord, FnStatus, JobRecord};
use crate::telemetry::Telemetry;
use canary_cluster::{ChaosPlan, NodeId};
use canary_container::{Container, ContainerId};
use canary_sim::SimTime;
use canary_workloads::RuntimeKind;

impl Platform {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// Run configuration (cluster, network, storage, delays).
    pub fn config(&self) -> &RunConfig {
        &self.config
    }

    /// The run's chaos plan: pure oracles for stragglers and checkpoint
    /// corruption plus time-windowed partition/degradation queries.
    pub fn chaos(&self) -> &ChaosPlan {
        &self.chaos
    }

    /// Function record.
    pub fn fn_record(&self, id: FnId) -> &FnRecord {
        &self.fns[id.0 as usize]
    }

    /// Job record.
    pub fn job(&self, id: JobId) -> &JobRecord {
        &self.jobs[id.0 as usize]
    }

    /// All jobs.
    pub fn jobs(&self) -> &[JobRecord] {
        &self.jobs
    }

    /// Container lookup.
    pub fn container(&self, id: ContainerId) -> Option<&Container> {
        self.registry.get(id)
    }

    /// Warm replica containers of a runtime, in ascending-id order —
    /// served from the registry's per-runtime warm index, so iteration
    /// cost is proportional to the warm pool, not the container count.
    pub fn warm_replicas(&self, runtime: RuntimeKind) -> impl Iterator<Item = ContainerId> + '_ {
        self.registry.warm_replicas(runtime)
    }

    /// Naive-scan oracle for [`Self::warm_replicas`]: filters and sorts
    /// every container the registry has ever created.
    pub fn warm_replicas_scan(&self, runtime: RuntimeKind) -> Vec<ContainerId> {
        self.registry.warm_replicas_scan(runtime)
    }

    /// Functions currently running or recovering with the given runtime.
    /// O(1): the count is maintained at every `FnStatus` transition.
    pub fn active_functions_with_runtime(&self, runtime: RuntimeKind) -> usize {
        self.active_by_runtime.get(&runtime).copied().unwrap_or(0)
    }

    /// Naive-scan oracle for [`Self::active_functions_with_runtime`]:
    /// walks every function record.
    pub fn active_functions_with_runtime_scan(&self, runtime: RuntimeKind) -> usize {
        self.fns
            .iter()
            .filter(|f| {
                f.workload.runtime == runtime
                    && matches!(f.status, FnStatus::Running | FnStatus::Recovering)
            })
            .count()
    }

    /// Up nodes ordered by free slots (desc), node id tie-break — the
    /// load-balancer view strategies use for replica placement. Served
    /// from the registry's ordered index; no per-call sort.
    pub fn nodes_by_free_slots(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.registry.nodes_by_free_slots()
    }

    /// Naive-scan oracle for [`Self::nodes_by_free_slots`]: collects all
    /// up nodes and sorts them from scratch.
    pub fn nodes_by_free_slots_scan(&self) -> Vec<NodeId> {
        let mut nodes: Vec<NodeId> = self
            .config
            .cluster
            .ids()
            .filter(|&n| self.registry.node_up(n))
            .collect();
        nodes.sort_by_key(|&n| (std::cmp::Reverse(self.registry.free_slots(n)), n.0));
        nodes
    }

    /// Is the node up?
    pub fn node_up(&self, node: NodeId) -> bool {
        self.registry.node_up(node)
    }

    /// Free invoker slots on a node.
    pub fn free_slots(&self, node: NodeId) -> u32 {
        self.registry.free_slots(node)
    }

    /// Function invocations admitted and not yet completed — the load
    /// the admission gate ([`RunConfig::max_inflight`]) meters.
    pub fn inflight_functions(&self) -> u32 {
        self.inflight
    }

    /// Run counters so far.
    pub fn counters(&self) -> &RunCounters {
        &self.counters
    }

    /// The run's telemetry recorder (read side).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }
}
