//! Cluster-wide container registry with per-node slot accounting.
//!
//! The invoker on each node has finite capacity; both function containers
//! and Canary's replicated runtimes consume slots (replicas are real warm
//! containers, which is exactly why they cost money in Figs. 8–10).
//!
//! Scheduler-facing queries are answered from secondary indexes that are
//! maintained incrementally at every state transition rather than by
//! scanning all containers per call (the paper's Runtime Manager "tracks
//! deployed runtimes and replicas"; tracking means bookkeeping, not
//! recomputation):
//!
//! - a per-runtime ordered set of warm replica containers (`BTreeSet`
//!   preserves the sorted-by-id order the recovery path relies on), and
//! - an ordered view of up nodes keyed by `(free slots desc, node id)`
//!   so load-balancer placement never sorts from scratch.
//!
//! The naive scans survive as `*_scan` oracles for property tests and
//! the scheduler micro-benchmarks.

use crate::lifecycle::{Container, ContainerId, ContainerPurpose, ContainerState};
use crate::slot_index::FreeSlotIndex;
use canary_cluster::{Cluster, NodeId};
use canary_sim::hash::HashMap;
use canary_workloads::RuntimeKind;
use std::cmp::Reverse;
use std::collections::BTreeSet;
use std::error::Error;
use std::fmt;

/// Why a container could not be placed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlacementError {
    /// The node's invoker has no free slot.
    NodeFull {
        /// The saturated node.
        node: NodeId,
    },
    /// The node is down.
    NodeDown {
        /// The dead node.
        node: NodeId,
    },
    /// No node in the whole cluster has a free slot.
    ClusterFull,
}

impl fmt::Display for PlacementError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlacementError::NodeFull { node } => write!(f, "{node} has no free container slot"),
            PlacementError::NodeDown { node } => write!(f, "{node} is down"),
            PlacementError::ClusterFull => write!(f, "no free container slot in the cluster"),
        }
    }
}

impl Error for PlacementError {}

/// Registry of every container in a run.
#[derive(Debug)]
pub struct ContainerRegistry {
    next_id: u64,
    /// Dense arena indexed by `ContainerId` — ids are allocated
    /// sequentially, so slot `i` IS container `i`. Lookups on the
    /// engine's per-launch hot path are a bounds-checked array index,
    /// not a hash probe.
    containers: Vec<Container>,
    slots_free: Vec<u32>,
    node_up: Vec<bool>,
    /// Warm replica containers per runtime, ordered by id — maintained at
    /// every transition into / out of `Warm`.
    warm_replicas: HashMap<RuntimeKind, BTreeSet<ContainerId>>,
    /// Up nodes bucketed by free-slot count — the load-balancer view in
    /// `(free slots desc, node id)` order, maintained in O(1) bit flips
    /// per slot change (see [`crate::slot_index`]).
    nodes_by_free: FreeSlotIndex,
}

impl ContainerRegistry {
    /// Registry for a cluster (all nodes up, all slots free).
    pub fn new(cluster: &Cluster) -> Self {
        let slots_free: Vec<u32> = cluster.nodes().iter().map(|n| n.container_slots).collect();
        let nodes_by_free = FreeSlotIndex::new(&slots_free);
        ContainerRegistry {
            next_id: 0,
            containers: Vec::new(),
            slots_free,
            node_up: vec![true; cluster.len()],
            warm_replicas: HashMap::default(),
            nodes_by_free,
        }
    }

    /// Free slots on `node`.
    pub fn free_slots(&self, node: NodeId) -> u32 {
        self.slots_free[node.0 as usize]
    }

    /// Is `node` up?
    pub fn node_up(&self, node: NodeId) -> bool {
        self.node_up[node.0 as usize]
    }

    /// Change `node`'s free-slot count, keeping the ordered node view in
    /// step. Down nodes are absent from the view and stay absent.
    fn set_free_slots(&mut self, node: NodeId, free: u32) {
        let old = self.slots_free[node.0 as usize];
        self.slots_free[node.0 as usize] = free;
        if self.node_up[node.0 as usize] {
            self.nodes_by_free.update(node, old, free);
        }
    }

    /// A container entered or left the `Warm` state: maintain the
    /// per-runtime warm-replica index. Only replicas are indexed — warm
    /// function containers are transient within a single launch walk.
    fn note_warm_change(&mut self, id: ContainerId, was_warm: bool, is_warm: bool) {
        if was_warm == is_warm {
            return;
        }
        let (purpose, runtime) = match self.containers.get(id.0 as usize) {
            Some(c) if c.purpose == ContainerPurpose::Replica => (c.purpose, c.runtime),
            _ => return,
        };
        debug_assert_eq!(purpose, ContainerPurpose::Replica);
        let set = self.warm_replicas.entry(runtime).or_default();
        if is_warm {
            set.insert(id);
        } else {
            set.remove(&id);
        }
    }

    /// Create a container on `node`, consuming a slot.
    pub fn create(
        &mut self,
        node: NodeId,
        runtime: RuntimeKind,
        purpose: ContainerPurpose,
    ) -> Result<ContainerId, PlacementError> {
        let idx = node.0 as usize;
        if !self.node_up[idx] {
            return Err(PlacementError::NodeDown { node });
        }
        if self.slots_free[idx] == 0 {
            return Err(PlacementError::NodeFull { node });
        }
        self.set_free_slots(node, self.slots_free[idx] - 1);
        let id = ContainerId(self.next_id);
        self.next_id += 1;
        debug_assert_eq!(id.0 as usize, self.containers.len(), "dense id arena");
        self.containers
            .push(Container::new(id, node, runtime, purpose));
        Ok(id)
    }

    /// Look up a container.
    pub fn get(&self, id: ContainerId) -> Option<&Container> {
        self.containers.get(id.0 as usize)
    }

    /// Apply a lifecycle transition; terminal transitions release the slot.
    pub fn transition(&mut self, id: ContainerId, next: ContainerState) -> Result<(), String> {
        let c = self
            .containers
            .get_mut(id.0 as usize)
            .ok_or_else(|| format!("unknown container {id}"))?;
        let was_terminal = c.state.is_terminal();
        let was_warm = c.state == ContainerState::Warm;
        c.transition(next)?;
        let (node, now_terminal, is_warm) = (
            c.node,
            c.state.is_terminal(),
            c.state == ContainerState::Warm,
        );
        self.note_warm_change(id, was_warm, is_warm);
        if !was_terminal && now_terminal {
            self.set_free_slots(node, self.slots_free[node.0 as usize] + 1);
        }
        Ok(())
    }

    /// Containers currently in `state` with `purpose`, cluster-wide.
    pub fn count(&self, purpose: ContainerPurpose, state: ContainerState) -> usize {
        self.containers
            .iter()
            .filter(|c| c.purpose == purpose && c.state == state)
            .count()
    }

    /// Live (non-terminal) containers on `node`.
    pub fn live_on(&self, node: NodeId) -> Vec<ContainerId> {
        let mut v: Vec<ContainerId> = self
            .containers
            .iter()
            .filter(|c| c.node == node && !c.state.is_terminal())
            .map(|c| c.id)
            .collect();
        v.sort_unstable();
        v
    }

    /// Warm replicas of `runtime`, ascending by id (deterministic choice).
    /// Answered from the incrementally-maintained index: O(warm replicas
    /// of the runtime), independent of the total container count.
    pub fn warm_replicas(&self, runtime: RuntimeKind) -> impl Iterator<Item = ContainerId> + '_ {
        self.warm_replicas
            .get(&runtime)
            .into_iter()
            .flatten()
            .copied()
    }

    /// Naive-scan oracle for [`ContainerRegistry::warm_replicas`] — the
    /// pre-index implementation, kept for property tests and the
    /// scheduler micro-benchmarks.
    pub fn warm_replicas_scan(&self, runtime: RuntimeKind) -> Vec<ContainerId> {
        let mut v: Vec<ContainerId> = self
            .containers
            .iter()
            .filter(|c| {
                c.purpose == ContainerPurpose::Replica
                    && c.runtime == runtime
                    && c.state == ContainerState::Warm
            })
            .map(|c| c.id)
            .collect();
        v.sort_unstable();
        v
    }

    /// Up nodes ordered by free slots (desc), node id tie-break — the
    /// load-balancer view. Answered from the ordered index: no per-call
    /// collection or sort.
    pub fn nodes_by_free_slots(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes_by_free.iter()
    }

    /// The load balancer's placement choice: the up node with the most
    /// free slots (smallest id tie-break), or `None` when every up node
    /// is full. Equivalent to the first `nodes_by_free_slots()` entry
    /// with a free slot, but O(1) — including when the cluster is full,
    /// which is exactly when placement gets retried the hardest.
    pub fn best_free_node(&self) -> Option<NodeId> {
        let n = self.nodes_by_free.first()?;
        (self.slots_free[n.0 as usize] > 0).then_some(n)
    }

    /// Naive-scan oracle for [`ContainerRegistry::nodes_by_free_slots`] —
    /// the pre-index collect-and-sort implementation.
    pub fn nodes_by_free_slots_scan(&self) -> Vec<NodeId> {
        let mut nodes: Vec<NodeId> = (0..self.node_up.len() as u32)
            .map(NodeId)
            .filter(|&n| self.node_up[n.0 as usize])
            .collect();
        nodes.sort_by_key(|&n| (Reverse(self.slots_free[n.0 as usize]), n.0));
        nodes
    }

    /// Crash `node`: every live container on it fails, slots are frozen.
    /// Returns the failed container ids.
    pub fn fail_node(&mut self, node: NodeId) -> Vec<ContainerId> {
        let victims = self.live_on(node);
        for &id in &victims {
            let c = self
                .containers
                .get_mut(id.0 as usize)
                .expect("live container exists");
            let was_warm = c.state == ContainerState::Warm;
            c.state = ContainerState::Failed;
            self.note_warm_change(id, was_warm, false);
        }
        // Only up nodes are indexed; a second failure of the same node
        // must stay the no-op it always was.
        if self.node_up[node.0 as usize] {
            self.nodes_by_free
                .retire(node, self.slots_free[node.0 as usize]);
        }
        self.node_up[node.0 as usize] = false;
        self.slots_free[node.0 as usize] = 0;
        victims
    }

    /// Total containers ever created.
    pub fn total_created(&self) -> u64 {
        self.next_id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry() -> (Cluster, ContainerRegistry) {
        let cluster = Cluster::homogeneous(2);
        let reg = ContainerRegistry::new(&cluster);
        (cluster, reg)
    }

    fn warm(reg: &ContainerRegistry, runtime: RuntimeKind) -> Vec<ContainerId> {
        reg.warm_replicas(runtime).collect()
    }

    #[test]
    fn create_consumes_slot_terminal_releases() {
        let (cluster, mut reg) = registry();
        let before = reg.free_slots(NodeId(0));
        let id = reg
            .create(NodeId(0), RuntimeKind::Python, ContainerPurpose::Function)
            .unwrap();
        assert_eq!(reg.free_slots(NodeId(0)), before - 1);
        reg.transition(id, ContainerState::Failed).unwrap();
        assert_eq!(reg.free_slots(NodeId(0)), before);
        let _ = cluster;
    }

    #[test]
    fn node_full_rejected() {
        let cluster = Cluster::from_nodes(
            Cluster::homogeneous(1)
                .nodes()
                .iter()
                .cloned()
                .map(|mut n| {
                    n.container_slots = 1;
                    n
                })
                .collect(),
        );
        let mut reg = ContainerRegistry::new(&cluster);
        reg.create(NodeId(0), RuntimeKind::Python, ContainerPurpose::Function)
            .unwrap();
        assert_eq!(
            reg.create(NodeId(0), RuntimeKind::Python, ContainerPurpose::Function),
            Err(PlacementError::NodeFull { node: NodeId(0) })
        );
    }

    #[test]
    fn node_failure_kills_live_containers() {
        let (_c, mut reg) = registry();
        let a = reg
            .create(NodeId(0), RuntimeKind::Python, ContainerPurpose::Function)
            .unwrap();
        let b = reg
            .create(NodeId(0), RuntimeKind::Java, ContainerPurpose::Replica)
            .unwrap();
        let other = reg
            .create(NodeId(1), RuntimeKind::Python, ContainerPurpose::Function)
            .unwrap();
        let victims = reg.fail_node(NodeId(0));
        assert_eq!(victims, vec![a, b]);
        assert_eq!(reg.get(a).unwrap().state, ContainerState::Failed);
        assert_eq!(reg.get(other).unwrap().state, ContainerState::Pulling);
        assert!(!reg.node_up(NodeId(0)));
        assert_eq!(
            reg.create(NodeId(0), RuntimeKind::Python, ContainerPurpose::Function),
            Err(PlacementError::NodeDown { node: NodeId(0) })
        );
    }

    #[test]
    fn warm_replica_query() {
        let (_c, mut reg) = registry();
        let r = reg
            .create(NodeId(1), RuntimeKind::Java, ContainerPurpose::Replica)
            .unwrap();
        assert!(warm(&reg, RuntimeKind::Java).is_empty());
        for s in [
            ContainerState::Launching,
            ContainerState::Initializing,
            ContainerState::Warm,
        ] {
            reg.transition(r, s).unwrap();
        }
        assert_eq!(warm(&reg, RuntimeKind::Java), vec![r]);
        assert!(warm(&reg, RuntimeKind::Python).is_empty());
        // Consumed replica is no longer warm.
        reg.transition(r, ContainerState::Executing).unwrap();
        assert!(warm(&reg, RuntimeKind::Java).is_empty());
    }

    #[test]
    fn warm_index_matches_scan_through_lifecycle() {
        let (_c, mut reg) = registry();
        let mut replicas = Vec::new();
        for i in 0..6 {
            let node = NodeId(i % 2);
            let r = reg
                .create(node, RuntimeKind::Python, ContainerPurpose::Replica)
                .unwrap();
            replicas.push(r);
        }
        for (i, &r) in replicas.iter().enumerate() {
            reg.transition(r, ContainerState::Launching).unwrap();
            reg.transition(r, ContainerState::Initializing).unwrap();
            if i % 2 == 0 {
                reg.transition(r, ContainerState::Warm).unwrap();
            }
        }
        assert_eq!(
            warm(&reg, RuntimeKind::Python),
            reg.warm_replicas_scan(RuntimeKind::Python)
        );
        // Crash one node: its warm replicas must leave the index.
        reg.fail_node(NodeId(0));
        assert_eq!(
            warm(&reg, RuntimeKind::Python),
            reg.warm_replicas_scan(RuntimeKind::Python)
        );
    }

    #[test]
    fn node_ordering_matches_scan() {
        let cluster = Cluster::homogeneous(4);
        let mut reg = ContainerRegistry::new(&cluster);
        for _ in 0..3 {
            reg.create(NodeId(1), RuntimeKind::Python, ContainerPurpose::Function)
                .unwrap();
        }
        reg.create(NodeId(2), RuntimeKind::Python, ContainerPurpose::Function)
            .unwrap();
        assert_eq!(
            reg.nodes_by_free_slots().collect::<Vec<_>>(),
            reg.nodes_by_free_slots_scan()
        );
        // Most-free first: nodes 0 and 3 are untouched and tie-break by id.
        assert_eq!(reg.nodes_by_free_slots().next(), Some(NodeId(0)));
        reg.fail_node(NodeId(0));
        assert_eq!(
            reg.nodes_by_free_slots().collect::<Vec<_>>(),
            reg.nodes_by_free_slots_scan()
        );
        assert!(!reg.nodes_by_free_slots().any(|n| n == NodeId(0)));
    }

    #[test]
    fn counts_by_purpose_and_state() {
        let (_c, mut reg) = registry();
        for _ in 0..3 {
            reg.create(NodeId(0), RuntimeKind::Python, ContainerPurpose::Function)
                .unwrap();
        }
        assert_eq!(
            reg.count(ContainerPurpose::Function, ContainerState::Pulling),
            3
        );
        assert_eq!(reg.total_created(), 3);
    }

    #[test]
    fn double_terminal_does_not_leak_slots() {
        let (_c, mut reg) = registry();
        let id = reg
            .create(NodeId(0), RuntimeKind::Python, ContainerPurpose::Function)
            .unwrap();
        let free_after_create = reg.free_slots(NodeId(0));
        reg.transition(id, ContainerState::Failed).unwrap();
        assert!(reg.transition(id, ContainerState::Reclaimed).is_err());
        assert_eq!(reg.free_slots(NodeId(0)), free_after_create + 1);
    }
}
