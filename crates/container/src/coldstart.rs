//! Cold-start timing with per-node image caches.
//!
//! The first container of a runtime on a node pays the registry pull; later
//! ones find the image cached. All phases scale with the node's speed
//! factor, which is how resource heterogeneity shows up in recovery time
//! (§I: recovery on heterogeneous resources is non-deterministic).

use crate::image::ImageProfile;
use canary_cluster::{Cluster, NodeId};
use canary_sim::hash::HashSet;
use canary_sim::SimDuration;
use canary_workloads::RuntimeKind;

/// Tracks which images are cached where and computes startup times.
#[derive(Debug, Default)]
pub struct ColdStartModel {
    cached: HashSet<(NodeId, RuntimeKind)>,
}

/// Breakdown of one container start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StartupCost {
    /// Registry pull (zero when cached).
    pub pull: SimDuration,
    /// Container creation (`lch_f`).
    pub launch: SimDuration,
    /// Runtime initialization (`ini_f`).
    pub init: SimDuration,
}

impl StartupCost {
    /// Total startup latency.
    pub fn total(&self) -> SimDuration {
        self.pull + self.launch + self.init
    }
}

impl ColdStartModel {
    /// Fresh model: no node caches anything.
    pub fn new() -> Self {
        Self::default()
    }

    /// True when `node` has the image for `runtime` cached.
    pub fn is_cached(&self, node: NodeId, runtime: RuntimeKind) -> bool {
        self.cached.contains(&(node, runtime))
    }

    /// Compute the startup cost of a `runtime` container on `node`, and
    /// record the image as cached there from now on.
    pub fn start_container(
        &mut self,
        cluster: &Cluster,
        node: NodeId,
        runtime: RuntimeKind,
    ) -> StartupCost {
        let profile = ImageProfile::for_runtime(runtime);
        let spec = cluster.node(node);
        let pull = if self.cached.insert((node, runtime)) {
            // First use on this node: pay the pull (network-bound, so not
            // scaled by CPU speed).
            profile.pull
        } else {
            SimDuration::ZERO
        };
        StartupCost {
            pull,
            launch: spec.scale(profile.launch),
            init: spec.scale(profile.init),
        }
    }

    /// Pre-seed caches (e.g. an operator pre-pulling images cluster-wide).
    pub fn warm_all(&mut self, cluster: &Cluster, runtime: RuntimeKind) {
        for id in cluster.ids() {
            self.cached.insert((id, runtime));
        }
    }

    /// Drop a node's cache (the node was reimaged / crashed).
    pub fn invalidate_node(&mut self, node: NodeId) {
        self.cached.retain(|(n, _)| *n != node);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_start_pays_pull_second_does_not() {
        let cluster = Cluster::homogeneous(2);
        let mut m = ColdStartModel::new();
        let first = m.start_container(&cluster, NodeId(0), RuntimeKind::Python);
        assert!(!first.pull.is_zero());
        let second = m.start_container(&cluster, NodeId(0), RuntimeKind::Python);
        assert!(second.pull.is_zero());
        assert_eq!(second.launch, first.launch);
        // A different node still pays the pull.
        let other = m.start_container(&cluster, NodeId(1), RuntimeKind::Python);
        assert!(!other.pull.is_zero());
    }

    #[test]
    fn different_runtimes_cache_independently() {
        let cluster = Cluster::homogeneous(1);
        let mut m = ColdStartModel::new();
        m.start_container(&cluster, NodeId(0), RuntimeKind::Python);
        let java = m.start_container(&cluster, NodeId(0), RuntimeKind::Java);
        assert!(!java.pull.is_zero());
    }

    #[test]
    fn faster_nodes_start_faster() {
        let cluster = Cluster::heterogeneous(3);
        let mut m = ColdStartModel::new();
        m.warm_all(&cluster, RuntimeKind::Java);
        // Node 0 is Gold6126 (1.0), node 1 is Gold6240R (1.15).
        let slow = m.start_container(&cluster, NodeId(0), RuntimeKind::Java);
        let fast = m.start_container(&cluster, NodeId(1), RuntimeKind::Java);
        assert!(fast.total() < slow.total());
    }

    #[test]
    fn warm_all_removes_pulls() {
        let cluster = Cluster::homogeneous(4);
        let mut m = ColdStartModel::new();
        m.warm_all(&cluster, RuntimeKind::NodeJs);
        for id in cluster.ids() {
            assert!(m.is_cached(id, RuntimeKind::NodeJs));
            let c = m.start_container(&cluster, id, RuntimeKind::NodeJs);
            assert!(c.pull.is_zero());
        }
    }

    #[test]
    fn invalidate_restores_pull() {
        let cluster = Cluster::homogeneous(2);
        let mut m = ColdStartModel::new();
        m.start_container(&cluster, NodeId(0), RuntimeKind::Python);
        m.start_container(&cluster, NodeId(1), RuntimeKind::Python);
        m.invalidate_node(NodeId(0));
        assert!(!m.is_cached(NodeId(0), RuntimeKind::Python));
        assert!(m.is_cached(NodeId(1), RuntimeKind::Python));
        let again = m.start_container(&cluster, NodeId(0), RuntimeKind::Python);
        assert!(!again.pull.is_zero());
    }
}
