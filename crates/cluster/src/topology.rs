//! Cluster topology: a set of nodes arranged in racks.

use crate::node::{CpuClass, NodeId, NodeSpec};

/// Number of nodes per rack in generated topologies; matches a typical
/// half-rack of 2U servers and gives the 16-node testbed four racks.
const NODES_PER_RACK: u32 = 4;

/// A cluster: the unit the platform schedules over.
#[derive(Debug, Clone)]
pub struct Cluster {
    nodes: Vec<NodeSpec>,
}

impl Cluster {
    /// Build a cluster from explicit node specs. Node ids must be dense and
    /// in order (enforced).
    pub fn from_nodes(nodes: Vec<NodeSpec>) -> Self {
        for (i, n) in nodes.iter().enumerate() {
            assert_eq!(n.id.0 as usize, i, "node ids must be dense and ordered");
        }
        Cluster { nodes }
    }

    /// The paper's 16-node heterogeneous testbed: a mix of Gold 6126,
    /// 6240R and 6242 machines with 192 GB of memory each.
    pub fn chameleon_16() -> Self {
        Self::heterogeneous(16)
    }

    /// A heterogeneous cluster of `n` nodes cycling through the three
    /// testbed CPU classes.
    pub fn heterogeneous(n: u32) -> Self {
        assert!(n > 0, "cluster needs at least one node");
        let classes = [CpuClass::Gold6126, CpuClass::Gold6240R, CpuClass::Gold6242];
        let nodes = (0..n)
            .map(|i| NodeSpec {
                id: NodeId(i),
                cpu: classes[(i % 3) as usize],
                memory_mb: 192 * 1024,
                rack: i / NODES_PER_RACK,
                container_slots: 70,
            })
            .collect();
        Cluster { nodes }
    }

    /// A homogeneous cluster of `n` generic nodes (for controlled sweeps).
    pub fn homogeneous(n: u32) -> Self {
        assert!(n > 0, "cluster needs at least one node");
        let nodes = (0..n)
            .map(|i| NodeSpec {
                id: NodeId(i),
                cpu: CpuClass::Generic,
                memory_mb: 192 * 1024,
                rack: i / NODES_PER_RACK,
                container_slots: 70,
            })
            .collect();
        Cluster { nodes }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True for the (disallowed) empty cluster; present for completeness.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// All node specs, ordered by id.
    pub fn nodes(&self) -> &[NodeSpec] {
        &self.nodes
    }

    /// Spec of one node.
    pub fn node(&self, id: NodeId) -> &NodeSpec {
        &self.nodes[id.0 as usize]
    }

    /// Topological distance between two nodes: 0 = same node, 1 = same
    /// rack, 2 = different racks. Drives locality-aware replica placement
    /// and network transfer times.
    pub fn distance(&self, a: NodeId, b: NodeId) -> u32 {
        if a == b {
            0
        } else if self.node(a).rack == self.node(b).rack {
            1
        } else {
            2
        }
    }

    /// Total container slots across the cluster.
    pub fn total_slots(&self) -> u64 {
        self.nodes.iter().map(|n| n.container_slots as u64).sum()
    }

    /// Iterate node ids.
    pub fn ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes.iter().map(|n| n.id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chameleon_has_16_nodes_four_racks() {
        let c = Cluster::chameleon_16();
        assert_eq!(c.len(), 16);
        let max_rack = c.nodes().iter().map(|n| n.rack).max().unwrap();
        assert_eq!(max_rack, 3);
    }

    #[test]
    fn heterogeneous_mixes_classes() {
        let c = Cluster::heterogeneous(6);
        let classes: std::collections::HashSet<_> = c.nodes().iter().map(|n| n.cpu).collect();
        assert_eq!(classes.len(), 3);
    }

    #[test]
    fn distance_relation() {
        let c = Cluster::heterogeneous(8);
        let a = NodeId(0);
        let same_rack = NodeId(1);
        let other_rack = NodeId(5);
        assert_eq!(c.distance(a, a), 0);
        assert_eq!(c.distance(a, same_rack), 1);
        assert_eq!(c.distance(a, other_rack), 2);
        // Symmetry.
        assert_eq!(c.distance(same_rack, a), 1);
        assert_eq!(c.distance(other_rack, a), 2);
    }

    #[test]
    #[should_panic]
    fn empty_cluster_rejected() {
        Cluster::homogeneous(0);
    }

    #[test]
    #[should_panic]
    fn non_dense_ids_rejected() {
        let mut nodes = Cluster::homogeneous(2).nodes().to_vec();
        nodes[1].id = NodeId(7);
        Cluster::from_nodes(nodes);
    }

    #[test]
    fn total_slots_sums() {
        let c = Cluster::homogeneous(4);
        assert_eq!(c.total_slots(), 4 * 70);
    }
}
