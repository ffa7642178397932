//! Network model: 10G Ethernet with rack-locality effects.
//!
//! Transfers (checkpoint flushes, restores from shared storage, replica
//! state migration) cost a per-message latency plus a bandwidth term that
//! degrades slightly across racks.

use crate::node::NodeId;
use crate::topology::Cluster;
use canary_sim::SimDuration;

/// Parameters of the cluster interconnect.
#[derive(Debug, Clone)]
pub struct NetworkModel {
    /// One-way latency for a same-rack message.
    pub base_latency: SimDuration,
    /// Extra latency per topological hop beyond the same node.
    pub per_hop_latency: SimDuration,
    /// Link bandwidth in bytes/second (10 Gb/s ≈ 1.25 GB/s).
    pub bandwidth_bps: f64,
    /// Multiplicative bandwidth penalty for cross-rack transfers
    /// (oversubscription at the aggregation layer).
    pub cross_rack_penalty: f64,
}

impl Default for NetworkModel {
    fn default() -> Self {
        NetworkModel {
            base_latency: SimDuration::from_micros(100),
            per_hop_latency: SimDuration::from_micros(150),
            bandwidth_bps: 1.25e9,
            cross_rack_penalty: 0.7,
        }
    }
}

impl NetworkModel {
    /// Time to move `bytes` from `src` to `dst` over the given cluster.
    /// Same-node transfers are memory-speed and modelled as (near) free.
    pub fn transfer_time(
        &self,
        cluster: &Cluster,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
    ) -> SimDuration {
        let hops = cluster.distance(src, dst);
        if hops == 0 {
            // Loopback: memcpy-speed, ~20 GB/s.
            return SimDuration::from_secs_f64(bytes as f64 / 20e9);
        }
        let bw = if hops >= 2 {
            self.bandwidth_bps * self.cross_rack_penalty
        } else {
            self.bandwidth_bps
        };
        let latency = self.base_latency + self.per_hop_latency.mul_f64(hops as f64);
        latency + SimDuration::from_secs_f64(bytes as f64 / bw)
    }

    /// [`NetworkModel::transfer_time`] under a chaos slowdown: latency and
    /// serialization both stretch by `factor` (≥ 1), modelling congestion
    /// from degradation windows or reroutes around a partition.
    pub fn transfer_time_degraded(
        &self,
        cluster: &Cluster,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
        factor: f64,
    ) -> SimDuration {
        self.transfer_time(cluster, src, dst, bytes)
            .mul_f64(factor.max(1.0))
    }

    /// Time to broadcast `bytes` from `src` to every other node
    /// (used by replicated KV-store writes); modelled as the slowest
    /// point-to-point transfer since sends are parallel.
    pub fn broadcast_time(&self, cluster: &Cluster, src: NodeId, bytes: u64) -> SimDuration {
        cluster
            .ids()
            .filter(|&n| n != src)
            .map(|n| self.transfer_time(cluster, src, n, bytes))
            .max()
            .unwrap_or(SimDuration::ZERO)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_node_nearly_free() {
        let net = NetworkModel::default();
        let c = Cluster::heterogeneous(8);
        let t = net.transfer_time(&c, NodeId(0), NodeId(0), 1_000_000);
        assert!(t < SimDuration::from_millis(1));
    }

    #[test]
    fn cross_rack_slower_than_same_rack() {
        let net = NetworkModel::default();
        let c = Cluster::heterogeneous(8);
        let bytes = 100_000_000; // 100 MB
        let same_rack = net.transfer_time(&c, NodeId(0), NodeId(1), bytes);
        let cross_rack = net.transfer_time(&c, NodeId(0), NodeId(5), bytes);
        assert!(cross_rack > same_rack);
    }

    #[test]
    fn transfer_scales_with_size() {
        let net = NetworkModel::default();
        let c = Cluster::heterogeneous(4);
        let small = net.transfer_time(&c, NodeId(0), NodeId(1), 1_000);
        let large = net.transfer_time(&c, NodeId(0), NodeId(1), 1_000_000_000);
        assert!(large > small);
        // 1 GB at 1.25 GB/s ≈ 0.8 s.
        assert!((large.as_secs_f64() - 0.8).abs() < 0.01, "{large}");
    }

    #[test]
    fn broadcast_is_max_of_transfers() {
        let net = NetworkModel::default();
        let c = Cluster::heterogeneous(8);
        let b = net.broadcast_time(&c, NodeId(0), 10_000_000);
        let worst = c
            .ids()
            .filter(|&n| n != NodeId(0))
            .map(|n| net.transfer_time(&c, NodeId(0), n, 10_000_000))
            .max()
            .unwrap();
        assert_eq!(b, worst);
    }

    #[test]
    fn degraded_transfer_scales_and_clamps() {
        let net = NetworkModel::default();
        let c = Cluster::heterogeneous(4);
        let base = net.transfer_time(&c, NodeId(0), NodeId(1), 1_000_000);
        let slow = net.transfer_time_degraded(&c, NodeId(0), NodeId(1), 1_000_000, 3.0);
        assert_eq!(slow, base.mul_f64(3.0));
        // Factors below 1 never speed the network up.
        let clamped = net.transfer_time_degraded(&c, NodeId(0), NodeId(1), 1_000_000, 0.1);
        assert_eq!(clamped, base);
    }

    #[test]
    fn single_node_broadcast_is_zero() {
        let net = NetworkModel::default();
        let c = Cluster::homogeneous(1);
        assert_eq!(
            net.broadcast_time(&c, NodeId(0), 1_000_000),
            SimDuration::ZERO
        );
    }
}
