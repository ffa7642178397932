//! Compute node model.
//!
//! The paper's testbed is 16 bare-metal Chameleon servers with two Intel
//! Xeon Gold 6126 / 6240R / 6242 processors and 192 GB of memory each,
//! connected by 10G Ethernet. Heterogeneity matters to Canary: replica
//! placement is heterogeneity-aware and recovery time varies with the
//! hosting node's speed, so nodes carry an explicit speed factor and a
//! failure-proneness weight (older hardware fails more often, §I).

use std::fmt;

/// Identifier of a node within a cluster (dense, 0-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// CPU classes present in the paper's testbed, plus a generic class for
/// synthetic sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CpuClass {
    /// Intel Xeon Gold 6126 (oldest of the three; Skylake, 2017).
    Gold6126,
    /// Intel Xeon Gold 6240R (Cascade Lake Refresh, 2020).
    Gold6240R,
    /// Intel Xeon Gold 6242 (Cascade Lake, 2019).
    Gold6242,
    /// Generic class with explicit parameters, for synthetic clusters.
    Generic,
}

impl CpuClass {
    /// Relative execution speed (higher = faster). The Gold 6126 is the
    /// baseline 1.0; refresh parts are modestly faster.
    pub fn speed_factor(self) -> f64 {
        match self {
            CpuClass::Gold6126 => 1.00,
            CpuClass::Gold6240R => 1.15,
            CpuClass::Gold6242 => 1.10,
            CpuClass::Generic => 1.00,
        }
    }

    /// Relative failure proneness (older hardware is more failure-prone,
    /// §I; used to bias which node hosts a killed container).
    pub fn failure_weight(self) -> f64 {
        match self {
            CpuClass::Gold6126 => 1.5,
            CpuClass::Gold6240R => 0.8,
            CpuClass::Gold6242 => 1.0,
            CpuClass::Generic => 1.0,
        }
    }
}

/// Static description of one node.
#[derive(Debug, Clone)]
pub struct NodeSpec {
    /// Node identity.
    pub id: NodeId,
    /// CPU class (drives speed and failure weight).
    pub cpu: CpuClass,
    /// Main memory in MB (192 GB in the paper's testbed).
    pub memory_mb: u64,
    /// Rack the node sits in (for locality-aware placement).
    pub rack: u32,
    /// Maximum concurrently executing containers (invoker slots).
    pub container_slots: u32,
}

impl NodeSpec {
    /// Execution speed multiplier applied to durations on this node.
    /// A duration `d` on the reference node takes `d / speed` here.
    pub fn speed(&self) -> f64 {
        self.cpu.speed_factor()
    }

    /// Scale a reference duration to this node's speed.
    pub fn scale(&self, d: canary_sim::SimDuration) -> canary_sim::SimDuration {
        d.mul_f64(1.0 / self.speed())
    }
}

/// Dynamic node status tracked during a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeState {
    /// Healthy and accepting containers.
    Up,
    /// Crashed; all hosted containers are lost (Fig. 11's node-level
    /// failures).
    Down,
}

#[cfg(test)]
mod tests {
    use super::*;
    use canary_sim::SimDuration;

    fn spec(cpu: CpuClass) -> NodeSpec {
        NodeSpec {
            id: NodeId(0),
            cpu,
            memory_mb: 192 * 1024,
            rack: 0,
            container_slots: 64,
        }
    }

    #[test]
    fn newer_cpus_are_faster() {
        assert!(CpuClass::Gold6240R.speed_factor() > CpuClass::Gold6126.speed_factor());
        assert!(CpuClass::Gold6242.speed_factor() > CpuClass::Gold6126.speed_factor());
    }

    #[test]
    fn older_cpus_fail_more() {
        assert!(CpuClass::Gold6126.failure_weight() > CpuClass::Gold6240R.failure_weight());
    }

    #[test]
    fn scale_shortens_on_fast_nodes() {
        let slow = spec(CpuClass::Gold6126);
        let fast = spec(CpuClass::Gold6240R);
        let d = SimDuration::from_secs(10);
        assert!(fast.scale(d) < slow.scale(d));
        assert_eq!(slow.scale(d), d);
    }
}
