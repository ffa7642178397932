//! # canary-cluster
//!
//! Cluster substrate for the Canary reproduction: the heterogeneous node
//! model (Xeon Gold 6126 / 6240R / 6242 speed and failure profiles from the
//! paper's Chameleon testbed), rack topology with locality distances, a
//! 10G-Ethernet network model, the checkpoint storage hierarchy
//! (KV store → pmem / ramdisk → NFS / S3-like), and the deterministic
//! failure injector that kills function attempts and whole nodes at a
//! configured error rate — exactly the methodology of §V-B.

pub mod chaos;
pub mod failure;
pub mod network;
pub mod node;
pub mod storage;
pub mod topology;

pub use chaos::{
    BurstSpec, ChaosPlan, ChaosSpec, ControllerCrashSpec, DegradeSpec, FaultEvent, PartitionSpec,
    StoreOutageSpec,
};
pub use failure::{AttemptFailure, FailureInjector, FailureModel, NodeFailure};
pub use network::NetworkModel;
pub use node::{CpuClass, NodeId, NodeSpec, NodeState};
pub use storage::{StorageHierarchy, StorageTier};
pub use topology::Cluster;
