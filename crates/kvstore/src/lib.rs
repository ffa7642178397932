//! # canary-kvstore
//!
//! The in-memory state store Canary depends on — our substitute for
//! Apache Ignite as deployed in the paper (§V-C.1: replicated caching
//! mode, native persistence enabled). Provides:
//!
//! - [`ReplicatedKv`]: full-copy replication across cluster members with
//!   crash / resynchronize semantics and a per-entry size limit
//!   (Algorithm 1's `db_limit`). The group is one ordered
//!   `Bytes -> Bytes` map whose entries record which members hold them,
//!   so a write or remove is one map operation whatever the member count,
//! - [`Wal`]: write-ahead log + compacting snapshots behind the replica
//!   group — the "native persistence" half of the Ignite deployment,
//!   which lets the control plane recover its metadata after a crash.
//!
//! Everything here is a real data structure; the simulation layer
//! separately *times* these operations with the storage-tier model in
//! `canary-cluster`. That model also prices the paper's asynchronous
//! flush of checkpoints to shared storage (§IV-C.4b), so no flushed copy
//! is kept here.

pub mod error;
pub mod replicated;
pub mod store;
pub mod wal;

pub use error::KvError;
pub use replicated::{ReplicatedKv, WalRecovery, WalView};
pub use store::StoreConfig;
pub use wal::{SnapshotState, Wal, WalConfig, WalError, WalOp, WalReplay, WalStats};
