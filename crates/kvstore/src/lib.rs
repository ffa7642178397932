//! # canary-kvstore
//!
//! The in-memory state store Canary depends on — our substitute for
//! Apache Ignite as deployed in the paper (§V-C.1: replicated caching
//! mode, native persistence enabled). Provides:
//!
//! - [`KvStore`]: a sharded concurrent ordered `Bytes -> Bytes` map with a
//!   per-entry size limit (Algorithm 1's `db_limit`),
//! - [`ReplicatedKv`]: full-copy replication across cluster members with
//!   crash / resynchronize semantics,
//! - [`AsyncFlusher`] + [`PersistentLog`]: asynchronous flushing of
//!   checkpoints to shared storage (§IV-C.4b),
//! - [`Wal`]: write-ahead log + compacting snapshots behind the replica
//!   group — the "native persistence" half of the Ignite deployment,
//!   which lets the control plane recover its metadata after a crash.
//!
//! Everything here is a real concurrent data structure exercised by real
//! threads; the simulation layer separately *times* these operations with
//! the storage-tier model in `canary-cluster`.

pub mod error;
pub mod persistence;
pub mod replicated;
pub mod store;
pub mod wal;

pub use error::KvError;
pub use persistence::{AsyncFlusher, LogRecord, PersistentLog};
pub use replicated::{ReplicatedKv, WalRecovery};
pub use store::{KvStore, StoreConfig};
pub use wal::{SnapshotState, Wal, WalConfig, WalError, WalOp, WalReplay, WalStats};
