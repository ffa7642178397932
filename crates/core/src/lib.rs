//! # canary-core
//!
//! The paper's primary contribution: the Canary fault-tolerance framework
//! for stateful FaaS, assembled from the modules of §IV:
//!
//! - [`core_module::CanaryStrategy`] — the Core Module, orchestrating
//!   detection and recovery as a pluggable platform strategy,
//! - [`validator::RequestValidator`] — the Request Validator Module,
//! - [`checkpoint::CheckpointingModule`] — Algorithm 1 (state and
//!   critical-data checkpointing with KV storage, spill tiers, and the
//!   latest-*n* window),
//! - [`replication::ReplicationModule`] — Algorithm 2 (runtime
//!   replication with DR / AR / LR policies and locality-aware placement),
//! - [`runtime_manager::RuntimeManager`] — replica tracking, reservation,
//!   and failed-function-to-replica mapping,
//! - [`db::CanaryDb`] — the five metadata tables over the replicated KV
//!   store.

pub mod api;
pub mod checkpoint;
pub mod chunk;
pub mod config;
pub mod core_module;
pub mod db;
pub mod prediction;
pub mod replication;
pub mod runtime_manager;
pub mod validator;
#[cfg(test)]
mod window;

pub use api::{ApiError, FunctionContext, RegisteredState, StateService};
pub use checkpoint::{CheckpointingModule, CkptOptions, MigrateInfo, MigrateLookup, RestoreInfo};
pub use chunk::{
    decode_manifest, encode_manifest, fnv1a64, restore_from_manifest, sequence_digest, ChunkError,
    ChunkStats, ChunkStore, Manifest, ManifestError,
};
pub use config::{CanaryConfig, CheckpointMode, ReplicationStrategyKind};
pub use core_module::CanaryStrategy;
pub use db::{
    CanaryDb, CheckpointInfoRow, DbError, DbOptions, FunctionInfoRow, JobInfoRow,
    ReplicationInfoRow, TableKey, WorkerInfoRow,
};
pub use prediction::FailurePredictor;
pub use replication::ReplicationModule;
pub use runtime_manager::{ReplicaOffer, RuntimeManager};
pub use validator::{Admission, PlatformLimits, RequestValidator, ValidationError};
