//! The Canary benchmark: three workloads driven through the simulator's
//! public API, end-to-end metrics from untraced runs, and per-layer
//! metrics from a separate traced run.
//!
//! - [`workloads`] builds each workload's inputs from a seed and checks
//!   every run's outcome (lost jobs, outcome digest).
//! - [`spans`] holds the benchmark's own span log, the self-time math,
//!   and the strategy wrapper that records one span per hook call.
//! - [`layers`] replays a traced run's checkpoint stream through the
//!   state-plane layers one pass per layer, timing each public call.
//! - [`stats`] holds the order statistics and the FNV digest.
//! - [`alloc`] counts heap allocations for the allocs-per-event figure.
//!
//! `src/main.rs` is the command line `BENCHMARK.json` names.

pub mod alloc;
pub mod layers;
pub mod spans;
pub mod stats;
pub mod workloads;
