//! # canary-bench
//!
//! Host-performance runners for the Canary reproduction:
//!
//! - `bench_engine` measures the engine's three scheduler queries,
//!   indexed vs the pre-refactor naive scans, at 100/1k/10k containers,
//!   plus the observability tax, and writes `BENCH_engine.json` (the CI
//!   `bench-smoke` artifact);
//! - `bench_scale` runs the scale tiers and writes `BENCH_scale.json`
//!   (the CI `scale-smoke` artifact).
//!
//! [`scheduler`] builds the registries and platforms `bench_engine`
//! measures.

pub mod scheduler;
