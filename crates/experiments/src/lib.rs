//! # canary-experiments
//!
//! The reproduction harness for the paper's evaluation: a strategy
//! factory and scenario builder ([`scenario`]), a parallel sweep executor
//! ([`sweep`]), one regenerator per figure (Figs. 4–12, [`figures`]), and
//! result emission as ASCII / CSV / Markdown ([`output`]).
//!
//! `canaryctl fig <name>` regenerates one figure into `results/`, and
//! `canaryctl fig all` every one of them; `--reps N` overrides the
//! paper's 10 repetitions per point. `canaryctl` runs and `canaryctl
//! chaos` accept `--trace-out` / `--telemetry-out` / `--timeline` to
//! export an observed run as JSONL and ASCII timelines ([`export`]).

pub mod chaos;
pub mod export;
pub mod figures;
pub mod load;
pub mod output;
pub mod scenario;
pub mod sweep;

pub use export::{telemetry_to_jsonl, trace_from_jsonl, trace_to_jsonl, ExportError, ObsOptions};
pub use figures::{FigureOptions, Metric};
pub use load::{open_loop_jobs, run_study, LoadConfig, LoadPoint};
pub use output::emit;
pub use scenario::{Observe, Scenario, StrategyKind, ERROR_RATES, PRICING};
pub use sweep::parallel_map;
