//! # canary-experiments
//!
//! The reproduction harness for the paper's evaluation: a strategy
//! factory and scenario builder ([`scenario`]), a parallel sweep executor
//! ([`sweep`]), one regenerator per figure (Figs. 4–12, [`figures`]), and
//! result emission as CSV / Markdown ([`output`]).
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

/// Reads the `[--quick] [--out PATH]` command line of the study and bench
/// binaries: whether `--quick` was given, and the `--out` path
/// (`default_out` without one). The error names the flag that does not
/// parse.
pub fn quick_and_out(
    args: impl IntoIterator<Item = String>,
    default_out: &str,
) -> Result<(bool, String), String> {
    let (mut quick, mut out) = (false, default_out.to_string());
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--quick" => quick = true,
            "--out" => out = args.next().ok_or("missing value for --out")?,
            other => return Err(format!("unknown flag: {other}")),
        }
    }
    Ok((quick, out))
}
