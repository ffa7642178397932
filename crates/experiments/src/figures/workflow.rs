//! Workflow sensitivity study — an extension experiment beyond the
//! paper's figures, in the setting its introduction motivates: a chained
//! map→reduce workflow whose reduce stage cannot start until every mapper
//! has completed. Because the stage boundary is a synchronization
//! barrier, a *single* slow recovery in the map stage delays the whole
//! pipeline; this study sweeps the failure rate and reports the workflow
//! makespan and the stage-boundary time for ideal / retry / Canary.
//!
//! ```sh
//! cargo run --release -p canary-experiments --bin canaryctl -- fig workflow_study
//! ```

use super::FigureOptions;
use canary_baselines::{IdealStrategy, RetryStrategy};
use canary_cluster::{Cluster, FailureModel};
use canary_core::CanaryStrategy;
use canary_platform::{run, FtStrategy, JobSpec, RunConfig, RunResult};
use canary_sim::SeriesSet;
use canary_workloads::WorkloadSpec;

const RATES: [f64; 5] = [0.0, 0.05, 0.15, 0.30, 0.50];

fn pipeline() -> Vec<JobSpec> {
    vec![
        JobSpec::new(WorkloadSpec::web_service(15), 40), // map stage
        JobSpec::chained(WorkloadSpec::spark_mining(10), 10, 0), // reduce stage
    ]
}

fn run_at(strategy: &mut dyn FtStrategy, rate: f64, seed: u64) -> RunResult {
    let cfg = RunConfig::new(
        Cluster::chameleon_16(),
        FailureModel::with_error_rate(rate),
        seed,
    );
    run(cfg, pipeline(), strategy)
}

/// Build the study: the workflow makespan and the stage-boundary time
/// against the failure rate, each point averaged over `opts.reps`
/// repetitions run one after another (seeds `10_000 + rep·7919`).
/// `opts.scale` is ignored: the pipeline's shape is the experiment.
pub fn build(opts: &FigureOptions) -> Vec<SeriesSet> {
    let reps = opts.reps;

    let mut makespan = SeriesSet::new(
        "Workflow study: chained map-reduce makespan vs failure rate",
        "failure rate (%)",
        "workflow makespan (s)",
    );
    let mut boundary = SeriesSet::new(
        "Workflow study: stage-boundary time (reduce admission) vs failure rate",
        "failure rate (%)",
        "map stage completion (s)",
    );

    for &rate in &RATES {
        let x = rate * 100.0;
        for label in ["Ideal", "Retry", "Canary"] {
            let mut ms = 0.0;
            let mut bd = 0.0;
            for rep in 0..reps {
                let seed = 10_000 + rep * 7919;
                let r = match label {
                    "Ideal" => run_at(&mut IdealStrategy::new(), 0.0, seed),
                    "Retry" => run_at(&mut RetryStrategy::new(), rate, seed),
                    _ => run_at(&mut CanaryStrategy::default_dr(), rate, seed),
                };
                ms += r.makespan().as_secs_f64();
                bd += r.jobs[0]
                    .completed_at
                    .saturating_since(r.jobs[0].submitted_at)
                    .as_secs_f64();
            }
            makespan.series_mut(label).push(x, ms / reps as f64);
            boundary.series_mut(label).push(x, bd / reps as f64);
        }
    }

    vec![makespan, boundary]
}
