//! Fig. 11: recovery time on the 16-node cluster as the concurrent
//! invocation count grows (200–1000) with failure rates scaled
//! proportionally — including node-level failures that lose every
//! function on the node.
//!
//! Expected shape (§V-D.6): retry's recovery grows with the batch size;
//! Canary's stays near zero because checkpoints live in cluster-shared
//! storage (a restore after a node failure is priced as a read from the
//! shared tier) and replicated runtimes absorb the restarts — up to 80%
//! reduction.

use super::{sweep_into, trio, FigureOptions, Metric};
use crate::scenario::Scenario;
use canary_platform::JobSpec;
use canary_sim::SeriesSet;
use canary_workloads::WorkloadSpec;

/// (invocations, failure rate) pairs: the rate grows proportionally with
/// the batch size (§V-D.6).
pub const POINTS: [(u32, f64); 4] = [(200, 0.05), (400, 0.10), (800, 0.20), (1000, 0.25)];

/// Per-node crash probability during the run.
pub const NODE_FAILURE_RATE: f64 = 0.10;

/// Build the figure.
pub fn build(opts: &FigureOptions) -> Vec<SeriesSet> {
    let mut set = SeriesSet::new(
        "Fig 11: recovery time vs concurrent invocations (16 nodes, proportional failure rates, node failures on)",
        "function invocations",
        Metric::TotalRecovery.y_label(),
    );
    let points: Vec<(f64, Scenario)> = POINTS
        .iter()
        .map(|&(n, rate)| {
            let n = opts.scaled(n);
            let mut scenario =
                Scenario::chameleon(rate, vec![JobSpec::new(WorkloadSpec::web_service(20), n)]);
            scenario.node_failure_rate = NODE_FAILURE_RATE;
            // Node crashes are drawn within the expected batch lifetime.
            scenario.node_failure_horizon_s = 120;
            (n as f64, scenario)
        })
        .collect();
    sweep_into(&mut set, &points, &trio(), Metric::TotalRecovery, opts);
    vec![set]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_matches_paper() {
        let opts = FigureOptions::quick();
        let set = &build(&opts)[0];
        let retry = set.get("Retry").unwrap();
        let canary = set.get("Canary").unwrap();
        // Retry grows with the batch; Canary stays far below.
        let retry_last = retry.points.last().unwrap().y;
        let canary_last = canary.points.last().unwrap().y;
        assert!(retry_last > retry.points[0].y, "retry should grow");
        assert!(
            canary_last < retry_last * 0.5,
            "canary {canary_last} vs retry {retry_last}"
        );
        // Ideal is flat zero.
        assert!(set.get("Ideal").unwrap().max_y() < 1e-9);
    }
}
