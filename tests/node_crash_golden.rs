//! Golden node-crash traces: request replication and active-standby
//! runs in which node crashes land while multi-clone attempts are still
//! executing, pinned by seed. The crash horizon (40 s) is shorter than
//! one web function (50 requests of 0.6 s), so crashes preempt running
//! attempts instead of hitting an idle cluster.
//!
//! When a deliberate engine change moves the traces, re-bless with:
//!
//! ```sh
//! CANARY_BLESS=1 cargo test -q -p canary-experiments --test node_crash_golden
//! ```
//!
//! and review the golden diff like any other code change.

use canary_experiments::{trace_to_jsonl, Observe, Scenario, StrategyKind};
use canary_platform::{JobSpec, RunResult, TraceKind};
use canary_workloads::{WorkloadKind, WorkloadSpec};
use golden::check_golden;
use std::collections::BTreeSet;

mod common;
mod golden;

const FUNCTIONS: u32 = 80;

fn crash_run(strategy: StrategyKind, seed: u64) -> RunResult {
    let web = WorkloadSpec::paper_default(WorkloadKind::WebService);
    let mut scenario = Scenario::chameleon(0.15, vec![JobSpec::new(web, FUNCTIONS)]);
    scenario.node_failure_rate = 0.4;
    scenario.node_failure_horizon_s = 40;
    scenario.run(strategy, seed, Observe::TRACE)
}

/// Run `strategy` at `seed`, check that every function completes and
/// that some crash killed a running attempt, and compare the trace with
/// `node_crash_{label}_seed{seed}.jsonl`.
fn check_crash_run(strategy: StrategyKind, label: &str, seed: u64) {
    let result = crash_run(strategy, seed);
    assert_eq!(
        result.completed_count(),
        FUNCTIONS as usize,
        "{label} seed {seed}: every function must survive the crashes"
    );
    let crashes: BTreeSet<_> = result
        .trace
        .events
        .iter()
        .filter(|e| matches!(e.kind, TraceKind::NodeFailed { .. }))
        .map(|e| e.at)
        .collect();
    assert!(
        result
            .trace
            .events
            .iter()
            .any(|e| matches!(e.kind, TraceKind::AttemptFailed { .. }) && crashes.contains(&e.at)),
        "{label} seed {seed}: no node crash preempted a running attempt"
    );
    common::assert_counts_fold_from_trace(&result);
    check_golden(
        &format!("node_crash_{label}_seed{seed}.jsonl"),
        trace_to_jsonl(&result.trace),
    );
}

#[test]
fn rr2_node_crash_trace_matches_golden_seed42() {
    check_crash_run(StrategyKind::RequestReplication(2), "rr2", 42);
}

#[test]
fn rr2_node_crash_trace_matches_golden_seed1337() {
    check_crash_run(StrategyKind::RequestReplication(2), "rr2", 1337);
}

#[test]
fn as_node_crash_trace_matches_golden_seed42() {
    check_crash_run(StrategyKind::ActiveStandby, "as", 42);
}
