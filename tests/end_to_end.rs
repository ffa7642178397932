//! Workspace-level end-to-end tests: every strategy × every paper
//! workload on the full simulated stack.

use canary_core::ReplicationStrategyKind;
use canary_experiments::{Observe, Scenario, StrategyKind, PRICING};
use canary_platform::JobSpec;
use canary_sim::SimDuration;
use canary_workloads::{WorkloadKind, WorkloadSpec};

fn scenario(kind: WorkloadKind, n: u32, rate: f64) -> Scenario {
    Scenario::chameleon(
        rate,
        vec![JobSpec::new(WorkloadSpec::paper_default(kind), n)],
    )
}

#[test]
fn every_strategy_completes_every_workload() {
    let strategies = [
        StrategyKind::Ideal,
        StrategyKind::Retry,
        StrategyKind::Canary(ReplicationStrategyKind::Dynamic),
        StrategyKind::RequestReplication(2),
        StrategyKind::ActiveStandby,
    ];
    for kind in WorkloadKind::ALL {
        for strategy in strategies {
            let r = scenario(kind, 20, 0.2).run(strategy, 3, Observe::NONE);
            assert_eq!(r.completed_count(), 20, "{kind:?} under {strategy:?}");
            assert!(r.makespan() > SimDuration::ZERO);
        }
    }
}

#[test]
fn canary_beats_retry_on_recovery_for_every_workload() {
    for kind in WorkloadKind::ALL {
        let s = scenario(kind, 50, 0.2);
        let retry = s.run(StrategyKind::Retry, 9, Observe::NONE);
        let canary = s.run(
            StrategyKind::Canary(ReplicationStrategyKind::Dynamic),
            9,
            Observe::NONE,
        );
        assert!(
            canary.total_recovery() < retry.total_recovery(),
            "{kind:?}: canary {} vs retry {}",
            canary.total_recovery(),
            retry.total_recovery()
        );
    }
}

#[test]
fn failure_schedules_are_strategy_invariant() {
    // First-attempt failures are identical across strategies for the same
    // seed — the precondition for attributing differences to strategies.
    let s = scenario(WorkloadKind::WebService, 80, 0.25);
    let fail_pattern = |k: StrategyKind| -> Vec<bool> {
        s.run(k, 17, Observe::NONE)
            .fns
            .iter()
            .map(|f| f.failures > 0)
            .collect()
    };
    let retry = fail_pattern(StrategyKind::Retry);
    let canary = fail_pattern(StrategyKind::Canary(ReplicationStrategyKind::Dynamic));
    let as_pat = fail_pattern(StrategyKind::ActiveStandby);
    assert_eq!(retry, canary);
    assert_eq!(retry, as_pat);
}

#[test]
fn cost_ordering_matches_paper_at_moderate_rates() {
    // ideal ≤ canary < RR/AS at a moderate failure rate.
    let s = scenario(WorkloadKind::WebService, 100, 0.15);
    let cost = |k: StrategyKind| PRICING.cost(&s.run(k, 23, Observe::NONE));
    let ideal = cost(StrategyKind::Ideal);
    let canary = cost(StrategyKind::Canary(ReplicationStrategyKind::Dynamic));
    let rr = cost(StrategyKind::RequestReplication(2));
    let aas = cost(StrategyKind::ActiveStandby);
    assert!(ideal <= canary, "ideal {ideal} canary {canary}");
    assert!(canary < rr, "canary {canary} rr {rr}");
    assert!(canary < aas, "canary {canary} as {aas}");
}

#[test]
fn mixed_runtime_jobs_share_one_cluster() {
    // Three jobs with three different runtimes at once: replica pools are
    // per-runtime and must not interfere.
    let scenario = Scenario::chameleon(
        0.2,
        vec![
            JobSpec::new(WorkloadSpec::paper_default(WorkloadKind::DeepLearning), 10),
            JobSpec::new(WorkloadSpec::paper_default(WorkloadKind::WebService), 30),
            JobSpec::new(
                WorkloadSpec::paper_default(WorkloadKind::SparkDataMining),
                20,
            ),
        ],
    );
    let r = scenario.run(
        StrategyKind::Canary(ReplicationStrategyKind::Dynamic),
        31,
        Observe::NONE,
    );
    assert_eq!(r.completed_count(), 60);
    assert_eq!(r.jobs.len(), 3);
    for j in &r.jobs {
        assert!(j.makespan() > SimDuration::ZERO);
    }
}

#[test]
fn node_failures_with_canary_complete_and_recover() {
    let mut s = scenario(WorkloadKind::GraphBfs, 60, 0.1);
    s.node_failure_rate = 0.2;
    s.node_failure_horizon_s = 90;
    let r = s.run(
        StrategyKind::Canary(ReplicationStrategyKind::Dynamic),
        37,
        Observe::NONE,
    );
    assert_eq!(r.completed_count(), 60);
}

#[test]
fn higher_failure_rates_monotonically_increase_retry_recovery() {
    let mut last = -1.0f64;
    for rate in [0.05, 0.15, 0.30, 0.50] {
        let s = scenario(WorkloadKind::WebService, 100, rate);
        let rec = s
            .run(StrategyKind::Retry, 41, Observe::NONE)
            .total_recovery()
            .as_secs_f64();
        assert!(
            rec > last,
            "recovery at rate {rate} ({rec}) should exceed previous ({last})"
        );
        last = rec;
    }
}

/// The serialized controller admits one launch per admission slot. On a
/// saturated one-node cluster a retried `Launch` can fall due at exactly
/// the instant the parked-launch wakeup is due; it takes the slot, and
/// the wakeup waits for the next one. Every cold attempt start is an
/// admission, so consecutive ones are at least `admission_delay` apart.
#[test]
fn a_saturated_controller_admits_one_launch_per_slot() {
    use canary_cluster::{Cluster, FailureModel};
    use canary_platform::{RunConfig, TraceKind};
    let delay =
        RunConfig::new(Cluster::heterogeneous(1), FailureModel::default(), 0).admission_delay;
    let mut s = Scenario::chameleon(0.15, vec![JobSpec::new(WorkloadSpec::web_service(10), 500)]);
    s.nodes = 1;
    for (kind, seed) in [
        (StrategyKind::Retry, 1000),
        (StrategyKind::Canary(ReplicationStrategyKind::Dynamic), 8919),
    ] {
        let r = s.run(kind, seed, Observe::TRACE);
        let admitted: Vec<_> = r
            .trace
            .events
            .iter()
            .filter(|e| matches!(e.kind, TraceKind::AttemptStarted { warm: false, .. }))
            .map(|e| e.at)
            .collect();
        assert!(
            admitted.len() >= 500,
            "{kind:?}: {} admissions",
            admitted.len()
        );
        for w in admitted.windows(2) {
            assert!(
                w[1].saturating_since(w[0]) >= delay,
                "{kind:?} seed {seed}: admissions at {} and {}",
                w[0],
                w[1]
            );
        }
    }
}
