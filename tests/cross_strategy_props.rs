//! Property-based cross-crate tests: strategy invariants that must hold
//! for arbitrary failure rates, seeds, and batch sizes.

use canary_cluster::{ChaosSpec, DegradeSpec, PartitionSpec, StoreOutageSpec};
use canary_core::ReplicationStrategyKind;
use canary_experiments::{trace_to_jsonl, Scenario, StrategyKind, PRICING};
use canary_platform::{JobSpec, TraceKind};
use canary_workloads::WorkloadSpec;
use proptest::prelude::*;

mod common;

fn scenario(rate: f64, invocations: u32) -> Scenario {
    Scenario::chameleon(
        rate,
        vec![JobSpec::new(WorkloadSpec::web_service(10), invocations)],
    )
}

fn chaos_scenario(rate: f64, invocations: u32, spec: ChaosSpec) -> Scenario {
    let mut s = scenario(rate, invocations);
    s.chaos = spec;
    s
}

/// Arbitrary-but-valid chaos plans with every fault class represented,
/// windows scaled to the short web-service makespans used here so they
/// actually overlap live execution.
fn chaos_spec() -> impl Strategy<Value = ChaosSpec> {
    (
        (0u64..8, 1u64..20),              // partition from, length
        (1.5f64..4.0, 0u64..8, 1u64..15), // degrade factor, from, length
        (0u32..3, 0u64..8, 0u64..20),     // outage member, from, rejoin delay (0 = never)
        0.0f64..0.4,                      // straggler_rate
        0.0f64..0.6,                      // corruption_rate
    )
        .prop_map(|(part, deg, outage, straggler_rate, corruption_rate)| {
            let (from_s, len) = part;
            let (factor, deg_from, deg_len) = deg;
            let (member, out_from, rejoin) = outage;
            let mut spec = ChaosSpec {
                straggler_rate,
                corruption_rate,
                ..ChaosSpec::default()
            };
            spec.partitions.push(PartitionSpec {
                a: 0,
                b: 5,
                from_s,
                until_s: from_s + len,
            });
            spec.degrades.push(DegradeSpec {
                factor,
                from_s: deg_from,
                until_s: deg_from + deg_len,
            });
            spec.store_outages.push(StoreOutageSpec {
                member,
                from_s: out_from,
                rejoin_s: (rejoin > 0).then(|| out_from + rejoin),
            });
            spec.validate().expect("generated specs must be valid");
            spec
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every function completes under every failure rate, for both
    /// strategies, from any seed.
    #[test]
    fn completion_is_guaranteed(
        rate in 0.0f64..0.6,
        seed in 0u64..1000,
        n in 5u32..40,
    ) {
        for kind in [StrategyKind::Retry, StrategyKind::Canary(ReplicationStrategyKind::Dynamic)] {
            let r = scenario(rate, n).run_once(kind, seed);
            prop_assert_eq!(r.completed_count(), n as usize);
        }
    }

    /// Canary's aggregate recovery never exceeds retry's on the same
    /// failure schedule (same seed → same first-attempt failures).
    #[test]
    fn canary_recovery_never_worse(
        rate in 0.05f64..0.5,
        seed in 0u64..500,
    ) {
        let s = scenario(rate, 30);
        let retry = s.run_once(StrategyKind::Retry, seed);
        let canary = s.run_once(StrategyKind::Canary(ReplicationStrategyKind::Dynamic), seed);
        // Allow exact equality for the zero-failure case.
        prop_assert!(
            canary.total_recovery() <= retry.total_recovery(),
            "canary {} retry {}",
            canary.total_recovery(),
            retry.total_recovery()
        );
    }

    /// The ideal run is a lower bound on makespan and cost — up to a
    /// small placement perturbation: Canary's parked replicas shift the
    /// load balancer's choices, and on a heterogeneous cluster a
    /// displaced function can land on a faster node.
    #[test]
    fn ideal_is_a_lower_bound(rate in 0.0f64..0.5, seed in 0u64..500) {
        let s = scenario(rate, 25);
        let ideal = s.run_once(StrategyKind::Ideal, seed);
        for kind in [StrategyKind::Retry, StrategyKind::Canary(ReplicationStrategyKind::Dynamic)] {
            let r = s.run_once(kind, seed);
            prop_assert!(
                r.makespan().as_secs_f64() >= ideal.makespan().as_secs_f64() * 0.90,
                "{kind:?}: {} vs ideal {}", r.makespan(), ideal.makespan()
            );
            prop_assert!(PRICING.cost(&r) >= PRICING.cost(&ideal) * 0.95);
        }
    }

    /// Determinism: identical inputs, identical outputs.
    #[test]
    fn runs_are_pure_functions_of_seed(rate in 0.0f64..0.5, seed in 0u64..500) {
        let s = scenario(rate, 20);
        let a = s.run_once(StrategyKind::Canary(ReplicationStrategyKind::Dynamic), seed);
        let b = s.run_once(StrategyKind::Canary(ReplicationStrategyKind::Dynamic), seed);
        prop_assert_eq!(a.makespan(), b.makespan());
        prop_assert_eq!(a.total_recovery(), b.total_recovery());
        prop_assert_eq!(a.counters.function_failures, b.counters.function_failures);
    }

    /// Failures recorded by the engine match the oracle's first-attempt
    /// draws plus retries: at rate 0 there are none; the count never
    /// goes down when only the rate grows (same seed).
    #[test]
    fn failure_counts_monotone_in_rate(seed in 0u64..200) {
        let mut last = 0u64;
        for rate in [0.0, 0.1, 0.3, 0.5] {
            let r = scenario(rate, 30).run_once(StrategyKind::Retry, seed);
            // Not strictly monotone per-seed (different draws per rate),
            // but zero at zero and positive afterwards.
            if rate == 0.0 {
                prop_assert_eq!(r.counters.function_failures, 0);
            }
            last = last.max(r.counters.function_failures);
        }
        prop_assert!(last > 0, "some failure should occur by 50%");
    }

    /// Chaos degrades, it never wedges: every strategy finishes every
    /// function under arbitrary fault plans, without panicking.
    #[test]
    fn chaos_never_prevents_completion(
        spec in chaos_spec(),
        rate in 0.05f64..0.4,
        seed in 0u64..500,
    ) {
        let s = chaos_scenario(rate, 20, spec);
        for kind in [
            StrategyKind::Retry,
            StrategyKind::Canary(ReplicationStrategyKind::Dynamic),
            StrategyKind::RequestReplication(2),
            StrategyKind::ActiveStandby,
        ] {
            let r = s.run_once(kind, seed);
            prop_assert_eq!(r.completed_count(), 20, "{:?}", kind);
        }
    }

    /// No run ever completes from corrupted state: with every checkpoint
    /// corrupted, nothing is restored — each recovery falls back to a
    /// rerun from state 0, and the job still finishes.
    #[test]
    fn corrupted_checkpoints_are_never_restored(seed in 0u64..500) {
        let spec = ChaosSpec {
            corruption_rate: 1.0,
            ..ChaosSpec::default()
        };
        let r = chaos_scenario(0.3, 20, spec)
            .run_observed(StrategyKind::Canary(ReplicationStrategyKind::Dynamic), seed);
        prop_assert_eq!(r.completed_count(), 20);
        prop_assert_eq!(
            r.trace.count(|k| matches!(k, TraceKind::CheckpointRestored { .. })),
            0,
            "a fully corrupted store must never serve a restore"
        );
        for e in &r.trace.events {
            if let TraceKind::RestoreFallback { state, .. } = e.kind {
                prop_assert_eq!(state, 0, "fallback must rerun from the start");
            }
        }
    }

    /// The ideal run (chaos is forced empty for it) stays a lower bound
    /// even when every other strategy fights an arbitrary fault plan.
    #[test]
    fn ideal_is_a_lower_bound_under_chaos(spec in chaos_spec(), seed in 0u64..500) {
        let s = chaos_scenario(0.2, 20, spec);
        let ideal = s.run_once(StrategyKind::Ideal, seed);
        for kind in [StrategyKind::Retry, StrategyKind::Canary(ReplicationStrategyKind::Dynamic)] {
            let r = s.run_once(kind, seed);
            prop_assert!(
                r.makespan().as_secs_f64() >= ideal.makespan().as_secs_f64() * 0.90,
                "{kind:?}: {} vs ideal {}", r.makespan(), ideal.makespan()
            );
        }
    }

    /// Chaos runs are reproducible down to the byte: same spec, same
    /// seed, identical JSONL trace.
    #[test]
    fn chaos_traces_are_byte_identical_per_seed(spec in chaos_spec(), seed in 0u64..500) {
        let s = chaos_scenario(0.25, 15, spec);
        let kind = StrategyKind::Canary(ReplicationStrategyKind::Dynamic);
        let a = trace_to_jsonl(&s.run_observed(kind, seed).trace);
        let b = trace_to_jsonl(&s.run_observed(kind, seed).trace);
        prop_assert_eq!(a, b);
    }

    /// Counts never drift from the trace: under an arbitrary fault plan,
    /// every strategy's traced counters are a fold over its trace.
    #[test]
    fn counters_are_a_fold_over_the_trace(spec in chaos_spec(), seed in 0u64..500) {
        let s = chaos_scenario(0.25, 15, spec);
        for kind in [
            StrategyKind::Retry,
            StrategyKind::Canary(ReplicationStrategyKind::Dynamic),
            StrategyKind::CanaryMigrate,
            StrategyKind::RequestReplication(2),
            StrategyKind::ActiveStandby,
        ] {
            common::assert_counts_fold_from_trace(&s.run_observed(kind, seed));
        }
    }
}
