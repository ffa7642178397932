//! Chaos × migration integration: the `migration` chaos scenario (rack
//! crashes, chunk corruption, degraded transfer windows) run under the
//! Canary-Migrate strategy must
//!
//! 1. complete every function, with the same outcome the plain Canary
//!    strategy reaches on the identical fault plan,
//! 2. never resurrect a checkpoint the corruption oracle condemned —
//!    every planned migration resumes from a checkpoint that is never
//!    reported corrupted anywhere in the run, and
//! 3. reproduce the committed seed-42 goldens (trace and telemetry
//!    export) byte-for-byte.
//!
//! When a deliberate engine or chaos change moves the trace, re-bless
//! with:
//!
//! ```sh
//! CANARY_BLESS=1 cargo test -q -p canary-experiments --test migration
//! ```
//!
//! and review the golden diff like any other code change.

use canary_core::ReplicationStrategyKind;
use canary_experiments::{chaos, telemetry_to_jsonl, trace_to_jsonl, Observe, StrategyKind};
use canary_platform::{RunResult, TraceKind};
use golden::check_golden;
use std::collections::HashSet;

mod common;
mod golden;

const CANARY: StrategyKind = StrategyKind::Canary(ReplicationStrategyKind::Dynamic);
const MIGRATE: StrategyKind = StrategyKind::CanaryMigrate;

/// The pinned seeds; CI's ckpt-smoke job replays seed 42.
const SEEDS: [u64; 3] = [7, 42, 1337];

fn migration_run(strategy: StrategyKind, seed: u64) -> RunResult {
    chaos::demo_scenario(chaos::named("migration").expect("migration scenario")).run(
        strategy,
        seed,
        Observe::TRACE,
    )
}

#[test]
fn migration_survives_the_fault_plan_with_equal_outcomes() {
    for seed in SEEDS {
        let migrated = migration_run(MIGRATE, seed);
        let rerun = migration_run(CANARY, seed);
        assert_eq!(
            migrated.completed_count(),
            24,
            "seed {seed}: every function must survive under Canary-Migrate"
        );
        assert_eq!(
            migrated.completed_count(),
            rerun.completed_count(),
            "seed {seed}: migration must not change which functions finish"
        );
        assert!(
            migrated.counters.migrations > 0,
            "seed {seed}: the rack bursts must trigger at least one migration"
        );
        assert!(
            migrated.counters.chunks_migrated > 0,
            "seed {seed}: planned migrations ship a non-empty chunk delta"
        );
        assert_eq!(
            migrated
                .trace
                .count(|k| matches!(k, TraceKind::MigrationPlanned { .. })) as u64,
            migrated.counters.migrations,
            "seed {seed}: the migration counter mirrors the trace"
        );
    }
}

/// A corrupted checkpoint must stay dead. The chaos corruption oracle is
/// pure (a fixed (fn, ckpt) verdict per seed), so any checkpoint reported
/// corrupted anywhere in the trace was corrupted for the whole run — a
/// migration resuming from it would be a resurrection.
#[test]
fn migration_never_resurrects_a_corrupted_checkpoint() {
    for seed in SEEDS {
        let result = migration_run(MIGRATE, seed);
        let condemned: HashSet<(u64, u64)> = result
            .trace
            .events
            .iter()
            .filter_map(|e| match e.kind {
                TraceKind::CheckpointCorrupted { fn_id, ckpt_id } => Some((fn_id.0, ckpt_id)),
                _ => None,
            })
            .collect();
        assert!(
            !condemned.is_empty(),
            "seed {seed}: the 35% corruption rate must condemn some checkpoint"
        );
        for e in &result.trace.events {
            if let TraceKind::MigrationPlanned { fn_id, ckpt_id, .. } = e.kind {
                assert!(
                    !condemned.contains(&(fn_id.0, ckpt_id)),
                    "seed {seed}: migration of fn {} resumed from checkpoint {} \
                     which the corruption oracle condemned",
                    fn_id.0,
                    ckpt_id
                );
            }
        }
    }
}

#[test]
fn migration_trace_matches_golden_for_seed_42() {
    let result = migration_run(MIGRATE, 42);
    assert_eq!(result.completed_count(), 24);
    common::assert_counts_fold_from_trace(&result);
    check_golden(
        "chaos_migration_seed42.jsonl",
        trace_to_jsonl(&result.trace),
    );
    check_golden(
        "telemetry_migration_seed42.txt",
        telemetry_to_jsonl(&result.telemetry),
    );
}

#[test]
fn same_seed_reproduces_identical_migration_bytes() {
    let a = trace_to_jsonl(&migration_run(MIGRATE, 1337).trace);
    let b = trace_to_jsonl(&migration_run(MIGRATE, 1337).trace);
    assert_eq!(a, b, "migration runs must be byte-for-byte reproducible");
}
