//! Golden chaos traces: the canonical `mixed` chaos scenario, pinned by
//! seed, must reproduce byte-identical JSONL traces run after run and
//! match the committed goldens in `tests/goldens/`. The metadata db's
//! write-ahead-log image after each pinned run is pinned the same way.
//!
//! When a deliberate engine or chaos change moves the traces, re-bless
//! with:
//!
//! ```sh
//! CANARY_BLESS=1 cargo test -q -p canary-experiments --test chaos_golden
//! ```
//!
//! and review the golden diff like any other code change.

use canary_core::{CanaryConfig, CanaryStrategy, DbOptions, ReplicationStrategyKind};
use canary_experiments::{
    chaos, telemetry_to_jsonl, trace_from_jsonl, trace_to_jsonl, Observe, StrategyKind,
};
use canary_platform::{RunResult, TraceKind};
use golden::{check_golden, golden_path};
use std::path::PathBuf;

mod common;
mod golden;

const CANARY: StrategyKind = StrategyKind::Canary(ReplicationStrategyKind::Dynamic);

/// The pinned seeds; CI's chaos-smoke job runs the same three.
const SEEDS: [u64; 3] = [7, 42, 1337];

fn mixed_run(seed: u64) -> RunResult {
    chaos::demo_scenario(chaos::named("mixed").expect("mixed scenario")).run(
        CANARY,
        seed,
        Observe::TRACE,
    )
}

#[test]
fn mixed_chaos_traces_match_goldens_for_pinned_seeds() {
    for seed in SEEDS {
        let result = mixed_run(seed);
        assert_eq!(
            result.completed_count(),
            24,
            "seed {seed}: every function must survive the mixed fault plan"
        );
        common::assert_counts_fold_from_trace(&result);
        check_golden(
            &format!("chaos_mixed_seed{seed}.jsonl"),
            trace_to_jsonl(&result.trace),
        );
        if seed == 42 {
            check_golden(
                "telemetry_mixed_seed42.txt",
                telemetry_to_jsonl(&result.telemetry),
            );
        }
    }
}

#[test]
fn mixed_chaos_recovery_breakdown_matches_golden() {
    let result = mixed_run(42);
    check_golden(
        "chaos_mixed_seed42_recovery.txt",
        canary_metrics::recovery_breakdown(&result.trace),
    );
}

#[test]
fn mixed_chaos_trace_tells_the_whole_fault_story() {
    // The acceptance scenario: with the checkpoint store partitioned and
    // fully down mid-run, Canary completes everything and the trace
    // carries each fault class explicitly.
    let result = mixed_run(42);
    let count = |pred: fn(&TraceKind) -> bool| result.trace.count(pred);
    assert_eq!(result.completed_count(), 24);
    assert!(count(|k| matches!(k, TraceKind::PartitionStarted { .. })) > 0);
    assert!(count(|k| matches!(k, TraceKind::PartitionHealed { .. })) > 0);
    assert!(count(|k| matches!(k, TraceKind::StoreOutage { .. })) >= 3);
    assert!(count(|k| matches!(k, TraceKind::StoreRejoined { .. })) >= 3);
    assert!(count(|k| matches!(k, TraceKind::NetworkDegraded { .. })) > 0);
    assert!(count(|k| matches!(k, TraceKind::StragglerInjected { .. })) > 0);
    assert!(count(|k| matches!(k, TraceKind::CheckpointSkipped { .. })) > 0);
    assert!(count(|k| matches!(k, TraceKind::RestoreFallback { .. })) > 0);
}

#[test]
fn controller_crash_trace_matches_golden() {
    // The durable-control-plane scenario: the full mixed storm plus a
    // controller crash-restart mid-run. The golden pins both crash
    // markers and — because recovery is lossless and instantaneous in
    // simulated time — an event stream otherwise identical to the mixed
    // golden for the same seed.
    let result = chaos::demo_scenario(chaos::named("controller-crash").expect("scenario")).run(
        CANARY,
        42,
        Observe::TRACE,
    );
    assert_eq!(result.completed_count(), 24);
    assert_eq!(result.counters.controller_crashes, 1);
    assert_eq!(
        result
            .trace
            .count(|k| matches!(k, TraceKind::ControllerRecovered { .. })),
        1
    );
    assert!(result.counters.wal_records_replayed > 0);
    common::assert_counts_fold_from_trace(&result);
    check_golden(
        "chaos_controller_crash_seed42.jsonl",
        trace_to_jsonl(&result.trace),
    );
    check_golden(
        "telemetry_controller_crash_seed42.txt",
        telemetry_to_jsonl(&result.telemetry),
    );
}

#[test]
fn controller_crash_golden_is_the_mixed_golden_plus_markers() {
    // Cross-golden invariant, checked against the committed bytes so CI
    // catches a drift in either file: strip the crash markers from the
    // controller-crash golden and the mixed seed-42 golden must remain.
    let read = |name: &str| {
        std::fs::read_to_string(golden_path(name))
            .unwrap_or_else(|e| panic!("missing golden {name} ({e}); bless with CANARY_BLESS=1"))
    };
    let filtered: String = read("chaos_controller_crash_seed42.jsonl")
        .lines()
        .filter(|l| {
            !l.contains("\"kind\":\"controller_crashed\"")
                && !l.contains("\"kind\":\"controller_recovered\"")
        })
        .flat_map(|l| [l, "\n"])
        .collect();
    assert!(
        filtered == read("chaos_mixed_seed42.jsonl"),
        "crash markers aside, the controller-crash golden must equal the \
         mixed golden byte-for-byte"
    );
}

/// One observed run of scenario `name` with the Canary strategy built
/// outside the run over a metadata db made from `db`, the way
/// `canaryctl chaos --wal-out` builds it, so the db can be read after.
fn canary_run(name: &str, seed: u64, db: DbOptions) -> (RunResult, CanaryStrategy) {
    let config = CanaryConfig::with_replication(ReplicationStrategyKind::Dynamic);
    let mut strategy = CanaryStrategy::with_db_options(config, db);
    let scenario = chaos::demo_scenario(chaos::named(name).expect("scenario"));
    let result = scenario.run_with(CANARY, seed, Observe::TRACE, &mut strategy);
    assert_eq!(result.completed_count(), 24, "{name} seed {seed}");
    (result, strategy)
}

/// The metadata db's write-ahead-log image after one run of scenario
/// `name` under `CanaryStrategy::new`'s durable db.
fn wal_image(name: &str, seed: u64) -> Vec<u8> {
    let (_, strategy) = canary_run(name, seed, DbOptions::durable(3));
    let wal = strategy.db().kv().wal().expect("durability is on");
    wal.to_bytes()
}

#[test]
fn wal_images_match_goldens() {
    // The log is the control plane's durable state, so its bytes are
    // pinned like the traces. A controller crash-restart recovers the
    // group from the log and keeps logging through it, so the crashed
    // run must leave the same image as the uninterrupted one.
    for seed in SEEDS {
        let mixed = wal_image("mixed", seed);
        check_golden(&format!("wal_mixed_seed{seed}.bin"), &mixed);
        assert!(
            wal_image("controller-crash", seed) == mixed,
            "seed {seed}: the controller-crash WAL image must equal the mixed one"
        );
    }
}

#[test]
fn row_cache_off_reproduces_mixed_goldens() {
    // The write-through row cache is invisible to the run and to the
    // log: without it, seed 42 writes the same trace and WAL image, and
    // the cache records no traffic at all.
    let db = DbOptions {
        cache: false,
        ..DbOptions::durable(3)
    };
    let (result, strategy) = canary_run("mixed", 42, db);
    check_golden("chaos_mixed_seed42.jsonl", trace_to_jsonl(&result.trace));
    let wal = strategy.db().kv().wal().expect("durability is on");
    check_golden("wal_mixed_seed42.bin", wal.to_bytes());
    assert_eq!(strategy.db().cache_stats(), (0, 0));
}

#[test]
fn wal_off_reproduces_mixed_golden() {
    // With no controller crash injected, logging is invisible to the
    // run: a memory-only db writes the same seed-42 trace.
    let (result, strategy) = canary_run("mixed", 42, DbOptions::fast(3));
    check_golden("chaos_mixed_seed42.jsonl", trace_to_jsonl(&result.trace));
    assert!(strategy.db().kv().wal().is_none());
}

#[test]
fn same_seed_reproduces_identical_trace_bytes() {
    let a = trace_to_jsonl(&mixed_run(7).trace);
    let b = trace_to_jsonl(&mixed_run(7).trace);
    assert_eq!(a, b, "chaos runs must be byte-for-byte reproducible");
}

#[test]
fn every_golden_decodes_and_reencodes_byte_for_byte() {
    // The reader and the writer agree on every committed wire line:
    // decoding a golden and encoding it again gives back its exact bytes.
    let mut paths: Vec<PathBuf> = std::fs::read_dir(golden_path(""))
        .expect("goldens directory")
        .map(|entry| entry.expect("goldens entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "jsonl"))
        .collect();
    paths.sort();
    assert!(
        paths.len() >= 6,
        "expected the committed goldens, found {paths:?}"
    );
    for path in paths {
        let golden = std::fs::read_to_string(&path).expect("golden reads");
        let trace = trace_from_jsonl(&golden)
            .unwrap_or_else(|e| panic!("{} does not decode: {e}", path.display()));
        assert!(
            trace_to_jsonl(&trace) == golden,
            "{} does not re-encode to its own bytes",
            path.display()
        );
    }
}
