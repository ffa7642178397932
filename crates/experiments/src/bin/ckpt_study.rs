//! `ckpt_study` — the incremental-checkpoint storage-footprint and
//! live-migration recovery study, committed as `BENCH_ckpt.json`.
//!
//! ```text
//! ckpt_study [--quick] [--out PATH]
//! ```
//!
//! Three measurements, each with its bound asserted in-binary:
//!
//! 1. **Dedup footprint.** Drives the chunked checkpoint module over a
//!    delta-friendly workload (consecutive checkpoints share most of
//!    their state blocks) and compares cumulative logical bytes — what a
//!    whole-blob store would have written — against physically stored
//!    chunk bytes. The run fails unless dedup saves at least 2×.
//! 2. **Differential restore.** Every function's chunked restore must be
//!    byte-identical to the blob oracle's over the same op sequence.
//! 3. **Migration vs rerun.** On a node loss the delta transfer of a
//!    live migration must price strictly below the full shared-tier
//!    rerun-from-checkpoint read; the blob oracle must show no such win.
//!    A chaos sweep of the `migration` scenario then confirms the
//!    end-to-end path: migrated runs finish the same work and actually
//!    migrate.
//!
//! All simulation inputs are pinned, so the emitted numbers are
//! reproducible byte-for-byte.

use canary_cluster::StorageHierarchy;
use canary_core::{
    CanaryConfig, CanaryDb, CheckpointingModule, CkptOptions, ReplicationStrategyKind,
};
use canary_experiments::{chaos, Observe, StrategyKind};
use canary_metrics::recovery_spans;
use canary_sim::SimTime;
use std::fmt::Write as _;
use std::process::exit;
use std::sync::Arc;

const SEEDS: [u64; 3] = [7, 42, 1337];

fn chunked_module() -> CheckpointingModule {
    CheckpointingModule::new(
        CanaryConfig::default(),
        StorageHierarchy::default(),
        Arc::new(CanaryDb::new(3)),
    )
}

fn oracle_module() -> CheckpointingModule {
    CheckpointingModule::with_options(
        CanaryConfig::default(),
        StorageHierarchy::default(),
        Arc::new(CanaryDb::new(3)),
        CkptOptions {
            blob_oracle: true,
            ..CkptOptions::default()
        },
    )
}

struct Footprint {
    functions: u64,
    checkpoints_per_fn: u32,
    logical_bytes: u64,
    stored_bytes: u64,
    chunks_written: u64,
    chunks_deduped: u64,
    dedup_ratio: f64,
    restores_checked: u64,
}

/// Write `per_fn` checkpoints for each of `functions` functions through
/// the chunked module and the blob oracle, then compare footprints and
/// restored bytes.
fn measure_footprint(functions: u64, per_fn: u32, violations: &mut Vec<String>) -> Footprint {
    let mut chunked = chunked_module();
    let mut oracle = oracle_module();
    for fn_id in 0..functions {
        for state in 0..per_fn {
            let now = SimTime::from_micros(state as u64 + 1);
            chunked
                .record(fn_id as u32, fn_id, state, 256 * 1024, now)
                .expect("chunked record");
            oracle
                .record(fn_id as u32, fn_id, state, 256 * 1024, now)
                .expect("oracle record");
        }
    }
    let mut restores = 0u64;
    for fn_id in 0..functions {
        let c = chunked.restore_payload(fn_id, &|_| false);
        let o = oracle.restore_payload(fn_id, &|_| false);
        match (c, o) {
            (Some((ck, cb)), Some((ok, ob))) => {
                if ck != ok || cb != ob {
                    violations.push(format!(
                        "fn {fn_id}: chunked restore (ckpt {ck}, {} B) differs \
                         from blob oracle (ckpt {ok}, {} B)",
                        cb.len(),
                        ob.len()
                    ));
                } else {
                    restores += 1;
                }
            }
            (c, o) => violations.push(format!(
                "fn {fn_id}: restore availability diverged (chunked {}, oracle {})",
                c.is_some(),
                o.is_some()
            )),
        }
    }
    let stats = chunked.chunk_stats();
    let logical = stats.bytes_written + stats.bytes_deduped;
    let ratio = logical as f64 / stats.bytes_written.max(1) as f64;
    if ratio < 2.0 {
        violations.push(format!(
            "dedup ratio {ratio:.2}x below the 2x bound \
             ({logical} logical B vs {} stored B)",
            stats.bytes_written
        ));
    }
    Footprint {
        functions,
        checkpoints_per_fn: per_fn,
        logical_bytes: logical,
        stored_bytes: stats.bytes_written,
        chunks_written: stats.written,
        chunks_deduped: stats.deduped,
        dedup_ratio: ratio,
        restores_checked: restores,
    }
}

struct MigrationPricing {
    rerun_us: u64,
    migrate_us: u64,
    rerun_bytes: u64,
    migrate_bytes: u64,
    migrate_chunks: u32,
    oracle_rerun_us: u64,
    oracle_migrate_us: u64,
}

/// Price a node-loss recovery both ways on a pinned checkpoint chain:
/// full rerun-from-checkpoint read vs chunk-delta migration.
fn price_migration(violations: &mut Vec<String>) -> MigrationPricing {
    let mut m = chunked_module();
    for s in 0..6u32 {
        m.record(
            0,
            9,
            s,
            64 * 1024 * 1024,
            SimTime::from_micros(s as u64 + 1),
        )
        .expect("record");
    }
    let rerun = m
        .restore_lookup(9, true, &|_| false)
        .info
        .expect("rerun lookup");
    let mig = m
        .migrate_lookup(9, &|_| false)
        .info
        .expect("migrate lookup");
    if mig.duration >= rerun.duration {
        violations.push(format!(
            "migration ({}) must price strictly below rerun ({})",
            mig.duration, rerun.duration
        ));
    }
    if mig.resume_from_state != rerun.resume_from_state {
        violations.push(format!(
            "migration resumes from state {} but rerun from {}",
            mig.resume_from_state, rerun.resume_from_state
        ));
    }
    let mut b = oracle_module();
    for s in 0..6u32 {
        b.record(
            0,
            9,
            s,
            64 * 1024 * 1024,
            SimTime::from_micros(s as u64 + 1),
        )
        .expect("record");
    }
    let orerun = b
        .restore_lookup(9, true, &|_| false)
        .info
        .expect("oracle rerun");
    let omig = b
        .migrate_lookup(9, &|_| false)
        .info
        .expect("oracle migrate");
    if omig.duration != orerun.duration {
        violations.push(format!(
            "blob oracle migration ({}) must degenerate to the full read ({})",
            omig.duration, orerun.duration
        ));
    }
    MigrationPricing {
        rerun_us: rerun.duration.as_micros(),
        migrate_us: mig.duration.as_micros(),
        rerun_bytes: rerun.bytes,
        migrate_bytes: mig.bytes,
        migrate_chunks: mig.chunks,
        oracle_rerun_us: orerun.duration.as_micros(),
        oracle_migrate_us: omig.duration.as_micros(),
    }
}

struct ChaosPoint {
    seed: u64,
    completed: usize,
    migrations: u64,
    chunks_migrated: u64,
    baseline_mean_restore_us: f64,
    migrate_mean_restore_us: f64,
}

/// Run the `migration` chaos scenario with plain Canary and with
/// migration enabled: both must finish the same work, and the
/// migration run must actually migrate.
fn sweep_chaos(seed: u64, violations: &mut Vec<String>) -> ChaosPoint {
    let spec = chaos::named("migration").expect("migration scenario");
    let scenario = chaos::demo_scenario(spec);
    let [base, mig] = [
        StrategyKind::Canary(ReplicationStrategyKind::Dynamic),
        StrategyKind::CanaryMigrate,
    ]
    .map(|kind| scenario.run(kind, seed, Observe::TRACE));
    if base.completed_count() != mig.completed_count() {
        violations.push(format!(
            "seed {seed}: migration completed {} functions, baseline {}",
            mig.completed_count(),
            base.completed_count()
        ));
    }
    if mig.counters.migrations == 0 {
        violations.push(format!(
            "seed {seed}: node-crash bursts must trigger at least one migration"
        ));
    }
    let mean_restore = |r: &canary_platform::RunResult| {
        let spans = recovery_spans(&r.trace);
        let restoring: Vec<u64> = spans
            .iter()
            .filter(|s| s.restore.as_micros() > 0)
            .map(|s| s.restore.as_micros())
            .collect();
        if restoring.is_empty() {
            0.0
        } else {
            restoring.iter().sum::<u64>() as f64 / restoring.len() as f64
        }
    };
    ChaosPoint {
        seed,
        completed: mig.completed_count(),
        migrations: mig.counters.migrations,
        chunks_migrated: mig.counters.chunks_migrated,
        baseline_mean_restore_us: mean_restore(&base),
        migrate_mean_restore_us: mean_restore(&mig),
    }
}

fn report_json(
    mode: &str,
    fp: &Footprint,
    pricing: &MigrationPricing,
    points: &[ChaosPoint],
) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"study\": \"incremental_checkpoints\",");
    let _ = writeln!(out, "  \"mode\": \"{mode}\",");
    let _ = writeln!(
        out,
        "  \"footprint\": {{\"functions\": {}, \"checkpoints_per_fn\": {}, \
         \"logical_bytes\": {}, \"stored_bytes\": {}, \"chunks_written\": {}, \
         \"chunks_deduped\": {}, \"dedup_ratio\": {:.2}, \"restores_checked\": {}}},",
        fp.functions,
        fp.checkpoints_per_fn,
        fp.logical_bytes,
        fp.stored_bytes,
        fp.chunks_written,
        fp.chunks_deduped,
        fp.dedup_ratio,
        fp.restores_checked
    );
    let _ = writeln!(
        out,
        "  \"migration_pricing\": {{\"rerun_us\": {}, \"migrate_us\": {}, \
         \"rerun_bytes\": {}, \"migrate_bytes\": {}, \"migrate_chunks\": {}, \
         \"oracle_rerun_us\": {}, \"oracle_migrate_us\": {}}},",
        pricing.rerun_us,
        pricing.migrate_us,
        pricing.rerun_bytes,
        pricing.migrate_bytes,
        pricing.migrate_chunks,
        pricing.oracle_rerun_us,
        pricing.oracle_migrate_us
    );
    let _ = writeln!(out, "  \"chaos\": [");
    for (i, p) in points.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"seed\": {}, \"completed\": {}, \"migrations\": {}, \
             \"chunks_migrated\": {}, \"baseline_mean_restore_us\": {:.1}, \
             \"migrate_mean_restore_us\": {:.1}}}{}",
            p.seed,
            p.completed,
            p.migrations,
            p.chunks_migrated,
            p.baseline_mean_restore_us,
            p.migrate_mean_restore_us,
            if i + 1 == points.len() { "" } else { "," }
        );
    }
    let _ = writeln!(out, "  ]");
    out.push_str("}\n");
    out
}

fn main() {
    let (quick, out) =
        canary_experiments::quick_and_out(std::env::args().skip(1), "BENCH_ckpt.json")
            .unwrap_or_else(|e| {
                eprintln!("{e}\nusage: ckpt_study [--quick] [--out PATH]");
                exit(2)
            });
    let (seeds, functions, per_fn, mode): (&[u64], u64, u32, &str) = if quick {
        (&SEEDS[1..2], 4, 16, "quick")
    } else {
        (&SEEDS, 8, 64, "full")
    };
    println!("incremental checkpoint study ({mode}): seeds {seeds:?}\n");

    let mut violations = Vec::new();
    let fp = measure_footprint(functions, per_fn, &mut violations);
    println!(
        "footprint: {} fns x {} ckpts, {} logical B -> {} stored B \
         ({:.2}x dedup, {} chunks written, {} deduped, {} restores checked)",
        fp.functions,
        fp.checkpoints_per_fn,
        fp.logical_bytes,
        fp.stored_bytes,
        fp.dedup_ratio,
        fp.chunks_written,
        fp.chunks_deduped,
        fp.restores_checked
    );

    let pricing = price_migration(&mut violations);
    println!(
        "migration pricing: rerun {} us ({} B) vs migrate {} us \
         ({} B over {} chunks); blob oracle {} us == {} us",
        pricing.rerun_us,
        pricing.rerun_bytes,
        pricing.migrate_us,
        pricing.migrate_bytes,
        pricing.migrate_chunks,
        pricing.oracle_rerun_us,
        pricing.oracle_migrate_us
    );

    let mut points = Vec::new();
    for &seed in seeds {
        let p = sweep_chaos(seed, &mut violations);
        println!(
            "chaos seed {:>4}: {} completed, {} migrations ({} chunks), \
             mean restore {:.1} us baseline vs {:.1} us migrated",
            p.seed,
            p.completed,
            p.migrations,
            p.chunks_migrated,
            p.baseline_mean_restore_us,
            p.migrate_mean_restore_us
        );
        points.push(p);
    }

    for v in &violations {
        eprintln!("BOUND VIOLATION: {v}");
    }
    if !violations.is_empty() {
        exit(1);
    }
    println!("\nall bounds hold: >=2x dedup, migration strictly below rerun");

    let json = report_json(mode, &fp, &pricing, &points);
    std::fs::write(&out, &json).unwrap_or_else(|e| {
        eprintln!("cannot write {out}: {e}");
        exit(1)
    });
    println!("wrote {out}");
}
