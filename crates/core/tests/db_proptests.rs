//! Property tests for the metadata fast path: a typed-key `CanaryDb`
//! must be observationally identical to the legacy string-keyed oracle
//! under arbitrary op sequences — including chaos ops (member crashes,
//! resyncing recoveries, and empty rejoins).
//!
//! A second property covers durability: a WAL-backed db that crash-
//! restarts at arbitrary points (log-replay-only and snapshot+replay
//! configurations both) must stay observationally identical to an
//! in-memory db that never crashed — rows, retained checkpoint windows,
//! and the membership generation counter all included.

use canary_core::db::{CanaryDb, CheckpointInfoRow, DbOptions, FunctionInfoRow, JobInfoRow};
use canary_workloads::RuntimeKind;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

#[derive(Debug, Clone)]
enum Op {
    PutJob(u8),
    GetJob(u8),
    PutFunction(u8, u8),
    GetFunction(u8),
    PutCheckpoint(u8, u8),
    DeleteCheckpoint(u8, u8),
    CheckpointsOf(u8),
    FailNode(u8),
    RecoverNode(u8),
    RejoinEmpty(u8),
    /// Kill every db except the first (the never-crashing oracle) and
    /// recover it from its WAL, torn in-flight record included.
    CrashRestart,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..8).prop_map(Op::PutJob),
        (0u8..8).prop_map(Op::GetJob),
        ((0u8..8), (0u8..4)).prop_map(|(f, s)| Op::PutFunction(f, s)),
        (0u8..8).prop_map(Op::GetFunction),
        ((0u8..8), (0u8..6)).prop_map(|(f, c)| Op::PutCheckpoint(f, c)),
        ((0u8..8), (0u8..6)).prop_map(|(f, c)| Op::DeleteCheckpoint(f, c)),
        (0u8..8).prop_map(Op::CheckpointsOf),
        (0u8..3).prop_map(Op::FailNode),
        (0u8..3).prop_map(Op::RecoverNode),
        (0u8..3).prop_map(Op::RejoinEmpty),
    ]
}

/// The durable-equivalence op mix: everything above plus crash-restarts
/// at ~1-in-9 odds, frequent enough that most sequences crash at least
/// once (the vendored `prop_oneof!` has no weight syntax, hence the
/// repeated arms).
fn durable_op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        op_strategy(),
        op_strategy(),
        op_strategy(),
        op_strategy(),
        op_strategy(),
        op_strategy(),
        op_strategy(),
        op_strategy(),
        Just(Op::CrashRestart),
    ]
}

fn job_row(job_id: u32) -> JobInfoRow {
    JobInfoRow {
        job_id,
        runtime: RuntimeKind::Python,
        invocations: job_id + 1,
        ckpt_window: 3,
        replication_strategy: (job_id % 3) as u8,
        submitted_us: job_id as u64 * 17,
    }
}

fn fn_row(fn_id: u64, status: u8) -> FunctionInfoRow {
    FunctionInfoRow {
        fn_id,
        job_id: fn_id as u32,
        runtime: RuntimeKind::NodeJs,
        node_id: (fn_id % 5) as u32,
        status,
    }
}

fn ckpt_row(fn_id: u64, ckpt_id: u64) -> CheckpointInfoRow {
    CheckpointInfoRow {
        ckpt_id,
        job_id: fn_id as u32,
        fn_id,
        state_index: ckpt_id as u32,
        bytes: 1024 + ckpt_id,
        tier: 0,
        location: canary_core::db::payload_location(fn_id, ckpt_id),
        created_us: ckpt_id * 31,
    }
}

fn all_equal<T: PartialEq + std::fmt::Debug>(xs: &[T]) -> Result<(), TestCaseError> {
    for x in &xs[1..] {
        prop_assert_eq!(&xs[0], x);
    }
    Ok(())
}

/// Apply one op to every db, requiring identical observable results.
/// `Op::CrashRestart` spares `dbs[0]` — it is the oracle the recovered
/// stores are judged against.
fn apply_op(dbs: &[&CanaryDb], op: &Op) -> Result<(), TestCaseError> {
    match *op {
        Op::PutJob(j) => {
            let oks: Vec<bool> = dbs
                .iter()
                .map(|db| db.put_job(&job_row(j as u32)).is_ok())
                .collect();
            all_equal(&oks)?;
        }
        Op::GetJob(j) => {
            let rows: Vec<Option<JobInfoRow>> =
                dbs.iter().map(|db| db.get_job(j as u32).ok()).collect();
            all_equal(&rows)?;
        }
        Op::PutFunction(f, s) => {
            let oks: Vec<bool> = dbs
                .iter()
                .map(|db| db.put_function(&fn_row(f as u64, s)).is_ok())
                .collect();
            all_equal(&oks)?;
        }
        Op::GetFunction(f) => {
            let rows: Vec<Option<FunctionInfoRow>> = dbs
                .iter()
                .map(|db| db.get_function(f as u64).ok())
                .collect();
            all_equal(&rows)?;
        }
        Op::PutCheckpoint(f, c) => {
            let oks: Vec<bool> = dbs
                .iter()
                .map(|db| db.put_checkpoint(&ckpt_row(f as u64, c as u64)).is_ok())
                .collect();
            all_equal(&oks)?;
        }
        Op::DeleteCheckpoint(f, c) => {
            let oks: Vec<bool> = dbs
                .iter()
                .map(|db| db.delete_checkpoint(f as u64, c as u64).is_ok())
                .collect();
            all_equal(&oks)?;
        }
        Op::CheckpointsOf(f) => {
            let rows: Vec<Option<Vec<CheckpointInfoRow>>> = dbs
                .iter()
                .map(|db| db.checkpoints_of(f as u64).ok())
                .collect();
            all_equal(&rows)?;
        }
        Op::FailNode(n) => {
            for db in dbs {
                let _ = db.kv().fail_node(n as usize);
            }
        }
        Op::RecoverNode(n) => {
            let oks: Vec<bool> = dbs
                .iter()
                .map(|db| db.kv().recover_node(n as usize).is_ok())
                .collect();
            all_equal(&oks)?;
        }
        Op::RejoinEmpty(n) => {
            for db in dbs {
                let _ = db.kv().rejoin_empty(n as usize);
            }
        }
        Op::CrashRestart => {
            for db in &dbs[1..] {
                let info = db.crash_and_recover();
                prop_assert!(info.is_ok(), "recovery failed: {:?}", info.err());
                // The crash leaves a torn in-flight record behind; a
                // clean recovery must detect and discard it every time.
                prop_assert!(info.unwrap().torn_tail);
            }
        }
    }
    Ok(())
}

/// Full-table agreement: every job id, every function row, and every
/// function's retained checkpoint window match across all dbs.
fn check_tables(dbs: &[&CanaryDb]) -> Result<(), TestCaseError> {
    for id in 0u8..8 {
        let jobs: Vec<Option<JobInfoRow>> =
            dbs.iter().map(|db| db.get_job(id as u32).ok()).collect();
        all_equal(&jobs)?;
        let fns: Vec<Option<FunctionInfoRow>> = dbs
            .iter()
            .map(|db| db.get_function(id as u64).ok())
            .collect();
        all_equal(&fns)?;
        let windows: Vec<Option<Vec<CheckpointInfoRow>>> = dbs
            .iter()
            .map(|db| db.checkpoints_of(id as u64).ok())
            .collect();
        all_equal(&windows)?;
    }
    Ok(())
}

proptest! {
    /// Drive the typed-key db and the string-keyed oracle through the
    /// same op sequence and require identical observable results after
    /// every step. Chaos ops hit both stores identically, total outages
    /// included.
    #[test]
    fn typed_db_matches_the_string_keyed_oracle(ops in proptest::collection::vec(op_strategy(), 0..120)) {
        let typed = CanaryDb::with_options(DbOptions::fast(3));
        let oracle = CanaryDb::with_options(DbOptions::string_oracle(3));
        let dbs = [&typed, &oracle];
        for op in &ops {
            apply_op(&dbs, op)?;
            check_tables(&dbs)?;
        }
    }

    /// Three-way durability equivalence: an in-memory db that never
    /// crashes, a durable db that recovers by replaying its whole log,
    /// and a durable db that recovers from snapshot + log tail must stay
    /// observationally identical under arbitrary op sequences with
    /// crash-restarts mixed in — including membership fail / recover /
    /// rejoin-empty churn, so the membership generation, which the WAL
    /// records, provably survives restarts.
    #[test]
    fn durable_recovery_matches_memory_and_snapshot_replay(
        ops in proptest::collection::vec(durable_op_strategy(), 0..100)
    ) {
        let memory = CanaryDb::with_options(DbOptions::fast(3));
        let log_replay = CanaryDb::with_options(DbOptions {
            durable: true,
            wal_snapshot_every: u64::MAX, // never snapshot: replay everything
            ..DbOptions::fast(3)
        });
        let snapshotting = CanaryDb::with_options(DbOptions {
            durable: true,
            wal_snapshot_every: 8, // compact aggressively
            ..DbOptions::fast(3)
        });
        let dbs = [&memory, &log_replay, &snapshotting];
        for op in &ops {
            apply_op(&dbs, op)?;
            // The membership generation is WAL state: recovery restores
            // it exactly rather than bumping it past its pre-crash value.
            prop_assert_eq!(log_replay.kv().generation(), memory.kv().generation());
            prop_assert_eq!(snapshotting.kv().generation(), memory.kv().generation());
            check_tables(&dbs)?;
        }
    }
}
