//! Differential property tests for the group-commit checkpoint path.
//!
//! The hot path commits a checkpoint's payload and its `checkpoint_info`
//! row through one store write batch
//! ([`CanaryDb::put_checkpoint_with_payload`]); the slow, obviously-
//! correct oracle issues the same two writes one put at a time
//! (`put_payload` then `put_checkpoint`). Under arbitrary sequences of
//! puts, deletes, reads, and crash-restarts the two must stay
//! observationally identical in every dimension the rest of the system
//! can see:
//!
//! - final store contents (every key, every value, every replica),
//! - per-table traffic counts (`table_stats`),
//! - the WAL byte stream (batching may not reorder, coalesce away, or
//!   reframe durable records — a batch is the *same* records),
//! - crash-recovery outcomes (snapshot entries, replayed records and
//!   bytes, torn-tail detection).

use bytes::Bytes;
use canary_core::db::{payload_location, CanaryDb, CheckpointInfoRow, DbOptions};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

#[derive(Debug, Clone)]
enum Op {
    /// Commit checkpoint (fn, ckpt) with a payload derived from the seed
    /// byte. The subject batches; the oracle does two sequential puts.
    PutCkpt(u8, u8, u8),
    /// Evict checkpoint (fn, ckpt): payload delete + row delete, both dbs.
    DeleteCkpt(u8, u8),
    /// Range-read the retained window of a function.
    ReadWindow(u8),
    /// Fetch a payload by location.
    ReadPayload(u8, u8),
    /// Kill both dbs and recover each from its WAL (torn tail included).
    CrashRestart,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        ((0u8..6), (0u8..8), any::<u8>()).prop_map(|(f, c, s)| Op::PutCkpt(f, c, s)),
        ((0u8..6), (0u8..8)).prop_map(|(f, c)| Op::DeleteCkpt(f, c)),
        (0u8..6).prop_map(Op::ReadWindow),
        ((0u8..6), (0u8..8)).prop_map(|(f, c)| Op::ReadPayload(f, c)),
        Just(Op::CrashRestart),
    ]
}

fn ckpt_row(fn_id: u64, ckpt_id: u64, seed: u8) -> CheckpointInfoRow {
    CheckpointInfoRow {
        ckpt_id,
        job_id: fn_id as u32,
        fn_id,
        state_index: ckpt_id as u32,
        bytes: 64 + seed as u64,
        tier: 0,
        location: payload_location(fn_id, ckpt_id),
        created_us: ckpt_id * 13 + seed as u64,
    }
}

/// Payload whose bytes depend on every identifying input, so a batched
/// write landing under the wrong key shows up as a value mismatch.
fn payload(fn_id: u64, ckpt_id: u64, seed: u8) -> Bytes {
    let len = 1 + (seed as usize % 200);
    Bytes::from(
        (0..len)
            .map(|i| (fn_id as u8) ^ (ckpt_id as u8).wrapping_mul(31) ^ seed.wrapping_add(i as u8))
            .collect::<Vec<u8>>(),
    )
}

/// Every key/value pair visible in the replica group, sorted by key.
fn full_contents(db: &CanaryDb) -> Vec<(Bytes, Bytes)> {
    let mut keys = db.kv().keys_in_range(&[], None);
    keys.sort();
    keys.into_iter()
        .map(|k| {
            let v = db.kv().get(&k).expect("listed key readable");
            (k, v)
        })
        .collect()
}

fn check_identical(batched: &CanaryDb, oracle: &CanaryDb) -> Result<(), TestCaseError> {
    prop_assert_eq!(full_contents(batched), full_contents(oracle));
    prop_assert_eq!(batched.table_stats(), oracle.table_stats());
    let (b_wal, o_wal) = (
        batched.kv().wal().expect("durable").to_bytes(),
        oracle.kv().wal().expect("durable").to_bytes(),
    );
    prop_assert_eq!(b_wal, o_wal, "WAL byte streams diverged");
    Ok(())
}

proptest! {
    /// The tentpole equivalence: group-commit batching is a lock-traffic
    /// optimization only. After every op the batched db and the
    /// one-put-at-a-time oracle agree on contents, traffic, and the WAL
    /// byte stream; crash-restarts recover identically on both.
    #[test]
    fn batched_commit_equals_sequential_puts(
        ops in proptest::collection::vec(op_strategy(), 0..80)
    ) {
        let durable = DbOptions {
            durable: true,
            wal_snapshot_every: 16, // force snapshot churn mid-sequence
            ..DbOptions::fast(3)
        };
        let batched = CanaryDb::with_options(durable);
        let oracle = CanaryDb::with_options(durable);
        for op in &ops {
            match *op {
                Op::PutCkpt(f, c, s) => {
                    let row = ckpt_row(f as u64, c as u64, s);
                    let body = payload(f as u64, c as u64, s);
                    batched
                        .put_checkpoint_with_payload(&row, body.clone())
                        .expect("batched commit");
                    oracle
                        .put_payload(&row.location, body)
                        .expect("oracle payload put");
                    oracle.put_checkpoint(&row).expect("oracle row put");
                }
                Op::DeleteCkpt(f, c) => {
                    let loc = payload_location(f as u64, c as u64);
                    let a = batched.delete_payload(&loc).is_ok();
                    let b = oracle.delete_payload(&loc).is_ok();
                    prop_assert_eq!(a, b);
                    let a = batched.delete_checkpoint(f as u64, c as u64).is_ok();
                    let b = oracle.delete_checkpoint(f as u64, c as u64).is_ok();
                    prop_assert_eq!(a, b);
                }
                Op::ReadWindow(f) => {
                    prop_assert_eq!(
                        batched.checkpoints_of(f as u64).ok(),
                        oracle.checkpoints_of(f as u64).ok()
                    );
                }
                Op::ReadPayload(f, c) => {
                    let loc = payload_location(f as u64, c as u64);
                    prop_assert_eq!(
                        batched.get_payload(&loc).ok(),
                        oracle.get_payload(&loc).ok()
                    );
                }
                Op::CrashRestart => {
                    let a = batched.crash_and_recover().expect("batched recovery");
                    let b = oracle.crash_and_recover().expect("oracle recovery");
                    prop_assert_eq!(a, b, "recoveries diverged");
                    prop_assert!(a.torn_tail, "crash plants a torn record");
                }
            }
            check_identical(&batched, &oracle)?;
        }
    }
}
