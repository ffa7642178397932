//! Differential test for dirty-block checkpoint images. `record` builds
//! and hashes only an image's header and the state blocks whose key
//! moved since the function's newest retained image, and takes every
//! other chunk's hash and body from that image. A second module stores
//! the whole image `build_payload` returns through `record_payload`.
//!
//! Both modules run the same arbitrary sequence of records at forward,
//! backward and repeated states, records of a foreign image through
//! `record_payload`, chunk corruption, store outages, window resizes and
//! forgets, at chunk sizes 16 (the header spans two chunks), 64 and 100.
//! After every op they must hold the same chunk hashes for every
//! retained checkpoint, the same stored rows and manifests, the same
//! chunk statistics and refcounts, and restore and migrate alike; at
//! the end their WAL images must be byte-identical.

use canary_cluster::StorageHierarchy;
use canary_core::checkpoint::build_payload;
use canary_core::{CanaryConfig, CanaryDb, CheckpointingModule, CkptOptions, DbOptions};
use canary_sim::SimTime;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::sync::Arc;

const FNS: usize = 3;
const CHUNK_SIZES: [usize; 3] = [16, 64, 100];

#[derive(Debug, Clone)]
enum Op {
    /// Record function `f`'s next state; `step` picks the state (see
    /// [`next_state`]), the time and the checkpoint size.
    Record(u8, u8),
    /// As `Record`, but both modules store another function's image
    /// through `record_payload`: an image `record` did not build, which
    /// must not serve as the base of the next dirty-block image.
    Foreign(u8, u8),
    /// Flip one bit in chunk `c` of retained checkpoint `k` of function
    /// `f`, in both modules: `(f, k, c)`.
    Corrupt(u8, u8, u8),
    /// Total store outage: a record of function `f` fails in both modules
    /// (spending its id), then one member rejoins empty.
    StoreOutage(u8),
    /// Resize the window: 0 shrinks it to 2, 1 grows it to 5, else 3.
    AdjustWindow(u8),
    /// Drop every checkpoint of function `f`.
    Forget(u8),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    const F: u8 = FNS as u8;
    let record = || ((0..F), any::<u8>()).prop_map(|(f, s)| Op::Record(f, s));
    prop_oneof![
        record(),
        record(),
        record(),
        record(),
        ((0..F), any::<u8>()).prop_map(|(f, s)| Op::Foreign(f, s)),
        ((0..F), any::<u8>(), any::<u8>()).prop_map(|(f, k, c)| Op::Corrupt(f, k, c)),
        (0..F).prop_map(Op::StoreOutage),
        (0u8..3).prop_map(Op::AdjustWindow),
        (0..F).prop_map(Op::Forget),
    ]
}

/// The state a record with `step` checkpoints after `last`: mostly the
/// next state, sometimes a later one (a stride above 1), the same one,
/// an earlier one (a restart from an older checkpoint) or state 0.
fn next_state(last: Option<u32>, step: u8) -> u32 {
    let Some(last) = last else {
        return 0;
    };
    match step % 8 {
        0..=3 => last + 1,
        4 => last + 2 + u32::from(step >> 6),
        5 => last,
        6 => last.saturating_sub(1 + u32::from(step >> 6)),
        _ => 0,
    }
}

fn module(chunk_size: usize) -> CheckpointingModule {
    // Cut the WAL often, so the compared images hold snapshots too.
    let db = CanaryDb::with_options(DbOptions {
        wal_snapshot_every: 16,
        ..DbOptions::durable(3)
    });
    CheckpointingModule::with_options(
        CanaryConfig::default(),
        StorageHierarchy::default(),
        Arc::new(db),
        CkptOptions {
            blob_oracle: false,
            chunk_size,
        },
    )
}

struct Pair {
    /// Records through `record`: dirty-block images.
    dirty: CheckpointingModule,
    /// Records the whole `build_payload` image through `record_payload`.
    whole: CheckpointingModule,
    chunk_size: usize,
    /// The last state recorded per function.
    last: [Option<u32>; FNS],
    /// Checkpoint ids issued per function, committed or spent.
    issued: [u64; FNS],
}

impl Pair {
    fn new(chunk_size: usize) -> Self {
        Pair {
            dirty: module(chunk_size),
            whole: module(chunk_size),
            chunk_size,
            last: [None; FNS],
            issued: [0; FNS],
        }
    }

    /// Record function `f` at the state, time and size `step` picks, in
    /// both modules; true when both commits succeeded. A `foreign` record
    /// stores the image of function `f + FNS` in both modules.
    fn record(&mut self, f: usize, step: u8, foreign: bool) -> Result<bool, TestCaseError> {
        let fn_id = f as u64;
        let state = next_state(self.last[f], step);
        // Equal times and states repeat the header as well.
        let now = SimTime::from_micros(u64::from(step >> 4));
        let spec_bytes = if step & 0x08 != 0 {
            98 << 20
        } else {
            256 << 10
        };
        let billed = self.whole.effective_bytes(spec_bytes);
        let image_of = if foreign { fn_id + FNS as u64 } else { fn_id };
        let payload = build_payload(image_of, state, billed, now, self.chunk_size);
        let a = if foreign {
            let payload = payload.clone();
            self.dirty
                .record_payload(f as u32, fn_id, state, spec_bytes, now, payload)
        } else {
            self.dirty.record(f as u32, fn_id, state, spec_bytes, now)
        };
        let b = self
            .whole
            .record_payload(f as u32, fn_id, state, spec_bytes, now, payload);
        self.issued[f] += 1;
        prop_assert_eq!(a.is_ok(), b.is_ok(), "both commits succeed or fail");
        if let (Ok(a), Ok(b)) = (&a, &b) {
            prop_assert_eq!(a, b, "both evict the same checkpoint");
            self.last[f] = Some(state);
        }
        Ok(a.is_ok())
    }

    fn apply(&mut self, op: &Op) -> Result<(), TestCaseError> {
        match *op {
            Op::Record(f, step) => {
                prop_assert!(self.record(usize::from(f), step, false)?, "the store is up");
            }
            Op::Foreign(f, step) => {
                prop_assert!(self.record(usize::from(f), step, true)?, "the store is up");
            }
            Op::Corrupt(f, k, c) => {
                let fn_id = u64::from(f);
                let ids: Vec<u64> = (0..self.issued[usize::from(f)])
                    .filter(|&id| self.dirty.chunk_hashes(fn_id, id).is_some())
                    .collect();
                if ids.is_empty() {
                    return Ok(());
                }
                let id = ids[usize::from(k) % ids.len()];
                let idx = u32::from(c) % self.dirty.chunk_count(fn_id, id);
                let a = self.dirty.corrupt_ckpt_chunk(fn_id, id, idx);
                let b = self.whole.corrupt_ckpt_chunk(fn_id, id, idx);
                prop_assert!(a.is_some());
                prop_assert_eq!(a, b, "corruption lands on the same chunk");
            }
            Op::StoreOutage(f) => {
                for m in [&self.dirty, &self.whole] {
                    for member in 0..m.db().kv().member_count() {
                        m.db().kv().fail_node(member).expect("known member");
                    }
                }
                prop_assert!(
                    !self.record(usize::from(f), 0, false)?,
                    "a dead store fails"
                );
                for m in [&self.dirty, &self.whole] {
                    m.db().kv().rejoin_empty(0).expect("known member");
                }
            }
            Op::AdjustWindow(sel) => {
                let (spec_bytes, states) = match sel {
                    0 => (16 << 20, 1),
                    1 => (1024, 40),
                    _ => (1024, 1),
                };
                self.dirty.adjust_window_for(spec_bytes, states);
                self.whole.adjust_window_for(spec_bytes, states);
            }
            Op::Forget(f) => {
                self.dirty.forget(u64::from(f)).expect("forget");
                self.whole.forget(u64::from(f)).expect("forget");
                self.last[usize::from(f)] = None;
            }
        }
        self.check()
    }

    /// The two modules hold and serve the same checkpoints.
    fn check(&self) -> Result<(), TestCaseError> {
        let (a, b) = (&self.dirty, &self.whole);
        for f in 0..FNS {
            let fn_id = f as u64;
            for id in 0..self.issued[f] {
                prop_assert_eq!(
                    a.chunk_hashes(fn_id, id),
                    b.chunk_hashes(fn_id, id),
                    "chunk hashes of fn {} ckpt {}",
                    fn_id,
                    id
                );
            }
            let rows = a.db().checkpoints_of(fn_id).expect("store is up");
            prop_assert_eq!(&rows, &b.db().checkpoints_of(fn_id).expect("store is up"));
            for row in &rows {
                prop_assert_eq!(
                    a.db().get_payload(&row.location).ok(),
                    b.db().get_payload(&row.location).ok(),
                    "stored manifest of fn {} ckpt {}",
                    fn_id,
                    row.ckpt_id
                );
            }
            prop_assert_eq!(
                a.restore_payload(fn_id, &|_| false),
                b.restore_payload(fn_id, &|_| false)
            );
            prop_assert_eq!(
                a.migrate_lookup(fn_id, &|_| false).info,
                b.migrate_lookup(fn_id, &|_| false).info
            );
        }
        prop_assert_eq!(a.chunk_stats(), b.chunk_stats());
        prop_assert_eq!(a.chunk_store().total_refs(), b.chunk_store().total_refs());
        prop_assert_eq!(a.chunk_store().len(), b.chunk_store().len());
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn dirty_block_images_equal_whole_images(
        ops in proptest::collection::vec(op_strategy(), 0..60)
    ) {
        for chunk_size in CHUNK_SIZES {
            let mut pair = Pair::new(chunk_size);
            for op in &ops {
                pair.apply(op)?;
            }
            let wal = |m: &CheckpointingModule| m.db().kv().wal().expect("durable").to_bytes();
            prop_assert!(
                wal(&pair.dirty) == wal(&pair.whole),
                "WAL images differ at chunk size {}",
                chunk_size
            );
        }
    }
}
