//! Differential property tests for content-addressed chunked
//! checkpoints: under arbitrary register / checkpoint / corrupt / fail /
//! restore / store-outage / window-resize sequences, the chunked module
//! must be observationally identical to the whole-blob oracle —
//! byte-identical restores, the same fallback decisions under chunk
//! corruption, the same node-loss recovery lookups — and after every
//! single op both must hold exactly the harness's model of the retained
//! window (ids contiguous apart from spent ids, ending at the newest; no
//! row or payload left behind by eviction), with chunk refcounts tying
//! out against the modelled manifests (no chunk leaked past retention GC
//! or a failed commit, none freed while still referenced).

use canary_cluster::StorageHierarchy;
use canary_core::db::payload_location;
use canary_core::{CanaryConfig, CanaryDb, CheckpointingModule, CkptOptions, DbError};
use canary_sim::SimTime;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;

const FNS: u64 = 4;

#[derive(Debug, Clone)]
enum Op {
    /// Record the next checkpoint for function `f`.
    Record(u8),
    /// Flip one bit in a physical chunk of a retained checkpoint:
    /// `(function, retained-checkpoint selector, chunk selector)`.
    CorruptChunk(u8, u8, u8),
    /// Differentially restore function `f`'s newest usable checkpoint.
    Restore(u8),
    /// Differentially plan a recovery lookup (`node_lost` selects the
    /// shared-storage path).
    FailLookup(u8, bool),
    /// Drop every checkpoint of function `f`.
    Forget(u8),
    /// Total store outage: every member of both modules' databases goes
    /// down, a record of function `f` fails on each (spending its id),
    /// and one member rejoins empty — every stored row is lost.
    StoreOutage(u8),
    /// Resize the window through `adjust_window_for`: 0 = a payload over
    /// the KV entry limit (2), 1 = 40 or more states (5), else the
    /// default (3).
    AdjustWindow(u8),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..FNS as u8).prop_map(Op::Record),
        (0u8..FNS as u8).prop_map(Op::Record),
        (0u8..FNS as u8).prop_map(Op::Record),
        ((0u8..FNS as u8), any::<u8>(), any::<u8>())
            .prop_map(|(f, c, k)| Op::CorruptChunk(f, c, k)),
        (0u8..FNS as u8).prop_map(Op::Restore),
        ((0u8..FNS as u8), any::<bool>()).prop_map(|(f, n)| Op::FailLookup(f, n)),
        (0u8..FNS as u8).prop_map(Op::Forget),
        (0u8..FNS as u8).prop_map(Op::StoreOutage),
        (0u8..3).prop_map(Op::AdjustWindow),
    ]
}

fn module(db: &Arc<CanaryDb>, blob_oracle: bool) -> CheckpointingModule {
    CheckpointingModule::with_options(
        CanaryConfig::default(),
        StorageHierarchy::default(),
        Arc::clone(db),
        CkptOptions {
            blob_oracle,
            ..CkptOptions::default()
        },
    )
}

/// The oracle's corruption verdict is derived from physical ground
/// truth: a checkpoint is unusable iff its manifest references a chunk
/// whose stored body no longer hashes to its key. This is exactly the
/// check the chunked restore path performs, so the blob oracle makes
/// the same skip decisions without ever seeing a chunk.
fn affected(chunked: &CheckpointingModule, fn_id: u64, ckpt_id: u64) -> bool {
    chunked.chunk_hashes(fn_id, ckpt_id).is_some_and(|hashes| {
        hashes
            .iter()
            .any(|&h| chunked.chunk_store().get_verified(h).is_err())
    })
}

const SPEC_BYTES: u64 = 256 * 1024;

/// What `record` returns: the evicted id, or the failed commit's error.
type Recorded = Result<Option<u64>, DbError>;

struct Harness {
    chunked: CheckpointingModule,
    blob: CheckpointingModule,
    /// The chunked and the blob module's databases, in that order.
    dbs: [Arc<CanaryDb>; 2],
    /// Next checkpoint id per function, committed and spent alike (the
    /// id doubles as the recorded state index).
    next_id: HashMap<u64, u64>,
    /// The modelled window: committed ids per function, oldest first.
    retained: HashMap<u64, VecDeque<u64>>,
    /// Hashes whose bodies were already damaged: a second flip of the
    /// same bit would silently repair the chunk, so corruption ops skip
    /// them.
    corrupted: HashSet<u64>,
}

impl Harness {
    fn new() -> Self {
        let dbs = [Arc::new(CanaryDb::new(3)), Arc::new(CanaryDb::new(3))];
        Harness {
            chunked: module(&dbs[0], false),
            blob: module(&dbs[1], true),
            dbs,
            next_id: HashMap::new(),
            retained: HashMap::new(),
            corrupted: HashSet::new(),
        }
    }

    fn retained_of(&self, fn_id: u64) -> Vec<u64> {
        self.retained
            .get(&fn_id)
            .map_or_else(Vec::new, |r| r.iter().copied().collect())
    }

    /// Take the next id of `fn_id` and record it on both modules.
    fn record(&mut self, fn_id: u64) -> (u64, Recorded, Recorded) {
        let next = self.next_id.entry(fn_id).or_default();
        let id = *next;
        *next += 1;
        let now = SimTime::from_micros(id + 1);
        let a = self
            .chunked
            .record(fn_id as u32, fn_id, id as u32, SPEC_BYTES, now);
        let b = self
            .blob
            .record(fn_id as u32, fn_id, id as u32, SPEC_BYTES, now);
        (id, a, b)
    }

    /// Both modules hold exactly the modelled window: the same retained
    /// ids (the chunked module's manifests), no database row or payload
    /// outside it, and chunk refcounts equal to the modelled manifests'
    /// entry count — eviction, forget and failed commits release exactly
    /// their references, nothing more, nothing less.
    fn check_model(&self) -> Result<(), TestCaseError> {
        let mut refs = 0u64;
        for fn_id in 0..FNS {
            let model = self.retained_of(fn_id);
            prop_assert!(model.len() <= self.chunked.window_size());
            prop_assert_eq!(self.chunked.retained(fn_id), model.len());
            prop_assert_eq!(self.blob.retained(fn_id), model.len());
            let next = self.next_id.get(&fn_id).copied().unwrap_or(0);
            let held: Vec<u64> = (0..next)
                .filter(|&id| self.chunked.chunk_hashes(fn_id, id).is_some())
                .collect();
            prop_assert_eq!(&held, &model, "manifests held for exactly the window");
            for db in &self.dbs {
                let rows = db.checkpoints_of(fn_id).expect("store is up between ops");
                prop_assert!(
                    rows.iter().all(|r| model.contains(&r.ckpt_id)),
                    "no row survives eviction"
                );
                for id in (0..next).filter(|id| !model.contains(id)) {
                    prop_assert!(
                        db.get_payload(payload_location(fn_id, id)).is_err(),
                        "no payload survives eviction or a failed commit"
                    );
                }
            }
            refs += model
                .iter()
                .map(|&id| {
                    self.chunked
                        .chunk_hashes(fn_id, id)
                        .map_or(0, |h| h.len() as u64)
                })
                .sum::<u64>();
        }
        prop_assert_eq!(
            self.chunked.chunk_store().total_refs(),
            refs,
            "chunk refcounts must mirror the modelled manifests"
        );
        Ok(())
    }

    fn apply(&mut self, op: &Op) -> Result<(), TestCaseError> {
        match *op {
            Op::Record(f) => {
                let fn_id = f as u64;
                let (id, a, b) = self.record(fn_id);
                let (a, b) = (a.expect("chunked record"), b.expect("blob record"));
                // `record` returns the id evicted from the retained window.
                prop_assert_eq!(a, b, "both modules evict the same ckpt id");
                let window = self.chunked.window_size();
                let model = self.retained.entry(fn_id).or_default();
                model.push_back(id);
                let expect_evicted = if model.len() > window {
                    model.pop_front()
                } else {
                    None
                };
                prop_assert_eq!(a, expect_evicted, "eviction follows the window");
            }
            Op::CorruptChunk(f, ckpt_sel, chunk_sel) => {
                let fn_id = f as u64;
                let retained = self.retained_of(fn_id);
                if retained.is_empty() {
                    return Ok(());
                }
                let ckpt_id = retained[ckpt_sel as usize % retained.len()];
                let Some(hashes) = self.chunked.chunk_hashes(fn_id, ckpt_id) else {
                    return Ok(());
                };
                let idx = chunk_sel as u32 % hashes.len() as u32;
                let hash = hashes[idx as usize];
                if !self.corrupted.insert(hash) {
                    return Ok(());
                }
                let hit = self.chunked.corrupt_ckpt_chunk(fn_id, ckpt_id, idx);
                prop_assert_eq!(hit, Some(hash), "corruption lands on the drawn chunk");
                prop_assert!(
                    self.chunked.chunk_store().get_verified(hash).is_err(),
                    "a flipped bit must fail content verification"
                );
            }
            Op::Restore(f) => {
                let fn_id = f as u64;
                let chunked_restore = self.chunked.restore_payload(fn_id, &|_| false);
                let chunked_ref = &self.chunked;
                let blob_restore = self
                    .blob
                    .restore_payload(fn_id, &|c| affected(chunked_ref, fn_id, c));
                match (chunked_restore, blob_restore) {
                    (Some((ca, cb)), Some((oa, ob))) => {
                        prop_assert_eq!(ca, oa, "both restores pick the same checkpoint");
                        prop_assert_eq!(cb, ob, "restored bytes must be identical");
                    }
                    (c, o) => {
                        prop_assert_eq!(c.is_some(), o.is_some(), "restore availability must agree")
                    }
                }
            }
            Op::FailLookup(f, node_lost) => {
                let fn_id = f as u64;
                let chunked_ref = &self.chunked;
                let oracle = |c: u64| affected(chunked_ref, fn_id, c);
                let a = self.chunked.restore_lookup(fn_id, node_lost, &oracle);
                let b = self.blob.restore_lookup(fn_id, node_lost, &oracle);
                prop_assert_eq!(
                    a.info.map(|i| (i.resume_from_state, i.bytes)),
                    b.info.map(|i| (i.resume_from_state, i.bytes)),
                    "recovery lookups must agree on resume point and bytes"
                );
                prop_assert_eq!(a.corrupted, b.corrupted);
                prop_assert_eq!(a.had_checkpoints, b.had_checkpoints);
            }
            Op::Forget(f) => {
                let fn_id = f as u64;
                self.chunked.forget(fn_id).expect("chunked forget");
                self.blob.forget(fn_id).expect("blob forget");
                let next = self.next_id.remove(&fn_id).unwrap_or(0);
                self.retained.remove(&fn_id);
                for db in &self.dbs {
                    prop_assert!(db.checkpoints_of(fn_id).expect("store is up").is_empty());
                    for id in 0..next {
                        prop_assert!(db.get_payload(payload_location(fn_id, id)).is_err());
                    }
                }
            }
            Op::StoreOutage(f) => {
                for db in &self.dbs {
                    for member in 0..db.kv().member_count() {
                        db.kv().fail_node(member).expect("known member");
                    }
                }
                let (_, a, b) = self.record(f as u64);
                prop_assert!(a.is_err() && b.is_err(), "a commit to a dead store fails");
                for db in &self.dbs {
                    db.kv().rejoin_empty(0).expect("known member");
                }
            }
            Op::AdjustWindow(sel) => {
                let (spec_bytes, states, target) = match sel {
                    0 => (16 << 20, 1, 2),
                    1 => (1024, 40, 5),
                    _ => (1024, 1, 3),
                };
                self.chunked.adjust_window_for(spec_bytes, states);
                self.blob.adjust_window_for(spec_bytes, states);
                prop_assert_eq!(self.chunked.window_size(), target);
                prop_assert_eq!(self.blob.window_size(), target);
                // Shrinking evicts at once; growing keeps everything.
                for model in self.retained.values_mut() {
                    while model.len() > target {
                        model.pop_front();
                    }
                }
                // The newest checkpoint stays restorable wherever its
                // row survived and no corruption reached it.
                for fn_id in 0..FNS {
                    let Some(&newest) = self.retained.get(&fn_id).and_then(|m| m.back()) else {
                        continue;
                    };
                    let rows = self.dbs[0].checkpoints_of(fn_id).expect("store is up");
                    if rows.iter().any(|r| r.ckpt_id == newest)
                        && !affected(&self.chunked, fn_id, newest)
                    {
                        let got = self.chunked.restore_payload(fn_id, &|_| false);
                        prop_assert_eq!(got.map(|(id, _)| id), Some(newest));
                    }
                }
            }
        }
        self.check_model()
    }
}

proptest! {
    /// Drive the chunked module and the whole-blob oracle through the
    /// same arbitrary op sequence: every restore must return identical
    /// bytes from the identical checkpoint (chunk corruption included),
    /// every recovery lookup must agree, and the refcounts must tie out
    /// after every op. Finally, forgetting every function must leave the
    /// chunk store empty — retention GC leaks nothing.
    #[test]
    fn chunked_is_observationally_identical_to_blob_oracle(
        ops in proptest::collection::vec(op_strategy(), 0..80)
    ) {
        let mut h = Harness::new();
        for op in &ops {
            h.apply(op)?;
        }
        for fn_id in 0..FNS {
            h.apply(&Op::Restore(fn_id as u8))?;
        }
        for fn_id in 0..FNS {
            h.apply(&Op::Forget(fn_id as u8))?;
        }
        prop_assert!(h.chunked.chunk_store().is_empty(), "no chunk survives GC");
        prop_assert_eq!(h.chunked.chunk_store().total_refs(), 0);
    }
}
