//! Per-layer replays of a traced run's checkpoint stream.
//!
//! The traced run records every checkpoint write, restore and function
//! completion the strategy performed ([`StreamOp`]). Each pass below
//! drives that stream through one state-plane layer's public calls on a
//! fresh instance of the layer, timing each call, so a change to one
//! layer shows in that layer's row and nowhere else:
//!
//! | layer | writes | restores | completions |
//! |---|---|---|---|
//! | `core.checkpoint` | `record` | `restore_payload`, `migrate_lookup` (migrations) | `forget` |
//! | `core.chunk` | `hash_chunks_into` | `decode_manifest` | — |
//! | `core.db` | `put_checkpoint_with_payload` | `checkpoints_of` | — |
//! | `kvstore` | `ReplicatedKv::put_batch` | `ReplicatedKv::get` | — |
//! | `kvstore.wal` | `Wal::append` (one per logged put or remove) | — | `Wal::replay` once at the end |
//!
//! Untimed bookkeeping (payload images, manifest encoding, window
//! eviction, row deletes) keeps each layer's working set the shape the
//! real run gives it: a three-deep retained window per live function.

use crate::spans::StreamOp;
use bytes::Bytes;
use canary_cluster::StorageHierarchy;
use canary_core::checkpoint::build_payload;
use canary_core::chunk::hash_chunks_into;
use canary_core::db::payload_location;
use canary_core::{
    decode_manifest, encode_manifest, fnv1a64, CanaryConfig, CanaryDb, CheckpointInfoRow,
    CheckpointingModule, CkptOptions, DbOptions, TableKey,
};
use canary_kvstore::{ReplicatedKv, StoreConfig, Wal, WalConfig, WalOp};
use std::collections::{HashMap, VecDeque};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Calls made to one public function and the host time they took.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Calls {
    /// Calls made.
    pub calls: u64,
    /// Total host time, ns.
    pub ns: u64,
}

impl Calls {
    fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let out = black_box(f());
        self.ns += t.elapsed().as_nanos() as u64;
        self.calls += 1;
        out
    }
}

/// Timed calls per layer, plus whether every replay behaved.
#[derive(Debug, Clone, Default)]
pub struct LayerReport {
    /// (metric prefix, calls) in report order.
    pub rows: Vec<(&'static str, Calls)>,
    /// WAL log bytes per checkpoint written.
    pub wal_bytes_per_ckpt: f64,
    /// Every call that must succeed did, and every read found what the
    /// stream wrote.
    pub ok: bool,
}

/// Retained checkpoints a replay keeps per function (the module's
/// default window).
fn window() -> usize {
    CanaryConfig::default().ckpt_window
}

/// The checkpoint stream as keyed store operations: the rows and keys a
/// write lands, the evictions the retained window forces, the newest
/// checkpoint a restore reads, and the rows a completion drops.
enum KeyOp {
    Put(Box<CheckpointInfoRow>),
    Drop { fn_id: u64, ckpt_id: u64 },
    Read { fn_id: u64, ckpt_id: Option<u64> },
}

fn key_ops(stream: &[StreamOp]) -> Vec<KeyOp> {
    let mut next: HashMap<u64, u64> = HashMap::new();
    let mut live: HashMap<u64, VecDeque<u64>> = HashMap::new();
    let mut ops = Vec::with_capacity(stream.len() * 2);
    for op in stream {
        match *op {
            StreamOp::Write {
                job,
                fn_id,
                state,
                spec_bytes,
                at,
            } => {
                let id = next.entry(fn_id).or_insert(0);
                let ckpt_id = *id;
                *id += 1;
                ops.push(KeyOp::Put(Box::new(CheckpointInfoRow {
                    ckpt_id,
                    job_id: job,
                    fn_id,
                    state_index: state,
                    bytes: spec_bytes,
                    tier: 0,
                    location: payload_location(fn_id, ckpt_id),
                    created_us: at.as_micros(),
                })));
                let retained = live.entry(fn_id).or_default();
                retained.push_back(ckpt_id);
                if retained.len() > window() {
                    let old = retained.pop_front().expect("window is non-empty");
                    ops.push(KeyOp::Drop {
                        fn_id,
                        ckpt_id: old,
                    });
                }
            }
            StreamOp::Restore { fn_id, .. } => ops.push(KeyOp::Read {
                fn_id,
                ckpt_id: live.get(&fn_id).and_then(|r| r.back().copied()),
            }),
            StreamOp::Complete { fn_id } => {
                for ckpt_id in live.remove(&fn_id).unwrap_or_default() {
                    ops.push(KeyOp::Drop { fn_id, ckpt_id });
                }
            }
        }
    }
    ops
}

/// A manifest-sized stored value: what the chunked path lands at a
/// checkpoint's location key.
fn stored_value() -> Bytes {
    Bytes::from(vec![0x5a; 96])
}

fn checkpoint_layer(stream: &[StreamOp], config: &CanaryConfig, report: &mut LayerReport) {
    let db = Arc::new(CanaryDb::with_options(DbOptions::durable(3)));
    let mut m = CheckpointingModule::new(config.clone(), StorageHierarchy::default(), db);
    let (mut record, mut restore, mut migrate, mut forget) = Default::default();
    for op in stream {
        match *op {
            StreamOp::Write {
                job,
                fn_id,
                state,
                spec_bytes,
                at,
            } => {
                report.ok &=
                    Calls::time(&mut record, || m.record(job, fn_id, state, spec_bytes, at))
                        .is_ok();
            }
            StreamOp::Restore { fn_id, migrated } => {
                Calls::time(&mut restore, || m.restore_payload(fn_id, &|_| false));
                if migrated {
                    Calls::time(&mut migrate, || m.migrate_lookup(fn_id, &|_| false));
                }
            }
            StreamOp::Complete { fn_id } => {
                report.ok &= Calls::time(&mut forget, || m.forget(fn_id)).is_ok();
            }
        }
    }
    m.flush_barrier();
    report.rows.extend([
        ("ckpt.record", record),
        ("ckpt.restore_payload", restore),
        ("ckpt.migrate_lookup", migrate),
        ("ckpt.forget", forget),
    ]);
}

/// Per-function chunk state: the previous and the newest manifest.
#[derive(Default)]
struct Chain {
    next_id: u64,
    prev: Option<(u64, Vec<u64>)>,
    newest: Option<(u64, Vec<u64>, Bytes)>,
}

fn chunk_layer(stream: &[StreamOp], report: &mut LayerReport) {
    let chunk = CkptOptions::default().chunk_size;
    let mut chains: HashMap<u64, Chain> = HashMap::new();
    let (mut hash, mut decode) = (Calls::default(), Calls::default());
    for op in stream {
        match *op {
            StreamOp::Write {
                fn_id,
                state,
                spec_bytes,
                at,
                ..
            } => {
                let payload = build_payload(fn_id, state, spec_bytes, at, chunk);
                let mut hashes = Vec::new();
                hash.time(|| hash_chunks_into(&payload, chunk, 1, &mut hashes));
                let c = chains.entry(fn_id).or_default();
                let id = c.next_id;
                c.next_id += 1;
                let base = c.newest.as_ref().map(|(i, h, _)| (*i, h.as_slice()));
                let manifest =
                    encode_manifest(id, base, &hashes, payload.len() as u64, fnv1a64(&payload));
                c.prev = c.newest.take().map(|(i, h, _)| (i, h));
                c.newest = Some((id, hashes, manifest));
            }
            StreamOp::Restore { fn_id, .. } => {
                let Some(c) = chains.get(&fn_id) else {
                    continue;
                };
                let Some((_, hashes, bytes)) = &c.newest else {
                    continue;
                };
                let resolve = |base: u64| {
                    c.prev
                        .as_ref()
                        .filter(|(i, _)| *i == base)
                        .map(|(_, h)| h.clone())
                };
                let decoded = decode.time(|| decode_manifest(bytes, resolve));
                report.ok &= decoded.is_ok_and(|d| &d.hashes == hashes);
            }
            StreamOp::Complete { fn_id } => {
                chains.remove(&fn_id);
            }
        }
    }
    report
        .rows
        .extend([("chunk.hash", hash), ("chunk.decode_manifest", decode)]);
}

fn db_layer(ops: &[KeyOp], report: &mut LayerReport) {
    let db = CanaryDb::with_options(DbOptions::durable(3));
    let value = stored_value();
    let (mut put, mut read) = (Calls::default(), Calls::default());
    for op in ops {
        match op {
            KeyOp::Put(row) => {
                report.ok &= put
                    .time(|| db.put_checkpoint_with_payload(row, value.clone()))
                    .is_ok();
            }
            KeyOp::Drop { fn_id, ckpt_id } => {
                let _ = db.delete_checkpoint(*fn_id, *ckpt_id);
                let _ = db.delete_payload(payload_location(*fn_id, *ckpt_id));
            }
            KeyOp::Read { fn_id, ckpt_id } => {
                let rows = read.time(|| db.checkpoints_of(*fn_id));
                report.ok &= rows.is_ok_and(|r| r.last().map(|r| r.ckpt_id) == *ckpt_id);
            }
        }
    }
    report
        .rows
        .extend([("db.put_checkpoint", put), ("db.checkpoints_of", read)]);
}

fn row_key(fn_id: u64, ckpt_id: u64) -> Bytes {
    Bytes::copy_from_slice(TableKey::checkpoint(fn_id, ckpt_id).as_bytes())
}

fn kv_layer(ops: &[KeyOp], report: &mut LayerReport) {
    let kv = ReplicatedKv::new(
        3,
        StoreConfig {
            shards: 16,
            entry_limit: u64::MAX,
        },
    );
    let value = stored_value();
    let (mut put, mut get) = (Calls::default(), Calls::default());
    for op in ops {
        match op {
            KeyOp::Put(row) => {
                let batch = [
                    (row.location.clone(), value.clone()),
                    (row_key(row.fn_id, row.ckpt_id), row.encode()),
                ];
                report.ok &= put.time(|| kv.put_batch(&batch)).is_ok();
            }
            KeyOp::Drop { fn_id, ckpt_id } => {
                let _ = kv.remove(payload_location(*fn_id, *ckpt_id));
                let _ = kv.remove(row_key(*fn_id, *ckpt_id));
            }
            KeyOp::Read {
                fn_id,
                ckpt_id: Some(ckpt_id),
            } => {
                let key = payload_location(*fn_id, *ckpt_id);
                report.ok &= get.time(|| kv.get(&key)).is_ok();
            }
            KeyOp::Read { ckpt_id: None, .. } => {}
        }
    }
    report.rows.extend([("kv.put_batch", put), ("kv.get", get)]);
}

fn wal_layer(ops: &[KeyOp], report: &mut LayerReport) {
    let wal = Wal::new(WalConfig::default());
    let value = stored_value();
    let (mut append, mut replay) = (Calls::default(), Calls::default());
    let mut writes = 0u64;
    for op in ops {
        match op {
            KeyOp::Put(row) => {
                writes += 1;
                let payload = WalOp::Put {
                    key: row.location.clone(),
                    value: value.clone(),
                };
                let meta = WalOp::Put {
                    key: row_key(row.fn_id, row.ckpt_id),
                    value: row.encode(),
                };
                append.time(|| wal.append(&payload));
                append.time(|| wal.append(&meta));
            }
            KeyOp::Drop { fn_id, ckpt_id } => {
                let payload = WalOp::Remove {
                    key: payload_location(*fn_id, *ckpt_id),
                };
                let meta = WalOp::Remove {
                    key: row_key(*fn_id, *ckpt_id),
                };
                append.time(|| wal.append(&payload));
                append.time(|| wal.append(&meta));
            }
            KeyOp::Read { .. } => {}
        }
    }
    let replayed = replay.time(|| wal.replay());
    report.ok &= replayed.is_ok_and(|r| r.ops.len() as u64 == append.calls);
    report.wal_bytes_per_ckpt = wal.stats().log_bytes as f64 / writes.max(1) as f64;
    report
        .rows
        .extend([("wal.append", append), ("wal.replay", replay)]);
}

/// Replay `stream` through every state-plane layer, one pass per layer.
/// `config` is the Canary configuration the traced run used.
pub fn replay(stream: &[StreamOp], config: &CanaryConfig) -> LayerReport {
    let mut report = LayerReport {
        ok: true,
        ..LayerReport::default()
    };
    checkpoint_layer(stream, config, &mut report);
    chunk_layer(stream, &mut report);
    let ops = key_ops(stream);
    db_layer(&ops, &mut report);
    kv_layer(&ops, &mut report);
    wal_layer(&ops, &mut report);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use canary_sim::SimTime;

    fn write(fn_id: u64, state: u32) -> StreamOp {
        StreamOp::Write {
            job: fn_id as u32,
            fn_id,
            state,
            spec_bytes: 1 << 20,
            at: SimTime::from_micros(1_000 * state as u64),
        }
    }

    #[test]
    fn replay_of_a_small_stream_checks_out() {
        let mut stream = Vec::new();
        for s in 0..6 {
            stream.push(write(1, s));
            stream.push(write(2, s));
        }
        stream.push(StreamOp::Restore {
            fn_id: 1,
            migrated: true,
        });
        stream.push(StreamOp::Restore {
            fn_id: 2,
            migrated: false,
        });
        stream.push(StreamOp::Complete { fn_id: 1 });
        stream.push(StreamOp::Complete { fn_id: 2 });
        let r = replay(&stream, &CanaryConfig::default());
        assert!(r.ok);
        let calls: Vec<_> = r.rows.iter().map(|(n, c)| (*n, c.calls)).collect();
        // 12 writes log 2 puts each; 12 checkpoints are dropped (6 by the
        // window, 6 at completion), 2 removes each: 48 appends.
        assert_eq!(
            calls,
            [
                ("ckpt.record", 12),
                ("ckpt.restore_payload", 2),
                ("ckpt.migrate_lookup", 1),
                ("ckpt.forget", 2),
                ("chunk.hash", 12),
                ("chunk.decode_manifest", 2),
                ("db.put_checkpoint", 12),
                ("db.checkpoints_of", 2),
                ("kv.put_batch", 12),
                ("kv.get", 2),
                ("wal.append", 48),
                ("wal.replay", 1),
            ]
        );
        assert!(r.wal_bytes_per_ckpt > 0.0);
    }
}
