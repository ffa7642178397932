//! Canary's metadata database.
//!
//! §IV-C.1: the Core Module creates and maintains five tables —
//! `worker_info`, `job_info`, `function_info`, `checkpoint_info`, and
//! `replication_info`. Here each table is a typed row codec over the
//! replicated KV store, under a per-table key prefix, so metadata survives
//! node failures exactly like checkpoints do. Each table also counts its
//! reads and writes ([`CanaryDb::table_stats`]), surfaced through the
//! telemetry snapshot at the end of an observed run.
//!
//! # Metadata fast path
//!
//! The hot path avoids the two per-op costs of the original
//! implementation:
//!
//! - **Typed keys** ([`TableKey`]): a fixed-size stack buffer (tag byte +
//!   big-endian ids) instead of a heap-allocated `format!` string. Lookups
//!   borrow the stack bytes, so reads allocate no key at all. Big-endian
//!   ids sort identically to the zero-padded decimal strings they replace,
//!   so per-table iteration order — and therefore golden traces — is
//!   unchanged. The old string-keyed path is retained behind
//!   [`DbOptions::string_oracle`] as the equivalence/benchmark oracle.
//! - **Write-through row cache**: decoded `job_info` / `function_info`
//!   rows and per-function `checkpoint_info` vectors are kept alongside
//!   the store, so hot reads skip the KV fetch and the row decode
//!   entirely. Every put/remove updates the cache at the same choke point
//!   that writes the store; a membership [generation](
//!   canary_kvstore::ReplicatedKv::generation) mismatch (node failure,
//!   recovery, empty rejoin) drops the whole cache, because the backing
//!   data may have been wiped or resynced under it. [`DbOptions::cache`]
//!   turns the cache off for equivalence testing.
//!
//! # Durability
//!
//! With [`DbOptions::durable`] set (the production default through
//! [`CanaryDb::new`]; [`DbOptions::fast`] leaves it off), every mutation of
//! the replica group is written through a [write-ahead log](
//! canary_kvstore::Wal) with periodic compacting snapshots — the
//! "native persistence" half of the paper's Ignite deployment. A
//! controller crash ([`CanaryDb::crash_and_recover`]) then rebuilds the
//! typed-key tables, the membership generation, and the liveness bitmap
//! from snapshot + log, and the row cache — which dies with the process —
//! is dropped so post-restart reads repopulate it from recovered rows.

use bytes::Bytes;
use canary_kvstore::{KvError, ReplicatedKv, StoreConfig, WalConfig, WalError, WalRecovery};
use canary_workloads::{CodecError, Decoder, Encoder, RuntimeKind};
use parking_lot::{Mutex, MutexGuard};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Database errors.
#[derive(Debug)]
pub enum DbError {
    /// Underlying store failure.
    Store(KvError),
    /// Row (de)serialization failure.
    Codec(CodecError),
    /// Write-ahead-log corruption surfaced during crash recovery.
    Wal(WalError),
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::Store(e) => write!(f, "store error: {e}"),
            DbError::Codec(e) => write!(f, "codec error: {e}"),
            DbError::Wal(e) => write!(f, "wal error: {e}"),
        }
    }
}

impl Error for DbError {}

impl From<KvError> for DbError {
    fn from(e: KvError) -> Self {
        DbError::Store(e)
    }
}

impl From<CodecError> for DbError {
    fn from(e: CodecError) -> Self {
        DbError::Codec(e)
    }
}

impl From<WalError> for DbError {
    fn from(e: WalError) -> Self {
        DbError::Wal(e)
    }
}

fn encode_runtime(r: RuntimeKind) -> u8 {
    match r {
        RuntimeKind::Python => 0,
        RuntimeKind::NodeJs => 1,
        RuntimeKind::Java => 2,
    }
}

fn decode_runtime(v: u8) -> Result<RuntimeKind, CodecError> {
    match v {
        0 => Ok(RuntimeKind::Python),
        1 => Ok(RuntimeKind::NodeJs),
        2 => Ok(RuntimeKind::Java),
        other => Err(CodecError::BadTag {
            what: "runtime kind",
            value: other as u64,
        }),
    }
}

/// A row of `worker_info`: platform and per-worker facts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerInfoRow {
    /// Worker/node id.
    pub node_id: u32,
    /// CPU class ordinal.
    pub cpu_class: u8,
    /// Memory in MB.
    pub memory_mb: u64,
    /// Rack.
    pub rack: u32,
    /// Invoker container slots.
    pub slots: u32,
}

/// A row of `job_info`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobInfoRow {
    /// Job id.
    pub job_id: u32,
    /// Runtime of the job's functions.
    pub runtime: RuntimeKind,
    /// Number of functions launched for the job.
    pub invocations: u32,
    /// Checkpoint window configured at submission.
    pub ckpt_window: u32,
    /// Replication strategy ordinal (DR/AR/LR).
    pub replication_strategy: u8,
    /// Submission time (µs).
    pub submitted_us: u64,
}

/// A row of `function_info`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FunctionInfoRow {
    /// Function id.
    pub fn_id: u64,
    /// Owning job.
    pub job_id: u32,
    /// Runtime.
    pub runtime: RuntimeKind,
    /// Worker hosting the current attempt (`u32::MAX` when unplaced).
    pub node_id: u32,
    /// Status ordinal (0 pending, 1 running, 2 recovering, 3 completed).
    pub status: u8,
}

/// A row of `checkpoint_info`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointInfoRow {
    /// Checkpoint id (unique per function).
    pub ckpt_id: u64,
    /// Owning job.
    pub job_id: u32,
    /// Owning function.
    pub fn_id: u64,
    /// Index of the checkpointed state.
    pub state_index: u32,
    /// Payload size.
    pub bytes: u64,
    /// Storage tier ordinal the payload lives on.
    pub tier: u8,
    /// Payload location: the KV key (or spilled-path key) the payload is
    /// stored under, in the compact binary form built by
    /// [`payload_location`] / [`spill_location`]. Locations are short
    /// enough to stay inline in the handle, so row clones and window
    /// metadata never allocate for them.
    pub location: Bytes,
    /// Creation time (µs).
    pub created_us: u64,
}

/// A row of `replication_info`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicationInfoRow {
    /// Replica container id.
    pub replica_id: u64,
    /// Runtime the replica provides.
    pub runtime: RuntimeKind,
    /// Job that triggered the replica.
    pub job_id: u32,
    /// Worker hosting it.
    pub node_id: u32,
    /// Creation time (µs).
    pub created_us: u64,
    /// Status ordinal (0 starting, 1 warm, 2 consumed, 3 lost).
    pub status: u8,
}

macro_rules! row_codec {
    ($ty:ty, $ver:literal, enc($self:ident, $e:ident) $enc:block, dec($d:ident) $dec:block) => {
        impl $ty {
            /// Serialize the row into a caller-provided encoder (hot
            /// paths reuse one scratch encoder across rows, then copy
            /// the encoding into a single refcounted buffer).
            pub fn encode_with(&$self, $e: &mut Encoder) {
                $e.put_u8($ver);
                $enc
            }

            /// Serialize the row.
            pub fn encode(&self) -> Bytes {
                let mut e = Encoder::new();
                self.encode_with(&mut e);
                e.finish()
            }

            /// Deserialize a row.
            pub fn decode(bytes: &[u8]) -> Result<Self, CodecError> {
                let mut $d = Decoder::new(bytes);
                let ver = $d.u8("row version")?;
                if ver != $ver {
                    return Err(CodecError::BadTag { what: "row version", value: ver as u64 });
                }
                let row = $dec;
                $d.finish("row")?;
                Ok(row)
            }
        }
    };
}

row_codec!(WorkerInfoRow, 1,
    enc(self, e) {
        e.put_u32(self.node_id).put_u8(self.cpu_class).put_u64(self.memory_mb)
         .put_u32(self.rack).put_u32(self.slots);
    },
    dec(d) {
        WorkerInfoRow {
            node_id: d.u32("node_id")?,
            cpu_class: d.u8("cpu_class")?,
            memory_mb: d.u64("memory_mb")?,
            rack: d.u32("rack")?,
            slots: d.u32("slots")?,
        }
    }
);

row_codec!(JobInfoRow, 1,
    enc(self, e) {
        e.put_u32(self.job_id).put_u8(encode_runtime(self.runtime))
         .put_u32(self.invocations).put_u32(self.ckpt_window)
         .put_u8(self.replication_strategy).put_u64(self.submitted_us);
    },
    dec(d) {
        JobInfoRow {
            job_id: d.u32("job_id")?,
            runtime: decode_runtime(d.u8("runtime")?)?,
            invocations: d.u32("invocations")?,
            ckpt_window: d.u32("ckpt_window")?,
            replication_strategy: d.u8("replication_strategy")?,
            submitted_us: d.u64("submitted_us")?,
        }
    }
);

row_codec!(FunctionInfoRow, 1,
    enc(self, e) {
        e.put_u64(self.fn_id).put_u32(self.job_id)
         .put_u8(encode_runtime(self.runtime)).put_u32(self.node_id)
         .put_u8(self.status);
    },
    dec(d) {
        FunctionInfoRow {
            fn_id: d.u64("fn_id")?,
            job_id: d.u32("job_id")?,
            runtime: decode_runtime(d.u8("runtime")?)?,
            node_id: d.u32("node_id")?,
            status: d.u8("status")?,
        }
    }
);

row_codec!(CheckpointInfoRow, 1,
    enc(self, e) {
        e.put_u64(self.ckpt_id).put_u32(self.job_id).put_u64(self.fn_id)
         .put_u32(self.state_index).put_u64(self.bytes).put_u8(self.tier)
         .put_bytes(&self.location).put_u64(self.created_us);
    },
    dec(d) {
        CheckpointInfoRow {
            ckpt_id: d.u64("ckpt_id")?,
            job_id: d.u32("job_id")?,
            fn_id: d.u64("fn_id")?,
            state_index: d.u32("state_index")?,
            bytes: d.u64("bytes")?,
            tier: d.u8("tier")?,
            location: Bytes::from(d.bytes("location")?),
            created_us: d.u64("created_us")?,
        }
    }
);

row_codec!(ReplicationInfoRow, 1,
    enc(self, e) {
        e.put_u64(self.replica_id).put_u8(encode_runtime(self.runtime))
         .put_u32(self.job_id).put_u32(self.node_id)
         .put_u64(self.created_us).put_u8(self.status);
    },
    dec(d) {
        ReplicationInfoRow {
            replica_id: d.u64("replica_id")?,
            runtime: decode_runtime(d.u8("runtime")?)?,
            job_id: d.u32("job_id")?,
            node_id: d.u32("node_id")?,
            created_us: d.u64("created_us")?,
            status: d.u8("status")?,
        }
    }
);

/// Tag bytes of the typed key encoding, one per table. All tags are below
/// any printable ASCII byte, so typed keys, the payload namespace
/// ([`TAG_PAYLOAD`] / [`TAG_SPILL`]), and any legacy string keys occupy
/// disjoint ranges of the key space and never interleave in range walks.
const TAG_WORKER: u8 = 0x01;
const TAG_JOB: u8 = 0x02;
const TAG_FUNCTION: u8 = 0x03;
const TAG_CHECKPOINT: u8 = 0x04;
const TAG_REPLICATION: u8 = 0x05;
/// Checkpoint payloads stored in the KV tier (`tag + fn_id + ckpt_id`).
pub const TAG_PAYLOAD: u8 = 0x06;
/// Payloads spilled to a storage tier (`tag + tier + fn_id + ckpt_id`).
pub const TAG_SPILL: u8 = 0x07;

/// Location key of a KV-tier checkpoint payload: `[TAG_PAYLOAD]` + fn_id
/// (BE) + ckpt_id (BE), 17 bytes. Big-endian ids sort byte-wise in
/// numeric order, like the zero-padded decimal strings this replaced, and
/// the handle stays inline — building or cloning a location never
/// allocates.
pub fn payload_location(fn_id: u64, ckpt_id: u64) -> Bytes {
    let mut buf = [0u8; 17];
    buf[0] = TAG_PAYLOAD;
    buf[1..9].copy_from_slice(&fn_id.to_be_bytes());
    buf[9..17].copy_from_slice(&ckpt_id.to_be_bytes());
    Bytes::copy_from_slice(&buf)
}

/// Location key of a spilled checkpoint payload: `[TAG_SPILL]` + storage
/// tier ordinal + fn_id (BE) + ckpt_id (BE), 18 bytes (inline).
pub fn spill_location(tier: u8, fn_id: u64, ckpt_id: u64) -> Bytes {
    let mut buf = [0u8; 18];
    buf[0] = TAG_SPILL;
    buf[1] = tier;
    buf[2..10].copy_from_slice(&fn_id.to_be_bytes());
    buf[10..18].copy_from_slice(&ckpt_id.to_be_bytes());
    Bytes::copy_from_slice(&buf)
}

/// A fixed-size, stack-allocated metadata table key.
///
/// Layout: one table tag byte followed by the row ids in big-endian.
/// Big-endian integers sort byte-wise in numeric order — the same order
/// as the zero-padded decimal strings they replaced — so switching the
/// encoding changes no iteration order anywhere.
///
/// | table              | tag    | ids                          | len |
/// |--------------------|--------|------------------------------|-----|
/// | `worker_info`      | `0x01` | `node_id: u32`               | 5   |
/// | `job_info`         | `0x02` | `job_id: u32`                | 5   |
/// | `function_info`    | `0x03` | `fn_id: u64`                 | 9   |
/// | `checkpoint_info`  | `0x04` | `fn_id: u64`, `ckpt_id: u64` | 17  |
/// | `replication_info` | `0x05` | `replica_id: u64`            | 9   |
///
/// The key never touches the heap: it is `Copy`, lives on the stack, and
/// KV lookups borrow its bytes directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct TableKey {
    len: u8,
    buf: [u8; 17],
}

impl TableKey {
    fn from_parts(tag: u8, parts: &[&[u8]]) -> Self {
        let mut buf = [0u8; 17];
        buf[0] = tag;
        let mut len = 1;
        for p in parts {
            buf[len..len + p.len()].copy_from_slice(p);
            len += p.len();
        }
        TableKey {
            len: len as u8,
            buf,
        }
    }

    /// `worker_info` row key.
    pub fn worker(node_id: u32) -> Self {
        Self::from_parts(TAG_WORKER, &[&node_id.to_be_bytes()])
    }

    /// `job_info` row key.
    pub fn job(job_id: u32) -> Self {
        Self::from_parts(TAG_JOB, &[&job_id.to_be_bytes()])
    }

    /// `function_info` row key.
    pub fn function(fn_id: u64) -> Self {
        Self::from_parts(TAG_FUNCTION, &[&fn_id.to_be_bytes()])
    }

    /// `checkpoint_info` row key, ordered by `(fn_id, ckpt_id)`.
    pub fn checkpoint(fn_id: u64, ckpt_id: u64) -> Self {
        Self::from_parts(
            TAG_CHECKPOINT,
            &[&fn_id.to_be_bytes(), &ckpt_id.to_be_bytes()],
        )
    }

    /// Prefix covering every checkpoint of `fn_id` (for range walks).
    pub fn checkpoint_prefix(fn_id: u64) -> Self {
        Self::from_parts(TAG_CHECKPOINT, &[&fn_id.to_be_bytes()])
    }

    /// `replication_info` row key.
    pub fn replica(replica_id: u64) -> Self {
        Self::from_parts(TAG_REPLICATION, &[&replica_id.to_be_bytes()])
    }

    /// The encoded key bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf[..self.len as usize]
    }
}

impl AsRef<[u8]> for TableKey {
    fn as_ref(&self) -> &[u8] {
        self.as_bytes()
    }
}

/// A key in whichever encoding the db instance is configured for: typed
/// (stack, zero-alloc) or the legacy `format!` string (the oracle path —
/// its per-op heap allocation is exactly what the fast path removes).
enum DbKey {
    Typed(TableKey),
    Text(String),
}

impl AsRef<[u8]> for DbKey {
    fn as_ref(&self) -> &[u8] {
        match self {
            DbKey::Typed(k) => k.as_bytes(),
            DbKey::Text(s) => s.as_bytes(),
        }
    }
}

/// Construction options for [`CanaryDb`].
#[derive(Debug, Clone, Copy)]
pub struct DbOptions {
    /// Replica-group size.
    pub members: usize,
    /// Typed stack keys (fast path) vs legacy `format!` strings (oracle).
    pub typed_keys: bool,
    /// Write-through row cache in front of the store.
    pub cache: bool,
    /// Log every mutation through a write-ahead log so the store survives
    /// a controller crash ([`CanaryDb::crash_and_recover`]).
    pub durable: bool,
    /// Compact the WAL into a snapshot every this-many records.
    pub wal_snapshot_every: u64,
}

impl DbOptions {
    /// The production fast path: typed keys + row cache, memory-only.
    pub fn fast(members: usize) -> Self {
        DbOptions {
            members,
            typed_keys: true,
            cache: true,
            durable: false,
            wal_snapshot_every: WalConfig::default().snapshot_every,
        }
    }

    /// The fast path with the write-ahead log attached — what the control
    /// plane runs in production ([`CanaryDb::new`]).
    pub fn durable(members: usize) -> Self {
        DbOptions {
            durable: true,
            ..Self::fast(members)
        }
    }

    /// The pre-fast-path configuration, retained as the equivalence and
    /// benchmark oracle: string keys, no cache, full-scan prefix queries.
    pub fn string_oracle(members: usize) -> Self {
        DbOptions {
            members,
            typed_keys: false,
            cache: false,
            durable: false,
            wal_snapshot_every: WalConfig::default().snapshot_every,
        }
    }
}

/// Per-table read/write traffic, tracked with atomics because reads go
/// through `&self` (the db is shared behind an `Arc`).
#[derive(Debug, Default)]
struct TableTraffic {
    reads: AtomicU64,
    writes: AtomicU64,
}

/// Table index into [`CanaryDb::traffic`]; order matches
/// [`CanaryDb::TABLES`].
const T_WORKER: usize = 0;
const T_JOB: usize = 1;
const T_FUNCTION: usize = 2;
const T_CHECKPOINT: usize = 3;
const T_REPLICATION: usize = 4;
const T_PAYLOAD: usize = 5;

/// Decoded rows kept alongside the store. Entries exist only for rows the
/// db itself wrote or read through this handle; a checkpoint entry is the
/// complete retained set for that function (an absent entry means
/// "unknown", never "empty").
#[derive(Debug, Default)]
struct CacheInner {
    seen_generation: u64,
    jobs: HashMap<u32, JobInfoRow>,
    functions: HashMap<u64, FunctionInfoRow>,
    checkpoints: HashMap<u64, Vec<CheckpointInfoRow>>,
}

#[derive(Debug, Default)]
struct RowCache {
    enabled: bool,
    inner: Mutex<CacheInner>,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// The five-table metadata database over the replicated KV store.
#[derive(Debug)]
pub struct CanaryDb {
    kv: ReplicatedKv,
    traffic: [TableTraffic; 6],
    typed_keys: bool,
    cache: RowCache,
    /// Reused row-encode buffer: every put serializes into this scratch
    /// and copies the encoding out as one refcounted buffer, so a
    /// steady-state row write costs exactly one allocation.
    enc_scratch: Mutex<Encoder>,
}

impl CanaryDb {
    /// Table names, in `table_stats` order: the paper's five tables plus
    /// the checkpoint-payload namespace.
    pub const TABLES: [&'static str; 6] = [
        "worker_info",
        "job_info",
        "function_info",
        "checkpoint_info",
        "replication_info",
        "payload",
    ];

    /// New database replicated across `members` cluster members, on the
    /// fast path (typed keys + row cache) with the write-ahead log
    /// attached ([`DbOptions::durable`]).
    pub fn new(members: usize) -> Self {
        Self::with_options(DbOptions::durable(members))
    }

    /// New database with explicit fast-path/oracle configuration.
    pub fn with_options(opts: DbOptions) -> Self {
        let store_config = StoreConfig {
            // Metadata rows are small; the entry limit applies to
            // checkpoint payloads, not table rows.
            entry_limit: u64::MAX,
            ..StoreConfig::default()
        };
        let kv = if opts.durable {
            ReplicatedKv::durable(
                opts.members,
                store_config,
                WalConfig {
                    snapshot_every: opts.wal_snapshot_every,
                },
            )
        } else {
            ReplicatedKv::new(opts.members, store_config)
        };
        CanaryDb {
            kv,
            traffic: Default::default(),
            typed_keys: opts.typed_keys,
            cache: RowCache {
                enabled: opts.cache,
                ..Default::default()
            },
            enc_scratch: Mutex::new(Encoder::new()),
        }
    }

    /// Serialize a row through the shared scratch encoder into one fresh
    /// refcounted buffer (a single allocation, no intermediate `Vec`).
    fn encode_row(&self, f: impl FnOnce(&mut Encoder)) -> Bytes {
        let mut enc = self.enc_scratch.lock();
        enc.clear();
        f(&mut enc);
        Bytes::copy_from_slice(enc.encoded())
    }

    /// Kill and restart the control plane's metadata substrate in place:
    /// every in-memory copy (and the row cache, which lives in the same
    /// process) is lost, a torn in-flight record is left on the log, and
    /// the group is rebuilt from the WAL's snapshot + log. Without a WAL
    /// the restart is lossy: the store comes back empty and readers see
    /// missing rows (Canary's restore path then falls back to
    /// rerun-from-start).
    pub fn crash_and_recover(&self) -> Result<WalRecovery, DbError> {
        let recovery = self.kv.crash_and_recover(true)?;
        if self.cache.enabled {
            let mut inner = self.cache.inner.lock();
            inner.jobs.clear();
            inner.functions.clear();
            inner.checkpoints.clear();
            // Perfect recovery restores the generation to its pre-crash
            // value, so re-sync the watermark explicitly — the cache died
            // with the process either way.
            inner.seen_generation = self.kv.generation();
        }
        Ok(recovery)
    }

    fn note_read(&self, table: usize) {
        self.traffic[table].reads.fetch_add(1, Ordering::Relaxed);
    }

    fn note_reads(&self, table: usize, n: u64) {
        self.traffic[table].reads.fetch_add(n, Ordering::Relaxed);
    }

    fn note_write(&self, table: usize) {
        self.traffic[table].writes.fetch_add(1, Ordering::Relaxed);
    }

    /// Cumulative `(table, reads, writes)` traffic, in [`Self::TABLES`]
    /// order. Deletions count as writes. Logical reads served from the
    /// row cache still count, so traffic is identical with the cache on
    /// or off.
    pub fn table_stats(&self) -> Vec<(&'static str, u64, u64)> {
        Self::TABLES
            .iter()
            .zip(self.traffic.iter())
            .map(|(&name, t)| {
                (
                    name,
                    t.reads.load(Ordering::Relaxed),
                    t.writes.load(Ordering::Relaxed),
                )
            })
            .collect()
    }

    /// Row-cache `(hits, misses)` so far. Both are 0 when the cache is
    /// disabled.
    pub fn cache_stats(&self) -> (u64, u64) {
        (
            self.cache.hits.load(Ordering::Relaxed),
            self.cache.misses.load(Ordering::Relaxed),
        )
    }

    /// The underlying replicated store (shared with the checkpoint
    /// payload path).
    pub fn kv(&self) -> &ReplicatedKv {
        &self.kv
    }

    /// Lock the row cache, first dropping every entry if the store's
    /// membership generation moved (a node failed, recovered, or rejoined
    /// empty — the backing data may have been wiped or resynced under
    /// us). Returns `None` when the cache is disabled.
    fn cache(&self) -> Option<MutexGuard<'_, CacheInner>> {
        if !self.cache.enabled {
            return None;
        }
        let mut inner = self.cache.inner.lock();
        let generation = self.kv.generation();
        if inner.seen_generation != generation {
            inner.jobs.clear();
            inner.functions.clear();
            inner.checkpoints.clear();
            inner.seen_generation = generation;
        }
        Some(inner)
    }

    fn worker_key(&self, node_id: u32) -> DbKey {
        if self.typed_keys {
            DbKey::Typed(TableKey::worker(node_id))
        } else {
            DbKey::Text(format!("worker/{node_id:08}"))
        }
    }

    fn job_key(&self, job_id: u32) -> DbKey {
        if self.typed_keys {
            DbKey::Typed(TableKey::job(job_id))
        } else {
            DbKey::Text(format!("job/{job_id:08}"))
        }
    }

    fn function_key(&self, fn_id: u64) -> DbKey {
        if self.typed_keys {
            DbKey::Typed(TableKey::function(fn_id))
        } else {
            DbKey::Text(format!("fn/{fn_id:016}"))
        }
    }

    fn checkpoint_key(&self, fn_id: u64, ckpt_id: u64) -> DbKey {
        if self.typed_keys {
            DbKey::Typed(TableKey::checkpoint(fn_id, ckpt_id))
        } else {
            DbKey::Text(format!("ckpt/{fn_id:016}/{ckpt_id:016}"))
        }
    }

    fn replica_key(&self, replica_id: u64) -> DbKey {
        if self.typed_keys {
            DbKey::Typed(TableKey::replica(replica_id))
        } else {
            DbKey::Text(format!("repl/{replica_id:016}"))
        }
    }

    /// Insert/overwrite a `worker_info` row.
    pub fn put_worker(&self, row: &WorkerInfoRow) -> Result<(), DbError> {
        self.note_write(T_WORKER);
        let val = self.encode_row(|e| row.encode_with(e));
        Ok(self.kv.put(self.worker_key(row.node_id), val)?)
    }

    /// Read a `worker_info` row.
    pub fn get_worker(&self, node_id: u32) -> Result<WorkerInfoRow, DbError> {
        self.note_read(T_WORKER);
        Ok(WorkerInfoRow::decode(
            &self.kv.get(self.worker_key(node_id))?,
        )?)
    }

    /// Insert/overwrite a `job_info` row (write-through: the cache is
    /// updated at the same choke point that writes the store).
    pub fn put_job(&self, row: &JobInfoRow) -> Result<(), DbError> {
        self.note_write(T_JOB);
        let val = self.encode_row(|e| row.encode_with(e));
        self.kv.put(self.job_key(row.job_id), val)?;
        if let Some(mut cache) = self.cache() {
            cache.jobs.insert(row.job_id, row.clone());
        }
        Ok(())
    }

    /// Read a `job_info` row (served decoded from the row cache when
    /// hot).
    pub fn get_job(&self, job_id: u32) -> Result<JobInfoRow, DbError> {
        self.note_read(T_JOB);
        if let Some(mut cache) = self.cache() {
            if let Some(row) = cache.jobs.get(&job_id) {
                self.cache.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(row.clone());
            }
            self.cache.misses.fetch_add(1, Ordering::Relaxed);
            let row = JobInfoRow::decode(&self.kv.get(self.job_key(job_id))?)?;
            cache.jobs.insert(job_id, row.clone());
            return Ok(row);
        }
        Ok(JobInfoRow::decode(&self.kv.get(self.job_key(job_id))?)?)
    }

    /// Insert/overwrite a `function_info` row (write-through).
    pub fn put_function(&self, row: &FunctionInfoRow) -> Result<(), DbError> {
        self.note_write(T_FUNCTION);
        let val = self.encode_row(|e| row.encode_with(e));
        self.kv.put(self.function_key(row.fn_id), val)?;
        if let Some(mut cache) = self.cache() {
            cache.functions.insert(row.fn_id, row.clone());
        }
        Ok(())
    }

    /// Read a `function_info` row (served decoded from the row cache when
    /// hot).
    pub fn get_function(&self, fn_id: u64) -> Result<FunctionInfoRow, DbError> {
        self.note_read(T_FUNCTION);
        if let Some(mut cache) = self.cache() {
            if let Some(row) = cache.functions.get(&fn_id) {
                self.cache.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(row.clone());
            }
            self.cache.misses.fetch_add(1, Ordering::Relaxed);
            let row = FunctionInfoRow::decode(&self.kv.get(self.function_key(fn_id))?)?;
            cache.functions.insert(fn_id, row.clone());
            return Ok(row);
        }
        Ok(FunctionInfoRow::decode(
            &self.kv.get(self.function_key(fn_id))?,
        )?)
    }

    /// Insert a `checkpoint_info` row. A cached retained-set for the
    /// function is updated in place (same sorted-by-`ckpt_id` order a
    /// fresh range read would produce); an absent entry stays absent.
    pub fn put_checkpoint(&self, row: &CheckpointInfoRow) -> Result<(), DbError> {
        self.note_write(T_CHECKPOINT);
        let val = self.encode_row(|e| row.encode_with(e));
        self.kv
            .put(self.checkpoint_key(row.fn_id, row.ckpt_id), val)?;
        if let Some(mut cache) = self.cache() {
            if let Some(rows) = cache.checkpoints.get_mut(&row.fn_id) {
                match rows.binary_search_by_key(&row.ckpt_id, |r| r.ckpt_id) {
                    Ok(i) => rows[i] = row.clone(),
                    Err(i) => rows.insert(i, row.clone()),
                }
            }
        }
        Ok(())
    }

    /// Delete a `checkpoint_info` row (window eviction).
    pub fn delete_checkpoint(&self, fn_id: u64, ckpt_id: u64) -> Result<(), DbError> {
        self.note_write(T_CHECKPOINT);
        self.kv.remove(self.checkpoint_key(fn_id, ckpt_id))?;
        if let Some(mut cache) = self.cache() {
            if let Some(rows) = cache.checkpoints.get_mut(&fn_id) {
                rows.retain(|r| r.ckpt_id != ckpt_id);
            }
        }
        Ok(())
    }

    /// All retained `checkpoint_info` rows of a function, oldest first.
    /// Served from the row cache when hot (no range walk, no decode);
    /// traffic accounting is identical either way.
    pub fn checkpoints_of(&self, fn_id: u64) -> Result<Vec<CheckpointInfoRow>, DbError> {
        if let Some(mut cache) = self.cache() {
            if let Some(rows) = cache.checkpoints.get(&fn_id) {
                self.cache.hits.fetch_add(1, Ordering::Relaxed);
                self.note_reads(T_CHECKPOINT, rows.len() as u64);
                return Ok(rows.clone());
            }
            self.cache.misses.fetch_add(1, Ordering::Relaxed);
            let rows = self.read_checkpoints(fn_id)?;
            cache.checkpoints.insert(fn_id, rows.clone());
            return Ok(rows);
        }
        self.read_checkpoints(fn_id)
    }

    /// Read the retained set from the store: an ordered range walk on the
    /// fast path, the legacy full scan in string-oracle mode.
    fn read_checkpoints(&self, fn_id: u64) -> Result<Vec<CheckpointInfoRow>, DbError> {
        let keys = if self.typed_keys {
            self.kv.keys_with_prefix(TableKey::checkpoint_prefix(fn_id))
        } else {
            self.kv.keys_with_prefix_scan(format!("ckpt/{fn_id:016}/"))
        };
        keys.iter()
            .map(|k| {
                self.note_read(T_CHECKPOINT);
                Ok(CheckpointInfoRow::decode(&self.kv.get(k)?)?)
            })
            .collect()
    }

    /// Insert/overwrite a `replication_info` row.
    pub fn put_replica(&self, row: &ReplicationInfoRow) -> Result<(), DbError> {
        self.note_write(T_REPLICATION);
        let val = self.encode_row(|e| row.encode_with(e));
        Ok(self.kv.put(self.replica_key(row.replica_id), val)?)
    }

    /// Read a `replication_info` row.
    pub fn get_replica(&self, replica_id: u64) -> Result<ReplicationInfoRow, DbError> {
        self.note_read(T_REPLICATION);
        Ok(ReplicationInfoRow::decode(
            &self.kv.get(self.replica_key(replica_id))?,
        )?)
    }

    /// Store a checkpoint payload (small real bytes; sizes are billed via
    /// the storage-tier model separately). The payload handle is shared
    /// with the store, not copied.
    pub fn put_payload(&self, location: impl AsRef<[u8]>, payload: Bytes) -> Result<(), DbError> {
        self.note_write(T_PAYLOAD);
        Ok(self.kv.put(location, payload)?)
    }

    /// Fetch a checkpoint payload.
    pub fn get_payload(&self, location: impl AsRef<[u8]>) -> Result<Bytes, DbError> {
        self.note_read(T_PAYLOAD);
        Ok(self.kv.get(location)?)
    }

    /// Delete a checkpoint payload.
    pub fn delete_payload(&self, location: impl AsRef<[u8]>) -> Result<(), DbError> {
        self.note_write(T_PAYLOAD);
        Ok(self.kv.remove(location)?)
    }

    /// Group-commit a checkpoint: the payload put and its
    /// `checkpoint_info` row land in **one** store write batch (one write
    /// lock for the whole replica group, via [`ReplicatedKv::put_batch`])
    /// instead of two independent puts. Observationally identical to
    /// `put_payload` + `put_checkpoint` in that order: same per-table
    /// traffic counts, same final store contents, byte-identical WAL
    /// record stream, same write-through cache update — only the lock
    /// traffic differs. The row must reference `location` (it is stored
    /// in the row and used as the batch's payload key). The payload
    /// handle is stored as-is, once for every replica, never copied.
    pub fn put_checkpoint_with_payload(
        &self,
        row: &CheckpointInfoRow,
        payload: Bytes,
    ) -> Result<(), DbError> {
        self.note_write(T_PAYLOAD);
        self.note_write(T_CHECKPOINT);
        let row_bytes = self.encode_row(|e| row.encode_with(e));
        let ckpt_key = match self.checkpoint_key(row.fn_id, row.ckpt_id) {
            DbKey::Typed(k) => Bytes::copy_from_slice(k.as_bytes()),
            DbKey::Text(s) => Bytes::from(s),
        };
        self.kv
            .put_batch(&[(row.location.clone(), payload), (ckpt_key, row_bytes)])?;
        if let Some(mut cache) = self.cache() {
            if let Some(rows) = cache.checkpoints.get_mut(&row.fn_id) {
                match rows.binary_search_by_key(&row.ckpt_id, |r| r.ckpt_id) {
                    Ok(i) => rows[i] = row.clone(),
                    Err(i) => rows.insert(i, row.clone()),
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_row_round_trip() {
        let row = WorkerInfoRow {
            node_id: 3,
            cpu_class: 1,
            memory_mb: 192 * 1024,
            rack: 0,
            slots: 70,
        };
        assert_eq!(WorkerInfoRow::decode(&row.encode()).unwrap(), row);
    }

    #[test]
    fn job_row_round_trip() {
        let row = JobInfoRow {
            job_id: 9,
            runtime: RuntimeKind::Java,
            invocations: 100,
            ckpt_window: 3,
            replication_strategy: 0,
            submitted_us: 123_456,
        };
        assert_eq!(JobInfoRow::decode(&row.encode()).unwrap(), row);
    }

    #[test]
    fn function_row_round_trip() {
        let row = FunctionInfoRow {
            fn_id: 42,
            job_id: 1,
            runtime: RuntimeKind::Python,
            node_id: u32::MAX,
            status: 2,
        };
        assert_eq!(FunctionInfoRow::decode(&row.encode()).unwrap(), row);
    }

    #[test]
    fn checkpoint_row_round_trip() {
        let row = CheckpointInfoRow {
            ckpt_id: 7,
            job_id: 1,
            fn_id: 42,
            state_index: 12,
            bytes: 98 * 1024 * 1024,
            tier: 2,
            location: spill_location(2, 42, 7),
            created_us: 999,
        };
        assert_eq!(CheckpointInfoRow::decode(&row.encode()).unwrap(), row);
    }

    #[test]
    fn replica_row_round_trip() {
        let row = ReplicationInfoRow {
            replica_id: 88,
            runtime: RuntimeKind::NodeJs,
            job_id: 2,
            node_id: 5,
            created_us: 10,
            status: 1,
        };
        assert_eq!(ReplicationInfoRow::decode(&row.encode()).unwrap(), row);
    }

    #[test]
    fn bad_version_rejected() {
        let row = WorkerInfoRow {
            node_id: 0,
            cpu_class: 0,
            memory_mb: 0,
            rack: 0,
            slots: 0,
        };
        let mut bytes = row.encode().to_vec();
        bytes[0] = 200;
        assert!(WorkerInfoRow::decode(&bytes).is_err());
    }

    #[test]
    fn typed_keys_sort_like_the_strings_they_replaced() {
        // Byte order of typed keys must equal byte order of the legacy
        // zero-padded decimal strings for any id pair, per table.
        let ids = [0u64, 1, 7, 9, 10, 99, 100, 12345, u32::MAX as u64];
        for &a in &ids {
            for &b in &ids {
                let typed = TableKey::function(a)
                    .as_bytes()
                    .cmp(TableKey::function(b).as_bytes());
                let text = format!("fn/{a:016}").cmp(&format!("fn/{b:016}"));
                assert_eq!(typed, text, "fn ids {a} vs {b}");
                let typed = TableKey::job(a as u32)
                    .as_bytes()
                    .cmp(TableKey::job(b as u32).as_bytes());
                let text = format!("job/{:08}", a as u32).cmp(&format!("job/{:08}", b as u32));
                assert_eq!(typed, text, "job ids {a} vs {b}");
                for &(c, d) in &[(a, b), (b, a)] {
                    let typed = TableKey::checkpoint(a, c)
                        .as_bytes()
                        .cmp(TableKey::checkpoint(b, d).as_bytes());
                    let text =
                        format!("ckpt/{a:016}/{c:016}").cmp(&format!("ckpt/{b:016}/{d:016}"));
                    assert_eq!(typed, text, "ckpt ({a},{c}) vs ({b},{d})");
                }
            }
        }
    }

    #[test]
    fn checkpoint_prefix_covers_exactly_one_function() {
        let prefix = TableKey::checkpoint_prefix(7);
        assert!(TableKey::checkpoint(7, 0)
            .as_bytes()
            .starts_with(prefix.as_bytes()));
        assert!(TableKey::checkpoint(7, u64::MAX)
            .as_bytes()
            .starts_with(prefix.as_bytes()));
        assert!(!TableKey::checkpoint(8, 0)
            .as_bytes()
            .starts_with(prefix.as_bytes()));
        assert!(!TableKey::function(7)
            .as_bytes()
            .starts_with(prefix.as_bytes()));
    }

    fn sample_job(job_id: u32) -> JobInfoRow {
        JobInfoRow {
            job_id,
            runtime: RuntimeKind::Python,
            invocations: 10,
            ckpt_window: 3,
            replication_strategy: 1,
            submitted_us: 0,
        }
    }

    fn sample_ckpt(fn_id: u64, ckpt_id: u64) -> CheckpointInfoRow {
        CheckpointInfoRow {
            ckpt_id,
            job_id: 0,
            fn_id,
            state_index: ckpt_id as u32,
            bytes: 10,
            tier: 0,
            location: payload_location(fn_id, ckpt_id),
            created_us: ckpt_id,
        }
    }

    #[test]
    fn db_tables_round_trip() {
        for opts in [DbOptions::fast(3), DbOptions::string_oracle(3)] {
            let db = CanaryDb::with_options(opts);
            db.put_worker(&WorkerInfoRow {
                node_id: 1,
                cpu_class: 0,
                memory_mb: 1,
                rack: 0,
                slots: 4,
            })
            .unwrap();
            assert_eq!(db.get_worker(1).unwrap().slots, 4);

            for ckpt_id in 0..4u64 {
                db.put_checkpoint(&sample_ckpt(7, ckpt_id)).unwrap();
            }
            let rows = db.checkpoints_of(7).unwrap();
            assert_eq!(rows.len(), 4);
            assert!(rows.windows(2).all(|w| w[0].ckpt_id < w[1].ckpt_id));
            db.delete_checkpoint(7, 0).unwrap();
            assert_eq!(db.checkpoints_of(7).unwrap().len(), 3);
        }
    }

    #[test]
    fn table_stats_count_reads_and_writes() {
        let db = CanaryDb::new(3);
        db.put_worker(&WorkerInfoRow {
            node_id: 1,
            cpu_class: 0,
            memory_mb: 1,
            rack: 0,
            slots: 4,
        })
        .unwrap();
        db.get_worker(1).unwrap();
        db.get_worker(1).unwrap();
        db.put_payload("payload/x", Bytes::from_static(b"hi"))
            .unwrap();
        db.get_payload("payload/x").unwrap();
        db.delete_payload("payload/x").unwrap();

        let stats = db.table_stats();
        assert_eq!(stats.len(), CanaryDb::TABLES.len());
        let worker = stats.iter().find(|s| s.0 == "worker_info").unwrap();
        assert_eq!((worker.1, worker.2), (2, 1));
        let payload = stats.iter().find(|s| s.0 == "payload").unwrap();
        // Deletions count as writes.
        assert_eq!((payload.1, payload.2), (1, 2));
        let job = stats.iter().find(|s| s.0 == "job_info").unwrap();
        assert_eq!((job.1, job.2), (0, 0));
    }

    #[test]
    fn table_stats_are_cache_invariant() {
        let run = |opts: DbOptions| {
            let db = CanaryDb::with_options(opts);
            db.put_job(&sample_job(5)).unwrap();
            for _ in 0..3 {
                db.get_job(5).unwrap();
            }
            for ckpt_id in 0..3u64 {
                db.put_checkpoint(&sample_ckpt(1, ckpt_id)).unwrap();
            }
            for _ in 0..4 {
                db.checkpoints_of(1).unwrap();
            }
            db.table_stats()
        };
        assert_eq!(
            run(DbOptions::fast(3)),
            run(DbOptions {
                cache: false,
                ..DbOptions::fast(3)
            })
        );
    }

    #[test]
    fn cache_hits_and_misses_are_counted() {
        let db = CanaryDb::with_options(DbOptions::fast(3));
        assert_eq!(db.cache_stats(), (0, 0));
        db.put_job(&sample_job(1)).unwrap();
        db.get_job(1).unwrap(); // hit (write-through populated it)
        assert_eq!(db.cache_stats(), (1, 0));
        db.put_function(&FunctionInfoRow {
            fn_id: 9,
            job_id: 1,
            runtime: RuntimeKind::Python,
            node_id: 0,
            status: 1,
        })
        .unwrap();
        db.get_function(9).unwrap(); // hit
        db.checkpoints_of(9).unwrap(); // miss (never read before)
        db.checkpoints_of(9).unwrap(); // hit
        assert_eq!(db.cache_stats(), (3, 1));

        let uncached = CanaryDb::with_options(DbOptions {
            cache: false,
            ..DbOptions::fast(3)
        });
        uncached.put_job(&sample_job(1)).unwrap();
        uncached.get_job(1).unwrap();
        assert_eq!(uncached.cache_stats(), (0, 0));
    }

    #[test]
    fn cached_reads_match_direct_after_interleaved_writes() {
        let cached = CanaryDb::with_options(DbOptions::fast(3));
        let direct = CanaryDb::with_options(DbOptions {
            cache: false,
            ..DbOptions::fast(3)
        });
        for db in [&cached, &direct] {
            for ckpt_id in 0..5u64 {
                db.put_checkpoint(&sample_ckpt(3, ckpt_id)).unwrap();
            }
            db.checkpoints_of(3).unwrap(); // populate (cached case)
            db.delete_checkpoint(3, 1).unwrap();
            db.put_checkpoint(&sample_ckpt(3, 7)).unwrap();
            db.put_checkpoint(&sample_ckpt(3, 2)).unwrap(); // overwrite
        }
        assert_eq!(
            cached.checkpoints_of(3).unwrap(),
            direct.checkpoints_of(3).unwrap()
        );
    }

    #[test]
    fn cache_dropped_on_membership_generation_change() {
        let db = CanaryDb::with_options(DbOptions::fast(3));
        db.put_job(&sample_job(5)).unwrap();
        db.get_job(5).unwrap(); // cache hot
                                // Total outage wipes every member; the rejoined store is empty.
        for node in 0..3 {
            db.kv().fail_node(node).unwrap();
        }
        db.kv().rejoin_empty(0).unwrap();
        // A stale cache would happily serve job 5; the generation bump
        // must force the read through to the (now empty) store.
        assert!(db.get_job(5).is_err());
        assert_eq!(db.checkpoints_of(99).unwrap(), vec![]);
    }

    #[test]
    fn metadata_survives_member_failure() {
        let db = CanaryDb::new(3);
        db.put_job(&sample_job(5)).unwrap();
        db.kv().fail_node(0).unwrap();
        assert_eq!(db.get_job(5).unwrap().invocations, 10);
    }

    #[test]
    fn string_oracle_matches_fast_path() {
        let fast = CanaryDb::with_options(DbOptions::fast(3));
        let oracle = CanaryDb::with_options(DbOptions::string_oracle(3));
        for db in [&fast, &oracle] {
            db.put_job(&sample_job(2)).unwrap();
            for fn_id in [1u64, 2, 300] {
                db.put_function(&FunctionInfoRow {
                    fn_id,
                    job_id: 2,
                    runtime: RuntimeKind::Java,
                    node_id: 4,
                    status: 1,
                })
                .unwrap();
                for ckpt_id in 0..3u64 {
                    db.put_checkpoint(&sample_ckpt(fn_id, ckpt_id)).unwrap();
                }
            }
            db.delete_checkpoint(2, 0).unwrap();
        }
        assert_eq!(fast.get_job(2).unwrap(), oracle.get_job(2).unwrap());
        for fn_id in [1u64, 2, 300] {
            assert_eq!(
                fast.get_function(fn_id).unwrap(),
                oracle.get_function(fn_id).unwrap()
            );
            assert_eq!(
                fast.checkpoints_of(fn_id).unwrap(),
                oracle.checkpoints_of(fn_id).unwrap()
            );
        }
    }
}
