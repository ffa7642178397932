//! The Checkpointing Module (Algorithm 1), incremental edition.
//!
//! Records each completed state of every tracked function: payloads small
//! enough for the KV store's per-entry limit are stored there; larger
//! payloads spill to the fastest available storage tier and only the
//! *location* is pushed to the database (Algorithm 1 lines 4–9). The
//! latest-*n* window (initially 3, dynamically adjusted) evicts the oldest
//! checkpoint (lines 14–16). The paper also flushes checkpoints
//! asynchronously to shared storage so they survive node-level failures
//! (§IV-C.4b). No flushed copy is kept here: a restore after a node loss
//! is priced as a read from [`StorageHierarchy::shared_tier`].
//! Each function's window, ghost base and id counter live in one record
//! (DESIGN.md §14), which a checkpoint enters only once its database
//! commit succeeded.
//!
//! The default storage path is **content-addressed and incremental** (see
//! [`crate::chunk`] and DESIGN.md §14): payloads split into fixed-size
//! chunks, each chunk is stored once under its FNV-1a hash with a
//! refcount, and what lands at the checkpoint's location key is a small
//! *manifest* of chunk hashes delta-encoded against the previous retained
//! checkpoint. An unchanged chunk costs one copy-run entry instead of a
//! re-store. The historical whole-blob path survives as
//! [`CkptOptions::blob_oracle`] — the differential test suite replays
//! identical operation sequences against both and demands byte-identical
//! restores.

use crate::chunk::{
    decode_manifest, encode_manifest_into, fnv1a64, hash_chunks_into, restore_from_manifest,
    sequence_digest, ChunkStats, ChunkStore, ManifestError, PARALLEL_HASH_THRESHOLD,
};
use crate::config::{CanaryConfig, CheckpointMode};
use crate::db::{payload_location, spill_location, CanaryDb, CheckpointInfoRow, DbError};
use bytes::Bytes;
use canary_cluster::{StorageHierarchy, StorageTier};
use canary_sim::{SimDuration, SimTime};
use canary_workloads::Encoder;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// Checkpoint storage-path options.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CkptOptions {
    /// Store whole payload blobs at the location key (the pre-incremental
    /// path). Kept as the differential oracle: identical op sequences
    /// against both paths must restore identical bytes.
    pub blob_oracle: bool,
    /// Fixed chunk size of the content-addressed path.
    pub chunk_size: usize,
}

impl Default for CkptOptions {
    fn default() -> Self {
        CkptOptions {
            blob_oracle: false,
            chunk_size: crate::chunk::DEFAULT_CHUNK_SIZE,
        }
    }
}

/// State blocks in a synthetic checkpoint image (plus one header block).
pub const PAYLOAD_STATE_BLOCKS: u32 = 12;
/// A state block churns every this-many states (staggered by block
/// index), so consecutive checkpoints share most chunks — the
/// delta-friendly shape real incremental-checkpoint systems exploit.
pub const PAYLOAD_CHURN_PERIOD: u32 = 4;

/// Build the checkpoint image for one durable state: a header block
/// (the function's registered state record, zero-padded to the chunk
/// boundary) followed by [`PAYLOAD_STATE_BLOCKS`] synthetic state blocks.
/// Block `i` keeps its exact contents until its next churn state
/// (`(state + i) % PAYLOAD_CHURN_PERIOD == 0`), so under the default
/// period 3 of 12 blocks change per state and the rest dedup away.
/// Deterministic in (fn_id, state_index, billed bytes, time) — the
/// differential suite rebuilds it to check restores byte-for-byte.
pub fn build_payload(
    fn_id: u64,
    state_index: u32,
    billed_bytes: u64,
    now: SimTime,
    block: usize,
) -> Bytes {
    let mut out = Vec::with_capacity(block.max(1) * (PAYLOAD_STATE_BLOCKS as usize + 1));
    build_payload_into(fn_id, state_index, billed_bytes, now, block, &mut out);
    Bytes::from(out)
}

/// [`build_payload`] writing into a caller-owned buffer (cleared first).
/// The record hot path reuses one scratch `Vec` across every checkpoint
/// and copies the finished image into a single refcounted buffer; the
/// bytes are identical to what [`build_payload`] returns.
pub fn build_payload_into(
    fn_id: u64,
    state_index: u32,
    billed_bytes: u64,
    now: SimTime,
    block: usize,
    out: &mut Vec<u8>,
) {
    let block = block.max(1);
    out.clear();
    // Header record, the same wire bytes `Encoder` would produce
    // (plain little-endian fields, no length prefixes).
    out.push(1);
    out.extend_from_slice(&fn_id.to_le_bytes());
    out.extend_from_slice(&state_index.to_le_bytes());
    out.extend_from_slice(&billed_bytes.to_le_bytes());
    out.extend_from_slice(&now.as_micros().to_le_bytes());
    out.resize(out.len().div_ceil(block) * block, 0);
    for i in 1..=PAYLOAD_STATE_BLOCKS {
        // The most recent state at which this block churned; wrapping is
        // fine — every pre-first-churn state maps to the same sentinel.
        let last_churn = state_index.wrapping_sub((state_index + i) % PAYLOAD_CHURN_PERIOD);
        let mut seed = [0u8; 16];
        seed[..8].copy_from_slice(&fn_id.to_le_bytes());
        seed[8..12].copy_from_slice(&i.to_le_bytes());
        seed[12..].copy_from_slice(&last_churn.to_le_bytes());
        let mut s = fnv1a64(&seed) | 1;
        let end = out.len() + block;
        while out.len() < end {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            let bytes = s.to_le_bytes();
            let take = (end - out.len()).min(8);
            out.extend_from_slice(&bytes[..take]);
        }
    }
}

/// One retained checkpoint: where its stored bytes live and, on the
/// chunked path, its resolved manifest — kept in memory for delta-base
/// resolution, refcount release on eviction, and migration pricing.
struct Retained {
    ckpt_id: u64,
    /// Key of the stored payload (blob path) or manifest (chunked path).
    location: Bytes,
    /// Resolved chunk hashes; empty on the blob-oracle path.
    hashes: Vec<u64>,
    /// Chunks (and their bytes) this checkpoint stored that the chunk
    /// store did not already hold.
    new_chunks: u32,
    new_bytes: u64,
    total_bytes: u64,
}

impl Retained {
    /// Fraction of the payload a warm replica lacks (the new-chunk
    /// share) and how many chunks that is: everything moves when there
    /// is no manifest.
    fn delta(&self) -> (f64, u32) {
        if self.hashes.is_empty() {
            return (1.0, 0);
        }
        (
            self.new_bytes as f64 / self.total_bytes as f64,
            self.new_chunks,
        )
    }
}

/// Everything the module keeps for one function.
#[derive(Default)]
struct FnCheckpoints {
    /// The latest-*n* window, oldest first.
    retained: VecDeque<Retained>,
    /// The most recently evicted manifest: the delta base of the oldest
    /// retained checkpoint resolves here. Holds no chunk references.
    ghost: Option<(u64, Vec<u64>)>,
    /// Next checkpoint id. A failed commit spends its id, so ids stay
    /// stable whether or not the store was up.
    next_id: u64,
}

impl FnCheckpoints {
    fn find(&self, ckpt_id: u64) -> Option<&Retained> {
        self.retained.iter().find(|r| r.ckpt_id == ckpt_id)
    }
}

fn tier_ordinal(t: StorageTier) -> u8 {
    match t {
        StorageTier::KvStore => 0,
        StorageTier::Ramdisk => 1,
        StorageTier::Pmem => 2,
        StorageTier::Nfs => 3,
        StorageTier::ObjectStore => 4,
    }
}

fn tier_from_ordinal(v: u8) -> StorageTier {
    match v {
        0 => StorageTier::KvStore,
        1 => StorageTier::Ramdisk,
        2 => StorageTier::Pmem,
        3 => StorageTier::Nfs,
        _ => StorageTier::ObjectStore,
    }
}

/// What a restore will cost and where execution resumes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RestoreInfo {
    /// First state index NOT covered by the checkpoint (resume point).
    pub resume_from_state: u32,
    /// Time to locate and read the checkpoint back.
    pub duration: SimDuration,
    /// Payload size read back.
    pub bytes: u64,
    /// Tier the payload is read from (the shared tier after a node
    /// loss took the local copy down with it).
    pub tier: StorageTier,
}

/// What migrating a function's checkpointed state to a warm replica on a
/// surviving node will cost: only the chunks the replica lacks move.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MigrateInfo {
    /// The checkpoint the replica resumes from.
    pub ckpt_id: u64,
    /// First state index NOT covered by that checkpoint.
    pub resume_from_state: u32,
    /// Probe plus delta-transfer time over the shared tier.
    pub duration: SimDuration,
    /// Bytes actually transferred (the manifest's new-chunk share of the
    /// billed payload; the rest already sits on shared storage the
    /// replica can read).
    pub bytes: u64,
    /// Chunks shipped (the manifest entries the replica lacked).
    pub chunks: u32,
}

/// Outcome of probing the retained window for a usable checkpoint
/// (corruption-aware fallback): `I` is [`RestoreInfo`] for a restore,
/// [`MigrateInfo`] for a migration.
#[derive(Debug, Clone)]
pub struct Lookup<I> {
    /// The usable point, if any retained checkpoint survived probing.
    pub info: Option<I>,
    /// Checkpoint ids skipped as corrupted, newest first.
    pub corrupted: Vec<u64>,
    /// True when the function had at least one retained checkpoint — so
    /// `info == None` means every retained checkpoint was unusable
    /// (fallback to rerun-from-start), not that the function never
    /// checkpointed.
    pub had_checkpoints: bool,
}

/// Outcome of a migration probe.
pub type MigrateLookup = Lookup<MigrateInfo>;

/// The Checkpointing Module.
pub struct CheckpointingModule {
    config: CanaryConfig,
    options: CkptOptions,
    hierarchy: StorageHierarchy,
    db: Arc<CanaryDb>,
    /// Checkpoints retained per function: the latest-*n* window,
    /// initially `config.ckpt_window`, resized by
    /// [`Self::adjust_window_for`].
    window: usize,
    /// Per-function retained checkpoints, ghost base and id counter.
    fns: HashMap<u64, FnCheckpoints>,
    /// Content-addressed chunk bodies (the shared checkpoint-data tier).
    chunks: ChunkStore,
    /// Record-path scratch (DESIGN.md §15): the payload image builds in
    /// `payload_scratch`, the manifest encodes through `manifest_ops` +
    /// `manifest_enc`, and retired manifests donate their hash vectors
    /// back through `hash_pool`. Steady-state checkpointing allocates
    /// only the refcounted buffers it hands out, never this scratch.
    payload_scratch: Vec<u8>,
    manifest_enc: Encoder,
    manifest_ops: Vec<(u8, u32, u64)>,
    hash_pool: Vec<Vec<u64>>,
}

impl CheckpointingModule {
    /// New module over the given database and storage hierarchy, on the
    /// default (content-addressed, incremental) storage path.
    pub fn new(config: CanaryConfig, hierarchy: StorageHierarchy, db: Arc<CanaryDb>) -> Self {
        Self::with_options(config, hierarchy, db, CkptOptions::default())
    }

    /// New module with an explicit storage path (the differential suite
    /// runs chunked and blob-oracle modules side by side).
    pub fn with_options(
        config: CanaryConfig,
        hierarchy: StorageHierarchy,
        db: Arc<CanaryDb>,
        options: CkptOptions,
    ) -> Self {
        config.validate().expect("invalid Canary configuration");
        hierarchy.validate().expect("invalid storage hierarchy");
        CheckpointingModule {
            window: config.ckpt_window,
            config,
            options,
            hierarchy,
            db,
            fns: HashMap::new(),
            chunks: ChunkStore::new(),
            payload_scratch: Vec::new(),
            manifest_enc: Encoder::new(),
            manifest_ops: Vec::new(),
            hash_pool: Vec::new(),
        }
    }

    /// The active storage-path options.
    pub fn options(&self) -> CkptOptions {
        self.options
    }

    /// The metadata database the module writes checkpoints to.
    pub fn db(&self) -> &CanaryDb {
        &self.db
    }

    /// Billed payload size after the checkpoint-mode adjustment: explicit
    /// mode checkpoints only application-marked critical data.
    pub fn effective_bytes(&self, spec_bytes: u64) -> u64 {
        match self.config.checkpoint_mode {
            CheckpointMode::Implicit => spec_bytes,
            CheckpointMode::Explicit => {
                (spec_bytes as f64 * self.config.explicit_size_factor) as u64
            }
        }
    }

    /// The `ckp_i` term of Eq. 2: time to persist one checkpoint of
    /// `spec_bytes`. Pure — the engine uses it when planning attempts.
    pub fn write_cost(&self, spec_bytes: u64) -> SimDuration {
        let bytes = self.effective_bytes(spec_bytes);
        let tier = self.hierarchy.place(bytes);
        // Payload write plus the metadata row in the KV store.
        tier.write_time(bytes) + StorageTier::KvStore.write_time(256)
    }

    /// Record one durable state (Algorithm 1 body). Builds the
    /// deterministic checkpoint image for this state and stores it via
    /// [`Self::record_payload`]. Returns the evicted checkpoint id when
    /// the window overflowed.
    pub fn record(
        &mut self,
        job_id: u32,
        fn_id: u64,
        state_index: u32,
        spec_bytes: u64,
        now: SimTime,
    ) -> Result<Option<u64>, DbError> {
        // A small *real* payload: the function's registered state record
        // plus synthetic state blocks with realistic churn. Sizes are
        // billed through `write_cost`; storing multi-GB synthetic blobs
        // would add nothing but memory pressure. The image builds in the
        // module's scratch buffer and lands in one refcounted copy.
        let mut scratch = std::mem::take(&mut self.payload_scratch);
        build_payload_into(
            fn_id,
            state_index,
            self.effective_bytes(spec_bytes),
            now,
            self.options.chunk_size,
            &mut scratch,
        );
        let payload = Bytes::copy_from_slice(&scratch);
        self.payload_scratch = scratch;
        self.record_payload(job_id, fn_id, state_index, spec_bytes, now, payload)
    }

    /// Record one durable state with a caller-supplied payload image (the
    /// differential suite drives arbitrary payloads through both storage
    /// paths). Exactly one location-keyed database put happens per
    /// checkpoint in either mode — in blob mode the payload itself, in
    /// chunked mode the manifest, while chunk bodies live in the
    /// content-addressed store. The checkpoint enters the window, and its
    /// chunk bodies the store, only once the database commit succeeded: a
    /// failed commit leaves nothing behind but its spent id.
    pub fn record_payload(
        &mut self,
        job_id: u32,
        fn_id: u64,
        state_index: u32,
        spec_bytes: u64,
        now: SimTime,
        payload: Bytes,
    ) -> Result<Option<u64>, DbError> {
        let bytes = self.effective_bytes(spec_bytes);
        let tier = self.hierarchy.place(bytes);
        let f = self.fns.entry(fn_id).or_default();
        let ckpt_id = f.next_id;
        f.next_id += 1;
        // Compact binary location keys fit the `Bytes` inline cap:
        // building and cloning them through the row and the retained
        // record never allocates.
        let location = if tier == StorageTier::KvStore {
            payload_location(fn_id, ckpt_id)
        } else {
            spill_location(tier_ordinal(tier), fn_id, ckpt_id)
        };

        let chunk = self.options.chunk_size.max(1);
        let (stored, hashes) = if self.options.blob_oracle {
            (Bytes::clone(&payload), Vec::new())
        } else {
            // Hash every chunk window up front — fanned out over worker
            // threads for multi-MiB payloads — into a pooled hash vector,
            // and delta-encode the manifest against the newest retained
            // checkpoint.
            let workers = if payload.len() >= PARALLEL_HASH_THRESHOLD {
                std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
            } else {
                1
            };
            let mut hashes = self.hash_pool.pop().unwrap_or_default();
            hash_chunks_into(&payload, chunk, workers, &mut hashes);
            let base = f.retained.back().map(|r| (r.ckpt_id, r.hashes.as_slice()));
            encode_manifest_into(
                ckpt_id,
                base,
                &hashes,
                payload.len() as u64,
                sequence_digest(&hashes),
                &mut self.manifest_ops,
                &mut self.manifest_enc,
            );
            (Bytes::copy_from_slice(self.manifest_enc.encoded()), hashes)
        };
        // The stored buffer moves into the db put, which fans it out to
        // each KV replica as a refcount bump; no stored bytes are copied
        // past this point. The payload and its metadata row group-commit
        // as one store batch — a single write pass with the same WAL
        // record stream as two sequential puts (DESIGN.md §15).
        let committed = self.db.put_checkpoint_with_payload(
            &CheckpointInfoRow {
                ckpt_id,
                job_id,
                fn_id,
                state_index,
                bytes,
                tier: tier_ordinal(tier),
                location: location.clone(),
                created_us: now.as_micros(),
            },
            stored,
        );
        if let Err(e) = committed {
            self.recycle(hashes);
            return Err(e);
        }

        // `slice` shares the payload allocation, so a newly stored chunk
        // body costs a refcount bump, not a copy.
        let (mut new_chunks, mut new_bytes) = (0u32, 0u64);
        for (i, &hash) in hashes.iter().enumerate() {
            let body = payload.slice(i * chunk..((i + 1) * chunk).min(payload.len()));
            let len = body.len() as u64;
            if self.chunks.insert_hashed(hash, body) {
                new_chunks += 1;
                new_bytes += len;
            }
        }
        f.retained.push_back(Retained {
            ckpt_id,
            location,
            hashes,
            new_chunks,
            new_bytes,
            total_bytes: payload.len() as u64,
        });
        let evicted = if f.retained.len() > self.window {
            f.retained.pop_front()
        } else {
            None
        };
        Ok(evicted.map(|old| {
            let id = old.ckpt_id;
            self.evict(fn_id, old);
            id
        }))
    }

    /// Algorithm 1 line 15: remove an evicted checkpoint, keeping its
    /// hash list as the function's ghost base so the (now oldest)
    /// retained manifest keeps decoding.
    fn evict(&mut self, fn_id: u64, old: Retained) {
        let ckpt_id = old.ckpt_id;
        let hashes = self.retire(fn_id, old);
        let displaced = self
            .fns
            .get_mut(&fn_id)
            .and_then(|f| f.ghost.replace((ckpt_id, hashes)));
        if let Some((_, recycled)) = displaced {
            self.recycle(recycled);
        }
    }

    /// Delete a checkpoint's row and stored bytes and release its chunk
    /// references; returns its hash list. The database deletes are best
    /// effort — a store outage during cleanup only leaks rows (lost with
    /// the outage anyway) and must not wedge the caller.
    fn retire(&mut self, fn_id: u64, old: Retained) -> Vec<u64> {
        let _ = self.db.delete_checkpoint(fn_id, old.ckpt_id);
        let _ = self.db.delete_payload(&old.location);
        for &hash in &old.hashes {
            self.chunks.release(hash);
        }
        old.hashes
    }

    /// Return a retired hash vector to the record-path scratch pool. The
    /// cap bounds idle memory, but must comfortably exceed the number of
    /// functions completing between arrivals of new ones — a completed
    /// function returns its whole window's vectors at once, and the next
    /// function's ramp-up (its first `window` records, before it retires
    /// anything of its own) draws purely from this pool. Each vector is a
    /// few hundred bytes of chunk hashes, so the cap costs ~1 MiB parked.
    fn recycle(&mut self, mut hashes: Vec<u64>) {
        if self.hash_pool.len() < 4096 {
            hashes.clear();
            self.hash_pool.push(hashes);
        }
    }

    /// Resolve a manifest delta base to its hash list: retained window
    /// first, then the ghost of the most recently evicted checkpoint.
    fn resolve_base(&self, fn_id: u64, base: u64) -> Option<Vec<u64>> {
        let f = self.fns.get(&fn_id)?;
        match f.find(base) {
            Some(r) => Some(r.hashes.clone()),
            None => f
                .ghost
                .as_ref()
                .filter(|(id, _)| *id == base)
                .map(|(_, hashes)| hashes.clone()),
        }
    }

    /// Checkpoint stride (§I: Canary "adjusts the checkpointing
    /// frequency"): the number of states per checkpoint that keeps the
    /// checkpoint overhead below `max_ckpt_overhead_ratio` of execution.
    /// Returns 1 (checkpoint every state) for cheap payloads; grows for
    /// payloads whose write cost dominates short states. Pure.
    pub fn stride_for(&self, state_exec: SimDuration, ckpt_bytes: u64) -> u32 {
        let cost = self.write_cost(ckpt_bytes).as_secs_f64();
        let budget = state_exec.as_secs_f64() * self.config.max_ckpt_overhead_ratio;
        if budget <= 0.0 {
            return 1;
        }
        (cost / budget).ceil().max(1.0) as u32
    }

    /// Is state `state_idx` a checkpoint boundary under the stride? The
    /// stride counts completed states, so every `stride`-th completion
    /// (1-based) checkpoints.
    pub fn is_checkpoint_state(&self, state_idx: u32, stride: u32) -> bool {
        stride <= 1 || (state_idx + 1).is_multiple_of(stride)
    }

    /// Restore plan for a failed function: the newest usable retained
    /// checkpoint, read back in full. `node_lost` selects the
    /// shared-storage path (the node-local fast tier died with the node).
    /// `info` is `None` when no retained checkpoint is usable (restart
    /// from state 0 with no restore cost).
    pub fn restore_lookup(
        &self,
        fn_id: u64,
        node_lost: bool,
        is_corrupt: &dyn Fn(u64) -> bool,
    ) -> Lookup<RestoreInfo> {
        self.probe(fn_id, is_corrupt, |_, row, probe_cost| {
            let tier = tier_from_ordinal(row.tier);
            let read_tier = if node_lost && !tier.is_shared() {
                // The local copy died with the node; price the read
                // from the shared tier.
                self.hierarchy.shared_tier
            } else {
                tier
            };
            RestoreInfo {
                resume_from_state: row.state_index + 1,
                duration: probe_cost + read_tier.read_time(row.bytes),
                bytes: row.bytes,
                tier: read_tier,
            }
        })
    }

    /// Migration plan: the same probe as [`Self::restore_lookup`], but
    /// the chosen checkpoint is priced as a *delta* transfer — only the
    /// chunks the warm replica lacks (the manifest's new-chunk share;
    /// everything else is already on shared storage it can read) move
    /// over the shared tier. In blob-oracle mode the full payload moves,
    /// so migration degenerates to the rerun-from-checkpoint read cost.
    pub fn migrate_lookup(&self, fn_id: u64, is_corrupt: &dyn Fn(u64) -> bool) -> MigrateLookup {
        self.probe(fn_id, is_corrupt, |rec, row, probe_cost| {
            let (ratio, chunks) = rec.delta();
            let bytes = ((row.bytes as f64) * ratio).max(1.0) as u64;
            MigrateInfo {
                ckpt_id: rec.ckpt_id,
                resume_from_state: row.state_index + 1,
                duration: probe_cost + self.hierarchy.shared_tier.read_time(bytes),
                bytes,
                chunks,
            }
        })
    }

    /// Walk the retained window from the newest checkpoint towards the
    /// oldest, skipping checkpoints the `is_corrupt` oracle flags and
    /// checkpoints whose database rows were lost (e.g. to a total store
    /// outage), and `price` the first usable one. Each probe pays a KV
    /// metadata lookup, passed to `price` as the accumulated probe cost.
    fn probe<I>(
        &self,
        fn_id: u64,
        is_corrupt: &dyn Fn(u64) -> bool,
        price: impl Fn(&Retained, &CheckpointInfoRow, SimDuration) -> I,
    ) -> Lookup<I> {
        let f = self.fns.get(&fn_id);
        let mut lookup = Lookup {
            info: None,
            corrupted: Vec::new(),
            had_checkpoints: f.is_some_and(|f| !f.retained.is_empty()),
        };
        // A store outage makes the rows unreadable; treat that like rows
        // lost (data may come back after a rejoin, but a recovery in
        // flight right now cannot wait for it).
        let rows = self.db.checkpoints_of(fn_id).unwrap_or_default();
        let mut probe_cost = SimDuration::ZERO;
        for rec in f.into_iter().flat_map(|f| f.retained.iter().rev()) {
            probe_cost += StorageTier::KvStore.read_time(256);
            if is_corrupt(rec.ckpt_id) {
                lookup.corrupted.push(rec.ckpt_id);
            } else if let Some(row) = rows.iter().find(|r| r.ckpt_id == rec.ckpt_id) {
                lookup.info = Some(price(rec, row, probe_cost));
                break;
            }
        }
        lookup
    }

    /// Decode stored location bytes and reassemble the payload: in
    /// chunked mode that means manifest decode (window + ghost base
    /// resolution) plus per-chunk hash-verified reads. Every failure mode
    /// is a typed [`ManifestError`]; wrong bytes are unrepresentable.
    pub fn restore_stored(&self, fn_id: u64, stored: &[u8]) -> Result<Bytes, ManifestError> {
        let manifest = decode_manifest(stored, |base| self.resolve_base(fn_id, base))?;
        restore_from_manifest(&manifest, &self.chunks)
    }

    /// Restore the actual payload bytes of the newest usable retained
    /// checkpoint, walking newest→oldest past checkpoints the oracle
    /// flags, checkpoints whose stored bytes are gone, and — in chunked
    /// mode — checkpoints whose manifests fail to decode or whose chunks
    /// fail hash verification. A corrupted chunk therefore invalidates
    /// exactly the checkpoints referencing it. Returns the checkpoint id
    /// and its byte-exact payload.
    pub fn restore_payload(
        &self,
        fn_id: u64,
        is_corrupt: &dyn Fn(u64) -> bool,
    ) -> Option<(u64, Bytes)> {
        let f = self.fns.get(&fn_id)?;
        f.retained
            .iter()
            .rev()
            .filter(|r| !is_corrupt(r.ckpt_id))
            .find_map(|r| {
                let stored = self.db.get_payload(&r.location).ok()?;
                if self.options.blob_oracle {
                    return Some((r.ckpt_id, stored));
                }
                let payload = self.restore_stored(fn_id, &stored).ok()?;
                Some((r.ckpt_id, payload))
            })
    }

    /// Chunk-store access (corruption injection and refcount tie-outs in
    /// the differential and fuzz suites).
    pub fn chunk_store(&self) -> &ChunkStore {
        &self.chunks
    }

    /// Mutable chunk-store access (test-side fault injection).
    pub fn chunk_store_mut(&mut self) -> &mut ChunkStore {
        &mut self.chunks
    }

    /// Lifetime chunk dedup statistics.
    pub fn chunk_stats(&self) -> ChunkStats {
        self.chunks.stats()
    }

    /// A retained checkpoint's resolved manifest (empty when the module
    /// runs blob-style).
    fn manifest(&self, fn_id: u64, ckpt_id: u64) -> Option<&[u64]> {
        Some(&self.fns.get(&fn_id)?.find(ckpt_id)?.hashes)
    }

    /// The resolved chunk hashes of a retained checkpoint (corruption
    /// targeting in tests).
    pub fn chunk_hashes(&self, fn_id: u64, ckpt_id: u64) -> Option<Vec<u64>> {
        self.manifest(fn_id, ckpt_id).map(<[u64]>::to_vec)
    }

    /// Number of chunks in a retained checkpoint's manifest (`0` when the
    /// checkpoint is unknown or the module runs blob-style).
    pub fn chunk_count(&self, fn_id: u64, ckpt_id: u64) -> u32 {
        self.manifest(fn_id, ckpt_id).map_or(0, |h| h.len() as u32)
    }

    /// Land a chaos-drawn corruption on the physical chunk at position
    /// `chunk_idx` of a retained checkpoint's manifest: flips one bit in
    /// the stored body, so byte-level restores fail verification for
    /// exactly the checkpoints whose manifests reference that chunk.
    /// Returns the corrupted chunk's hash.
    pub fn corrupt_ckpt_chunk(&mut self, fn_id: u64, ckpt_id: u64, chunk_idx: u32) -> Option<u64> {
        let hash = *self.manifest(fn_id, ckpt_id)?.get(chunk_idx as usize)?;
        self.chunks
            .corrupt_chunk(hash, chunk_idx as usize)
            .then_some(hash)
    }

    /// Number of checkpoints currently retained for `fn_id`.
    pub fn retained(&self, fn_id: u64) -> usize {
        self.fns.get(&fn_id).map_or(0, |f| f.retained.len())
    }

    /// Tier a checkpoint of `spec_bytes` lands on (for trace events).
    /// Pure, mirroring the placement done by [`Self::record`].
    pub fn placement_tier(&self, spec_bytes: u64) -> StorageTier {
        self.hierarchy.place(self.effective_bytes(spec_bytes))
    }

    /// Dynamic window adjustment (§IV-C.4b): very large checkpoints shrink
    /// the retained window (data volume), very frequent small states grow
    /// it (state frequency). Shrinking evicts at once, function by
    /// function in id order so the WAL sees the same deletes on every
    /// run; growing keeps every retained checkpoint.
    pub fn adjust_window_for(&mut self, spec_bytes: u64, num_states: usize) {
        let bytes = self.effective_bytes(spec_bytes);
        let target = if bytes > self.hierarchy.kv_entry_limit {
            2
        } else if num_states >= 40 {
            5
        } else {
            self.config.ckpt_window
        };
        let shrinks = target < self.window;
        self.window = target;
        if !shrinks {
            return;
        }
        let mut over: Vec<u64> = self
            .fns
            .iter()
            .filter(|(_, f)| f.retained.len() > target)
            .map(|(&fn_id, _)| fn_id)
            .collect();
        over.sort_unstable();
        for fn_id in over {
            while let Some(old) = self
                .fns
                .get_mut(&fn_id)
                .filter(|f| f.retained.len() > target)
                .and_then(|f| f.retained.pop_front())
            {
                self.evict(fn_id, old);
            }
        }
    }

    /// Current window size.
    pub fn window_size(&self) -> usize {
        self.window
    }

    /// A function completed: drop its checkpoints and bookkeeping
    /// (database deletes are best effort, as on eviction).
    pub fn forget(&mut self, fn_id: u64) -> Result<(), DbError> {
        let Some(f) = self.fns.remove(&fn_id) else {
            return Ok(());
        };
        for old in f.retained {
            let hashes = self.retire(fn_id, old);
            self.recycle(hashes);
        }
        if let Some((_, ghost)) = f.ghost {
            self.recycle(ghost);
        }
        Ok(())
    }

    /// Does nothing: no checkpoint is flushed asynchronously, so there
    /// is nothing to wait for. Kept for callers that still call it.
    pub fn flush_barrier(&self) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    fn module() -> CheckpointingModule {
        CheckpointingModule::new(
            CanaryConfig::default(),
            StorageHierarchy::default(),
            Arc::new(CanaryDb::new(3)),
        )
    }

    /// Chunk references held by the manifests of `fn_id`'s checkpoints
    /// `ids` (unknown ids hold none).
    fn manifest_refs(m: &CheckpointingModule, fn_id: u64, ids: std::ops::Range<u64>) -> u64 {
        ids.filter_map(|id| m.chunk_hashes(fn_id, id))
            .map(|h| h.len() as u64)
            .sum()
    }

    #[test]
    fn small_checkpoints_stay_in_kv() {
        let mut m = module();
        m.record(0, 1, 0, 64 * 1024, SimTime::ZERO).unwrap();
        let rows = m.db.checkpoints_of(1).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(tier_from_ordinal(rows[0].tier), StorageTier::KvStore);
        assert_eq!(rows[0].location[0], crate::db::TAG_PAYLOAD);
        assert_eq!(rows[0].location, payload_location(1, 0));
        assert!(m.db.get_payload(&rows[0].location).is_ok());
    }

    #[test]
    fn large_checkpoints_spill() {
        let mut m = module();
        // ResNet50-sized checkpoint.
        m.record(0, 2, 0, 98 * 1024 * 1024, SimTime::ZERO).unwrap();
        let rows = m.db.checkpoints_of(2).unwrap();
        assert_eq!(tier_from_ordinal(rows[0].tier), StorageTier::Pmem);
        assert_eq!(rows[0].location[0], crate::db::TAG_SPILL);
        assert_eq!(
            rows[0].location,
            spill_location(tier_ordinal(StorageTier::Pmem), 2, 0)
        );
    }

    #[test]
    fn window_evicts_oldest_and_cleans_db() {
        let mut m = module();
        for s in 0..5u32 {
            let evicted = m
                .record(0, 3, s, 1024, SimTime::from_micros(s as u64))
                .unwrap();
            assert_eq!(evicted.is_some(), s >= 3);
        }
        let rows = m.db.checkpoints_of(3).unwrap();
        assert_eq!(rows.len(), 3, "only the window survives in the db");
        assert_eq!(rows[0].state_index, 2);
        let info = m.restore_lookup(3, false, &|_| false).info.unwrap();
        assert_eq!(info.resume_from_state, 5);
    }

    #[test]
    fn restore_resumes_after_latest_state() {
        let mut m = module();
        for s in 0..4u32 {
            m.record(0, 4, s, 2048, SimTime::ZERO).unwrap();
        }
        let info = m.restore_lookup(4, false, &|_| false).info.unwrap();
        assert_eq!(info.resume_from_state, 4);
        assert!(info.duration > SimDuration::ZERO);
    }

    #[test]
    fn restore_without_checkpoint_is_none() {
        let m = module();
        let lookup = m.restore_lookup(99, false, &|_| false);
        assert!(lookup.info.is_none() && !lookup.had_checkpoints);
    }

    #[test]
    fn node_loss_reads_from_shared_tier_slower() {
        let mut m = module();
        m.record(0, 5, 0, 98 * 1024 * 1024, SimTime::ZERO).unwrap();
        let local = m.restore_lookup(5, false, &|_| false).info.unwrap();
        let shared = m.restore_lookup(5, true, &|_| false).info.unwrap();
        assert!(
            shared.duration > local.duration,
            "shared-storage restore must be slower than pmem"
        );
        assert_eq!(shared.resume_from_state, local.resume_from_state);
    }

    #[test]
    fn explicit_mode_shrinks_payload_and_cost() {
        let implicit = module();
        let cfg = CanaryConfig {
            checkpoint_mode: CheckpointMode::Explicit,
            ..Default::default()
        };
        let explicit =
            CheckpointingModule::new(cfg, StorageHierarchy::default(), Arc::new(CanaryDb::new(1)));
        let bytes = 10 * 1024 * 1024;
        assert!(explicit.effective_bytes(bytes) < implicit.effective_bytes(bytes));
        assert!(explicit.write_cost(bytes) < implicit.write_cost(bytes));
    }

    #[test]
    fn write_cost_monotone() {
        let m = module();
        assert!(m.write_cost(100 * 1024 * 1024) > m.write_cost(1024));
    }

    #[test]
    fn forget_cleans_everything() {
        let mut m = module();
        for s in 0..3u32 {
            m.record(0, 6, s, 1024, SimTime::ZERO).unwrap();
        }
        m.forget(6).unwrap();
        assert!(m.db.checkpoints_of(6).unwrap().is_empty());
        assert_eq!(m.retained(6), 0);
        let lookup = m.restore_lookup(6, false, &|_| false);
        assert!(lookup.info.is_none() && !lookup.had_checkpoints);
    }

    #[test]
    fn payload_buffer_is_shared_not_copied() {
        let mut m = module();
        m.record(0, 11, 0, 64 * 1024, SimTime::ZERO).unwrap();
        let row = &m.db.checkpoints_of(11).unwrap()[0];
        let stored = m.db.get_payload(&row.location).unwrap();
        // With member 0 gone the read is served by member 1, whose copy
        // is the same underlying allocation — the record path never
        // duplicated the stored bytes per replica.
        m.db.kv().fail_node(0).unwrap();
        let replica = m.db.get_payload(&row.location).unwrap();
        assert_eq!(stored, replica);
        assert_eq!(
            stored.as_ptr(),
            replica.as_ptr(),
            "stored bytes were deep-copied between replicas"
        );
    }

    #[test]
    fn window_adjustment_reacts_to_size_and_frequency() {
        let mut m = module();
        assert_eq!(m.window_size(), 3);
        m.adjust_window_for(100 * 1024 * 1024, 50); // huge payloads
        assert_eq!(m.window_size(), 2);
        m.adjust_window_for(1024, 50); // small + frequent
        assert_eq!(m.window_size(), 5);
        m.adjust_window_for(1024, 10); // back to default
        assert_eq!(m.window_size(), 3);
    }

    #[test]
    fn stride_adapts_to_overhead() {
        let m = module();
        // Cheap checkpoint, long state: checkpoint every state.
        assert_eq!(m.stride_for(SimDuration::from_secs(12), 1024), 1);
        // ResNet50-sized checkpoint on a 12 s epoch still fits the 10%
        // budget (pmem write ≈ 50 ms).
        assert_eq!(
            m.stride_for(SimDuration::from_secs(12), 98 * 1024 * 1024),
            1
        );
        // The same payload on a 100 ms state blows the budget: stride up.
        let stride = m.stride_for(SimDuration::from_millis(100), 98 * 1024 * 1024);
        assert!(stride > 1, "stride {stride}");
        // Monotone: bigger payloads never lower the stride.
        assert!(m.stride_for(SimDuration::from_millis(100), 200 * 1024 * 1024) >= stride);
    }

    #[test]
    fn checkpoint_boundaries_follow_stride() {
        let m = module();
        // Stride 1: every state checkpoints.
        assert!((0..5).all(|i| m.is_checkpoint_state(i, 1)));
        // Stride 3: states 2, 5, 8, ... checkpoint.
        let hits: Vec<u32> = (0..9).filter(|&i| m.is_checkpoint_state(i, 3)).collect();
        assert_eq!(hits, vec![2, 5, 8]);
    }

    #[test]
    fn corrupted_latest_falls_back_to_previous_checkpoint() {
        let mut m = module();
        for s in 0..4u32 {
            m.record(0, 10, s, 2048, SimTime::ZERO).unwrap();
        }
        // Window of 3 retains ckpts 1..=3 (states 1..=3); corrupt the
        // newest (ckpt 3).
        let clean = m.restore_lookup(10, false, &|_| false);
        assert_eq!(clean.info.unwrap().resume_from_state, 4);
        let fb = m.restore_lookup(10, false, &|c| c == 3);
        let info = fb.info.unwrap();
        assert_eq!(info.resume_from_state, 3, "must resume from n-1");
        assert_eq!(fb.corrupted, vec![3]);
        assert!(
            info.duration > clean.info.unwrap().duration,
            "the extra probe must cost restore time"
        );
    }

    #[test]
    fn all_corrupted_falls_back_to_rerun() {
        let mut m = module();
        for s in 0..4u32 {
            m.record(0, 11, s, 2048, SimTime::ZERO).unwrap();
        }
        let fb = m.restore_lookup(11, false, &|_| true);
        assert!(fb.info.is_none(), "no usable checkpoint remains");
        assert!(fb.had_checkpoints, "this is a fallback, not a fresh fn");
        assert_eq!(fb.corrupted.len(), 3, "every retained ckpt was probed");
        // A function that never checkpointed is distinguishable.
        let fresh = m.restore_lookup(99, false, &|_| true);
        assert!(fresh.info.is_none() && !fresh.had_checkpoints);
    }

    #[test]
    fn lost_db_rows_fall_back_like_corruption() {
        let mut m = module();
        for s in 0..3u32 {
            m.record(0, 12, s, 2048, SimTime::ZERO).unwrap();
        }
        // A total store outage wipes every row; the window metadata alone
        // cannot restore anything.
        for member in 0..3 {
            m.db.kv().fail_node(member).unwrap();
        }
        m.db.kv().rejoin_empty(0).unwrap();
        let fb = m.restore_lookup(12, false, &|_| false);
        assert!(fb.info.is_none());
        assert!(fb.had_checkpoints);
        assert!(fb.corrupted.is_empty(), "rows are lost, not corrupted");
    }

    #[test]
    fn retention_still_prunes_to_window_under_corruption_probing() {
        let mut m = module();
        for s in 0..10u32 {
            m.record(0, 13, s, 2048, SimTime::ZERO).unwrap();
            // Interleave corruption-heavy probing with writes.
            let _ = m.restore_lookup(13, false, &|c| c.is_multiple_of(2));
        }
        assert_eq!(m.retained(13), 3, "window must keep pruning to n");
        assert_eq!(m.db.checkpoints_of(13).unwrap().len(), 3);
    }

    fn oracle_module() -> CheckpointingModule {
        CheckpointingModule::with_options(
            CanaryConfig::default(),
            StorageHierarchy::default(),
            Arc::new(CanaryDb::new(3)),
            CkptOptions {
                blob_oracle: true,
                ..Default::default()
            },
        )
    }

    #[test]
    fn chunked_restore_matches_blob_oracle() {
        let mut chunked = module();
        let mut blob = oracle_module();
        assert!(!chunked.options().blob_oracle && blob.options().blob_oracle);
        for s in 0..6u32 {
            let now = SimTime::from_micros(s as u64 * 1000);
            chunked.record(0, 21, s, 64 * 1024, now).unwrap();
            blob.record(0, 21, s, 64 * 1024, now).unwrap();
        }
        let (cid, cbytes) = chunked.restore_payload(21, &|_| false).unwrap();
        let (bid, bbytes) = blob.restore_payload(21, &|_| false).unwrap();
        assert_eq!(cid, bid);
        assert_eq!(cbytes, bbytes, "restores must be byte-identical");
    }

    #[test]
    fn consecutive_checkpoints_dedup_unchanged_chunks() {
        let mut m = module();
        for s in 0..8u32 {
            m.record(0, 22, s, 4096, SimTime::ZERO).unwrap();
        }
        let stats = m.chunk_stats();
        assert!(stats.deduped > stats.written, "most chunks must dedup");
        let logical = stats.bytes_written + stats.bytes_deduped;
        assert!(
            logical >= 2 * stats.bytes_written,
            "churn shape must yield at least 2x dedup: {stats:?}"
        );
    }

    #[test]
    fn corrupted_chunk_invalidates_exactly_referencing_checkpoints() {
        let mut m = module();
        for s in 0..4u32 {
            m.record(0, 30, s, 2048, SimTime::from_micros(s as u64))
                .unwrap();
        }
        // Retained ckpts 1..=3. The newest's header chunk is unique to it.
        let h3 = m.chunk_hashes(30, 3).unwrap();
        let h2 = m.chunk_hashes(30, 2).unwrap();
        let h1 = m.chunk_hashes(30, 1).unwrap();
        let unique = h3
            .iter()
            .find(|h| !h2.contains(h) && !h1.contains(h))
            .copied()
            .unwrap();
        assert!(m.chunk_store_mut().corrupt_chunk(unique, 9));
        let (id, bytes) = m.restore_payload(30, &|_| false).unwrap();
        assert_eq!(id, 2, "only the referencing checkpoint is invalidated");
        let expect = build_payload(30, 2, 2048, SimTime::from_micros(2), 64);
        assert_eq!(bytes, expect, "fallback restore is byte-exact");
    }

    #[test]
    fn ghost_base_keeps_oldest_retained_manifest_decodable() {
        let mut m = module();
        for s in 0..5u32 {
            m.record(0, 31, s, 2048, SimTime::ZERO).unwrap();
        }
        // Ckpts 2..=4 retained; ckpt 2's delta base (ckpt 1) was evicted
        // and survives only as the ghost hash list.
        let (id, bytes) = m.restore_payload(31, &|c| c >= 3).unwrap();
        assert_eq!(id, 2);
        assert_eq!(bytes, build_payload(31, 2, 2048, SimTime::ZERO, 64));
    }

    #[test]
    fn refcounts_tie_out_and_forget_empties_store() {
        let mut m = module();
        for fn_id in [40u64, 41] {
            for s in 0..6u32 {
                m.record(0, fn_id, s, 1024, SimTime::ZERO).unwrap();
            }
        }
        // Six records under a window of 3 retain ckpts 3..=5 per function.
        let both = manifest_refs(&m, 40, 3..6) + manifest_refs(&m, 41, 3..6);
        assert_eq!(m.chunk_store().total_refs(), both);
        m.forget(40).unwrap();
        assert_eq!(m.chunk_store().total_refs(), manifest_refs(&m, 41, 3..6));
        m.forget(41).unwrap();
        assert!(m.chunk_store().is_empty(), "all refs released, no bodies");
    }

    #[test]
    fn failed_commit_leaves_only_its_spent_id() {
        let mut m = module();
        let held = |m: &CheckpointingModule| -> Vec<u64> {
            (0..10)
                .filter(|&id| m.chunk_hashes(60, id).is_some())
                .collect()
        };
        for s in 0..2u32 {
            m.record(0, 60, s, 2048, SimTime::ZERO).unwrap();
        }
        // A total store outage fails the group commit of ckpt 2.
        for member in 0..3 {
            m.db.kv().fail_node(member).unwrap();
        }
        assert!(m.record(0, 60, 2, 2048, SimTime::ZERO).is_err());
        m.db.kv().rejoin_empty(0).unwrap();
        assert_eq!(
            m.chunk_hashes(60, 2),
            None,
            "a failed commit keeps no manifest"
        );
        assert_eq!(held(&m), vec![0, 1]);
        assert_eq!(m.chunk_store().total_refs(), manifest_refs(&m, 60, 0..2));
        // Ckpt 2's id stays spent: the next records take ids 3..=9.
        for s in 3..10u32 {
            m.record(0, 60, s, 2048, SimTime::ZERO).unwrap();
        }
        assert_eq!(held(&m), vec![7, 8, 9]);
        assert_eq!(m.retained(60), 3);
        assert_eq!(m.chunk_store().total_refs(), manifest_refs(&m, 60, 7..10));
        m.forget(60).unwrap();
        assert!(m.chunk_store().is_empty(), "all refs released, no bodies");
    }

    #[test]
    fn migration_delta_is_cheaper_than_rerun_restore() {
        let mut m = module();
        for s in 0..4u32 {
            m.record(0, 50, s, 98 * 1024 * 1024, SimTime::ZERO).unwrap();
        }
        let rerun = m.restore_lookup(50, true, &|_| false).info.unwrap();
        let mig = m.migrate_lookup(50, &|_| false).info.unwrap();
        assert_eq!(mig.resume_from_state, rerun.resume_from_state);
        assert!(mig.bytes < rerun.bytes, "only the delta moves");
        assert!(mig.chunks > 0);
        assert!(
            mig.duration < rerun.duration,
            "delta transfer must beat the full shared-tier read"
        );
        // The blob oracle has no delta: migration degenerates to the full
        // read and the speedup disappears.
        let mut b = oracle_module();
        for s in 0..4u32 {
            b.record(0, 50, s, 98 * 1024 * 1024, SimTime::ZERO).unwrap();
        }
        let bmig = b.migrate_lookup(50, &|_| false).info.unwrap();
        let brerun = b.restore_lookup(50, true, &|_| false).info.unwrap();
        assert_eq!(bmig.duration, brerun.duration);
    }

    #[test]
    fn migrate_lookup_skips_corrupted_checkpoints() {
        let mut m = module();
        for s in 0..4u32 {
            m.record(0, 51, s, 2048, SimTime::ZERO).unwrap();
        }
        let mig = m.migrate_lookup(51, &|c| c == 3);
        let info = mig.info.unwrap();
        assert_eq!(info.resume_from_state, 3, "never resurrect a corrupt ckpt");
        assert_eq!(mig.corrupted, vec![3]);
        let all_bad = m.migrate_lookup(51, &|_| true);
        assert!(all_bad.info.is_none() && all_bad.had_checkpoints);
    }
}
