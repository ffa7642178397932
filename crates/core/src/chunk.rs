//! Content-addressed checkpoint chunks and delta manifests.
//!
//! The incremental checkpoint path splits every payload into fixed-size
//! chunks, hashes each with FNV-1a, and stores chunk bodies exactly once
//! in a refcounted [`ChunkStore`] under `chunk/<hash>` keys — the model
//! of the shared storage tier that holds checkpoint data, while the
//! metadata database keeps only the (much smaller) manifests. A
//! [`Manifest`] records the checkpoint's chunk-hash sequence
//! delta-encoded against the previous retained checkpoint: an unchanged
//! chunk costs one `Copy` run entry instead of a re-store.
//!
//! Corruption is chunk-granular: a flipped bit in one chunk body fails
//! hash verification for exactly the checkpoints whose manifests
//! reference that chunk, and restore falls back to the next older
//! manifest. Every decode error is typed ([`ManifestError`]) — the fuzz
//! suite pins that no manifest or chunk damage can panic or produce a
//! wrong-bytes restore.

use bytes::Bytes;
use canary_workloads::{CodecError, Decoder, Encoder};
use std::collections::HashMap;
use std::fmt;

/// Default fixed chunk size. Small enough that the synthetic state
/// images the engine checkpoints split into a meaningful number of
/// chunks; block-aligned payloads dedup perfectly at this granularity.
pub const DEFAULT_CHUNK_SIZE: usize = 64;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a, 64-bit. `const fn` so hashes of static data can be computed
/// at compile time; the same function hashes every chunk body at
/// runtime (store key, dedup identity, and read-back verification).
pub const fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = FNV_OFFSET;
    let mut i = 0;
    while i < bytes.len() {
        hash ^= bytes[i] as u64;
        hash = hash.wrapping_mul(FNV_PRIME);
        i += 1;
    }
    hash
}

/// [`fnv1a64`] of four equal-length slices at once. Each hash is a serial
/// xor-multiply chain, so four independent chains keep the multiplier
/// busy where one waits on its own previous step.
fn fnv1a64_x4(lanes: [&[u8]; 4]) -> [u64; 4] {
    let [a, b, c, d] = lanes;
    let mut hash = [FNV_OFFSET; 4];
    for (((&a, &b), &c), &d) in a.iter().zip(b).zip(c).zip(d) {
        for (h, byte) in hash.iter_mut().zip([a, b, c, d]) {
            *h = (*h ^ byte as u64).wrapping_mul(FNV_PRIME);
        }
    }
    hash
}

/// FNV-1a over a chunk-hash sequence (each hash contributing its
/// little-endian bytes in payload order). This is the manifest's
/// `payload_digest`: it commits to *which* chunks appear and in *what
/// order*, at O(chunks) cost instead of O(payload bytes). Content
/// integrity is already carried by the per-chunk hashes themselves
/// ([`ChunkStore::get_verified`] recomputes each body's FNV on read),
/// so digesting the hash sequence protects exactly the part per-chunk
/// verification cannot: a damaged op list that still decodes but
/// resolves to the wrong chunks or the wrong order.
pub fn sequence_digest(hashes: &[u64]) -> u64 {
    let mut hash = FNV_OFFSET;
    for h in hashes {
        for b in h.to_le_bytes() {
            hash ^= b as u64;
            hash = hash.wrapping_mul(FNV_PRIME);
        }
    }
    hash
}

/// Chunk-store errors (read path).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChunkError {
    /// No chunk stored under this hash (dangling manifest entry).
    Missing {
        /// The dangling hash.
        hash: u64,
    },
    /// The stored body no longer hashes to its key (bit rot / injected
    /// corruption).
    Corrupt {
        /// The hash the body was stored under.
        hash: u64,
    },
}

impl fmt::Display for ChunkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChunkError::Missing { hash } => write!(f, "chunk {:016x} missing", hash),
            ChunkError::Corrupt { hash } => {
                write!(f, "chunk {:016x} fails hash verification", hash)
            }
        }
    }
}

impl std::error::Error for ChunkError {}

/// Lifetime dedup statistics of a [`ChunkStore`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChunkStats {
    /// Chunk bodies physically stored (first reference).
    pub written: u64,
    /// Chunk references satisfied by an already-stored body.
    pub deduped: u64,
    /// Bytes physically stored.
    pub bytes_written: u64,
    /// Bytes *not* re-stored thanks to dedup.
    pub bytes_deduped: u64,
}

struct ChunkEntry {
    body: Bytes,
    refs: u64,
}

/// Identity `BuildHasher` for maps keyed by FNV-1a hashes: the keys are
/// already uniformly distributed 64-bit hashes, so feeding them through
/// SipHash again costs more than the table probe it guards. The record
/// path does a few dozen chunk-map operations per checkpoint.
#[derive(Clone, Copy, Default)]
pub struct HashIdentity(u64);

impl std::hash::Hasher for HashIdentity {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ b as u64;
        }
    }
    fn write_u64(&mut self, v: u64) {
        self.0 = v;
    }
}

impl std::hash::BuildHasher for HashIdentity {
    type Hasher = HashIdentity;
    fn build_hasher(&self) -> HashIdentity {
        HashIdentity(0)
    }
}

/// Refcounted content-addressed chunk storage.
///
/// Each retained manifest owns one reference per chunk *occurrence* it
/// lists; releases mirror that exactly, so a body is dropped at the
/// moment the last manifest referencing it leaves the retention window.
#[derive(Default)]
pub struct ChunkStore {
    chunks: HashMap<u64, ChunkEntry, HashIdentity>,
    stats: ChunkStats,
}

impl ChunkStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Store one chunk body (or bump the refcount of the identical body
    /// already present). Returns `(hash, newly_stored)`.
    pub fn insert(&mut self, body: Bytes) -> (u64, bool) {
        let hash = fnv1a64(&body);
        (hash, self.insert_hashed(hash, body))
    }

    /// [`Self::insert`] with the hash already computed (the record path
    /// hashes all chunks up front, so the store must not hash a second
    /// time). Returns `newly_stored`.
    pub fn insert_hashed(&mut self, hash: u64, body: Bytes) -> bool {
        debug_assert_eq!(fnv1a64(&body), hash, "precomputed chunk hash mismatch");
        match self.chunks.get_mut(&hash) {
            Some(entry) => {
                entry.refs += 1;
                self.stats.deduped += 1;
                self.stats.bytes_deduped += body.len() as u64;
                false
            }
            None => {
                self.stats.written += 1;
                self.stats.bytes_written += body.len() as u64;
                self.chunks.insert(hash, ChunkEntry { body, refs: 1 });
                true
            }
        }
    }

    /// Drop one reference; the body is removed when the count hits zero.
    /// Releasing an unknown hash is a no-op (the body was already lost).
    pub fn release(&mut self, hash: u64) {
        if let Some(entry) = self.chunks.get_mut(&hash) {
            entry.refs -= 1;
            if entry.refs == 0 {
                self.chunks.remove(&hash);
            }
        }
    }

    /// The stored body, unverified.
    pub fn get(&self, hash: u64) -> Option<&Bytes> {
        self.chunks.get(&hash).map(|e| &e.body)
    }

    /// The stored body, re-hashed on the way out: a mismatch means the
    /// body rotted since it was stored.
    pub fn get_verified(&self, hash: u64) -> Result<&Bytes, ChunkError> {
        let entry = self.chunks.get(&hash).ok_or(ChunkError::Missing { hash })?;
        if fnv1a64(&entry.body) != hash {
            return Err(ChunkError::Corrupt { hash });
        }
        Ok(&entry.body)
    }

    /// Current reference count of a chunk (0 when absent).
    pub fn refs(&self, hash: u64) -> u64 {
        self.chunks.get(&hash).map_or(0, |e| e.refs)
    }

    /// Number of distinct chunk bodies resident.
    pub fn len(&self) -> usize {
        self.chunks.len()
    }

    /// True when no chunk is stored.
    pub fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }

    /// Sum of all reference counts (must equal the total manifest entry
    /// count across retained checkpoints — the props suite ties it out).
    pub fn total_refs(&self) -> u64 {
        self.chunks.values().map(|e| e.refs).sum()
    }

    /// Lifetime statistics.
    pub fn stats(&self) -> ChunkStats {
        self.stats
    }

    /// Fault-injection hook: flip one bit of the stored body of `hash`.
    /// The entry keeps its key, so the damage is only discovered by
    /// [`Self::get_verified`]. Returns false when the hash is absent.
    pub fn corrupt_chunk(&mut self, hash: u64, bit: usize) -> bool {
        match self.chunks.get_mut(&hash) {
            Some(entry) if !entry.body.is_empty() => {
                let mut body = entry.body.to_vec();
                let idx = (bit / 8) % body.len();
                body[idx] ^= 1 << (bit % 8);
                entry.body = Bytes::from(body);
                true
            }
            _ => false,
        }
    }
}

/// Typed manifest decode/restore errors. Every failure mode of a
/// damaged manifest or chunk maps to exactly one variant; the restore
/// path treats any of them as "this checkpoint is unusable, try the
/// next older one".
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ManifestError {
    /// Truncated or otherwise malformed wire bytes.
    Codec(CodecError),
    /// Unknown manifest version byte.
    BadVersion(u8),
    /// Unknown op tag byte.
    BadTag(u8),
    /// The delta base (previous retained checkpoint) is gone.
    MissingBase {
        /// The base checkpoint id the manifest delta-encodes against.
        base: u64,
    },
    /// A `Copy` op indexes past the end of the base hash list.
    BadCopy {
        /// First base index copied.
        from: u32,
        /// Run length.
        run: u32,
        /// The base list length actually available.
        base_len: u32,
    },
    /// A chunk listed in the manifest is not in the store.
    MissingChunk {
        /// The dangling hash.
        hash: u64,
    },
    /// A chunk body fails hash verification.
    CorruptChunk {
        /// The failing hash.
        hash: u64,
    },
    /// Reassembled payload length disagrees with the manifest header.
    WrongLength {
        /// Length the manifest promised.
        expected: u64,
        /// Length reassembly produced.
        got: u64,
    },
    /// The resolved chunk-hash sequence fails the manifest's digest
    /// check. This is the backstop against a damaged manifest that
    /// still decodes: the chunks are individually genuine, but a
    /// flipped copy offset could order them wrongly — per-chunk hashes
    /// cannot catch that, the sequence digest ([`sequence_digest`])
    /// can.
    BadDigest {
        /// Digest the manifest promised.
        expected: u64,
        /// Digest reassembly produced.
        got: u64,
    },
}

impl fmt::Display for ManifestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ManifestError::Codec(e) => write!(f, "manifest codec error: {e}"),
            ManifestError::BadVersion(v) => write!(f, "unknown manifest version {v}"),
            ManifestError::BadTag(t) => write!(f, "unknown manifest op tag {t}"),
            ManifestError::MissingBase { base } => {
                write!(f, "delta base ckpt {base} no longer resolvable")
            }
            ManifestError::BadCopy {
                from,
                run,
                base_len,
            } => {
                write!(f, "copy [{from}; {run}) exceeds base of {base_len} chunks")
            }
            ManifestError::MissingChunk { hash } => write!(f, "chunk {hash:016x} dangling"),
            ManifestError::CorruptChunk { hash } => write!(f, "chunk {hash:016x} corrupt"),
            ManifestError::WrongLength { expected, got } => {
                write!(f, "restored {got} bytes, manifest promised {expected}")
            }
            ManifestError::BadDigest { expected, got } => {
                write!(
                    f,
                    "restored digest {got:016x}, manifest promised {expected:016x}"
                )
            }
        }
    }
}

impl std::error::Error for ManifestError {}

impl From<CodecError> for ManifestError {
    fn from(e: CodecError) -> Self {
        ManifestError::Codec(e)
    }
}

impl From<ChunkError> for ManifestError {
    fn from(e: ChunkError) -> Self {
        match e {
            ChunkError::Missing { hash } => ManifestError::MissingChunk { hash },
            ChunkError::Corrupt { hash } => ManifestError::CorruptChunk { hash },
        }
    }
}

const MANIFEST_VERSION: u8 = 1;
const OP_COPY: u8 = 0;
const OP_NEW: u8 = 1;

/// A decoded checkpoint manifest: the full resolved chunk-hash sequence
/// plus the delta bookkeeping the storage accountant needs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// The checkpoint this manifest describes.
    pub ckpt_id: u64,
    /// The previous retained checkpoint the wire form delta-encoded
    /// against (`None` for a full, self-contained manifest).
    pub base_ckpt: Option<u64>,
    /// Resolved chunk hashes, payload order.
    pub hashes: Vec<u64>,
    /// How many entries arrived as `New` ops (chunks this checkpoint
    /// had to ship; the rest ride on the base for free).
    pub new_chunks: u32,
    /// Exact payload byte length (the last chunk may be short).
    pub total_bytes: u64,
    /// [`sequence_digest`] of the resolved chunk-hash list, verified at
    /// restore against the sequence the ops actually resolved to.
    pub payload_digest: u64,
}

/// Encode a manifest as its delta wire form against `base` (the
/// previous retained checkpoint's resolved hash list). Runs of hashes
/// identical *at the same chunk index* become `Copy{from, run}` ops;
/// everything else is a literal `New{hash}`.
pub fn encode_manifest(
    ckpt_id: u64,
    base: Option<(u64, &[u64])>,
    hashes: &[u64],
    total_bytes: u64,
    payload_digest: u64,
) -> Bytes {
    let mut ops = Vec::new();
    let mut e = Encoder::with_capacity(32 + hashes.len() * 13);
    encode_manifest_into(
        ckpt_id,
        base,
        hashes,
        total_bytes,
        payload_digest,
        &mut ops,
        &mut e,
    );
    e.finish()
}

/// [`encode_manifest`] writing into caller-owned scratch: `ops` and `e`
/// are cleared and reused, so a steady-state checkpoint loop encodes
/// every manifest without allocating. The wire bytes land in `e` (read
/// them back with [`Encoder::encoded`]) and are byte-identical to what
/// [`encode_manifest`] returns.
pub fn encode_manifest_into(
    ckpt_id: u64,
    base: Option<(u64, &[u64])>,
    hashes: &[u64],
    total_bytes: u64,
    payload_digest: u64,
    ops: &mut Vec<(u8, u32, u64)>, // (tag, run, hash/from)
    e: &mut Encoder,
) {
    ops.clear();
    e.clear();
    let base_hashes = base.map(|(_, h)| h).unwrap_or(&[]);
    let mut i = 0usize;
    while i < hashes.len() {
        if i < base_hashes.len() && base_hashes[i] == hashes[i] {
            let start = i;
            while i < hashes.len() && i < base_hashes.len() && base_hashes[i] == hashes[i] {
                i += 1;
            }
            ops.push((OP_COPY, (i - start) as u32, start as u64));
        } else {
            ops.push((OP_NEW, 0, hashes[i]));
            i += 1;
        }
    }
    e.put_u8(MANIFEST_VERSION).put_u64(ckpt_id);
    match base {
        Some((base_id, _)) => {
            e.put_u8(1).put_u64(base_id);
        }
        None => {
            e.put_u8(0).put_u64(0);
        }
    }
    e.put_u64(total_bytes)
        .put_u64(payload_digest)
        .put_u32(ops.len() as u32);
    for &(tag, run, val) in ops.iter() {
        e.put_u8(tag);
        match tag {
            OP_COPY => {
                e.put_u32(val as u32).put_u32(run);
            }
            _ => {
                e.put_u64(val);
            }
        }
    }
}

/// Hash every `chunk_size` window of `payload` into `out` (cleared
/// first), one slot per chunk position; the last window may be short.
/// Runs of four whole chunks are hashed in four lanes on one thread,
/// and the rest one at a time: `workers` is ignored, and stays in the
/// signature only because the benchmark package's layer replay passes it.
pub fn hash_chunks_into(payload: &[u8], chunk_size: usize, _workers: usize, out: &mut Vec<u64>) {
    assert!(chunk_size > 0, "chunk size must be positive");
    out.clear();
    out.reserve(payload.len().div_ceil(chunk_size));
    let mut quads = payload.chunks_exact(chunk_size.saturating_mul(4));
    for quad in &mut quads {
        let (ab, cd) = quad.split_at(2 * chunk_size);
        let ((a, b), (c, d)) = (ab.split_at(chunk_size), cd.split_at(chunk_size));
        out.extend(fnv1a64_x4([a, b, c, d]));
    }
    out.extend(quads.remainder().chunks(chunk_size).map(fnv1a64));
}

/// Decode a wire manifest. `resolve_base` maps a base checkpoint id to
/// its resolved hash list (retained chain or the per-function ghost of
/// the most recently evicted checkpoint); an unresolvable base is the
/// typed [`ManifestError::MissingBase`] — the caller falls back to an
/// older checkpoint, never to wrong bytes.
pub fn decode_manifest(
    bytes: &[u8],
    resolve_base: impl Fn(u64) -> Option<Vec<u64>>,
) -> Result<Manifest, ManifestError> {
    let mut d = Decoder::new(bytes);
    let version = d.u8("manifest version")?;
    if version != MANIFEST_VERSION {
        return Err(ManifestError::BadVersion(version));
    }
    let ckpt_id = d.u64("manifest ckpt id")?;
    let has_base = d.u8("manifest base flag")?;
    let base_id = d.u64("manifest base id")?;
    let total_bytes = d.u64("manifest total bytes")?;
    let payload_digest = d.u64("manifest payload digest")?;
    let op_count = d.u32("manifest op count")?;
    let (base_ckpt, base_hashes) = if has_base != 0 {
        let resolved = resolve_base(base_id).ok_or(ManifestError::MissingBase { base: base_id })?;
        (Some(base_id), resolved)
    } else {
        (None, Vec::new())
    };
    let mut hashes = Vec::new();
    let mut new_chunks = 0u32;
    for _ in 0..op_count {
        let tag = d.u8("manifest op tag")?;
        match tag {
            OP_COPY => {
                let from = d.u32("copy from")?;
                let run = d.u32("copy run")?;
                let end = (from as u64).saturating_add(run as u64);
                if end > base_hashes.len() as u64 {
                    return Err(ManifestError::BadCopy {
                        from,
                        run,
                        base_len: base_hashes.len() as u32,
                    });
                }
                hashes.extend_from_slice(&base_hashes[from as usize..end as usize]);
            }
            OP_NEW => {
                hashes.push(d.u64("new chunk hash")?);
                new_chunks += 1;
            }
            other => return Err(ManifestError::BadTag(other)),
        }
    }
    d.finish("manifest")?;
    Ok(Manifest {
        ckpt_id,
        base_ckpt,
        hashes,
        new_chunks,
        total_bytes,
        payload_digest,
    })
}

/// Reassemble a payload from a decoded manifest, verifying every chunk
/// body against its hash. Returns the exact original bytes or a typed
/// error — by construction it cannot return wrong bytes: substitution or
/// rot fails the per-chunk hash check, length drift fails the length
/// check, and genuine chunks assembled in the wrong order fail the
/// hash-sequence digest (checked before assembly, so a mangled op list
/// is rejected without touching the store).
pub fn restore_from_manifest(
    manifest: &Manifest,
    store: &ChunkStore,
) -> Result<Bytes, ManifestError> {
    // `total_bytes` is untrusted wire data: cap the preallocation so a
    // damaged length field cannot abort on a gigantic reservation — the
    // length check below rejects it after assembly instead.
    let digest = sequence_digest(&manifest.hashes);
    if digest != manifest.payload_digest {
        return Err(ManifestError::BadDigest {
            expected: manifest.payload_digest,
            got: digest,
        });
    }
    const MAX_PREALLOC: u64 = 16 << 20;
    let mut out = Vec::with_capacity(manifest.total_bytes.min(MAX_PREALLOC) as usize);
    for &hash in &manifest.hashes {
        out.extend_from_slice(store.get_verified(hash)?);
    }
    if out.len() as u64 != manifest.total_bytes {
        return Err(ManifestError::WrongLength {
            expected: manifest.total_bytes,
            got: out.len() as u64,
        });
    }
    Ok(Bytes::from(out))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_is_stable_and_const() {
        const H: u64 = fnv1a64(b"chunk");
        assert_eq!(H, fnv1a64(b"chunk"));
        assert_ne!(fnv1a64(b"chunk"), fnv1a64(b"chunl"));
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
    }

    #[test]
    fn store_dedups_and_refcounts() {
        let mut s = ChunkStore::new();
        let (h1, new1) = s.insert(Bytes::from_static(b"aaaa"));
        let (h2, new2) = s.insert(Bytes::from_static(b"aaaa"));
        assert_eq!(h1, h2);
        assert!(new1 && !new2);
        assert_eq!(s.refs(h1), 2);
        assert_eq!(s.len(), 1);
        let stats = s.stats();
        assert_eq!((stats.written, stats.deduped), (1, 1));
        assert_eq!((stats.bytes_written, stats.bytes_deduped), (4, 4));
        s.release(h1);
        assert_eq!(s.refs(h1), 1);
        s.release(h1);
        assert!(s.get(h1).is_none(), "last release drops the body");
        assert!(s.is_empty());
    }

    #[test]
    fn verified_reads_catch_bit_rot() {
        let mut s = ChunkStore::new();
        let (h, _) = s.insert(Bytes::from_static(b"payload chunk"));
        assert_eq!(
            s.get_verified(h).unwrap(),
            &Bytes::from_static(b"payload chunk")
        );
        assert!(s.corrupt_chunk(h, 13));
        assert_eq!(s.get_verified(h), Err(ChunkError::Corrupt { hash: h }));
        assert_eq!(
            s.get_verified(0xdead),
            Err(ChunkError::Missing { hash: 0xdead })
        );
        assert!(!s.corrupt_chunk(0xdead, 0));
    }

    #[test]
    fn manifest_round_trips_without_base() {
        let hashes = vec![1, 2, 3, 2];
        let wire = encode_manifest(7, None, &hashes, 250, 0xfeed);
        let m = decode_manifest(&wire, |_| None).unwrap();
        assert_eq!(m.ckpt_id, 7);
        assert_eq!(m.base_ckpt, None);
        assert_eq!(m.hashes, hashes);
        assert_eq!(m.new_chunks, 4, "no base: everything is literal");
        assert_eq!(m.total_bytes, 250);
    }

    #[test]
    fn delta_encoding_copies_unchanged_runs() {
        let base = vec![10, 11, 12, 13];
        let hashes = vec![10, 11, 99, 13];
        let wire = encode_manifest(8, Some((7, &base)), &hashes, 256, 0xfeed);
        let full = encode_manifest(8, None, &hashes, 256, 0xfeed);
        assert!(
            wire.len() < full.len(),
            "delta form must be smaller than the literal form"
        );
        let m = decode_manifest(&wire, |id| (id == 7).then(|| base.clone())).unwrap();
        assert_eq!(m.hashes, hashes);
        assert_eq!(m.base_ckpt, Some(7));
        assert_eq!(m.new_chunks, 1, "only the changed chunk ships");
    }

    #[test]
    fn missing_base_is_typed() {
        let base = vec![1, 2];
        let wire = encode_manifest(3, Some((2, &base)), &[1, 2, 5], 100, 0xfeed);
        assert_eq!(
            decode_manifest(&wire, |_| None),
            Err(ManifestError::MissingBase { base: 2 })
        );
    }

    #[test]
    fn truncation_and_garbage_are_typed_never_panic() {
        let base = vec![1, 2, 3];
        let wire = encode_manifest(4, Some((3, &base)), &[1, 2, 9], 120, 0xfeed);
        for cut in 0..wire.len() {
            let err = decode_manifest(&wire[..cut], |id| (id == 3).then(|| base.clone()));
            assert!(err.is_err(), "truncation at {cut} must fail");
        }
        assert!(matches!(
            decode_manifest(&[9, 0, 0], |_| None),
            Err(ManifestError::BadVersion(9))
        ));
    }

    #[test]
    fn copy_past_base_end_is_typed() {
        // Hand-build a manifest whose Copy op overruns the base.
        let mut e = Encoder::with_capacity(64);
        e.put_u8(MANIFEST_VERSION)
            .put_u64(5)
            .put_u8(1)
            .put_u64(4)
            .put_u64(64)
            .put_u64(0xfeed)
            .put_u32(1)
            .put_u8(OP_COPY)
            .put_u32(1)
            .put_u32(9);
        let wire = e.finish();
        assert_eq!(
            decode_manifest(&wire, |_| Some(vec![1, 2])),
            Err(ManifestError::BadCopy {
                from: 1,
                run: 9,
                base_len: 2
            })
        );
    }

    #[test]
    fn restore_is_byte_exact_and_corruption_fails_closed() {
        let mut store = ChunkStore::new();
        let payload = b"0123456789abcdef0123456789abcdefXYZ"; // 2 full + 1 short chunk
        let mut hashes = Vec::new();
        for chunk in payload.chunks(16) {
            let (h, _) = store.insert(Bytes::copy_from_slice(chunk));
            hashes.push(h);
        }
        let wire = encode_manifest(
            1,
            None,
            &hashes,
            payload.len() as u64,
            sequence_digest(&hashes),
        );
        let m = decode_manifest(&wire, |_| None).unwrap();
        assert_eq!(restore_from_manifest(&m, &store).unwrap().as_ref(), payload);
        store.corrupt_chunk(hashes[2], 5);
        assert_eq!(
            restore_from_manifest(&m, &store),
            Err(ManifestError::CorruptChunk { hash: hashes[2] })
        );
    }
}
