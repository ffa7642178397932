//! Write-ahead log + compacting snapshots for the metadata substrate.
//!
//! The paper deploys Ignite with *native persistence* enabled (§V-C.1),
//! which is what lets Canary's control plane survive its own restart: the
//! replicated metadata caches are rebuilt from a durable log instead of
//! being lost with the process. This module is our equivalent — an
//! append-only log of every mutation applied to a [`ReplicatedKv`]
//! group, periodically compacted into a snapshot of the full group state.
//!
//! A compaction the group triggers is a *cut*: the log is truncated and
//! the snapshot counted at once, but the snapshot's contents are built
//! from the group only when something reads the log (see
//! [`ReplicatedKv`]'s module docs). Until then the region holds a
//! deferred marker, which the group replaces before any read reaches
//! the WAL.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! image    := magic:"CWAL" version:u32 snap_len:u64 snapshot log*
//! snapshot := generation:u64 members:u32 alive:u8{members}
//!             count:u64 (klen:u32 key vlen:u32 value){count} crc:u32
//! record   := len:u32 crc:u32 payload          -- crc is CRC-32 of payload
//! payload  := 0x01 klen:u32 key value          -- Put
//!           | 0x02 key                         -- Remove
//!           | 0x03 node:u32                    -- FailNode
//!           | 0x04 node:u32                    -- RecoverNode
//!           | 0x05 node:u32                    -- RejoinEmpty
//! ```
//!
//! Recovery invariants (tested by the WAL fuzz suite and the crash-point
//! sweep):
//!
//! - **Prefix property**: replay yields a strict prefix of the ops that
//!   were appended — never a reordering, never an op that was not written.
//! - **Torn tails stop cleanly**: an incomplete record at the end of the
//!   log (a write in flight when the process died) is detected by its
//!   length prefix running past the end of the buffer and is discarded;
//!   replay reports where the tear happened and succeeds.
//! - **Corruption is typed**: a complete record whose payload fails its
//!   CRC, an undecodable payload, or a snapshot failing its checksum all
//!   surface as a [`WalError`] — replay never panics and never silently
//!   loads garbage.
//!
//! [`ReplicatedKv`]: crate::ReplicatedKv

use bytes::Bytes;
use parking_lot::Mutex;
use std::error::Error;
use std::fmt;

const MAGIC: &[u8; 4] = b"CWAL";
const VERSION: u32 = 1;
const FRAME_HEADER: usize = 8; // len:u32 + crc:u32

/// CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320) — the same
/// checksum Ignite's WAL and most storage engines use for record framing.
/// Eight slicing tables: table 0 is the classic byte-at-a-time table, and
/// table k folds a byte that sits k positions ahead, which lets the hot
/// loop consume eight bytes per step instead of one. The framing CRC is
/// paid on every metadata append, so its throughput is hot-path budget.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
};

/// CRC-32 of `data` (IEEE, reflected), slice-by-8.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = u32::from_le_bytes(chunk[0..4].try_into().unwrap()) ^ crc;
        let hi = u32::from_le_bytes(chunk[4..8].try_into().unwrap());
        crc = CRC_TABLES[7][(lo & 0xFF) as usize]
            ^ CRC_TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[4][(lo >> 24) as usize]
            ^ CRC_TABLES[3][(hi & 0xFF) as usize]
            ^ CRC_TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// Failures surfaced when opening or replaying a WAL image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalError {
    /// The image does not start with the `CWAL` magic.
    BadMagic,
    /// The image was written by a format version we do not understand.
    UnsupportedVersion {
        /// Version found in the header.
        version: u32,
    },
    /// The image header claims more bytes than the image holds.
    Truncated,
    /// A complete log record's payload does not match its CRC — mid-log
    /// corruption (a torn *tail* is not an error; it stops replay cleanly).
    BadChecksum {
        /// Byte offset of the record within the log region.
        offset: u64,
    },
    /// A record passed its CRC but its payload does not decode.
    BadRecord {
        /// Byte offset of the record within the log region.
        offset: u64,
        /// What failed to decode.
        reason: &'static str,
    },
    /// The snapshot region is malformed or fails its checksum.
    SnapshotCorrupt {
        /// What failed to decode.
        reason: &'static str,
    },
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::BadMagic => write!(f, "not a WAL image (bad magic)"),
            WalError::UnsupportedVersion { version } => {
                write!(f, "unsupported WAL format version {version}")
            }
            WalError::Truncated => write!(f, "WAL image shorter than its header claims"),
            WalError::BadChecksum { offset } => {
                write!(f, "log record at byte {offset} fails its checksum")
            }
            WalError::BadRecord { offset, reason } => {
                write!(f, "log record at byte {offset} is undecodable: {reason}")
            }
            WalError::SnapshotCorrupt { reason } => write!(f, "snapshot corrupt: {reason}"),
        }
    }
}

impl Error for WalError {}

/// One logged mutation of the replica group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalOp {
    /// Key/value written to every live member.
    Put {
        /// Entry key.
        key: Bytes,
        /// Entry value.
        value: Bytes,
    },
    /// Key removed from every live member.
    Remove {
        /// Entry key.
        key: Bytes,
    },
    /// Member crashed (copy wiped, stops serving).
    FailNode(u32),
    /// Member rejoined, resynchronizing from a live donor.
    RecoverNode(u32),
    /// Member rejoined empty after a total outage (data loss).
    RejoinEmpty(u32),
}

const TAG_PUT: u8 = 0x01;
const TAG_REMOVE: u8 = 0x02;
const TAG_FAIL: u8 = 0x03;
const TAG_RECOVER: u8 = 0x04;
const TAG_REJOIN: u8 = 0x05;

impl WalOp {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            WalOp::Put { key, value } => {
                out.push(TAG_PUT);
                put_u32(out, key.len() as u32);
                out.extend_from_slice(key);
                out.extend_from_slice(value);
            }
            WalOp::Remove { key } => {
                out.push(TAG_REMOVE);
                out.extend_from_slice(key);
            }
            WalOp::FailNode(n) => {
                out.push(TAG_FAIL);
                put_u32(out, *n);
            }
            WalOp::RecoverNode(n) => {
                out.push(TAG_RECOVER);
                put_u32(out, *n);
            }
            WalOp::RejoinEmpty(n) => {
                out.push(TAG_REJOIN);
                put_u32(out, *n);
            }
        }
    }

    fn decode(payload: &[u8], offset: u64) -> Result<WalOp, WalError> {
        let bad = |reason| WalError::BadRecord { offset, reason };
        let (&tag, rest) = payload.split_first().ok_or_else(|| bad("empty payload"))?;
        match tag {
            TAG_PUT => {
                if rest.len() < 4 {
                    return Err(bad("put without key length"));
                }
                let klen = read_u32(rest, 0) as usize;
                let rest = &rest[4..];
                if klen > rest.len() {
                    return Err(bad("put key runs past payload"));
                }
                Ok(WalOp::Put {
                    key: Bytes::copy_from_slice(&rest[..klen]),
                    value: Bytes::copy_from_slice(&rest[klen..]),
                })
            }
            TAG_REMOVE => Ok(WalOp::Remove {
                key: Bytes::copy_from_slice(rest),
            }),
            TAG_FAIL | TAG_RECOVER | TAG_REJOIN => {
                if rest.len() != 4 {
                    return Err(bad("membership op payload is not 4 bytes"));
                }
                let node = read_u32(rest, 0);
                Ok(match tag {
                    TAG_FAIL => WalOp::FailNode(node),
                    TAG_RECOVER => WalOp::RecoverNode(node),
                    _ => WalOp::RejoinEmpty(node),
                })
            }
            _ => Err(bad("unknown op tag")),
        }
    }
}

/// Snapshot of the whole replica group at a compaction point: the
/// membership generation, which members were alive, and the contents of
/// one live member. One copy suffices because live members always hold
/// identical contents (the `replicas_consistent` invariant).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotState {
    /// Membership generation at the snapshot point.
    pub generation: u64,
    /// Liveness flag per member.
    pub alive: Vec<bool>,
    /// Full contents of the first live member (empty on total outage).
    pub entries: Vec<(Bytes, Bytes)>,
}

impl SnapshotState {
    /// Exact size [`SnapshotState::encode`] will produce, computed without
    /// materializing the bytes. An installed snapshot is sized for
    /// [`WalStats::snapshot_bytes`] when it is built, and encoded only if
    /// an image needs it, so this must track `encode` field for field.
    fn encoded_len(&self) -> usize {
        let entries: usize = self
            .entries
            .iter()
            .map(|(k, v)| 4 + k.len() + 4 + v.len())
            .sum();
        8 + 4 + self.alive.len() + 8 + entries + 4
    }

    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        put_u64(&mut out, self.generation);
        put_u32(&mut out, self.alive.len() as u32);
        for &a in &self.alive {
            out.push(a as u8);
        }
        put_u64(&mut out, self.entries.len() as u64);
        for (k, v) in &self.entries {
            put_u32(&mut out, k.len() as u32);
            out.extend_from_slice(k);
            put_u32(&mut out, v.len() as u32);
            out.extend_from_slice(v);
        }
        let crc = crc32(&out);
        put_u32(&mut out, crc);
        debug_assert_eq!(out.len(), self.encoded_len(), "encoded_len out of step");
        out
    }

    fn decode(bytes: &[u8]) -> Result<SnapshotState, WalError> {
        let corrupt = |reason| WalError::SnapshotCorrupt { reason };
        if bytes.len() < 4 {
            return Err(corrupt("shorter than its checksum"));
        }
        let (body, crc_bytes) = bytes.split_at(bytes.len() - 4);
        if crc32(body) != read_u32(crc_bytes, 0) {
            return Err(corrupt("checksum mismatch"));
        }
        let mut off = 0usize;
        let need = |off: usize, n: usize| {
            if off + n > body.len() {
                Err(corrupt("body runs short"))
            } else {
                Ok(())
            }
        };
        need(off, 12)?;
        let generation = read_u64(body, off);
        let members = read_u32(body, off + 8) as usize;
        off += 12;
        need(off, members)?;
        let alive: Vec<bool> = body[off..off + members].iter().map(|&b| b != 0).collect();
        off += members;
        need(off, 8)?;
        let count = read_u64(body, off) as usize;
        off += 8;
        let mut entries = Vec::with_capacity(count.min(1 << 20));
        for _ in 0..count {
            need(off, 4)?;
            let klen = read_u32(body, off) as usize;
            off += 4;
            need(off, klen)?;
            let key = Bytes::copy_from_slice(&body[off..off + klen]);
            off += klen;
            need(off, 4)?;
            let vlen = read_u32(body, off) as usize;
            off += 4;
            need(off, vlen)?;
            let value = Bytes::copy_from_slice(&body[off..off + vlen]);
            off += vlen;
            entries.push((key, value));
        }
        if off != body.len() {
            return Err(corrupt("trailing bytes after last entry"));
        }
        Ok(SnapshotState {
            generation,
            alive,
            entries,
        })
    }
}

/// Everything recovered from a WAL: the latest snapshot (if one was ever
/// installed), the ops appended after it, and where a torn tail (if any)
/// cut the log short.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalReplay {
    /// Latest installed snapshot, or `None` if the log never compacted.
    pub snapshot: Option<SnapshotState>,
    /// Ops appended after the snapshot, in append order.
    pub ops: Vec<WalOp>,
    /// Byte offset (within the log region) of a torn trailing record that
    /// was discarded, or `None` when the log ended on a record boundary.
    pub torn_at: Option<u64>,
    /// Bytes of log successfully replayed (excludes any torn tail).
    pub replayed_bytes: u64,
}

/// Snapshot/compaction policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalConfig {
    /// Install a compacting snapshot (and truncate the log) once this many
    /// records have accumulated since the last snapshot.
    pub snapshot_every: u64,
}

impl Default for WalConfig {
    fn default() -> Self {
        WalConfig {
            snapshot_every: 256,
        }
    }
}

/// Append-state counters for inspection and the recovery report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WalStats {
    /// Encoded snapshot size in bytes (0 when never compacted).
    pub snapshot_bytes: u64,
    /// Log region size in bytes (includes any torn tail).
    pub log_bytes: u64,
    /// Complete records appended since the last snapshot.
    pub records_since_snapshot: u64,
    /// Complete records appended over the WAL's lifetime.
    pub appended_records: u64,
    /// Snapshots installed over the WAL's lifetime.
    pub snapshots_installed: u64,
    /// Torn (deliberately incomplete) appends over the WAL's lifetime.
    pub torn_appends: u64,
}

/// The snapshot region: raw encoded bytes (images opened with
/// [`Wal::from_bytes`], or the empty never-compacted state), a built
/// state whose encoding is deferred, or a cut whose state the owning
/// group has not built yet. Encoding is pure, so materializing later
/// yields byte-identical output: an image pays the O(store) byte
/// serialization, a replay clones refcounted handles, and a cut that
/// nothing reads pays neither.
#[derive(Debug)]
enum SnapshotRepr {
    /// Encoded snapshot region (empty = never compacted).
    Encoded(Vec<u8>),
    /// Built state; encoded on demand.
    Lazy(SnapshotState),
    /// A cut ([`Wal::cut`]) awaiting its state ([`Wal::fill_cut`]).
    /// Reading it is a broken invariant of the owning group.
    Deferred,
}

impl Default for SnapshotRepr {
    fn default() -> Self {
        SnapshotRepr::Encoded(Vec::new())
    }
}

#[derive(Debug, Default)]
struct WalInner {
    snapshot: SnapshotRepr,
    log: Vec<u8>,
    stats: WalStats,
}

const DEFERRED_READ: &str = "a cut's snapshot is read before its group built it";

impl WalInner {
    /// The encoded snapshot region, materializing (and caching) a lazy
    /// snapshot on first use.
    fn snapshot_encoded(&mut self) -> &Vec<u8> {
        match &self.snapshot {
            SnapshotRepr::Lazy(state) => self.snapshot = SnapshotRepr::Encoded(state.encode()),
            SnapshotRepr::Deferred => panic!("{DEFERRED_READ}"),
            SnapshotRepr::Encoded(_) => {}
        }
        match &self.snapshot {
            SnapshotRepr::Encoded(bytes) => bytes,
            _ => unreachable!("just materialized"),
        }
    }

    /// Truncate the log, count a snapshot, and leave the region deferred.
    fn cut(&mut self) {
        self.snapshot = SnapshotRepr::Deferred;
        self.log.clear();
        self.stats.records_since_snapshot = 0;
        self.stats.snapshots_installed += 1;
    }

    /// Fill the deferred region with `snap`, sized now and encoded only
    /// when an image needs the bytes.
    fn fill(&mut self, snap: SnapshotState) {
        assert!(
            matches!(self.snapshot, SnapshotRepr::Deferred),
            "no cut to fill"
        );
        self.stats.snapshot_bytes = snap.encoded_len() as u64;
        self.snapshot = SnapshotRepr::Lazy(snap);
    }
}

/// An in-memory write-ahead log with length-prefix + CRC framing and
/// periodic compacting snapshots. Models the durable device the control
/// plane writes through; [`Wal::to_bytes`]/[`Wal::from_bytes`] give the
/// on-"disk" image form used by fuzz tests and `canaryctl wal`.
#[derive(Debug, Default)]
pub struct Wal {
    inner: Mutex<WalInner>,
    config: WalConfig,
}

impl Wal {
    /// Fresh, empty WAL.
    pub fn new(config: WalConfig) -> Self {
        Wal {
            inner: Mutex::new(WalInner::default()),
            config,
        }
    }

    /// The snapshot/compaction policy this WAL was opened with.
    pub fn config(&self) -> WalConfig {
        self.config
    }

    /// Append one complete record.
    pub fn append(&self, op: &WalOp) {
        let mut inner = self.inner.lock();
        // Encode straight into the log: reserve the [len][crc] header,
        // let the op land in place, then backfill. One pass over the
        // payload bytes (the crc) instead of encode-copy-then-memcpy —
        // checkpoint payloads are the bulk of WAL traffic, and this is
        // the metadata plane's per-checkpoint hot path. Frame bytes are
        // identical to the scratch-buffer encoding.
        let header = inner.log.len();
        inner.log.extend_from_slice(&[0u8; FRAME_HEADER]);
        op.encode(&mut inner.log);
        let body = header + FRAME_HEADER;
        let len = (inner.log.len() - body) as u32;
        let crc = crc32(&inner.log[body..]);
        inner.log[header..header + 4].copy_from_slice(&len.to_le_bytes());
        inner.log[header + 4..body].copy_from_slice(&crc.to_le_bytes());
        inner.stats.records_since_snapshot += 1;
        inner.stats.appended_records += 1;
    }

    /// Append a *torn* record: the frame is encoded in full but only its
    /// first `keep` bytes reach the log — at least one byte is always cut
    /// so the tail is genuinely incomplete. Models a write in flight when
    /// the process dies; replay must discard it cleanly.
    pub fn append_torn(&self, op: &WalOp, keep: usize) {
        let mut payload = Vec::new();
        op.encode(&mut payload);
        let mut frame = Vec::with_capacity(FRAME_HEADER + payload.len());
        put_u32(&mut frame, payload.len() as u32);
        put_u32(&mut frame, crc32(&payload));
        frame.extend_from_slice(&payload);
        let keep = keep.min(frame.len().saturating_sub(1));
        let mut inner = self.inner.lock();
        inner.log.extend_from_slice(&frame[..keep]);
        inner.stats.torn_appends += 1;
    }

    /// True once enough records accumulated since the last snapshot that
    /// the owner should install a new one.
    pub fn wants_snapshot(&self) -> bool {
        self.inner.lock().stats.records_since_snapshot >= self.config.snapshot_every
    }

    /// Size-adaptive form of [`Wal::wants_snapshot`]: a snapshot costs
    /// O(`live_entries`) to capture, so the trigger scales the record
    /// threshold with the store — compact after
    /// `max(snapshot_every, live_entries / 4)` records. Total compaction
    /// work stays O(records appended) no matter how large the store
    /// grows, where the fixed-cadence trigger is O(records × store).
    /// Never fires *before* `snapshot_every` records, so small stores
    /// (and every test pinned to the fixed cadence) behave identically.
    pub fn wants_snapshot_scaled(&self, live_entries: u64) -> bool {
        let threshold = self.config.snapshot_every.max(live_entries / 4);
        self.inner.lock().stats.records_since_snapshot >= threshold
    }

    /// Install a compacting snapshot: replaces the snapshot region and
    /// truncates the log.
    pub fn install_snapshot(&self, snap: &SnapshotState) {
        let mut inner = self.inner.lock();
        inner.cut();
        inner.fill(snap.clone());
    }

    /// Compact without the snapshot's contents: truncate the log and
    /// count the snapshot now, and leave the region deferred until the
    /// owner hands over the state the cut stands for with
    /// [`Wal::fill_cut`], which it must do before anything reads the WAL.
    pub(crate) fn cut(&self) {
        self.inner.lock().cut();
    }

    /// Fill the pending cut with its state. Holding the state is
    /// refcounted-handle cheap, and only an image needs the bytes.
    pub(crate) fn fill_cut(&self, snap: SnapshotState) {
        self.inner.lock().fill(snap);
    }

    /// Replay the WAL: decode the snapshot (if any) and every complete
    /// record after it. A torn tail stops replay cleanly; mid-log
    /// corruption is a typed error.
    pub fn replay(&self) -> Result<WalReplay, WalError> {
        let inner = self.inner.lock();
        let snapshot = match &inner.snapshot {
            SnapshotRepr::Encoded(bytes) if bytes.is_empty() => None,
            SnapshotRepr::Encoded(bytes) => Some(SnapshotState::decode(bytes)?),
            // Encode→decode round-trips exactly, so replaying the lazy
            // form skips both halves.
            SnapshotRepr::Lazy(state) => Some(state.clone()),
            SnapshotRepr::Deferred => panic!("{DEFERRED_READ}"),
        };
        let (ops, torn_at) = replay_log(&inner.log)?;
        let replayed_bytes = torn_at.unwrap_or(inner.log.len() as u64);
        Ok(WalReplay {
            snapshot,
            ops,
            torn_at,
            replayed_bytes,
        })
    }

    /// Discard everything after byte `len` of the log region — the crash
    /// point. Used after recovery to drop a torn tail, and by the fuzz
    /// suite to cut the log at arbitrary offsets.
    pub fn truncate_log_to(&self, len: u64) {
        let mut inner = self.inner.lock();
        let len = (len as usize).min(inner.log.len());
        inner.log.truncate(len);
    }

    /// XOR one byte of the log region (bit-flip corruption injection).
    pub fn corrupt_log_byte(&self, offset: u64, mask: u8) {
        let mut inner = self.inner.lock();
        if let Some(b) = inner.log.get_mut(offset as usize) {
            *b ^= mask;
        }
    }

    /// Current append-state counters.
    pub fn stats(&self) -> WalStats {
        let inner = self.inner.lock();
        assert!(
            !matches!(inner.snapshot, SnapshotRepr::Deferred),
            "{DEFERRED_READ}"
        );
        let mut stats = inner.stats;
        stats.log_bytes = inner.log.len() as u64;
        stats
    }

    /// Serialize to the on-"disk" image form.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut inner = self.inner.lock();
        let snapshot_len = inner.snapshot_encoded().len();
        let mut out = Vec::with_capacity(16 + snapshot_len + inner.log.len());
        out.extend_from_slice(MAGIC);
        put_u32(&mut out, VERSION);
        put_u64(&mut out, snapshot_len as u64);
        out.extend_from_slice(inner.snapshot_encoded());
        out.extend_from_slice(&inner.log);
        out
    }

    /// Open an image. Header and snapshot length are validated here; the
    /// log region is validated lazily by [`Wal::replay`] so that torn
    /// tails in the image survive the round trip.
    pub fn from_bytes(bytes: &[u8], config: WalConfig) -> Result<Wal, WalError> {
        if bytes.len() < 4 || &bytes[..4] != MAGIC {
            return Err(WalError::BadMagic);
        }
        if bytes.len() < 16 {
            return Err(WalError::Truncated);
        }
        let version = read_u32(bytes, 4);
        if version != VERSION {
            return Err(WalError::UnsupportedVersion { version });
        }
        let snap_len = read_u64(bytes, 8) as usize;
        let rest = &bytes[16..];
        if snap_len > rest.len() {
            return Err(WalError::Truncated);
        }
        let (snapshot, log) = rest.split_at(snap_len);
        let inner = WalInner {
            snapshot: SnapshotRepr::Encoded(snapshot.to_vec()),
            log: log.to_vec(),
            stats: WalStats {
                snapshot_bytes: snap_len as u64,
                log_bytes: log.len() as u64,
                ..WalStats::default()
            },
        };
        Ok(Wal {
            inner: Mutex::new(inner),
            config,
        })
    }
}

/// Decode every complete record in `log`. Returns the ops plus the offset
/// of a torn trailing record, if the log does not end on a boundary.
fn replay_log(log: &[u8]) -> Result<(Vec<WalOp>, Option<u64>), WalError> {
    let mut ops = Vec::new();
    let mut off = 0usize;
    loop {
        let remaining = log.len() - off;
        if remaining == 0 {
            return Ok((ops, None));
        }
        if remaining < FRAME_HEADER {
            return Ok((ops, Some(off as u64)));
        }
        let len = read_u32(log, off) as usize;
        let crc = read_u32(log, off + 4);
        if len > remaining - FRAME_HEADER {
            return Ok((ops, Some(off as u64)));
        }
        let payload = &log[off + FRAME_HEADER..off + FRAME_HEADER + len];
        if crc32(payload) != crc {
            return Err(WalError::BadChecksum { offset: off as u64 });
        }
        ops.push(WalOp::decode(payload, off as u64)?);
        off += FRAME_HEADER + len;
    }
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn read_u32(bytes: &[u8], off: usize) -> u32 {
    u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap())
}

fn read_u64(bytes: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(bytes[off..off + 8].try_into().unwrap())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_ops() -> Vec<WalOp> {
        vec![
            WalOp::Put {
                key: Bytes::from_static(b"job/1"),
                value: Bytes::from_static(b"row-one"),
            },
            WalOp::FailNode(2),
            WalOp::Put {
                key: Bytes::from_static(b""),
                value: Bytes::from_static(b""),
            },
            WalOp::Remove {
                key: Bytes::from_static(b"job/1"),
            },
            WalOp::RecoverNode(2),
            WalOp::RejoinEmpty(0),
        ]
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn append_replay_round_trips() {
        let wal = Wal::new(WalConfig::default());
        for op in sample_ops() {
            wal.append(&op);
        }
        let replay = wal.replay().unwrap();
        assert_eq!(replay.ops, sample_ops());
        assert_eq!(replay.torn_at, None);
        assert!(replay.snapshot.is_none());
    }

    #[test]
    fn torn_tail_stops_cleanly() {
        let wal = Wal::new(WalConfig::default());
        for op in sample_ops() {
            wal.append(&op);
        }
        let boundary = wal.stats().log_bytes;
        wal.append_torn(
            &WalOp::Put {
                key: Bytes::from_static(b"inflight"),
                value: Bytes::from_static(b"lost"),
            },
            5,
        );
        let replay = wal.replay().unwrap();
        assert_eq!(replay.ops, sample_ops());
        assert_eq!(replay.torn_at, Some(boundary));
        // Truncating at the tear restores a clean log.
        wal.truncate_log_to(boundary);
        assert_eq!(wal.replay().unwrap().torn_at, None);
    }

    #[test]
    fn torn_append_always_cuts_at_least_one_byte() {
        let wal = Wal::new(WalConfig::default());
        let op = WalOp::FailNode(1);
        wal.append_torn(&op, usize::MAX);
        let replay = wal.replay().unwrap();
        assert!(replay.ops.is_empty());
        assert_eq!(replay.torn_at, Some(0));
    }

    #[test]
    fn bit_flip_in_payload_is_a_checksum_error() {
        let wal = Wal::new(WalConfig::default());
        wal.append(&WalOp::Put {
            key: Bytes::from_static(b"k"),
            value: Bytes::from_static(b"v"),
        });
        wal.corrupt_log_byte(FRAME_HEADER as u64, 0x40);
        assert_eq!(
            wal.replay().unwrap_err(),
            WalError::BadChecksum { offset: 0 }
        );
    }

    #[test]
    fn snapshot_compacts_and_replays() {
        let wal = Wal::new(WalConfig { snapshot_every: 3 });
        wal.append(&WalOp::Put {
            key: Bytes::from_static(b"a"),
            value: Bytes::from_static(b"1"),
        });
        wal.append(&WalOp::Put {
            key: Bytes::from_static(b"b"),
            value: Bytes::from_static(b"2"),
        });
        assert!(!wal.wants_snapshot());
        wal.append(&WalOp::FailNode(1));
        assert!(wal.wants_snapshot());
        let snap = SnapshotState {
            generation: 1,
            alive: vec![true, false, true],
            entries: vec![(Bytes::from_static(b"a"), Bytes::from_static(b"1"))],
        };
        wal.install_snapshot(&snap);
        assert!(!wal.wants_snapshot());
        assert_eq!(wal.stats().log_bytes, 0);
        wal.append(&WalOp::RecoverNode(1));
        let replay = wal.replay().unwrap();
        assert_eq!(replay.snapshot, Some(snap));
        assert_eq!(replay.ops, vec![WalOp::RecoverNode(1)]);
    }

    #[test]
    fn image_round_trips_including_torn_tail() {
        let wal = Wal::new(WalConfig::default());
        for op in sample_ops() {
            wal.append(&op);
        }
        wal.install_snapshot(&SnapshotState {
            generation: 4,
            alive: vec![true; 3],
            entries: vec![(Bytes::from_static(b"k"), Bytes::from_static(b"v"))],
        });
        wal.append(&WalOp::Remove {
            key: Bytes::from_static(b"k"),
        });
        wal.append_torn(&WalOp::FailNode(0), 3);
        let reopened = Wal::from_bytes(&wal.to_bytes(), WalConfig::default()).unwrap();
        assert_eq!(reopened.replay().unwrap(), wal.replay().unwrap());
    }

    #[test]
    fn image_header_errors_are_typed() {
        assert_eq!(
            Wal::from_bytes(b"nope", WalConfig::default()).unwrap_err(),
            WalError::BadMagic
        );
        assert_eq!(
            Wal::from_bytes(b"CWAL\x01", WalConfig::default()).unwrap_err(),
            WalError::Truncated
        );
        let mut image = Wal::new(WalConfig::default()).to_bytes();
        image[4] = 9; // version
        assert_eq!(
            Wal::from_bytes(&image, WalConfig::default()).unwrap_err(),
            WalError::UnsupportedVersion { version: 9 }
        );
        let mut image = Wal::new(WalConfig::default()).to_bytes();
        image[8] = 0xFF; // snapshot length beyond the image
        assert_eq!(
            Wal::from_bytes(&image, WalConfig::default()).unwrap_err(),
            WalError::Truncated
        );
    }

    #[test]
    fn corrupt_snapshot_is_typed() {
        let wal = Wal::new(WalConfig::default());
        wal.install_snapshot(&SnapshotState {
            generation: 0,
            alive: vec![true],
            entries: vec![(Bytes::from_static(b"k"), Bytes::from_static(b"v"))],
        });
        let mut image = wal.to_bytes();
        image[20] ^= 0x01; // inside the snapshot region
        let reopened = Wal::from_bytes(&image, WalConfig::default()).unwrap();
        assert!(matches!(
            reopened.replay().unwrap_err(),
            WalError::SnapshotCorrupt { .. }
        ));
    }

    #[test]
    fn truncation_never_panics_and_keeps_a_prefix() {
        let wal = Wal::new(WalConfig::default());
        for op in sample_ops() {
            wal.append(&op);
        }
        let full = wal.stats().log_bytes;
        for cut in 0..=full {
            let image = {
                let w = Wal::from_bytes(&wal.to_bytes(), WalConfig::default()).unwrap();
                w.truncate_log_to(cut);
                w
            };
            let replay = image.replay().unwrap();
            assert!(replay.ops.len() <= sample_ops().len());
            assert_eq!(replay.ops[..], sample_ops()[..replay.ops.len()]);
        }
    }
}
