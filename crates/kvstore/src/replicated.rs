//! Replicated caching mode.
//!
//! §V-C.1: "We deploy Apache Ignite to store data in the highly scalable
//! distributed cluster using replicated caching mode which ensures that
//! the data is available in the entire cluster." Every member node holds a
//! full copy; writes go to all live members, reads are served by any live
//! member, and a crashed member can rejoin and resynchronize from a
//! survivor — which is what lets Canary recover functions after
//! node-level failures (Fig. 11).
//!
//! The group is stored as one ordered map, not one map per member: each
//! entry keeps its value once, with a bitmask of the members that hold
//! it, beside a live-member mask and a count of the entries each member
//! holds. Every write and remove reaches all live members and a failing
//! member is wiped, so members that hold a key hold the same value; they
//! differ only in which keys they hold after an empty rejoin, and the
//! holder masks record exactly that. A put or remove is therefore one map
//! operation under one lock, whatever the member count. Membership events
//! (failure, recovery, empty rejoin) walk the map once and bump a
//! [generation counter](ReplicatedKv::generation) so caches layered above
//! the group can detect that the backing data may have changed under them.

use crate::error::KvError;
use crate::store::{prefix_upper_bound, StoreConfig};
use crate::wal::{SnapshotState, Wal, WalConfig, WalError, WalOp};
use bytes::Bytes;
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::ops::Bound;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// What a crash-restart recovered from the write-ahead log.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WalRecovery {
    /// Whether a WAL was attached; without one the restart loses all data.
    pub durable: bool,
    /// Rows loaded from the compacted snapshot.
    pub snapshot_entries: u64,
    /// Log records replayed on top of the snapshot.
    pub replayed_records: u64,
    /// Log bytes replayed (excludes any discarded torn tail).
    pub replayed_bytes: u64,
    /// True when a torn trailing record was found and discarded.
    pub torn_tail: bool,
}

/// The mask bit of member `m`.
const fn bit(m: usize) -> u64 {
    1 << m
}

/// Member `node` as a log record names it.
fn member_id(node: usize) -> Result<u32, KvError> {
    u32::try_from(node).map_err(|_| KvError::UnknownNode { node })
}

/// The members whose bits are set in `mask`, ascending.
fn members_of(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let m = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            m
        })
    })
}

/// One stored value and the members holding it (bit `m` for member `m`).
#[derive(Debug)]
struct Held {
    value: Bytes,
    holders: u64,
}

/// The contents of every member. Each entry's holders are a non-empty
/// subset of `live` (a member that is down holds nothing), and
/// `counts[m]` is the number of entries member `m` holds.
#[derive(Debug)]
struct Group {
    map: BTreeMap<Bytes, Held>,
    live: u64,
    counts: Vec<usize>,
}

impl Group {
    /// A group of `members` live members holding nothing.
    fn new(members: usize) -> Self {
        Group {
            map: BTreeMap::new(),
            live: u64::MAX >> (64 - members),
            counts: vec![0; members],
        }
    }

    /// The first live member, which serves every read.
    fn reader(&self) -> Option<usize> {
        (self.live != 0).then(|| self.live.trailing_zeros() as usize)
    }

    /// The reader's entry under `key`.
    fn read(&self, key: &[u8]) -> Option<&Held> {
        let reader = bit(self.reader()?);
        self.map.get(key).filter(|h| h.holders & reader != 0)
    }

    /// The reader's keys in `range`, ascending.
    fn keys<'a>(
        &'a self,
        range: (Bound<&'a [u8]>, Bound<&'a [u8]>),
    ) -> impl Iterator<Item = &'a Bytes> + 'a {
        let reader = self.reader().map_or(0, bit);
        self.map
            .range::<[u8], _>(range)
            .filter(move |(_, h)| h.holders & reader != 0)
            .map(|(k, _)| k)
    }

    /// The reader's entry count (0 when every member is down).
    fn len(&self) -> usize {
        self.reader().map_or(0, |m| self.counts[m])
    }

    /// Store `value` under `key` on every live member.
    fn insert(&mut self, key: Bytes, value: Bytes) {
        let live = self.live;
        let old = self.map.insert(
            key,
            Held {
                value,
                holders: live,
            },
        );
        for m in members_of(live & !old.map_or(0, |h| h.holders)) {
            self.counts[m] += 1;
        }
    }

    /// Remove `key` from every member.
    fn remove(&mut self, key: &[u8]) {
        if let Some(held) = self.map.remove(key) {
            for m in members_of(held.holders) {
                self.counts[m] -= 1;
            }
        }
    }

    /// Crash member `node`: its copy is wiped and it stops serving.
    fn fail(&mut self, node: usize) {
        self.wipe(node);
        self.live &= !bit(node);
    }

    /// Bring member `node` back with the reader's contents merged into
    /// its own. Fails, changing nothing, when no donor is live.
    fn recover(&mut self, node: usize) -> Result<(), KvError> {
        let donor = self.reader().ok_or(KvError::NoReplicaAvailable)?;
        let (from, to) = (bit(donor), bit(node));
        for held in self.map.values_mut() {
            if held.holders & from != 0 && held.holders & to == 0 {
                held.holders |= to;
                self.counts[node] += 1;
            }
        }
        self.live |= to;
        Ok(())
    }

    /// Bring member `node` back serving an empty copy.
    fn rejoin_empty(&mut self, node: usize) {
        self.wipe(node);
        self.live |= bit(node);
    }

    fn wipe(&mut self, node: usize) {
        if self.counts[node] == 0 {
            return;
        }
        let b = bit(node);
        self.map.retain(|_, held| {
            held.holders &= !b;
            held.holders != 0
        });
        self.counts[node] = 0;
    }

    /// True when every entry is held by every live member.
    fn consistent(&self) -> bool {
        self.map.values().all(|h| h.holders == self.live)
    }

    /// O(members) form of [`Group::consistent`], used by the compaction
    /// gate so the check is not O(store) on every qualifying append.
    ///
    /// Equal counts across live members imply identical contents here
    /// because live members only diverge through an empty rejoin: from
    /// then on every put and remove reaches all live members alike, and a
    /// recovery merges the first live member's full set into the
    /// recovered one. So for any two live members one's key set is a
    /// subset of the other's, with equal values on shared keys (one
    /// stored value per key). A subset of equal size is the whole set —
    /// count equality is not a heuristic but the full invariant.
    fn converged(&self) -> bool {
        let mut counts = members_of(self.live).map(|m| self.counts[m]);
        let converged = match counts.next() {
            None => true,
            Some(first) => counts.all(|c| c == first),
        };
        debug_assert_eq!(
            converged,
            self.consistent(),
            "count gate must agree with the full-compare oracle"
        );
        converged
    }

    /// The reader's entries in key order (empty when every member is
    /// down) — the rows a compacting snapshot stores.
    fn entries(&self) -> Vec<(Bytes, Bytes)> {
        let Some(reader) = self.reader() else {
            return Vec::new();
        };
        let mut entries = Vec::with_capacity(self.counts[reader]);
        entries.extend(
            self.map
                .iter()
                .filter(|(_, h)| h.holders & bit(reader) != 0)
                .map(|(k, h)| (k.clone(), h.value.clone())),
        );
        entries
    }
}

/// A KV store replicated across cluster members.
#[derive(Debug)]
pub struct ReplicatedKv {
    group: RwLock<Group>,
    entry_limit: u64,
    /// Bumped on every membership event that can change the group's
    /// contents out from under a caller (node failure wipes a copy, empty
    /// rejoin loses data, recovery resyncs). Caches keyed on this value
    /// drop their entries when it moves.
    generation: AtomicU64,
    /// When present, every mutation is logged through here before it is
    /// acknowledged — the group can then be rebuilt after a crash.
    wal: Option<Arc<Wal>>,
}

impl ReplicatedKv {
    /// Create a replica group of `members` full copies (memory-only).
    pub fn new(members: usize, config: StoreConfig) -> Self {
        assert!(members > 0, "replica group needs a member");
        assert!(members <= 64, "replica group holds at most 64 members");
        ReplicatedKv {
            group: RwLock::new(Group::new(members)),
            entry_limit: config.entry_limit,
            generation: AtomicU64::new(0),
            wal: None,
        }
    }

    /// Create a durable replica group backed by a fresh write-ahead log.
    pub fn durable(members: usize, config: StoreConfig, wal_config: WalConfig) -> Self {
        let mut group = ReplicatedKv::new(members, config);
        group.wal = Some(Arc::new(Wal::new(wal_config)));
        group
    }

    /// Open a durable replica group from an existing WAL, replaying its
    /// snapshot + log into a fresh group and continuing to log through it.
    /// A torn tail is discarded (and truncated away); corruption surfaces
    /// as a typed [`WalError`].
    pub fn open(
        members: usize,
        config: StoreConfig,
        wal: Arc<Wal>,
    ) -> Result<(Self, WalRecovery), WalError> {
        let mut group = ReplicatedKv::new(members, config);
        group.wal = Some(wal);
        let recovery = group.restore_from_wal()?;
        Ok((group, recovery))
    }

    /// The attached write-ahead log, when the group is durable.
    pub fn wal(&self) -> Option<&Arc<Wal>> {
        self.wal.as_ref()
    }

    /// Number of members (live or not).
    pub fn member_count(&self) -> usize {
        self.group.read().counts.len()
    }

    /// Number of live members.
    pub fn live_count(&self) -> usize {
        self.group.read().live.count_ones() as usize
    }

    /// True when member `node` is live.
    pub fn is_live(&self, node: usize) -> Result<bool, KvError> {
        let group = self.group.read();
        if node >= group.counts.len() {
            return Err(KvError::UnknownNode { node });
        }
        Ok(group.live & bit(node) != 0)
    }

    /// Current membership generation. Moves whenever a node fails,
    /// recovers, or rejoins empty; stable across plain reads and writes.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    fn bump_generation(&self) {
        self.generation.fetch_add(1, Ordering::AcqRel);
    }

    /// Fails with [`KvError::EntryTooLarge`] when `value` exceeds the
    /// entry limit (the caller then spills the data to a storage tier and
    /// stores a location record instead).
    fn check_size(&self, value: &Bytes) -> Result<(), KvError> {
        if value.len() as u64 > self.entry_limit {
            return Err(KvError::EntryTooLarge {
                size: value.len() as u64,
                limit: self.entry_limit,
            });
        }
        Ok(())
    }

    /// Write to every live member. Fails if the whole group is down or
    /// the value exceeds the entry limit.
    pub fn put(&self, key: impl AsRef<[u8]>, value: Bytes) -> Result<(), KvError> {
        self.put_shared(Bytes::copy_from_slice(key.as_ref()), value)
    }

    /// [`ReplicatedKv::put`] with an already-owned key handle — the
    /// zero-copy entry point: the key and value are stored once, as the
    /// caller's refcounted handles.
    pub fn put_shared(&self, key: Bytes, value: Bytes) -> Result<(), KvError> {
        self.commit(&WalOp::Put { key, value })
    }

    /// Group-commit batch write: apply every entry under one write lock,
    /// then log one [`WalOp::Put`] per entry in slice order. Entries land
    /// in slice order (the last write to a key wins) and the WAL record
    /// stream is byte-identical to the equivalent sequence of
    /// [`ReplicatedKv::put_shared`] calls, so crash replay cannot tell
    /// batched and unbatched writers apart. A compaction that one of the
    /// records triggers snapshots the whole batch, which the WAL images
    /// depend on. The whole batch is validated up front: an oversized
    /// value fails it before anything lands.
    pub fn put_batch(&self, entries: &[(Bytes, Bytes)]) -> Result<(), KvError> {
        let mut group = self.group.write();
        if group.live == 0 {
            return Err(KvError::NoReplicaAvailable);
        }
        for (_, value) in entries {
            self.check_size(value)?;
        }
        for (key, value) in entries {
            group.insert(key.clone(), value.clone());
        }
        for (key, value) in entries {
            self.log_op(
                &group,
                &WalOp::Put {
                    key: key.clone(),
                    value: value.clone(),
                },
            );
        }
        Ok(())
    }

    /// Read from the first live member. The lookup borrows the caller's
    /// bytes — no key allocation.
    pub fn get(&self, key: impl AsRef<[u8]>) -> Result<Bytes, KvError> {
        let key = key.as_ref();
        let group = self.group.read();
        if group.live == 0 {
            return Err(KvError::NoReplicaAvailable);
        }
        group
            .read(key)
            .map(|h| h.value.clone())
            .ok_or_else(|| KvError::NotFound {
                key: String::from_utf8_lossy(key).into_owned(),
            })
    }

    /// Remove from every live member.
    pub fn remove(&self, key: impl AsRef<[u8]>) -> Result<(), KvError> {
        self.commit(&WalOp::Remove {
            key: Bytes::copy_from_slice(key.as_ref()),
        })
    }

    /// True when the first live member holds `key`.
    pub fn contains(&self, key: impl AsRef<[u8]>) -> bool {
        self.group.read().read(key.as_ref()).is_some()
    }

    /// Keys with prefix (ordered range walk), from the first live member.
    pub fn keys_with_prefix(&self, prefix: impl AsRef<[u8]>) -> Vec<Bytes> {
        let prefix = prefix.as_ref();
        self.keys_in_range(prefix, prefix_upper_bound(prefix).as_deref())
    }

    /// Full-scan prefix query, from the first live member — the
    /// equivalence oracle for [`ReplicatedKv::keys_with_prefix`]: walks
    /// every key in order and filters.
    pub fn keys_with_prefix_scan(&self, prefix: impl AsRef<[u8]>) -> Vec<Bytes> {
        let prefix = prefix.as_ref();
        self.group
            .read()
            .keys((Bound::Unbounded, Bound::Unbounded))
            .filter(|k| k.starts_with(prefix))
            .cloned()
            .collect()
    }

    /// Keys in `[lo, hi)`, ascending, from the first live member: one
    /// ordered range walk that touches only the keys in range.
    pub fn keys_in_range(&self, lo: &[u8], hi: Option<&[u8]>) -> Vec<Bytes> {
        let upper = hi.map_or(Bound::Unbounded, Bound::Excluded);
        self.group
            .read()
            .keys((Bound::Included(lo), upper))
            .cloned()
            .collect()
    }

    /// Entry count, from the first live member (0 when all are down).
    pub fn len(&self) -> usize {
        self.group.read().len()
    }

    /// True when no live member holds data.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Crash member `node`: its copy is wiped (memory is gone) and it
    /// stops serving until [`ReplicatedKv::recover_node`].
    pub fn fail_node(&self, node: usize) -> Result<(), KvError> {
        self.commit(&WalOp::FailNode(member_id(node)?))
    }

    /// Rejoin member `node`, resynchronizing its copy from the first live
    /// survivor. Fails when the whole group is down: with no donor left
    /// the data is lost, and [`ReplicatedKv::rejoin_empty`] is the only
    /// way back.
    pub fn recover_node(&self, node: usize) -> Result<(), KvError> {
        self.commit(&WalOp::RecoverNode(member_id(node)?))
    }

    /// Rejoin member `node` with an *empty* copy, without a donor. This is
    /// the total-outage escape hatch: when every member failed there is
    /// nothing to resynchronize from ([`ReplicatedKv::recover_node`]
    /// refuses), so the member comes back serving an empty store and the
    /// data loss is surfaced to callers as missing keys — Canary's restore
    /// path then falls back to rerun-from-start.
    pub fn rejoin_empty(&self, node: usize) -> Result<(), KvError> {
        self.commit(&WalOp::RejoinEmpty(member_id(node)?))
    }

    /// Apply `op` under the write lock, then log it.
    fn commit(&self, op: &WalOp) -> Result<(), KvError> {
        let mut group = self.group.write();
        self.apply(&mut group, op)?;
        self.log_op(&group, op);
        Ok(())
    }

    /// Apply one op to `group` without logging it. Every single put,
    /// remove and membership change takes effect here, acknowledged or
    /// replayed; only [`ReplicatedKv::put_batch`] inserts directly, after
    /// validating the whole batch. Membership changes bump the
    /// generation. Replay mirrors a historically acknowledged mutation,
    /// so it ignores the error of an op that cannot recur.
    fn apply(&self, group: &mut Group, op: &WalOp) -> Result<(), KvError> {
        let members = group.counts.len();
        let member = move |n: &u32| {
            let node = *n as usize;
            (node < members)
                .then_some(node)
                .ok_or(KvError::UnknownNode { node })
        };
        match op {
            WalOp::Put { key, value } => {
                group.reader().ok_or(KvError::NoReplicaAvailable)?;
                self.check_size(value)?;
                group.insert(key.clone(), value.clone());
                return Ok(());
            }
            WalOp::Remove { key } => {
                group.reader().ok_or(KvError::NoReplicaAvailable)?;
                group.remove(key);
                return Ok(());
            }
            WalOp::FailNode(n) => group.fail(member(n)?),
            WalOp::RecoverNode(n) => group.recover(member(n)?)?,
            WalOp::RejoinEmpty(n) => group.rejoin_empty(member(n)?),
        }
        self.bump_generation();
        Ok(())
    }

    /// Log one acknowledged mutation, compacting the WAL into a snapshot
    /// once enough records accumulate. No-op for memory-only groups.
    ///
    /// Compaction is deferred while live members have diverged (an
    /// empty-rejoined member lags its peers until it fails and resyncs
    /// from a donor): the snapshot fans one member's rows to every live
    /// member, which would erase that divergence. The log suffix keeps
    /// growing in the meantime and replay reproduces the divergence
    /// op-by-op, so correctness never depends on compacting.
    fn log_op(&self, group: &Group, op: &WalOp) {
        if let Some(wal) = &self.wal {
            wal.append(op);
            if wal.wants_snapshot_scaled(group.len() as u64) && group.converged() {
                wal.install_snapshot_owned(SnapshotState {
                    generation: self.generation(),
                    alive: (0..group.counts.len())
                        .map(|m| group.live & bit(m) != 0)
                        .collect(),
                    entries: group.entries(),
                });
            }
        }
    }

    /// Wipe the group and rebuild it from the attached WAL: load the
    /// snapshot (generation, liveness, one member's rows fanned to every
    /// live member), then replay the log suffix through the normal
    /// mutation paths so the generation counter ends exactly where it was.
    /// A torn tail is discarded and truncated away.
    fn restore_from_wal(&self) -> Result<WalRecovery, WalError> {
        let wal = self.wal.as_ref().expect("restore requires a WAL");
        let replay = wal.replay()?;
        let mut group = self.group.write();
        let members = group.counts.len();
        let mut restored = Group::new(members);
        let (base_generation, entries) = match &replay.snapshot {
            Some(snap) => {
                // A member past the end of the snapshot's liveness bitmap
                // keeps its current flag.
                restored.live = group.live;
                for (m, &alive) in snap.alive.iter().take(members).enumerate() {
                    restored.live = restored.live & !bit(m) | u64::from(alive) << m;
                }
                (snap.generation, snap.entries.as_slice())
            }
            None => (0, &[][..]),
        };
        self.generation.store(base_generation, Ordering::Release);
        for (key, value) in entries {
            let (key, value) = (key.clone(), value.clone());
            let _ = self.apply(&mut restored, &WalOp::Put { key, value });
        }
        for op in &replay.ops {
            let _ = self.apply(&mut restored, op);
        }
        *group = restored;
        if let Some(torn_at) = replay.torn_at {
            wal.truncate_log_to(torn_at);
        }
        Ok(WalRecovery {
            durable: true,
            snapshot_entries: entries.len() as u64,
            replayed_records: replay.ops.len() as u64,
            replayed_bytes: replay.replayed_bytes,
            torn_tail: replay.torn_at.is_some(),
        })
    }

    /// Simulate the control plane dying and restarting: all in-memory
    /// copies are lost, then the group is rebuilt from the WAL's
    /// snapshot and log. When `tear` is set, a torn partial record is
    /// first appended to the log — the write that was in flight when the
    /// process died — which recovery must discard.
    ///
    /// Without a WAL the restart is lossy: every member comes back live
    /// but empty (the `rejoin_empty` story, group-wide), and the
    /// generation is bumped so caches above notice the data changed.
    pub fn crash_and_recover(&self, tear: bool) -> Result<WalRecovery, WalError> {
        match &self.wal {
            Some(wal) => {
                if tear {
                    wal.append_torn(
                        &WalOp::Put {
                            key: Bytes::from_static(b"__inflight__"),
                            value: Bytes::from_static(&[0xAA; 32]),
                        },
                        11,
                    );
                }
                self.restore_from_wal()
            }
            None => {
                let mut group = self.group.write();
                *group = Group::new(group.counts.len());
                self.bump_generation();
                Ok(WalRecovery::default())
            }
        }
    }

    /// Verify all live members hold identical contents (test/debug aid).
    pub fn replicas_consistent(&self) -> bool {
        self.group.read().consistent()
    }

    /// Member `node`'s own copy of `key`, whether or not it is the reader.
    #[cfg(test)]
    fn member_get(&self, node: usize, key: &str) -> Option<Bytes> {
        let group = self.group.read();
        let held = group.map.get(key.as_bytes())?;
        (held.holders & bit(node) != 0).then(|| held.value.clone())
    }

    /// Entries member `node` holds.
    #[cfg(test)]
    fn member_len(&self, node: usize) -> usize {
        self.group.read().counts[node]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn group(n: usize) -> ReplicatedKv {
        ReplicatedKv::new(n, StoreConfig::default())
    }

    #[test]
    fn writes_reach_all_members() {
        let g = group(3);
        g.put("k", Bytes::from_static(b"v")).unwrap();
        assert!(g.replicas_consistent());
        assert_eq!(g.get("k").unwrap(), Bytes::from_static(b"v"));
    }

    #[test]
    fn replicas_share_one_value_buffer() {
        let g = group(3);
        let value = Bytes::from(vec![0xAB; 4096]);
        g.put_shared(Bytes::from_static(b"k"), value.clone())
            .unwrap();
        // Every member observes the same contents...
        assert!(g.replicas_consistent());
        // ...and each stored copy is the same underlying allocation as the
        // caller's handle, not a per-replica deep copy.
        for node in 0..3 {
            let stored = g.member_get(node, "k").unwrap();
            assert_eq!(stored, value);
            assert_eq!(stored.as_ptr(), value.as_ptr(), "member {node} deep-copied");
        }
    }

    #[test]
    fn survives_member_failure() {
        let g = group(3);
        g.put("k", Bytes::from_static(b"v")).unwrap();
        g.fail_node(0).unwrap();
        assert_eq!(g.live_count(), 2);
        assert_eq!(g.get("k").unwrap(), Bytes::from_static(b"v"));
        // Writes while degraded reach the survivors.
        g.put("k2", Bytes::from_static(b"w")).unwrap();
        assert!(g.replicas_consistent());
    }

    #[test]
    fn recovery_resynchronizes() {
        let g = group(3);
        g.put("a", Bytes::from_static(b"1")).unwrap();
        g.fail_node(1).unwrap();
        g.put("b", Bytes::from_static(b"2")).unwrap();
        g.recover_node(1).unwrap();
        assert_eq!(g.live_count(), 3);
        assert!(g.replicas_consistent());
        assert_eq!(g.member_len(1), 2);
    }

    #[test]
    fn generation_moves_only_on_membership_events() {
        let g = group(2);
        let g0 = g.generation();
        g.put("k", Bytes::from_static(b"v")).unwrap();
        g.get("k").unwrap();
        g.remove("k").unwrap();
        assert_eq!(g.generation(), g0, "plain ops must not move generation");
        g.fail_node(0).unwrap();
        let g1 = g.generation();
        assert!(g1 > g0);
        g.recover_node(0).unwrap();
        let g2 = g.generation();
        assert!(g2 > g1);
        g.fail_node(0).unwrap();
        g.rejoin_empty(0).unwrap();
        assert!(g.generation() > g2);
    }

    #[test]
    fn total_outage_is_detected() {
        let g = group(2);
        g.put("k", Bytes::from_static(b"v")).unwrap();
        g.fail_node(0).unwrap();
        g.fail_node(1).unwrap();
        assert_eq!(g.get("k"), Err(KvError::NoReplicaAvailable));
        assert_eq!(
            g.put("k", Bytes::from_static(b"v")),
            Err(KvError::NoReplicaAvailable)
        );
        // Recovery is impossible without a donor.
        assert_eq!(g.recover_node(0), Err(KvError::NoReplicaAvailable));
    }

    #[test]
    fn unknown_node_rejected() {
        let g = group(2);
        assert_eq!(g.fail_node(9), Err(KvError::UnknownNode { node: 9 }));
        assert_eq!(g.recover_node(9), Err(KvError::UnknownNode { node: 9 }));
        assert_eq!(g.rejoin_empty(9), Err(KvError::UnknownNode { node: 9 }));
        assert!(g.is_live(9).is_err());
    }

    #[test]
    fn rejoin_empty_restores_liveness_not_data() {
        let g = group(2);
        g.put("k", Bytes::from_static(b"v")).unwrap();
        g.fail_node(0).unwrap();
        g.fail_node(1).unwrap();
        assert_eq!(g.recover_node(0), Err(KvError::NoReplicaAvailable));
        g.rejoin_empty(0).unwrap();
        assert_eq!(g.live_count(), 1);
        // The group serves again, but the old data is gone for good.
        assert!(!g.contains("k"));
        g.put("k2", Bytes::from_static(b"w")).unwrap();
        assert_eq!(g.get("k2").unwrap(), Bytes::from_static(b"w"));
        // The second member can now resync from the rejoined one.
        g.recover_node(1).unwrap();
        assert!(g.replicas_consistent());
    }

    #[test]
    fn remove_propagates() {
        let g = group(3);
        g.put("k", Bytes::from_static(b"v")).unwrap();
        g.remove("k").unwrap();
        assert!(!g.contains("k"));
        assert!(g.replicas_consistent());
        assert!(g.is_empty());
    }

    fn durable_group(n: usize, snapshot_every: u64) -> ReplicatedKv {
        ReplicatedKv::durable(
            n,
            StoreConfig::default(),
            crate::wal::WalConfig { snapshot_every },
        )
    }

    #[test]
    fn durable_crash_recovery_restores_data_liveness_and_generation() {
        let g = durable_group(3, 1_000_000);
        g.put("a", Bytes::from_static(b"1")).unwrap();
        g.fail_node(1).unwrap();
        g.put("b", Bytes::from_static(b"2")).unwrap();
        g.remove("a").unwrap();
        let generation = g.generation();
        let recovery = g.crash_and_recover(true).unwrap();
        assert!(recovery.durable);
        assert!(recovery.torn_tail, "torn in-flight write must be detected");
        assert_eq!(recovery.replayed_records, 4);
        assert_eq!(g.generation(), generation, "generation restored exactly");
        assert!(!g.is_live(1).unwrap(), "liveness bitmap restored");
        assert_eq!(g.live_count(), 2);
        assert!(!g.contains("a"));
        assert_eq!(g.get("b").unwrap(), Bytes::from_static(b"2"));
        assert!(g.replicas_consistent());
        // The torn tail was truncated away: the log keeps accepting writes
        // and a second crash still recovers cleanly.
        g.put("c", Bytes::from_static(b"3")).unwrap();
        let again = g.crash_and_recover(false).unwrap();
        assert!(!again.torn_tail);
        assert_eq!(g.get("c").unwrap(), Bytes::from_static(b"3"));
    }

    #[test]
    fn durable_recovery_goes_through_snapshots() {
        // snapshot_every=2 forces many compactions; recovery must land on
        // the same state as an uncompacted log would.
        let g = durable_group(3, 2);
        for i in 0..20 {
            g.put(format!("k{i}"), Bytes::from(vec![i as u8])).unwrap();
        }
        g.fail_node(0).unwrap();
        g.put("late", Bytes::from_static(b"x")).unwrap();
        assert!(g.wal().unwrap().stats().snapshots_installed > 0);
        g.crash_and_recover(true).unwrap();
        assert_eq!(g.len(), 21);
        assert!(!g.is_live(0).unwrap());
        assert!(g.replicas_consistent());
    }

    #[test]
    fn crash_without_wal_loses_everything_but_serves_again() {
        let g = group(2);
        g.put("k", Bytes::from_static(b"v")).unwrap();
        let g0 = g.generation();
        let recovery = g.crash_and_recover(true).unwrap();
        assert!(!recovery.durable);
        assert_eq!(recovery.replayed_records, 0);
        assert!(!g.contains("k"), "memory-only restart is lossy");
        assert_eq!(g.live_count(), 2);
        assert!(g.generation() > g0, "caches must notice the loss");
        g.put("k2", Bytes::from_static(b"w")).unwrap();
        assert_eq!(g.get("k2").unwrap(), Bytes::from_static(b"w"));
    }

    #[test]
    fn open_rebuilds_a_fresh_group_from_an_existing_wal() {
        let g = durable_group(2, 3);
        g.put("a", Bytes::from_static(b"1")).unwrap();
        g.fail_node(0).unwrap();
        g.recover_node(0).unwrap();
        g.put("b", Bytes::from_static(b"2")).unwrap();
        let image = g.wal().unwrap().to_bytes();
        let wal = Arc::new(
            crate::wal::Wal::from_bytes(&image, crate::wal::WalConfig { snapshot_every: 3 })
                .unwrap(),
        );
        let (reopened, recovery) = ReplicatedKv::open(2, StoreConfig::default(), wal).unwrap();
        assert!(recovery.durable);
        assert_eq!(reopened.generation(), g.generation());
        assert_eq!(reopened.len(), g.len());
        assert_eq!(reopened.get("a").unwrap(), Bytes::from_static(b"1"));
        assert_eq!(reopened.get("b").unwrap(), Bytes::from_static(b"2"));
        assert!(reopened.replicas_consistent());
    }

    #[test]
    fn degraded_then_recovered_consistency_under_concurrency() {
        use std::sync::Arc;
        let g = Arc::new(group(3));
        let writer = {
            let g = Arc::clone(&g);
            std::thread::spawn(move || {
                for i in 0..200 {
                    g.put(format!("k{i}"), Bytes::from(vec![i as u8])).unwrap();
                }
            })
        };
        writer.join().unwrap();
        g.fail_node(2).unwrap();
        for i in 200..300 {
            g.put(format!("k{i}"), Bytes::from(vec![i as u8])).unwrap();
        }
        g.recover_node(2).unwrap();
        assert!(g.replicas_consistent());
        assert_eq!(g.len(), 300);
    }
}
