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
//! A write fans one refcounted key/value pair out to every member —
//! members share the underlying buffers instead of deep-copying per
//! replica. Membership events (failure, recovery, empty rejoin) bump a
//! [generation counter](ReplicatedKv::generation) so caches layered above
//! the group can detect that the backing data may have changed under them.

use crate::error::KvError;
use crate::store::{KvStore, StoreConfig};
use crate::wal::{SnapshotState, Wal, WalConfig, WalError, WalOp};
use bytes::Bytes;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
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

/// A KV store replicated across cluster members.
#[derive(Debug)]
pub struct ReplicatedKv {
    members: Vec<KvStore>,
    alive: Vec<AtomicBool>,
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
        ReplicatedKv {
            members: (0..members).map(|_| KvStore::new(config.clone())).collect(),
            alive: (0..members).map(|_| AtomicBool::new(true)).collect(),
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
        self.members.len()
    }

    /// Number of live members.
    pub fn live_count(&self) -> usize {
        self.alive
            .iter()
            .filter(|a| a.load(Ordering::Acquire))
            .count()
    }

    /// True when member `node` is live.
    pub fn is_live(&self, node: usize) -> Result<bool, KvError> {
        self.alive
            .get(node)
            .map(|a| a.load(Ordering::Acquire))
            .ok_or(KvError::UnknownNode { node })
    }

    /// Current membership generation. Moves whenever a node fails,
    /// recovers, or rejoins empty; stable across plain reads and writes.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    fn bump_generation(&self) {
        self.generation.fetch_add(1, Ordering::AcqRel);
    }

    fn first_live(&self) -> Option<usize> {
        self.alive.iter().position(|a| a.load(Ordering::Acquire))
    }

    /// Write to every live member. Fails if the value exceeds the entry
    /// limit or the whole group is down.
    ///
    /// The key is materialized once; every member then stores a shallow
    /// refcounted clone of the same key and value buffers.
    pub fn put(&self, key: impl AsRef<[u8]>, value: Bytes) -> Result<(), KvError> {
        self.put_shared(Bytes::copy_from_slice(key.as_ref()), value)
    }

    /// [`ReplicatedKv::put`] with an already-owned key handle — the
    /// zero-copy entry point: no key bytes are copied at all, on any
    /// member.
    pub fn put_shared(&self, key: Bytes, value: Bytes) -> Result<(), KvError> {
        let mut wrote = false;
        for (store, alive) in self.members.iter().zip(&self.alive) {
            if alive.load(Ordering::Acquire) {
                store.put_shared(key.clone(), value.clone())?;
                wrote = true;
            }
        }
        if wrote {
            self.log_op(&WalOp::Put { key, value });
            Ok(())
        } else {
            Err(KvError::NoReplicaAvailable)
        }
    }

    /// Group-commit batch write: apply every entry to every live member
    /// (one write lock per member per batch, via [`KvStore::put_batch`]),
    /// then log one [`WalOp::Put`] per entry in slice order. The WAL
    /// record stream is byte-identical to the equivalent sequence of
    /// [`ReplicatedKv::put_shared`] calls, so crash replay cannot tell
    /// batched and unbatched writers apart; the store-side application
    /// is atomic per member (an oversized value fails the whole batch
    /// before anything lands).
    pub fn put_batch(&self, entries: &[(Bytes, Bytes)]) -> Result<(), KvError> {
        let mut wrote = false;
        for (store, alive) in self.members.iter().zip(&self.alive) {
            if alive.load(Ordering::Acquire) {
                store.put_batch(entries)?;
                wrote = true;
            }
        }
        if wrote {
            for (key, value) in entries {
                self.log_op(&WalOp::Put {
                    key: key.clone(),
                    value: value.clone(),
                });
            }
            Ok(())
        } else {
            Err(KvError::NoReplicaAvailable)
        }
    }

    /// Read from the first live member.
    pub fn get(&self, key: impl AsRef<[u8]>) -> Result<Bytes, KvError> {
        let node = self.first_live().ok_or(KvError::NoReplicaAvailable)?;
        self.members[node].get(key)
    }

    /// Remove from every live member.
    pub fn remove(&self, key: impl AsRef<[u8]>) -> Result<(), KvError> {
        if self.first_live().is_none() {
            return Err(KvError::NoReplicaAvailable);
        }
        let key = key.as_ref();
        for (store, alive) in self.members.iter().zip(&self.alive) {
            if alive.load(Ordering::Acquire) {
                store.remove(key);
            }
        }
        self.log_op(&WalOp::Remove {
            key: Bytes::copy_from_slice(key),
        });
        Ok(())
    }

    /// True when any live member holds `key`.
    pub fn contains(&self, key: impl AsRef<[u8]>) -> bool {
        self.first_live()
            .map(|n| self.members[n].contains(key))
            .unwrap_or(false)
    }

    /// Keys with prefix (ordered range walk), from the first live member.
    pub fn keys_with_prefix(&self, prefix: impl AsRef<[u8]>) -> Vec<Bytes> {
        self.first_live()
            .map(|n| self.members[n].keys_with_prefix(prefix))
            .unwrap_or_default()
    }

    /// Full-scan prefix oracle, from the first live member.
    pub fn keys_with_prefix_scan(&self, prefix: impl AsRef<[u8]>) -> Vec<Bytes> {
        self.first_live()
            .map(|n| self.members[n].keys_with_prefix_scan(prefix))
            .unwrap_or_default()
    }

    /// Keys in `[lo, hi)`, from the first live member.
    pub fn keys_in_range(&self, lo: &[u8], hi: Option<&[u8]>) -> Vec<Bytes> {
        self.first_live()
            .map(|n| self.members[n].keys_in_range(lo, hi))
            .unwrap_or_default()
    }

    /// Entry count, from the first live member (0 when all are down).
    pub fn len(&self) -> usize {
        self.first_live()
            .map(|n| self.members[n].len())
            .unwrap_or(0)
    }

    /// True when no live member holds data.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Crash member `node`: its copy is wiped (memory is gone) and it
    /// stops serving until [`ReplicatedKv::recover_node`].
    pub fn fail_node(&self, node: usize) -> Result<(), KvError> {
        let flag = self.alive.get(node).ok_or(KvError::UnknownNode { node })?;
        flag.store(false, Ordering::Release);
        self.members[node].clear();
        self.bump_generation();
        self.log_op(&WalOp::FailNode(node as u32));
        Ok(())
    }

    /// Rejoin member `node`, resynchronizing its copy from the first live
    /// survivor. Fails when the whole group is down: with no donor left
    /// the data is lost, and [`ReplicatedKv::rejoin_empty`] is the only
    /// way back.
    pub fn recover_node(&self, node: usize) -> Result<(), KvError> {
        if node >= self.members.len() {
            return Err(KvError::UnknownNode { node });
        }
        let donor = self.first_live().ok_or(KvError::NoReplicaAvailable)?;
        if donor != node {
            for (k, v) in self.members[donor].snapshot() {
                self.members[node].put_shared(k, v)?;
            }
        }
        self.alive[node].store(true, Ordering::Release);
        self.bump_generation();
        self.log_op(&WalOp::RecoverNode(node as u32));
        Ok(())
    }

    /// Rejoin member `node` with an *empty* copy, without a donor. This is
    /// the total-outage escape hatch: when every member failed there is
    /// nothing to resynchronize from ([`ReplicatedKv::recover_node`]
    /// refuses), so the member comes back serving an empty store and the
    /// data loss is surfaced to callers as missing keys — Canary's restore
    /// path then falls back to rerun-from-start.
    pub fn rejoin_empty(&self, node: usize) -> Result<(), KvError> {
        let flag = self.alive.get(node).ok_or(KvError::UnknownNode { node })?;
        self.members[node].clear();
        flag.store(true, Ordering::Release);
        self.bump_generation();
        self.log_op(&WalOp::RejoinEmpty(node as u32));
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
    fn log_op(&self, op: &WalOp) {
        if let Some(wal) = &self.wal {
            wal.append(op);
            if wal.wants_snapshot_scaled(self.len() as u64) && self.live_members_converged() {
                wal.install_snapshot_owned(self.group_snapshot());
            }
        }
    }

    /// Exact O(members) form of [`ReplicatedKv::replicas_consistent`],
    /// used by the compaction gate so the check is not O(store) on every
    /// qualifying append.
    ///
    /// Equal entry counts across live members imply identical contents
    /// here because live-member divergence only ever arises from
    /// [`ReplicatedKv::rejoin_empty`] wiping one member: from that point
    /// every mutation (`put_shared`, `remove`) fans identically to all
    /// live members and [`ReplicatedKv::recover_node`] copies a full
    /// donor, so for any two live members one's key set is a subset of
    /// the other's (ordered by most-recent wipe time) with equal values
    /// on shared keys. A subset of equal size is the whole set — length
    /// equality is therefore not a heuristic but the full invariant.
    fn live_members_converged(&self) -> bool {
        let mut lens = self
            .members
            .iter()
            .zip(&self.alive)
            .filter(|(_, a)| a.load(Ordering::Acquire))
            .map(|(s, _)| s.len());
        let converged = match lens.next() {
            None => true,
            Some(first) => lens.all(|l| l == first),
        };
        debug_assert_eq!(
            converged,
            self.replicas_consistent(),
            "length gate must agree with the full-compare oracle"
        );
        converged
    }

    /// Capture the whole group state for a compacting snapshot: the
    /// generation, the liveness bitmap, and one live member's contents
    /// (the caller checks live members are identical; on a total outage
    /// the contents are empty, which is exactly the state to restore).
    fn group_snapshot(&self) -> SnapshotState {
        SnapshotState {
            generation: self.generation(),
            alive: self
                .alive
                .iter()
                .map(|a| a.load(Ordering::Acquire))
                .collect(),
            entries: self
                .first_live()
                .map(|n| self.members[n].snapshot())
                .unwrap_or_default(),
        }
    }

    /// Apply one replayed op without re-logging it. Replay mirrors a
    /// historically acknowledged mutation, so errors cannot recur; they
    /// are ignored rather than propagated.
    fn apply_replayed(&self, op: &WalOp) {
        match op {
            WalOp::Put { key, value } => {
                for (store, alive) in self.members.iter().zip(&self.alive) {
                    if alive.load(Ordering::Acquire) {
                        let _ = store.put_shared(key.clone(), value.clone());
                    }
                }
            }
            WalOp::Remove { key } => {
                for (store, alive) in self.members.iter().zip(&self.alive) {
                    if alive.load(Ordering::Acquire) {
                        store.remove(key);
                    }
                }
            }
            WalOp::FailNode(n) => {
                if let Some(flag) = self.alive.get(*n as usize) {
                    flag.store(false, Ordering::Release);
                    self.members[*n as usize].clear();
                    self.bump_generation();
                }
            }
            WalOp::RecoverNode(n) => {
                let node = *n as usize;
                if node < self.members.len() {
                    if let Some(donor) = self.first_live() {
                        if donor != node {
                            for (k, v) in self.members[donor].snapshot() {
                                let _ = self.members[node].put_shared(k, v);
                            }
                        }
                        self.alive[node].store(true, Ordering::Release);
                        self.bump_generation();
                    }
                }
            }
            WalOp::RejoinEmpty(n) => {
                if let Some(flag) = self.alive.get(*n as usize) {
                    self.members[*n as usize].clear();
                    flag.store(true, Ordering::Release);
                    self.bump_generation();
                }
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
        for member in &self.members {
            member.clear();
        }
        let (base_generation, alive, entries) = match &replay.snapshot {
            Some(snap) => (snap.generation, snap.alive.clone(), snap.entries.clone()),
            None => (0, vec![true; self.members.len()], Vec::new()),
        };
        self.generation.store(base_generation, Ordering::Release);
        for (flag, restored) in self.alive.iter().zip(&alive) {
            flag.store(*restored, Ordering::Release);
        }
        for (member, alive) in self.members.iter().zip(&self.alive) {
            if alive.load(Ordering::Acquire) {
                for (k, v) in &entries {
                    let _ = member.put_shared(k.clone(), v.clone());
                }
            }
        }
        for op in &replay.ops {
            self.apply_replayed(op);
        }
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
                for (member, alive) in self.members.iter().zip(&self.alive) {
                    member.clear();
                    alive.store(true, Ordering::Release);
                }
                self.bump_generation();
                Ok(WalRecovery::default())
            }
        }
    }

    /// Verify all live members hold identical contents (test/debug aid).
    pub fn replicas_consistent(&self) -> bool {
        let mut snapshots = self
            .members
            .iter()
            .zip(&self.alive)
            .filter(|(_, a)| a.load(Ordering::Acquire))
            .map(|(s, _)| s.snapshot());
        match snapshots.next() {
            None => true,
            Some(first) => snapshots.all(|s| s == first),
        }
    }

    #[cfg(test)]
    fn member(&self, node: usize) -> &KvStore {
        &self.members[node]
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
            let stored = g.member(node).get("k").unwrap();
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
        assert_eq!(g.member(1).len(), 2);
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
