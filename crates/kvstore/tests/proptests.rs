//! Property-based tests for the KV-store substrate.

use bytes::Bytes;
use canary_kvstore::{KvError, ReplicatedKv, StoreConfig, WalConfig};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// An operation against the replicated store.
#[derive(Debug, Clone)]
enum Op {
    Put(u8, u8),
    Remove(u8),
    FailNode(u8),
    RecoverNode(u8),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u8>(), any::<u8>()).prop_map(|(k, v)| Op::Put(k, v)),
        any::<u8>().prop_map(Op::Remove),
        (0u8..3).prop_map(Op::FailNode),
        (0u8..3).prop_map(Op::RecoverNode),
    ]
}

proptest! {
    /// The store agrees with a reference HashMap under arbitrary
    /// put/remove interleavings.
    #[test]
    fn store_matches_reference(ops in proptest::collection::vec((any::<u8>(), any::<bool>(), any::<u8>()), 0..200)) {
        let store = ReplicatedKv::new(3, StoreConfig { entry_limit: u64::MAX, ..StoreConfig::default() });
        let mut reference = std::collections::HashMap::new();
        for (key, is_put, val) in ops {
            let k = format!("k{key}");
            if is_put {
                store.put(&k, Bytes::from(vec![val])).unwrap();
                reference.insert(k, val);
            } else {
                store.remove(&k).unwrap();
                reference.remove(&k);
            }
        }
        prop_assert_eq!(store.len(), reference.len());
        for (k, v) in &reference {
            prop_assert_eq!(store.get(k).unwrap(), Bytes::from(vec![*v]));
        }
    }

    /// Live members of a replica group always hold identical contents,
    /// under arbitrary puts/removes/crashes/recoveries — as long as at
    /// least one member survived each step.
    #[test]
    fn replicas_always_consistent(ops in proptest::collection::vec(op_strategy(), 0..120)) {
        let kv = ReplicatedKv::new(3, StoreConfig::default());
        for op in ops {
            match op {
                Op::Put(k, v) => {
                    let _ = kv.put(format!("k{k}"), Bytes::from(vec![v]));
                }
                Op::Remove(k) => {
                    let _ = kv.remove(format!("k{k}"));
                }
                Op::FailNode(n) => {
                    // Keep at least one member alive so data never fully
                    // vanishes (total loss is covered by unit tests).
                    if kv.live_count() > 1 {
                        let _ = kv.fail_node(n as usize);
                    }
                }
                Op::RecoverNode(n) => {
                    let _ = kv.recover_node(n as usize);
                }
            }
            prop_assert!(kv.replicas_consistent());
        }
    }

    /// Ordered range iteration returns exactly what the old filtered
    /// full scan returned, for arbitrary binary key sets and prefixes —
    /// including empty prefixes, prefixes at the key-space boundaries
    /// (0x00.., 0xFF..), and prefixes longer than any stored key.
    #[test]
    fn prefix_range_equals_filtered_scan(
        keys in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..6), 0..60),
        prefix in proptest::collection::vec(any::<u8>(), 0..4),
    ) {
        let store = ReplicatedKv::new(3, StoreConfig { entry_limit: u64::MAX, ..StoreConfig::default() });
        for k in &keys {
            store.put(k, Bytes::new()).unwrap();
        }
        let ranged = store.keys_with_prefix(&prefix);
        let scanned = store.keys_with_prefix_scan(&prefix);
        prop_assert_eq!(&ranged, &scanned);
        // Both are sorted and contain only matching keys.
        prop_assert!(ranged.windows(2).all(|w| w[0] < w[1]));
        prop_assert!(ranged.iter().all(|k| k.as_ref().starts_with(&prefix[..])));
    }
}

proptest! {
    /// The entry count stays exactly in sync with the map's contents
    /// under arbitrary single puts, group-commit batches (duplicate keys
    /// inside a batch included — last write wins), removes, and clears
    /// (every member failed, then rejoined empty); contents always match
    /// a reference map driven by the same ops, and each WAL snapshot
    /// holds the contents in key order, which its bytes depend on.
    #[test]
    fn len_counter_matches_shards(
        ops in proptest::collection::vec(
            prop_oneof![
                // Single put: (key seed, value byte)
                (any::<u8>(), any::<u8>()).prop_map(|(k, v)| (0u8, vec![(k, v)])),
                // Batch put: up to 6 entries, duplicates allowed
                proptest::collection::vec((any::<u8>(), any::<u8>()), 1..6)
                    .prop_map(|es| (1u8, es)),
                // Remove: key seed
                any::<u8>().prop_map(|k| (2u8, vec![(k, 0)])),
                // Clear
                Just((3u8, vec![])),
            ],
            0..100,
        )
    ) {
        // snapshot_every = 1 compacts as often as the store size allows.
        let store = ReplicatedKv::durable(
            3,
            StoreConfig { entry_limit: u64::MAX, ..StoreConfig::default() },
            WalConfig { snapshot_every: 1 },
        );
        let wal = store.wal().unwrap();
        let mut reference = BTreeMap::new();
        for (kind, entries) in ops {
            let installed = wal.stats().snapshots_installed;
            match kind {
                0 | 1 => {
                    let batch: Vec<(Bytes, Bytes)> = entries
                        .iter()
                        .map(|&(k, v)| {
                            (Bytes::from(vec![k]), Bytes::from(vec![v, k]))
                        })
                        .collect();
                    store.put_batch(&batch).unwrap();
                    for (k, v) in batch {
                        reference.insert(k, v);
                    }
                }
                2 => {
                    let k = vec![entries[0].0];
                    store.remove(&k).unwrap();
                    reference.remove(k.as_slice());
                }
                _ => {
                    for node in 0..3 {
                        store.fail_node(node).unwrap();
                    }
                    for node in 0..3 {
                        store.rejoin_empty(node).unwrap();
                    }
                    reference.clear();
                }
            }
            // The entry count, a fresh walk, and the reference model must
            // all agree.
            prop_assert_eq!(store.len(), store.keys_with_prefix(b"").len());
            prop_assert_eq!(store.len(), reference.len());
            // No sort: a snapshot taken during this op must already be in
            // key order, like the reference map's iteration.
            if wal.stats().snapshots_installed > installed {
                let snap = wal.replay().unwrap().snapshot.unwrap();
                let expect: Vec<(Bytes, Bytes)> =
                    reference.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
                prop_assert_eq!(snap.entries, expect);
            }
        }
    }

    /// A batch containing an oversized value fails atomically: nothing is
    /// stored, the count does not move.
    #[test]
    fn oversized_batch_stores_nothing(split in 0usize..5, seed in any::<u8>()) {
        let store = ReplicatedKv::new(3, StoreConfig { entry_limit: 8, ..StoreConfig::default() });
        store.put("keep", Bytes::from_static(b"ok")).unwrap();
        let mut batch: Vec<(Bytes, Bytes)> = (0..5u8)
            .map(|i| (Bytes::from(vec![seed.wrapping_add(i)]), Bytes::from(vec![i; 4])))
            .collect();
        batch[split].1 = Bytes::from(vec![0u8; 9]); // over the limit
        prop_assert!(store.put_batch(&batch).is_err());
        prop_assert_eq!(store.len(), 1);
        prop_assert_eq!(store.keys_with_prefix(b"").len(), 1);
        prop_assert!(store.replicas_consistent());
    }
}

/// Entry limit of the differential test's group; values one byte longer
/// are rejected.
const LIMIT: u64 = 8;

/// An operation of the differential test. Node indices run one past the
/// three members so the unknown-node path is taken too.
#[derive(Debug, Clone)]
enum GroupOp {
    /// Key seed, value byte, oversized value.
    Put(u8, u8, bool),
    /// Entries (duplicate keys allowed), and the index of an oversized
    /// value when there is one.
    PutBatch(Vec<(u8, u8)>, Option<usize>),
    Remove(u8),
    Fail(usize),
    Recover(usize),
    RejoinEmpty(usize),
    Crash,
}

fn group_op() -> impl Strategy<Value = GroupOp> {
    // One put in eight is oversized.
    let put = (0u8..12, any::<u8>(), 0u8..8).prop_map(|(k, v, big)| GroupOp::Put(k, v, big == 0));
    // Puts are listed twice, so they are drawn twice as often as the
    // other ops.
    prop_oneof![
        put.clone(),
        put,
        // An oversized index past the batch's end means none.
        (
            proptest::collection::vec((0u8..12, any::<u8>()), 1..5),
            0usize..12
        )
            .prop_map(|(entries, big)| {
                let big = (big < entries.len()).then_some(big);
                GroupOp::PutBatch(entries, big)
            }),
        (0u8..12).prop_map(GroupOp::Remove),
        (0usize..4).prop_map(GroupOp::Fail),
        (0usize..4).prop_map(GroupOp::Recover),
        (0usize..4).prop_map(GroupOp::RejoinEmpty),
        Just(GroupOp::Crash),
    ]
}

/// Two-byte keys, so one-byte prefixes select a table of four.
fn group_key(seed: u8) -> Vec<u8> {
    vec![seed / 4, seed % 4]
}

fn group_value(seed: u8, byte: u8, oversized: bool) -> Vec<u8> {
    if oversized {
        vec![byte; LIMIT as usize + 1]
    } else {
        vec![byte, seed]
    }
}

/// The replica group as one map per member: the reference for the
/// group's single map with holder masks.
#[derive(Default)]
struct MemberModel {
    members: [BTreeMap<Vec<u8>, Vec<u8>>; 3],
    alive: [bool; 3],
    generation: u64,
}

impl MemberModel {
    fn new() -> Self {
        MemberModel {
            alive: [true; 3],
            ..MemberModel::default()
        }
    }

    fn first_live(&self) -> Option<usize> {
        self.alive.iter().position(|&a| a)
    }

    fn node(node: usize) -> Result<usize, KvError> {
        (node < 3)
            .then_some(node)
            .ok_or(KvError::UnknownNode { node })
    }

    fn put_batch(&mut self, entries: &[(Vec<u8>, Vec<u8>)]) -> Result<(), KvError> {
        self.first_live().ok_or(KvError::NoReplicaAvailable)?;
        if let Some((_, v)) = entries.iter().find(|(_, v)| v.len() as u64 > LIMIT) {
            return Err(KvError::EntryTooLarge {
                size: v.len() as u64,
                limit: LIMIT,
            });
        }
        for (member, _) in self.members.iter_mut().zip(self.alive).filter(|(_, a)| *a) {
            member.extend(entries.iter().cloned());
        }
        Ok(())
    }

    fn remove(&mut self, key: &[u8]) -> Result<(), KvError> {
        self.first_live().ok_or(KvError::NoReplicaAvailable)?;
        for (member, _) in self.members.iter_mut().zip(self.alive).filter(|(_, a)| *a) {
            member.remove(key);
        }
        Ok(())
    }

    fn fail(&mut self, node: usize) -> Result<(), KvError> {
        let node = Self::node(node)?;
        self.alive[node] = false;
        self.members[node].clear();
        self.generation += 1;
        Ok(())
    }

    fn recover(&mut self, node: usize) -> Result<(), KvError> {
        let node = Self::node(node)?;
        let donor = self.first_live().ok_or(KvError::NoReplicaAvailable)?;
        let copy = self.members[donor].clone();
        self.members[node].extend(copy);
        self.alive[node] = true;
        self.generation += 1;
        Ok(())
    }

    fn rejoin_empty(&mut self, node: usize) -> Result<(), KvError> {
        let node = Self::node(node)?;
        self.members[node].clear();
        self.alive[node] = true;
        self.generation += 1;
        Ok(())
    }

    /// The contents reads see: the first live member's.
    fn view(&self) -> Option<&BTreeMap<Vec<u8>, Vec<u8>>> {
        self.first_live().map(|m| &self.members[m])
    }

    fn consistent(&self) -> bool {
        let mut live = (0..3).filter(|&m| self.alive[m]).map(|m| &self.members[m]);
        let first = live.next();
        live.all(|m| Some(m) == first)
    }
}

proptest! {
    /// The group's one map with holder masks answers every read, and
    /// every op's result, exactly as three separate member maps would,
    /// under puts, group-commit batches (duplicate keys, and oversized
    /// values that store nothing), removes, failures, recoveries, empty
    /// rejoins of live and failed members (total outages included) and
    /// crash-restarts that rebuild the group from its WAL. Empty rejoins
    /// make the members diverge, which defers compaction, so the
    /// restarts replay divergent logs as well as snapshots.
    #[test]
    fn replica_group_matches_member_model(ops in proptest::collection::vec(group_op(), 0..80)) {
        let kv = ReplicatedKv::durable(
            3,
            StoreConfig { entry_limit: LIMIT, ..StoreConfig::default() },
            WalConfig { snapshot_every: 2 },
        );
        let mut model = MemberModel::new();
        for op in ops {
            let (got, want) = match &op {
                GroupOp::Put(k, v, big) => {
                    let (key, value) = (group_key(*k), group_value(*k, *v, *big));
                    let got = kv.put(&key, Bytes::from(value.clone()));
                    (got, model.put_batch(&[(key, value)]))
                }
                GroupOp::PutBatch(entries, big) => {
                    let entries: Vec<(Vec<u8>, Vec<u8>)> = entries
                        .iter()
                        .enumerate()
                        .map(|(i, &(k, v))| (group_key(k), group_value(k, v, *big == Some(i))))
                        .collect();
                    let batch: Vec<(Bytes, Bytes)> = entries
                        .iter()
                        .map(|(k, v)| (Bytes::from(k.clone()), Bytes::from(v.clone())))
                        .collect();
                    (kv.put_batch(&batch), model.put_batch(&entries))
                }
                GroupOp::Remove(k) => {
                    let key = group_key(*k);
                    (kv.remove(&key), model.remove(&key))
                }
                GroupOp::Fail(n) => (kv.fail_node(*n), model.fail(*n)),
                GroupOp::Recover(n) => (kv.recover_node(*n), model.recover(*n)),
                GroupOp::RejoinEmpty(n) => (kv.rejoin_empty(*n), model.rejoin_empty(*n)),
                GroupOp::Crash => {
                    let recovery = kv.crash_and_recover(true).unwrap();
                    prop_assert!(recovery.durable && recovery.torn_tail);
                    (Ok(()), Ok(()))
                }
            };
            prop_assert_eq!(got, want, "result of {:?}", op);
            let view = model.view();
            for k in 0..12 {
                let key = group_key(k);
                let want = match view {
                    None => Err(KvError::NoReplicaAvailable),
                    Some(m) => m.get(&key).map(|v| Bytes::from(v.clone())).ok_or_else(|| {
                        KvError::NotFound { key: String::from_utf8_lossy(&key).into_owned() }
                    }),
                };
                prop_assert_eq!(kv.get(&key), want, "get {:?} after {:?}", key, op);
                prop_assert_eq!(
                    kv.contains(&key),
                    view.is_some_and(|m| m.contains_key(&key)),
                    "contains {:?} after {:?}", key, op
                );
            }
            prop_assert_eq!(kv.len(), view.map_or(0, |m| m.len()), "len after {:?}", op);
            for prefix in [&[][..], &[0], &[1], &[2]] {
                let want: Vec<Bytes> = view
                    .into_iter()
                    .flat_map(|m| m.keys())
                    .filter(|k| k.starts_with(prefix))
                    .map(|k| Bytes::from(k.clone()))
                    .collect();
                prop_assert_eq!(kv.keys_with_prefix(prefix), want, "prefix {:?} after {:?}", prefix, op);
            }
            prop_assert_eq!(kv.live_count(), model.alive.iter().filter(|&&a| a).count());
            for n in 0..4 {
                prop_assert_eq!(kv.is_live(n), MemberModel::node(n).map(|m| model.alive[m]));
            }
            prop_assert_eq!(kv.replicas_consistent(), model.consistent(), "after {:?}", op);
            prop_assert_eq!(kv.generation(), model.generation, "after {:?}", op);
        }
    }
}
