//! Property-based tests for the KV-store substrate.

use bytes::Bytes;
use canary_kvstore::{KvStore, ReplicatedKv, StoreConfig};
use proptest::prelude::*;

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
        let store = KvStore::new(StoreConfig { entry_limit: u64::MAX, ..StoreConfig::default() });
        let mut reference = std::collections::HashMap::new();
        for (key, is_put, val) in ops {
            let k = format!("k{key}");
            if is_put {
                store.put(&k, Bytes::from(vec![val])).unwrap();
                reference.insert(k, val);
            } else {
                store.remove(&k);
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
        let store = KvStore::new(StoreConfig { entry_limit: u64::MAX, ..StoreConfig::default() });
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
    /// inside a batch included — last write wins), removes, and clears;
    /// contents always match a reference map driven by the same ops, and
    /// the snapshot comes out in key order, which the WAL snapshot bytes
    /// depend on.
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
        let store = KvStore::new(StoreConfig { entry_limit: u64::MAX, ..StoreConfig::default() });
        let mut reference = std::collections::BTreeMap::new();
        for (kind, entries) in ops {
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
                    store.remove(&k);
                    reference.remove(k.as_slice());
                }
                _ => {
                    store.clear();
                    reference.clear();
                }
            }
            // The entry count, a fresh snapshot walk, and the reference
            // model must all agree.
            prop_assert_eq!(store.len(), store.snapshot().len());
            prop_assert_eq!(store.len(), reference.len());
        }
        // No sort: the snapshot must already be in key order, like the
        // reference map's iteration.
        let snap = store.snapshot();
        let expect: Vec<(Bytes, Bytes)> =
            reference.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        prop_assert_eq!(snap, expect);
    }

    /// A batch containing an oversized value fails atomically: nothing is
    /// stored, the count does not move.
    #[test]
    fn oversized_batch_stores_nothing(split in 0usize..5, seed in any::<u8>()) {
        let store = KvStore::new(StoreConfig { entry_limit: 8, ..StoreConfig::default() });
        store.put("keep", Bytes::from_static(b"ok")).unwrap();
        let mut batch: Vec<(Bytes, Bytes)> = (0..5u8)
            .map(|i| (Bytes::from(vec![seed.wrapping_add(i)]), Bytes::from(vec![i; 4])))
            .collect();
        batch[split].1 = Bytes::from(vec![0u8; 9]); // over the limit
        prop_assert!(store.put_batch(&batch).is_err());
        prop_assert_eq!(store.len(), 1);
        prop_assert_eq!(store.snapshot().len(), 1);
    }
}
