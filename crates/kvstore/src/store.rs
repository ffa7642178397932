//! Replica group configuration and key-range helpers.
//!
//! Keys are raw bytes ([`Bytes`](bytes::Bytes)), not strings: the
//! metadata fast path stores fixed-size typed keys (table tag +
//! big-endian ids) that never touch the heap on lookup, while string
//! callers keep working through the `AsRef<[u8]>` API. The group's map is
//! ordered, so prefix and range queries walk only the matching keys
//! ([`ReplicatedKv::keys_in_range`](crate::ReplicatedKv::keys_in_range))
//! instead of scanning the whole table — the full scan survives as
//! [`ReplicatedKv::keys_with_prefix_scan`](crate::ReplicatedKv::keys_with_prefix_scan),
//! the equivalence oracle.

/// Replica group configuration.
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Ignored: every replica group is one ordered map. Kept so that
    /// callers which still set it by field keep compiling.
    pub shards: usize,
    /// Per-entry value size limit in bytes (Algorithm 1's `db_limit`);
    /// `u64::MAX` disables the check.
    pub entry_limit: u64,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            shards: 1,
            entry_limit: 8 * 1024 * 1024,
        }
    }
}

/// Smallest byte string strictly greater than every key starting with
/// `prefix`, or `None` when no such bound exists (prefix is empty or all
/// `0xFF`): increment the last non-`0xFF` byte and truncate after it.
pub(crate) fn prefix_upper_bound(prefix: &[u8]) -> Option<Vec<u8>> {
    let cut = prefix.iter().rposition(|&b| b != 0xFF)?;
    let mut hi = prefix[..=cut].to_vec();
    hi[cut] += 1;
    Some(hi)
}

#[cfg(test)]
mod tests {
    //! The single-map behaviour of a replica group: what one member's
    //! copy must do, checked through the group's API.

    use super::*;
    use crate::{KvError, ReplicatedKv, WalConfig};
    use bytes::Bytes;
    use std::sync::Arc;

    fn store() -> ReplicatedKv {
        ReplicatedKv::new(3, StoreConfig::default())
    }

    #[test]
    fn put_get_remove() {
        let store = store();
        store.put("a", Bytes::from_static(b"1")).unwrap();
        assert_eq!(store.get("a").unwrap(), Bytes::from_static(b"1"));
        assert!(store.contains("a"));
        store.remove("a").unwrap();
        assert!(!store.contains("a"));
        assert!(matches!(store.get("a"), Err(KvError::NotFound { .. })));
    }

    #[test]
    fn binary_keys_work() {
        let store = store();
        let key = [0x04u8, 0, 0, 0, 0, 0, 0, 0, 7];
        store.put(key, Bytes::from_static(b"row")).unwrap();
        assert!(store.contains(key));
        assert_eq!(store.get(key).unwrap(), Bytes::from_static(b"row"));
    }

    #[test]
    fn entry_limit_enforced() {
        let store = ReplicatedKv::new(
            3,
            StoreConfig {
                entry_limit: 8,
                ..StoreConfig::default()
            },
        );
        assert!(store.put("ok", Bytes::from(vec![0u8; 8])).is_ok());
        let err = store.put("big", Bytes::from(vec![0u8; 9])).unwrap_err();
        assert_eq!(err, KvError::EntryTooLarge { size: 9, limit: 8 });
        assert!(!store.contains("big"));
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn overwrite_replaces() {
        let store = store();
        store.put("k", Bytes::from_static(b"v1")).unwrap();
        store.put("k", Bytes::from_static(b"v2")).unwrap();
        assert_eq!(store.get("k").unwrap(), Bytes::from_static(b"v2"));
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn prefix_range_sorted() {
        let store = store();
        for k in ["fn1/ckpt/2", "fn1/ckpt/1", "fn2/ckpt/1", "fn1/state"] {
            store.put(k, Bytes::new()).unwrap();
        }
        assert_eq!(
            store.keys_with_prefix("fn1/ckpt/"),
            vec![
                Bytes::from_static(b"fn1/ckpt/1"),
                Bytes::from_static(b"fn1/ckpt/2")
            ]
        );
        assert_eq!(
            store.keys_with_prefix("fn1/ckpt/"),
            store.keys_with_prefix_scan("fn1/ckpt/")
        );
    }

    #[test]
    fn empty_prefix_returns_every_key_in_order() {
        let store = store();
        for k in ["b", "a", "c"] {
            store.put(k, Bytes::new()).unwrap();
        }
        let all = store.keys_with_prefix(b"");
        assert_eq!(
            all,
            vec![
                Bytes::from_static(b"a"),
                Bytes::from_static(b"b"),
                Bytes::from_static(b"c")
            ]
        );
        assert_eq!(all, store.keys_with_prefix_scan(b""));
    }

    #[test]
    fn prefix_at_key_space_boundaries() {
        let store = store();
        // Keys at both extremes of the byte ordering.
        store.put([0x00u8], Bytes::new()).unwrap();
        store.put([0x00u8, 0x01], Bytes::new()).unwrap();
        store.put([0xFFu8], Bytes::new()).unwrap();
        store.put([0xFFu8, 0xFF], Bytes::new()).unwrap();
        store.put([0xFFu8, 0xFF, 0x07], Bytes::new()).unwrap();
        // An all-0xFF prefix has no finite upper bound: the range runs to
        // the end of the key space.
        assert_eq!(prefix_upper_bound(&[0xFF, 0xFF]), None);
        assert_eq!(store.keys_with_prefix([0x00u8]).len(), 2);
        assert_eq!(store.keys_with_prefix([0xFFu8]).len(), 3);
        assert_eq!(store.keys_with_prefix([0xFFu8, 0xFF]).len(), 2);
        for prefix in [&[0x00u8][..], &[0xFF][..], &[0xFF, 0xFF][..]] {
            assert_eq!(
                store.keys_with_prefix(prefix),
                store.keys_with_prefix_scan(prefix),
                "prefix {prefix:?}"
            );
        }
    }

    #[test]
    fn interleaved_table_prefixes_stay_separate() {
        let store = store();
        // Two binary "tables" (tag byte + id) interleaved with a string
        // namespace, mimicking the metadata layout.
        for id in [3u8, 1, 2] {
            store.put([0x02, id], Bytes::new()).unwrap();
            store.put([0x03, id], Bytes::new()).unwrap();
        }
        store.put("payload/x", Bytes::new()).unwrap();
        let jobs = store.keys_with_prefix([0x02u8]);
        assert_eq!(jobs.len(), 3);
        assert!(jobs.windows(2).all(|w| w[0] < w[1]));
        assert!(jobs.iter().all(|k| k[0] == 0x02));
        assert_eq!(store.keys_with_prefix([0x03u8]).len(), 3);
        assert_eq!(store.keys_with_prefix("payload/").len(), 1);
        assert_eq!(
            store.keys_with_prefix([0x02u8]),
            store.keys_with_prefix_scan([0x02u8])
        );
    }

    #[test]
    fn accounting() {
        let store = store();
        assert!(store.is_empty());
        store.put("a", Bytes::from(vec![0u8; 10])).unwrap();
        store.put("b", Bytes::from(vec![0u8; 20])).unwrap();
        assert_eq!(store.len(), 2);
        let bytes: usize = store
            .keys_with_prefix(b"")
            .iter()
            .map(|k| store.get(k).unwrap().len())
            .sum();
        assert_eq!(bytes, 30);
        // A memory-only restart wipes every member.
        store.crash_and_recover(false).unwrap();
        assert!(store.is_empty());
        assert!(store.keys_with_prefix(b"").is_empty());
    }

    #[test]
    fn concurrent_writers_and_readers() {
        let store = Arc::new(store());
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let store = Arc::clone(&store);
                std::thread::spawn(move || {
                    for i in 0..500 {
                        let key = format!("t{t}/k{i}");
                        store.put(&key, Bytes::from(vec![t as u8; 64])).unwrap();
                        assert_eq!(store.get(&key).unwrap().len(), 64);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(store.len(), 8 * 500);
        assert!(store.replicas_consistent());
    }

    #[test]
    fn snapshot_is_complete_and_sorted() {
        // The 50th record reaches `snapshot_every` and compacts the log
        // into a snapshot of all 50 rows.
        let store =
            ReplicatedKv::durable(3, StoreConfig::default(), WalConfig { snapshot_every: 50 });
        for i in (0..50).rev() {
            store
                .put(format!("k{i:02}"), Bytes::from(vec![i as u8]))
                .unwrap();
        }
        let snap = store.wal().unwrap().replay().unwrap().snapshot.unwrap();
        assert_eq!(snap.entries.len(), 50);
        assert!(snap.entries.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn put_shared_stores_the_exact_handle() {
        let store = store();
        let value = Bytes::from(vec![7u8; 128]);
        store
            .put_shared(Bytes::from_static(b"k"), value.clone())
            .unwrap();
        // The stored value is the same refcounted buffer, not a copy.
        assert_eq!(store.get("k").unwrap().as_ptr(), value.as_ptr());
    }
}
