//! Ordered key-value store.
//!
//! The single-node building block of the replicated store: one ordered
//! map from byte keys to byte values with a per-entry size limit,
//! mirroring how Canary uses Apache Ignite — application states keyed by
//! function ID, values capped by the database entry limit (Algorithm 1's
//! `db_limit`).
//!
//! Keys are raw bytes ([`Bytes`]), not strings: the metadata fast path
//! stores fixed-size typed keys (table tag + big-endian ids) that never
//! touch the heap on lookup, while string callers keep working through
//! the `AsRef<[u8]>` API. The map is ordered, so prefix and range queries
//! walk only the matching keys ([`KvStore::keys_in_range`]) instead of
//! scanning the whole table — the full scan survives as
//! [`KvStore::keys_with_prefix_scan`], the equivalence oracle.

use crate::error::KvError;
use bytes::Bytes;
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::ops::Bound;

/// Store configuration.
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Ignored: every store is one ordered map. Kept so that callers
    /// which still set it by field keep compiling.
    pub shards: usize,
    /// Per-entry value size limit in bytes; `u64::MAX` disables the check.
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

/// An ordered `Bytes -> Bytes` map safe for concurrent use.
#[derive(Debug)]
pub struct KvStore {
    map: RwLock<BTreeMap<Bytes, Bytes>>,
    entry_limit: u64,
}

impl KvStore {
    /// Create a store with the given configuration.
    pub fn new(config: StoreConfig) -> Self {
        KvStore {
            map: RwLock::new(BTreeMap::new()),
            entry_limit: config.entry_limit,
        }
    }

    /// Store with default configuration.
    pub fn with_defaults() -> Self {
        Self::new(StoreConfig::default())
    }

    /// The configured per-entry limit.
    pub fn entry_limit(&self) -> u64 {
        self.entry_limit
    }

    fn check_size(&self, value: &Bytes) -> Result<(), KvError> {
        if value.len() as u64 > self.entry_limit {
            return Err(KvError::EntryTooLarge {
                size: value.len() as u64,
                limit: self.entry_limit,
            });
        }
        Ok(())
    }

    /// Insert or replace `key`. Fails with [`KvError::EntryTooLarge`] if
    /// the value exceeds the entry limit (the caller then spills the data
    /// to a storage tier and stores a location record instead).
    pub fn put(&self, key: impl AsRef<[u8]>, value: Bytes) -> Result<(), KvError> {
        let key = key.as_ref();
        self.put_shared(Bytes::copy_from_slice(key), value)
    }

    /// Insert or replace using an already-owned key handle. The refcounted
    /// key is stored as-is, so a replica group can fan one key allocation
    /// out to every member instead of re-allocating per copy.
    pub fn put_shared(&self, key: Bytes, value: Bytes) -> Result<(), KvError> {
        self.check_size(&value)?;
        self.map.write().insert(key, value);
        Ok(())
    }

    /// Group-commit write batch: insert every entry under one write lock.
    /// Entries land in slice order (last write to a key wins, exactly as
    /// the equivalent sequence of [`KvStore::put_shared`] calls), and the
    /// whole batch is validated against the entry limit up front — a
    /// batch containing an oversized value fails atomically, storing
    /// nothing. Key and value handles are refcount-shared, never copied.
    pub fn put_batch(&self, entries: &[(Bytes, Bytes)]) -> Result<(), KvError> {
        for (_, value) in entries {
            self.check_size(value)?;
        }
        let mut map = self.map.write();
        for (key, value) in entries {
            map.insert(key.clone(), value.clone());
        }
        Ok(())
    }

    /// Fetch the value under `key`. The lookup borrows the caller's bytes
    /// — no key allocation.
    pub fn get(&self, key: impl AsRef<[u8]>) -> Result<Bytes, KvError> {
        let key = key.as_ref();
        self.map
            .read()
            .get(key)
            .cloned()
            .ok_or_else(|| KvError::NotFound {
                key: String::from_utf8_lossy(key).into_owned(),
            })
    }

    /// Remove `key`, returning its value if present.
    pub fn remove(&self, key: impl AsRef<[u8]>) -> Option<Bytes> {
        self.map.write().remove(key.as_ref())
    }

    /// True when `key` is present.
    pub fn contains(&self, key: impl AsRef<[u8]>) -> bool {
        self.map.read().contains_key(key.as_ref())
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.map.read().len()
    }

    /// True when the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total stored value bytes.
    pub fn total_bytes(&self) -> u64 {
        self.map.read().values().map(|v| v.len() as u64).sum()
    }

    /// All keys in `[lo, hi)`, ascending: one ordered range walk that
    /// touches only the matching keys.
    pub fn keys_in_range(&self, lo: &[u8], hi: Option<&[u8]>) -> Vec<Bytes> {
        let upper = match hi {
            Some(h) => Bound::Excluded(h),
            None => Bound::Unbounded,
        };
        self.map
            .read()
            .range::<[u8], _>((Bound::Included(lo), upper))
            .map(|(k, _)| k.clone())
            .collect()
    }

    /// All keys starting with `prefix`, ascending — ordered range
    /// iteration, not a scan.
    pub fn keys_with_prefix(&self, prefix: impl AsRef<[u8]>) -> Vec<Bytes> {
        let prefix = prefix.as_ref();
        self.keys_in_range(prefix, prefix_upper_bound(prefix).as_deref())
    }

    /// Full-scan prefix query, retained as the equivalence oracle for
    /// [`KvStore::keys_with_prefix`]: walks every key in order and
    /// filters.
    pub fn keys_with_prefix_scan(&self, prefix: impl AsRef<[u8]>) -> Vec<Bytes> {
        let prefix = prefix.as_ref();
        self.map
            .read()
            .keys()
            .filter(|k| k.as_ref().starts_with(prefix))
            .cloned()
            .collect()
    }

    /// Every entry in key order (used to rebuild a recovered replica and
    /// to compact the WAL, whose snapshot bytes depend on the order).
    pub fn snapshot(&self) -> Vec<(Bytes, Bytes)> {
        self.map
            .read()
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }

    /// Remove every entry.
    pub fn clear(&self) {
        self.map.write().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn put_get_remove() {
        let store = KvStore::with_defaults();
        store.put("a", Bytes::from_static(b"1")).unwrap();
        assert_eq!(store.get("a").unwrap(), Bytes::from_static(b"1"));
        assert!(store.contains("a"));
        assert_eq!(store.remove("a").unwrap(), Bytes::from_static(b"1"));
        assert!(matches!(store.get("a"), Err(KvError::NotFound { .. })));
    }

    #[test]
    fn binary_keys_work() {
        let store = KvStore::with_defaults();
        let key = [0x04u8, 0, 0, 0, 0, 0, 0, 0, 7];
        store.put(key, Bytes::from_static(b"row")).unwrap();
        assert!(store.contains(key));
        assert_eq!(store.get(key).unwrap(), Bytes::from_static(b"row"));
    }

    #[test]
    fn entry_limit_enforced() {
        let store = KvStore::new(StoreConfig {
            entry_limit: 8,
            ..StoreConfig::default()
        });
        assert!(store.put("ok", Bytes::from(vec![0u8; 8])).is_ok());
        let err = store.put("big", Bytes::from(vec![0u8; 9])).unwrap_err();
        assert_eq!(err, KvError::EntryTooLarge { size: 9, limit: 8 });
        assert!(!store.contains("big"));
    }

    #[test]
    fn overwrite_replaces() {
        let store = KvStore::with_defaults();
        store.put("k", Bytes::from_static(b"v1")).unwrap();
        store.put("k", Bytes::from_static(b"v2")).unwrap();
        assert_eq!(store.get("k").unwrap(), Bytes::from_static(b"v2"));
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn prefix_range_sorted() {
        let store = KvStore::with_defaults();
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
        let store = KvStore::with_defaults();
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
        let store = KvStore::with_defaults();
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
        let store = KvStore::with_defaults();
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
        let store = KvStore::with_defaults();
        assert!(store.is_empty());
        store.put("a", Bytes::from(vec![0u8; 10])).unwrap();
        store.put("b", Bytes::from(vec![0u8; 20])).unwrap();
        assert_eq!(store.len(), 2);
        assert_eq!(store.total_bytes(), 30);
        store.clear();
        assert!(store.is_empty());
        assert_eq!(store.total_bytes(), 0);
    }

    #[test]
    fn concurrent_writers_and_readers() {
        let store = Arc::new(KvStore::with_defaults());
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
    }

    #[test]
    fn snapshot_is_complete_and_sorted() {
        let store = KvStore::with_defaults();
        for i in (0..50).rev() {
            store
                .put(format!("k{i:02}"), Bytes::from(vec![i as u8]))
                .unwrap();
        }
        let snap = store.snapshot();
        assert_eq!(snap.len(), 50);
        assert!(snap.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn put_shared_stores_the_exact_handle() {
        let store = KvStore::with_defaults();
        let value = Bytes::from(vec![7u8; 128]);
        store
            .put_shared(Bytes::from_static(b"k"), value.clone())
            .unwrap();
        // The stored value is the same refcounted buffer, not a copy.
        assert_eq!(store.get("k").unwrap().as_ptr(), value.as_ptr());
    }
}
