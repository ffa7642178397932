//! The latest-*n* checkpoint window (Algorithm 1 lines 13–16), checked
//! through the Checkpointing Module that keeps it per function.

mod tests {
    use crate::checkpoint::{build_payload, CheckpointingModule};
    use crate::config::CanaryConfig;
    use crate::db::CanaryDb;
    use canary_cluster::StorageHierarchy;
    use canary_sim::SimTime;
    use std::sync::Arc;

    /// A module keeping `window` checkpoints per function, and its
    /// database.
    fn module(window: usize) -> (CheckpointingModule, Arc<CanaryDb>) {
        let db = Arc::new(CanaryDb::new(3));
        let config = CanaryConfig {
            ckpt_window: window,
            ..Default::default()
        };
        let m = CheckpointingModule::new(config, StorageHierarchy::default(), Arc::clone(&db));
        (m, db)
    }

    /// Ids of `fn_id`'s checkpoint rows, oldest first.
    fn row_ids(db: &CanaryDb, fn_id: u64) -> Vec<u64> {
        db.checkpoints_of(fn_id)
            .unwrap()
            .iter()
            .map(|r| r.ckpt_id)
            .collect()
    }

    /// Chunk references held by the manifests of `fn_id`'s checkpoints
    /// `ids` (unknown ids hold none).
    fn manifest_refs(m: &CheckpointingModule, fn_id: u64, ids: std::ops::Range<u64>) -> u64 {
        ids.filter_map(|id| m.chunk_hashes(fn_id, id))
            .map(|h| h.len() as u64)
            .sum()
    }

    #[test]
    fn retains_latest_n() {
        let (mut m, db) = module(3);
        let evicted: Vec<Option<u64>> = (0..5u32)
            .map(|s| m.record(0, 1, s, 1024, SimTime::ZERO).unwrap())
            .collect();
        assert_eq!(evicted, vec![None, None, None, Some(0), Some(1)]);
        assert_eq!(m.retained(1), 3);
        assert_eq!(m.restore_payload(1, &|_| false).unwrap().0, 4);
        assert_eq!(row_ids(&db, 1), vec![2, 3, 4]);
        for id in 0..5 {
            assert_eq!(m.chunk_hashes(1, id).is_some(), id >= 2);
        }
    }

    #[test]
    fn default_window_is_three() {
        let mut m = CheckpointingModule::new(
            CanaryConfig::default(),
            StorageHierarchy::default(),
            Arc::new(CanaryDb::new(3)),
        );
        assert_eq!(m.window_size(), 3);
        for s in 0..4u32 {
            m.record(0, 1, s, 1024, SimTime::ZERO).unwrap();
        }
        assert_eq!(m.retained(1), 3);
    }

    #[test]
    fn functions_are_independent() {
        let (mut m, db) = module(2);
        m.record(0, 1, 0, 1024, SimTime::ZERO).unwrap();
        m.record(0, 2, 0, 1024, SimTime::ZERO).unwrap();
        m.record(0, 1, 1, 1024, SimTime::ZERO).unwrap();
        assert_eq!(m.retained(1), 2);
        assert_eq!(m.retained(2), 1);
        assert_eq!(m.retained(3), 0);
        assert!(m.restore_lookup(3, false, &|_| false).info.is_none());
        // Ids count per function, and a full window evicts only its own
        // function's oldest checkpoint.
        assert_eq!(m.record(0, 1, 2, 1024, SimTime::ZERO).unwrap(), Some(0));
        assert_eq!(row_ids(&db, 1), vec![1, 2]);
        assert_eq!(row_ids(&db, 2), vec![0]);
    }

    #[test]
    fn shrink_evicts_immediately() {
        let (mut m, db) = module(3);
        m.adjust_window_for(1024, 50); // small + frequent: 5
        for fn_id in [70u64, 71] {
            for s in 0..5u32 {
                m.record(0, fn_id, s, 2048, SimTime::ZERO).unwrap();
            }
        }
        let rows = db.checkpoints_of(70).unwrap();
        m.adjust_window_for(100 * 1024 * 1024, 50); // huge payloads: 2
        for fn_id in [70u64, 71] {
            assert_eq!(m.retained(fn_id), 2);
            assert_eq!(row_ids(&db, fn_id), vec![3, 4], "evicted rows are deleted");
            assert_eq!(
                manifest_refs(&m, fn_id, 0..3),
                0,
                "evicted manifests are dropped"
            );
        }
        for row in &rows[..3] {
            assert!(
                db.get_payload(&row.location).is_err(),
                "evicted payloads are deleted"
            );
        }
        let retained = manifest_refs(&m, 70, 3..5) + manifest_refs(&m, 71, 3..5);
        assert_eq!(m.chunk_store().total_refs(), retained);
        // The newest stays restorable, and so does the oldest survivor,
        // whose delta base now resolves through the ghost.
        let newest = m.restore_payload(70, &|_| false).unwrap();
        assert_eq!(newest, (4, build_payload(70, 4, 2048, SimTime::ZERO, 64)));
        let oldest = m.restore_payload(70, &|c| c == 4).unwrap();
        assert_eq!(oldest, (3, build_payload(70, 3, 2048, SimTime::ZERO, 64)));
    }

    #[test]
    fn grow_keeps_existing() {
        let (mut m, db) = module(3);
        for s in 0..3u32 {
            m.record(0, 72, s, 2048, SimTime::ZERO).unwrap();
        }
        m.adjust_window_for(1024, 50); // 3 -> 5
        assert_eq!(m.retained(72), 3);
        for s in 3..5u32 {
            assert_eq!(m.record(0, 72, s, 2048, SimTime::ZERO).unwrap(), None);
        }
        assert_eq!(m.retained(72), 5);
        assert_eq!(m.record(0, 72, 5, 2048, SimTime::ZERO).unwrap(), Some(0));
        assert_eq!(db.checkpoints_of(72).unwrap().len(), 5);
        assert_eq!(m.retained(73), 0, "other functions are untouched");
    }

    #[test]
    fn forget_clears_function() {
        let (mut m, db) = module(3);
        for s in 0..3u32 {
            m.record(0, 7, s, 1024, SimTime::ZERO).unwrap();
            m.record(0, 8, s, 1024, SimTime::ZERO).unwrap();
        }
        m.forget(7).unwrap();
        assert_eq!(m.retained(7), 0);
        assert!(row_ids(&db, 7).is_empty());
        assert_eq!(manifest_refs(&m, 7, 0..3), 0);
        assert_eq!(m.retained(8), 3, "other functions keep their window");
        assert_eq!(m.chunk_store().total_refs(), manifest_refs(&m, 8, 0..3));
        // Forgetting a forgotten function is a no-op.
        m.forget(7).unwrap();
        assert_eq!(row_ids(&db, 8), vec![0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "invalid Canary configuration")]
    fn zero_window_rejected() {
        module(0);
    }
}
