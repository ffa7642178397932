//! Property-based tests of the latest-*n* checkpoint window the
//! Checkpointing Module keeps per function.

use canary_cluster::StorageHierarchy;
use canary_core::{CanaryConfig, CanaryDb, CheckpointingModule};
use canary_sim::SimTime;
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

fn module(window: usize) -> CheckpointingModule {
    let config = CanaryConfig {
        ckpt_window: window,
        ..Default::default()
    };
    CheckpointingModule::new(
        config,
        StorageHierarchy::default(),
        Arc::new(CanaryDb::new(3)),
    )
}

/// Id of `fn_id`'s newest restorable checkpoint.
fn newest(m: &CheckpointingModule, fn_id: u64) -> Option<u64> {
    m.restore_payload(fn_id, &|_| false).map(|(id, _)| id)
}

proptest! {
    /// The window never retains more than `n` checkpoints per function,
    /// evicts exactly the oldest on overflow, and always retains the
    /// newest.
    #[test]
    fn window_bounds_hold(
        n in 1usize..6,
        pushes in proptest::collection::vec(0u64..8, 1..80),
    ) {
        let mut m = module(n);
        let mut counters: HashMap<u64, u64> = HashMap::new();
        for fn_id in pushes {
            let next = counters.entry(fn_id).or_insert(0);
            let evicted = m.record(0, fn_id, *next as u32, 1024, SimTime::ZERO).unwrap();
            *next += 1;
            let count = m.retained(fn_id) as u64;
            prop_assert_eq!(count, (*next).min(n as u64));
            prop_assert_eq!(evicted, (*next > n as u64).then(|| *next - 1 - n as u64));
            prop_assert_eq!(newest(&m, fn_id), Some(*next - 1));
            // Retained ids are contiguous and end at the newest.
            for id in 0..*next {
                prop_assert_eq!(m.chunk_hashes(fn_id, id).is_some(), id >= *next - count);
            }
        }
    }

    /// Resizing the window through every target of `adjust_window_for`
    /// never loses the newest checkpoint: a shrink evicts down to the new
    /// size at once, a grow keeps every retained checkpoint.
    #[test]
    fn resize_preserves_latest(
        base in 1usize..6,
        sizes in proptest::collection::vec((any::<bool>(), 0usize..80), 1..20),
    ) {
        let mut m = module(base);
        for s in 0..10u32 {
            m.record(0, 1, s, 1024, SimTime::ZERO).unwrap();
        }
        for (huge, states) in sizes {
            let before = m.retained(1);
            let spec_bytes = if huge { 100 * 1024 * 1024 } else { 1024 };
            m.adjust_window_for(spec_bytes, states);
            let n = m.window_size();
            prop_assert_eq!(n, if huge { 2 } else if states >= 40 { 5 } else { base });
            prop_assert_eq!(m.retained(1), before.min(n));
            prop_assert_eq!(newest(&m, 1), Some(9));
        }
    }
}
