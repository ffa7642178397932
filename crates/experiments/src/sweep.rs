//! Parallel parameter-sweep executor.
//!
//! Each experiment point is an independent deterministic simulation, so
//! sweeps parallelize embarrassingly: a fixed pool of scoped threads
//! pulls indexed work items from one shared iterator and stores each
//! result at its item's index, so the output keeps input order.

use std::num::NonZeroUsize;
use std::sync::Mutex;

/// Map `f` over `items` in parallel, preserving order. Uses up to
/// `available_parallelism` worker threads (capped by the item count).
pub fn parallel_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let workers = std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(4);
    parallel_map_with_workers(items, workers, f)
}

/// [`parallel_map`] with an explicit worker-pool size. The pool is capped
/// by the item count (idle workers are never spawned); `workers == 0` is
/// treated as 1 and runs inline on the caller's thread.
pub fn parallel_map_with_workers<T, R, F>(items: Vec<T>, workers: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    let workers = workers.max(1).min(n);
    if workers <= 1 {
        return items.into_iter().map(f).collect();
    }
    // Neither lock is held while `f` runs, so no panic can poison one.
    const HELD: &str = "no code panics while holding a sweep lock";
    let work = Mutex::new(items.into_iter().enumerate());
    let results = Mutex::new((0..n).map(|_| None).collect::<Vec<Option<R>>>());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let next = work.lock().expect(HELD).next();
                let Some((idx, item)) = next else { return };
                let out = f(item);
                results.lock().expect(HELD)[idx] = Some(out);
            });
        }
    });
    let results = results.into_inner().expect(HELD);
    results
        .into_iter()
        .map(|r| r.expect("every item ran"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn preserves_order() {
        let out = parallel_map((0..500).collect(), |x: i32| x * 2);
        assert_eq!(out, (0..500).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input() {
        let out: Vec<i32> = parallel_map(Vec::<i32>::new(), |x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn single_item() {
        assert_eq!(parallel_map(vec![7], |x: i32| x + 1), vec![8]);
    }

    #[test]
    fn preserves_order_under_many_workers() {
        // Far more workers than cores: contention over the shared queue
        // must not reorder the reassembled results.
        let out = parallel_map_with_workers((0..1000).collect(), 32, |x: i32| x * x);
        assert_eq!(out, (0..1000).map(|x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn worker_count_capped_by_item_count() {
        use std::collections::HashSet;
        use std::sync::Mutex;
        // 3 items, 64 requested workers: at most 3 threads may touch work.
        let ids = Mutex::new(HashSet::new());
        let out = parallel_map_with_workers((0..3).collect(), 64, |x: i32| {
            ids.lock().unwrap().insert(std::thread::current().id());
            std::thread::sleep(std::time::Duration::from_millis(5));
            x + 1
        });
        assert_eq!(out, vec![1, 2, 3]);
        assert!(
            ids.lock().unwrap().len() <= 3,
            "more worker threads than items"
        );
    }

    #[test]
    fn zero_workers_runs_inline() {
        let caller = std::thread::current().id();
        let out = parallel_map_with_workers((0..8).collect(), 0, |x: i32| {
            assert_eq!(std::thread::current().id(), caller);
            x - 1
        });
        assert_eq!(out, (-1..7).collect::<Vec<_>>());
    }

    #[test]
    fn actually_runs_every_item_once() {
        let counter = AtomicUsize::new(0);
        let out = parallel_map((0..256).collect(), |x: usize| {
            counter.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(counter.load(Ordering::Relaxed), 256);
        assert_eq!(out.len(), 256);
    }

    #[test]
    fn uses_multiple_threads_when_available() {
        // Observe at least two distinct thread ids for a slow-ish map
        // (skipped on single-core machines by construction of the cap).
        if std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            < 2
        {
            return;
        }
        use std::collections::HashSet;
        use std::sync::Mutex;
        let ids = Mutex::new(HashSet::new());
        parallel_map((0..64).collect(), |_: i32| {
            ids.lock().unwrap().insert(std::thread::current().id());
            std::thread::sleep(std::time::Duration::from_millis(1));
        });
        assert!(ids.lock().unwrap().len() >= 2);
    }
}
