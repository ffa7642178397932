//! Engine hot-path profiler: where does the engine itself spend host
//! time?
//!
//! Enabled via [`crate::RunConfig::profile`]; the run loop then wraps
//! every event dispatch with a wall-clock timer (host time — simulated
//! time never advances inside a handler) and an allocation counter, and
//! the run result carries a [`HotPathProfile`] with one row per
//! [`crate::Event`] kind. The rows tile the loop: each dispatch is
//! billed to exactly one kind, so the per-kind dispatch counts sum to
//! [`crate::RunCounters::events_dispatched`].
//!
//! Allocation attribution needs a counting global allocator, which a
//! library cannot install. Binaries that have one (the bench harnesses)
//! register its counter through [`install_alloc_counter`]; without a
//! hook the alloc columns read zero and everything else still works.

use std::sync::OnceLock;

/// Process-wide allocation-count hook. Set once per process.
static ALLOC_HOOK: OnceLock<fn() -> u64> = OnceLock::new();

/// Register a monotonically-increasing allocation counter (typically
/// backed by a counting `#[global_allocator]` in the calling binary).
/// The first registration wins; later calls are ignored.
pub fn install_alloc_counter(counter: fn() -> u64) {
    let _ = ALLOC_HOOK.set(counter);
}

/// Current allocation count, or 0 when no hook is installed.
pub(crate) fn alloc_count() -> u64 {
    ALLOC_HOOK.get().map_or(0, |f| f())
}

/// One event kind's share of the engine's hot path.
#[derive(Debug, Clone, Default)]
pub struct HotPathRow {
    /// Event-kind label (stable across runs).
    pub event: String,
    /// Times an event of this kind was dispatched.
    pub dispatches: u64,
    /// Cumulative host wall-clock time spent in the handler, ns.
    pub wall_ns: u64,
    /// Heap allocations performed by the handler (0 without a hook).
    pub allocs: u64,
}

/// The run's hot-path report: per-event-kind dispatch counts, handler
/// cost, and allocation attribution.
#[derive(Debug, Clone, Default)]
pub struct HotPathProfile {
    /// True when [`crate::RunConfig::profile`] was on.
    pub enabled: bool,
    /// One row per event kind, in dispatch-table order. Kinds that never
    /// fired keep all-zero rows so the schema is stable.
    pub rows: Vec<HotPathRow>,
}

impl HotPathProfile {
    /// Total dispatches across all kinds.
    pub fn total_dispatches(&self) -> u64 {
        self.rows.iter().map(|r| r.dispatches).sum()
    }

    /// Total handler wall time across all kinds, ns.
    pub fn total_wall_ns(&self) -> u64 {
        self.rows.iter().map(|r| r.wall_ns).sum()
    }

    /// Total attributed allocations across all kinds.
    pub fn total_allocs(&self) -> u64 {
        self.rows.iter().map(|r| r.allocs).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_sum_rows() {
        let p = HotPathProfile {
            enabled: true,
            rows: vec![
                HotPathRow {
                    event: "a".into(),
                    dispatches: 2,
                    wall_ns: 10,
                    allocs: 1,
                },
                HotPathRow {
                    event: "b".into(),
                    dispatches: 3,
                    wall_ns: 5,
                    allocs: 0,
                },
            ],
        };
        assert_eq!(p.total_dispatches(), 5);
        assert_eq!(p.total_wall_ns(), 15);
        assert_eq!(p.total_allocs(), 1);
    }

    #[test]
    fn missing_hook_reads_zero_until_installed() {
        // Can't assert much about the process-global hook from a unit
        // test (another test may have installed one); the contract is
        // just "never panics".
        let _ = alloc_count();
    }
}
