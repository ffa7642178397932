//! A run allocates exactly the same sequence of blocks every time.
//!
//! Simulated outcomes are a pure function of the configuration; this
//! test holds the host side to the same standard. A map whose order is
//! seeded per process (`std`'s `RandomState`) drops, drains and visits
//! its entries in a different order in every run, which reorders the
//! run's frees and allocations. No outcome moves, but the heap fragments
//! differently and the process's peak resident set wanders from run to
//! run. The simulator's maps therefore use `canary_sim::hash`, and this
//! test records the size and alignment of every allocation, reallocation
//! and free a run makes on its thread, twice in one process, and requires
//! the two tapes to be equal. `RandomState` seeds each map afresh, so a
//! map whose order reaches the allocator (such as the causal-link index)
//! makes the two tapes differ.

use canary_cluster::{ChaosSpec, Cluster, ControllerCrashSpec, FailureModel, StoreOutageSpec};
use canary_core::{CanaryConfig, CanaryStrategy, ReplicationStrategyKind};
use canary_experiments::{open_loop_jobs, trace_to_jsonl};
use canary_platform::{run, RunConfig};
use canary_sim::SimDuration;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// FNV-1a state of this thread's tape and its length, while recording.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Tape {
    hash: u64,
    ops: u64,
}

thread_local! {
    static TAPE: Cell<Option<Tape>> = const { Cell::new(None) };
}

/// Append one `(op, size, align)` triple to this thread's tape, if it is
/// recording.
fn record(op: u64, size: usize, align: usize) {
    let _ = TAPE.try_with(|tape| {
        if let Some(mut t) = tape.get() {
            for word in [op, size as u64, align as u64] {
                t.hash = (t.hash ^ word).wrapping_mul(0x0100_0000_01b3);
            }
            t.ops += 1;
            tape.set(Some(t));
        }
    });
}

struct Recording;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; recording touches only a const-initialized thread-local
// `Cell` and never allocates.
unsafe impl GlobalAlloc for Recording {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(1, layout.size(), layout.align());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        record(2, layout.size(), layout.align());
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(3, layout.size(), new_size);
        // SAFETY: `ptr` came from `System` and the caller upholds
        // `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Recording = Recording;

/// The tape of everything `work` allocates and frees on this thread.
fn tape(work: impl FnOnce()) -> Tape {
    TAPE.with(|t| {
        t.set(Some(Tape {
            hash: 0xcbf2_9ce4_8422_2325,
            ops: 0,
        }))
    });
    work();
    TAPE.with(|t| t.take()).expect("recording")
}

/// An open-loop Canary run with live migration under every fault class,
/// trace and causal links on: the benchmark's `open-chaos` shape at 200
/// jobs. Setup, run, trace export and every drop are on the tape.
fn open_chaos_run() {
    let mut canary = CanaryConfig::with_replication(ReplicationStrategyKind::Dynamic);
    canary.migrate = true;
    let mut strategy = CanaryStrategy::new(canary);
    let jobs = open_loop_jobs(4.5, 200, 11);
    let failure = FailureModel::with_error_rate(0.3).with_node_failures(0.5);
    let mut config = RunConfig::new(Cluster::heterogeneous(32), failure, 7);
    config.node_failure_horizon = SimDuration::from_secs(45);
    config.max_inflight = Some(64);
    config.chaos = ChaosSpec {
        straggler_rate: 0.2,
        corruption_rate: 0.35,
        store_outages: (0..3)
            .map(|k| StoreOutageSpec {
                member: k,
                from_s: 3 + 15 * u64::from(k),
                rejoin_s: Some(8 + 15 * u64::from(k)),
            })
            .collect(),
        controller_crashes: vec![ControllerCrashSpec { at_us: 20_500_000 }],
        ..ChaosSpec::default()
    };
    config.trace = true;
    config.causal = true;
    let result = run(config, jobs, &mut strategy);
    assert_eq!(result.completed_count(), 200);
    drop(trace_to_jsonl(&result.trace));
}

#[test]
fn a_run_allocates_the_same_sequence_every_time() {
    let first = tape(open_chaos_run);
    let second = tape(open_chaos_run);
    assert!(first.ops > 10_000, "the run allocates: {first:?}");
    assert_eq!(
        first, second,
        "two runs of one configuration allocated differently"
    );
}
