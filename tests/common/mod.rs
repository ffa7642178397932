//! Checks shared by several integration tests.

use canary_platform::{counters_from_trace, RunCounters, RunResult};

/// A run's counts are a fold over its trace: `counters_from_trace`
/// reproduces every traced `RunCounters` field, and the three
/// telemetry-only counts as the telemetry export reports them. The four
/// untraced counts are excluded by name. The run must record its trace
/// and telemetry.
pub fn assert_counts_fold_from_trace(r: &RunResult) {
    let folded = counters_from_trace(&r.trace);
    let traced = RunCounters {
        containers_created: 0,
        placement_retries: 0,
        chaos_events: 0,
        events_dispatched: 0,
        ..r.counters
    };
    assert_eq!(
        folded.run, traced,
        "{}: the run counters are not the fold of its trace",
        r.strategy
    );
    for (label, value) in [
        ("jobs_dequeued", folded.jobs_dequeued),
        ("store_rejoins", folded.store_rejoins),
        ("checkpoints_corrupted", folded.checkpoints_corrupted),
    ] {
        assert_eq!(
            value,
            r.telemetry.counter(label),
            "{}: telemetry row {label} is not the fold of its trace",
            r.strategy
        );
    }
}
