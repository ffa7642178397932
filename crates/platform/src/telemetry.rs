//! Run telemetry: phase latency histograms and counter rows.
//!
//! An opt-in observability layer alongside [`crate::trace`]. Where a
//! trace records *what happened* as an ordered event log, telemetry
//! aggregates *how long things took*: fixed-bucket latency histograms
//! per instrumented [`Phase`], all keyed on simulation time — no wall
//! clocks, so enabling telemetry never perturbs the simulated timeline.
//! Its counter rows are not counted here: the snapshot reads them from
//! the run's one counter registry ([`Counts`]) at run end.
//!
//! Zero-cost when disabled: every recording method first checks the
//! `enabled` flag set from [`crate::RunConfig::telemetry`] and returns
//! immediately, and the engine stores the struct inline (no allocation
//! beyond the empty maps). A run with telemetry off is byte-identical
//! to one that predates this module.
//!
//! Latencies enter either through the span API ([`Telemetry::span_start`]
//! / [`Telemetry::span_end`], for phases whose end is a later event) or
//! directly through [`Telemetry::observe`] (for phases whose duration is
//! known analytically, e.g. a checkpoint write cost).

use crate::accounting::Counts;
use canary_sim::hash::HashMap;
use canary_sim::{SimDuration, SimTime};
use std::collections::BTreeMap;
use std::fmt;

/// Instrumented lifecycle phases.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Phase {
    /// Controller admission: first launch request to execution start
    /// (queueing on the serialized controller + cold start).
    Admission,
    /// One checkpoint write (Algorithm 1's `ckp_i`, tier write + index
    /// update).
    CheckpointWrite,
    /// One checkpoint restore (tier read on the recovery path).
    CheckpointRestore,
    /// Replica/standby container creation to `Warm`.
    ReplicaColdStart,
    /// Recovery decision to execution resumed on a warm container.
    WarmResume,
    /// End-to-end recovery: attempt killed to execution resumed.
    RecoveryE2E,
}

impl Phase {
    /// All phases in display order.
    pub const ALL: [Phase; 6] = [
        Phase::Admission,
        Phase::CheckpointWrite,
        Phase::CheckpointRestore,
        Phase::ReplicaColdStart,
        Phase::WarmResume,
        Phase::RecoveryE2E,
    ];

    /// Stable label used in reports and JSONL export.
    pub fn label(self) -> &'static str {
        match self {
            Phase::Admission => "admission",
            Phase::CheckpointWrite => "checkpoint_write",
            Phase::CheckpointRestore => "checkpoint_restore",
            Phase::ReplicaColdStart => "replica_cold_start",
            Phase::WarmResume => "warm_resume",
            Phase::RecoveryE2E => "recovery_e2e",
        }
    }
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Store totals a strategy reports once at run end, beside the counter
/// registry's rows (they have no trace event).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Chunk bodies stored on first reference.
    pub chunks_written: u64,
    /// Chunk references satisfied by an already-stored body.
    pub chunks_deduped: u64,
}

/// The telemetry counter rows in export order: each stable label with its
/// value, read from the run's counter registry and the store totals.
fn counter_rows(c: &Counts, store: &StoreStats) -> [(&'static str, u64); 21] {
    let r = &c.run;
    [
        ("checkpoints_written", r.checkpoints_written),
        ("restores", r.restores),
        ("jobs_queued", r.jobs_queued),
        ("jobs_dequeued", c.jobs_dequeued),
        ("jobs_rejected", r.jobs_rejected),
        ("replicas_consumed", r.replicas_consumed),
        ("replicas_refreshed", r.replicas_refreshed),
        ("recoveries_planned", r.warm_recoveries + r.cold_recoveries),
        ("chaos_events", r.chaos_events),
        ("store_outages", r.store_outages),
        ("store_rejoins", c.store_rejoins),
        ("stragglers_injected", r.stragglers_injected),
        ("checkpoints_corrupted", c.checkpoints_corrupted),
        ("checkpoints_skipped", r.checkpoints_skipped),
        ("restore_fallbacks", r.restore_fallbacks),
        ("controller_crashes", r.controller_crashes),
        ("wal_records_replayed", r.wal_records_replayed),
        ("chunks_written", store.chunks_written),
        ("chunks_deduped", store.chunks_deduped),
        ("chunks_migrated", r.chunks_migrated),
        ("migrations", r.migrations),
    ]
}

/// Number of log2 buckets: bucket `i` holds durations in
/// `[2^(i-1), 2^i)` µs (bucket 0 holds `0..1` µs). 40 buckets cover up
/// to ~2^39 µs ≈ 6.4 simulated days, far beyond any run horizon.
const BUCKETS: usize = 40;

/// Fixed-bucket latency histogram over [`SimDuration`].
///
/// Log2 buckets in microseconds; percentiles are reported as the upper
/// bound of the bucket containing the requested rank, which bounds the
/// relative error at 2×. Exact minimum/maximum are tracked separately.
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: [u64; BUCKETS],
    count: u64,
    total_us: u64,
    max_us: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; BUCKETS],
            count: 0,
            total_us: 0,
            max_us: 0,
        }
    }
}

impl Histogram {
    fn bucket_index(us: u64) -> usize {
        if us == 0 {
            0
        } else {
            (((64 - us.leading_zeros()) as usize) + 1).min(BUCKETS) - 1
        }
    }

    /// Record one sample.
    pub fn record(&mut self, d: SimDuration) {
        let us = d.as_micros();
        self.buckets[Self::bucket_index(us)] += 1;
        self.count += 1;
        self.total_us = self.total_us.saturating_add(us);
        self.max_us = self.max_us.max(us);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn total(&self) -> SimDuration {
        SimDuration::from_micros(self.total_us)
    }

    /// Mean sample (zero when empty).
    pub fn mean(&self) -> SimDuration {
        match self.total_us.checked_div(self.count) {
            Some(us) => SimDuration::from_micros(us),
            None => SimDuration::ZERO,
        }
    }

    /// Exact maximum sample.
    pub fn max(&self) -> SimDuration {
        SimDuration::from_micros(self.max_us)
    }

    /// Approximate quantile `q` in `[0, 1]`: the upper bound of the
    /// bucket containing the rank (the exact max for the last occupied
    /// bucket, so `p100 == max`).
    pub fn quantile(&self, q: f64) -> SimDuration {
        if self.count == 0 {
            return SimDuration::ZERO;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                // Upper bound of bucket i, capped at the observed max.
                let upper = if i == 0 { 1 } else { 1u64 << i };
                return SimDuration::from_micros(upper.min(self.max_us).max(1));
            }
        }
        self.max()
    }

    /// Median (bucket-approximate).
    pub fn p50(&self) -> SimDuration {
        self.quantile(0.50)
    }

    /// 95th percentile (bucket-approximate).
    pub fn p95(&self) -> SimDuration {
        self.quantile(0.95)
    }

    /// 99th percentile (bucket-approximate).
    pub fn p99(&self) -> SimDuration {
        self.quantile(0.99)
    }
}

/// Aggregated statistics for one phase, as exported in snapshots.
#[derive(Debug, Clone)]
pub struct PhaseSummary {
    /// The phase.
    pub phase: Phase,
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples.
    pub total: SimDuration,
    /// Mean sample.
    pub mean: SimDuration,
    /// Median (bucket-approximate).
    pub p50: SimDuration,
    /// 95th percentile (bucket-approximate).
    pub p95: SimDuration,
    /// 99th percentile (bucket-approximate).
    pub p99: SimDuration,
    /// Exact maximum.
    pub max: SimDuration,
}

/// Per-table read/write counts from the Canary state database.
#[derive(Debug, Clone)]
pub struct TableStats {
    /// Table name.
    pub table: String,
    /// Reads served.
    pub reads: u64,
    /// Writes applied.
    pub writes: u64,
}

/// Immutable point-in-time export of a run's telemetry, carried in
/// [`crate::RunResult`].
#[derive(Debug, Clone, Default)]
pub struct TelemetrySnapshot {
    /// Whether telemetry was enabled for the run (all-zero otherwise).
    pub enabled: bool,
    /// One summary per phase with at least one sample, in
    /// [`Phase::ALL`] order.
    pub phases: Vec<PhaseSummary>,
    /// Non-zero counter rows as `(label, value)`, in the registry's
    /// fixed export order.
    pub counters: Vec<(String, u64)>,
    /// Per-table database traffic (Canary runs only), by table name.
    pub tables: Vec<TableStats>,
    /// Spans still open when the snapshot was taken — starts that never
    /// saw a matching end or cancel. Anything non-zero means a phase
    /// histogram silently lost samples.
    pub spans_orphaned: u64,
}

impl TelemetrySnapshot {
    /// Summary for a phase, if it recorded any samples.
    pub fn phase(&self, phase: Phase) -> Option<&PhaseSummary> {
        self.phases.iter().find(|p| p.phase == phase)
    }

    /// Counter value by label (0 when the row is absent).
    pub fn counter(&self, label: &str) -> u64 {
        self.counters
            .iter()
            .find(|(l, _)| l == label)
            .map_or(0, |&(_, v)| v)
    }
}

/// The live telemetry recorder owned by the engine.
///
/// Strategies reach it through `Platform::telemetry_mut`; the engine
/// snapshots it into the run result when the event queue drains.
#[derive(Debug, Default)]
pub struct Telemetry {
    enabled: bool,
    histograms: BTreeMap<Phase, Histogram>,
    /// Store totals reported at run end.
    store: StoreStats,
    /// Table traffic `(reads, writes)` by table name.
    tables: BTreeMap<String, (u64, u64)>,
    /// Open spans: `(phase, key)` → start time. Keys are caller-chosen
    /// (function id for recovery phases, container id for cold starts).
    open: HashMap<(Phase, u64), SimTime>,
}

impl Telemetry {
    /// New recorder; a disabled one ignores every recording call.
    pub fn new(enabled: bool) -> Self {
        Telemetry {
            enabled,
            ..Telemetry::default()
        }
    }

    /// Is recording active?
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Record a latency sample whose duration is known directly.
    pub fn observe(&mut self, phase: Phase, d: SimDuration) {
        if !self.enabled {
            return;
        }
        self.histograms.entry(phase).or_default().record(d);
    }

    /// Open a span. If a span with this key is already open the earlier
    /// start wins — so a recovery that fails again mid-recovery (e.g. a
    /// lost resume target) is measured from the *original* kill, which
    /// is what end-to-end recovery means.
    pub fn span_start(&mut self, phase: Phase, key: u64, at: SimTime) {
        if !self.enabled {
            return;
        }
        self.open.entry((phase, key)).or_insert(at);
    }

    /// Close a span and record its duration. No-op when no span with
    /// this key is open (e.g. spans opened before telemetry existed).
    pub fn span_end(&mut self, phase: Phase, key: u64, at: SimTime) {
        if !self.enabled {
            return;
        }
        if let Some(start) = self.open.remove(&(phase, key)) {
            self.histograms
                .entry(phase)
                .or_default()
                .record(at.saturating_since(start));
        }
    }

    /// Abandon an open span without recording (target died, run ended).
    pub fn span_cancel(&mut self, phase: Phase, key: u64) {
        self.open.remove(&(phase, key));
    }

    /// Spans currently open (started, neither ended nor cancelled). The
    /// engine asserts this drains to zero at run end.
    pub fn open_span_count(&self) -> usize {
        self.open.len()
    }

    /// Report a database table's cumulative read/write counts
    /// (overwrites any previous report for the table).
    pub fn set_table_stats(&mut self, table: &str, reads: u64, writes: u64) {
        if !self.enabled {
            return;
        }
        self.tables.insert(table.to_string(), (reads, writes));
    }

    /// Report the store totals (overwrites any previous report).
    pub fn set_store_stats(&mut self, stats: StoreStats) {
        if !self.enabled {
            return;
        }
        self.store = stats;
    }

    /// Live histogram for a phase, if any samples were recorded.
    pub fn histogram(&self, phase: Phase) -> Option<&Histogram> {
        self.histograms.get(&phase)
    }

    /// Export an immutable snapshot (deterministic ordering), reading the
    /// counter rows from the run's counter registry `counts`.
    pub fn snapshot(&self, counts: &Counts) -> TelemetrySnapshot {
        let phases = Phase::ALL
            .iter()
            .filter_map(|&phase| {
                let h = self.histograms.get(&phase)?;
                if h.count() == 0 {
                    return None;
                }
                Some(PhaseSummary {
                    phase,
                    count: h.count(),
                    total: h.total(),
                    mean: h.mean(),
                    p50: h.p50(),
                    p95: h.p95(),
                    p99: h.p99(),
                    max: h.max(),
                })
            })
            .collect();
        let counters = if self.enabled {
            counter_rows(counts, &self.store)
                .into_iter()
                .filter(|&(_, v)| v > 0)
                .map(|(label, v)| (label.to_string(), v))
                .collect()
        } else {
            Vec::new()
        };
        // The map iterates in name order, so the export order is
        // independent of report order.
        let tables: Vec<TableStats> = self
            .tables
            .iter()
            .map(|(table, &(reads, writes))| TableStats {
                table: table.clone(),
                reads,
                writes,
            })
            .collect();
        TelemetrySnapshot {
            enabled: self.enabled,
            phases,
            counters,
            tables,
            spans_orphaned: self.open.len() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    fn d(us: u64) -> SimDuration {
        SimDuration::from_micros(us)
    }

    #[test]
    fn disabled_records_nothing() {
        let mut tel = Telemetry::new(false);
        let mut counts = Counts::default();
        counts.run.jobs_queued = 1;
        tel.observe(Phase::Admission, d(5));
        tel.span_start(Phase::RecoveryE2E, 1, t(0));
        tel.span_end(Phase::RecoveryE2E, 1, t(100));
        tel.set_table_stats("jobs", 1, 2);
        tel.set_store_stats(StoreStats {
            chunks_written: 1,
            ..StoreStats::default()
        });
        let snap = tel.snapshot(&counts);
        assert!(!snap.enabled);
        assert!(snap.phases.is_empty());
        assert!(snap.counters.is_empty());
        assert!(snap.tables.is_empty());
    }

    #[test]
    fn spans_measure_elapsed_sim_time() {
        let mut tel = Telemetry::new(true);
        tel.span_start(Phase::WarmResume, 7, t(1_000));
        tel.span_end(Phase::WarmResume, 7, t(4_500));
        let h = tel.histogram(Phase::WarmResume).unwrap();
        assert_eq!(h.count(), 1);
        assert_eq!(h.max(), d(3_500));
        // Closing again is a no-op.
        tel.span_end(Phase::WarmResume, 7, t(9_000));
        assert_eq!(tel.histogram(Phase::WarmResume).unwrap().count(), 1);
    }

    #[test]
    fn reopened_span_keeps_earliest_start() {
        let mut tel = Telemetry::new(true);
        tel.span_start(Phase::RecoveryE2E, 3, t(100));
        // A second failure mid-recovery must not reset the clock.
        tel.span_start(Phase::RecoveryE2E, 3, t(900));
        tel.span_end(Phase::RecoveryE2E, 3, t(1_100));
        assert_eq!(tel.histogram(Phase::RecoveryE2E).unwrap().max(), d(1_000));
    }

    #[test]
    fn histogram_percentiles_are_ordered() {
        let mut h = Histogram::default();
        for us in [1u64, 2, 4, 10, 100, 1_000, 10_000, 100_000] {
            h.record(d(us));
        }
        assert_eq!(h.count(), 8);
        assert!(h.p50() <= h.p95());
        assert!(h.p95() <= h.p99());
        assert!(h.p99() <= h.max());
        assert_eq!(h.max(), d(100_000));
        // The approximate median is within 2× of the true one (4..=10).
        let p50 = h.p50().as_micros();
        assert!((4..=16).contains(&p50), "p50={p50}");
    }

    #[test]
    fn histogram_handles_zero_and_huge_samples() {
        let mut h = Histogram::default();
        h.record(SimDuration::ZERO);
        h.record(SimDuration::from_secs(1_000_000)); // 10^12 µs
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), SimDuration::from_secs(1_000_000));
        assert!(h.quantile(1.0) <= h.max());
    }

    #[test]
    fn snapshot_orders_and_filters() {
        let mut tel = Telemetry::new(true);
        tel.observe(Phase::RecoveryE2E, d(10));
        tel.observe(Phase::Admission, d(5));
        let mut counts = Counts::default();
        counts.run.replicas_consumed = 1;
        counts.run.jobs_queued = 3;
        counts.run.warm_recoveries = 2;
        counts.run.cold_recoveries = 1;
        tel.set_table_stats("functions", 4, 9);
        let snap = tel.snapshot(&counts);
        // Phase::ALL order: Admission before RecoveryE2E.
        assert_eq!(snap.phases.len(), 2);
        assert_eq!(snap.phases[0].phase, Phase::Admission);
        assert_eq!(snap.phases[1].phase, Phase::RecoveryE2E);
        // Export order, zero rows dropped, planned = warm + cold.
        let rows: Vec<(&str, u64)> = snap.counters.iter().map(|(l, v)| (&l[..], *v)).collect();
        assert_eq!(
            rows,
            [
                ("jobs_queued", 3),
                ("replicas_consumed", 1),
                ("recoveries_planned", 3)
            ]
        );
        assert_eq!(snap.counter("jobs_queued"), 3);
        assert_eq!(snap.counter("jobs_rejected"), 0);
        assert_eq!(snap.tables.len(), 1);
        assert_eq!(snap.tables[0].table, "functions");
        assert_eq!(snap.tables[0].writes, 9);
    }

    #[test]
    fn cancelled_span_records_nothing() {
        let mut tel = Telemetry::new(true);
        tel.span_start(Phase::ReplicaColdStart, 42, t(0));
        tel.span_cancel(Phase::ReplicaColdStart, 42);
        tel.span_end(Phase::ReplicaColdStart, 42, t(100));
        assert!(tel.histogram(Phase::ReplicaColdStart).is_none());
    }

    #[test]
    fn mean_and_total() {
        let mut h = Histogram::default();
        h.record(d(100));
        h.record(d(300));
        assert_eq!(h.total(), d(400));
        assert_eq!(h.mean(), d(200));
    }
}
