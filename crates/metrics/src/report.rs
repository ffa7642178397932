//! Figure rendering: ASCII tables, CSV, and Markdown for EXPERIMENTS.md,
//! plus the per-run telemetry summary table.

use canary_platform::{Counter, HotPathProfile, RunCounters, TelemetrySnapshot};
use canary_sim::SeriesSet;
use std::fmt::Write as _;

fn fmt_value(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 1000.0 {
        format!("{v:.0}")
    } else if v.abs() >= 10.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.3}")
    }
}

/// Shared x values across all series, in first-appearance order.
fn x_values(set: &SeriesSet) -> Vec<f64> {
    let mut xs: Vec<f64> = Vec::new();
    for s in &set.series {
        for p in &s.points {
            if !xs.contains(&p.x) {
                xs.push(p.x);
            }
        }
    }
    xs
}

/// Render a figure as a boxed ASCII table (one row per x, one column per
/// series).
pub fn ascii_table(set: &SeriesSet) -> String {
    let xs = x_values(set);
    let mut headers = vec![set.x_label.clone()];
    headers.extend(set.series.iter().map(|s| s.label.clone()));
    let mut rows: Vec<Vec<String>> = Vec::with_capacity(xs.len());
    for &x in &xs {
        let mut row = vec![fmt_value(x)];
        for s in &set.series {
            row.push(s.y_at(x).map(fmt_value).unwrap_or_else(|| "-".into()));
        }
        rows.push(row);
    }
    let widths: Vec<usize> = headers
        .iter()
        .enumerate()
        .map(|(i, h)| {
            rows.iter()
                .map(|r| r[i].len())
                .chain(std::iter::once(h.len()))
                .max()
                .unwrap_or(0)
        })
        .collect();

    let mut out = String::new();
    let _ = writeln!(out, "{} ({})", set.title, set.y_label);
    let sep: String = widths
        .iter()
        .map(|w| format!("+{}", "-".repeat(w + 2)))
        .collect::<String>()
        + "+";
    let _ = writeln!(out, "{sep}");
    let hdr: String = headers
        .iter()
        .zip(&widths)
        .map(|(h, w)| format!("| {h:>w$} "))
        .collect::<String>()
        + "|";
    let _ = writeln!(out, "{hdr}");
    let _ = writeln!(out, "{sep}");
    for row in &rows {
        let line: String = row
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("| {c:>w$} "))
            .collect::<String>()
            + "|";
        let _ = writeln!(out, "{line}");
    }
    let _ = writeln!(out, "{sep}");
    out
}

/// Render a figure as CSV (`x,series1,series2,...` with a header row).
pub fn csv(set: &SeriesSet) -> String {
    let xs = x_values(set);
    let mut out = String::new();
    let mut header = vec![set.x_label.replace(',', ";")];
    header.extend(set.series.iter().map(|s| s.label.replace(',', ";")));
    let _ = writeln!(out, "{}", header.join(","));
    for &x in &xs {
        let mut row = vec![format!("{x}")];
        for s in &set.series {
            row.push(s.y_at(x).map(|y| format!("{y}")).unwrap_or_default());
        }
        let _ = writeln!(out, "{}", row.join(","));
    }
    out
}

/// Render a figure as a Markdown table (for EXPERIMENTS.md).
pub fn markdown_table(set: &SeriesSet) -> String {
    let xs = x_values(set);
    let mut out = String::new();
    let mut header = vec![set.x_label.clone()];
    header.extend(set.series.iter().map(|s| s.label.clone()));
    let _ = writeln!(out, "| {} |", header.join(" | "));
    let _ = writeln!(
        out,
        "|{}|",
        header.iter().map(|_| "---:").collect::<Vec<_>>().join("|")
    );
    for &x in &xs {
        let mut row = vec![fmt_value(x)];
        for s in &set.series {
            row.push(s.y_at(x).map(fmt_value).unwrap_or_else(|| "-".into()));
        }
        let _ = writeln!(out, "| {} |", row.join(" | "));
    }
    out
}

/// Render a run's engine-side counters as `name value` lines.
pub fn counters_summary(c: &RunCounters) -> String {
    let rows: [(&str, u64); 23] = [
        ("function_failures", c.function_failures),
        ("node_failures", c.node_failures),
        ("containers_created", c.containers_created),
        ("warm_recoveries", c.warm_recoveries),
        ("cold_recoveries", c.cold_recoveries),
        ("placement_retries", c.placement_retries),
        ("checkpoint_bytes", c.checkpoint_bytes),
        ("checkpoints_written", c.checkpoints_written),
        ("restores", c.restores),
        ("jobs_queued", c.jobs_queued),
        ("jobs_rejected", c.jobs_rejected),
        ("replicas_consumed", c.replicas_consumed),
        ("replicas_refreshed", c.replicas_refreshed),
        ("chaos_events", c.chaos_events),
        ("store_outages", c.store_outages),
        ("stragglers_injected", c.stragglers_injected),
        ("checkpoints_skipped", c.checkpoints_skipped),
        ("restore_fallbacks", c.restore_fallbacks),
        ("controller_crashes", c.controller_crashes),
        ("wal_records_replayed", c.wal_records_replayed),
        ("wal_torn_tails", c.wal_torn_tails),
        ("migrations", c.migrations),
        ("chunks_migrated", c.chunks_migrated),
    ];
    let mut out = String::from("run counters\n");
    for (name, v) in rows {
        let _ = writeln!(out, "  {name:<22} {v}");
    }
    out
}

/// Render a run's telemetry snapshot as a readable summary: one row per
/// instrumented phase (count / mean / p50 / p95 / p99 / max), then the
/// non-zero counters, then per-table database traffic when present.
pub fn telemetry_summary(snap: &TelemetrySnapshot) -> String {
    let mut out = String::new();
    if !snap.enabled {
        let _ = writeln!(out, "telemetry: disabled for this run");
        return out;
    }
    let _ = writeln!(out, "telemetry summary");
    if snap.phases.is_empty() {
        let _ = writeln!(out, "  (no phase samples recorded)");
    } else {
        let _ = writeln!(
            out,
            "  {:<20} {:>7} {:>10} {:>10} {:>10} {:>10} {:>10}",
            "phase", "count", "mean", "p50", "p95", "p99", "max"
        );
        for p in &snap.phases {
            let _ = writeln!(
                out,
                "  {:<20} {:>7} {:>10} {:>10} {:>10} {:>10} {:>10}",
                p.phase.label(),
                p.count,
                p.mean.to_string(),
                p.p50.to_string(),
                p.p95.to_string(),
                p.p99.to_string(),
                p.max.to_string(),
            );
        }
    }
    if snap.spans_orphaned > 0 {
        let _ = writeln!(
            out,
            "  WARNING: {} telemetry span(s) left open at snapshot (lost samples)",
            snap.spans_orphaned
        );
    }
    if !snap.counters.is_empty() {
        let _ = writeln!(out, "  counters:");
        for (c, v) in &snap.counters {
            let _ = writeln!(out, "    {:<22} {v}", c.label());
        }
    }
    if !snap.tables.is_empty() {
        let _ = writeln!(
            out,
            "  db tables:              {:>10} {:>10}",
            "reads", "writes"
        );
        for t in &snap.tables {
            let _ = writeln!(out, "    {:<22} {:>10} {:>10}", t.table, t.reads, t.writes);
        }
        let (reads, writes) = snap
            .tables
            .iter()
            .fold((0u64, 0u64), |(r, w), t| (r + t.reads, w + t.writes));
        let _ = writeln!(
            out,
            "    {:<22} {:>10} {:>10}",
            "metadata ops", reads, writes
        );
        let hits = snap.counter(Counter::DbCacheHits);
        let misses = snap.counter(Counter::DbCacheMisses);
        if hits + misses > 0 {
            let _ = writeln!(
                out,
                "    row cache              {:>9.1}% hit rate ({hits} hits, {misses} misses)",
                100.0 * hits as f64 / (hits + misses) as f64
            );
        }
    }
    out
}

/// Render the engine hot-path profile: one row per dispatched event
/// kind with dispatch count, wall cost, and allocation attribution.
/// Rows are in the engine's fixed event-kind order; kinds never
/// dispatched are skipped.
pub fn hot_path_report(profile: &HotPathProfile) -> String {
    let mut out = String::new();
    if !profile.enabled {
        let _ = writeln!(out, "hot-path profile: disabled for this run");
        return out;
    }
    let _ = writeln!(out, "engine hot-path profile");
    let _ = writeln!(
        out,
        "  {:<14} {:>10} {:>12} {:>10} {:>10} {:>10}",
        "event", "dispatches", "wall", "ns/disp", "allocs", "allocs/disp"
    );
    for r in profile.rows.iter().filter(|r| r.dispatches > 0) {
        let n = r.dispatches as f64;
        let _ = writeln!(
            out,
            "  {:<14} {:>10} {:>12} {:>10.0} {:>10} {:>11.2}",
            r.event,
            r.dispatches,
            format!("{:.3}ms", r.wall_ns as f64 / 1e6),
            r.wall_ns as f64 / n,
            r.allocs,
            r.allocs as f64 / n,
        );
    }
    let total_n = profile.total_dispatches() as f64;
    if total_n > 0.0 {
        let _ = writeln!(
            out,
            "  {:<14} {:>10} {:>12} {:>10.0} {:>10} {:>11.2}",
            "total",
            profile.total_dispatches(),
            format!("{:.3}ms", profile.total_wall_ns() as f64 / 1e6),
            profile.total_wall_ns() as f64 / total_n,
            profile.total_allocs(),
            profile.total_allocs() as f64 / total_n,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use canary_sim::SeriesSet;

    fn sample() -> SeriesSet {
        let mut set = SeriesSet::new("Fig X", "error rate (%)", "recovery (s)");
        let a = set.series_mut("Retry");
        a.push(1.0, 120.0);
        a.push(5.0, 480.5);
        let b = set.series_mut("Canary");
        b.push(1.0, 10.0);
        b.push(5.0, 22.25);
        set
    }

    #[test]
    fn ascii_contains_all_cells() {
        let t = ascii_table(&sample());
        for needle in [
            "Fig X",
            "Retry",
            "Canary",
            "120",
            "480.5",
            "22.2",
            "error rate",
        ] {
            assert!(t.contains(needle), "missing {needle} in:\n{t}");
        }
    }

    #[test]
    fn csv_is_machine_readable() {
        let c = csv(&sample());
        let mut lines = c.lines();
        assert_eq!(lines.next().unwrap(), "error rate (%),Retry,Canary");
        assert_eq!(lines.next().unwrap(), "1,120,10");
        assert_eq!(lines.next().unwrap(), "5,480.5,22.25");
    }

    #[test]
    fn markdown_has_separator_row() {
        let m = markdown_table(&sample());
        assert!(m.contains("|---:|---:|---:|"));
        assert!(m.starts_with("| error rate (%) | Retry | Canary |"));
    }

    #[test]
    fn telemetry_summary_renders_phases_counters_and_tables() {
        use canary_platform::{Counter, Phase, Telemetry};
        use canary_sim::{SimDuration, SimTime};
        let mut tel = Telemetry::new(true);
        tel.span_start(Phase::RecoveryE2E, 1, SimTime::ZERO);
        tel.span_end(Phase::RecoveryE2E, 1, SimTime::from_micros(750_000));
        tel.observe(Phase::CheckpointWrite, SimDuration::from_millis(20));
        tel.incr(Counter::CheckpointsWritten);
        tel.set_table_stats("job_info", 3, 5);
        tel.set_table_stats("function_info", 7, 2);
        tel.add(Counter::DbCacheHits, 8);
        tel.add(Counter::DbCacheMisses, 2);
        let text = telemetry_summary(&tel.snapshot());
        for needle in [
            "telemetry summary",
            "recovery_e2e",
            "checkpoint_write",
            "p95",
            "checkpoints_written",
            "job_info",
            "db_cache_hit",
            "metadata ops",
            "row cache",
            "80.0% hit rate",
        ] {
            assert!(text.contains(needle), "missing {needle} in:\n{text}");
        }
        // The metadata-ops row totals the per-table traffic.
        let ops_line = text.lines().find(|l| l.contains("metadata ops")).unwrap();
        assert!(
            ops_line.contains("10") && ops_line.contains('7'),
            "{ops_line}"
        );
    }

    #[test]
    fn telemetry_summary_notes_disabled_runs() {
        let text = telemetry_summary(&TelemetrySnapshot::default());
        assert!(text.contains("disabled"));
    }

    #[test]
    fn missing_points_render_as_dash() {
        let mut set = sample();
        set.series_mut("Sparse").push(1.0, 7.0); // no point at x=5
        let t = ascii_table(&set);
        assert!(t.contains('-'));
        let m = markdown_table(&set);
        assert!(m.contains(" - "));
    }
}
