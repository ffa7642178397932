//! `load_study` — the latency-under-load sweep, committed as
//! `BENCH_load.json`.
//!
//! ```text
//! load_study [--quick] [--out PATH]
//! ```
//!
//! Sweeps an open-loop Poisson offered load from well below the
//! admission gate's capacity to well past it, for Ideal / Retry /
//! Canary, and verifies the queueing shape before writing the JSON:
//! response-time percentiles flat below saturation, a knee at capacity
//! with queue depth growing past it, and Canary's p99 beating retry's
//! under sustained load at a 15% failure rate.

use canary_core::ReplicationStrategyKind;
use canary_experiments::load::{run_study, study_table, study_to_json, LoadConfig, LoadPoint};
use canary_experiments::StrategyKind;
use std::process::exit;

fn points_for<'a>(points: &'a [LoadPoint], strategy: &str) -> Vec<&'a LoadPoint> {
    points.iter().filter(|p| p.strategy == strategy).collect()
}

/// The queueing-shape checks: every violation is reported (not just the
/// first), and any violation fails the run.
fn verify_shape(cfg: &LoadConfig, points: &[LoadPoint]) -> Vec<String> {
    let mut violations = Vec::new();
    let lo = cfg.rates_hz[0];
    let hi = *cfg.rates_hz.last().expect("non-empty sweep");
    for strategy in ["Ideal", "Retry", "Canary"] {
        let series = points_for(points, strategy);
        let at = |rate: f64| {
            series
                .iter()
                .find(|p| p.offered_hz == rate)
                .unwrap_or_else(|| panic!("missing point {strategy}@{rate}"))
        };
        // Below saturation the queue barely forms and latency is flat:
        // doubling a light load must not blow up the tail.
        let light = at(lo);
        let below = at(1.0);
        if below.stats.p99_s > light.stats.p99_s * 3.0 {
            violations.push(format!(
                "{strategy}: p99 not flat below saturation ({:.1}s @ {lo} Hz vs {:.1}s @ 1 Hz)",
                light.stats.p99_s, below.stats.p99_s
            ));
        }
        // Past saturation the knee must show: queue wait jumps from
        // negligible to a multiple-second backlog, dragging the tail up.
        let sat = at(hi);
        if below.stats.mean_queue_wait_s > 1.0
            || sat.stats.mean_queue_wait_s < 2.0
            || sat.stats.p99_s <= below.stats.p99_s
        {
            violations.push(format!(
                "{strategy}: no knee (wait {:.2}s → {:.2}s, p99 {:.1}s → {:.1}s)",
                below.stats.mean_queue_wait_s,
                sat.stats.mean_queue_wait_s,
                below.stats.p99_s,
                sat.stats.p99_s
            ));
        }
        if sat.peak_queue_depth <= light.peak_queue_depth
            || sat.peak_queue_depth < cfg.jobs as u32 / 4
        {
            violations.push(format!(
                "{strategy}: queue depth not growing past saturation \
                 (peak {} @ {lo} Hz vs {} @ {hi} Hz)",
                light.peak_queue_depth, sat.peak_queue_depth
            ));
        }
    }
    // Canary's recovery advantage must survive sustained load: at every
    // offered rate at or past capacity, its p99 beats retry's.
    for &rate in cfg.rates_hz.iter().filter(|&&r| r >= 2.0) {
        let canary = points
            .iter()
            .find(|p| p.strategy == "Canary" && p.offered_hz == rate)
            .expect("canary point");
        let retry = points
            .iter()
            .find(|p| p.strategy == "Retry" && p.offered_hz == rate)
            .expect("retry point");
        if canary.stats.p99_s >= retry.stats.p99_s {
            violations.push(format!(
                "Canary p99 ({:.1}s) does not beat Retry ({:.1}s) at {rate} Hz",
                canary.stats.p99_s, retry.stats.p99_s
            ));
        }
    }
    violations
}

fn main() {
    let (quick, out) =
        canary_experiments::quick_and_out(std::env::args().skip(1), "BENCH_load.json")
            .unwrap_or_else(|e| {
                eprintln!("{e}\nusage: load_study [--quick] [--out PATH]");
                exit(2)
            });
    let (cfg, mode) = if quick {
        (LoadConfig::quick(), "quick")
    } else {
        (LoadConfig::paper(), "full")
    };
    let strategies = [
        StrategyKind::Ideal,
        StrategyKind::Retry,
        StrategyKind::Canary(ReplicationStrategyKind::Dynamic),
    ];
    println!(
        "open-loop load study: {} jobs/point, rates {:?} jobs/s, \
         max_inflight={}, error rate {:.0}%\n",
        cfg.jobs,
        cfg.rates_hz,
        cfg.max_inflight,
        cfg.error_rate * 100.0
    );
    let points = run_study(&cfg, &strategies);
    print!("{}", study_table(&points));

    let violations = verify_shape(&cfg, &points);
    for v in &violations {
        eprintln!("SHAPE VIOLATION: {v}");
    }
    if !violations.is_empty() {
        exit(1);
    }
    println!(
        "\nqueueing shape verified: flat below saturation, knee at capacity, \
              Canary p99 < Retry p99 under sustained load"
    );

    let json = study_to_json(&cfg, mode, &points);
    std::fs::write(&out, &json).unwrap_or_else(|e| {
        eprintln!("cannot write {out}: {e}");
        exit(1)
    });
    println!("wrote {out}");
}
