//! The latency-under-load study: open-loop Poisson arrivals against the
//! admission gate, swept from light load to past saturation.
//!
//! Closed-batch experiments (Figs. 4–12) submit every job at t=0 and
//! measure the makespan; this study instead offers jobs at a timed rate
//! λ and measures the *response-time distribution* per strategy. The
//! shape to expect is classic queueing: flat latency while λ is below
//! the service capacity, a knee as λ crosses it, and unbounded queue
//! growth past it. Because recovery time is dead time the gate cannot
//! reuse, a strategy that recovers faster sustains a higher λ before the
//! knee — that is Canary's claim under sustained load.
//!
//! The arrival schedule is drawn once per offered rate from the split
//! PRNG (seeded independently of the run seed) and shared across every
//! strategy at that rate, so strategies face byte-identical arrival
//! streams and differences are attributable to recovery alone.

use crate::scenario::{Observe, Scenario, StrategyKind};
use canary_metrics::{peak_queue_depth, slo_attainment, ResponseStats, SloSummary};
use canary_platform::JobSpec;
use canary_sim::{ArrivalProcess, SimRng};
use canary_workloads::WorkloadSpec;
use std::fmt::Write as _;

/// Parameters of one load study.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Offered rates to sweep, jobs/s.
    pub rates_hz: Vec<f64>,
    /// Jobs offered per point.
    pub jobs: usize,
    /// Function error rate (Ideal runs failure-free regardless).
    pub error_rate: f64,
    /// Admission-gate cap on inflight function invocations.
    pub max_inflight: u32,
    /// Cluster size.
    pub nodes: u32,
    /// Seed for the arrival schedules (independent of the run seed).
    pub arrival_seed: u64,
    /// Seed for failure injection and placement.
    pub run_seed: u64,
    /// Response-time SLO target, seconds.
    pub slo_s: f64,
}

impl LoadConfig {
    /// The committed study: five rates straddling the admission gate's
    /// capacity (16 concurrent web-service functions of ~6 s each ≈ 2.6
    /// jobs/s ideal service rate, less under failures).
    pub fn paper() -> Self {
        LoadConfig {
            rates_hz: vec![0.5, 1.0, 2.0, 3.0, 4.0],
            jobs: 120,
            error_rate: 0.15,
            max_inflight: 16,
            nodes: 16,
            arrival_seed: 0xA11,
            run_seed: 42,
            slo_s: 15.0,
        }
    }

    /// Reduced job count for CI smoke runs; same rates and seeds, so the
    /// qualitative shape (flat → knee → saturated) is preserved.
    pub fn quick() -> Self {
        LoadConfig {
            jobs: 40,
            ..Self::paper()
        }
    }
}

/// One (offered rate × strategy) measurement.
#[derive(Debug, Clone)]
pub struct LoadPoint {
    /// Offered rate, jobs/s.
    pub offered_hz: f64,
    /// Strategy label.
    pub strategy: String,
    /// Response-time / queue-wait distribution.
    pub stats: ResponseStats,
    /// Largest admission-queue depth reached.
    pub peak_queue_depth: u32,
    /// SLO scorecard at [`LoadConfig::slo_s`].
    pub slo: SloSummary,
    /// Virtual time at which the run drained, seconds.
    pub finished_s: f64,
}

/// Single-invocation web-service jobs with Poisson arrival offsets at
/// the given rate. The schedule depends only on `(seed, rate_hz, n)` —
/// not on the strategy or the run seed — so every strategy at a rate
/// faces the identical stream.
pub fn open_loop_jobs(rate_hz: f64, n: usize, seed: u64) -> Vec<JobSpec> {
    let rng = SimRng::seed_from_u64(seed);
    let offsets = ArrivalProcess::poisson(rate_hz).offsets(&rng, n);
    offsets
        .into_iter()
        .map(|at| JobSpec::new(WorkloadSpec::web_service(10), 1).at(at))
        .collect()
}

/// The scenario for one offered rate.
pub fn load_scenario(cfg: &LoadConfig, rate_hz: f64) -> Scenario {
    let mut s = Scenario::chameleon(
        cfg.error_rate,
        open_loop_jobs(rate_hz, cfg.jobs, cfg.arrival_seed),
    );
    s.nodes = cfg.nodes;
    s.max_inflight = Some(cfg.max_inflight);
    s
}

/// Run the full sweep: every strategy at every offered rate, one traced
/// run each (the trace feeds the queue-depth series). Points are ordered
/// rate-major, matching `strategies` within each rate.
pub fn run_study(cfg: &LoadConfig, strategies: &[StrategyKind]) -> Vec<LoadPoint> {
    let mut points = Vec::with_capacity(cfg.rates_hz.len() * strategies.len());
    for &rate in &cfg.rates_hz {
        let scenario = load_scenario(cfg, rate);
        for &strategy in strategies {
            let r = scenario.run(strategy, cfg.run_seed, Observe::TRACE);
            points.push(LoadPoint {
                offered_hz: rate,
                strategy: r.strategy.clone(),
                stats: ResponseStats::from_run(&r),
                peak_queue_depth: peak_queue_depth(&r.trace),
                slo: slo_attainment(&r, cfg.slo_s),
                finished_s: r.finished_at.as_secs_f64(),
            });
        }
    }
    points
}

/// Render the study as the committed `BENCH_load.json` payload
/// (hand-rolled JSON, same convention as `BENCH_engine.json`).
pub fn study_to_json(cfg: &LoadConfig, mode: &str, points: &[LoadPoint]) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"schema\": \"bench_load/v1\",");
    let _ = writeln!(s, "  \"mode\": \"{mode}\",");
    let _ = writeln!(
        s,
        "  \"config\": {{\"jobs\": {}, \"error_rate\": {}, \"max_inflight\": {}, \
         \"nodes\": {}, \"arrival_seed\": {}, \"run_seed\": {}, \"slo_s\": {}}},",
        cfg.jobs,
        cfg.error_rate,
        cfg.max_inflight,
        cfg.nodes,
        cfg.arrival_seed,
        cfg.run_seed,
        cfg.slo_s
    );
    s.push_str("  \"points\": [\n");
    for (i, p) in points.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"offered_hz\": {}, \"strategy\": \"{}\", \"completed\": {}, \
             \"rejected\": {}, \"mean_s\": {:.2}, \"p50_s\": {:.2}, \"p95_s\": {:.2}, \
             \"p99_s\": {:.2}, \"mean_queue_wait_s\": {:.2}, \"peak_queue_depth\": {}, \
             \"slo_attainment\": {:.3}, \"finished_s\": {:.1}}}",
            p.offered_hz,
            p.strategy,
            p.stats.completed,
            p.stats.rejected,
            p.stats.mean_s,
            p.stats.p50_s,
            p.stats.p95_s,
            p.stats.p99_s,
            p.stats.mean_queue_wait_s,
            p.peak_queue_depth,
            p.slo.attainment(),
            p.finished_s
        );
        s.push_str(if i + 1 < points.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ]\n}\n");
    s
}

/// ASCII table of the study for terminal output.
pub fn study_table(points: &[LoadPoint]) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:>10} {:<12} {:>9} {:>8} {:>8} {:>8} {:>10} {:>10} {:>8}",
        "λ (job/s)",
        "strategy",
        "p50 (s)",
        "p95 (s)",
        "p99 (s)",
        "wait (s)",
        "peak queue",
        "SLO att.",
        "rejected"
    );
    for p in points {
        let _ = writeln!(
            s,
            "{:>10.1} {:<12} {:>9.2} {:>8.2} {:>8.2} {:>8.2} {:>10} {:>9.1}% {:>8}",
            p.offered_hz,
            p.strategy,
            p.stats.p50_s,
            p.stats.p95_s,
            p.stats.p99_s,
            p.stats.mean_queue_wait_s,
            p.peak_queue_depth,
            p.slo.attainment() * 100.0,
            p.stats.rejected
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrival_schedule_is_strategy_independent() {
        let a = open_loop_jobs(2.0, 20, 7);
        let b = open_loop_jobs(2.0, 20, 7);
        let offs_a: Vec<_> = a.iter().map(|j| j.arrival_offset).collect();
        let offs_b: Vec<_> = b.iter().map(|j| j.arrival_offset).collect();
        assert_eq!(offs_a, offs_b);
        assert!(offs_a.windows(2).all(|w| w[0] <= w[1]), "sorted arrivals");
        let c = open_loop_jobs(2.0, 20, 8);
        let offs_c: Vec<_> = c.iter().map(|j| j.arrival_offset).collect();
        assert_ne!(offs_a, offs_c, "seed moves the schedule");
    }

    #[test]
    fn study_json_is_well_formed() {
        let cfg = LoadConfig {
            rates_hz: vec![1.0],
            jobs: 5,
            ..LoadConfig::quick()
        };
        let points = run_study(&cfg, &[StrategyKind::Ideal]);
        assert_eq!(points.len(), 1);
        let json = study_to_json(&cfg, "test", &points);
        assert!(json.starts_with("{\n  \"schema\": \"bench_load/v1\""));
        assert!(json.contains("\"strategy\": \"Ideal\""));
        assert!(json.ends_with("  ]\n}\n"));
        assert!(!study_table(&points).is_empty());
    }
}
