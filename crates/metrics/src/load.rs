//! Latency-under-load metrics for open-loop runs.
//!
//! Closed-batch experiments summarize a run by its makespan; open-loop
//! runs (timed arrivals against an admission gate) are characterized by
//! the *distribution* of per-job response times instead. This module
//! computes that distribution ([`ResponseStats`]: p50/p95/p99 response
//! time and queue wait), reconstructs the admission-queue depth over
//! time from the trace ([`queue_depth_series`]), and scores runs
//! against a response-time SLO ([`slo_attainment`]).

use canary_platform::{RunResult, Trace, TraceKind};
use canary_sim::{Percentiles, SimTime};

/// Response-time distribution of one run's jobs.
///
/// Response time is arrival (`submitted_at`) to last-function
/// completion, queue wait included. Rejected jobs never ran, so they are
/// excluded from the latency distribution and reported separately via
/// [`ResponseStats::rejected`].
#[derive(Debug, Clone, Copy)]
pub struct ResponseStats {
    /// Jobs that completed (rejected jobs excluded).
    pub completed: usize,
    /// Jobs rejected at arrival.
    pub rejected: usize,
    /// Mean response time, seconds.
    pub mean_s: f64,
    /// Median response time, seconds.
    pub p50_s: f64,
    /// 95th-percentile response time, seconds.
    pub p95_s: f64,
    /// 99th-percentile response time, seconds.
    pub p99_s: f64,
    /// Worst response time, seconds.
    pub max_s: f64,
    /// Mean time held in the admission queue, seconds.
    pub mean_queue_wait_s: f64,
    /// 99th-percentile queue wait, seconds.
    pub p99_queue_wait_s: f64,
}

impl ResponseStats {
    /// Compute the distribution over a run's completed jobs. Returns a
    /// zeroed summary (with the rejection count) when every job was
    /// rejected.
    pub fn from_run(r: &RunResult) -> Self {
        let mut resp = Percentiles::new();
        let mut wait = Percentiles::new();
        let mut rejected = 0usize;
        for j in &r.jobs {
            if j.rejected {
                rejected += 1;
                continue;
            }
            resp.push(j.makespan().as_secs_f64());
            wait.push(j.queue_wait().as_secs_f64());
        }
        let completed = resp.len();
        let n = completed.max(1) as f64;
        let sum: f64 = r
            .jobs
            .iter()
            .filter(|j| !j.rejected)
            .map(|j| j.makespan().as_secs_f64())
            .sum();
        let wait_sum: f64 = r
            .jobs
            .iter()
            .filter(|j| !j.rejected)
            .map(|j| j.queue_wait().as_secs_f64())
            .sum();
        ResponseStats {
            completed,
            rejected,
            mean_s: sum / n,
            p50_s: resp.percentile(50.0).unwrap_or(0.0),
            p95_s: resp.percentile(95.0).unwrap_or(0.0),
            p99_s: resp.percentile(99.0).unwrap_or(0.0),
            max_s: resp.percentile(100.0).unwrap_or(0.0),
            mean_queue_wait_s: wait_sum / n,
            p99_queue_wait_s: wait.percentile(99.0).unwrap_or(0.0),
        }
    }
}

/// One step of the admission-queue depth over time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueDepthPoint {
    /// When the depth changed.
    pub at: SimTime,
    /// Queue depth after the change.
    pub depth: u32,
}

/// Reconstruct the admission-queue depth over time from a trace: every
/// `JobQueued` raises the depth, every `JobDequeued` lowers it. Needs a
/// run recorded with [`canary_platform::RunConfig::trace`]; an empty
/// trace yields an empty series.
pub fn queue_depth_series(trace: &Trace) -> Vec<QueueDepthPoint> {
    let mut depth = 0u32;
    let mut series = Vec::new();
    for e in &trace.events {
        match e.kind {
            TraceKind::JobQueued { .. } => depth += 1,
            TraceKind::JobDequeued { .. } => {
                depth = depth
                    .checked_sub(1)
                    .expect("JobDequeued without matching JobQueued");
            }
            _ => continue,
        }
        series.push(QueueDepthPoint { at: e.at, depth });
    }
    series
}

/// Largest queue depth a run reached (0 for an empty or queue-free
/// trace).
pub fn peak_queue_depth(trace: &Trace) -> u32 {
    queue_depth_series(trace)
        .iter()
        .map(|p| p.depth)
        .max()
        .unwrap_or(0)
}

/// SLO scorecard: how many jobs responded within the target.
#[derive(Debug, Clone, Copy)]
pub struct SloSummary {
    /// Response-time target, seconds.
    pub target_s: f64,
    /// Jobs that completed within the target.
    pub attained: usize,
    /// All jobs offered, rejected ones included (a rejection is an SLO
    /// miss — the client got no answer at all).
    pub offered: usize,
}

impl SloSummary {
    /// Fraction of offered jobs that met the SLO, in `[0, 1]` (1.0 for
    /// an empty run).
    pub fn attainment(&self) -> f64 {
        if self.offered == 0 {
            return 1.0;
        }
        self.attained as f64 / self.offered as f64
    }
}

/// Score a run against a response-time SLO.
pub fn slo_attainment(r: &RunResult, target_s: f64) -> SloSummary {
    let attained = r
        .jobs
        .iter()
        .filter(|j| !j.rejected && j.makespan().as_secs_f64() <= target_s)
        .count();
    SloSummary {
        target_s,
        attained,
        offered: r.jobs.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use canary_platform::{JobId, JobOutcome, TraceEvent};
    use canary_sim::SimDuration;

    fn job(id: u32, submit_s: u64, wait_s: u64, total_s: u64) -> JobOutcome {
        let submitted = SimTime::ZERO + SimDuration::from_secs(submit_s);
        JobOutcome {
            id: JobId(id),
            submitted_at: submitted,
            admitted_at: Some(submitted + SimDuration::from_secs(wait_s)),
            first_exec_at: Some(submitted + SimDuration::from_secs(wait_s)),
            completed_at: submitted + SimDuration::from_secs(total_s),
            rejected: false,
        }
    }

    fn rejected(id: u32) -> JobOutcome {
        JobOutcome {
            id: JobId(id),
            submitted_at: SimTime::ZERO,
            admitted_at: None,
            first_exec_at: None,
            completed_at: SimTime::ZERO,
            rejected: true,
        }
    }

    fn run_with(jobs: Vec<JobOutcome>) -> RunResult {
        RunResult {
            strategy: "x".into(),
            fns: vec![],
            jobs,
            containers: vec![],
            counters: Default::default(),
            finished_at: SimTime::ZERO,
            trace: Trace::default(),
            telemetry: Default::default(),
            profile: Default::default(),
        }
    }

    #[test]
    fn response_stats_percentiles() {
        // Response times 1..=100 s: exact percentiles are known.
        let jobs = (0..100).map(|i| job(i, 0, 0, u64::from(i) + 1)).collect();
        let s = ResponseStats::from_run(&run_with(jobs));
        assert_eq!(s.completed, 100);
        assert_eq!(s.rejected, 0);
        assert!((s.mean_s - 50.5).abs() < 1e-9);
        assert!((s.p50_s - 50.5).abs() < 1e-9);
        assert!((s.max_s - 100.0).abs() < 1e-9);
        assert!(s.p95_s > 95.0 && s.p95_s < 96.0);
        assert!(s.p99_s > 99.0 && s.p99_s <= 100.0);
    }

    #[test]
    fn rejected_jobs_excluded_from_latency() {
        let s = ResponseStats::from_run(&run_with(vec![job(0, 0, 2, 10), rejected(1)]));
        assert_eq!(s.completed, 1);
        assert_eq!(s.rejected, 1);
        assert!((s.max_s - 10.0).abs() < 1e-9);
        assert!((s.mean_queue_wait_s - 2.0).abs() < 1e-9);
    }

    #[test]
    fn empty_run_is_zeroed() {
        let s = ResponseStats::from_run(&run_with(vec![]));
        assert_eq!(s.completed, 0);
        assert_eq!(s.mean_s, 0.0);
        assert_eq!(s.p99_s, 0.0);
    }

    #[test]
    fn queue_depth_tracks_queue_and_dequeue() {
        let at = |s| SimTime::ZERO + SimDuration::from_secs(s);
        let trace = Trace {
            events: vec![
                TraceEvent::new(at(1), TraceKind::JobQueued { job: JobId(0) }),
                TraceEvent::new(at(2), TraceKind::JobQueued { job: JobId(1) }),
                TraceEvent::new(at(3), TraceKind::JobDequeued { job: JobId(0) }),
                TraceEvent::new(at(4), TraceKind::JobDequeued { job: JobId(1) }),
            ],
        };
        let series = queue_depth_series(&trace);
        let depths: Vec<u32> = series.iter().map(|p| p.depth).collect();
        assert_eq!(depths, vec![1, 2, 1, 0]);
        assert_eq!(peak_queue_depth(&trace), 2);
        assert_eq!(peak_queue_depth(&Trace::default()), 0);
    }

    #[test]
    fn slo_counts_rejections_as_misses() {
        let r = run_with(vec![job(0, 0, 0, 5), job(1, 0, 0, 20), rejected(2)]);
        let slo = slo_attainment(&r, 10.0);
        assert_eq!(slo.attained, 1);
        assert_eq!(slo.offered, 3);
        assert!((slo.attainment() - 1.0 / 3.0).abs() < 1e-9);
        assert_eq!(slo_attainment(&run_with(vec![]), 1.0).attainment(), 1.0);
    }
}
