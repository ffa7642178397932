//! The benchmark's workloads: inputs built from a seed, one simulated run
//! per iteration, and the checks every run's outcome must pass.
//!
//! | workload | shape | layers it loads |
//! |---|---|---|
//! | `canary-closed` | closed batch, 10,000 single-invocation `web_service(10)` jobs at t=0 on 100 nodes, 15% errors, Canary (dynamic replication), trace off | checkpoint write path: record, chunk hashing, db group commit, WAL append |
//! | `engine-million` | 1,000,000 two-state invocations on 10,000 nodes in 1,000 waves 240 ms apart, zero admission delay, Retry at 1% errors | engine: event queue, placement, dispatch; the strategy plane does no work |
//! | `open-chaos` | open loop, 8,000 single-invocation jobs arriving Poisson at 4.5 jobs/s on 32 nodes, `max_inflight = 64`, Canary with live migration, every fault class, trace and causal links on | restore, migrate and WAL-replay read path, admission queue, trace emit, JSONL export and parse, blame |
//!
//! `Size::Small` shrinks each workload for the benchmark's own tests.

use crate::stats::Fnv;
use canary_cluster::{ChaosSpec, Cluster, ControllerCrashSpec, FailureModel, StoreOutageSpec};
use canary_container::ContainerPurpose;
use canary_core::{CanaryConfig, CanaryStrategy, ReplicationStrategyKind};
use canary_experiments::{open_loop_jobs, trace_from_jsonl, trace_to_jsonl, StrategyKind, PRICING};
use canary_metrics::{critical_path, peak_queue_depth, slo_attainment, span_forest, ResponseStats};
use canary_platform::{FtStrategy, JobSpec, RunConfig, RunCounters, RunResult};
use canary_sim::{SimDuration, SimRng};
use canary_workloads::WorkloadSpec;
use std::time::Instant;

/// Response-time SLO, seconds: the target the committed load study uses.
pub const SLO_S: f64 = 15.0;

/// Workload names, as `--workload` takes them.
pub const NAMES: [&str; 3] = ["canary-closed", "engine-million", "open-chaos"];

/// Which workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Closed Canary batch: the state-plane write path.
    CanaryClosed,
    /// A million invocations: the engine alone.
    EngineMillion,
    /// Open-loop arrivals under every fault class: the read path.
    OpenChaos,
}

impl Kind {
    /// Parse a `--workload` name.
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "canary-closed" => Some(Kind::CanaryClosed),
            "engine-million" => Some(Kind::EngineMillion),
            "open-chaos" => Some(Kind::OpenChaos),
            _ => None,
        }
    }

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::CanaryClosed => NAMES[0],
            Kind::EngineMillion => NAMES[1],
            Kind::OpenChaos => NAMES[2],
        }
    }
}

/// Full size, or a shrunken copy for tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The measured workload.
    Full,
    /// A few hundred jobs of the same shape.
    Small,
}

/// The strategy a workload runs, kept concrete where the benchmark reads
/// the strategy's own accessors after the run.
pub enum Strat {
    /// Canary, whose db, WAL and chunk store the traced run inspects.
    Canary(Box<CanaryStrategy>),
    /// Any other strategy.
    Other(Box<dyn FtStrategy + Send>),
}

impl Strat {
    /// The strategy as the engine takes it.
    pub fn as_dyn(&mut self) -> &mut dyn FtStrategy {
        match self {
            Strat::Canary(s) => s.as_mut(),
            Strat::Other(s) => s.as_mut(),
        }
    }

    /// The Canary strategy, when this is one.
    pub fn canary(&self) -> Option<&CanaryStrategy> {
        match self {
            Strat::Canary(s) => Some(s),
            Strat::Other(_) => None,
        }
    }
}

/// Everything `run` takes, built from the seed.
pub struct Setup {
    /// Cluster, failures, chaos, gates, observation switches.
    pub config: RunConfig,
    /// The offered jobs.
    pub jobs: Vec<JobSpec>,
    /// A fresh strategy.
    pub strategy: Strat,
}

impl Setup {
    /// Invocations per job, in `JobId` order.
    pub fn invocations(&self) -> Vec<u32> {
        self.jobs.iter().map(|j| j.invocations).collect()
    }
}

/// One workload at one size and seed.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Which workload.
    pub kind: Kind,
    /// Full or shrunken.
    pub size: Size,
    /// Seed every input derives from.
    pub seed: u64,
}

/// Fixed parameters of a workload at a size (everything but the seed).
#[derive(Debug, Clone, Copy)]
struct Params {
    /// Jobs offered.
    jobs: u32,
    /// Invocations per job.
    invocations: u32,
    /// States of each `web_service` invocation.
    states: usize,
    nodes: u32,
    /// Function error rate.
    error_rate: f64,
    /// Spacing between job arrivals (`engine-million`'s waves), ms.
    wave_ms: u64,
}

/// `open-chaos` arrival rate, jobs/s (below the ~5.6 jobs/s drain rate of
/// its admission gate).
const OPEN_RATE_HZ: f64 = 4.5;
/// `open-chaos` admission gate.
const OPEN_MAX_INFLIGHT: u32 = 64;
/// `open-chaos` fault rates: node failures over the arrival horizon,
/// stragglers, and checkpoint corruption.
const OPEN_FAULTS: (f64, f64, f64) = (0.5, 0.2, 0.35);

impl Workload {
    fn params(&self) -> Params {
        let (jobs, invocations, states, nodes, error_rate, wave_ms) = match (self.kind, self.size) {
            (Kind::CanaryClosed, Size::Full) => (10_000, 1, 10, 100, 0.15, 0),
            (Kind::CanaryClosed, Size::Small) => (300, 1, 10, 10, 0.15, 0),
            (Kind::EngineMillion, Size::Full) => (1_000, 1_000, 2, 10_000, 0.01, 240),
            (Kind::EngineMillion, Size::Small) => (20, 50, 2, 100, 0.01, 240),
            (Kind::OpenChaos, Size::Full) => (8_000, 1, 10, 32, 0.3, 0),
            (Kind::OpenChaos, Size::Small) => (300, 1, 10, 32, 0.3, 0),
        };
        Params {
            jobs,
            invocations,
            states,
            nodes,
            error_rate,
            wave_ms,
        }
    }

    /// The workload's fixed configuration (the seed excluded), the input
    /// of the config digest.
    pub fn describe(&self) -> String {
        let strategy = match self.kind {
            Kind::CanaryClosed => "Canary(Dynamic)".to_string(),
            Kind::EngineMillion => "Retry; admission_delay 0".to_string(),
            Kind::OpenChaos => {
                let (nodes, stragglers, corruption) = OPEN_FAULTS;
                format!(
                    "CanaryMigrate; Poisson {OPEN_RATE_HZ}/s; max_inflight {OPEN_MAX_INFLIGHT}; \
                     node failures {nodes}; stragglers {stragglers}; corruption {corruption}; \
                     3 store outages + 1 controller crash from the seed; trace + causal on"
                )
            }
        };
        format!(
            "{} {:?} {:?}; {strategy}",
            self.kind.name(),
            self.size,
            self.params()
        )
    }

    /// FNV digest of [`Workload::describe`].
    pub fn config_digest(&self) -> u64 {
        Fnv::default().bytes(self.describe().as_bytes()).finish()
    }

    /// The Canary configuration the workload runs, `None` for workloads
    /// on another strategy.
    pub fn canary_config(&self) -> Option<CanaryConfig> {
        let mut config = CanaryConfig::with_replication(ReplicationStrategyKind::Dynamic);
        match self.kind {
            Kind::CanaryClosed => Some(config),
            Kind::EngineMillion => None,
            Kind::OpenChaos => {
                config.migrate = true;
                Some(config)
            }
        }
    }

    /// Build the run's inputs from the seed: jobs, cluster, `RunConfig`
    /// and a fresh strategy.
    pub fn setup(&self) -> Setup {
        let p = self.params();
        let strategy = match self.canary_config() {
            Some(c) => Strat::Canary(Box::new(CanaryStrategy::new(c))),
            None => Strat::Other(StrategyKind::Retry.build()),
        };
        let cluster = Cluster::heterogeneous(p.nodes);
        let failure = FailureModel::with_error_rate(p.error_rate);
        let (config, jobs) = match self.kind {
            Kind::CanaryClosed => {
                let jobs = (0..p.jobs)
                    .map(|_| JobSpec::new(WorkloadSpec::web_service(p.states), p.invocations))
                    .collect();
                (RunConfig::new(cluster, failure, self.seed), jobs)
            }
            Kind::EngineMillion => {
                let jobs = (0..p.jobs)
                    .map(|i| {
                        JobSpec::new(WorkloadSpec::web_service(p.states), p.invocations)
                            .at(SimDuration::from_millis(i as u64 * p.wave_ms))
                    })
                    .collect();
                let mut config = RunConfig::new(cluster, failure, self.seed);
                config.admission_delay = SimDuration::ZERO;
                (config, jobs)
            }
            Kind::OpenChaos => {
                let root = SimRng::seed_from_u64(self.seed);
                let arrival_seed = root.split(1).next_u64();
                // Single-invocation `web_service(10)` jobs, as `p` says.
                let jobs = open_loop_jobs(OPEN_RATE_HZ, p.jobs as usize, arrival_seed);
                let horizon_s = jobs
                    .last()
                    .map_or(1, |j| j.arrival_offset.as_secs_f64().ceil() as u64)
                    .max(3);
                let (node_failures, stragglers, corruption) = OPEN_FAULTS;
                let failure = failure.with_node_failures(node_failures);
                let mut config = RunConfig::new(cluster, failure, self.seed);
                config.node_failure_horizon = SimDuration::from_secs(horizon_s);
                config.max_inflight = Some(OPEN_MAX_INFLIGHT);
                config.chaos = ChaosSpec {
                    straggler_rate: stragglers,
                    corruption_rate: corruption,
                    ..outages_and_crash(&mut root.split(2), horizon_s)
                };
                config.trace = true;
                config.causal = true;
                (config, jobs)
            }
        };
        Setup {
            config,
            jobs,
            strategy,
        }
    }
}

/// `open-chaos` faults beyond the rates: three store outages, one per
/// third of the arrival horizon so at most one member is down at a time,
/// and one controller crash, all placed by the seed.
fn outages_and_crash(rng: &mut SimRng, horizon_s: u64) -> ChaosSpec {
    let third = (horizon_s / 3).max(1);
    let store_outages = (0..3)
        .map(|k| {
            let from_s = k * third + rng.range_u64(0, third.div_ceil(2));
            StoreOutageSpec {
                member: rng.range_u64(0, 3) as u32,
                from_s,
                rejoin_s: Some(from_s + 1 + rng.range_u64(0, (third / 2).max(1))),
            }
        })
        .collect();
    let crash_s = rng.range_u64(horizon_s / 10, (horizon_s * 9 / 10).max(horizon_s / 10 + 1));
    ChaosSpec {
        store_outages,
        controller_crashes: vec![ControllerCrashSpec {
            at_us: crash_s * 1_000_000 + rng.range_u64(0, 1_000_000),
        }],
        ..ChaosSpec::default()
    }
}

/// Host-time cost of the trace-consuming steps of one run, and whether
/// their outputs check out. Present only for runs that record a trace.
#[derive(Debug, Clone, Copy, Default)]
pub struct TraceWork {
    /// Trace events recorded.
    pub events: u64,
    /// JSONL size, bytes.
    pub jsonl_bytes: u64,
    /// `trace_to_jsonl`, ns.
    pub export_ns: u64,
    /// `trace_from_jsonl`, ns.
    pub parse_ns: u64,
    /// `span_forest`, ns.
    pub forest_ns: u64,
    /// Critical paths of the tail jobs, ns.
    pub blame_ns: u64,
    /// Parse-back equals the recorded trace, the span forest is valid,
    /// and every blamed job's components sum to its makespan.
    pub ok: bool,
}

/// Consume a recorded trace the way `canaryctl chaos --trace-out --blame`
/// does: export it to JSONL, parse it back, validate the span forest and
/// blame the slowest 1% of jobs (the whole-run blame report walks the
/// trace once per job, which is quadratic at this size). Response stats
/// and the SLO score are computed here too, so they are part of the
/// timed analysis.
pub fn consume_trace(result: &RunResult) -> TraceWork {
    std::hint::black_box(ResponseStats::from_run(result));
    std::hint::black_box(slo_attainment(result, SLO_S));
    let mut w = TraceWork {
        events: result.trace.events.len() as u64,
        ok: true,
        ..TraceWork::default()
    };
    let t = Instant::now();
    let jsonl = trace_to_jsonl(&result.trace);
    w.export_ns = t.elapsed().as_nanos() as u64;
    w.jsonl_bytes = jsonl.len() as u64;
    let t = Instant::now();
    let parsed = trace_from_jsonl(&jsonl);
    w.parse_ns = t.elapsed().as_nanos() as u64;
    w.ok &= parsed.is_ok_and(|p| p.events == result.trace.events);
    drop(jsonl);
    let t = Instant::now();
    w.ok &= span_forest(&result.trace).is_ok();
    w.forest_ns = t.elapsed().as_nanos() as u64;
    let mut done: Vec<_> = result.jobs.iter().filter(|j| !j.rejected).collect();
    done.sort_by_key(|j| (std::cmp::Reverse(j.makespan()), j.id));
    done.truncate((done.len() / 100).max(1));
    let t = Instant::now();
    for job in &done {
        w.ok &=
            critical_path(&result.trace, job.id).is_some_and(|p| p.blame.total() == job.makespan());
    }
    w.blame_ns = t.elapsed().as_nanos() as u64;
    w
}

/// The simulated outcome of one run, its digest, and its failures.
#[derive(Debug, Clone, Copy)]
pub struct Outcome {
    /// FNV digest of every job's and function's outcome plus the run
    /// counters.
    pub digest: u64,
    /// Jobs offered.
    pub offered: u64,
    /// Jobs rejected at arrival.
    pub rejected: u64,
    /// Jobs admitted whose functions did not all complete.
    pub lost: u64,
    /// Run counters.
    pub counters: RunCounters,
    /// Simulated makespan, s.
    pub makespan_s: f64,
    /// Response-time distribution over completed jobs.
    pub response: ResponseStats,
    /// Fraction of offered jobs answered within [`SLO_S`].
    pub slo_attainment: f64,
    /// Σ recovery / Σ failures, s.
    pub recovery_mean_s: f64,
    /// Billed cost, USD.
    pub cost_usd: f64,
    /// Replica containers created.
    pub replicas_created: u64,
    /// Largest admission-queue depth (from the trace; 0 without one).
    pub peak_queue_depth: u32,
}

impl Outcome {
    /// Summarize a run of jobs with the given invocation counts.
    pub fn of(result: &RunResult, invocations: &[u32]) -> Outcome {
        let mut done = vec![0u32; invocations.len()];
        for f in &result.fns {
            if let Some(n) = done.get_mut(f.job.0 as usize) {
                *n += 1;
            }
        }
        let rejected = result.jobs.iter().filter(|j| j.rejected).count() as u64;
        let lost = (invocations.len().saturating_sub(result.jobs.len())
            + result
                .jobs
                .iter()
                .filter(|j| {
                    let i = j.id.0 as usize;
                    !j.rejected && done.get(i) != invocations.get(i)
                })
                .count()) as u64;
        Outcome {
            digest: digest(result),
            offered: invocations.len() as u64,
            rejected,
            lost,
            counters: result.counters,
            makespan_s: result.makespan().as_secs_f64(),
            response: ResponseStats::from_run(result),
            slo_attainment: slo_attainment(result, SLO_S).attainment(),
            recovery_mean_s: result.mean_recovery_per_failure().as_secs_f64(),
            cost_usd: PRICING.cost(result),
            replicas_created: result
                .containers
                .iter()
                .filter(|c| c.purpose == ContainerPurpose::Replica)
                .count() as u64,
            peak_queue_depth: peak_queue_depth(&result.trace),
        }
    }
}

/// FNV-1a over every job's `(id, submitted, completed, rejected)`, every
/// function's `(id, job, completed, failures, recovery, attempts)` and
/// every run counter. Two runs with equal digests simulated the same
/// thing; a change that only speeds the simulator up keeps it.
pub fn digest(result: &RunResult) -> u64 {
    let mut h = Fnv::default();
    for j in &result.jobs {
        h.u64(j.id.0 as u64)
            .u64(j.submitted_at.as_micros())
            .u64(j.completed_at.as_micros())
            .u64(j.rejected as u64);
    }
    for f in &result.fns {
        h.u64(f.id.0)
            .u64(f.job.0 as u64)
            .u64(f.completed_at.as_micros())
            .u64(f.failures as u64)
            .u64(f.recovery.as_micros())
            .u64(f.attempts as u64);
    }
    // Destructured so a new counter cannot be left out silently.
    let RunCounters {
        function_failures,
        node_failures,
        containers_created,
        warm_recoveries,
        cold_recoveries,
        placement_retries,
        checkpoint_bytes,
        checkpoints_written,
        restores,
        jobs_queued,
        jobs_rejected,
        replicas_consumed,
        replicas_refreshed,
        chaos_events,
        store_outages,
        stragglers_injected,
        checkpoints_skipped,
        restore_fallbacks,
        controller_crashes,
        wal_records_replayed,
        wal_torn_tails,
        events_dispatched,
        migrations,
        chunks_migrated,
    } = result.counters;
    for v in [
        function_failures,
        node_failures,
        containers_created,
        warm_recoveries,
        cold_recoveries,
        placement_retries,
        checkpoint_bytes,
        checkpoints_written,
        restores,
        jobs_queued,
        jobs_rejected,
        replicas_consumed,
        replicas_refreshed,
        chaos_events,
        store_outages,
        stragglers_injected,
        checkpoints_skipped,
        restore_fallbacks,
        controller_crashes,
        wal_records_replayed,
        wal_torn_tails,
        events_dispatched,
        migrations,
        chunks_migrated,
    ] {
        h.u64(v);
    }
    h.finish()
}
