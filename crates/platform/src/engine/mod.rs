//! The discrete-event FaaS platform engine.
//!
//! Plays the role of OpenWhisk in the paper: admits jobs through a
//! serialized controller, places function containers on invoker nodes,
//! executes each function's state sequence, injects function- and
//! node-level failures from the deterministic oracle, and delegates every
//! recovery decision to the pluggable [`FtStrategy`].
//!
//! Because the failure oracle is pure in `(function, attempt)`, an
//! attempt's entire timeline is resolvable the moment it starts: the
//! engine plans each attempt analytically (state completion times,
//! checkpoint overheads, kill instant) and schedules a single
//! `AttemptEnd` event. Node crashes preempt plans; stale events are
//! fenced by per-function attempt counters.
//!
//! The engine is a small event kernel split along its seams:
//!
//! - [`mod@self`] — the [`Platform`] state, the [`run`]/[`try_run`] loop,
//!   and the strategy-facing *mutators* (replica/standby creation,
//!   telemetry, event emission, which also moves the counters),
//! - [`setup`](self) — batch validation ([`RunConfigError`]) and job /
//!   node-failure / chaos registration,
//! - `events` — the [`Event`] enum and its dispatch table,
//! - `handlers` — one handler per event plus the analytic attempt
//!   planner,
//! - `queries` — the strategy-facing *read* API, answered from
//!   incrementally-maintained indexes rather than per-call scans.

mod causal;
mod events;
mod handlers;
mod pool;
#[cfg(test)]
mod proptests;
mod queries;
mod setup;

pub use events::Event;
pub use setup::{validate_batch, RunConfigError};

#[doc(hidden)]
pub use setup::bench_platform;

use crate::accounting::{ContainerUsage, Counts, FnOutcome, JobOutcome, RunResult};
use crate::config::RunConfig;
use crate::ids::{FnId, JobId};
use crate::job::{CloneOutcome, FnRecord, FnStatus, JobRecord, JobSpec, StateTiming};
use crate::profile::{HotPathProfile, HotPathRow};
use crate::strategy::FtStrategy;
use crate::telemetry::{Phase, Telemetry};
use crate::trace::{SpanId, Trace, TraceEvent, TraceKind};
use canary_cluster::{ChaosPlan, FailureInjector, NodeId};
use canary_container::{
    ColdStartModel, ContainerId, ContainerPurpose, ContainerRegistry, ContainerState,
    PlacementError,
};
use canary_sim::hash::HashMap;
use canary_sim::{EventQueue, SimRng, SimTime};
use canary_workloads::RuntimeKind;
use pool::VecPool;

/// The simulated platform; strategies receive `&mut Platform` in their
/// callbacks and may inspect state or create replica containers.
pub struct Platform {
    config: RunConfig,
    /// The future-event list, popped by `(time, push order)`.
    queue: EventQueue<Event>,
    registry: ContainerRegistry,
    coldstart: ColdStartModel,
    injector: FailureInjector,
    chaos: ChaosPlan,
    strategy_rng: SimRng,
    fns: Vec<FnRecord>,
    jobs: Vec<JobRecord>,
    /// Usage records indexed by dense `ContainerId` (one entry per
    /// container ever created, pushed in id order).
    usage: Vec<ContainerUsage>,
    controller_free: SimTime,
    /// The run's one counter registry; [`Platform::emit`] moves every
    /// traced count.
    counts: Counts,
    /// Jobs waiting on each job's completion (workflow chaining).
    dependents: Vec<Vec<JobId>>,
    /// FIFO admission queue: arrived jobs held until the concurrency
    /// gate ([`RunConfig::max_inflight`]) has headroom. Strictly
    /// head-of-line — a blocked front job is never overtaken, so
    /// admission is starvation-free.
    admission_queue: std::collections::VecDeque<JobId>,
    /// Launches waiting on the serialized controller, strictly FIFO in
    /// the order each launch first found the controller busy — the same
    /// order the historical re-poll loop admitted them in, without the
    /// O(pending²) re-poll dispatches. While non-empty, exactly one
    /// [`Event::AdmissionFree`] is scheduled at `controller_free`.
    pending_launches: std::collections::VecDeque<(FnId, u32)>,
    /// Function invocations admitted and not yet completed — the load
    /// the concurrency gate meters.
    inflight: u32,
    trace: Trace,
    telemetry: Telemetry,
    /// Span-assignment bookkeeping for causal trace links (all-empty and
    /// untouched unless [`RunConfig::causal`] is on).
    causal: causal::CausalState,
    /// Hot-path profiler accumulators (untouched unless
    /// [`RunConfig::profile`] is on).
    profiler: ProfileAccum,
    /// Functions currently `Running` or `Recovering` per runtime —
    /// maintained at every [`FnStatus`] transition so the Replication
    /// Module's `func_act` query is O(1) instead of a scan.
    active_by_runtime: HashMap<RuntimeKind, usize>,
    /// Recycled buffers for the attempt planner: per-attempt clone
    /// outcome lists and per-clone state timings. Steady-state attempt
    /// planning allocates nothing — retired attempts feed their buffers
    /// back here.
    clone_buf_pool: VecPool<CloneOutcome>,
    timing_buf_pool: VecPool<StateTiming>,
    /// Scratch for `handle_launch` placement (swapped in and out per
    /// launch; never dropped).
    placed_scratch: Vec<(ContainerId, NodeId, SimTime)>,
}

impl Platform {
    fn new(config: RunConfig) -> Result<Self, RunConfigError> {
        config.validate().map_err(RunConfigError::Invalid)?;
        let registry = ContainerRegistry::new(&config.cluster);
        let injector = FailureInjector::new(config.failure, config.seed);
        let chaos = ChaosPlan::from_spec(&config.chaos, &config.cluster, config.seed);
        let strategy_rng = SimRng::seed_from_u64(config.seed).split(0x57_A7);
        Ok(Platform {
            registry,
            coldstart: ColdStartModel::new(),
            injector,
            chaos,
            strategy_rng,
            fns: Vec::new(),
            jobs: Vec::new(),
            usage: Vec::new(),
            controller_free: SimTime::ZERO,
            counts: Counts::default(),
            dependents: Vec::new(),
            admission_queue: std::collections::VecDeque::new(),
            pending_launches: std::collections::VecDeque::new(),
            inflight: 0,
            trace: Trace::default(),
            telemetry: Telemetry::new(config.telemetry),
            causal: causal::CausalState::default(),
            profiler: ProfileAccum::default(),
            active_by_runtime: HashMap::default(),
            clone_buf_pool: VecPool::default(),
            timing_buf_pool: VecPool::default(),
            placed_scratch: Vec::new(),
            queue: EventQueue::new(),
            config,
        })
    }

    /// Schedule `event` at `time`.
    pub(super) fn schedule(&mut self, time: SimTime, event: Event) {
        self.queue.push(time, event);
    }

    // ------------------------------------------------------------------
    // Strategy-facing mutators. The read API lives in `queries`.
    // ------------------------------------------------------------------

    /// Create a warm-pool replica container of `runtime` on `node`.
    /// Returns its id and the time it will reach `Warm`. Billing starts
    /// immediately (replicas cost money while parked — Figs. 8–10).
    pub fn create_replica(
        &mut self,
        node: NodeId,
        runtime: RuntimeKind,
        memory_mb: u64,
    ) -> Result<(ContainerId, SimTime), PlacementError> {
        self.create_parked(node, runtime, memory_mb, ContainerPurpose::Replica)
    }

    /// Create a standby container (AS baseline): identical mechanics to a
    /// replica but tracked under the standby purpose for cost attribution.
    pub fn create_standby(
        &mut self,
        node: NodeId,
        runtime: RuntimeKind,
        memory_mb: u64,
    ) -> Result<(ContainerId, SimTime), PlacementError> {
        self.create_parked(node, runtime, memory_mb, ContainerPurpose::Standby)
    }

    /// The body of [`Self::create_replica`] and [`Self::create_standby`]:
    /// place and bill a container of `purpose`, start its cold start, and
    /// schedule the `ReplicaWarm` that parks it warm. Only replicas are
    /// traced as `WarmPoolSpawned`.
    fn create_parked(
        &mut self,
        node: NodeId,
        runtime: RuntimeKind,
        memory_mb: u64,
        purpose: ContainerPurpose,
    ) -> Result<(ContainerId, SimTime), PlacementError> {
        let id = self.registry.create(node, runtime, purpose)?;
        let startup = self
            .coldstart
            .start_container(&self.config.cluster, node, runtime);
        let now = self.now();
        let ready = now + startup.total();
        self.push_usage(
            id,
            ContainerUsage {
                purpose,
                memory_mb,
                created: now,
                terminated: SimTime::MAX,
            },
        );
        if purpose == ContainerPurpose::Replica {
            self.emit(TraceKind::WarmPoolSpawned {
                container: id,
                node,
            });
        }
        self.telemetry
            .span_start(Phase::ReplicaColdStart, id.0, now);
        // Walk the lifecycle to Initializing now; `ReplicaWarm` completes it.
        self.registry
            .transition(id, ContainerState::Launching)
            .expect("fresh container");
        self.registry
            .transition(id, ContainerState::Initializing)
            .expect("launching container");
        self.schedule(ready, Event::ReplicaWarm { container: id });
        Ok((id, ready))
    }

    /// Tear down a warm replica/standby the strategy no longer wants.
    pub fn reclaim_container(&mut self, id: ContainerId) {
        if let Some(c) = self.registry.get(id) {
            if !c.state.is_terminal() {
                self.registry
                    .transition(id, ContainerState::Reclaimed)
                    .expect("non-terminal container");
                self.finish_usage(id, self.now());
            }
        }
    }

    /// Deterministic RNG stream reserved for strategy decisions.
    pub fn strategy_rng(&mut self) -> &mut SimRng {
        &mut self.strategy_rng
    }

    /// The run's telemetry recorder; strategies observe their phase
    /// latencies and report store totals through this. Every call is a
    /// no-op when `RunConfig::telemetry` is off.
    pub fn telemetry_mut(&mut self) -> &mut Telemetry {
        &mut self.telemetry
    }

    /// Record an event: fold it into the run's counters
    /// ([`Counts::record`]), then append it to the execution trace (that
    /// part is a no-op unless `RunConfig::trace` is on). This is the only
    /// place a traced count moves, so strategies emit events only they
    /// can see, like checkpoint writes and restores, through here.
    ///
    /// Returns the event's span id — [`SpanId::NONE`] unless
    /// [`RunConfig::causal`] assigned one — so emit sites can thread a
    /// cause into later events.
    pub fn emit(&mut self, kind: TraceKind) -> SpanId {
        self.counts.record(&kind);
        if !self.config.trace {
            return SpanId::NONE;
        }
        let (span, parent, cause) = if self.config.causal {
            self.causal_links(&kind)
        } else {
            (SpanId::NONE, SpanId::NONE, SpanId::NONE)
        };
        self.trace.events.push(TraceEvent {
            at: self.now(),
            kind,
            span,
            parent,
            cause,
        });
        span
    }

    // ------------------------------------------------------------------
    // Internals shared across the engine's submodules.
    // ------------------------------------------------------------------

    /// Move `fn_id` to `next`, keeping the per-runtime active-function
    /// counter in step (active = `Running` or `Recovering`). Every
    /// `FnStatus` write in the engine goes through here.
    fn set_fn_status(&mut self, fn_id: FnId, next: FnStatus) {
        let rec = &mut self.fns[fn_id.0 as usize];
        let was_active = matches!(rec.status, FnStatus::Running | FnStatus::Recovering);
        let is_active = matches!(next, FnStatus::Running | FnStatus::Recovering);
        rec.status = next;
        if was_active != is_active {
            let runtime = rec.workload.runtime;
            let n = self.active_by_runtime.entry(runtime).or_insert(0);
            if is_active {
                *n += 1;
            } else {
                *n = n.saturating_sub(1);
            }
        }
    }

    /// Record a fresh container's usage row and count it. Container ids
    /// are handed out densely by the registry, so usage is a plain vector
    /// push.
    fn push_usage(&mut self, id: ContainerId, usage: ContainerUsage) {
        debug_assert_eq!(
            id.0 as usize,
            self.usage.len(),
            "usage rows must stay in step with dense container ids"
        );
        self.usage.push(usage);
        self.counts.run.containers_created += 1;
    }

    fn finish_usage(&mut self, id: ContainerId, at: SimTime) {
        if let Some(u) = self.usage.get_mut(id.0 as usize) {
            if u.terminated == SimTime::MAX {
                u.terminated = at.max(u.created);
            }
        }
    }
}

/// Per-event-kind hot-path accumulators ([`RunConfig::profile`]),
/// indexed by [`Event::kind_index`].
#[derive(Debug, Default)]
struct ProfileAccum {
    dispatches: [u64; events::EVENT_KINDS],
    wall_ns: [u64; events::EVENT_KINDS],
    allocs: [u64; events::EVENT_KINDS],
}

impl ProfileAccum {
    fn record(&mut self, kind: usize, wall_ns: u64, allocs: u64) {
        self.dispatches[kind] += 1;
        self.wall_ns[kind] += wall_ns;
        self.allocs[kind] += allocs;
    }

    fn snapshot(&self) -> HotPathProfile {
        let rows = events::EVENT_KIND_LABELS
            .iter()
            .enumerate()
            .map(|(kind, &label)| HotPathRow {
                event: label.to_string(),
                dispatches: self.dispatches[kind],
                wall_ns: self.wall_ns[kind],
                allocs: self.allocs[kind],
            })
            .collect();
        HotPathProfile {
            enabled: true,
            rows,
        }
    }
}

/// Execute `jobs` under `strategy` with `config`; returns the full result.
///
/// Panics on an invalid configuration or batch — the historical contract
/// every experiment binary relies on. Use [`try_run`] to get the typed
/// [`RunConfigError`] instead.
pub fn run(config: RunConfig, jobs: Vec<JobSpec>, strategy: &mut dyn FtStrategy) -> RunResult {
    try_run(config, jobs, strategy).unwrap_or_else(|e| panic!("{e}"))
}

/// Execute `jobs` under `strategy` with `config`, surfacing configuration
/// and batch-ordering problems as a typed [`RunConfigError`] instead of
/// panicking.
pub fn try_run(
    config: RunConfig,
    jobs: Vec<JobSpec>,
    strategy: &mut dyn FtStrategy,
) -> Result<RunResult, RunConfigError> {
    let mut p = Platform::new(config)?;

    setup::register_jobs(&mut p, jobs)?;
    setup::schedule_node_failures(&mut p);
    setup::schedule_chaos(&mut p);

    // Main loop: pop one event at a time in `(time, push order)`. An
    // event a handler schedules at the current instant sorts after every
    // event already pending there. The profiled variant times every
    // dispatch with host wall-clock (simulated time never advances inside
    // a handler, so the whole measurement is sim-time-free) and
    // attributes allocations when a counting-allocator hook is installed.
    if p.config.profile {
        while let Some((_, ev)) = p.queue.pop() {
            let kind = ev.kind_index();
            let allocs_before = crate::profile::alloc_count();
            let started = std::time::Instant::now();
            p.dispatch(strategy, ev);
            let wall_ns = started.elapsed().as_nanos() as u64;
            let allocs = crate::profile::alloc_count().saturating_sub(allocs_before);
            p.profiler.record(kind, wall_ns, allocs);
        }
    } else {
        while let Some((_, ev)) = p.queue.pop() {
            p.dispatch(strategy, ev);
        }
    }
    // A plan lives from its attempt's start to its end or preemption, and
    // every end is a queued event: once the queue drains, no plan is left.
    debug_assert!(
        p.fns.iter().all(|f| f.plan.is_none()),
        "attempt plans outlived the run"
    );

    strategy.on_run_end(&mut p);
    // Every telemetry span opened during the run must have been ended or
    // cancelled by now; a leak here means a phase histogram silently lost
    // samples (the snapshot also reports leaks as `spans_orphaned`).
    debug_assert_eq!(
        p.telemetry.open_span_count(),
        0,
        "telemetry spans left open at run end"
    );
    let finished_at = p.now();
    assert!(
        p.admission_queue.is_empty(),
        "admission queue must drain once arrivals stop"
    );
    assert!(
        p.pending_launches.is_empty(),
        "pending launches must drain once the event queue empties"
    );

    // Close out still-open usage records (parked replicas etc.).
    for u in &mut p.usage {
        if u.terminated == SimTime::MAX {
            u.terminated = finished_at.max(u.created);
        }
    }

    let fns: Vec<FnOutcome> = p
        .fns
        .iter()
        .filter(|f| !p.jobs[f.job.0 as usize].rejected)
        .map(|f| {
            assert_eq!(
                f.status,
                FnStatus::Completed,
                "{} did not complete (failures: {})",
                f.id,
                f.failures
            );
            FnOutcome {
                id: f.id,
                job: f.job,
                first_launch: f.first_launch.expect("launched"),
                completed_at: f.completed_at.expect("completed"),
                failures: f.failures,
                recovery: f.recovery,
                attempts: f.attempt,
            }
        })
        .collect();
    let jobs_out: Vec<JobOutcome> = p
        .jobs
        .iter()
        .map(|j| JobOutcome {
            id: j.id,
            submitted_at: j.submitted_at,
            admitted_at: j.admitted_at,
            first_exec_at: j.first_exec,
            // A rejected job "finishes" the moment it is refused.
            completed_at: j.completed_at.unwrap_or_else(|| {
                assert!(j.rejected, "unfinished job that was not rejected");
                j.submitted_at
            }),
            rejected: j.rejected,
        })
        .collect();
    let mut containers: Vec<ContainerUsage> = p.usage;
    containers.sort_by_key(|u| (u.created, u.terminated));

    let profile = if p.config.profile {
        p.profiler.snapshot()
    } else {
        HotPathProfile::default()
    };
    Ok(RunResult {
        strategy: strategy.name(),
        fns,
        jobs: jobs_out,
        containers,
        counters: p.counts.run,
        finished_at,
        trace: p.trace,
        telemetry: p.telemetry.snapshot(&p.counts),
        profile,
    })
}
