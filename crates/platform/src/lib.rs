//! # canary-platform
//!
//! An OpenWhisk-like FaaS platform as a deterministic discrete-event
//! simulation: a serialized admission controller, per-node invokers with
//! slot-limited container placement, analytic attempt planning driven by a
//! pure failure oracle, node-crash preemption, and a pluggable
//! fault-tolerance strategy interface ([`FtStrategy`]) implemented by the
//! retry / request-replication / active-standby baselines and by Canary
//! itself. One engine, many strategies — so measured differences between
//! recovery strategies are attributable to the strategy alone, exactly
//! like the paper swapping recovery policies on a single OpenWhisk
//! deployment.
//!
//! Observability is opt-in and read-only: [`RunConfig::trace`] records the
//! event-by-event execution [`trace`], [`RunConfig::telemetry`] collects
//! per-phase latency histograms and exports the run's counters
//! ([`telemetry`]), [`RunConfig::causal`] threads span/parent/cause links
//! through the trace at emit time, [`RunConfig::profile`] measures the
//! engine's own hot path ([`profile`]), and all of it lands in the
//! [`RunResult`] without affecting the simulation.

pub mod accounting;
pub mod config;
pub mod engine;
pub mod ids;
pub mod intern;
pub mod job;
pub mod profile;
pub mod strategy;
pub mod telemetry;
pub mod trace;

pub use accounting::{
    counters_from_trace, ContainerUsage, Counts, FnOutcome, JobOutcome, RunCounters, RunResult,
};
pub use config::RunConfig;
pub use engine::{run, try_run, validate_batch, Event, Platform, RunConfigError, StateTiming};
pub use ids::{FnId, JobId};
pub use intern::{Symbol, SymbolTable};
pub use job::{FnRecord, FnStatus, JobRecord, JobSpec, PlannedAttempt};
pub use profile::{install_alloc_counter, HotPathProfile, HotPathRow};
pub use strategy::{
    ArrivalVerdict, FailureInfo, FailureKind, FtStrategy, RecoveryPlan, RecoveryTarget,
};
pub use telemetry::{
    Histogram, Phase, PhaseSummary, StoreStats, TableStats, Telemetry, TelemetrySnapshot,
};
pub use trace::{SpanId, Trace, TraceEvent, TraceKind};
