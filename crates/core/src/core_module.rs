//! The Core Module: Canary's orchestrator, as an [`FtStrategy`].
//!
//! §IV-C.1: the Core Module receives requests (validated by the Request
//! Validator), creates the database entries, coordinates the Checkpointing
//! and Replication Modules through the Runtime Manager, tracks every
//! scheduled function's state, detects failures, and drives end-to-end
//! recovery: locate the latest checkpoint, pick the best replicated
//! runtime, restore, and resume.
//!
//! Every decision is observable: validator verdicts, checkpoint writes
//! and restores, recovery plans (with their detect/restore split), and
//! replica-pool churn go through `Platform::emit`, which counts each one
//! and appends it to the opt-in trace, and their latencies are measured
//! in the telemetry layer, at zero cost when observability is disabled.

use crate::checkpoint::CheckpointingModule;
use crate::config::CanaryConfig;
use crate::db::{CanaryDb, DbOptions, FunctionInfoRow, JobInfoRow, WorkerInfoRow};
use crate::prediction::FailurePredictor;
use crate::replication::ReplicationModule;
use crate::runtime_manager::{ReplicaOffer, RuntimeManager};
use crate::validator::{Admission, PlatformLimits, RequestValidator};
use canary_cluster::{CpuClass, FaultEvent, NodeId};
use canary_container::ContainerId;
use canary_platform::{
    ArrivalVerdict, FailureInfo, FailureKind, FnId, FtStrategy, JobId, Phase, Platform,
    RecoveryPlan, RecoveryTarget, StoreStats, TraceKind,
};
use canary_sim::{SimDuration, SimTime};
use canary_workloads::RuntimeKind;
use std::sync::Arc;

fn cpu_ordinal(c: CpuClass) -> u8 {
    match c {
        CpuClass::Gold6126 => 0,
        CpuClass::Gold6240R => 1,
        CpuClass::Gold6242 => 2,
        CpuClass::Generic => 3,
    }
}

/// Price a checkpoint read over the path from the failed node to the
/// metadata store, which lives with the cluster (modelled as the first
/// worker): a degraded or partitioned path multiplies the read and adds
/// the payload's wire time.
fn over_network(
    platform: &Platform,
    failure: &FailureInfo,
    duration: SimDuration,
    bytes: u64,
) -> SimDuration {
    let cfg = platform.config();
    let store = NodeId(0);
    let factor = platform
        .chaos()
        .transfer_penalty(failure.node, store, failure.at);
    if factor > 1.0 {
        duration.mul_f64(factor)
            + cfg
                .network
                .transfer_time_degraded(&cfg.cluster, failure.node, store, bytes, factor)
    } else {
        duration
    }
}

/// Canary, assembled.
pub struct CanaryStrategy {
    config: CanaryConfig,
    /// Owns the metadata database ([`CanaryStrategy::db`] borrows it).
    checkpointing: CheckpointingModule,
    runtime_manager: RuntimeManager,
    replication: ReplicationModule,
    validator: RequestValidator,
    predictor: FailurePredictor,
    workers_registered: bool,
    /// Scratch for the predictor's risky-node set (rebuilt on every pool
    /// reconciliation — job admits, completions, and failures).
    risky_scratch: Vec<canary_cluster::NodeId>,
}

impl CanaryStrategy {
    /// Build Canary with the given configuration. The metadata database is
    /// replicated across three members (Ignite's replicated caching mode)
    /// and logs every mutation through its write-ahead log
    /// ([`DbOptions::durable`]).
    pub fn new(config: CanaryConfig) -> Self {
        Self::with_db_options(config, DbOptions::durable(3))
    }

    /// [`CanaryStrategy::new`] over a metadata database built with `db`,
    /// so tests can turn the write-ahead log off and check that it does
    /// not change a run.
    pub fn with_db_options(config: CanaryConfig, db: DbOptions) -> Self {
        config.validate().expect("invalid Canary configuration");
        let checkpointing = CheckpointingModule::new(
            config.clone(),
            canary_cluster::StorageHierarchy::default(),
            Arc::new(CanaryDb::with_options(db)),
        );
        CanaryStrategy {
            replication: ReplicationModule::new(config.clone()),
            checkpointing,
            runtime_manager: RuntimeManager::new(),
            validator: RequestValidator::default(),
            predictor: FailurePredictor::new(),
            workers_registered: false,
            risky_scratch: Vec::new(),
            config,
        }
    }

    /// Default Canary (dynamic replication, implicit checkpointing).
    pub fn default_dr() -> Self {
        Self::new(CanaryConfig::default())
    }

    /// The metadata database (exposed for tests and tools).
    pub fn db(&self) -> &CanaryDb {
        self.checkpointing.db()
    }

    /// The checkpointing module (exposed for tests and tools).
    pub fn checkpointing(&self) -> &CheckpointingModule {
        &self.checkpointing
    }

    /// The replication module (exposed for tests and tools).
    pub fn replication(&self) -> &ReplicationModule {
        &self.replication
    }

    /// The failure predictor (exposed for tests and tools).
    pub fn predictor(&self) -> &FailurePredictor {
        &self.predictor
    }

    /// Refresh `risky_scratch` with the nodes the predictor currently
    /// flags (empty when proactive mode is off).
    fn refresh_risky(&mut self, now: canary_sim::SimTime) {
        if self.config.proactive {
            let mut scratch = std::mem::take(&mut self.risky_scratch);
            self.predictor.risky_nodes_into(now, &mut scratch);
            self.risky_scratch = scratch;
        } else {
            self.risky_scratch.clear();
        }
    }

    fn register_workers(&mut self, platform: &Platform) {
        if self.workers_registered {
            return;
        }
        // Derive account limits from the deployment (on-prem OpenWhisk
        // quotas scale with the cluster, unlike public-cloud defaults).
        // Under an open-loop admission gate the concurrency quota mirrors
        // the engine's cap, so validator verdicts reflect real headroom.
        let slots = platform.config().cluster.total_slots() as u32;
        let max_concurrent = match platform.config().max_inflight {
            Some(cap) => cap,
            None => slots.saturating_mul(64).max(10_000),
        };
        self.validator = RequestValidator::new(PlatformLimits {
            max_memory_mb: 10 * 1024,
            max_concurrent,
            max_batch: 100_000,
        });
        for node in platform.config().cluster.nodes() {
            // Metadata writes are best effort under chaos: a store outage
            // loses bookkeeping rows, not correctness.
            let _ = self.db().put_worker(&WorkerInfoRow {
                node_id: node.id.0,
                cpu_class: cpu_ordinal(node.cpu),
                memory_mb: node.memory_mb,
                rack: node.rack,
                slots: node.container_slots,
            });
        }
        self.workers_registered = true;
    }

    /// Recovery-time budget for migrating a function onto a runtime and
    /// restoring the checkpoint, given the failure kind. Corruption-aware:
    /// probes the retained window newest-first, falling back to the
    /// previous checkpoint (or all the way to rerun-from-start) when the
    /// latest ones are unreadable, and stretches the read over a degraded
    /// or partitioned interconnect.
    fn restore_plan(
        &mut self,
        platform: &mut Platform,
        fn_id: FnId,
        failure: &FailureInfo,
    ) -> (u32, SimDuration) {
        let node_lost = failure.kind == FailureKind::NodeCrash;
        let lookup = {
            let chaos = platform.chaos();
            self.checkpointing
                .restore_lookup(fn_id.0, node_lost, &|c| chaos.corrupted(fn_id.0, c))
        };
        self.note_corrupted(platform, fn_id, &lookup.corrupted);
        let Some(info) = lookup.info else {
            if lookup.had_checkpoints {
                // Every retained checkpoint was corrupted or its row
                // lost to a store outage: rerun from the start.
                platform.emit(TraceKind::RestoreFallback { fn_id, state: 0 });
            }
            return (0, SimDuration::ZERO);
        };
        let duration = over_network(platform, failure, info.duration, info.bytes);
        if !lookup.corrupted.is_empty() {
            let state = info.resume_from_state;
            platform.emit(TraceKind::RestoreFallback { fn_id, state });
        }
        platform.emit(TraceKind::CheckpointRestored {
            fn_id,
            state: info.resume_from_state,
            bytes: info.bytes,
            tier: info.tier,
        });
        platform
            .telemetry_mut()
            .observe(Phase::CheckpointRestore, duration);
        (info.resume_from_state, duration)
    }

    /// Report each checkpoint a probe skipped as corrupted. In chunked
    /// mode the verdict damages a physical chunk, not a whole blob: the
    /// chaos plan draws which chunk of the manifest the fault lands on,
    /// and one bit of its stored body flips, so byte-level restores fail
    /// verification for exactly the checkpoints referencing that chunk.
    /// A blob-oracle checkpoint has no chunks (count 0), so nothing lands
    /// — the checkpoint-level verdict already is the whole story.
    fn note_corrupted(&mut self, platform: &mut Platform, fn_id: FnId, corrupted: &[u64]) {
        for &ckpt_id in corrupted {
            platform.emit(TraceKind::CheckpointCorrupted { fn_id, ckpt_id });
            let count = self.checkpointing.chunk_count(fn_id.0, ckpt_id);
            if let Some(idx) = platform.chaos().corrupted_chunk(fn_id.0, ckpt_id, count) {
                self.checkpointing.corrupt_ckpt_chunk(fn_id.0, ckpt_id, idx);
            }
        }
    }

    /// Live-migration recovery (DESIGN.md §14): the function's
    /// manifest-reachable state moves to the warm replica — only the
    /// chunks the replica lacks travel over the shared tier — and
    /// execution resumes from the newest usable checkpoint there. Probes
    /// and degradation pricing are those of [`Self::restore_plan`]; the
    /// win is the delta-sized transfer. With no usable checkpoint the
    /// replica reruns from the start (migration never resurrects a
    /// corrupted checkpoint).
    fn migrate_recovery(
        &mut self,
        platform: &mut Platform,
        fn_id: FnId,
        failure: &FailureInfo,
        container: ContainerId,
    ) -> RecoveryPlan {
        let detect = self.config.detection_delay;
        let migrate = self.config.migration_delay;
        let lookup = {
            let chaos = platform.chaos();
            self.checkpointing
                .migrate_lookup(fn_id.0, &|c| chaos.corrupted(fn_id.0, c))
        };
        self.note_corrupted(platform, fn_id, &lookup.corrupted);
        let Some(info) = lookup.info else {
            if lookup.had_checkpoints {
                platform.emit(TraceKind::MigrationFallback { fn_id });
            }
            return RecoveryPlan {
                resume_from_state: 0,
                delay: detect + migrate,
                target: RecoveryTarget::WarmContainer(container),
                detect,
                restore: SimDuration::ZERO,
            };
        };
        let duration = over_network(platform, failure, info.duration, info.bytes);
        platform.emit(TraceKind::MigrationPlanned {
            fn_id,
            container,
            ckpt_id: info.ckpt_id,
            chunks: info.chunks,
            bytes: info.bytes,
        });
        platform
            .telemetry_mut()
            .observe(Phase::CheckpointRestore, duration);
        RecoveryPlan {
            resume_from_state: info.resume_from_state,
            delay: detect + migrate + duration,
            target: RecoveryTarget::WarmContainer(container),
            detect,
            restore: duration,
        }
    }

    /// Run pool reconciliation for `runtime` and record the outcome in the
    /// trace/telemetry (observation only — the pool change itself is
    /// identical to calling [`ReplicationModule::reconcile`] directly).
    fn reconcile_pool(&mut self, platform: &mut Platform, runtime: RuntimeKind) {
        self.refresh_risky(platform.now());
        let risky = std::mem::take(&mut self.risky_scratch);
        let (spawned, reclaimed) =
            self.replication
                .reconcile(platform, &mut self.runtime_manager, runtime, &risky);
        self.risky_scratch = risky;
        if spawned > 0 || reclaimed > 0 {
            platform.emit(TraceKind::ReplicaRefreshed {
                spawned: spawned as u32,
                reclaimed: reclaimed as u32,
            });
        }
    }
}

impl FtStrategy for CanaryStrategy {
    fn name(&self) -> String {
        match self.config.replication {
            crate::config::ReplicationStrategyKind::Dynamic => "Canary".to_string(),
            other => format!("Canary-{}", other.label()),
        }
    }

    fn on_job_arrival(&mut self, platform: &mut Platform, job: JobId) -> ArrivalVerdict {
        // Request validation runs at arrival (§IV-C.2), against the live
        // inflight count — the validator's verdicts reflect real headroom
        // rather than an empty account.
        self.register_workers(platform);
        let spec = {
            let j = platform.job(job);
            canary_platform::JobSpec::new((*j.workload).clone(), j.fn_ids.len() as u32)
        };
        match self.validator.admit(&spec, platform.inflight_functions()) {
            // The engine owns the FIFO admission queue and holds even an
            // `Admit` behind jobs already queued, so only a quota overrun
            // needs a `Queue` verdict — and only under an engine gate.
            // Without one, quotas are sized so closed-batch runs always
            // fit and nothing would ever drain a held job: admit rather
            // than wedge.
            Ok(Admission::Queue) if platform.config().max_inflight.is_some() => {
                ArrivalVerdict::Queue
            }
            Ok(_) => ArrivalVerdict::Admit,
            Err(_) => ArrivalVerdict::Reject,
        }
    }

    fn on_job_admitted(&mut self, platform: &mut Platform, job: JobId) {
        self.register_workers(platform);
        let (runtime, memory, invocations, fn_ids, submitted) = {
            let j = platform.job(job);
            (
                j.workload.runtime,
                j.workload.memory_mb,
                j.fn_ids.len() as u32,
                j.fn_ids.clone(),
                j.submitted_at,
            )
        };
        let _ = self.db().put_job(&JobInfoRow {
            job_id: job.0,
            runtime,
            invocations,
            ckpt_window: self.checkpointing.window_size() as u32,
            replication_strategy: self.config.replication.ordinal(),
            submitted_us: submitted.as_micros(),
        });
        for fn_id in fn_ids {
            let _ = self.db().put_function(&FunctionInfoRow {
                fn_id: fn_id.0,
                job_id: job.0,
                runtime,
                node_id: u32::MAX,
                status: 0,
            });
            self.runtime_manager.note_function_started(runtime);
            self.replication.note_attempt(runtime);
        }
        // Dynamic checkpoint-window adjustment from the job's workload
        // shape (§IV-C.4b).
        let (bytes, states) = {
            let w = &platform.job(job).workload;
            (w.max_ckpt_bytes(), w.num_states())
        };
        self.checkpointing.adjust_window_for(bytes, states);
        self.replication.note_job(runtime, memory);
        // Algorithm 2 runs at job submission.
        self.reconcile_pool(platform, runtime);
    }

    fn state_overhead(&self, platform: &Platform, fn_id: FnId, state_idx: u32) -> SimDuration {
        let state = platform.fn_record(fn_id).workload.states[state_idx as usize];
        let stride = self.checkpointing.stride_for(state.exec, state.ckpt_bytes);
        if self.checkpointing.is_checkpoint_state(state_idx, stride) {
            self.checkpointing.write_cost(state.ckpt_bytes)
        } else {
            // Frequency adaptation: this state completes without a
            // checkpoint (its progress banks at the next boundary).
            SimDuration::ZERO
        }
    }

    fn on_state_durable(
        &mut self,
        platform: &mut Platform,
        fn_id: FnId,
        state_idx: u32,
        at: SimTime,
    ) {
        let (job, state) = {
            let rec = platform.fn_record(fn_id);
            (rec.job, rec.workload.states[state_idx as usize])
        };
        let stride = self.checkpointing.stride_for(state.exec, state.ckpt_bytes);
        if !self.checkpointing.is_checkpoint_state(state_idx, stride) {
            return; // not a checkpoint boundary under the adapted stride
        }
        let effective = self.checkpointing.effective_bytes(state.ckpt_bytes);
        let tier = self.checkpointing.placement_tier(state.ckpt_bytes);
        if self
            .checkpointing
            .record(job.0, fn_id.0, state_idx, state.ckpt_bytes, at)
            .is_err()
        {
            // Store outage: the checkpoint is skipped, the durable frontier
            // stays put, and a later failure restores from an older state.
            platform.emit(TraceKind::CheckpointSkipped {
                fn_id,
                state: state_idx,
            });
            return;
        }
        let cost = self.checkpointing.write_cost(state.ckpt_bytes);
        // The write cost rides the trace only under causal observation,
        // keeping the pre-causal trace bytes untouched; blame extraction
        // uses it to split exec time from checkpoint time.
        let traced_cost = if platform.config().causal {
            cost
        } else {
            SimDuration::ZERO
        };
        platform.emit(TraceKind::CheckpointWritten {
            fn_id,
            state: state_idx,
            bytes: effective,
            tier,
            cost: traced_cost,
        });
        platform
            .telemetry_mut()
            .observe(Phase::CheckpointWrite, cost);
    }

    fn on_failure(
        &mut self,
        platform: &mut Platform,
        fn_id: FnId,
        failure: FailureInfo,
    ) -> RecoveryPlan {
        let runtime = platform.fn_record(fn_id).workload.runtime;
        self.replication.note_failure(runtime);
        // The retried attempt is a new attempt for rate purposes.
        self.replication.note_attempt(runtime);
        // Feed the proactive predictor (§VII future work).
        match failure.kind {
            FailureKind::NodeCrash => self.predictor.record_node_crash(failure.node, failure.at),
            _ => self.predictor.record_failure(failure.node, failure.at),
        }

        let detect = self.config.detection_delay;
        let migrate = self.config.migration_delay;
        let now = failure.at;

        // Find the best replicated runtime (§IV-C.4c: "the best possible
        // replicated runtime is selected to minimize the recovery time").
        let offer = self.runtime_manager.acquire(runtime);
        // Live migration applies when a node died (the local state is
        // gone with it) and a warm replica is already standing: ship the
        // checkpoint delta there instead of reading the payload in full.
        let plan = if let (true, Some(ReplicaOffer::Warm(container))) = (
            self.config.migrate && failure.kind == FailureKind::NodeCrash,
            &offer,
        ) {
            let container = *container;
            self.runtime_manager.note_consumed(container);
            self.migrate_recovery(platform, fn_id, &failure, container)
        } else {
            let (resume_from_state, restore) = self.restore_plan(platform, fn_id, &failure);
            match offer {
                Some(ReplicaOffer::Warm(container)) => {
                    self.runtime_manager.note_consumed(container);
                    RecoveryPlan {
                        resume_from_state,
                        delay: detect + migrate + restore,
                        target: RecoveryTarget::WarmContainer(container),
                        detect,
                        restore,
                    }
                }
                Some(ReplicaOffer::Pending(container, ready_at)) => {
                    // Wait for the in-flight replica (§V-D.1: "the platform
                    // has to wait for the replicated runtimes to be ready"
                    // when many functions fail simultaneously).
                    self.runtime_manager.note_consumed(container);
                    let wait = ready_at.saturating_since(now);
                    RecoveryPlan {
                        resume_from_state,
                        delay: detect + wait + migrate + restore,
                        target: RecoveryTarget::WarmContainer(container),
                        detect,
                        restore,
                    }
                }
                None => {
                    // Pool exhausted and nothing in flight: fall back to a
                    // cold start, still restoring from the checkpoint.
                    RecoveryPlan {
                        resume_from_state,
                        delay: detect + restore,
                        target: RecoveryTarget::FreshContainer,
                        detect,
                        restore,
                    }
                }
            }
        };

        // Replace consumed capacity (the Runtime Manager "creates a new
        // replica if an active function is deployed with the same
        // runtime", §IV-C.5).
        self.reconcile_pool(platform, runtime);

        // Track the failed function's row.
        let job = platform.fn_record(fn_id).job;
        let _ = self.db().put_function(&FunctionInfoRow {
            fn_id: fn_id.0,
            job_id: job.0,
            runtime,
            node_id: failure.node.0,
            status: 2, // recovering
        });
        plan
    }

    fn on_chaos(&mut self, platform: &mut Platform, fault: &FaultEvent) {
        let kv = self.db().kv();
        match *fault {
            FaultEvent::StoreDown { member } => {
                let _ = kv.fail_node(member as usize % kv.member_count());
            }
            FaultEvent::StoreRejoin { member } => {
                let node = member as usize % kv.member_count();
                if kv.recover_node(node).is_err() {
                    // The whole group was down, so there is no donor to
                    // resynchronize from: rejoin empty. The data loss
                    // surfaces as missing checkpoint rows, and restores
                    // fall back to rerun-from-start.
                    let _ = kv.rejoin_empty(node);
                }
            }
            FaultEvent::ControllerCrash => {
                // The control plane itself dies: every in-memory metadata
                // copy is lost with the process, a torn in-flight record
                // is left on the WAL, and the store is rebuilt from
                // snapshot + log. Recovery is modeled as instantaneous in
                // simulated time — the restarted controller resumes the
                // same deterministic schedule — so only the trace and
                // counters record that it happened.
                // Without a WAL (`DbOptions::durable` off) the metadata is
                // simply gone and later restores fall back to
                // rerun-from-start.
                match self.db().crash_and_recover() {
                    Ok(recovery) => {
                        platform.emit(TraceKind::ControllerRecovered {
                            snapshot: recovery.snapshot_entries,
                            replayed: recovery.replayed_records,
                            torn: recovery.torn_tail,
                        });
                    }
                    Err(e) => {
                        // Corrupt WAL: recovery already fell back to an
                        // empty store inside crash_and_recover's callee;
                        // record a lossy restart.
                        debug_assert!(false, "wal recovery failed: {e}");
                        platform.emit(TraceKind::ControllerRecovered {
                            snapshot: 0,
                            replayed: 0,
                            torn: false,
                        });
                    }
                }
            }
            _ => {}
        }
    }

    fn on_replica_warm(&mut self, _platform: &mut Platform, container: ContainerId) {
        self.runtime_manager.note_warm(container);
    }

    fn on_containers_lost(&mut self, platform: &mut Platform, lost: &[ContainerId]) {
        let affected = self.runtime_manager.note_lost(lost);
        for runtime in affected {
            self.reconcile_pool(platform, runtime);
        }
    }

    fn on_function_complete(&mut self, platform: &mut Platform, fn_id: FnId) {
        let (runtime, job) = {
            let rec = platform.fn_record(fn_id);
            (rec.workload.runtime, rec.job)
        };
        let _ = self.checkpointing.forget(fn_id.0);
        self.runtime_manager.note_function_finished(runtime);
        let _ = self.db().put_function(&FunctionInfoRow {
            fn_id: fn_id.0,
            job_id: job.0,
            runtime,
            node_id: u32::MAX,
            status: 3, // completed
        });
        // Shrink the pool as work drains (dynamic policies track active
        // functions downward too).
        self.reconcile_pool(platform, runtime);
    }

    fn on_run_end(&mut self, platform: &mut Platform) {
        // Tear down any replicas still parked; billing stops here.
        for runtime in canary_workloads::RuntimeKind::ALL {
            for container in self.runtime_manager.idle_warm(runtime) {
                self.runtime_manager.note_consumed(container);
                platform.reclaim_container(container);
            }
        }
        // Export the metadata database's per-table traffic and the store
        // totals into the run's telemetry snapshot.
        let stats = self.db().table_stats();
        let chunk = self.checkpointing.chunk_stats();
        let tel = platform.telemetry_mut();
        for (table, reads, writes) in stats {
            tel.set_table_stats(table, reads, writes);
        }
        tel.set_store_stats(StoreStats {
            chunks_written: chunk.written,
            chunks_deduped: chunk.deduped,
        });
    }
}
