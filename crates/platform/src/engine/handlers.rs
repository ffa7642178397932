//! Per-event handlers and the analytic attempt planner.
//!
//! Each handler owns one [`super::Event`] variant end to end; the shared
//! planning machinery (clone timelines, progress accounting, recovery
//! application) lives alongside them because it is only ever reached
//! from a handler.

use super::{Event, Platform};
use crate::ids::{FnId, JobId};
use crate::job::{CloneOutcome, FnStatus, PlannedAttempt, StateTiming};
use crate::strategy::{
    ArrivalVerdict, FailureInfo, FailureKind, FtStrategy, RecoveryPlan, RecoveryTarget,
};
use crate::telemetry::Phase;
use crate::trace::TraceKind;
use canary_cluster::{FaultEvent, NodeId};
use canary_container::{ContainerId, ContainerState, PlacementError};
use canary_sim::{SimDuration, SimTime};
use canary_workloads::RuntimeKind;
use std::sync::Arc;

impl Platform {
    /// Load balancer: node with the most free slots.
    fn pick_node(&self) -> Option<NodeId> {
        self.registry.best_free_node()
    }

    fn create_function_container(
        &mut self,
        runtime: RuntimeKind,
        memory_mb: u64,
    ) -> Result<(ContainerId, NodeId, SimDuration), PlacementError> {
        let node = self.pick_node().ok_or(PlacementError::ClusterFull)?;
        let id = self
            .registry
            .create(node, runtime, crate::engine::ContainerPurpose::Function)?;
        let startup = self
            .coldstart
            .start_container(&self.config.cluster, node, runtime);
        self.push_usage(
            id,
            crate::accounting::ContainerUsage {
                purpose: crate::engine::ContainerPurpose::Function,
                memory_mb,
                created: self.now(),
                terminated: SimTime::MAX,
            },
        );
        // Containers hosting functions go straight through their startup
        // phases; the timeline is folded into the exec start.
        for s in [
            ContainerState::Launching,
            ContainerState::Initializing,
            ContainerState::Warm,
            ContainerState::Executing,
        ] {
            self.registry.transition(id, s).expect("startup walk");
        }
        Ok((id, node, startup.total()))
    }

    /// Plan one clone's execution from `from_state`, beginning at
    /// `exec_start` on `node`. `timings` is a recycled (cleared) buffer
    /// the outcome takes ownership of — steady-state planning allocates
    /// nothing.
    #[allow(clippy::too_many_arguments)] // one-call-site planning helper
    fn plan_clone(
        &self,
        strategy: &dyn FtStrategy,
        fn_id: FnId,
        container: ContainerId,
        node: NodeId,
        exec_start: SimTime,
        from_state: u32,
        clone_idx: u32,
        attempt0: u32,
        mut timings: Vec<StateTiming>,
    ) -> CloneOutcome {
        let rec = &self.fns[fn_id.0 as usize];
        let spec = Arc::clone(&rec.workload);
        let states = &spec.states[from_state as usize..];

        // Reference work of the remaining states.
        let ref_total: SimDuration = states.iter().map(|s| s.exec).sum();

        // Oracle: does this clone die, and at which fraction of its work?
        let oracle_fn = if clone_idx == 0 {
            fn_id.0
        } else {
            fn_id.0 | ((clone_idx as u64) << 48)
        };
        let kill = self.injector.attempt(oracle_fn, attempt0);

        // Straggler chaos: a slowed executor divides the node's effective
        // speed for this whole attempt. Same pure-oracle keying as kills,
        // so clones of one attempt can straggle independently.
        let drag = self.chaos.straggler(oracle_fn, attempt0).unwrap_or(1.0);
        let speed = self.config.cluster.node(node).speed() / drag.max(1.0);

        let kill_work = kill.map(|k| ref_total.mul_f64(k.at_fraction));

        debug_assert!(timings.is_empty(), "recycled timing buffer not cleared");
        let mut t = exec_start;
        let mut done_work = SimDuration::ZERO;
        for (off, st) in states.iter().enumerate() {
            let idx = from_state + off as u32;
            let scaled = st.exec.mul_f64(1.0 / speed);
            let overhead = strategy.state_overhead(self, fn_id, idx);
            // Does the kill land inside this state's work?
            if let Some(kw) = kill_work {
                if done_work + st.exec > kw {
                    // Kill mid-state: partial work, then death.
                    let into = kw.saturating_sub(done_work); // ref units
                    let into_scaled = into.mul_f64(1.0 / speed);
                    let end = t + into_scaled;
                    return CloneOutcome {
                        container,
                        node,
                        exec_start,
                        end,
                        completes: false,
                        timings,
                        work_done: kw,
                    };
                }
            }
            let done_at = t + scaled + overhead;
            timings.push(StateTiming {
                idx,
                start: t,
                done: done_at,
                ref_exec: st.exec,
            });
            t = done_at;
            done_work += st.exec;
        }
        CloneOutcome {
            container,
            node,
            exec_start,
            end: t,
            completes: true,
            timings,
            work_done: ref_total,
        }
    }

    /// Reference work a clone had completed by time `t` (for node-crash
    /// progress accounting). Includes partial work in the running state.
    fn work_at(clone: &CloneOutcome, t: SimTime) -> (u32, SimDuration) {
        // States fully done before t.
        let mut work = SimDuration::ZERO;
        let mut volatile_state = clone.timings.first().map(|s| s.idx).unwrap_or(0);
        for st in &clone.timings {
            if st.done <= t {
                work += st.ref_exec;
                volatile_state = st.idx + 1;
            } else {
                // Partial progress in this state, linear in elapsed time.
                if t > st.start {
                    let span = st.done.saturating_since(st.start).as_secs_f64();
                    if span > 0.0 {
                        let frac = t.saturating_since(st.start).as_secs_f64() / span;
                        work += st.ref_exec.mul_f64(frac.min(1.0));
                    }
                }
                return (volatile_state, work);
            }
        }
        (volatile_state, work)
    }

    fn begin_attempt(
        &mut self,
        strategy: &mut dyn FtStrategy,
        fn_id: FnId,
        clones: &[(ContainerId, NodeId, SimTime)],
        from_state: u32,
        warm: bool,
    ) {
        let attempt = self.fns[fn_id.0 as usize].attempt + 1;
        self.fns[fn_id.0 as usize].attempt = attempt;

        let mut outcomes: Vec<CloneOutcome> = self.clone_buf_pool.get();
        for (c, &(ctr, node, exec_start)) in clones.iter().enumerate() {
            let timings = self.timing_buf_pool.get();
            let outcome = self.plan_clone(
                strategy,
                fn_id,
                ctr,
                node,
                exec_start,
                from_state,
                c as u32,
                attempt - 1,
                timings,
            );
            outcomes.push(outcome);
        }

        // Winner: earliest completing clone; if none completes the attempt
        // fails when the last clone dies, and the primary for progress
        // reporting is the clone that got furthest.
        let winner = outcomes
            .iter()
            .enumerate()
            .filter(|(_, o)| o.completes)
            .min_by_key(|(_, o)| o.end)
            .map(|(i, _)| i);
        let (end, completes, primary) = match winner {
            Some(i) => (outcomes[i].end, true, i),
            None => {
                let end = outcomes.iter().map(|o| o.end).max().expect("clones");
                let idx = outcomes
                    .iter()
                    .enumerate()
                    .max_by_key(|(_, o)| o.work_done)
                    .map(|(i, _)| i)
                    .expect("clones");
                (end, false, idx)
            }
        };
        let plan = PlannedAttempt {
            attempt,
            end,
            completes,
            from_state,
            clones: outcomes,
            primary,
        };

        // Resolve pending recovery accounting now that the new attempt's
        // exec start is known.
        let exec_start = plan.primary().exec_start;
        let node = plan.primary().node;
        {
            let rec = &mut self.fns[fn_id.0 as usize];
            if let Some((t_kill, p_kill)) = rec.pending_recovery.take() {
                let redo_ref = p_kill.saturating_sub(rec.banked_work);
                let speed = self.config.cluster.node(node).speed();
                let redo = redo_ref.mul_f64(1.0 / speed);
                rec.recovery += exec_start.saturating_since(t_kill) + redo;
            }
        }
        self.set_fn_status(fn_id, FnStatus::Running);
        // Queue-wait accounting: the job's first execution start (min
        // across its functions' attempts) closes the admitted→first-exec
        // leg.
        let job = self.fns[fn_id.0 as usize].job;
        let jrec = &mut self.jobs[job.0 as usize];
        jrec.first_exec = Some(jrec.first_exec.map_or(exec_start, |t| t.min(exec_start)));
        self.fns[fn_id.0 as usize].plan = Some(plan);
        // Telemetry: this attempt's execution start closes any open
        // recovery spans; the first attempt's start measures admission.
        self.telemetry
            .span_end(Phase::RecoveryE2E, fn_id.0, exec_start);
        if warm {
            self.telemetry
                .span_end(Phase::WarmResume, fn_id.0, exec_start);
        }
        if attempt == 1 {
            if let Some(first) = self.fns[fn_id.0 as usize].first_launch {
                self.telemetry
                    .observe(Phase::Admission, exec_start.saturating_since(first));
            }
        }
        self.emit(TraceKind::AttemptStarted {
            fn_id,
            attempt,
            node,
            warm,
        });
        // Record straggler injections for this attempt's clones (the
        // slowdown itself was already folded into the plans above).
        for clone_idx in 0..clones.len() as u32 {
            let oracle_fn = if clone_idx == 0 {
                fn_id.0
            } else {
                fn_id.0 | ((clone_idx as u64) << 48)
            };
            if let Some(factor) = self.chaos.straggler(oracle_fn, attempt - 1) {
                self.emit(TraceKind::StragglerInjected {
                    fn_id,
                    attempt,
                    pct: (factor * 100.0).round() as u32,
                });
            }
        }
        self.schedule(end, Event::AttemptEnd { fn_id, attempt });
    }

    /// Return a retired attempt's clone and timing buffers to their
    /// pools so the next attempt plans without allocating.
    fn recycle_attempt(&mut self, mut plan: PlannedAttempt) {
        for outcome in plan.clones.drain(..) {
            self.timing_buf_pool.put(outcome.timings);
        }
        self.clone_buf_pool.put(plan.clones);
    }

    fn apply_recovery_plan(&mut self, fn_id: FnId, plan: RecoveryPlan) {
        let now = self.now();
        self.emit(TraceKind::RecoveryPlanned {
            fn_id,
            target: plan.target,
            detect: plan.detect,
            restore: plan.restore,
        });
        if let RecoveryTarget::WarmContainer(_) = plan.target {
            self.telemetry.span_start(Phase::WarmResume, fn_id.0, now);
        }
        let banked = self.fns[fn_id.0 as usize].work_before_state(plan.resume_from_state);
        self.fns[fn_id.0 as usize].banked_work = banked;
        self.set_fn_status(fn_id, FnStatus::Recovering);
        match plan.target {
            RecoveryTarget::FreshContainer => {
                self.schedule(
                    now + plan.delay,
                    Event::Launch {
                        fn_id,
                        from_state: plan.resume_from_state,
                    },
                );
            }
            RecoveryTarget::WarmContainer(container) => {
                self.schedule(
                    now + plan.delay,
                    Event::WarmResume {
                        fn_id,
                        container,
                        from_state: plan.resume_from_state,
                    },
                );
            }
        }
    }

    /// Fail the in-flight attempt of `fn_id` at the current time (used for
    /// node crashes): computes partial progress, delivers durable-state
    /// callbacks, and asks the strategy for a recovery plan.
    fn preempt_attempt(&mut self, strategy: &mut dyn FtStrategy, fn_id: FnId, kind: FailureKind) {
        let now = self.now();
        let plan = self.fns[fn_id.0 as usize]
            .plan
            .take()
            .expect("running function has a plan");
        // Fence: invalidate the scheduled AttemptEnd.
        self.fns[fn_id.0 as usize].attempt += 1;
        let primary = plan
            .clones
            .iter()
            .max_by_key(|o| {
                let (_, w) = Self::work_at(o, now);
                w
            })
            .expect("at least one clone");
        let (volatile_state, work_now) = Self::work_at(primary, now);
        let primary_node = primary.node;

        // Durable callbacks for states completed before the crash.
        if let [clone] = plan.clones.as_slice() {
            for s in clone.timings.iter().filter(|s| s.done <= now) {
                strategy.on_state_durable(self, fn_id, s.idx, s.done);
            }
        }

        self.emit(TraceKind::AttemptFailed {
            fn_id,
            attempt: plan.attempt,
            node: primary_node,
        });
        self.telemetry.span_start(Phase::RecoveryE2E, fn_id.0, now);
        let banked = self.fns[fn_id.0 as usize].banked_work;
        let p_kill = banked + work_now;
        {
            let rec = &mut self.fns[fn_id.0 as usize];
            rec.failures += 1;
            rec.pending_recovery = Some((now, p_kill));
        }
        let info = FailureInfo {
            kind,
            at: now,
            node: primary_node,
            attempt: plan.attempt - 1,
            volatile_state,
        };
        let rplan = strategy.on_failure(self, fn_id, info);
        self.apply_recovery_plan(fn_id, rplan);
        self.recycle_attempt(plan);
    }

    pub(super) fn handle_attempt_end(
        &mut self,
        strategy: &mut dyn FtStrategy,
        fn_id: FnId,
        attempt: u32,
    ) {
        if self.fns[fn_id.0 as usize].attempt != attempt {
            return; // stale
        }
        let now = self.now();
        let plan = self.fns[fn_id.0 as usize]
            .plan
            .take()
            .expect("attempt end with no plan");

        // Durable-state callbacks (single-clone strategies only).
        if let [clone] = plan.clones.as_slice() {
            for s in clone.timings.iter().filter(|s| s.done <= now) {
                strategy.on_state_durable(self, fn_id, s.idx, s.done);
            }
        }

        // Terminate clone containers at their individual end times.
        for o in &plan.clones {
            if let Some(c) = self.registry.get(o.container) {
                if !c.state.is_terminal() {
                    let final_state = if plan.completes && o.completes && o.end == plan.end {
                        ContainerState::Completed
                    } else if o.completes || plan.completes {
                        // Lost the race or outlived by the winner: reclaimed.
                        ContainerState::Reclaimed
                    } else {
                        ContainerState::Failed
                    };
                    self.registry
                        .transition(o.container, final_state)
                        .expect("legal terminal transition");
                    self.finish_usage(o.container, o.end.min(now).max(o.exec_start));
                }
            }
        }

        if plan.completes {
            let done_span = self.emit(TraceKind::FunctionCompleted { fn_id });
            self.set_fn_status(fn_id, FnStatus::Completed);
            let rec = &mut self.fns[fn_id.0 as usize];
            rec.completed_at = Some(now);
            let job = rec.job;
            // Capacity freed: one fewer invocation inflight.
            self.inflight = self.inflight.saturating_sub(1);
            let jrec = &mut self.jobs[job.0 as usize];
            jrec.remaining -= 1;
            let job_done = jrec.remaining == 0;
            if job_done {
                jrec.completed_at = Some(now);
            }
            if job_done {
                // Trigger chained jobs (§I workflow stages) through the
                // arrival path so they meter against the admission gate
                // and their queue wait is accounted. Taking the
                // dependents list is safe — a job completes exactly once.
                for dep in std::mem::take(&mut self.dependents[job.0 as usize]) {
                    // The chained job's arrival is caused by this
                    // completion (it finished the prerequisite job).
                    self.causal_note_arrival_cause(dep, done_span);
                    self.schedule(now, Event::JobArrival { job: dep });
                }
            }
            // Capacity-freed hook first (Canary drains its validator
            // mirror against the pre-release inflight count), then the
            // engine releases queued jobs under the same FIFO rule.
            strategy.on_function_complete(self, fn_id);
            self.drain_admissions();
        } else {
            let primary = plan.primary();
            self.emit(TraceKind::AttemptFailed {
                fn_id,
                attempt,
                node: primary.node,
            });
            self.telemetry.span_start(Phase::RecoveryE2E, fn_id.0, now);
            let volatile_state = plan.clones[0]
                .timings
                .last()
                .map(|s| s.idx + 1)
                .unwrap_or(plan.from_state);
            let banked = self.fns[fn_id.0 as usize].banked_work;
            let p_kill = banked + primary.work_done;
            {
                let rec = &mut self.fns[fn_id.0 as usize];
                rec.failures += 1;
                rec.pending_recovery = Some((now, p_kill));
            }
            let info = FailureInfo {
                kind: FailureKind::ContainerKill,
                at: now,
                node: primary.node,
                attempt: attempt - 1,
                volatile_state,
            };
            let rplan = strategy.on_failure(self, fn_id, info);
            self.apply_recovery_plan(fn_id, rplan);
        }
        self.recycle_attempt(plan);
    }

    pub(super) fn handle_launch(
        &mut self,
        strategy: &mut dyn FtStrategy,
        fn_id: FnId,
        from_state: u32,
    ) {
        if self.fns[fn_id.0 as usize].status == FnStatus::Completed {
            return;
        }
        let now = self.now();
        // Serialized controller admission: a busy controller parks the
        // launch in the FIFO (admission order is dispatch order, exactly
        // what re-polling every slot produced) and the singleton wakeup
        // admits one head per admission slot.
        if now < self.controller_free {
            if self.pending_launches.is_empty() {
                let at = self.controller_free;
                self.schedule(at, Event::AdmissionFree);
            }
            self.pending_launches.push_back((fn_id, from_state));
            return;
        }
        self.admit_launch(strategy, fn_id, from_state);
    }

    /// One admission slot opened: admit the head of the pending-launch
    /// FIFO (skipping entries whose function completed while parked —
    /// the re-poll loop dropped those on dispatch without consuming a
    /// slot) and, if launches remain, schedule the next wakeup for the
    /// slot this admission occupies.
    pub(super) fn handle_admission_free(&mut self, strategy: &mut dyn FtStrategy) {
        while let Some((fn_id, from_state)) = self.pending_launches.pop_front() {
            if self.fns[fn_id.0 as usize].status == FnStatus::Completed {
                continue;
            }
            self.admit_launch(strategy, fn_id, from_state);
            break;
        }
        if !self.pending_launches.is_empty() {
            let at = self.controller_free;
            self.schedule(at, Event::AdmissionFree);
        }
    }

    /// The admitted half of a launch: occupy the controller for one
    /// admission slot, place the attempt's containers, and begin it.
    fn admit_launch(&mut self, strategy: &mut dyn FtStrategy, fn_id: FnId, from_state: u32) {
        let now = self.now();
        self.controller_free = now + self.config.admission_delay;

        let clones = strategy.attempt_clones(self, fn_id).max(1);
        let (runtime, memory_mb) = {
            let rec = &self.fns[fn_id.0 as usize];
            (rec.workload.runtime, rec.workload.memory_mb)
        };
        let mut placed = std::mem::take(&mut self.placed_scratch);
        placed.clear();
        for _ in 0..clones {
            match self.create_function_container(runtime, memory_mb) {
                Ok((ctr, node, startup)) => placed.push((ctr, node, now + startup)),
                Err(_) => {
                    // Cluster full: roll back and back off.
                    for &(ctr, _, _) in &placed {
                        self.registry
                            .transition(ctr, ContainerState::Reclaimed)
                            .expect("rollback");
                        self.finish_usage(ctr, now);
                    }
                    self.counts.run.placement_retries += 1;
                    assert!(
                        self.config.cluster.ids().any(|n| self.registry.node_up(n)),
                        "every node is down; the run cannot make progress"
                    );
                    self.schedule(
                        now + self.config.placement_backoff,
                        Event::Launch { fn_id, from_state },
                    );
                    self.placed_scratch = placed;
                    return;
                }
            }
        }
        if self.fns[fn_id.0 as usize].first_launch.is_none() {
            self.fns[fn_id.0 as usize].first_launch = Some(now);
        }
        self.begin_attempt(strategy, fn_id, &placed, from_state, false);
        self.placed_scratch = placed;
    }

    pub(super) fn handle_warm_resume(
        &mut self,
        strategy: &mut dyn FtStrategy,
        fn_id: FnId,
        container: ContainerId,
        from_state: u32,
    ) {
        if self.fns[fn_id.0 as usize].status == FnStatus::Completed {
            return;
        }
        let now = self.now();
        let ok = self
            .registry
            .get(container)
            .map(|c| c.state == ContainerState::Warm)
            .unwrap_or(false);
        if !ok {
            // The reserved container died (node crash) or was consumed.
            // The warm-resume span never completes; the still-open
            // end-to-end recovery span keeps its original start.
            self.telemetry.span_cancel(Phase::WarmResume, fn_id.0);
            let node = self
                .registry
                .get(container)
                .map(|c| c.node)
                .unwrap_or(NodeId(0));
            let info = FailureInfo {
                kind: FailureKind::ResumeTargetLost,
                at: now,
                node,
                attempt: self.fns[fn_id.0 as usize].attempt,
                volatile_state: from_state,
            };
            let rplan = strategy.on_failure(self, fn_id, info);
            self.apply_recovery_plan(fn_id, rplan);
            return;
        }
        self.registry
            .transition(container, ContainerState::Executing)
            .expect("warm to executing");
        self.emit(TraceKind::ReplicaConsumed { container, fn_id });
        let node = self.registry.get(container).expect("live container").node;
        self.begin_attempt(strategy, fn_id, &[(container, node, now)], from_state, true);
    }

    pub(super) fn handle_node_failure(&mut self, strategy: &mut dyn FtStrategy, node: NodeId) {
        if !self.registry.node_up(node) {
            return;
        }
        let now = self.now();
        self.emit(TraceKind::NodeFailed { node });
        let victims = self.registry.fail_node(node);
        self.coldstart.invalidate_node(node);
        for &v in &victims {
            self.finish_usage(v, now);
        }
        // Preempt functions whose attempt lost all clones on this node.
        let affected: Vec<FnId> = self
            .fns
            .iter()
            .filter(|f| f.status == FnStatus::Running)
            .filter(|f| {
                f.plan.as_ref().is_some_and(|plan| {
                    plan.clones.iter().all(|o| {
                        victims.contains(&o.container)
                            || self
                                .registry
                                .get(o.container)
                                .map(|c| c.state.is_terminal())
                                .unwrap_or(true)
                    })
                })
            })
            .map(|f| f.id)
            .collect();
        for fn_id in affected {
            self.preempt_attempt(strategy, fn_id, FailureKind::NodeCrash);
        }
        strategy.on_containers_lost(self, &victims);
        // Everything emitted while handling the crash (killed attempts,
        // pool churn) blamed the crash span; later events must not.
        self.causal_clear_fault_context();
    }

    pub(super) fn handle_chaos(&mut self, strategy: &mut dyn FtStrategy, idx: usize) {
        let fault = self.chaos.events()[idx].1;
        // Counted here: a burst on a node already down emits nothing.
        self.counts.run.chaos_events += 1;
        match fault {
            FaultEvent::PartitionStart { a, b } => {
                self.emit(TraceKind::PartitionStarted { a, b });
            }
            FaultEvent::PartitionEnd { a, b } => {
                self.emit(TraceKind::PartitionHealed { a, b });
            }
            FaultEvent::DegradeStart { factor } => {
                self.emit(TraceKind::NetworkDegraded {
                    pct: (factor * 100.0).round() as u32,
                });
            }
            FaultEvent::DegradeEnd => {
                self.emit(TraceKind::NetworkRestored);
            }
            FaultEvent::StoreDown { member } => {
                self.emit(TraceKind::StoreOutage { member });
            }
            FaultEvent::StoreRejoin { member } => {
                self.emit(TraceKind::StoreRejoined { member });
            }
            FaultEvent::NodeBurst { node } => {
                // Correlated crashes ride the regular node-failure path so
                // recovery mechanics are identical to planned crashes.
                self.handle_node_failure(strategy, node);
            }
            FaultEvent::ControllerCrash => {
                // The engine only announces the crash; the strategy owns
                // the metadata substrate and performs (and traces) the
                // WAL recovery in its `on_chaos` hook. The engine's own
                // state — the event queue and the admission FIFO — is
                // *not* part of the crashing process and survives.
                self.emit(TraceKind::ControllerCrashed);
            }
        }
        strategy.on_chaos(self, &fault);
        // Recovery work emitted by the strategy blamed the crash span;
        // later events must not.
        if matches!(fault, FaultEvent::ControllerCrash) {
            self.causal_clear_fault_context();
        }
    }

    pub(super) fn handle_replica_warm(
        &mut self,
        strategy: &mut dyn FtStrategy,
        container: ContainerId,
    ) {
        let ok = self
            .registry
            .get(container)
            .map(|c| c.state == ContainerState::Initializing)
            .unwrap_or(false);
        if !ok {
            // Died or was reclaimed during startup: the cold-start span
            // will never end, so cancel it instead of leaking it.
            self.telemetry
                .span_cancel(Phase::ReplicaColdStart, container.0);
            return;
        }
        self.registry
            .transition(container, ContainerState::Warm)
            .expect("initializing to warm");
        self.emit(TraceKind::WarmPoolReady { container });
        let now = self.now();
        self.telemetry
            .span_end(Phase::ReplicaColdStart, container.0, now);
        strategy.on_replica_warm(self, container);
    }

    /// Does a job of `invocations` functions fit under the concurrency
    /// gate right now?
    fn gate_fits(&self, invocations: u32) -> bool {
        self.config
            .max_inflight
            .is_none_or(|cap| self.inflight + invocations <= cap)
    }

    /// Admit `job` now: meter its invocations against the gate and
    /// schedule its submission.
    fn admit_job(&mut self, job: JobId) {
        let now = self.now();
        self.inflight += self.jobs[job.0 as usize].fn_ids.len() as u32;
        self.schedule(now, Event::SubmitJob { job });
    }

    /// Release queued jobs that now fit, strictly from the front of the
    /// FIFO (head-of-line: a blocked front job is never overtaken, which
    /// makes sustained-overload admission starvation-free).
    fn drain_admissions(&mut self) {
        while let Some(&job) = self.admission_queue.front() {
            let invocations = self.jobs[job.0 as usize].fn_ids.len() as u32;
            if !self.gate_fits(invocations) {
                return;
            }
            self.admission_queue.pop_front();
            self.emit(TraceKind::JobDequeued { job });
            self.admit_job(job);
        }
    }

    /// A job's request arrives: record the submission instant, collect
    /// the strategy's validation verdict, and admit / queue / reject.
    pub(super) fn handle_job_arrival(&mut self, strategy: &mut dyn FtStrategy, job: JobId) {
        let now = self.now();
        // Chained jobs arrive when their prerequisite completes; patch
        // the placeholder recorded at registration.
        self.jobs[job.0 as usize].submitted_at = now;
        self.emit(TraceKind::JobArrived { job });
        let verdict = strategy.on_job_arrival(self, job);
        let invocations = self.jobs[job.0 as usize].fn_ids.len() as u32;
        // A job larger than the whole quota can never be admitted;
        // queueing it would wedge the FIFO forever.
        let impossible = self
            .config
            .max_inflight
            .is_some_and(|cap| invocations > cap);
        if verdict == ArrivalVerdict::Reject || impossible {
            self.jobs[job.0 as usize].rejected = true;
            self.emit(TraceKind::JobRejected { job });
            return;
        }
        if verdict == ArrivalVerdict::Admit
            && self.admission_queue.is_empty()
            && self.gate_fits(invocations)
        {
            self.admit_job(job);
        } else {
            self.admission_queue.push_back(job);
            self.emit(TraceKind::JobQueued { job });
        }
    }

    pub(super) fn handle_submit(&mut self, strategy: &mut dyn FtStrategy, job: JobId) {
        let now = self.now();
        self.emit(TraceKind::JobSubmitted { job });
        self.jobs[job.0 as usize].admitted_at = Some(now);
        strategy.on_job_admitted(self, job);
        for i in 0..self.jobs[job.0 as usize].fn_ids.len() {
            let fn_id = self.jobs[job.0 as usize].fn_ids[i];
            self.schedule(
                now,
                Event::Launch {
                    fn_id,
                    from_state: 0,
                },
            );
        }
    }
}
