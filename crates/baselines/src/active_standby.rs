//! Active-standby (AS).
//!
//! §V-D.5 / ref. 66: AS "creates two function instances; one for serving all
//! requests and the other as standby". The passive instance sits warm
//! (consuming resources the whole time — the source of AS's ~2.8× cost);
//! when the active instance fails, the standby is activated and a new
//! passive instance is created. Because AS keeps no checkpoints, the
//! activated standby restarts the stateful function from the beginning,
//! which is why its execution time trails Canary by up to 34%.

use canary_container::{ContainerId, ContainerState};
use canary_platform::{
    FailureInfo, FnId, FtStrategy, JobId, Platform, RecoveryPlan, RecoveryTarget,
};
use canary_sim::hash::HashMap;
use canary_sim::SimDuration;

/// One warm passive instance per function.
#[derive(Debug, Default)]
pub struct ActiveStandbyStrategy {
    standby_of: HashMap<FnId, ContainerId>,
    owner_of: HashMap<ContainerId, FnId>,
    /// Activation handoff latency once a failure is detected.
    pub activation_delay: SimDuration,
}

impl ActiveStandbyStrategy {
    /// New AS strategy with a 200 ms activation handoff.
    pub fn new() -> Self {
        ActiveStandbyStrategy {
            standby_of: HashMap::default(),
            owner_of: HashMap::default(),
            activation_delay: SimDuration::from_millis(200),
        }
    }

    fn spawn_standby(&mut self, platform: &mut Platform, fn_id: FnId) {
        let (runtime, memory) = {
            let rec = platform.fn_record(fn_id);
            (rec.workload.runtime, rec.workload.memory_mb)
        };
        // Place the standby on the least-loaded node; skip silently when
        // the cluster is full (the function then degrades to plain retry).
        // `nodes_by_free_slots` is most-free-first, so the first node with
        // a free slot is the only one worth trying.
        let node = platform
            .nodes_by_free_slots()
            .find(|&n| platform.free_slots(n) > 0);
        if let Some(node) = node {
            if let Ok((id, _ready)) = platform.create_standby(node, runtime, memory) {
                self.standby_of.insert(fn_id, id);
                self.owner_of.insert(id, fn_id);
            }
        }
    }
}

impl FtStrategy for ActiveStandbyStrategy {
    fn name(&self) -> String {
        "AS".to_string()
    }

    fn on_job_admitted(&mut self, platform: &mut Platform, job: JobId) {
        let fn_ids = platform.job(job).fn_ids.clone();
        for fn_id in fn_ids {
            self.spawn_standby(platform, fn_id);
        }
    }

    fn on_failure(
        &mut self,
        platform: &mut Platform,
        fn_id: FnId,
        _failure: FailureInfo,
    ) -> RecoveryPlan {
        let detection = platform.config().detection_delay;
        if let Some(standby) = self.standby_of.remove(&fn_id) {
            self.owner_of.remove(&standby);
            let warm = platform
                .container(standby)
                .map(|c| c.state == ContainerState::Warm)
                .unwrap_or(false);
            if warm {
                // Activate the standby and provision a replacement passive
                // instance (off the critical path).
                self.spawn_standby(platform, fn_id);
                return RecoveryPlan {
                    resume_from_state: 0, // AS keeps no checkpoints
                    delay: detection + self.activation_delay,
                    target: RecoveryTarget::WarmContainer(standby),
                    detect: detection,
                    restore: SimDuration::ZERO,
                };
            }
            // Standby not usable (still initializing or lost): release it.
            platform.reclaim_container(standby);
        }
        // No standby: degrade to cold restart and provision a new pair.
        self.spawn_standby(platform, fn_id);
        RecoveryPlan {
            resume_from_state: 0,
            delay: detection,
            target: RecoveryTarget::FreshContainer,
            detect: detection,
            restore: SimDuration::ZERO,
        }
    }

    fn on_containers_lost(&mut self, _platform: &mut Platform, lost: &[ContainerId]) {
        for c in lost {
            if let Some(fn_id) = self.owner_of.remove(c) {
                self.standby_of.remove(&fn_id);
            }
        }
    }

    fn on_function_complete(&mut self, platform: &mut Platform, fn_id: FnId) {
        // The pair is torn down with the function.
        if let Some(standby) = self.standby_of.remove(&fn_id) {
            self.owner_of.remove(&standby);
            platform.reclaim_container(standby);
        }
    }
}
