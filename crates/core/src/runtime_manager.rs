//! The Runtime Manager Module.
//!
//! §IV-C.3: tracks every runtime used by running functions and the
//! replicated runtimes created by the Replication Module, and maps failed
//! functions to replicas. It also remembers where replicas live so the
//! Core Module can pick the best one. Replicas are reserved at assignment
//! time so two simultaneous failures never race for one container.

use canary_cluster::NodeId;
use canary_container::ContainerId;
use canary_sim::SimTime;
use canary_workloads::RuntimeKind;
use std::collections::{BTreeMap, HashMap};

/// A tracked replica's lifecycle position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReplicaPhase {
    /// Still cold-starting; becomes warm at the recorded time.
    InFlight { ready_at: SimTime },
    /// Parked warm, available for assignment.
    Warm,
}

#[derive(Debug, Clone, Copy)]
struct ReplicaEntry {
    runtime: RuntimeKind,
    node: NodeId,
    phase: ReplicaPhase,
    reserved: bool,
}

/// What the manager can offer a failed function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicaOffer {
    /// A warm replica, usable immediately.
    Warm(ContainerId),
    /// A replica still starting; usable at the given time.
    Pending(ContainerId, SimTime),
}

impl ReplicaOffer {
    /// The offered container.
    pub fn container(&self) -> ContainerId {
        match *self {
            ReplicaOffer::Warm(c) => c,
            ReplicaOffer::Pending(c, _) => c,
        }
    }
}

/// Replica bookkeeping for the whole cluster.
#[derive(Debug, Default)]
pub struct RuntimeManager {
    replicas: BTreeMap<ContainerId, ReplicaEntry>,
    /// Deployed (non-replica) runtime usage per kind, for Algorithm 2's
    /// `func_act` term.
    active_functions: HashMap<RuntimeKind, i64>,
}

impl RuntimeManager {
    /// Empty manager.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a replica the Replication Module just spawned.
    pub fn note_spawned(
        &mut self,
        container: ContainerId,
        runtime: RuntimeKind,
        node: NodeId,
        ready_at: SimTime,
    ) {
        self.replicas.insert(
            container,
            ReplicaEntry {
                runtime,
                node,
                phase: ReplicaPhase::InFlight { ready_at },
                reserved: false,
            },
        );
    }

    /// A replica finished its cold start.
    pub fn note_warm(&mut self, container: ContainerId) {
        if let Some(e) = self.replicas.get_mut(&container) {
            e.phase = ReplicaPhase::Warm;
        }
    }

    /// Containers lost to a node crash; returns the runtimes affected.
    pub fn note_lost(&mut self, lost: &[ContainerId]) -> Vec<RuntimeKind> {
        let mut affected = Vec::new();
        for c in lost {
            if let Some(e) = self.replicas.remove(c) {
                affected.push(e.runtime);
            }
        }
        // Same lexicographic order `format!("{r}")` gave, without a
        // String allocation per lost container.
        affected.sort_by_key(|r| r.label());
        affected.dedup();
        affected
    }

    /// A replica was consumed by a recovery (it now hosts the function).
    pub fn note_consumed(&mut self, container: ContainerId) {
        self.replicas.remove(&container);
    }

    /// Track deployed function counts (Algorithm 2's `func_act`).
    pub fn note_function_started(&mut self, runtime: RuntimeKind) {
        *self.active_functions.entry(runtime).or_insert(0) += 1;
    }

    /// A function left the active set.
    pub fn note_function_finished(&mut self, runtime: RuntimeKind) {
        if let Some(c) = self.active_functions.get_mut(&runtime) {
            *c = (*c - 1).max(0);
        }
    }

    /// Active function count for a runtime.
    pub fn active_functions(&self, runtime: RuntimeKind) -> usize {
        self.active_functions
            .get(&runtime)
            .copied()
            .unwrap_or(0)
            .max(0) as usize
    }

    /// Unreserved replicas (warm or in flight) for a runtime — Algorithm
    /// 2's `rep_act`.
    pub fn available(&self, runtime: RuntimeKind) -> usize {
        self.replicas
            .values()
            .filter(|e| e.runtime == runtime && !e.reserved)
            .count()
    }

    /// Total tracked replicas for a runtime, reserved included.
    pub fn total(&self, runtime: RuntimeKind) -> usize {
        self.replicas
            .values()
            .filter(|e| e.runtime == runtime)
            .count()
    }

    /// Nodes currently hosting replicas of a runtime (for anti-affinity
    /// placement).
    pub fn nodes_with_replicas(&self, runtime: RuntimeKind) -> Vec<NodeId> {
        let mut nodes: Vec<NodeId> = self
            .replicas
            .values()
            .filter(|e| e.runtime == runtime)
            .map(|e| e.node)
            .collect();
        nodes.sort_unstable();
        nodes.dedup();
        nodes
    }

    /// Offer the best replica for a failed function of `runtime`:
    /// warm ones first (lowest id for determinism), otherwise the
    /// in-flight replica that becomes ready soonest. The offered replica
    /// is reserved; it must be [`RuntimeManager::note_consumed`] or
    /// [`RuntimeManager::release`]d.
    pub fn acquire(&mut self, runtime: RuntimeKind) -> Option<ReplicaOffer> {
        // Warm first.
        let warm = self
            .replicas
            .iter()
            .filter(|(_, e)| e.runtime == runtime && !e.reserved)
            .find(|(_, e)| e.phase == ReplicaPhase::Warm)
            .map(|(&id, _)| id);
        if let Some(id) = warm {
            self.replicas.get_mut(&id).expect("present").reserved = true;
            return Some(ReplicaOffer::Warm(id));
        }
        // Soonest-ready in-flight.
        let pending = self
            .replicas
            .iter()
            .filter(|(_, e)| e.runtime == runtime && !e.reserved)
            .filter_map(|(&id, e)| match e.phase {
                ReplicaPhase::InFlight { ready_at } => Some((ready_at, id)),
                ReplicaPhase::Warm => None,
            })
            .min();
        if let Some((ready_at, id)) = pending {
            self.replicas.get_mut(&id).expect("present").reserved = true;
            return Some(ReplicaOffer::Pending(id, ready_at));
        }
        None
    }

    /// Release a reservation (the recovery found a better path).
    pub fn release(&mut self, container: ContainerId) {
        if let Some(e) = self.replicas.get_mut(&container) {
            e.reserved = false;
        }
    }

    /// Unreserved *warm* replicas of a runtime, lowest id first (used by
    /// the Replication Module when shrinking the pool).
    pub fn idle_warm(&self, runtime: RuntimeKind) -> Vec<ContainerId> {
        let mut out = Vec::new();
        self.idle_warm_into(runtime, usize::MAX, &mut out);
        out
    }

    /// [`Self::idle_warm`] into a caller-owned buffer, stopping after
    /// `limit` matches — the pool-shrink path reclaims a known surplus on
    /// every reconcile, so it reuses one scratch vector instead of
    /// collecting the full idle set each round.
    pub fn idle_warm_into(&self, runtime: RuntimeKind, limit: usize, out: &mut Vec<ContainerId>) {
        out.clear();
        out.extend(
            self.replicas
                .iter()
                .filter(|(_, e)| {
                    e.runtime == runtime && !e.reserved && e.phase == ReplicaPhase::Warm
                })
                .map(|(&id, _)| id)
                .take(limit),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    #[test]
    fn warm_offered_before_pending() {
        let mut m = RuntimeManager::new();
        m.note_spawned(ContainerId(1), RuntimeKind::Python, NodeId(0), t(100));
        m.note_spawned(ContainerId(2), RuntimeKind::Python, NodeId(1), t(50));
        m.note_warm(ContainerId(1));
        assert_eq!(
            m.acquire(RuntimeKind::Python),
            Some(ReplicaOffer::Warm(ContainerId(1)))
        );
        // Next acquisition falls back to the pending one.
        assert_eq!(
            m.acquire(RuntimeKind::Python),
            Some(ReplicaOffer::Pending(ContainerId(2), t(50)))
        );
        // Pool exhausted.
        assert_eq!(m.acquire(RuntimeKind::Python), None);
    }

    #[test]
    fn soonest_pending_wins() {
        let mut m = RuntimeManager::new();
        m.note_spawned(ContainerId(1), RuntimeKind::Java, NodeId(0), t(500));
        m.note_spawned(ContainerId(2), RuntimeKind::Java, NodeId(1), t(200));
        assert_eq!(
            m.acquire(RuntimeKind::Java),
            Some(ReplicaOffer::Pending(ContainerId(2), t(200)))
        );
    }

    #[test]
    fn runtimes_do_not_cross() {
        let mut m = RuntimeManager::new();
        m.note_spawned(ContainerId(1), RuntimeKind::Python, NodeId(0), t(0));
        m.note_warm(ContainerId(1));
        assert_eq!(m.acquire(RuntimeKind::Java), None);
        assert_eq!(m.available(RuntimeKind::Python), 1);
        assert_eq!(m.available(RuntimeKind::Java), 0);
    }

    #[test]
    fn release_returns_to_pool() {
        let mut m = RuntimeManager::new();
        m.note_spawned(ContainerId(1), RuntimeKind::Python, NodeId(0), t(0));
        m.note_warm(ContainerId(1));
        let offer = m.acquire(RuntimeKind::Python).unwrap();
        assert_eq!(m.available(RuntimeKind::Python), 0);
        m.release(offer.container());
        assert_eq!(m.available(RuntimeKind::Python), 1);
    }

    #[test]
    fn lost_replicas_are_pruned() {
        let mut m = RuntimeManager::new();
        m.note_spawned(ContainerId(1), RuntimeKind::Python, NodeId(0), t(0));
        m.note_spawned(ContainerId(2), RuntimeKind::Java, NodeId(0), t(0));
        let affected = m.note_lost(&[ContainerId(1), ContainerId(2), ContainerId(9)]);
        assert_eq!(affected.len(), 2);
        assert_eq!(m.total(RuntimeKind::Python), 0);
        assert_eq!(m.total(RuntimeKind::Java), 0);
    }

    #[test]
    fn active_function_accounting() {
        let mut m = RuntimeManager::new();
        m.note_function_started(RuntimeKind::Python);
        m.note_function_started(RuntimeKind::Python);
        m.note_function_finished(RuntimeKind::Python);
        assert_eq!(m.active_functions(RuntimeKind::Python), 1);
        m.note_function_finished(RuntimeKind::Python);
        m.note_function_finished(RuntimeKind::Python); // over-release is safe
        assert_eq!(m.active_functions(RuntimeKind::Python), 0);
    }

    #[test]
    fn anti_affinity_view() {
        let mut m = RuntimeManager::new();
        m.note_spawned(ContainerId(1), RuntimeKind::Python, NodeId(3), t(0));
        m.note_spawned(ContainerId(2), RuntimeKind::Python, NodeId(1), t(0));
        m.note_spawned(ContainerId(3), RuntimeKind::Python, NodeId(3), t(0));
        assert_eq!(
            m.nodes_with_replicas(RuntimeKind::Python),
            vec![NodeId(1), NodeId(3)]
        );
    }

    #[test]
    fn consumed_replica_leaves_pool() {
        let mut m = RuntimeManager::new();
        m.note_spawned(ContainerId(1), RuntimeKind::Python, NodeId(0), t(0));
        m.note_warm(ContainerId(1));
        let offer = m.acquire(RuntimeKind::Python).unwrap();
        m.note_consumed(offer.container());
        assert_eq!(m.total(RuntimeKind::Python), 0);
        assert_eq!(m.acquire(RuntimeKind::Python), None);
    }
}
