//! Proactive failure prediction — the paper's stated future work (§VII:
//! "we will extend the Canary framework to predict and proactively
//! mitigate failures").
//!
//! A lightweight per-node risk model: every observed failure bumps the
//! hosting node's risk; risk decays exponentially with virtual time, so
//! a node that recently killed several containers scores high while old
//! incidents fade. The Replication Module consults the predictor when
//! placing replicas (risky nodes are avoided) — a replica parked on the
//! next node to fail is worse than no replica at all.

use canary_cluster::NodeId;
use canary_sim::hash::HashMap;
use canary_sim::SimTime;

/// Exponentially-decaying per-node failure risk.
#[derive(Debug, Clone)]
pub struct FailurePredictor {
    /// Risk half-life in seconds: after this much quiet time a node's
    /// risk halves.
    pub half_life_s: f64,
    /// Risk above which a node is considered unsafe for replicas.
    pub risk_threshold: f64,
    scores: HashMap<NodeId, (f64, SimTime)>,
}

impl Default for FailurePredictor {
    fn default() -> Self {
        FailurePredictor {
            half_life_s: 60.0,
            risk_threshold: 2.0,
            scores: HashMap::default(),
        }
    }
}

impl FailurePredictor {
    /// Predictor with the default half-life and threshold.
    pub fn new() -> Self {
        Self::default()
    }

    fn decayed(&self, node: NodeId, now: SimTime) -> f64 {
        match self.scores.get(&node) {
            None => 0.0,
            Some(&(score, at)) => {
                let dt = now.saturating_since(at).as_secs_f64();
                score * 0.5f64.powf(dt / self.half_life_s)
            }
        }
    }

    /// Record a failure observed on `node` at `now`.
    pub fn record_failure(&mut self, node: NodeId, now: SimTime) {
        let current = self.decayed(node, now);
        self.scores.insert(node, (current + 1.0, now));
    }

    /// Record a node-level crash: a much stronger signal.
    pub fn record_node_crash(&mut self, node: NodeId, now: SimTime) {
        let current = self.decayed(node, now);
        self.scores.insert(node, (current + 10.0, now));
    }

    /// Current risk score of a node.
    pub fn risk(&self, node: NodeId, now: SimTime) -> f64 {
        self.decayed(node, now)
    }

    /// Nodes whose risk currently exceeds the threshold (unsafe for
    /// replica placement), sorted by id.
    pub fn risky_nodes(&self, now: SimTime) -> Vec<NodeId> {
        let mut risky = Vec::new();
        self.risky_nodes_into(now, &mut risky);
        risky
    }

    /// [`Self::risky_nodes`] into a caller-owned buffer (cleared first).
    /// Pool reconciliation asks on every job admit, completion, and
    /// failure; with proactive mode on, rebuilding the set in place is
    /// the difference between zero and one allocation per strategy event.
    pub fn risky_nodes_into(&self, now: SimTime, out: &mut Vec<NodeId>) {
        out.clear();
        out.extend(
            self.scores
                .keys()
                .copied()
                .filter(|&n| self.decayed(n, now) > self.risk_threshold),
        );
        out.sort_unstable();
    }

    /// True when `node` is currently above the risk threshold.
    pub fn is_risky(&self, node: NodeId, now: SimTime) -> bool {
        self.decayed(node, now) > self.risk_threshold
    }

    /// Nodes with any recorded failure history (regardless of decay),
    /// sorted by id — used by tests and reports.
    pub fn observed_nodes(&self) -> Vec<NodeId> {
        let mut nodes: Vec<NodeId> = self.scores.keys().copied().collect();
        nodes.sort_unstable();
        nodes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use canary_sim::SimDuration;

    fn t(s: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(s)
    }

    #[test]
    fn fresh_nodes_have_zero_risk() {
        let p = FailurePredictor::new();
        assert_eq!(p.risk(NodeId(0), t(100)), 0.0);
        assert!(p.risky_nodes(t(100)).is_empty());
    }

    #[test]
    fn failures_accumulate() {
        let mut p = FailurePredictor::new();
        for _ in 0..3 {
            p.record_failure(NodeId(1), t(10));
        }
        assert!((p.risk(NodeId(1), t(10)) - 3.0).abs() < 1e-9);
        assert!(p.is_risky(NodeId(1), t(10)));
    }

    #[test]
    fn risk_decays_with_half_life() {
        let mut p = FailurePredictor::new();
        p.record_failure(NodeId(2), t(0));
        let now = t(60); // one half-life
        assert!((p.risk(NodeId(2), now) - 0.5).abs() < 1e-9);
        // After many half-lives the node is clean again.
        assert!(p.risk(NodeId(2), t(600)) < 0.001);
    }

    #[test]
    fn node_crash_is_a_strong_signal() {
        let mut p = FailurePredictor::new();
        p.record_node_crash(NodeId(3), t(0));
        assert!(p.is_risky(NodeId(3), t(0)));
        // Still risky after two half-lives (10 → 2.5 > 2.0).
        assert!(p.is_risky(NodeId(3), t(120)));
        assert!(!p.is_risky(NodeId(3), t(300)));
    }

    #[test]
    fn risky_nodes_sorted_and_thresholded() {
        let mut p = FailurePredictor::new();
        for _ in 0..3 {
            p.record_failure(NodeId(5), t(0));
        }
        p.record_failure(NodeId(1), t(0)); // below threshold
        p.record_node_crash(NodeId(2), t(0));
        assert_eq!(p.risky_nodes(t(0)), vec![NodeId(2), NodeId(5)]);
    }

    #[test]
    fn interleaved_decay_and_bumps() {
        let mut p = FailurePredictor::new();
        p.record_failure(NodeId(7), t(0));
        p.record_failure(NodeId(7), t(60)); // earlier 1.0 decayed to 0.5
        assert!((p.risk(NodeId(7), t(60)) - 1.5).abs() < 1e-9);
    }
}
