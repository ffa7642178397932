//! Chaos fault plans: typed, seed-reproducible schedules of faults beyond
//! plain container kills and node crashes.
//!
//! The paper's evaluation (§V-B) only kills containers and nodes, but
//! Canary's value proposition is surviving failures of the *stateful*
//! dependencies: the replicated checkpoint/metadata store, the network
//! between workers and storage, and slow ("straggler") nodes. A
//! [`ChaosSpec`] declares fault windows and rates; [`ChaosPlan`] expands
//! it against a concrete cluster and run seed into a deterministic,
//! time-ordered schedule of [`FaultEvent`]s plus pure per-attempt oracles
//! (straggler slowdowns, checkpoint corruption) in the same style as
//! [`crate::failure::FailureInjector`] — so identical seeds give
//! byte-identical fault schedules regardless of event interleaving.

use crate::node::NodeId;
use crate::topology::Cluster;
use canary_sim::{SimDuration, SimRng, SimTime};

/// A scheduled pairwise network partition between two nodes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartitionSpec {
    /// One endpoint of the partitioned pair.
    pub a: u32,
    /// The other endpoint.
    pub b: u32,
    /// Partition start, seconds into the run.
    pub from_s: u64,
    /// Partition heal time, seconds into the run (exclusive).
    pub until_s: u64,
}

/// A scheduled outage of one replicated-store member.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StoreOutageSpec {
    /// Index of the store member that goes down.
    pub member: u32,
    /// Outage start, seconds into the run.
    pub from_s: u64,
    /// Optional rejoin time, seconds into the run. `None` means the
    /// member never comes back during the run.
    pub rejoin_s: Option<u64>,
}

/// A window of cluster-wide network degradation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegradeSpec {
    /// Slowdown multiplier (≥ 1) applied to network-bound work while
    /// the window is active.
    pub factor: f64,
    /// Degradation start, seconds into the run.
    pub from_s: u64,
    /// Degradation end, seconds into the run (exclusive).
    pub until_s: u64,
}

/// A correlated burst of node crashes within one rack (zone failure).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurstSpec {
    /// When the burst strikes, seconds into the run.
    pub at_s: u64,
    /// The rack (zone) that loses nodes.
    pub rack: u32,
    /// How many nodes of that rack crash (clamped to the rack size).
    pub count: u32,
}

/// A scheduled crash of Canary's own control plane: the metadata
/// substrate dies mid-run (losing every in-memory copy, with a write torn
/// mid-record on the log) and restarts from its write-ahead log.
///
/// Unlike the other specs this one is timed in **microseconds**, so the
/// crash-point sweep can land a crash strictly between any two adjacent
/// events of a schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControllerCrashSpec {
    /// When the control plane dies, microseconds into the run.
    pub at_us: u64,
}

/// Declarative chaos configuration for one run. The default is no chaos.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosSpec {
    /// Pairwise node partitions.
    pub partitions: Vec<PartitionSpec>,
    /// Replicated-store member outages (checkpoint store + metadata DB).
    pub store_outages: Vec<StoreOutageSpec>,
    /// Cluster-wide network degradation windows.
    pub degrades: Vec<DegradeSpec>,
    /// Correlated zone/burst node failures.
    pub bursts: Vec<BurstSpec>,
    /// Control-plane crash-restarts (metadata substrate dies and recovers
    /// from its write-ahead log).
    pub controller_crashes: Vec<ControllerCrashSpec>,
    /// Probability that a given attempt runs on a straggling executor.
    pub straggler_rate: f64,
    /// Slowdown multiplier (≥ 1) applied to a straggling attempt.
    pub straggler_factor: f64,
    /// Probability that a retained checkpoint is corrupted when a restore
    /// probes it.
    pub corruption_rate: f64,
    /// Effective slowdown multiplier for transfers that must route around
    /// an active partition.
    pub partition_penalty: f64,
}

impl Default for ChaosSpec {
    fn default() -> Self {
        ChaosSpec {
            partitions: Vec::new(),
            store_outages: Vec::new(),
            degrades: Vec::new(),
            bursts: Vec::new(),
            controller_crashes: Vec::new(),
            straggler_rate: 0.0,
            straggler_factor: 4.0,
            corruption_rate: 0.0,
            partition_penalty: 8.0,
        }
    }
}

/// A slowdown multiplier must be finite and at least 1 (`NaN` fails both).
fn is_factor(f: f64) -> bool {
    f.is_finite() && f >= 1.0
}

/// The largest spec time in seconds whose microsecond value fits a `u64`.
const MAX_SPEC_SECS: u64 = u64::MAX / 1_000_000;

/// A spec time in seconds must convert to microseconds without overflow.
fn check_secs(field: &str, s: u64) -> Result<(), String> {
    if s > MAX_SPEC_SECS {
        return Err(format!("{field} {s} exceeds {MAX_SPEC_SECS} s"));
    }
    Ok(())
}

impl ChaosSpec {
    /// True when the spec injects no faults at all.
    pub fn is_empty(&self) -> bool {
        self.partitions.is_empty()
            && self.store_outages.is_empty()
            && self.degrades.is_empty()
            && self.bursts.is_empty()
            && self.controller_crashes.is_empty()
            && self.straggler_rate <= 0.0
            && self.corruption_rate <= 0.0
    }

    /// Check windows and rates; returns a description of the first
    /// problem found.
    pub fn validate(&self) -> Result<(), String> {
        for p in &self.partitions {
            check_secs("partition from_s", p.from_s)?;
            check_secs("partition until_s", p.until_s)?;
            if p.until_s <= p.from_s {
                return Err(format!(
                    "partition window [{}, {}) is empty",
                    p.from_s, p.until_s
                ));
            }
            if p.a == p.b {
                return Err(format!("partition pair ({}, {}) is a self-loop", p.a, p.b));
            }
        }
        for o in &self.store_outages {
            check_secs("store outage from_s", o.from_s)?;
            if let Some(rejoin) = o.rejoin_s {
                check_secs("store outage rejoin_s", rejoin)?;
                if rejoin <= o.from_s {
                    return Err(format!(
                        "store outage rejoin {} is not after start {}",
                        rejoin, o.from_s
                    ));
                }
            }
        }
        for d in &self.degrades {
            check_secs("degrade from_s", d.from_s)?;
            check_secs("degrade until_s", d.until_s)?;
            if d.until_s <= d.from_s {
                return Err(format!(
                    "degrade window [{}, {}) is empty",
                    d.from_s, d.until_s
                ));
            }
            if !is_factor(d.factor) {
                return Err(format!(
                    "degrade factor {} must be finite and ≥ 1",
                    d.factor
                ));
            }
        }
        for b in &self.bursts {
            check_secs("burst at_s", b.at_s)?;
            if b.count == 0 {
                return Err("burst with count 0 does nothing".to_string());
            }
        }
        if !(0.0..=1.0).contains(&self.straggler_rate) {
            return Err(format!("straggler rate {}", self.straggler_rate));
        }
        if !is_factor(self.straggler_factor) {
            return Err(format!(
                "straggler factor {} must be finite and ≥ 1",
                self.straggler_factor
            ));
        }
        if !(0.0..=1.0).contains(&self.corruption_rate) {
            return Err(format!("corruption rate {}", self.corruption_rate));
        }
        if !is_factor(self.partition_penalty) {
            return Err(format!(
                "partition penalty {} must be finite and ≥ 1",
                self.partition_penalty
            ));
        }
        Ok(())
    }
}

/// One typed fault occurrence on the expanded schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultEvent {
    /// A node pair loses direct connectivity.
    PartitionStart {
        /// One endpoint.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
    },
    /// A node-pair partition heals.
    PartitionEnd {
        /// One endpoint.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
    },
    /// Cluster-wide network degradation begins.
    DegradeStart {
        /// Slowdown multiplier while active.
        factor: f64,
    },
    /// Network degradation ends.
    DegradeEnd,
    /// A replicated-store member goes down (its copy is lost).
    StoreDown {
        /// Member index within the replica group.
        member: u32,
    },
    /// A previously-failed store member rejoins the group.
    StoreRejoin {
        /// Member index within the replica group.
        member: u32,
    },
    /// A node crashes as part of a correlated zone burst.
    NodeBurst {
        /// The crashing node.
        node: NodeId,
    },
    /// The control plane's metadata substrate crashes and restarts from
    /// its write-ahead log (or empty, when durability is off).
    ControllerCrash,
}

fn at_secs(s: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_secs(s)
}

/// A [`ChaosSpec`] expanded against a concrete cluster and run seed:
/// a deterministic time-ordered event schedule plus pure fault oracles.
#[derive(Debug, Clone)]
pub struct ChaosPlan {
    spec: ChaosSpec,
    events: Vec<(SimTime, FaultEvent)>,
    straggler_base: SimRng,
    corrupt_base: SimRng,
}

impl ChaosPlan {
    /// Expand `spec` for `cluster` under `seed`. Pure: the same inputs
    /// always produce the same schedule and oracle answers.
    pub fn from_spec(spec: &ChaosSpec, cluster: &Cluster, seed: u64) -> Self {
        let mut events: Vec<(SimTime, FaultEvent)> = Vec::new();
        for p in &spec.partitions {
            let (a, b) = (NodeId(p.a), NodeId(p.b));
            events.push((at_secs(p.from_s), FaultEvent::PartitionStart { a, b }));
            events.push((at_secs(p.until_s), FaultEvent::PartitionEnd { a, b }));
        }
        for d in &spec.degrades {
            events.push((
                at_secs(d.from_s),
                FaultEvent::DegradeStart { factor: d.factor },
            ));
            events.push((at_secs(d.until_s), FaultEvent::DegradeEnd));
        }
        for o in &spec.store_outages {
            events.push((
                at_secs(o.from_s),
                FaultEvent::StoreDown { member: o.member },
            ));
            if let Some(rejoin) = o.rejoin_s {
                events.push((
                    at_secs(rejoin),
                    FaultEvent::StoreRejoin { member: o.member },
                ));
            }
        }
        for b in &spec.bursts {
            // A zone failure takes out the first `count` nodes of the rack
            // (node ids are stable, so the blast set is deterministic).
            let victims = cluster
                .nodes()
                .iter()
                .filter(|n| n.rack == b.rack)
                .take(b.count as usize);
            for node in victims {
                events.push((at_secs(b.at_s), FaultEvent::NodeBurst { node: node.id }));
            }
        }
        for c in &spec.controller_crashes {
            events.push((SimTime::from_micros(c.at_us), FaultEvent::ControllerCrash));
        }
        // Stable by time: same-time events keep spec order, so the
        // schedule is a pure function of (spec, cluster).
        events.sort_by_key(|(at, _)| *at);
        let base = SimRng::seed_from_u64(seed);
        ChaosPlan {
            spec: spec.clone(),
            events,
            straggler_base: base.split(0x57A6),
            corrupt_base: base.split(0xC0FF),
        }
    }

    /// The expanded schedule, time-ordered.
    pub fn events(&self) -> &[(SimTime, FaultEvent)] {
        &self.events
    }

    /// The spec this plan was built from.
    pub fn spec(&self) -> &ChaosSpec {
        &self.spec
    }

    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
            && self.spec.straggler_rate <= 0.0
            && self.spec.corruption_rate <= 0.0
    }

    /// Does attempt `attempt` of function `fn_id` run on a straggling
    /// executor, and with what slowdown? Pure in `(fn_id, attempt)`.
    pub fn straggler(&self, fn_id: u64, attempt: u32) -> Option<f64> {
        if self.spec.straggler_rate <= 0.0 {
            return None;
        }
        let tag = fn_id
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(attempt as u64);
        let mut rng = self.straggler_base.split(tag);
        if rng.bernoulli(self.spec.straggler_rate) {
            Some(self.spec.straggler_factor)
        } else {
            None
        }
    }

    /// Is checkpoint `ckpt_id` of function `fn_id` corrupted when a
    /// restore probes it? Pure in `(fn_id, ckpt_id)`.
    pub fn corrupted(&self, fn_id: u64, ckpt_id: u64) -> bool {
        if self.spec.corruption_rate <= 0.0 {
            return false;
        }
        let tag = fn_id
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(ckpt_id);
        let mut rng = self.corrupt_base.split(tag);
        rng.bernoulli(self.spec.corruption_rate)
    }

    /// Which chunk of a chunked checkpoint the corruption lands on, when
    /// [`Self::corrupted`] says the checkpoint is corrupted. Drawn from a
    /// separately tagged stream so the checkpoint-level verdict — and
    /// every trace pinned against it — is untouched by the chunk draw.
    /// Pure in `(fn_id, ckpt_id, chunk_count)`.
    pub fn corrupted_chunk(&self, fn_id: u64, ckpt_id: u64, chunk_count: u32) -> Option<u32> {
        if chunk_count == 0 || !self.corrupted(fn_id, ckpt_id) {
            return None;
        }
        let tag = fn_id
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(ckpt_id)
            .wrapping_add(0xC4A7);
        let mut rng = self.corrupt_base.split(tag);
        Some(rng.u64_below(chunk_count as u64) as u32)
    }

    /// Cluster-wide network slowdown factor active at `at` (≥ 1).
    pub fn net_factor(&self, at: SimTime) -> f64 {
        self.spec
            .degrades
            .iter()
            .filter(|d| at_secs(d.from_s) <= at && at < at_secs(d.until_s))
            .map(|d| d.factor)
            .fold(1.0, f64::max)
    }

    /// Are `a` and `b` partitioned from each other at `at`? Symmetric.
    pub fn partitioned(&self, a: NodeId, b: NodeId, at: SimTime) -> bool {
        self.spec.partitions.iter().any(|p| {
            let pair = (NodeId(p.a), NodeId(p.b));
            (pair == (a, b) || pair == (b, a)) && at_secs(p.from_s) <= at && at < at_secs(p.until_s)
        })
    }

    /// Combined slowdown for a transfer from `src` to `dst` at `at`:
    /// cluster-wide degradation times the reroute penalty when the pair
    /// is partitioned. Always ≥ 1.
    pub fn transfer_penalty(&self, src: NodeId, dst: NodeId, at: SimTime) -> f64 {
        let mut f = self.net_factor(at);
        if self.partitioned(src, dst, at) {
            f *= self.spec.partition_penalty;
        }
        f
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> ChaosSpec {
        ChaosSpec {
            partitions: vec![PartitionSpec {
                a: 0,
                b: 3,
                from_s: 5,
                until_s: 20,
            }],
            store_outages: vec![StoreOutageSpec {
                member: 1,
                from_s: 10,
                rejoin_s: Some(30),
            }],
            degrades: vec![DegradeSpec {
                factor: 3.0,
                from_s: 8,
                until_s: 12,
            }],
            bursts: vec![BurstSpec {
                at_s: 15,
                rack: 0,
                count: 2,
            }],
            straggler_rate: 0.3,
            corruption_rate: 0.2,
            ..Default::default()
        }
    }

    #[test]
    fn empty_spec_makes_empty_plan() {
        let plan = ChaosPlan::from_spec(&ChaosSpec::default(), &Cluster::heterogeneous(8), 1);
        assert!(plan.is_empty());
        assert!(plan.events().is_empty());
        assert!(plan.straggler(7, 0).is_none());
        assert!(!plan.corrupted(7, 0));
        assert_eq!(plan.net_factor(at_secs(10)), 1.0);
    }

    #[test]
    fn plan_is_deterministic() {
        let c = Cluster::heterogeneous(8);
        let a = ChaosPlan::from_spec(&spec(), &c, 42);
        let b = ChaosPlan::from_spec(&spec(), &c, 42);
        assert_eq!(a.events(), b.events());
        for f in 0..100u64 {
            assert_eq!(a.straggler(f, 0), b.straggler(f, 0));
            assert_eq!(a.corrupted(f, 3), b.corrupted(f, 3));
        }
    }

    #[test]
    fn chunk_corruption_agrees_with_checkpoint_verdict() {
        let c = Cluster::heterogeneous(8);
        let plan = ChaosPlan::from_spec(&spec(), &c, 42);
        let mut hits = 0u32;
        for f in 0..500u64 {
            for k in 0..4u64 {
                let chunk = plan.corrupted_chunk(f, k, 13);
                assert_eq!(
                    chunk.is_some(),
                    plan.corrupted(f, k),
                    "chunk draw must agree with the checkpoint verdict"
                );
                if let Some(i) = chunk {
                    assert!(i < 13, "chunk index in range: {i}");
                    assert_eq!(plan.corrupted_chunk(f, k, 13), Some(i), "pure");
                    hits += 1;
                }
            }
        }
        assert!(hits > 0, "corruption rate 0.2 over 2000 draws must hit");
        assert_eq!(plan.corrupted_chunk(7, 0, 0), None, "no chunks, no hit");
    }

    #[test]
    fn events_are_time_ordered() {
        let plan = ChaosPlan::from_spec(&spec(), &Cluster::heterogeneous(8), 42);
        let times: Vec<SimTime> = plan.events().iter().map(|(t, _)| *t).collect();
        let mut sorted = times.clone();
        sorted.sort();
        assert_eq!(times, sorted);
        assert!(times.len() >= 7, "expected full expansion: {times:?}");
    }

    #[test]
    fn burst_takes_count_nodes_from_rack() {
        let c = Cluster::heterogeneous(8);
        let plan = ChaosPlan::from_spec(&spec(), &c, 42);
        let burst: Vec<NodeId> = plan
            .events()
            .iter()
            .filter_map(|(_, e)| match e {
                FaultEvent::NodeBurst { node } => Some(*node),
                _ => None,
            })
            .collect();
        assert_eq!(burst.len(), 2);
        for n in &burst {
            assert_eq!(c.node(*n).rack, 0, "burst victim must be in the rack");
        }
    }

    #[test]
    fn partition_window_is_symmetric_and_bounded() {
        let plan = ChaosPlan::from_spec(&spec(), &Cluster::heterogeneous(8), 42);
        let (a, b) = (NodeId(0), NodeId(3));
        assert!(!plan.partitioned(a, b, at_secs(4)));
        assert!(plan.partitioned(a, b, at_secs(5)));
        assert!(plan.partitioned(b, a, at_secs(19)));
        assert!(!plan.partitioned(a, b, at_secs(20)));
        assert!(!plan.partitioned(NodeId(1), NodeId(2), at_secs(10)));
    }

    #[test]
    fn net_factor_tracks_degrade_window() {
        let plan = ChaosPlan::from_spec(&spec(), &Cluster::heterogeneous(8), 42);
        assert_eq!(plan.net_factor(at_secs(7)), 1.0);
        assert_eq!(plan.net_factor(at_secs(8)), 3.0);
        assert_eq!(plan.net_factor(at_secs(12)), 1.0);
    }

    #[test]
    fn transfer_penalty_compounds_partition_and_degrade() {
        let plan = ChaosPlan::from_spec(&spec(), &Cluster::heterogeneous(8), 42);
        // At t=9 both the partition (0,3) and the 3× degrade are active.
        let p = plan.transfer_penalty(NodeId(0), NodeId(3), at_secs(9));
        assert_eq!(p, 3.0 * 8.0);
        // Unpartitioned pair only sees the degrade.
        assert_eq!(plan.transfer_penalty(NodeId(1), NodeId(2), at_secs(9)), 3.0);
        // Quiet time: no penalty.
        assert_eq!(
            plan.transfer_penalty(NodeId(0), NodeId(3), at_secs(25)),
            1.0
        );
    }

    #[test]
    fn straggler_oracle_is_rate_accurate() {
        let plan = ChaosPlan::from_spec(&spec(), &Cluster::heterogeneous(8), 42);
        let hits = (0..20_000u64)
            .filter(|&f| plan.straggler(f, 0).is_some())
            .count();
        let rate = hits as f64 / 20_000.0;
        assert!((rate - 0.3).abs() < 0.01, "rate {rate}");
        let factor = (0..100u64).find_map(|f| plan.straggler(f, 0)).unwrap();
        assert_eq!(factor, plan.spec().straggler_factor);
    }

    #[test]
    fn corruption_oracle_is_rate_accurate() {
        let plan = ChaosPlan::from_spec(&spec(), &Cluster::heterogeneous(8), 42);
        let hits = (0..20_000u64).filter(|&f| plan.corrupted(f, 1)).count();
        let rate = hits as f64 / 20_000.0;
        assert!((rate - 0.2).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn validate_rejects_bad_windows() {
        let mut s = ChaosSpec::default();
        assert!(s.validate().is_ok());
        s.partitions.push(PartitionSpec {
            a: 1,
            b: 1,
            from_s: 0,
            until_s: 5,
        });
        assert!(s.validate().is_err());
        s.partitions.clear();
        s.degrades.push(DegradeSpec {
            factor: 0.5,
            from_s: 0,
            until_s: 5,
        });
        assert!(s.validate().is_err());
        s.degrades.clear();
        s.store_outages.push(StoreOutageSpec {
            member: 0,
            from_s: 10,
            rejoin_s: Some(5),
        });
        assert!(s.validate().is_err());
        s.store_outages.clear();
        s.straggler_rate = 1.5;
        assert!(s.validate().is_err());

        // Spec seconds up to MAX_SPEC_SECS validate and expand without
        // overflowing microseconds; one more is rejected in every field.
        let max = MAX_SPEC_SECS;
        let edge = ChaosSpec {
            partitions: vec![PartitionSpec {
                a: 0,
                b: 1,
                from_s: 0,
                until_s: max,
            }],
            degrades: vec![DegradeSpec {
                factor: 2.0,
                from_s: 0,
                until_s: max,
            }],
            store_outages: vec![
                StoreOutageSpec {
                    member: 0,
                    from_s: max,
                    rejoin_s: None,
                },
                StoreOutageSpec {
                    member: 1,
                    from_s: 0,
                    rejoin_s: Some(max),
                },
            ],
            bursts: vec![BurstSpec {
                at_s: max,
                rack: 0,
                count: 2,
            }],
            ..ChaosSpec::default()
        };
        edge.validate().expect("the bound is a valid spec time");
        let plan = ChaosPlan::from_spec(&edge, &Cluster::heterogeneous(8), 1);
        assert_eq!(plan.events().len(), 9);
        let last = SimTime::from_micros(max * 1_000_000);
        assert_eq!(plan.events().last().map(|e| e.0), Some(last));
        const OVER: u64 = MAX_SPEC_SECS + 1;
        let overflows: [fn(&mut ChaosSpec); 7] = [
            |s| s.partitions[0].from_s = OVER,
            |s| s.partitions[0].until_s = OVER,
            |s| s.degrades[0].from_s = OVER,
            |s| s.degrades[0].until_s = OVER,
            |s| s.store_outages[0].from_s = OVER,
            |s| s.store_outages[1].rejoin_s = Some(OVER),
            |s| s.bursts[0].at_s = OVER,
        ];
        for overflow in overflows {
            let mut bad = edge.clone();
            overflow(&mut bad);
            let err = bad.validate().unwrap_err();
            assert!(err.contains("exceeds"), "{err}");
        }
    }

    #[test]
    fn validate_requires_finite_factors() {
        for bad in [f64::NAN, f64::INFINITY] {
            let straggler = ChaosSpec {
                straggler_factor: bad,
                ..ChaosSpec::default()
            };
            assert!(straggler.validate().is_err(), "straggler factor {bad}");
            let penalty = ChaosSpec {
                partition_penalty: bad,
                ..ChaosSpec::default()
            };
            assert!(penalty.validate().is_err(), "partition penalty {bad}");
            let mut degrade = ChaosSpec::default();
            degrade.degrades.push(DegradeSpec {
                factor: bad,
                from_s: 0,
                until_s: 5,
            });
            assert!(degrade.validate().is_err(), "degrade factor {bad}");
        }
    }

    #[test]
    fn controller_crash_expands_at_microsecond_precision() {
        let mut s = spec();
        s.controller_crashes = vec![
            ControllerCrashSpec { at_us: 12_000_001 },
            ControllerCrashSpec { at_us: 7 },
        ];
        assert!(s.validate().is_ok());
        assert!(!s.is_empty());
        let plan = ChaosPlan::from_spec(&s, &Cluster::heterogeneous(8), 42);
        let crashes: Vec<SimTime> = plan
            .events()
            .iter()
            .filter_map(|(at, e)| matches!(e, FaultEvent::ControllerCrash).then_some(*at))
            .collect();
        assert_eq!(
            crashes,
            vec![SimTime::from_micros(7), SimTime::from_micros(12_000_001)],
            "crashes must schedule at exact microsecond offsets, time-ordered"
        );
        let only = ChaosSpec {
            controller_crashes: vec![ControllerCrashSpec { at_us: 5 }],
            ..Default::default()
        };
        assert!(!only.is_empty());
    }

    #[test]
    fn seed_changes_oracles_not_schedule() {
        let c = Cluster::heterogeneous(8);
        let a = ChaosPlan::from_spec(&spec(), &c, 1);
        let b = ChaosPlan::from_spec(&spec(), &c, 2);
        assert_eq!(a.events(), b.events(), "schedule is spec-driven");
        let diff = (0..500u64)
            .filter(|&f| a.straggler(f, 0).is_some() != b.straggler(f, 0).is_some())
            .count();
        assert!(diff > 0, "seed must move the straggler oracle");
    }
}
