//! The dollar-cost model.
//!
//! §V-D.4: "$0.000017 per second of execution, per GB of memory
//! allocated" (IBM Cloud Functions, which is OpenWhisk-based; AWS
//! Lambda's $0.0000167 is comparable). The cost of concurrent functions
//! is aggregated, and Canary's replicas/standbys are billed for their
//! whole parked lifetime.

use canary_container::ContainerPurpose;
use canary_platform::RunResult;

/// Per-GB·s pricing.
#[derive(Debug, Clone, Copy)]
pub struct PricingModel {
    /// Dollars per GB·second.
    pub per_gb_second: f64,
}

impl PricingModel {
    /// IBM Cloud Functions pricing, used throughout the paper.
    pub const IBM_CLOUD: PricingModel = PricingModel {
        per_gb_second: 0.000017,
    };

    /// AWS Lambda pricing (for the comparison in §V-D.4).
    pub const AWS_LAMBDA: PricingModel = PricingModel {
        per_gb_second: 0.0000167,
    };

    /// Total dollar cost of a run.
    pub fn cost(&self, result: &RunResult) -> f64 {
        result.gb_seconds() * self.per_gb_second
    }

    /// Dollar cost attributable to one container purpose.
    pub fn cost_for(&self, result: &RunResult, purpose: ContainerPurpose) -> f64 {
        result.gb_seconds_for(purpose) * self.per_gb_second
    }

    /// Cost split: (functions, replicas, standbys).
    pub fn breakdown(&self, result: &RunResult) -> (f64, f64, f64) {
        (
            self.cost_for(result, ContainerPurpose::Function),
            self.cost_for(result, ContainerPurpose::Replica),
            self.cost_for(result, ContainerPurpose::Standby),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use canary_platform::{ContainerUsage, RunCounters};
    use canary_sim::SimTime;

    fn result_with(usages: Vec<ContainerUsage>) -> RunResult {
        RunResult {
            strategy: "t".into(),
            fns: vec![],
            jobs: vec![],
            containers: usages,
            counters: RunCounters::default(),
            finished_at: SimTime::ZERO,
            trace: Default::default(),
            telemetry: Default::default(),
            profile: Default::default(),
        }
    }

    fn usage(purpose: ContainerPurpose, mb: u64, secs: u64) -> ContainerUsage {
        ContainerUsage {
            purpose,
            memory_mb: mb,
            created: SimTime::ZERO,
            terminated: SimTime::from_micros(secs * 1_000_000),
        }
    }

    #[test]
    fn ibm_pricing_matches_paper() {
        assert!((PricingModel::IBM_CLOUD.per_gb_second - 0.000017).abs() < 1e-12);
        // 1 GB for 1000 s => $0.017.
        let r = result_with(vec![usage(ContainerPurpose::Function, 1024, 1000)]);
        assert!((PricingModel::IBM_CLOUD.cost(&r) - 0.017).abs() < 1e-9);
    }

    #[test]
    fn aws_is_comparable_but_cheaper() {
        let (aws, ibm) = (
            PricingModel::AWS_LAMBDA.per_gb_second,
            PricingModel::IBM_CLOUD.per_gb_second,
        );
        assert!(aws < ibm);
        let diff = (PricingModel::IBM_CLOUD.per_gb_second - PricingModel::AWS_LAMBDA.per_gb_second)
            / PricingModel::IBM_CLOUD.per_gb_second;
        assert!(diff < 0.03, "within a few percent");
    }

    #[test]
    fn breakdown_sums_to_total() {
        let r = result_with(vec![
            usage(ContainerPurpose::Function, 2048, 100),
            usage(ContainerPurpose::Replica, 1024, 200),
            usage(ContainerPurpose::Standby, 512, 50),
        ]);
        let p = PricingModel::IBM_CLOUD;
        let (f, rep, s) = p.breakdown(&r);
        assert!(f > 0.0 && rep > 0.0 && s > 0.0);
        assert!((f + rep + s - p.cost(&r)).abs() < 1e-12);
    }
}
