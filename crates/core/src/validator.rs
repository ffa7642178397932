//! The Request Validator Module.
//!
//! §IV-C.2: prevents request failures before processing begins — it checks
//! that requested resources are within platform limits and that launching
//! the job's functions would not exceed the account's concurrency limit;
//! jobs that would exceed it are queued until capacity frees up. The
//! validator is stateless: it only judges requests against its limits,
//! and the engine owns the one admission queue that holds them.

use canary_platform::{JobSpec, RunConfigError};
use std::error::Error;
use std::fmt;

/// Platform/account limits the validator enforces (modelled on public
/// FaaS quotas, e.g. AWS Lambda's 10 GB memory cap and 1000 concurrent
/// executions).
#[derive(Debug, Clone)]
pub struct PlatformLimits {
    /// Maximum memory per function, MB.
    pub max_memory_mb: u64,
    /// Maximum concurrently running functions for the account.
    pub max_concurrent: u32,
    /// Maximum invocations in one job request.
    pub max_batch: u32,
}

impl Default for PlatformLimits {
    fn default() -> Self {
        PlatformLimits {
            max_memory_mb: 10 * 1024,
            max_concurrent: 1000,
            max_batch: 10_000,
        }
    }
}

/// A request the validator rejected outright (would never succeed).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidationError {
    /// Per-function memory request exceeds the platform cap.
    MemoryLimit {
        /// Requested MB.
        requested: u64,
        /// Cap MB.
        limit: u64,
    },
    /// Batch larger than the platform accepts in one request.
    BatchLimit {
        /// Requested invocations.
        requested: u32,
        /// Cap.
        limit: u32,
    },
    /// The job alone exceeds the account's concurrency limit (even an
    /// empty cluster could never run it within quota).
    ConcurrencyImpossible {
        /// Requested invocations.
        requested: u32,
        /// Account concurrency cap.
        limit: u32,
    },
    /// The workload has no states (nothing to execute).
    EmptyWorkload,
    /// The batch's chain structure can never be admitted (a job chains
    /// after a batch entry at or beyond its own position).
    BadBatch(RunConfigError),
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidationError::MemoryLimit { requested, limit } => {
                write!(f, "memory {requested} MB exceeds limit {limit} MB")
            }
            ValidationError::BatchLimit { requested, limit } => {
                write!(f, "batch of {requested} exceeds limit {limit}")
            }
            ValidationError::ConcurrencyImpossible { requested, limit } => {
                write!(
                    f,
                    "{requested} invocations exceed concurrency quota {limit}"
                )
            }
            ValidationError::EmptyWorkload => write!(f, "workload has no states"),
            ValidationError::BadBatch(e) => write!(f, "malformed batch: {e}"),
        }
    }
}

impl Error for ValidationError {}

/// Admission decision for a valid request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Enough concurrency headroom: launch now.
    Admit,
    /// Valid but would exceed the current concurrency headroom: queue the
    /// job until running functions complete (§IV-C.2).
    Queue,
}

/// The validator: stateless checks against the platform limits.
#[derive(Debug, Default)]
pub struct RequestValidator {
    limits: PlatformLimits,
}

impl RequestValidator {
    /// Validator with the given limits.
    pub fn new(limits: PlatformLimits) -> Self {
        RequestValidator { limits }
    }

    /// The configured limits.
    pub fn limits(&self) -> &PlatformLimits {
        &self.limits
    }

    /// Static validation: would this request ever be runnable?
    pub fn validate(&self, job: &JobSpec) -> Result<(), ValidationError> {
        if job.workload.states.is_empty() {
            return Err(ValidationError::EmptyWorkload);
        }
        if job.workload.memory_mb > self.limits.max_memory_mb {
            return Err(ValidationError::MemoryLimit {
                requested: job.workload.memory_mb,
                limit: self.limits.max_memory_mb,
            });
        }
        if job.invocations > self.limits.max_batch {
            return Err(ValidationError::BatchLimit {
                requested: job.invocations,
                limit: self.limits.max_batch,
            });
        }
        if job.invocations > self.limits.max_concurrent {
            return Err(ValidationError::ConcurrencyImpossible {
                requested: job.invocations,
                limit: self.limits.max_concurrent,
            });
        }
        Ok(())
    }

    /// Validate a whole batch before submission: every job passes the
    /// per-request checks and the chain structure is admissible (each
    /// `after` edge points to an earlier batch entry). This is the typed
    /// front door for the mis-ordered-chain condition the engine used to
    /// assert on deep inside `run()`.
    pub fn validate_batch(&self, jobs: &[JobSpec]) -> Result<(), ValidationError> {
        for job in jobs {
            self.validate(job)?;
        }
        canary_platform::validate_batch(jobs).map_err(ValidationError::BadBatch)
    }

    /// Admission decision given the currently active function count.
    pub fn admit(&self, job: &JobSpec, active: u32) -> Result<Admission, ValidationError> {
        self.validate(job)?;
        if active.saturating_add(job.invocations) <= self.limits.max_concurrent {
            Ok(Admission::Admit)
        } else {
            Ok(Admission::Queue)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use canary_workloads::WorkloadSpec;

    fn job(invocations: u32) -> JobSpec {
        JobSpec::new(WorkloadSpec::web_service(5), invocations)
    }

    #[test]
    fn valid_job_admitted() {
        let v = RequestValidator::default();
        assert_eq!(v.admit(&job(100), 0).unwrap(), Admission::Admit);
    }

    #[test]
    fn memory_limit_enforced() {
        let v = RequestValidator::default();
        let mut j = job(1);
        j.workload.memory_mb = 64 * 1024;
        assert!(matches!(
            v.validate(&j),
            Err(ValidationError::MemoryLimit { .. })
        ));
    }

    #[test]
    fn batch_limit_enforced() {
        let limits = PlatformLimits {
            max_batch: 50,
            ..Default::default()
        };
        let v = RequestValidator::new(limits);
        assert!(matches!(
            v.validate(&job(51)),
            Err(ValidationError::BatchLimit { .. })
        ));
    }

    #[test]
    fn oversized_job_rejected_not_queued() {
        let limits = PlatformLimits {
            max_concurrent: 10,
            ..Default::default()
        };
        let v = RequestValidator::new(limits);
        assert!(matches!(
            v.admit(&job(11), 0),
            Err(ValidationError::ConcurrencyImpossible { .. })
        ));
    }

    #[test]
    fn concurrency_headroom_queues() {
        let limits = PlatformLimits {
            max_concurrent: 100,
            ..Default::default()
        };
        let v = RequestValidator::new(limits);
        assert_eq!(v.admit(&job(60), 50).unwrap(), Admission::Queue);
        assert_eq!(v.admit(&job(50), 50).unwrap(), Admission::Admit);
    }

    #[test]
    fn misordered_chain_rejected() {
        let v = RequestValidator::default();
        // Job 0 chains after entry 2, which is not an earlier entry.
        let mut first = job(2);
        first.after = Some(2);
        let batch = vec![first, job(2), job(2)];
        match v.validate_batch(&batch) {
            Err(ValidationError::BadBatch(RunConfigError::MisorderedChain { job, prereq })) => {
                assert_eq!((job, prereq), (0, 2));
            }
            other => panic!("expected BadBatch(MisorderedChain), got {other:?}"),
        }
        // Backwards chains are fine.
        let mut third = job(2);
        third.after = Some(0);
        assert!(v.validate_batch(&[job(2), job(2), third]).is_ok());
    }

    #[test]
    fn empty_workload_rejected() {
        let v = RequestValidator::default();
        let mut j = job(1);
        j.workload.states.clear();
        assert_eq!(v.validate(&j), Err(ValidationError::EmptyWorkload));
    }
}
