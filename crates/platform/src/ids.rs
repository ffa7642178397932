//! Identifiers for jobs and function invocations.
//!
//! §IV-C.1: the Core Module "generates a set of unique IDs for the
//! submitted jobs functions, checkpoints, and replicas". Jobs and function
//! invocations are identified platform-wide; both are dense indices into
//! the run's tables.

use std::fmt;

/// A submitted job (a batch of function invocations of one workload).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct JobId(pub u32);

/// One function invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct FnId(pub u64);

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job{}", self.0)
    }
}

impl fmt::Display for FnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fn{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        assert_eq!(JobId(3).to_string(), "job3");
        assert_eq!(FnId(42).to_string(), "fn42");
    }

    #[test]
    fn ordering_follows_index() {
        assert!(FnId(1) < FnId(2));
        assert!(JobId(0) < JobId(1));
    }
}
