//! Workload specifications.
//!
//! §V-C.2 evaluates five classes of stateful applications: deep learning
//! (TensorFlow ResNet50 over 50 epochs), a web service (50 requests × 5
//! PostgreSQL queries), Spark data mining (diversity index over US census
//! data), data compression (SeBS 311.compression, 50 × ~1 GB files), and
//! graph search (SeBS 501.graph-bfs, 50 M-vertex binary tree, checkpoint
//! every 1 M vertices).
//!
//! A [`WorkloadSpec`] captures what the simulation needs: the language
//! runtime, memory allocation, and a sequence of *states* with reference
//! execution durations and checkpoint payload sizes. The matching *real*
//! compute kernels live in [`crate::kernels`].

use canary_sim::SimDuration;
use std::fmt;

/// Language runtime a workload's container uses (§V-C.2: the workloads are
/// written in Python, Node.js, and Java).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RuntimeKind {
    /// OpenWhisk Python 3 action runtime.
    Python,
    /// OpenWhisk Node.js action runtime.
    NodeJs,
    /// OpenWhisk Java action runtime.
    Java,
}

impl RuntimeKind {
    /// All runtimes, in the order the paper plots them (Fig. 4).
    pub const ALL: [RuntimeKind; 3] = [RuntimeKind::Python, RuntimeKind::NodeJs, RuntimeKind::Java];

    /// Stable lowercase label (what `Display` prints), allocation-free.
    pub fn label(&self) -> &'static str {
        match self {
            RuntimeKind::Python => "python",
            RuntimeKind::NodeJs => "nodejs",
            RuntimeKind::Java => "java",
        }
    }
}

impl fmt::Display for RuntimeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The five workload classes of the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadKind {
    /// ResNet50 on MNIST/CIFAR10, 50 epochs (TensorFlow in the paper).
    DeepLearning,
    /// Web front-end issuing 50 requests × 5 queries against PostgreSQL.
    WebService,
    /// Spark ETL computing local/national diversity indices on census data.
    SparkDataMining,
    /// SeBS 311.compression: zip of 50 input files of ~1 GB each.
    Compression,
    /// SeBS 501.graph-bfs: BFS over a 50 M-vertex binary tree.
    GraphBfs,
}

impl WorkloadKind {
    /// All workloads, in the paper's reporting order.
    pub const ALL: [WorkloadKind; 5] = [
        WorkloadKind::DeepLearning,
        WorkloadKind::WebService,
        WorkloadKind::SparkDataMining,
        WorkloadKind::Compression,
        WorkloadKind::GraphBfs,
    ];

    /// Short label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            WorkloadKind::DeepLearning => "DL",
            WorkloadKind::WebService => "Web",
            WorkloadKind::SparkDataMining => "Spark",
            WorkloadKind::Compression => "Compress",
            WorkloadKind::GraphBfs => "BFS",
        }
    }

    /// The runtime each workload's container image uses.
    pub fn runtime(self) -> RuntimeKind {
        match self {
            WorkloadKind::DeepLearning => RuntimeKind::Python, // hpdsl/canary:dltrain
            WorkloadKind::WebService => RuntimeKind::NodeJs,   // web front-end
            WorkloadKind::SparkDataMining => RuntimeKind::Java, // Spark jar
            WorkloadKind::Compression => RuntimeKind::Python,  // SeBS 311
            WorkloadKind::GraphBfs => RuntimeKind::Python,     // SeBS 501, igraph
        }
    }
}

impl fmt::Display for WorkloadKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One checkpointable state within a function execution (§III: the
/// interval `st_ij` between state updates plus the checkpoint payload).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StateSpec {
    /// Reference-node execution time of this state's work.
    pub exec: SimDuration,
    /// Size of the checkpoint payload produced when the state completes
    /// (critical data + state variables).
    pub ckpt_bytes: u64,
}

/// A complete workload description for one function invocation.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    /// Which application class this is.
    pub kind: WorkloadKind,
    /// Container runtime required.
    pub runtime: RuntimeKind,
    /// Memory allocation in MB (drives the GB·s cost model).
    pub memory_mb: u64,
    /// The state sequence; a function completes when all states complete.
    pub states: Vec<StateSpec>,
}

impl WorkloadSpec {
    /// DL training: `epochs` epochs; checkpoint after each epoch contains
    /// the model weights and biases (ResNet50 ≈ 98 MB).
    pub fn deep_learning(epochs: usize) -> Self {
        WorkloadSpec {
            kind: WorkloadKind::DeepLearning,
            runtime: RuntimeKind::Python,
            memory_mb: 2048,
            states: vec![
                StateSpec {
                    exec: SimDuration::from_millis(12_000),
                    ckpt_bytes: 98 * 1024 * 1024,
                };
                epochs
            ],
        }
    }

    /// The paper's DL configuration: ResNet50, 50 epochs.
    pub fn resnet50() -> Self {
        Self::deep_learning(50)
    }

    /// Web service: `requests` requests of five queries each; the
    /// checkpoint after each request stores queries and responses.
    pub fn web_service(requests: usize) -> Self {
        WorkloadSpec {
            kind: WorkloadKind::WebService,
            runtime: RuntimeKind::NodeJs,
            memory_mb: 256,
            states: vec![
                StateSpec {
                    exec: SimDuration::from_millis(600),
                    ckpt_bytes: 64 * 1024,
                };
                requests
            ],
        }
    }

    /// Spark data mining: one state per location batch; checkpoint when
    /// each location's diversity output is aggregated.
    pub fn spark_mining(location_batches: usize) -> Self {
        WorkloadSpec {
            kind: WorkloadKind::SparkDataMining,
            runtime: RuntimeKind::Java,
            memory_mb: 1024,
            states: vec![
                StateSpec {
                    exec: SimDuration::from_millis(2_500),
                    ckpt_bytes: 2 * 1024 * 1024,
                };
                location_batches
            ],
        }
    }

    /// Compression: each function compresses `files` ~1 GB inputs; a
    /// checkpoint is taken after each file.
    pub fn compression(files: usize) -> Self {
        WorkloadSpec {
            kind: WorkloadKind::Compression,
            runtime: RuntimeKind::Python,
            memory_mb: 512,
            states: vec![
                StateSpec {
                    // ~1 GB at ~150 MB/s zip throughput.
                    exec: SimDuration::from_millis(6_600),
                    ckpt_bytes: 1024 * 1024,
                };
                files
            ],
        }
    }

    /// Graph BFS over a binary tree with `vertices` vertices,
    /// checkpointing every `segment` traversed vertices (paper: 50 M
    /// vertices, 1 M per checkpoint).
    pub fn graph_bfs(vertices: u64, segment: u64) -> Self {
        assert!(segment > 0 && vertices > 0, "bad BFS parameters");
        let segments = vertices.div_ceil(segment) as usize;
        WorkloadSpec {
            kind: WorkloadKind::GraphBfs,
            runtime: RuntimeKind::Python,
            memory_mb: 1024,
            states: vec![
                StateSpec {
                    exec: SimDuration::from_millis(1_500),
                    ckpt_bytes: 4 * 1024 * 1024,
                };
                segments
            ],
        }
    }

    /// The paper's configuration for a given workload class.
    pub fn paper_default(kind: WorkloadKind) -> Self {
        match kind {
            WorkloadKind::DeepLearning => Self::resnet50(),
            WorkloadKind::WebService => Self::web_service(50),
            WorkloadKind::SparkDataMining => Self::spark_mining(40),
            WorkloadKind::Compression => Self::compression(10),
            WorkloadKind::GraphBfs => Self::graph_bfs(50_000_000, 1_000_000),
        }
    }

    /// A short synthetic workload bound to a specific runtime — used by
    /// Fig. 4's per-runtime sweep where the unit of interest is the
    /// container runtime, not the application.
    pub fn synthetic(runtime: RuntimeKind, states: usize, state_exec: SimDuration) -> Self {
        WorkloadSpec {
            kind: WorkloadKind::WebService,
            runtime,
            memory_mb: 512,
            states: vec![
                StateSpec {
                    exec: state_exec,
                    ckpt_bytes: 256 * 1024,
                };
                states
            ],
        }
    }

    /// Total reference execution time (no failures, no checkpoints).
    pub fn total_exec(&self) -> SimDuration {
        self.states.iter().map(|s| s.exec).sum()
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.states.len()
    }

    /// Largest checkpoint payload in the spec.
    pub fn max_ckpt_bytes(&self) -> u64 {
        self.states.iter().map(|s| s.ckpt_bytes).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_text() {
        let dl = WorkloadSpec::paper_default(WorkloadKind::DeepLearning);
        assert_eq!(dl.num_states(), 50); // 50 epochs
        assert_eq!(dl.runtime, RuntimeKind::Python);

        let web = WorkloadSpec::paper_default(WorkloadKind::WebService);
        assert_eq!(web.num_states(), 50); // 50 requests

        let bfs = WorkloadSpec::paper_default(WorkloadKind::GraphBfs);
        assert_eq!(bfs.num_states(), 50); // 50M vertices / 1M per ckpt
    }

    #[test]
    fn total_exec_sums_states() {
        let spec = WorkloadSpec::web_service(10);
        assert_eq!(spec.total_exec(), SimDuration::from_millis(6_000));
    }

    #[test]
    fn resnet_checkpoint_is_large() {
        let dl = WorkloadSpec::resnet50();
        assert!(dl.max_ckpt_bytes() > 64 * 1024 * 1024);
    }

    #[test]
    fn bfs_segments_round_up() {
        let spec = WorkloadSpec::graph_bfs(1_500_000, 1_000_000);
        assert_eq!(spec.num_states(), 2);
    }

    #[test]
    fn every_workload_has_a_runtime() {
        for kind in WorkloadKind::ALL {
            let spec = WorkloadSpec::paper_default(kind);
            assert_eq!(spec.kind, kind);
            assert_eq!(spec.runtime, kind.runtime());
            assert!(spec.num_states() > 0);
            assert!(!spec.total_exec().is_zero());
        }
    }

    #[test]
    fn synthetic_binds_runtime() {
        for rt in RuntimeKind::ALL {
            let s = WorkloadSpec::synthetic(rt, 5, SimDuration::from_secs(1));
            assert_eq!(s.runtime, rt);
            assert_eq!(s.num_states(), 5);
        }
    }
}
