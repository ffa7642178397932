//! Runtime images.
//!
//! §I: a runtime is a container image bundling the language runtime,
//! libraries, and packages a function needs. Cold-start cost — image pull
//! (when the node has no cached copy), container launch, and runtime
//! initialization — is precisely what Canary's replicated runtimes
//! eliminate (they are warm containers), so the per-runtime profiles here
//! drive Fig. 4's per-runtime differences.

use canary_sim::SimDuration;
use canary_workloads::RuntimeKind;

/// Timing and size profile of one runtime image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ImageProfile {
    /// Which language runtime this image provides.
    pub runtime: RuntimeKind,
    /// Compressed image size in MB (drives pull time on slow links).
    pub size_mb: u64,
    /// Registry pull time on the reference node when uncached.
    pub pull: SimDuration,
    /// Container creation/launch time (`lch_f` in Eq. 1).
    pub launch: SimDuration,
    /// Runtime initialization time (`ini_f` in Eq. 1): interpreter / VM
    /// startup plus library loading.
    pub init: SimDuration,
}

impl ImageProfile {
    /// Profile for a runtime, calibrated to typical OpenWhisk action
    /// container behaviour: Node.js starts fastest, Python carries heavier
    /// libraries, the JVM is slowest to initialize.
    pub fn for_runtime(runtime: RuntimeKind) -> Self {
        match runtime {
            RuntimeKind::Python => ImageProfile {
                runtime,
                size_mb: 450,
                pull: SimDuration::from_millis(3_500),
                launch: SimDuration::from_millis(800),
                init: SimDuration::from_millis(1_200),
            },
            RuntimeKind::NodeJs => ImageProfile {
                runtime,
                size_mb: 350,
                pull: SimDuration::from_millis(3_000),
                launch: SimDuration::from_millis(800),
                init: SimDuration::from_millis(600),
            },
            RuntimeKind::Java => ImageProfile {
                runtime,
                size_mb: 650,
                pull: SimDuration::from_millis(5_000),
                launch: SimDuration::from_millis(800),
                init: SimDuration::from_millis(3_500),
            },
        }
    }

    /// Reference cold-start time when the image is already cached on the
    /// node (launch + init only).
    pub fn warm_pull_cold_start(&self) -> SimDuration {
        self.launch + self.init
    }

    /// Reference cold-start time including the registry pull.
    pub fn full_cold_start(&self) -> SimDuration {
        self.pull + self.launch + self.init
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn java_has_slowest_init() {
        let py = ImageProfile::for_runtime(RuntimeKind::Python);
        let js = ImageProfile::for_runtime(RuntimeKind::NodeJs);
        let jv = ImageProfile::for_runtime(RuntimeKind::Java);
        assert!(jv.init > py.init);
        assert!(py.init > js.init);
    }

    #[test]
    fn cold_start_decomposition() {
        for rt in RuntimeKind::ALL {
            let p = ImageProfile::for_runtime(rt);
            assert_eq!(p.full_cold_start(), p.pull + p.warm_pull_cold_start());
            assert!(!p.launch.is_zero() && !p.init.is_zero() && !p.pull.is_zero());
        }
    }

    #[test]
    fn bigger_images_pull_longer() {
        let js = ImageProfile::for_runtime(RuntimeKind::NodeJs);
        let jv = ImageProfile::for_runtime(RuntimeKind::Java);
        assert!(jv.size_mb > js.size_mb);
        assert!(jv.pull > js.pull);
    }
}
