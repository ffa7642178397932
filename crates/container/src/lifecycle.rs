//! Container lifecycle.
//!
//! A container moves through pull → launch → init → warm → executing,
//! ending at completed, failed, or reclaimed. Replicated runtimes are
//! containers parked in `Warm`; the default retry path pays the full
//! left-to-right traversal again.

use canary_cluster::NodeId;
use canary_workloads::RuntimeKind;
use std::fmt;

/// Container identity, unique within one simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ContainerId(pub u64);

impl fmt::Display for ContainerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ctr{}", self.0)
    }
}

/// Why a container exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ContainerPurpose {
    /// Hosts a scheduled function invocation.
    Function,
    /// A Canary replicated runtime parked warm for recovery.
    Replica,
    /// An active-standby baseline's passive instance.
    Standby,
}

/// Lifecycle phases.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ContainerState {
    /// Image being pulled from the registry.
    Pulling,
    /// Container being created.
    Launching,
    /// Runtime initializing inside the container.
    Initializing,
    /// Ready to execute (a warm runtime).
    Warm,
    /// Running a function.
    Executing,
    /// Function finished successfully.
    Completed,
    /// Killed by a fault (function- or node-level).
    Failed,
    /// Torn down by the platform (idle reclaim / replica refresh).
    Reclaimed,
}

impl ContainerState {
    /// Legal forward transitions.
    pub fn can_transition_to(self, next: ContainerState) -> bool {
        use ContainerState::*;
        matches!(
            (self, next),
            (Pulling, Launching)
                | (Launching, Initializing)
                | (Initializing, Warm)
                | (Warm, Executing)
                | (Executing, Completed)
                | (Executing, Failed)
                // Failures can strike during startup too.
                | (Pulling, Failed)
                | (Launching, Failed)
                | (Initializing, Failed)
                | (Warm, Failed)
                // The platform may reclaim anything not already terminal.
                | (Pulling, Reclaimed)
                | (Launching, Reclaimed)
                | (Initializing, Reclaimed)
                | (Warm, Reclaimed)
                | (Executing, Reclaimed)
        )
    }

    /// True for states that can never change again.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            ContainerState::Completed | ContainerState::Failed | ContainerState::Reclaimed
        )
    }
}

/// A tracked container.
#[derive(Debug, Clone)]
pub struct Container {
    /// Identity.
    pub id: ContainerId,
    /// Node hosting it.
    pub node: NodeId,
    /// Runtime image it runs.
    pub runtime: RuntimeKind,
    /// Why it exists.
    pub purpose: ContainerPurpose,
    /// Current lifecycle phase.
    pub state: ContainerState,
}

impl Container {
    /// New container beginning its cold start.
    pub fn new(
        id: ContainerId,
        node: NodeId,
        runtime: RuntimeKind,
        purpose: ContainerPurpose,
    ) -> Self {
        Container {
            id,
            node,
            runtime,
            purpose,
            state: ContainerState::Pulling,
        }
    }

    /// Apply a transition; returns an error string naming the illegal move
    /// (lifecycle violations are platform bugs, surfaced loudly in tests).
    pub fn transition(&mut self, next: ContainerState) -> Result<(), String> {
        if self.state.can_transition_to(next) {
            self.state = next;
            Ok(())
        } else {
            Err(format!(
                "illegal container transition {:?} -> {next:?} for {}",
                self.state, self.id
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctr() -> Container {
        Container::new(
            ContainerId(1),
            NodeId(0),
            RuntimeKind::Python,
            ContainerPurpose::Function,
        )
    }

    #[test]
    fn happy_path() {
        let mut c = ctr();
        for next in [
            ContainerState::Launching,
            ContainerState::Initializing,
            ContainerState::Warm,
            ContainerState::Executing,
            ContainerState::Completed,
        ] {
            c.transition(next).unwrap();
        }
        assert!(c.state.is_terminal());
    }

    #[test]
    fn failure_from_any_live_state() {
        for upto in 0..5 {
            let mut c = ctr();
            let path = [
                ContainerState::Launching,
                ContainerState::Initializing,
                ContainerState::Warm,
                ContainerState::Executing,
            ];
            for next in path.iter().take(upto) {
                c.transition(*next).unwrap();
            }
            c.transition(ContainerState::Failed).unwrap();
            assert!(c.state.is_terminal());
        }
    }

    #[test]
    fn terminal_states_are_final() {
        let mut c = ctr();
        c.transition(ContainerState::Failed).unwrap();
        assert!(c.transition(ContainerState::Launching).is_err());
        assert!(c.transition(ContainerState::Executing).is_err());
        assert!(c.transition(ContainerState::Reclaimed).is_err());
    }

    #[test]
    fn cannot_skip_phases() {
        let mut c = ctr();
        assert!(c.transition(ContainerState::Executing).is_err());
        assert!(c.transition(ContainerState::Warm).is_err());
        assert!(c.transition(ContainerState::Completed).is_err());
    }

    #[test]
    fn warm_replica_can_execute() {
        let mut c = Container::new(
            ContainerId(2),
            NodeId(1),
            RuntimeKind::Java,
            ContainerPurpose::Replica,
        );
        c.transition(ContainerState::Launching).unwrap();
        c.transition(ContainerState::Initializing).unwrap();
        c.transition(ContainerState::Warm).unwrap();
        c.transition(ContainerState::Executing).unwrap();
        c.transition(ContainerState::Completed).unwrap();
    }
}
