//! Node lifecycle events and the retryable/unretryable error taxonomy (§V-D):
//! retryable errors trigger failover; unretryable ones must terminate the job.

use crate::NodeId;
use antdt_sim::SimTime;

/// Errors the framework recovers from by restarting the node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RetryableError {
    /// Deliberate termination by the `KILL_RESTART` action.
    ProactiveKill,
    /// Transient network failure.
    NetworkError,
    /// The multi-tenant scheduler evicted the pod.
    JobEviction,
    /// Machine breakdown / OOM-kill by the kubelet.
    NodeFailure,
}

/// Errors that must terminate the whole training job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnretryableError {
    /// Bad user configuration (wrong paths, malformed hyper-parameters…).
    ConfigError,
    /// A bug in user code (exception in the training loop).
    ProgramError,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ErrorClass {
    Retryable(RetryableError),
    Unretryable(UnretryableError),
}

/// A node lifecycle notification delivered to the Monitor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NodeEvent {
    Killed { node: NodeId, at: SimTime, class: ErrorClass },
    Restarted { node: NodeId, at: SimTime },
}

impl NodeEvent {
    pub fn node(&self) -> NodeId {
        match *self {
            NodeEvent::Killed { node, .. } | NodeEvent::Restarted { node, .. } => node,
        }
    }

    pub fn at(&self) -> SimTime {
        match *self {
            NodeEvent::Killed { at, .. } | NodeEvent::Restarted { at, .. } => at,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_accessors() {
        let e = NodeEvent::Killed {
            node: NodeId::worker(2),
            at: SimTime::from_secs_f64(5.0),
            class: ErrorClass::Retryable(RetryableError::ProactiveKill),
        };
        assert_eq!(e.node(), NodeId::worker(2));
        assert_eq!(e.at(), SimTime::from_secs_f64(5.0));
    }
}
