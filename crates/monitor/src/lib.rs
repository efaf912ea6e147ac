//! # antdt-monitor — the AntDT Monitor component
//!
//! Periodically gathers and aggregates the three kinds of information the paper
//! lists (§V-D) and exposes them to the Controller:
//!
//! * **Application state** — batch processing time (BPT) and batch size per
//!   node, averaged over two sliding windows: a short one `L_trans` (default
//!   5 min) that surfaces *transient* stragglers and a long one `L_per`
//!   (default 10 min) for *persistent* stragglers.
//! * **Node state** — lifecycle events (kills, restarts) and errors, classified
//!   into *retryable* (proactive `KILL_RESTART` terminations, network errors,
//!   job eviction) and *unretryable* (configuration / program errors, which must
//!   fail the job).
//! * **Third-party information** — cluster-scheduler signals: whether the
//!   cluster is busy and the expected pod pending time, which gates
//!   `KILL_RESTART`.
//!
//! Observability here is deliberately minute-level, not real-time (§V-A).

pub mod events;
pub mod snapshot;
pub mod store;
pub mod window;

pub use events::{ErrorClass, NodeEvent, RetryableError, UnretryableError};
pub use snapshot::{ClusterInfo, MonitorSnapshot, NodeStats};
pub use store::{MetricStore, MonitorConfig, MonitorCounts};
pub use window::BptWindow;

/// Role of a node in the Parameter Server architecture. AllReduce jobs only
/// have workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Role {
    Worker,
    Server,
}

/// A node address: role + dense index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId {
    pub role: Role,
    pub idx: u32,
}

impl NodeId {
    pub fn worker(idx: u32) -> Self {
        NodeId { role: Role::Worker, idx }
    }
    pub fn server(idx: u32) -> Self {
        NodeId { role: Role::Server, idx }
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.role {
            Role::Worker => write!(f, "w{}", self.idx),
            Role::Server => write!(f, "ps-{}", self.idx),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_display_matches_paper_naming() {
        assert_eq!(NodeId::worker(3).to_string(), "w3");
        assert_eq!(NodeId::server(2).to_string(), "ps-2");
    }
}
